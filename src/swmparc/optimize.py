"""The package's one descent: BFGS for rigid SBR.

`bfgs` is a quasi-Newton descent on a cost with a gradient, with Armijo
backtracking; it asks for the gradient only at the steps it accepts.  It
ends on its own where the gradient is 0 or its line search finds no
decrease, so a cost floor it cannot get under (the registration cost's
3e-8 mm of rounding at a perfect match) does not spend its budget.  The
distribution fits need no descent: `fitting` solves their likelihood
equations by Newton's method.
"""
from __future__ import annotations

import numpy as np

# sufficient decrease of the Armijo rule, as a share of the slope
_ARMIJO = 1e-4


def bfgs(f, grad, x0, f0: float, g0, scale, maxfev: int, xatol: float, fatol: float):
    """Minimize ``f`` by BFGS from ``x0``, given ``f0 = f(x0)`` and
    ``g0 = grad(x0)``.

    ``f(x)`` returns the cost at a float64 array ``x`` and ``grad(x)`` its
    gradient; neither may modify ``x``.  The line search calls ``f`` alone,
    and ``grad`` only at the step it accepts, right after the ``f`` call at
    that point, so a cost may take the gradient from what that call left
    behind.  The descent runs in units of ``scale``: its first step goes down
    the gradient by one unit, moving parameter k by at most ``scale[k]``.
    The inverse Hessian starts as y.s / y.y times the identity at the first
    update.  Each step backtracks from the full quasi-Newton step, halving it
    until the Armijo rule holds.  The run stops
    - after a step that moves every parameter by at most ``xatol`` and the
      cost by at most ``fatol``;
    - when the gradient is 0 or not a number, or the line search finds no
      decrease before its step is within ``xatol``;
    - once ``f`` has been called ``maxfev`` times.
    A step whose curvature y.s is not positive leaves the inverse Hessian
    as it is.

    Returns ``(x, fun, nfev)``: the last accepted point, its cost and the
    number of calls of ``f``.
    """
    scale = np.asarray(scale, dtype=np.float64)
    x, fx = np.array(x0, dtype=np.float64), float(f0)
    g = np.asarray(g0, dtype=np.float64) * scale
    h = None
    nfev = 0
    while True:
        p = -g / np.linalg.norm(g) if h is None else -(h @ g)
        slope = float(g @ p)
        if not slope < 0.0:
            break
        alpha = 1.0
        while True:
            if nfev >= maxfev:
                return x, fx, nfev
            step = alpha * p * scale
            trial = x + step
            f_new = float(f(trial))
            nfev += 1
            if f_new <= fx + _ARMIJO * alpha * slope:
                break
            if np.all(np.abs(step) <= xatol):
                return x, fx, nfev
            alpha *= 0.5
        small = bool(np.all(np.abs(step) <= xatol)) and fx - f_new <= fatol
        x, fx = trial, f_new
        if small:
            break
        g_new = np.asarray(grad(trial), dtype=np.float64) * scale
        s, y = alpha * p, g_new - g
        g = g_new
        ys = float(y @ s)
        if ys > 0.0:
            if h is None:
                h = np.eye(len(x)) * (ys / float(y @ y))
            hy = h @ y
            rho = 1.0 / ys
            h = (h - rho * (np.outer(s, hy) + np.outer(hy, s))
                 + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
    return x, fx, nfev
