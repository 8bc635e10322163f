"""The package's two descents: Nelder-Mead for the Burr fits, BFGS for rigid SBR.

`nelder_mead` takes the steps of ``scipy.optimize.minimize(method=
"Nelder-Mead")`` with its default coefficients (reflect 1, expand 2, contract
and shrink 0.5) operation for operation: the same vertex arithmetic, the same
comparisons, the same `np.argsort` ordering of the costs (ties and NaN
included) and the same budget check before every call.  A run therefore gives
the same point, cost and evaluation count to the last bit.  The simplex is
kept as lists of Python floats, which for the 1 to 6 parameters fit here costs
a fraction of scipy's per-iteration array bookkeeping and function wrapper.

`bfgs` is a quasi-Newton descent on a cost with a gradient, with Armijo
backtracking; it asks for the gradient only at the steps it accepts.  It
ends on its own where the gradient is 0 or its line search finds no
decrease, so a cost floor it cannot get under (the registration cost's
3e-8 mm of rounding at a perfect match) does not spend its budget.
"""
from __future__ import annotations

import numpy as np

_NONZERO_DELTA = 0.05
_ZERO_DELTA = 0.00025
# sufficient decrease of the Armijo rule, as a share of the slope
_ARMIJO = 1e-4


class _BudgetSpent(Exception):
    pass


def default_simplex(x0) -> list[list[float]]:
    """scipy's default start: x0, then x0 with coordinate k scaled by 1.05
    (set to 0.00025 where it is 0) for each k."""
    x0 = [float(v) for v in x0]
    simplex = [x0]
    for k, v in enumerate(x0):
        vertex = list(x0)
        vertex[k] = (1 + _NONZERO_DELTA) * v if v != 0 else _ZERO_DELTA
        simplex.append(vertex)
    return simplex


def _sort(sim: list, fsim: list) -> tuple[list, list]:
    # np.argsort on a float64 array, as scipy orders them: the sort may be an
    # unstable SIMD one, and tied costs must come out in scipy's order
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def nelder_mead(f, simplex, maxfev: int, xatol: float, fatol: float):
    """Minimize ``f`` from an (N + 1, N) initial simplex.

    ``f`` gets each vertex as a list of N floats, which it must not modify,
    and returns a float.  It is called at most ``maxfev`` times; a spent
    budget ends the run, even in the middle of a shrink.  The run also stops
    once every vertex lies within ``xatol`` of the best in every coordinate
    and every cost within ``fatol`` of the best cost (a NaN never passes).

    Returns ``(x, fun, nfev)``: the best vertex as a float64 array, the
    smallest cost (NaN if any vertex cost is NaN, as `np.min` gives) and the
    number of calls of ``f``.
    """
    sim = [[float(v) for v in vertex] for vertex in simplex]
    n = len(sim) - 1
    if n < 1 or any(len(vertex) != n for vertex in sim):
        raise ValueError("the simplex must have shape (N + 1, N)")
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(f(x))

    fsim = [np.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    # scipy orders the first simplex twice; with ties an unstable sort may
    # permute them again, so do the same
    sim, fsim = _sort(sim, fsim)
    sim, fsim = _sort(sim, fsim)

    while nfev < maxfev:
        try:
            best, worst = sim[0], sim[-1]
            if (all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])
                    and all(abs(a - b) <= xatol for vertex in sim[1:] for a, b in zip(vertex, best))):
                break
            # centroid of all but the worst vertex: rows summed in order, as np.add.reduce
            xbar = []
            for column in zip(*sim[:n]):
                total = column[0]
                for v in column[1:]:
                    total += v
                xbar.append(total / n)

            xr = [2 * b - w for b, w in zip(xbar, worst)]
            fxr = evaluate(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                fxcc = evaluate(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                    fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sort(sim, fsim)

    return np.array(sim[0]), float(np.min(fsim)), nfev


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
