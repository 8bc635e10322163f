"""Nelder-Mead simplex descent shared by the distribution fits and rigid SBR.

`nelder_mead` takes the steps of ``scipy.optimize.minimize(method=
"Nelder-Mead")`` with its default coefficients (reflect 1, expand 2, contract
and shrink 0.5) operation for operation: the same vertex arithmetic, the same
comparisons, the same `np.argsort` ordering of the costs (ties and NaN
included) and the same budget check before every call.  A run therefore gives
the same point, cost and evaluation count to the last bit.  The simplex is
kept as lists of Python floats, which for the 1 to 6 parameters fit here costs
a fraction of scipy's per-iteration array bookkeeping and function wrapper.
"""
from __future__ import annotations

import numpy as np

_NONZERO_DELTA = 0.05
_ZERO_DELTA = 0.00025


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
