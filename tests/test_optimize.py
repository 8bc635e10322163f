"""`nelder_mead` against scipy's Nelder-Mead, which it reproduces bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from swmparc.optimize import default_simplex, nelder_mead

# scipy warns on the inf - inf and NaN differences of its stop test
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


def scipy_nelder_mead(f, simplex, maxfev, xatol, fatol):
    simplex = np.asarray(simplex, dtype=np.float64)
    res = minimize(f, simplex[0], method="Nelder-Mead",
                   options={"initial_simplex": simplex, "maxfev": maxfev,
                            "xatol": xatol, "fatol": fatol})
    return res.x, res.fun, res.nfev


def same_run(ours, oracle):
    (x, fun, nfev), (x_ref, fun_ref, nfev_ref) = ours, oracle
    return (x.dtype == np.float64 and x.tobytes() == np.asarray(x_ref, np.float64).tobytes()
            and np.float64(fun).tobytes() == np.float64(fun_ref).tobytes()
            and nfev == nfev_ref)


def same_calls(f, simplex, maxfev, xatol, fatol):
    """Both optimizers give the same result and call ``f`` (a `make_objective`)
    at the same points, bit for bit, in the same order."""
    f.calls.clear()
    ours = nelder_mead(f, simplex, maxfev, xatol, fatol)
    calls = f.calls[:]
    f.calls.clear()
    oracle = scipy_nelder_mead(f, simplex, maxfev, xatol, fatol)
    return same_run(ours, oracle) and calls == f.calls


def make_objective(center, weights, inf_above, nan_below, plateau):
    """Weighted quadratic, +inf where x[0] > inf_above, NaN where
    x[-1] < nan_below, and floored to multiples of ``plateau`` (ties).
    Logs the bytes of every point it is called at in ``f.calls``."""
    def f(x):
        f.calls.append(np.asarray(x, dtype=np.float64).tobytes())
        x = [float(v) for v in x]
        if x[0] > inf_above:
            return math.inf
        if x[-1] < nan_below:
            return math.nan
        val = 0.0
        for v, c, w in zip(x, center, weights):
            val += w * (v - c) * (v - c)
        if plateau > 0.0:
            val = math.floor(val / plateau) * plateau
        return val
    f.calls = []
    return f


coordinate = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def problems(draw):
    n = draw(st.sampled_from([2, 3, 6]))
    center = draw(st.lists(coordinate, min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    inf_above = draw(st.sampled_from([math.inf, 1.0, 0.0]))
    nan_below = draw(st.sampled_from([-math.inf, -1.0, 0.0]))
    plateau = draw(st.sampled_from([0.0, 0.5, 4.0, 1e6]))
    x0 = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]) | coordinate, min_size=n, max_size=n))
    if draw(st.booleans()):
        simplex = default_simplex(x0)
    else:
        steps = draw(st.lists(st.sampled_from([1e-3, 0.5, 10.0]), min_size=n, max_size=n))
        simplex = [list(x0)] + [[v + (steps[i] if i == k else 0.0) for i, v in enumerate(x0)]
                                for k in range(n)]
    maxfev = draw(st.integers(0, 12) | st.integers(13, 400))
    xatol = draw(st.sampled_from([0.0, 1e-8, 1e-4, 1e-2]))
    fatol = draw(st.sampled_from([0.0, 1e-8, 1e-4, 1e-2]))
    f = make_objective(center, weights, inf_above, nan_below, plateau)
    return f, simplex, maxfev, xatol, fatol


@settings(max_examples=300, deadline=None)
@given(problems())
def test_matches_scipy_bit_for_bit(problem):
    assert same_calls(*problem)


def test_default_simplex_matches_scipy():
    x0 = [0.0, 1.0, -2.5, 1e-300, 3.0, 0.0]
    f = make_objective([0.3] * 6, [1.0] * 6, math.inf, -math.inf, 0.0)
    ours = nelder_mead(f, default_simplex(x0), 250, 1e-8, 1e-8)
    calls = f.calls[:]
    f.calls.clear()
    res = minimize(f, np.array(x0), method="Nelder-Mead",
                   options={"maxfev": 250, "xatol": 1e-8, "fatol": 1e-8})
    assert same_run(ours, (res.x, res.fun, res.nfev)) and calls == f.calls


@pytest.mark.parametrize("n", [2, 3, 6])
def test_budget_spent_inside_a_shrink(n):
    # a flat objective ties every cost and makes every iteration an inside
    # contraction plus a shrink of n evaluations; these budgets end the run
    # at every step of the first two iterations, shrinks included
    f = make_objective([0.0] * n, [1.0] * n, math.inf, -math.inf, 1e6)
    simplex = default_simplex(np.linspace(1.0, 2.0, n))
    for maxfev in range(n + 1, n + 2 + 2 * (n + 2)):
        assert nelder_mead(f, simplex, maxfev, 0.0, 0.0)[2] == maxfev
        assert same_calls(f, simplex, maxfev, 0.0, 0.0)


def test_a_nan_vertex():
    # NaN below x[1] = 0, flat above: a NaN vertex makes the smallest cost
    # NaN, as np.min gives, and keeps the stop test from passing
    f = make_objective([0.0, 0.0], [0.0, 0.0], math.inf, 0.0, 0.0)
    simplex = [[0.0, 1e-3], [1e-3, 1e-3], [0.0, -1e-3]]
    x, fun, nfev = nelder_mead(f, simplex, 3, 1.0, 1.0)
    assert math.isnan(fun) and x.tolist() == [0.0, 1e-3] and nfev == 3
    assert nelder_mead(f, simplex, 30, 1.0, 1.0)[2] > 3
    for maxfev in (3, 30):
        assert same_calls(f, simplex, maxfev, 1.0, 1.0)


def test_nan_costs_never_stop_the_run():
    f = make_objective([0.0, 0.0], [1.0, 1.0], math.inf, 10.0, 0.0)  # NaN everywhere
    x, fun, nfev = nelder_mead(f, default_simplex([1.0, 1.0]), 40, 1.0, 1.0)
    assert math.isnan(fun) and nfev == 40


def test_rejects_a_malformed_simplex():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: 0.0, [[0.0, 0.0], [1.0, 0.0]], 10, 0.0, 0.0)
