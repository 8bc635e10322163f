"""`nelder_mead` against scipy's Nelder-Mead, which it reproduces bit for bit,
and `bfgs` on costs whose minimum is known and against the descent that took a
gradient at every line-search trial."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import swmparc
from swmparc.optimize import bfgs, default_simplex, nelder_mead

from conftest import reference_bfgs

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


def counted(f, grad):
    """``f`` and ``grad`` logging their call points in one list, as ("f", x)
    and ("grad", x); ``grad`` fails unless the last call was ``f`` at x."""
    calls = []

    def wrapped_f(x):
        calls.append(("f", np.array(x)))
        return f(x)

    def wrapped_grad(x):
        assert calls and calls[-1][0] == "f" and calls[-1][1].tobytes() == x.tobytes()
        calls.append(("grad", np.array(x)))
        return grad(x)
    return wrapped_f, wrapped_grad, calls


def points(calls, kind):
    return [x for name, x in calls if name == kind]


def quadratic(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((6, 6))
    hessian = q @ q.T + 0.5 * np.eye(6)
    center = rng.uniform(-10.0, 10.0, 6)

    def f(x):
        d = x - center
        return 0.5 * float(d @ hessian @ d)

    return f, lambda x: hessian @ (x - center), center


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bfgs_finds_the_minimum_of_a_convex_quadratic(seed):
    f0, g0, center = quadratic(seed)
    f, grad, calls = counted(f0, g0)
    x0 = np.zeros(6)
    x, fun, nfev = bfgs(f, grad, x0, f0(x0), g0(x0), [10.0] * 6, 500, xatol=1e-6, fatol=1e-12)
    assert nfev == len(points(calls, "f")) < 500
    assert np.abs(x - center).max() < 1e-3
    assert fun == f0(x) <= f0(x0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 8, 500]))
def test_bfgs_matches_the_gradient_at_every_trial(seed, maxfev):
    # the same points, cost and count as the descent that computed a
    # gradient at every trial; the gradient is asked for only at accepted
    # steps, so never more often than the cost
    f0, g0, _ = quadratic(seed)
    f, grad, calls = counted(f0, g0)
    x0 = np.zeros(6)
    ours = bfgs(f, grad, x0, f0(x0), g0(x0), [10.0] * 6, maxfev, xatol=1e-6, fatol=1e-12)
    oracle_calls = []

    def fg(x):
        oracle_calls.append(np.array(x))
        return f0(x), g0(x)

    oracle = reference_bfgs(fg, x0, f0(x0), g0(x0), [10.0] * 6, maxfev, xatol=1e-6, fatol=1e-12)
    assert ours[0].tobytes() == oracle[0].tobytes() and ours[1:] == oracle[1:]
    assert [x.tobytes() for x in points(calls, "f")] == [x.tobytes() for x in oracle_calls]
    assert len(points(calls, "grad")) <= len(oracle_calls)


def test_bfgs_rejected_trials_take_no_gradient():
    # a steep valley: the first one-unit step overshoots and is halved six
    # times; only the accepted seventh trial gets a gradient
    f, grad, calls = counted(lambda x: float(50.0 * x @ x), lambda x: 100.0 * x)
    x0 = np.array([0.1, 0.0])
    x, fun, nfev = bfgs(f, grad, x0, 0.5, 100.0 * x0, [10.0, 10.0], 7, xatol=1e-8, fatol=0.0)
    assert [name for name, _ in calls] == ["f"] * 7 + ["grad"]
    assert nfev == 7 and x.tolist() == [0.1 - 10.0 / 64, 0.0]
    assert fun == f(x) < 0.5


def test_bfgs_first_step_and_budget():
    # the first trial goes down the gradient by one unit of the scale
    f, grad, calls = counted(lambda x: float(x @ x), lambda x: 2.0 * x)
    x0 = np.array([3.0, 4.0])
    x, fun, nfev = bfgs(f, grad, x0, 25.0, 2.0 * x0, [0.5, 2.0], 1, xatol=1e-8, fatol=0.0)
    assert nfev == 1
    # gradient (6, 8), in units of the scale (3, 16)
    first = points(calls, "f")[0]
    assert np.allclose(first, x0 - np.array([0.5 * 3.0, 2.0 * 16.0]) / math.hypot(3.0, 16.0))
    assert fun == float(x @ x) < 25.0


def test_bfgs_stops_at_a_zero_gradient():
    f, grad, calls = counted(lambda x: 1.0, lambda x: np.zeros(3))
    x, fun, nfev = bfgs(f, grad, np.ones(3), 1.0, np.zeros(3), [1.0] * 3, 100, xatol=1e-2,
                        fatol=0.0)
    assert (nfev, calls, fun) == (0, [], 1.0)
    assert x.tolist() == [1.0] * 3


def test_bfgs_stops_when_no_step_decreases():
    # a kink at 0: every step along the gradient rises, so the line search
    # halves until no parameter moves by more than xatol, and no trial is
    # accepted, so no gradient is taken after the start
    f, grad, calls = counted(lambda x: float(np.abs(x).sum() + 1.0),
                             lambda x: -np.sign(x) - (x == 0))
    x0 = np.zeros(2)
    x, fun, nfev = bfgs(f, grad, x0, 1.0, -np.ones(2), [1.0, 1.0], 100, xatol=1e-3, fatol=0.0)
    assert x.tolist() == [0.0, 0.0] and fun == 1.0
    assert nfev == len(calls) == 1 + math.ceil(math.log2(1.0 / math.sqrt(2) / 1e-3))
    assert points(calls, "grad") == []


def test_cli_import_leaves_out_scipy_optimize():
    # importing scipy.optimize costs about 7 MB of peak memory; the package
    # has its own descents
    source_root = str(Path(swmparc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, swmparc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
