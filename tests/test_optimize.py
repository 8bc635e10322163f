"""`bfgs` on costs whose minimum is known and against the descent that took a
gradient at every line-search trial; the package's import leaves out
`scipy.optimize`."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swmparc
from swmparc.optimize import bfgs

from conftest import reference_bfgs


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


# the first direction is the zero gradient over its zero norm
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
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
    # has its own descent and Newton solves
    source_root = str(Path(swmparc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, swmparc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
