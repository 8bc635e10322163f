"""Distribution fits checked against dense-CDF quantile oracles.

The oracle integrates the fitted pdf on a fine grid and inverts the result by
interpolation, so it shares no code with the closed-form or bisection
quantile paths.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import betaln, digamma, gammaln

import swmparc.fitting as fitting
from swmparc.fitting import (
    FAMILIES,
    FittedDistribution,
    _bisect_quantile,
    _burr_cdf,
    _positive_shift,
    _sane_params,
    empirical_histogram,
    fit_family,
    histogram_bins,
    select_best,
    sse_against_histogram,
)

from conftest import fit_all_families


def oracle_quantile(dist, p, lo, hi, points=400001):
    x = np.linspace(lo, hi, points)
    pdf = dist.pdf(x)
    cdf = np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(x))
    cdf = np.concatenate(([0.0], cdf))
    cdf /= cdf[-1]
    return float(np.interp(p, cdf, x))


FIXED = {
    "normal": {"mu": 4.0, "sigma": 1.5},
    "log-normal": {"mu": 0.8, "sigma": 0.4},
    "gamma": {"shape": 2.0, "scale": 3.0},
    "burr": {"c": 3.0, "k": 1.5, "lam": 4.0},
}
RANGES = {
    "normal": (-6.0, 14.0),
    "log-normal": (1e-9, 25.0),
    "gamma": (1e-9, 80.0),
    "burr": (1e-9, 60.0),
}


@pytest.mark.parametrize("family", ["normal", "log-normal", "gamma", "burr"])
def test_quantiles_match_dense_cdf_oracle(family):
    dist = FittedDistribution(family, FIXED[family], sse=0.0)
    lo, hi = RANGES[family]
    for p in (0.1, 0.5, 0.9):
        got = dist.quantile(p)
        want = oracle_quantile(dist, p, lo, hi)
        assert got == pytest.approx(want, rel=1e-3)
        # round trip through the cdf
        assert float(dist.cdf(got)) == pytest.approx(p, abs=1e-6)


def test_beta_quantile_matches_oracle():
    dist = FittedDistribution("beta", {"alpha": 2.0, "beta": 5.0}, sse=0.0,
                              support=(0.0, 1.0))
    for p in (0.1, 0.5, 0.9):
        got = dist.quantile(p)
        want = oracle_quantile(dist, p, 1e-9, 1.0 - 1e-9)
        assert got == pytest.approx(want, rel=1e-3)


def test_burr_closed_form_matches_bisection():
    dist = FittedDistribution("burr", FIXED["burr"], sse=0.0)
    for p in (0.05, 0.1, 0.5, 0.9, 0.99):
        closed = dist.quantile(p)
        bisected = _bisect_quantile(lambda y: _burr_cdf(dist, y), p, 0.0, 1e3)
        assert abs(closed - bisected) < 1e-6


def pdf_integral(dist, points=20001):
    """Trapezoid sum of the pdf over (effectively) its support."""
    lo, hi = dist.quantile(1e-7), dist.quantile(1.0 - 1e-7)
    x = np.linspace(lo, hi, points)
    pdf = dist.pdf(x)
    return float(np.sum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(x)))


def test_pdf_integrates_to_one():
    for family, params in FIXED.items():
        dist = FittedDistribution(family, params, sse=0.0)
        assert pdf_integral(dist) == pytest.approx(1.0, abs=1e-3)


def test_gamma_samples_select_gamma():
    hits = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.gamma(2.0, 3.0, size=10_000)
        best = select_best(x)
        assert best is not None
        if best.family == "gamma":
            hits += 1
            truth = FittedDistribution("gamma", {"shape": 2.0, "scale": 3.0}, sse=0.0)
            for p in (0.1, 0.9):
                assert best.quantile(p) == pytest.approx(truth.quantile(p), rel=0.05)
    assert hits >= 2


def test_select_best_minimizes_sse(rng):
    x = rng.normal(10.0, 2.0, size=400)
    fits = fit_all_families(x)
    best = select_best(x)
    available = [f.sse for f in fits.values() if f is not None and math.isfinite(f.sse)]
    assert best.sse == min(available)


def test_tie_breaks_by_family_order(monkeypatch):
    import swmparc.fitting as fitting
    monkeypatch.setattr(fitting, "sse_against_histogram", lambda d, s: 1.0)
    x = np.random.default_rng(0).normal(5.0, 1.0, 200)
    best = fitting.select_best(x)
    assert best.family == "normal"


def test_constant_samples_fall_back():
    x = np.full(50, 3.0)
    # the normal fit exists (sigma floored) but its SSE is undefined
    fit = fit_family(x, "normal")
    assert fit is not None
    assert math.isinf(fit.sse)
    assert select_best(x) is None


def test_rounding_spread_never_overflows_a_descent():
    # eleven shape angles of 180 degrees (a bundle of straight lines) keep a
    # log spread of rounding size, which sends the burr descent to logs past
    # math.exp's range
    x = np.full(11, 180.0)
    assert float(np.std(np.log(x))) > 0.0
    for family in FAMILIES:
        fit_family(x, family)
    assert select_best(x) is None


def test_select_best_fits_nothing_without_a_histogram(monkeypatch):
    calls = []
    counted = {family: (lambda x, fit=fit: calls.append(1) or fit(x))
               for family, fit in fitting._FITTERS.items()}
    monkeypatch.setattr(fitting, "_FITTERS", counted)
    assert select_best(np.full(11, 180.0)) is None
    assert calls == []
    assert select_best(np.random.default_rng(0).normal(5.0, 1.0, 50)) is not None
    assert len(calls) == len(FAMILIES)


def test_positive_families_shift_zero_containing_samples(rng):
    x = np.abs(rng.normal(0.0, 2.0, 500))
    x[0] = 0.0
    for family in ("log-normal", "gamma"):
        fit = fit_family(x, family)
        assert fit is not None
        assert fit.shift > 0.0
        q = fit.quantile(0.5)
        assert np.isfinite(q)


def test_histogram_bin_rule():
    assert histogram_bins(4) == 10
    assert histogram_bins(100) == 10
    assert histogram_bins(101) == 11
    assert histogram_bins(2500) == 50


def test_sse_positive_for_imperfect_fit(rng):
    x = rng.normal(0.0, 1.0, 300)
    fit = fit_family(x, "normal")
    assert 0.0 < fit.sse < 1.0


def test_fit_family_validation(rng):
    with pytest.raises(ValueError):
        fit_family(rng.normal(size=100), "cauchy")
    with pytest.raises(ValueError):
        fit_family(np.ones(3), "normal")
    with pytest.raises(ValueError):
        fit_family(np.full(10, np.nan), "normal")
    d = FittedDistribution("normal", {"mu": 0.0, "sigma": 1.0}, sse=0.0)
    with pytest.raises(ValueError):
        d.quantile(0.0)


def test_all_families_recover_own_samples(rng):
    """Self-consistency: fitting the generating family gives close deciles."""
    n = 5000
    draws = {
        "normal": rng.normal(5.0, 2.0, n),
        "log-normal": rng.lognormal(1.0, 0.5, n),
        "gamma": rng.gamma(3.0, 2.0, n),
        "beta": rng.beta(2.0, 4.0, n),
    }
    for family, x in draws.items():
        fit = fit_family(x, family)
        assert fit is not None, family
        emp_lo, emp_hi = np.quantile(x, [0.1, 0.9])
        assert fit.quantile(0.1) == pytest.approx(emp_lo, rel=0.08, abs=0.05)
        assert fit.quantile(0.9) == pytest.approx(emp_hi, rel=0.08, abs=0.05)


def test_sse_uses_given_samples(rng):
    x = rng.normal(0.0, 1.0, 256)
    d = FittedDistribution("normal", {"mu": 0.0, "sigma": 1.0}, sse=0.0)
    good = sse_against_histogram(d, empirical_histogram(x))
    far = FittedDistribution("normal", {"mu": 50.0, "sigma": 1.0}, sse=0.0)
    assert sse_against_histogram(far, empirical_histogram(x)) > good


def draw_samples(family, n, seed):
    rng = np.random.default_rng(seed)
    if family == "normal":
        return rng.normal(rng.uniform(-5, 50), rng.uniform(0.1, 10), n)
    if family == "log-normal":
        return rng.lognormal(rng.uniform(-1, 3), rng.uniform(0.05, 1.0), n)
    if family == "gamma":
        return rng.gamma(rng.uniform(0.3, 20), rng.uniform(0.1, 5), n)
    if family == "beta":
        return 10.0 + 40.0 * rng.beta(rng.uniform(0.3, 8), rng.uniform(0.3, 8), n)
    c, k, lam = rng.uniform(0.5, 8), rng.uniform(0.3, 5), rng.uniform(1, 30)
    return lam * ((1.0 - rng.uniform(size=n)) ** (-1.0 / k) - 1.0) ** (1.0 / c)


def burr_profile(samples):
    """The profile negative log-likelihood over (log c, log lam) that the
    Burr fit of ``samples`` maximizes, as a function of t alone, and the
    fit's moment start."""
    y = samples + _positive_shift(samples)
    logy = np.log(y)
    sum_logy = float(np.add.reduce(logy))
    spread = float(np.std(logy))
    start = (math.log(max(math.pi / (math.sqrt(3.0) * spread), 0.1)), math.log(float(np.median(y))))

    def nll(t):
        with np.errstate(over="ignore", invalid="ignore"):
            return fitting._burr_nll(logy, sum_logy, tuple(float(v) for v in t))
    return nll, start


def in_burr_box(samples, t):
    """Whether c and k lie in [1e-3, 1e3] and lam in [1e-6, 1e6] at
    t = (log c, log lam), with k at its MLE."""
    y = samples + _positive_shift(samples)
    c, lam = np.exp(t)
    k = len(y) / float(np.logaddexp(0.0, c * np.log(y / lam)).sum())
    return 1e-3 <= c <= 1e3 and 1e-3 <= k <= 1e3 and 1e-6 <= lam <= 1e6


def burr_point(fit):
    return math.log(fit.params["c"]), math.log(fit.params["lam"])


@pytest.mark.parametrize("family", FAMILIES)
def test_fits_match_scipy_descent(family, monkeypatch):
    """The Burr solve against scipy's Nelder-Mead on the same profile
    likelihood from the same start, with the budget and tolerances of the
    descent the solve replaced: where the descent ends inside the box, the
    fit, or where there is none the point outside the box where the solve
    ended, is at least as likely."""
    burr_nll = fitting._burr_nll
    compared = 0
    for case in range(12):
        samples = draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
        profile, start = burr_profile(samples)
        evaluated = []
        with monkeypatch.context() as m:
            m.setattr(fitting, "_burr_nll",
                      lambda logy, s, t: evaluated.append(t) or burr_nll(logy, s, t))
            fit = fit_family(samples, "burr")
        with np.errstate(all="ignore"):
            res = minimize(lambda t: profile(t)[0], np.array(start), method="Nelder-Mead",
                           options={"maxfev": 300, "xatol": 1e-8, "fatol": 1e-8})
        if fit is None:
            end = evaluated[-1]
            assert not in_burr_box(samples, end), (case, end)
        else:
            end = burr_point(fit)
        if in_burr_box(samples, res.x):
            assert profile(end)[0] <= res.fun + 1e-9 * (1.0 + abs(res.fun)), (case, end, res.x)
            compared += 1
    assert compared >= 4


# ---------------------------------------------------------------------------
# the gamma, beta and Burr fits against their full likelihoods

def full_nll(family, y):
    """The gamma (log shape, log scale), beta (log alpha, log beta) or Burr
    (log c, log k, log lam) negative log-likelihood of ``y``, over every
    parameter: the shifted samples, or for beta the samples mapped to (0, 1)
    by the fit's support."""
    logy, n = np.log(y), len(y)

    def gamma(t):
        a, s = np.exp(t)
        return -((a - 1.0) * logy.sum() - y.sum() / s - n * (gammaln(a) + a * t[1]))

    def beta(t):
        a, b = np.exp(t)
        return -((a - 1.0) * logy.sum() + (b - 1.0) * np.log1p(-y).sum() - n * betaln(a, b))

    def burr(t):
        c, k = np.exp(t[:2])
        z = logy - t[2]
        return -(n * (t[0] + t[1] - t[2]) + (c - 1.0) * z.sum()
                 - (k + 1.0) * np.logaddexp(0.0, c * z).sum())

    nll = {"gamma": gamma, "beta": beta, "burr": burr}[family]

    def finite(t):
        with np.errstate(all="ignore"):
            val = float(nll(np.asarray(t, dtype=np.float64)))
        return val if math.isfinite(val) else math.inf
    return finite


def burr_3d_descent(x):
    """The Burr fit as scipy's Nelder-Mead over (log c, log k, log lam) from
    k = 1, as the fit was before k was profiled out; None where its
    parameters fail `_sane_params`."""
    y = x + _positive_shift(x)
    spread = float(np.std(np.log(y)))
    c0 = max(math.pi / (math.sqrt(3.0) * spread), 0.1)
    res = minimize(full_nll("burr", y), np.log([c0, 1.0, np.median(y)]), method="Nelder-Mead",
                   options={"maxfev": 300, "xatol": 1e-8, "fatol": 1e-8})
    c, k, lam = np.exp(res.x)
    if not math.isfinite(res.fun) or not (_sane_params(c, k, lo=1e-3, hi=1e3) and _sane_params(lam)):
        return None
    return res.x


PARAMS = {"gamma": ("shape", "scale"), "beta": ("alpha", "beta"), "burr": ("c", "k", "lam")}


@pytest.mark.parametrize("family", FAMILIES)
def test_profiled_fits_are_optima_of_the_full_likelihood(family):
    compared = dict.fromkeys(PARAMS, 0)
    for case in range(12):
        samples = draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
        for fitted, names in PARAMS.items():
            fit = fit_family(samples, fitted)
            if fit is None:
                continue
            if fitted == "beta":
                lo, hi = fit.support
                y = (samples - lo) / (hi - lo)
            else:
                y = samples + fit.shift
            nll = full_nll(fitted, y)
            t = np.log([fit.params[name] for name in names])
            here = nll(t)
            tolerance = 1e-6 * max(1.0, abs(here))
            res = minimize(nll, t, method="Nelder-Mead",
                           options={"maxfev": 2000, "xatol": 1e-10, "fatol": 1e-12})
            assert res.fun >= here - tolerance, (fitted, case, res.fun, here)
            compared[fitted] += 1
            if fitted == "burr":
                oracle = burr_3d_descent(samples)
                assert oracle is None or here <= nll(oracle) + tolerance, (case, nll(oracle), here)
    assert min(compared.values()) > 0, compared


# ---------------------------------------------------------------------------
# the Newton solves at their limits

DEGENERATE = {
    "rounding spread": np.full(11, 180.0),
    "near constant": 100.0 + 1e-7 * np.random.default_rng(3).standard_normal(8),
    "piled at one end": 10.0 + 40.0 * np.random.default_rng(4).beta(0.05, 3.0, 30),
}


def count_newton_steps(monkeypatch):
    """A list that gets one entry per Newton step of any solve: gamma and
    beta take one digamma per step, Burr one `_burr_derivatives`."""
    steps = []
    burr_derivatives = fitting._burr_derivatives
    monkeypatch.setattr(fitting, "digamma", lambda v: steps.append(1) or digamma(v))
    monkeypatch.setattr(fitting, "_burr_derivatives",
                        lambda t, state: steps.append(1) or burr_derivatives(t, state))
    return steps


@pytest.mark.parametrize("name", DEGENERATE)
def test_newton_solves_end_within_their_cap_on_degenerate_sets(name, monkeypatch):
    steps = count_newton_steps(monkeypatch)
    for family in ("gamma", "beta", "burr"):
        steps.clear()
        fit = fit_family(DEGENERATE[name], family)
        assert len(steps) <= fitting._NEWTON_MAX_ITER
        assert fit is None or _sane_params(*fit.params.values())


@pytest.mark.parametrize("family", FAMILIES)
def test_newton_solves_converge_before_their_cap(family, monkeypatch):
    steps = count_newton_steps(monkeypatch)
    for case in range(12):
        samples = draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
        for fitted in ("gamma", "beta", "burr"):
            steps.clear()
            fit_family(samples, fitted)
            assert 0 < len(steps) < fitting._NEWTON_MAX_ITER // 2, (fitted, case, len(steps))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAMILIES), st.sampled_from([8, 30, 200]), st.integers(0, 2**16),
       st.floats(-1.5, 1.5), st.floats(-1.0, 1.0))
def test_burr_derivatives_match_central_differences(family, n, seed, du, dv):
    # around the fit's start: the gradient against central differences of
    # the profile likelihood, the Hessian against those of the gradient
    profile, start = burr_profile(draw_samples(family, n, seed))
    t = np.array(start) + [du, dv]
    f, state = profile(t)
    assume(math.isfinite(f))
    gradient, (h00, h01, h11) = fitting._burr_derivatives(tuple(t), state)
    hessian = np.array([[h00, h01], [h01, h11]])
    h = 1e-6
    for i, e in enumerate(np.eye(2) * h):
        plus, minus = profile(t + e), profile(t - e)
        slope = (plus[0] - minus[0]) / (2.0 * h)
        assert gradient[i] == pytest.approx(slope, rel=1e-5, abs=1e-6 * (1.0 + abs(f)))
        bend = (np.array(fitting._burr_derivatives(tuple(t + e), plus[1])[0])
                - np.array(fitting._burr_derivatives(tuple(t - e), minus[1])[0])) / (2.0 * h)
        assert hessian[i] == pytest.approx(bend, rel=1e-5, abs=1e-6 * (1.0 + abs(f)))


def test_returned_burr_fits_are_stationary():
    fitted = 0
    cases = [draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
             for family in FAMILIES for case in range(12)]
    for samples in cases + list(DEGENERATE.values()):
        fit = fit_family(samples, "burr")
        if fit is None:
            continue
        profile, _ = burr_profile(samples)
        t = burr_point(fit)
        f, state = profile(t)
        (g0, g1), (h00, h01, h11) = fitting._burr_derivatives(t, state)
        assert max(abs(g0), abs(g1)) <= 1e-6 * (1.0 + abs(f)), (g0, g1)
        assert h00 > 0.0 and h00 * h11 - h01 * h01 > 0.0, (h00, h01, h11)
        fitted += 1
    assert fitted >= 20


def test_burr_parameters_agree_with_the_box():
    # positive samples near SIGMA_FLOOR: a fit keeps lam inside the box and
    # has k at the lam it returns (the median of those around 1e-8 starts the
    # solve below the box, so they get none)
    fitted = 0
    for scale in (1e-8, 1e-7, 1e-6, 1e-5):
        rng = np.random.default_rng(11)
        for spread in (0.05, 0.3, 1.0, 3.0):
            x = scale * rng.lognormal(0.0, spread, 40)
            fit = fit_family(x, "burr")
            if fit is None:
                continue
            c, k, lam = fit.params["c"], fit.params["k"], fit.params["lam"]
            assert 1e-3 <= c <= 1e3 and fitting.SIGMA_FLOOR <= lam <= 1e6
            y = x + fit.shift
            assert k == pytest.approx(len(y) / float(np.log1p((y / lam) ** c).sum()), rel=1e-9)
            fitted += 1
    assert fitted >= 3


def test_burr_descent_that_leaves_the_sane_box_ends_without_a_fit(monkeypatch):
    # a Pareto sample's likelihood grows without bound as c goes to infinity
    # with lam at the smallest sample
    x = 3.0 * (1.0 + np.random.default_rng(0).pareto(1.5, 30))
    profile, _ = burr_profile(x)
    evaluated, stepped_from = [], []
    burr_nll, burr_derivatives = fitting._burr_nll, fitting._burr_derivatives
    monkeypatch.setattr(fitting, "_burr_nll", lambda logy, s, t: evaluated.append(t) or burr_nll(logy, s, t))
    monkeypatch.setattr(fitting, "_burr_derivatives",
                        lambda t, state: stepped_from.append(t) or burr_derivatives(t, state))
    assert fit_family(x, "burr") is None
    assert 0 < len(stepped_from) < fitting._NEWTON_MAX_ITER
    # every point the solve stepped from lies in the box; the last point it
    # reached, more likely than the one before, does not
    assert all(in_burr_box(x, t) for t in stepped_from)
    end = evaluated[-1]
    assert not in_burr_box(x, end) and np.exp(end[0]) > 1e3
    assert profile(end)[0] < profile(stepped_from[-1])[0]
