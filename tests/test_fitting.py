"""Distribution fits checked against dense-CDF quantile oracles.

The oracle integrates the fitted pdf on a fine grid and inverts the result by
interpolation, so it shares no code with the closed-form or bisection
quantile paths.
"""
import math

import numpy as np
import pytest
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
from swmparc.optimize import default_simplex, nelder_mead

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


# ---------------------------------------------------------------------------
# the Burr fit with scipy's Nelder-Mead in place of `optimize.nelder_mead`

def scipy_descent(evaluated):
    """Stand-in for `nelder_mead` that runs scipy from its default simplex
    with the budget and tolerances of the Burr fit, and logs every
    (point, cost) in ``evaluated``."""
    def descent(f, simplex, maxfev, xatol, fatol):
        x0 = np.asarray(simplex[0], dtype=np.float64)
        assert simplex == default_simplex(x0)

        def logged(t):
            cost = f(t)
            evaluated.append((t.copy(), cost))
            return cost

        res = minimize(logged, x0, method="Nelder-Mead",
                       options={"maxfev": 300, "xatol": 1e-8, "fatol": 1e-8})
        return res.x, res.fun, res.nfev
    return descent


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


@pytest.mark.parametrize("family", FAMILIES)
def test_fits_match_scipy_descent(family, monkeypatch):
    for case in range(12):
        samples = draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
        ours_best = select_best(samples)
        ours_all = fit_all_families(samples)
        evaluated = []
        with monkeypatch.context() as m:
            m.setattr(fitting, "nelder_mead", scipy_descent(evaluated))
            assert select_best(samples) == ours_best
            assert fit_all_families(samples) == ours_all
        assert evaluated


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
    """The Burr fit as a descent over (log c, log k, log lam) from k = 1, as
    the fit was before k was profiled out; None where its parameters fail
    `_sane_params`."""
    y = x + _positive_shift(x)
    spread = float(np.std(np.log(y)))
    c0 = max(math.pi / (math.sqrt(3.0) * spread), 0.1)
    t, fun, _ = nelder_mead(full_nll("burr", y), default_simplex(np.log([c0, 1.0, np.median(y)])),
                            300, 1e-8, 1e-8)
    c, k, lam = np.exp(t)
    if not math.isfinite(fun) or not (_sane_params(c, k, lo=1e-3, hi=1e3) and _sane_params(lam)):
        return None
    return t


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
# the Newton solves and the Burr descent at their limits

DEGENERATE = {
    "rounding spread": np.full(11, 180.0),
    "near constant": 100.0 + 1e-7 * np.random.default_rng(3).standard_normal(8),
    "piled at one end": 10.0 + 40.0 * np.random.default_rng(4).beta(0.05, 3.0, 30),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_newton_solves_end_within_their_cap_on_degenerate_sets(name, monkeypatch):
    steps = []
    monkeypatch.setattr(fitting, "digamma", lambda v: steps.append(1) or digamma(v))
    for family in ("gamma", "beta"):
        steps.clear()
        fit = fit_family(DEGENERATE[name], family)
        assert len(steps) <= fitting._NEWTON_MAX_ITER
        assert fit is None or _sane_params(*fit.params.values())


@pytest.mark.parametrize("family", FAMILIES)
def test_newton_solves_converge_before_their_cap(family, monkeypatch):
    steps = []
    monkeypatch.setattr(fitting, "digamma", lambda v: steps.append(1) or digamma(v))
    for case in range(12):
        samples = draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
        for fitted in ("gamma", "beta"):
            steps.clear()
            fit_family(samples, fitted)
            assert 0 < len(steps) < fitting._NEWTON_MAX_ITER // 2, (fitted, case, len(steps))


def test_burr_descent_that_leaves_the_sane_box_ends_without_a_fit(monkeypatch):
    # a Pareto sample's likelihood grows without bound as c goes to infinity
    # with lam at the smallest sample
    x = 3.0 * (1.0 + np.random.default_rng(0).pareto(1.5, 30))
    evaluated = []

    def logged(f, simplex, maxfev, xatol, fatol):
        return nelder_mead(lambda t: evaluated.append(np.exp(t)) or f(t), simplex, maxfev, xatol, fatol)

    monkeypatch.setattr(fitting, "nelder_mead", logged)
    assert fit_family(x, "burr") is None
    assert len(evaluated) < 300
    (c, lam), inside = evaluated[-1], evaluated[:-1]
    assert not (1e-3 <= c <= 1e3 and lam <= 1e6)
    assert all(1e-3 <= c <= 1e3 and lam <= 1e6 for c, lam in inside)
