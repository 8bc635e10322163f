"""Distribution fits checked against dense-CDF quantile oracles.

The oracle integrates the fitted pdf on a fine grid and inverts the result by
interpolation, so it shares no code with the closed-form or bisection
quantile paths.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import betaln, gammaln

import swmparc.fitting as fitting
from swmparc.fitting import (
    FAMILIES,
    FittedDistribution,
    _bisect_quantile,
    _burr_cdf,
    _positive_shift,
    fit_all_families,
    fit_family,
    histogram_bins,
    pdf_integral,
    select_best,
    sse_against_histogram,
)
from swmparc.optimize import default_simplex


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
    good = sse_against_histogram(d, x)
    far = FittedDistribution("normal", {"mu": 50.0, "sigma": 1.0}, sse=0.0)
    assert sse_against_histogram(far, x) > good


# ---------------------------------------------------------------------------
# the fits with scipy's Nelder-Mead in place of `optimize.nelder_mead`

def scipy_descent(evaluated):
    """Stand-in for `nelder_mead` that runs scipy from its default simplex
    with the budget and tolerances the fits used before, and logs every
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


def per_evaluation_nll(family, x):
    """The gamma and beta likelihoods with the sample sums taken at every call."""
    if family == "gamma":
        y = x + _positive_shift(x)
        logy, n = np.log(y), len(y)

        def nll(t):
            a, s = math.exp(t[0]), math.exp(t[1])
            if not (math.isfinite(a) and math.isfinite(s)) or a <= 0 or s <= 0:
                return math.inf
            return -((a - 1.0) * logy.sum() - y.sum() / s - n * (gammaln(a) + a * math.log(s)))
        return nll
    lo, hi = float(x.min()) - 1e-6, float(x.max()) + 1e-6
    u = (x - lo) / (hi - lo)
    logu, log1mu, n = np.log(u), np.log1p(-u), len(u)

    def nll(t):
        a, b = math.exp(t[0]), math.exp(t[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return -((a - 1.0) * logu.sum() + (b - 1.0) * log1mu.sum() - n * betaln(a, b))
    return nll


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
            for checked in ("gamma", "beta"):
                evaluated.clear()
                fit_family(samples, checked)
                nll = per_evaluation_nll(checked, samples)
                assert evaluated
                assert all(np.float64(cost).tobytes() == np.float64(nll(t)).tobytes()
                           for t, cost in evaluated)
