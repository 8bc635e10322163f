"""Distribution fits checked against dense-CDF quantile oracles.

The oracle integrates the fitted pdf on a fine grid and inverts the result by
interpolation, so it shares no code with the closed-form or bisection
quantile paths.
"""
import math
import tracemalloc
from unittest import mock

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
    _burr_cdf,
    _positive_shift,
    _sane_params,
    empirical_histograms,
    fit_family,
    histogram_bins,
    select_best,
)

from conftest import bisect_quantile, fit_all_families, fit_bits


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
        bisected = bisect_quantile(lambda y: _burr_cdf(dist, y), p, 0.0, 1e3)
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
        best = select_best([x])[0]
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
    best = select_best([x])[0]
    available = [f.sse for f in fits.values() if f is not None and math.isfinite(f.sse)]
    assert best.sse == min(available)


def test_tie_breaks_by_family_order(monkeypatch):
    # every pdf 0: every family's SSE is the sum of the squared densities
    zero = dict.fromkeys(FAMILIES, lambda params, support, y: np.zeros_like(y))
    monkeypatch.setattr(fitting, "_PDF", zero)
    x = np.random.default_rng(0).normal(5.0, 1.0, 200)
    best = fitting.select_best([x])[0]
    assert best.family == "normal"


def test_constant_samples_fall_back():
    x = np.full(50, 3.0)
    # the normal fit exists (sigma floored) but its SSE is undefined
    fit = fit_family(x, "normal")
    assert fit is not None
    assert math.isinf(fit.sse)
    assert select_best([x]) == [None]


def test_span_of_a_few_ulps_falls_back():
    # 19 bins over 1.5e-12 at 512, a few ulps, are not all of nonzero width
    x = DEGENERATE["few ulps wide"]
    with pytest.raises(ValueError):
        np.histogram(x, bins=histogram_bins(len(x)), range=(x.min(), x.max()))
    with np.errstate(all="raise"):
        assert select_best([x]) == [None]
    assert math.isinf(fit_family(x, "normal").sse)


def test_rounding_spread_never_overflows_a_descent():
    # eleven shape angles of 180 degrees (a bundle of straight lines) keep a
    # log spread of rounding size, which sends the burr descent to logs past
    # math.exp's range
    x = np.full(11, 180.0)
    assert float(np.std(np.log(x))) > 0.0
    for family in FAMILIES:
        fit_family(x, family)
    assert select_best([x]) == [None]


def test_select_best_fits_nothing_without_a_histogram(monkeypatch):
    calls = []
    counted = {family: (lambda x, fit=fit: calls.append(1) or fit(x))
               for family, fit in fitting._FITTERS.items()}
    monkeypatch.setattr(fitting, "_FITTERS", counted)
    flat = np.full(11, 180.0)
    assert select_best([flat]) == [None]
    assert calls == []
    # one pass: each family is fit once to every set that spans a histogram
    rng = np.random.default_rng(0)
    best = select_best([rng.normal(5.0, 1.0, 50), flat, rng.normal(5.0, 1.0, 50)])
    assert best[0] is not None and best[1] is None and best[2] is not None
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
    (density,), (centers,), (spanned,), _ = empirical_histograms(fitting._stacked([x]))
    assert spanned
    fit = fit_family(x, "normal")
    assert fit.sse == pytest.approx(float(np.sum((density - fit.pdf(centers)) ** 2)), rel=1e-12)
    far = FittedDistribution("normal", {"mu": 50.0, "sigma": 1.0}, sse=0.0)
    assert float(np.sum((density - far.pdf(centers)) ** 2)) > fit.sse


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
    logs = fitting._stacked([logy])
    sum_logy = float(np.add.reduce(logy))
    spread = float(np.std(logy))
    start = (math.log(max(math.pi / (math.sqrt(3.0) * spread), 0.1)), math.log(float(np.median(y))))

    def nll(t):
        with np.errstate(over="ignore", invalid="ignore"):
            f, state = fitting._burr_nll(logs, np.array([sum_logy]), one_column(t))
        return float(f[0]), (logs, state)
    return nll, start


def one_column(t):
    """A point t = (log c, log lam) as the (2, 1) array of a one-row solve."""
    return np.asarray(t, dtype=np.float64).reshape(2, 1)


def burr_derivatives(t, state):
    """`_burr_derivatives` at t of a one-row profile's state: the gradient
    and (h00, h01, h11)."""
    logs, state = state
    gradient, hessian = fitting._burr_derivatives(logs, one_column(t), state)
    return gradient[:, 0], hessian[:, 0]


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
    # bins of zero width: np.histogram makes no histogram of it
    "few ulps wide": 512.0 + np.linspace(0.0, 1.5e-12, 333),
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
                        lambda *args: steps.append(1) or burr_derivatives(*args))
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
    gradient, (h00, h01, h11) = burr_derivatives(t, state)
    hessian = np.array([[h00, h01], [h01, h11]])
    h = 1e-6
    for i, e in enumerate(np.eye(2) * h):
        plus, minus = profile(t + e), profile(t - e)
        slope = (plus[0] - minus[0]) / (2.0 * h)
        assert gradient[i] == pytest.approx(slope, rel=1e-5, abs=1e-6 * (1.0 + abs(f)))
        bend = (burr_derivatives(t + e, plus[1])[0]
                - burr_derivatives(t - e, minus[1])[0]) / (2.0 * h)
        assert hessian[i] == pytest.approx(bend, rel=1e-5, abs=1e-6 * (1.0 + abs(f)))


def stationary_cases():
    """Twelve sample sets of each family's shape, of 8 to 200 samples, and
    the degenerate sets."""
    cases = [draw_samples(family, [8, 9, 30, 200][case % 4], seed=1000 * case + 7)
             for family in FAMILIES for case in range(12)]
    return cases + list(DEGENERATE.values())


def test_returned_burr_fits_are_stationary():
    fitted = 0
    for samples in stationary_cases():
        fit = fit_family(samples, "burr")
        if fit is None:
            continue
        profile, _ = burr_profile(samples)
        t = burr_point(fit)
        f, state = profile(t)
        (g0, g1), (h00, h01, h11) = burr_derivatives(t, state)
        assert max(abs(g0), abs(g1)) <= 1e-6 * (1.0 + abs(f)), (g0, g1)
        assert h00 > 0.0 and h00 * h11 - h01 * h01 > 0.0, (h00, h01, h11)
        fitted += 1
    assert fitted >= 20


@pytest.mark.parametrize("family", ["gamma", "beta"])
def test_returned_gamma_and_beta_fits_are_stationary(family):
    # each returned fit solves its likelihood equations: for gamma
    # log a - digamma(a) = log mean(y) - mean(log y) and a scale = mean(y),
    # for beta digamma(alpha) - digamma(alpha + beta) = mean log u and
    # digamma(beta) - digamma(alpha + beta) = mean log(1 - u)
    fitted = 0
    for samples in stationary_cases():
        fit = fit_family(samples, family)
        if fit is None:
            continue
        if family == "gamma":
            y = samples + fit.shift
            a, scale = fit.params["shape"], fit.params["scale"]
            residuals = (math.log(a) - digamma(a) - (np.log(y.mean()) - np.log(y).mean()),
                         a * scale / y.mean() - 1.0)
        else:
            lo, hi = fit.support
            u = (samples - lo) / (hi - lo)
            a, b = fit.params["alpha"], fit.params["beta"]
            residuals = (digamma(a) - digamma(a + b) - np.log(u).mean(),
                         digamma(b) - digamma(a + b) - np.log1p(-u).mean())
        assert max(abs(v) for v in residuals) <= 1e-10, residuals
        fitted += 1
    assert fitted >= 50


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
                        lambda logs, t, state: stepped_from.append(t)
                        or burr_derivatives(logs, t, state))
    assert fit_family(x, "burr") is None
    assert 0 < len(stepped_from) < fitting._NEWTON_MAX_ITER
    # every point the solve stepped from lies in the box; the last point it
    # reached, more likely than the one before, does not
    assert all(in_burr_box(x, t) for t in stepped_from)
    end = evaluated[-1]
    assert not in_burr_box(x, end) and np.exp(end[0]) > 1e3
    assert profile(end)[0] < profile(stepped_from[-1])[0]


# ---------------------------------------------------------------------------
# the batched pass

# sets that span a histogram yet get no fit: gamma, beta and Burr fit none to
# a span just above the degenerate limit, Burr none to a Pareto sample
NO_FIT = {
    "tiny span": 1.0 + np.linspace(0.0, 2e-12, 9),
    "pareto": 3.0 * (1.0 + np.random.default_rng(0).pareto(1.5, 30)),
}


def test_no_fit_sets_reach_the_no_fit_paths():
    assert empirical_histograms(fitting._stacked([NO_FIT["tiny span"]])).spans[0]
    for family in ("gamma", "beta", "burr"):
        assert fit_family(NO_FIT["tiny span"], family) is None
    assert fit_family(NO_FIT["pareto"], "burr") is None


@st.composite
def sample_sets(draw):
    """Sets of mixed lengths and families, with flat sets (no histogram), the
    no-fit sets and the degenerate ones among them."""
    kinds = FAMILIES + ("flat",) + tuple(NO_FIT) + tuple(DEGENERATE)
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in FAMILIES:
            n = draw(st.sampled_from([8, 9, 25, 30, 101, 200]))
            sets.append(draw_samples(kind, n, draw(st.integers(0, 2**16))))
        elif kind == "flat":
            sets.append(np.full(draw(st.sampled_from([8, 9, 25])), draw(st.floats(-1e3, 1e3))))
        else:
            sets.append({**NO_FIT, **DEGENERATE}[kind])
    return sets


@settings(max_examples=60, deadline=None)
@given(sample_sets(), st.integers(8, 2000))
def test_select_best_is_batch_independent(sets, chunk):
    # a chunk stacks sets of different lengths and bin counts; a small chunk
    # budget splits sets of one length over several chunks, and a set longer
    # than it is a chunk of its own
    with mock.patch.object(fitting, "_CHUNK_ELEMENTS", chunk):
        batch = select_best(sets)
    assert len(batch) == len(sets)
    for x, fit in zip(sets, batch):
        assert fit_bits(fit) == fit_bits(select_best([x])[0])


def test_sets_of_many_lengths_share_a_pass(monkeypatch):
    # sets of 40 lengths, as bundles of different sizes give, are fit in one
    # chunk: each family is fit once
    calls = []
    counted = {family: (lambda rows, fit=fit: calls.append(len(rows.n)) or fit(rows))
               for family, fit in fitting._FITTERS.items()}
    monkeypatch.setattr(fitting, "_FITTERS", counted)
    rng = np.random.default_rng(0)
    sets = [rng.gamma(2.0, 3.0, n) for n in rng.permutation(np.arange(20, 300, 7))]
    best = select_best(sets)
    assert calls == [len(sets)] * len(FAMILIES)
    assert [fit_bits(fit) for fit in best] == [fit_bits(select_best([x])[0]) for x in sets]


def test_select_best_takes_sets():
    with pytest.raises(ValueError, match="one-dimensional"):
        select_best(np.random.default_rng(0).normal(size=50))
    assert select_best([]) == []


@st.composite
def histogram_rows(draw):
    """Sets of one or of mixed lengths, and so of as many or of different
    bin counts, with values on bin edges and one ulp either side of them,
    ties at the maximum, and spans from just above the degenerate limit up."""
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lengths = draw(st.sampled_from([[draw(st.integers(8, 60))], [8, 60, 101, 150, 333]]))
    rows = []
    for _ in range(count):
        n = draw(st.sampled_from(lengths))
        bins = histogram_bins(n)
        lo = draw(st.floats(-1e3, 1e3))
        hi = lo + draw(st.sampled_from([1.5e-12, 3e-12, 1e-9, 1e-3, 1.0, 77.7]))
        x = rng.uniform(lo, hi, n)
        edges = np.linspace(lo, hi, bins + 1)
        near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        on_edges = rng.random(n) < draw(st.floats(0.0, 1.0))
        x[on_edges] = np.clip(rng.choice(near, int(on_edges.sum())), lo, hi)
        x[:1 + draw(st.integers(0, 3))] = hi
        x[-1] = lo
        rows.append(x)
    return rows


@settings(max_examples=100, deadline=None)
@given(histogram_rows())
def test_batched_histograms_are_np_histogram(sets):
    density, centers, spans, _ = empirical_histograms(fitting._stacked(sets))
    for row, spanned, got, middles in zip(sets, spans, density, centers):
        lo, hi = row.min(), row.max()
        bins = histogram_bins(len(row))
        # a span of a few ulps can give bins of zero width, which np.histogram
        # refuses to make
        nonzero = (np.diff(np.linspace(lo, hi, bins + 1)) > 0.0).all()
        assert spanned == (hi - lo > 1e-12 and nonzero)
        if not spanned:
            continue
        want, edges = np.histogram(row, bins=bins, range=(lo, hi), density=True)
        assert got[:bins].tobytes() == want.tobytes()
        assert middles[:bins].tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()


@pytest.mark.parametrize("count, n", [(3942, 30), (20, 10_000)])
def test_select_best_temporaries_stay_within_the_chunk_budget(count, n):
    """Beyond its input and the fits it returns, `select_best` holds at most
    20 chunks' worth of values, however many or long the sets are."""
    rng = np.random.default_rng(0)
    sets = [rng.gamma(2.0, 3.0, n) for _ in range(count)]
    chunk = 8 * max(fitting._CHUNK_ELEMENTS, n)
    tracemalloc.start()
    try:
        best = select_best(sets)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(fit is not None for fit in best)
    assert peak <= sum(x.nbytes for x in sets) + held + 20 * chunk, (peak, held)
