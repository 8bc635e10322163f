"""Per-feature distribution fitting: five candidate families, histogram-SSE
model selection, and quantile evaluation for decile thresholds.

Families and their parameters:
  normal      mu, sigma
  log-normal  mu, sigma of the log
  gamma       shape, scale
  beta        alpha, beta on an affine support [lo, hi]
  burr        Burr XII c, k, lam:  F(y) = 1 - (1 + (y/lam)^c)^(-k)

Positive-support families are fit on y = x + shift with shift chosen so the
samples are strictly positive; the shift is recorded in the fit and undone by
pdf/cdf/quantile.  Normal and log-normal parameters are closed form.  Gamma,
beta and burr run a moment-initialized Nelder-Mead descent (at most 300 cost
evaluations, so every fit is deterministic) on the negative log-likelihood,
profiled for gamma and burr: over log shape with the scale's MLE mean(y) /
shape, and over (log c, log lam) with k's MLE n / sum(log1p((y/lam)^c)).  The
descent is `optimize.nelder_mead`, which rigid SBR uses too, from scipy's
default simplex; the likelihoods take their parameter-free sample sums once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc, betaln, gammainc, gammaln, ndtr, ndtri

from .optimize import default_simplex, nelder_mead

FAMILIES = ("normal", "log-normal", "gamma", "beta", "burr")

SIGMA_FLOOR = 1e-6
POSITIVE_SHIFT = 1e-6
_MLE_MAX_EVALS = 300
_BISECT_TOL = 1e-8


@dataclass(frozen=True)
class FittedDistribution:
    family: str
    params: dict[str, float]
    sse: float
    shift: float = 0.0
    support: tuple[float, float] | None = None

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _PDF[self.family](self, x + self.shift)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _CDF[self.family](self, x + self.shift)

    def quantile(self, p: float) -> float:
        """Inverse CDF; closed form for normal/log-normal/burr, bisection on
        the CDF (1e-8 absolute) for gamma/beta."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        return _QUANTILE[self.family](self, p) - self.shift


# ---------------------------------------------------------------------------
# family pdf/cdf/quantile (all evaluated in shifted y units)

def _normal_pdf(d, y):
    mu, s = d.params["mu"], d.params["sigma"]
    z = (y - mu) / s
    return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))


def _normal_cdf(d, y):
    return ndtr((y - d.params["mu"]) / d.params["sigma"])


def _normal_quantile(d, p):
    return d.params["mu"] + d.params["sigma"] * float(ndtri(p))


def _lognormal_pdf(d, y):
    mu, s = d.params["mu"], d.params["sigma"]
    out = np.zeros_like(y)
    pos = y > 0.0
    z = (np.log(y[pos]) - mu) / s
    out[pos] = np.exp(-0.5 * z * z) / (y[pos] * s * math.sqrt(2.0 * math.pi))
    return out


def _lognormal_cdf(d, y):
    mu, s = d.params["mu"], d.params["sigma"]
    out = np.zeros_like(y)
    pos = y > 0.0
    out[pos] = ndtr((np.log(y[pos]) - mu) / s)
    return out


def _lognormal_quantile(d, p):
    return math.exp(d.params["mu"] + d.params["sigma"] * float(ndtri(p)))


def _gamma_pdf(d, y):
    a, s = d.params["shape"], d.params["scale"]
    out = np.zeros_like(y)
    pos = y > 0.0
    yp = y[pos]
    out[pos] = np.exp((a - 1.0) * np.log(yp) - yp / s - gammaln(a) - a * math.log(s))
    return out


def _gamma_cdf(d, y):
    a, s = d.params["shape"], d.params["scale"]
    out = np.zeros_like(y)
    pos = y > 0.0
    out[pos] = gammainc(a, y[pos] / s)
    return out


def _beta_pdf(d, y):
    a, b = d.params["alpha"], d.params["beta"]
    lo, hi = d.support
    width = hi - lo
    u = (y - lo) / width
    out = np.zeros_like(y)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    out[inside] = np.exp((a - 1.0) * np.log(ui) + (b - 1.0) * np.log1p(-ui)
                         - betaln(a, b)) / width
    return out


def _beta_cdf(d, y):
    a, b = d.params["alpha"], d.params["beta"]
    lo, hi = d.support
    u = np.clip((y - lo) / (hi - lo), 0.0, 1.0)
    return betainc(a, b, u)


def _burr_pdf(d, y):
    c, k, lam = d.params["c"], d.params["k"], d.params["lam"]
    out = np.zeros_like(y)
    pos = y > 0.0
    logy = np.log(y[pos] / lam)
    logpdf = (math.log(c) + math.log(k) - math.log(lam)
              + (c - 1.0) * logy - (k + 1.0) * np.logaddexp(0.0, c * logy))
    out[pos] = np.exp(logpdf)
    return out


def _burr_cdf(d, y):
    c, k, lam = d.params["c"], d.params["k"], d.params["lam"]
    out = np.zeros_like(y)
    pos = y > 0.0
    out[pos] = -np.expm1(-k * np.logaddexp(0.0, c * np.log(y[pos] / lam)))
    return out


def _burr_quantile(d, p):
    # closed form lam*((1-p)^(-1/k) - 1)^(1/c), in log space so extreme
    # shape parameters saturate to inf instead of overflowing
    c, k, lam = d.params["c"], d.params["k"], d.params["lam"]
    x = -math.log1p(-p) / k
    if x > 30.0:
        log_inner = x + math.log1p(-math.exp(-x))
    else:
        inner = math.expm1(x)
        if inner <= 0.0:
            return 0.0
        log_inner = math.log(inner)
    log_q = math.log(lam) + log_inner / c
    return math.exp(log_q) if log_q < 700.0 else math.inf


def _bisect_quantile(cdf, p, lo, hi):
    for _ in range(200):
        if cdf(np.asarray([hi]))[0] >= p:
            break
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(np.asarray([mid]))[0] < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def _gamma_quantile(d, p):
    a, s = d.params["shape"], d.params["scale"]
    hi = s * (a + 10.0 * math.sqrt(a) + 10.0)
    return _bisect_quantile(lambda y: _gamma_cdf(d, y), p, 0.0, hi)


def _beta_quantile(d, p):
    lo, hi = d.support
    return _bisect_quantile(lambda y: _beta_cdf(d, y), p, lo, hi)


_PDF = {"normal": _normal_pdf, "log-normal": _lognormal_pdf, "gamma": _gamma_pdf,
        "beta": _beta_pdf, "burr": _burr_pdf}
_CDF = {"normal": _normal_cdf, "log-normal": _lognormal_cdf, "gamma": _gamma_cdf,
        "beta": _beta_cdf, "burr": _burr_cdf}
_QUANTILE = {"normal": _normal_quantile, "log-normal": _lognormal_quantile,
             "gamma": _gamma_quantile, "beta": _beta_quantile, "burr": _burr_quantile}


# ---------------------------------------------------------------------------
# fitting

def _positive_shift(x: np.ndarray) -> float:
    lo = float(x.min())
    return POSITIVE_SHIFT - lo if lo <= 0.0 else 0.0


def _sane_params(*values, lo: float = 1e-6, hi: float = 1e6) -> bool:
    """Numeric-MLE solutions outside this range describe the samples no
    better than a boundary fit and break quantile evaluation downstream."""
    return all(math.isfinite(v) and lo <= v <= hi for v in values)


def _mle_descent(nll, x0: np.ndarray) -> np.ndarray | None:
    x, fun, _ = nelder_mead(nll, default_simplex(x0), _MLE_MAX_EVALS, xatol=1e-8, fatol=1e-8)
    if not math.isfinite(fun):
        return None
    return x


def _fit_normal(x: np.ndarray) -> FittedDistribution:
    mu = float(np.mean(x))
    sigma = max(float(np.std(x)), SIGMA_FLOOR)
    return FittedDistribution("normal", {"mu": mu, "sigma": sigma}, math.nan)


def _fit_lognormal(x: np.ndarray) -> FittedDistribution:
    shift = _positive_shift(x)
    logs = np.log(x + shift)
    mu = float(np.mean(logs))
    sigma = max(float(np.std(logs)), SIGMA_FLOOR)
    return FittedDistribution("log-normal", {"mu": mu, "sigma": sigma}, math.nan, shift=shift)


def _fit_gamma(x: np.ndarray) -> FittedDistribution | None:
    shift = _positive_shift(x)
    y = x + shift
    mean = float(np.mean(y))
    var = float(np.var(y))
    if var <= 0.0 or mean <= 0.0:
        return None
    log_mean = math.log(mean)
    sum_logy = float(np.log(y).sum())
    n = len(y)

    def nll(t):
        # profiled over the scale: at shape a its MLE is mean / a, where the
        # sum of y / scale is n * a
        try:
            a = math.exp(t[0])
        except OverflowError:           # the descent may probe logs past 709
            return math.inf
        if not math.isfinite(a) or a <= 0:
            return math.inf
        return -((a - 1.0) * sum_logy - n * a - n * (gammaln(a) + a * (log_mean - t[0])))

    t = _mle_descent(nll, np.log([mean * mean / var]))
    if t is None:
        return None
    a = math.exp(t[0])
    s = max(mean / a, SIGMA_FLOOR)
    if not _sane_params(a, s):
        return None
    return FittedDistribution("gamma", {"shape": a, "scale": s}, math.nan, shift=shift)


def _fit_beta(x: np.ndarray) -> FittedDistribution | None:
    lo = float(x.min()) - 1e-6
    hi = float(x.max()) + 1e-6
    width = hi - lo
    u = (x - lo) / width
    m = float(np.mean(u))
    v = float(np.var(u))
    if v <= 0.0:
        return None
    common = max(m * (1.0 - m) / v - 1.0, 1e-3)
    a0 = max(m * common, 1e-3)
    b0 = max((1.0 - m) * common, 1e-3)
    sum_logu = float(np.log(u).sum())
    sum_log1mu = float(np.log1p(-u).sum())
    n = len(u)

    def nll(t):
        try:
            a, b = math.exp(t[0]), math.exp(t[1])
        except OverflowError:
            return math.inf
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return -((a - 1.0) * sum_logu + (b - 1.0) * sum_log1mu - n * betaln(a, b))

    t = _mle_descent(nll, np.log([a0, b0]))
    if t is None:
        return None
    a, b = math.exp(t[0]), math.exp(t[1])
    if not _sane_params(a, b):
        return None
    return FittedDistribution("beta", {"alpha": a, "beta": b}, math.nan, support=(lo, hi))


def _fit_burr(x: np.ndarray) -> FittedDistribution | None:
    shift = _positive_shift(x)
    y = x + shift
    logy = np.log(y)
    spread = float(np.std(logy))
    if spread <= 0.0:
        return None
    lam0 = float(np.median(y))
    c0 = max(math.pi / (math.sqrt(3.0) * spread), 0.1)
    sum_logy = float(np.add.reduce(logy))
    n = len(y)

    def log1p_sum(c, log_lam):
        # sum of log1p((y / lam)^c), n over which is the MLE of k at (c, lam);
        # a product past the float range makes it inf or 0, which nll rejects
        with np.errstate(over="ignore"):
            return float(np.add.reduce(np.logaddexp(0.0, c * (logy - log_lam))))

    def nll(t):
        # at k's MLE, (k + 1) * log1p_sum is n + log1p_sum
        try:
            c = math.exp(t[0])
            math.exp(t[1])              # so that the fit's lam exists
        except OverflowError:
            return math.inf
        total = log1p_sum(c, t[1])
        if not (math.isfinite(c) and 0.0 < total < math.inf):
            return math.inf
        val = (n * (math.log(c) + math.log(n / total) - t[1])
               + (c - 1.0) * (sum_logy - n * t[1]) - total - n)
        return -val if math.isfinite(val) else math.inf

    t = _mle_descent(nll, np.log([c0, lam0]))
    if t is None:
        return None
    c, lam = math.exp(t[0]), max(math.exp(t[1]), SIGMA_FLOOR)
    k = n / log1p_sum(c, t[1])
    if not _sane_params(c, k, lo=1e-3, hi=1e3) or not _sane_params(lam):
        return None
    return FittedDistribution("burr", {"c": c, "k": k, "lam": lam}, math.nan, shift=shift)


_FITTERS = {"normal": _fit_normal, "log-normal": _fit_lognormal, "gamma": _fit_gamma,
            "beta": _fit_beta, "burr": _fit_burr}


def histogram_bins(n: int) -> int:
    return max(10, math.ceil(math.sqrt(n)))


def empirical_histogram(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Density of max(10, ceil(sqrt(n))) equal-width bins over [min, max] and
    the bin centers; None when the sample span is degenerate."""
    samples = np.asarray(samples, dtype=np.float64)
    lo, hi = float(samples.min()), float(samples.max())
    if hi - lo <= 1e-12:
        return None
    bins = histogram_bins(len(samples))
    density, edges = np.histogram(samples, bins=bins, range=(lo, hi), density=True)
    return density, 0.5 * (edges[:-1] + edges[1:])


def sse_against_histogram(dist: FittedDistribution, histogram) -> float:
    """Sum of squared differences between an `empirical_histogram` and the
    fitted pdf at its bin centers.  +inf when the histogram is None."""
    if histogram is None:
        return math.inf
    density, centers = histogram
    pdf = dist.pdf(centers)
    if not np.all(np.isfinite(pdf)):
        return math.inf
    return float(np.sum((density - pdf) ** 2))


def _scored_fits(samples, min_samples: int, families) -> list[FittedDistribution | None]:
    """The fits of ``families``, each scored against the one histogram."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < min_samples:
        raise ValueError(f"need at least {min_samples} samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    histogram = empirical_histogram(x)
    fits = [_FITTERS[family](x) for family in families]
    return [None if fit is None else replace(fit, sse=sse_against_histogram(fit, histogram))
            for fit in fits]


def fit_family(samples, family: str, min_samples: int = 8) -> FittedDistribution | None:
    """Fit one family to a sample set; None when the fit is unavailable
    (divergence or invalid parameters)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    return _scored_fits(samples, min_samples, (family,))[0]


def select_best(samples, min_samples: int = 8) -> FittedDistribution | None:
    """Fit all five families, return the one with smallest histogram SSE.

    Ties break by family order (normal < log-normal < gamma < beta < burr).
    Returns None when no family has a finite SSE; the caller then falls back
    to empirical thresholds.
    """
    fits = _scored_fits(samples, min_samples, FAMILIES)
    return min((fit for fit in fits if fit is not None and math.isfinite(fit.sse)),
               key=lambda fit: fit.sse, default=None)


def pdf_integral(dist: FittedDistribution, points: int = 20001) -> float:
    """Numeric integral of the pdf over (effectively) its support; ~1 for a
    valid fit.  Used by validity checks and tests."""
    lo = dist.quantile(1e-7)
    hi = dist.quantile(1.0 - 1e-7)
    if dist.support is not None:
        lo, hi = dist.support[0] - dist.shift, dist.support[1] - dist.shift
    x = np.linspace(lo, hi, points)
    return float(np.trapezoid(dist.pdf(x), x))
