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
pdf/cdf/quantile.  All fits maximize the likelihood.  Normal and log-normal
are closed form.  Gamma and beta solve their likelihood equations by Newton's
method (T. Minka, "Estimating a Gamma distribution", 2002, and "Estimating a
Dirichlet distribution", 2000): gamma's shape is the root of
log a - digamma(a) = log mean(y) - mean(log y), its scale mean(y) / a; beta's
(alpha, beta) are where the digamma differences equal mean log u and
mean log(1 - u).  Each solve stops at a 1e-12 relative step or after
_NEWTON_MAX_ITER steps.  Burr runs a moment-initialized Nelder-Mead descent
(`optimize.nelder_mead`, from scipy's default simplex, at most 300 cost
evaluations, so every fit is deterministic) over
(log c, log lam), with k at its MLE n / sum(log1p((y/lam)^c)); the descent
ends with no fit at the first point outside the box `_sane_params` accepts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc, betaln, digamma, gammainc, gammaln, ndtr, ndtri, zeta

from .optimize import default_simplex, nelder_mead

FAMILIES = ("normal", "log-normal", "gamma", "beta", "burr")

SIGMA_FLOOR = 1e-6
POSITIVE_SHIFT = 1e-6
_MLE_MAX_EVALS = 300
_NEWTON_MAX_ITER = 50
_NEWTON_RTOL = 1e-12
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
    # at the scale's MLE mean / a the likelihood is stationary where
    # log a - digamma(a) = log mean(y) - mean(log y); the right side is 0 but
    # for rounding when the samples are equal
    target = math.log(mean) - float(np.mean(np.log(y)))
    if not target > 0.0:
        return None
    # Minka's closed-form start and generalized Newton step on 1 / a.  A shape
    # past the sane range is rejected anyway, and its step's denominator
    # rounds to 0; past a few hundred the step stalls at the rounding of
    # log a - digamma(a), so a step no smaller than the last ends the solve
    a = (3.0 - target + math.sqrt((target - 3.0) ** 2 + 24.0 * target)) / (12.0 * target)
    last = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        if not _sane_params(a):
            return None
        gap = math.log(a) - float(digamma(a)) - target
        new = 1.0 / (1.0 / a + gap / (a * a * (1.0 / a - float(zeta(2.0, a)))))
        step = abs(new - a)
        a = new
        if step <= _NEWTON_RTOL * a or step >= last:
            break
        last = step
    scale = max(mean / a, SIGMA_FLOOR)
    if not _sane_params(a, scale):
        return None
    return FittedDistribution("gamma", {"shape": a, "scale": scale}, math.nan, shift=shift)


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
    a = max(m * common, 1e-3)
    b = max((1.0 - m) * common, 1e-3)
    mean_logu = float(np.mean(np.log(u)))
    mean_log1mu = float(np.mean(np.log1p(-u)))

    def nll(a, b):
        # per sample; convex in (a, b)
        return float((1.0 - a) * mean_logu + (1.0 - b) * mean_log1mu + betaln(a, b))

    # Newton on the gradient digamma(a) - digamma(a + b) - mean log u,
    # digamma(b) - digamma(a + b) - mean log(1 - u), with the trigamma
    # (zeta(2, .)) Hessian; a step is halved until both parameters stay
    # positive and the likelihood does not fall
    f = nll(a, b)
    if not math.isfinite(f):            # a sample at an end of the support
        return None
    for _ in range(_NEWTON_MAX_ITER):
        params = np.array([a, b, a + b])
        psi_a, psi_b, psi_ab = digamma(params).tolist()
        tri_a, tri_b, tri_ab = zeta(2.0, params).tolist()
        ga = psi_a - psi_ab - mean_logu
        gb = psi_b - psi_ab - mean_log1mu
        haa, hbb = tri_a - tri_ab, tri_b - tri_ab
        det = haa * hbb - tri_ab * tri_ab
        if not 0.0 < det < math.inf:
            return None
        da = -(hbb * ga + tri_ab * gb) / det
        db = -(haa * gb + tri_ab * ga) / det
        if abs(da) <= _NEWTON_RTOL * a and abs(db) <= _NEWTON_RTOL * b:
            a, b = a + da, b + db
            break
        for _ in range(64):             # past that the step is below rounding
            na, nb = a + da, b + db
            if na > 0.0 and nb > 0.0:
                nf = nll(na, nb)
                if nf <= f:
                    break
            da, db = 0.5 * da, 0.5 * db
        else:
            break
        done = abs(na - a) <= _NEWTON_RTOL * na and abs(nb - b) <= _NEWTON_RTOL * nb
        a, b, f = na, nb, nf
        if done:
            break
    if not _sane_params(a, b):
        return None
    return FittedDistribution("beta", {"alpha": a, "beta": b}, math.nan, support=(lo, hi))


class _LeftTheBox(Exception):
    """A Burr descent reached a (c, lam) that `_sane_params` rejects."""


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
        return float(np.add.reduce(np.logaddexp(0.0, c * (logy - log_lam))))

    def nll(t):
        # a descent that reaches a (c, lam) the final check rejects ends there
        try:
            c = math.exp(t[0])
            lam = math.exp(t[1])
        except OverflowError:
            raise _LeftTheBox from None
        if not (1e-3 <= c <= 1e3 and lam <= 1e6):
            raise _LeftTheBox
        # at k's MLE, (k + 1) * log1p_sum is n + log1p_sum
        total = log1p_sum(c, t[1])
        if not 0.0 < total < math.inf:
            return math.inf
        val = (n * (math.log(c) + math.log(n / total) - t[1])
               + (c - 1.0) * (sum_logy - n * t[1]) - total - n)
        return -val if math.isfinite(val) else math.inf

    # the products past the float range are expected: they come out inf
    with np.errstate(over="ignore"):
        try:
            t, fun, _ = nelder_mead(nll, default_simplex(np.log([c0, lam0])), _MLE_MAX_EVALS,
                                    xatol=1e-8, fatol=1e-8)
        except _LeftTheBox:
            return None
        if not math.isfinite(fun):
            return None
        c, lam = math.exp(t[0]), max(math.exp(t[1]), SIGMA_FLOOR)
        k = n / log1p_sum(c, t[1])
    # c and lam passed the box at every evaluated point
    if not _sane_params(k, lo=1e-3, hi=1e3):
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


def _validated(samples, min_samples: int) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < min_samples:
        raise ValueError(f"need at least {min_samples} samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return x


def _scored(fit: FittedDistribution | None, histogram) -> FittedDistribution | None:
    return None if fit is None else replace(fit, sse=sse_against_histogram(fit, histogram))


def fit_family(samples, family: str, min_samples: int = 8) -> FittedDistribution | None:
    """Fit one family to a sample set; None when the fit is unavailable
    (divergence or invalid parameters)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    x = _validated(samples, min_samples)
    return _scored(_FITTERS[family](x), empirical_histogram(x))


def select_best(samples, min_samples: int = 8) -> FittedDistribution | None:
    """Fit all five families, return the one with smallest histogram SSE.

    Ties break by family order (normal < log-normal < gamma < beta < burr).
    Returns None when no family has a finite SSE, without fitting any when
    the samples span no histogram; the caller then falls back to empirical
    thresholds.
    """
    x = _validated(samples, min_samples)
    histogram = empirical_histogram(x)
    if histogram is None:
        return None
    fits = (_scored(_FITTERS[family](x), histogram) for family in FAMILIES)
    return min((fit for fit in fits if fit is not None and math.isfinite(fit.sse)),
               key=lambda fit: fit.sse, default=None)
