"""Per-feature distribution fitting: five candidate families, histogram-SSE
model selection, and quantile evaluation for decile thresholds.

Families and their parameters:
  normal      mu, sigma
  log-normal  mu, sigma of the log
  gamma       shape, scale
  beta        alpha, beta on an affine support [lo, hi]
  burr        Burr XII c, k, lam:  F(y) = 1 - (1 + (y/lam)^c)^(-k)

`select_best` fits any number of sample sets in one array pass.  The sets,
shortest first, are stacked as rows in chunks of at most `_CHUNK_ELEMENTS`
values (or one set), each row padded to the chunk's longest set, and each
family is fit to all rows of a chunk at once.  Every row sum is masked to
the row's own samples, which numpy adds as it adds the set alone, so a set's
fit does not depend on the other sets and is the one `fit_family` gives.

Positive-support families are fit on y = x + shift with shift chosen so the
samples are strictly positive; the shift is recorded in the fit and undone by
pdf/cdf/quantile.  All fits maximize the likelihood.  Normal and log-normal
are closed form.  One Newton driver, `_newton`, descends the others' negative
log-likelihoods over log parameters for all rows of a chunk in lockstep:
gamma's over (log shape, log scale) from Minka's closed-form shape
(T. Minka, "Estimating a Gamma distribution", 2002), beta's over (log alpha,
log beta) from the moments, and Burr's profile likelihood over (log c,
log lam), with k at its MLE n / sum(log1p((y/lam)^c)), from a moment start.
Eigenvalues of a Hessian that is not positive definite are replaced by their
magnitudes, and a step moves each log parameter by at most 0.5 and is halved
until the likelihood falls.  A solve ends with no fit at the first point it
reaches outside its box: gamma's and beta's parameters in [1e-6, 1e6], Burr's
c and k in [1e-3, 1e3] and lam in [SIGMA_FLOOR, 1e6].  It stops after a step
whose predicted fall is within the likelihood's rounding, when no step of
more than 1e-12 falls, or after _NEWTON_MAX_ITER steps, so every fit is
deterministic.  Every quantile is closed form, gamma's and beta's by scipy's
gammaincinv and betaincinv.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import (betainc, betaincinv, betaln, digamma, gammainc, gammaincinv, gammaln,
                           ndtr, ndtri, zeta)

from .config import RunConfig

FAMILIES = ("normal", "log-normal", "gamma", "beta", "burr")

SIGMA_FLOOR = 1e-6
POSITIVE_SHIFT = 1e-6
_NEWTON_MAX_ITER = 50
_NEWTON_RTOL = 1e-12
# Newton: the longest step in each log parameter, a factor e^0.5, which
# keeps a solve in the basin of its start where a longer one jumps past it
# to the box's edge; and the predicted fall, relative to 1 + |nll|, below
# which a step is the last
_MAX_STEP = 0.5
_FALL_RTOL = 1e-12
# Burr: the box its lam and c must stay in, as (low, high) bounds of log c
# and of log lam, a row each (k must stay in [1e-3, 1e3])
_BURR_BOX = np.log([[1e-3, 1e3], [SIGMA_FLOOR, 1e6]])
# Most values a chunk of stacked sample sets holds (256 KB); a solve keeps
# about a dozen temporaries of a chunk's size, whatever the number of sets
_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class FittedDistribution:
    family: str
    params: dict[str, float]
    sse: float
    shift: float = 0.0
    support: tuple[float, float] | None = None

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _PDF[self.family](self.params, self.support, x + self.shift)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _CDF[self.family](self, x + self.shift)

    def quantile(self, p: float) -> float:
        """Inverse CDF, in closed form for every family."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        return _QUANTILE[self.family](self, p) - self.shift


# ---------------------------------------------------------------------------
# family pdf/cdf/quantile (all evaluated in shifted y units); a pdf takes the
# parameters as numbers or as (S, 1) columns, one row of y per fit

def _normal_pdf(p, support, y):
    mu, s = p["mu"], p["sigma"]
    z = (y - mu) / s
    return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))


def _normal_cdf(d, y):
    return ndtr((y - d.params["mu"]) / d.params["sigma"])


def _normal_quantile(d, p):
    return d.params["mu"] + d.params["sigma"] * float(ndtri(p))


def _lognormal_pdf(p, support, y):
    mu, s = p["mu"], p["sigma"]
    pos = y > 0.0
    y = np.where(pos, y, 1.0)
    z = (np.log(y) - mu) / s
    return np.where(pos, np.exp(-0.5 * z * z) / (y * s * math.sqrt(2.0 * math.pi)), 0.0)


def _lognormal_cdf(d, y):
    mu, s = d.params["mu"], d.params["sigma"]
    out = np.zeros_like(y)
    pos = y > 0.0
    out[pos] = ndtr((np.log(y[pos]) - mu) / s)
    return out


def _lognormal_quantile(d, p):
    return math.exp(d.params["mu"] + d.params["sigma"] * float(ndtri(p)))


def _gamma_pdf(p, support, y):
    a, s = p["shape"], p["scale"]
    pos = y > 0.0
    y = np.where(pos, y, 1.0)
    return np.where(pos, np.exp((a - 1.0) * np.log(y) - y / s - gammaln(a) - a * np.log(s)), 0.0)


def _gamma_cdf(d, y):
    a, s = d.params["shape"], d.params["scale"]
    out = np.zeros_like(y)
    pos = y > 0.0
    out[pos] = gammainc(a, y[pos] / s)
    return out


def _beta_pdf(p, support, y):
    a, b = p["alpha"], p["beta"]
    lo, hi = support
    width = hi - lo
    u = (y - lo) / width
    inside = (u > 0.0) & (u < 1.0)
    u = np.where(inside, u, 0.5)
    return np.where(inside, np.exp((a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
                                   - betaln(a, b)) / width, 0.0)


def _beta_cdf(d, y):
    a, b = d.params["alpha"], d.params["beta"]
    lo, hi = d.support
    u = np.clip((y - lo) / (hi - lo), 0.0, 1.0)
    return betainc(a, b, u)


def _burr_pdf(p, support, y):
    c, k, lam = p["c"], p["k"], p["lam"]
    pos = y > 0.0
    logy = np.log(np.where(pos, y, lam) / lam)
    logpdf = (np.log(c) + np.log(k) - np.log(lam)
              + (c - 1.0) * logy - (k + 1.0) * np.logaddexp(0.0, c * logy))
    return np.where(pos, np.exp(logpdf), 0.0)


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


def _gamma_quantile(d, p):
    return d.params["scale"] * float(gammaincinv(d.params["shape"], p))


def _beta_quantile(d, p):
    lo, hi = d.support
    return lo + (hi - lo) * float(betaincinv(d.params["alpha"], d.params["beta"], p))


_PDF = {"normal": _normal_pdf, "log-normal": _lognormal_pdf, "gamma": _gamma_pdf,
        "beta": _beta_pdf, "burr": _burr_pdf}
_CDF = {"normal": _normal_cdf, "log-normal": _lognormal_cdf, "gamma": _gamma_cdf,
        "beta": _beta_cdf, "burr": _burr_cdf}
_QUANTILE = {"normal": _normal_quantile, "log-normal": _lognormal_quantile,
             "gamma": _gamma_quantile, "beta": _beta_quantile, "burr": _burr_quantile}


# ---------------------------------------------------------------------------
# fitting: every function below works on a chunk of stacked sample sets

# a chunk's sets as rows: x is (S, W), each row a set's samples and then
# copies of its first sample up to the longest set's length W; n holds the
# sets' lengths and `where` masks their samples (True when all have length W)
_Rows = namedtuple("_Rows", "x n where")
# one family's fits of a chunk's rows: per-row parameter arrays, whether each
# row has a fit, the shifts and (beta's) supports
_Fits = namedtuple("_Fits", "params ok shift support", defaults=(None,))
# per row of a chunk: histogram densities and bin centers, both (S, B) with
# B the most bins of a row, whether the row spans a histogram, and the mask
# of each row's bins (True when all rows have B)
_Histograms = namedtuple("_Histograms", "density centers spans where")


def _stacked(sets) -> _Rows:
    n = np.array([len(s) for s in sets])
    width = int(n.max())
    x = np.empty((len(n), width))
    for row, s in zip(x, sets):
        row[:len(s)] = s
        row[len(s):] = s[0]
    return _Rows(x, n, True if (n == width).all() else np.arange(width) < n[:, None])


def _taken(rows, keep):
    """The rows `keep` of an array, or of each item of a tuple of them, a
    _Rows or a _Histograms among them."""
    if isinstance(rows, np.ndarray):
        return rows[keep]
    taken = [v if v is True else _taken(v, keep) for v in rows]
    return rows._make(taken) if hasattr(rows, "_make") else tuple(taken)


def _row_sums(v: np.ndarray, rows: _Rows) -> np.ndarray:
    """Sums of each row of v over its set's samples, as np.add.reduce sums
    the set alone."""
    return np.add.reduce(v, axis=1, where=rows.where)


def _row_means(v: np.ndarray, rows: _Rows) -> np.ndarray:
    return _row_sums(v, rows) / rows.n


def _row_vars(v: np.ndarray, rows: _Rows) -> np.ndarray:
    dev = v - _row_means(v, rows)[:, None]
    return _row_means(dev * dev, rows)


def _row_stds(v: np.ndarray, rows: _Rows) -> np.ndarray:
    return np.sqrt(_row_vars(v, rows))


def _row_medians(v: np.ndarray, rows: _Rows) -> np.ndarray:
    """np.median of each row's set: its middle sample, or the mean of the
    middle two."""
    ordered = np.sort(v if rows.where is True else np.where(rows.where, v, np.inf), axis=1)
    middle = np.arange(len(v))
    return 0.5 * (ordered[middle, (rows.n - 1) // 2] + ordered[middle, rows.n // 2])


def _positive_shift(x: np.ndarray) -> np.ndarray:
    lo = x.min(axis=-1)
    return np.where(lo <= 0.0, POSITIVE_SHIFT - lo, 0.0)


def _sane_params(*values, lo: float = 1e-6, hi: float = 1e6) -> np.ndarray:
    """Numeric-MLE solutions outside this range describe the samples no
    better than a boundary fit and break quantile evaluation downstream."""
    return np.logical_and.reduce([np.isfinite(v) & (lo <= v) & (v <= hi) for v in values])


def _fit_normal(rows: _Rows) -> _Fits:
    sigma = np.maximum(_row_stds(rows.x, rows), SIGMA_FLOOR)
    return _Fits({"mu": _row_means(rows.x, rows), "sigma": sigma},
                 np.ones(len(rows.n), bool), np.zeros(len(rows.n)))


def _fit_lognormal(rows: _Rows) -> _Fits:
    shift = _positive_shift(rows.x)
    logs = np.log(rows.x + shift[:, None])
    sigma = np.maximum(_row_stds(logs, rows), SIGMA_FLOOR)
    return _Fits({"mu": _row_means(logs, rows), "sigma": sigma}, np.ones(len(rows.n), bool), shift)


def _descent_step(gradient: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """Newton steps -H^-1 g for symmetric 2 x 2 H given as (h00, h01, h11), each
    eigenvalue replaced by its magnitude, and at least 1e-12 of the largest,
    where H is not positive definite; NaN where H is 0 or not a number."""
    g0, g1 = gradient
    a, b, d = hessian
    det = a * d - b * b
    step = np.array([(b * g1 - d * g0) / det, (b * g0 - a * g1) / det])
    bent = ~((a > 0.0) & (det > 0.0) & np.isfinite(det))
    if not bent.any():
        return step
    g0, g1, a, b, d = g0[bent], g1[bent], a[bent], b[bent], d[bent]
    mid, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
    big, small = mid + radius, mid - radius
    floor = 1e-12 * np.maximum(np.abs(big), np.abs(small))
    # unit eigenvector of the larger eigenvalue: the longer row of H - big I
    # turned a quarter; the other eigenvector is its normal
    first = np.abs(big - d) >= np.abs(big - a)
    v0, v1 = np.where(first, big - d, b), np.where(first, b, big - a)
    norm = np.hypot(v0, v1)
    v0, v1 = np.where(norm > 0.0, v0 / norm, 1.0), np.where(norm > 0.0, v1 / norm, 0.0)
    along = -(v0 * g0 + v1 * g1) / np.maximum(np.abs(big), floor)
    across = -(v0 * g1 - v1 * g0) / np.maximum(np.abs(small), floor)
    step[:, bent] = np.where((0.0 < floor) & (floor < np.inf),
                             [along * v0 - across * v1, along * v1 + across * v0], np.nan)
    return step


def _newton(data, t: np.ndarray, ok: np.ndarray, objective, derivatives,
            inside) -> tuple[np.ndarray, np.ndarray]:
    """Newton descents, in lockstep, of the rows of `data` (an array, or a
    tuple of arrays and _Rows) where `ok` is set, from the columns of t, a
    (2, S) array.  `objective(data, t)` gives the values, inf where not
    finite, and a tuple of per-row state arrays; `derivatives(data, t, state)`
    the gradients (2, S) and Hessians (h00, h01, h11); `inside(data, t,
    state)` whether t is in the box.  Returns where each row ends, and `ok`
    cleared where a row starts or steps out of the box or has no step."""
    end_t, live = t.copy(), np.flatnonzero(ok)
    data, t = _taken(data, live), t[:, live]
    f, state = objective(data, t)
    keep = np.isfinite(f) & inside(data, t, state)
    ok[live[~keep]] = False
    for _ in range(_NEWTON_MAX_ITER):
        if not keep.all():
            live, data, t, f = live[keep], _taken(data, keep), t[:, keep], f[keep]
            state = tuple(v[keep] for v in state)
        if not len(live):
            break
        gradient, hessian = derivatives(data, t, state)
        step = _descent_step(gradient, hessian)
        longest = np.abs(step).max(axis=0)
        stepped = np.isfinite(longest)
        step = np.where(longest > _MAX_STEP, step * _MAX_STEP / longest, step)
        # a step whose predicted fall is within the value's rounding is the
        # last; it is taken without a fall test, which rounding would decide
        fall = -(gradient[0] * step[0] + gradient[1] * step[1])
        last = fall <= _FALL_RTOL * (1.0 + np.abs(f))
        trial = t + step
        f_trial, trial_state = objective(data, trial)
        accepted = stepped & ((f_trial < f) | last & (f_trial < np.inf))
        halving = np.flatnonzero(stepped & ~accepted & (np.abs(step).max(axis=0) > _NEWTON_RTOL))
        while len(halving):
            step[:, halving] *= 0.5
            part = t[:, halving] + step[:, halving]
            f_part, part_state = objective(_taken(data, halving), part)
            fell = (f_part < f[halving]) | last[halving] & (f_part < np.inf)
            at = halving[fell]
            trial[:, at], f_trial[at], accepted[at] = part[:, fell], f_part[fell], True
            for whole, piece in zip(trial_state, part_state):
                whole[at] = piece[fell]
            halving = halving[~fell & (np.abs(step[:, halving]).max(axis=0) > _NEWTON_RTOL)]
        # a row whose value falls no more above rounding ends where it
        # stands, one after its last step where that takes it
        within = inside(data, trial, trial_state)
        ok[live[~stepped | accepted & ~within]] = False
        end_t[:, live] = np.where(accepted, trial, t)
        t, f, state, keep = trial, f_trial, trial_state, accepted & within & ~last
    return end_t, ok


def _gamma_nll(data, t: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Gamma negative log-likelihoods of the rows, data = (n, mean log y,
    mean y), at t = (log shape, log scale), inf where not finite; no state."""
    n, mean_log, mean = data
    a = np.exp(t[0])
    val = n * (gammaln(a) + a * t[1] - (a - 1.0) * mean_log + mean * np.exp(-t[1]))
    return np.where(np.isfinite(val), val, np.inf), ()


def _gamma_derivatives(data, t: np.ndarray, state) -> tuple[np.ndarray, np.ndarray]:
    """Gradients and Hessians (h00, h01, h11) of `_gamma_nll` over t."""
    n, mean_log, mean = data
    a, s = np.exp(t)
    g0 = n * a * (digamma(a) + t[1] - mean_log)
    return (np.array([g0, n * (a - mean / s)]),
            np.array([g0 + n * a * a * zeta(2.0, a), n * a, n * mean / s]))


def _fit_gamma(rows: _Rows) -> _Fits:
    shift = _positive_shift(rows.x)
    y = rows.x + shift[:, None]
    mean, mean_log = _row_means(y, rows), _row_means(np.log(y), rows)
    # at the scale's MLE mean / a the likelihood is stationary where
    # log a - digamma(a) = log mean(y) - mean(log y); the right side is 0 but
    # for rounding when the samples are equal
    target = np.log(mean) - mean_log
    # Minka's closed-form start, with the scale at its MLE for that shape
    a = (3.0 - target + np.sqrt((target - 3.0) ** 2 + 24.0 * target)) / (12.0 * target)
    t, ok = np.log([a, mean / a]), target > 0.0
    t, ok = _newton((rows.n, mean_log, mean), t, ok, _gamma_nll, _gamma_derivatives, _in_sane_box)
    a, scale = np.exp(t)
    return _Fits({"shape": a, "scale": scale}, ok, shift)


def _beta_nll(data, t: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Beta negative log-likelihoods of the rows, data = (n, mean log u,
    mean log(1 - u)), at t = (log alpha, log beta), inf where not finite."""
    n, mean_logu, mean_log1mu = data
    a, b = np.exp(t)
    val = n * ((1.0 - a) * mean_logu + (1.0 - b) * mean_log1mu + betaln(a, b))
    return np.where(np.isfinite(val), val, np.inf), ()


def _beta_derivatives(data, t: np.ndarray, state) -> tuple[np.ndarray, np.ndarray]:
    """Gradients and Hessians (h00, h01, h11) of `_beta_nll` over t; zeta(2, .)
    is the trigamma function."""
    n, mean_logu, mean_log1mu = data
    a, b = np.exp(t)
    params = np.array([a, b, a + b])
    psi_a, psi_b, psi_ab = digamma(params)
    tri_a, tri_b, tri_ab = zeta(2.0, params)
    g0, g1 = n * a * (psi_a - psi_ab - mean_logu), n * b * (psi_b - psi_ab - mean_log1mu)
    return (np.array([g0, g1]),
            np.array([g0 + n * a * a * (tri_a - tri_ab), -n * a * b * tri_ab,
                      g1 + n * b * b * (tri_b - tri_ab)]))


def _fit_beta(rows: _Rows) -> _Fits:
    lo, hi = rows.x.min(axis=1) - 1e-6, rows.x.max(axis=1) + 1e-6
    u = (rows.x - lo[:, None]) / (hi - lo)[:, None]
    m, v = _row_means(u, rows), _row_vars(u, rows)
    common = np.maximum(m * (1.0 - m) / v - 1.0, 1e-3)
    t = np.log([np.maximum(m * common, 1e-3), np.maximum((1.0 - m) * common, 1e-3)])
    data = (rows.n, _row_means(np.log(u), rows), _row_means(np.log1p(-u), rows))
    # a row with a sample at an end of the support has no finite likelihood
    t, ok = _newton(data, t, v > 0.0, _beta_nll, _beta_derivatives, _in_sane_box)
    a, b = np.exp(t)
    return _Fits({"alpha": a, "beta": b}, ok, np.zeros(len(a)), (lo, hi))


def _burr_nll(logs: _Rows, sum_logy: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Burr XII negative log-likelihood of each row of samples exp(logs.x)
    at the columns of t = (log c, log lam), a (2, S) array, with k at its MLE
    n / sum(log1p((y / lam)^c)): the values, inf where not finite, and the
    state `_burr_derivatives` works from, z = c (log y - log lam),
    softplus(z) = log1p((y / lam)^c) and its row sums."""
    n = logs.n
    z = np.exp(t[0])[:, None] * (logs.x - t[1][:, None])
    softplus = np.logaddexp(0.0, z)
    total = _row_sums(softplus, logs)
    # at k's MLE, (k + 1) * total is n + total; (c - 1) sum(log y - log lam)
    # - total is written sum(z - softplus(z)) - sum(log y - log lam), whose
    # terms stay exact where z is large
    val = (n * (t[0] + np.log(n / total) - t[1])
           + _row_sums(z - softplus, logs) - (sum_logy - n * t[1]) - n)
    # a product past the float range makes the sum inf, NaN or 0, and so the
    # value not finite
    return np.where(np.isfinite(val), -val, np.inf), (z, softplus, total)


def _burr_derivatives(logs: _Rows, t: np.ndarray, state) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (2, S) and Hessians (h00, h01, h11), a (3, S) array, of
    `_burr_nll` over t, from the state it returned at t.  With s = sigmoid(z) =
    1 - exp(-softplus(z)), r = s (1 - s), S the sum of softplus(z) and
    q = n / S + 1, the log-likelihood's gradient is
    (n + sum z - q sum s z, c (q sum s - n))."""
    z, softplus, total = state
    n = logs.n
    c = np.exp(t[0])
    rest = np.exp(-softplus)            # 1 - s, exact where z is large
    s = -np.expm1(-softplus)            # exact where s is small
    r = s * rest
    rz = r * z
    sum_z, sz, ss = (_row_sums(v, logs) for v in (z, s * z, s))
    r0, r1, r2 = (_row_sums(v, logs) for v in (r, rz, rz * z))
    q = n / total + 1.0
    a, b = sz / total, ss / total
    gradient = np.array([q * sz - n - sum_z, c * (n - q * ss)])
    hessian = np.array([q * (r2 + sz) - sum_z - n * a * a,
                        c * (n + n * a * b - q * (r1 + ss)), c * c * (q * r0 - n * b * b)])
    return gradient, hessian


def _in_burr_box(data, t: np.ndarray, state) -> np.ndarray:
    """c, k in [1e-3, 1e3], lam in [SIGMA_FLOOR, 1e6] at t, with k = n / total."""
    k = data[0].n / state[2]
    inside = (_BURR_BOX[:, :1] <= t) & (t <= _BURR_BOX[:, 1:])
    return inside[0] & inside[1] & (1e-3 <= k) & (k <= 1e3)


def _in_sane_box(data, t: np.ndarray, state) -> np.ndarray:
    """Both parameters exp(t) in the sane range, for gamma and beta."""
    return _sane_params(*np.exp(t))


def _fit_burr(rows: _Rows) -> _Fits:
    shift = _positive_shift(rows.x)
    y = rows.x + shift[:, None]
    logs = rows._replace(x=np.log(y))
    spread = _row_stds(logs.x, rows)
    t = np.array([np.log(np.maximum(math.pi / (math.sqrt(3.0) * spread), 0.1)),
                  np.log(_row_medians(y, rows))])
    data = (logs, _row_sums(logs.x, logs))
    t, ok = _newton(data, t, spread > 0.0, lambda data, t: _burr_nll(*data, t),
                    lambda data, t, state: _burr_derivatives(data[0], t, state), _in_burr_box)
    c, lam = np.exp(t)
    # k at the returned (c, lam)
    return _Fits({"c": c, "k": rows.n / _burr_nll(*data, t)[1][2], "lam": lam}, ok, shift)


_FITTERS = {"normal": _fit_normal, "log-normal": _fit_lognormal, "gamma": _fit_gamma,
            "beta": _fit_beta, "burr": _fit_burr}


def histogram_bins(n: int) -> int:
    return max(10, math.ceil(math.sqrt(n)))


def empirical_histograms(rows: _Rows) -> _Histograms:
    """Per row: the density of max(10, ceil(sqrt(n))) equal-width bins over
    [min, max] of its set, the bin centers, and whether the row spans a
    histogram: a span of more than 1e-12 (the histogram is degenerate
    otherwise) over bins of nonzero width (a span of a few ulps can give
    bins of zero width, which np.histogram refuses).  These are
    np.histogram's: edges spaced as by np.linspace, each sample in the bin
    whose edges bracket it (the last bin closed), found from its scaled
    offset and moved by one bin where the edges disagree."""
    count = len(rows.n)
    bins = np.maximum(10, np.ceil(np.sqrt(rows.n)).astype(np.intp))
    most = int(bins.max())
    lo, hi = rows.x.min(axis=1), rows.x.max(axis=1)
    spans = hi - lo > 1e-12
    width = np.where(spans, hi - lo, 1.0)
    edges = np.arange(most + 1) * (width / bins)[:, None] + lo[:, None]
    edges[np.arange(count), bins] = hi
    last = bins[:, None] - 1
    index = ((rows.x - lo[:, None]) / width[:, None] * bins[:, None]).astype(np.intp)
    index = np.minimum(index, last)
    index -= rows.x < np.take_along_axis(edges, index, axis=1)
    index += (rows.x >= np.take_along_axis(edges, index + 1, axis=1)) & (index != last)
    index += most * np.arange(count)[:, None]
    counts = np.bincount(index.ravel() if rows.where is True else index[rows.where],
                         minlength=count * most).reshape(count, most)
    where = True if (bins == most).all() else np.arange(most) < bins[:, None]
    widths = np.diff(edges, axis=1)
    spans &= np.all(widths > 0.0, axis=1, where=where)
    # the bins past a row's own hold none of its samples, and a row that spans
    # no histogram has no density: their widths are set to 1
    widths = np.where(where & spans[:, None], widths, 1.0)
    return _Histograms(counts / widths / rows.n[:, None], 0.5 * (edges[:, :-1] + edges[:, 1:]),
                       spans, where)


def _validated(samples, min_samples: int) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("a sample set must be one-dimensional")
    if len(x) < min_samples:
        raise ValueError(f"need at least {min_samples} samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return x


def _scored_fits(rows: _Rows, families,
                 histograms: _Histograms) -> dict[str, tuple[_Fits, np.ndarray]]:
    """Each family's fits of the rows and their SSE, the sum of squared
    differences between a row's histogram density and the fitted pdf at the
    bin centers: inf where a row has no fit, no histogram or no finite pdf."""
    density, centers, spans, where = histograms
    scored = {}
    with np.errstate(all="ignore"):
        for family in families:
            fits = _FITTERS[family](rows)
            params = {name: v[:, None] for name, v in fits.params.items()}
            support = None if fits.support is None else tuple(v[:, None] for v in fits.support)
            pdf = _PDF[family](params, support, centers + fits.shift[:, None])
            finite = np.all(np.isfinite(pdf), axis=1, where=where)
            sse = np.add.reduce((density - pdf) ** 2, axis=1, where=where)
            scored[family] = fits, np.where(fits.ok & spans & finite, sse, np.inf)
    return scored


def _row_fit(family: str, fits: _Fits, row: int, sse: float) -> FittedDistribution:
    support = None if fits.support is None else tuple(float(v[row]) for v in fits.support)
    return FittedDistribution(family, {name: float(v[row]) for name, v in fits.params.items()},
                              float(sse), shift=float(fits.shift[row]), support=support)


def fit_family(samples, family: str,
               min_samples: int = RunConfig.min_fit_samples) -> FittedDistribution | None:
    """Fit one family to a sample set; None when the fit is unavailable
    (divergence or invalid parameters).  Its SSE is inf when the samples span
    no histogram."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    rows = _stacked([_validated(samples, min_samples)])
    fits, sse = _scored_fits(rows, (family,), empirical_histograms(rows))[family]
    return _row_fit(family, fits, 0, sse[0]) if fits.ok[0] else None


def _chunks(lengths: list[int]):
    """Indices of sets, shortest first, in runs whose stack, as many rows as
    the run's longest set, holds at most _CHUNK_ELEMENTS values (or one set)."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    start = 0
    for stop in range(1, len(order) + 1):
        if stop == len(order) or (stop + 1 - start) * lengths[order[stop]] > _CHUNK_ELEMENTS:
            yield order[start:stop]
            start = stop


def select_best(sample_sets,
                min_samples: int = RunConfig.min_fit_samples) -> list[FittedDistribution | None]:
    """For each sample set, the fit of the five families with the smallest
    histogram SSE, the one the set gets alone.  Ties break by family order
    (normal < log-normal < gamma < beta < burr).  A set gets None when no
    family has a finite SSE, and no family is fit to a set that spans no
    histogram; the caller then falls back to empirical thresholds."""
    sets = [_validated(x, min_samples) for x in sample_sets]
    best: list[FittedDistribution | None] = [None] * len(sets)
    for part in _chunks([len(x) for x in sets]):
        rows = _stacked([sets[i] for i in part])
        histograms = empirical_histograms(rows)
        spanned = np.flatnonzero(histograms.spans)
        if not len(spanned):
            continue
        rows, histograms = _taken(rows, spanned), _taken(histograms, spanned)
        scored = _scored_fits(rows, FAMILIES, histograms)
        sse = np.stack([scored[family][1] for family in FAMILIES])
        for row, winner in enumerate(np.argmin(sse, axis=0)):
            if sse[winner, row] < np.inf:
                family = FAMILIES[winner]
                fits = scored[family][0]
                best[part[spanned[row]]] = _row_fit(family, fits, row, sse[winner, row])
    return best
