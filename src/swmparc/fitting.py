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
family is fit to all rows of a chunk at once, the Newton solves below in
lockstep with each row stopping by its own rules.  Every row sum is masked to
the row's own samples, which numpy adds as it adds the set alone, so a set's
fit does not depend on the other sets and is the one `fit_family` gives.

Positive-support families are fit on y = x + shift with shift chosen so the
samples are strictly positive; the shift is recorded in the fit and undone by
pdf/cdf/quantile.  All fits maximize the likelihood.  Normal and log-normal
are closed form.  Gamma and beta solve their likelihood equations by Newton's
method (T. Minka, "Estimating a Gamma distribution", 2002, and "Estimating a
Dirichlet distribution", 2000): gamma's shape is the root of
log a - digamma(a) = log mean(y) - mean(log y), its scale mean(y) / a; beta's
(alpha, beta) are where the digamma differences equal mean log u and
mean log(1 - u).  Burr maximizes its profile likelihood over (log c, log lam),
with k at its MLE n / sum(log1p((y/lam)^c)), by Newton's method from a
moment start: the gradient and Hessian come from the same z = c (log y -
log lam) as the value, eigenvalues of a Hessian that is not positive definite
are replaced by their magnitudes, and a step moves log c and log lam by at
most 0.5 and is halved until the likelihood falls.  The Burr solve ends with
no fit at the first point it reaches outside c and k in [1e-3, 1e3], lam in
[SIGMA_FLOOR, 1e6].  Each solve stops at a 1e-12 relative step, Burr's also
after a step whose predicted fall is within the likelihood's rounding, or
after _NEWTON_MAX_ITER steps, so every fit is deterministic.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, digamma, gammainc, gammaln, ndtr, ndtri, zeta

from .config import RunConfig

FAMILIES = ("normal", "log-normal", "gamma", "beta", "burr")

SIGMA_FLOOR = 1e-6
POSITIVE_SHIFT = 1e-6
_NEWTON_MAX_ITER = 50
_NEWTON_RTOL = 1e-12
# Burr: the box its lam and c must stay in, as (low, high) bounds of log c
# and of log lam, a row each (k must stay in [1e-3, 1e3]); the longest step
# in log c and log lam, a factor e^0.5, which keeps a solve in the basin of
# its start where a longer one jumps past it to the box's edge; and the
# predicted fall, relative to 1 + |nll|, below which a step is the last
_BURR_BOX = np.log([[1e-3, 1e3], [SIGMA_FLOOR, 1e6]])
_BURR_MAX_STEP = 0.5
_BURR_FALL_RTOL = 1e-12
_BISECT_TOL = 1e-8
# Most values a chunk of stacked sample sets holds (256 KB); a solve keeps
# about a dozen temporaries of a chunk's size, whatever the number of sets
_CHUNK_ELEMENTS = 1 << 15
# beta's step, whole and halved 1 to 63 times, as factors in a column
_HALVES = 0.5 ** np.arange(64.0)[:, None]


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
        """Inverse CDF; closed form for normal/log-normal/burr, bisection on
        the CDF (1e-8 absolute) for gamma/beta."""
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
    """The rows `keep` of a _Rows or _Histograms."""
    return type(rows)(*(v if v is True else v[keep] for v in rows))


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


def _fit_gamma(rows: _Rows) -> _Fits:
    shift = _positive_shift(rows.x)
    y = rows.x + shift[:, None]
    mean = _row_means(y, rows)
    # at the scale's MLE mean / a the likelihood is stationary where
    # log a - digamma(a) = log mean(y) - mean(log y); the right side is 0 but
    # for rounding when the samples are equal
    target = np.log(mean) - _row_means(np.log(y), rows)
    ok = target > 0.0
    # Minka's closed-form start and generalized Newton step on 1 / a.  A shape
    # past the sane range is rejected anyway; past a few hundred the step
    # stalls at the rounding of log a - digamma(a), so a step no smaller than
    # the last ends the solve
    a = (3.0 - target + np.sqrt((target - 3.0) ** 2 + 24.0 * target)) / (12.0 * target)
    active, last = ok.copy(), np.full(len(y), np.inf)
    for _ in range(_NEWTON_MAX_ITER):
        ok &= ~active | _sane_params(a)
        active &= ok
        if not active.any():
            break
        # done rows take a shape of 1: zeta(2, a) is slow for a far below 0
        at = np.where(active, a, 1.0)
        gap = np.log(at) - digamma(at) - target
        new = 1.0 / (1.0 / at + gap / (at * at * (1.0 / at - zeta(2.0, at))))
        step = np.abs(new - at)
        a = np.where(active, new, a)
        active &= ~((step <= _NEWTON_RTOL * a) | (step >= last))
        last = step
    scale = np.maximum(mean / a, SIGMA_FLOOR)
    return _Fits({"shape": a, "scale": scale}, ok & _sane_params(a, scale), shift)


def _fit_beta(rows: _Rows) -> _Fits:
    lo, hi = rows.x.min(axis=1) - 1e-6, rows.x.max(axis=1) + 1e-6
    u = (rows.x - lo[:, None]) / (hi - lo)[:, None]
    m, v = _row_means(u, rows), _row_vars(u, rows)
    ok = v > 0.0
    common = np.maximum(m * (1.0 - m) / v - 1.0, 1e-3)
    a, b = np.maximum(m * common, 1e-3), np.maximum((1.0 - m) * common, 1e-3)
    mean_logu, mean_log1mu = _row_means(np.log(u), rows), _row_means(np.log1p(-u), rows)

    def nll(a, b, at=slice(None)):
        # per sample, of the rows `at`; convex in (a, b)
        return (1.0 - a) * mean_logu[at] + (1.0 - b) * mean_log1mu[at] + betaln(a, b)

    # Newton on the gradient digamma(a) - digamma(a + b) - mean log u,
    # digamma(b) - digamma(a + b) - mean log(1 - u), with the trigamma
    # (zeta(2, .)) Hessian; a step is halved until both parameters stay
    # positive and the likelihood does not fall
    f = nll(a, b)
    ok &= np.isfinite(f)                # a sample at an end of the support
    live = np.flatnonzero(ok)           # the rows still stepping
    for _ in range(_NEWTON_MAX_ITER):
        if not len(live):
            break
        al, bl = a[live], b[live]
        params = np.stack((al, bl, al + bl))
        psi_a, psi_b, psi_ab = digamma(params)
        tri_a, tri_b, tri_ab = zeta(2.0, params)
        ga, gb = psi_a - psi_ab - mean_logu[live], psi_b - psi_ab - mean_log1mu[live]
        haa, hbb = tri_a - tri_ab, tri_b - tri_ab
        det = haa * hbb - tri_ab * tri_ab
        bad = ~((0.0 < det) & (det < np.inf))
        ok[live[bad]] = False
        da, db = -(hbb * ga + tri_ab * gb) / det, -(haa * gb + tri_ab * ga) / det
        near = ~bad & (np.abs(da) <= _NEWTON_RTOL * al) & (np.abs(db) <= _NEWTON_RTOL * bl)
        a[live[near]], b[live[near]] = al[near] + da[near], bl[near] + db[near]
        # the whole steps, then where they rise the steps halved 1 to 63 times
        # (past that they are below rounding) at once, in slices of rows
        # within a chunk's size: unlike Burr's, a trial costs no pass over the
        # samples.  A row none of whose steps falls, or whose step is below
        # 1e-12 relative, ends where it stands
        going, trying = np.zeros(len(live), bool), np.flatnonzero(~bad & ~near)
        for halves in (_HALVES[:1], _HALVES[1:]):
            per, failed = max(1, _CHUNK_ELEMENTS // len(halves)), []
            for part in (trying[k:k + per] for k in range(0, len(trying), per)):
                at = live[part]
                ta, tb = a[at] + da[part] * halves, b[at] + db[part] * halves
                tf = nll(ta, tb, at)
                fell = (ta > 0.0) & (tb > 0.0) & (tf <= f[at])
                found, first = fell.any(axis=0), fell.argmax(axis=0)
                cols, first = np.flatnonzero(found), first[found]
                ta, tb, tf, at = ta[first, cols], tb[first, cols], tf[first, cols], at[cols]
                going[part[cols]] = ((np.abs(ta - a[at]) > _NEWTON_RTOL * ta)
                                     | (np.abs(tb - b[at]) > _NEWTON_RTOL * tb))
                a[at], b[at], f[at] = ta, tb, tf
                failed.append(part[~found])
            trying = np.concatenate(failed) if failed else trying
        live = live[going]
    return _Fits({"alpha": a, "beta": b}, ok & _sane_params(a, b), np.zeros(len(a)), (lo, hi))


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


def _in_burr_box(t: np.ndarray, n: np.ndarray, total: np.ndarray) -> np.ndarray:
    """c, k in [1e-3, 1e3], lam in [SIGMA_FLOOR, 1e6] at t, with k = n / total."""
    k = n / total
    inside = (_BURR_BOX[:, :1] <= t) & (t <= _BURR_BOX[:, 1:])
    return inside[0] & inside[1] & (1e-3 <= k) & (k <= 1e3)


def _fit_burr(rows: _Rows) -> _Fits:
    shift = _positive_shift(rows.x)
    y = rows.x + shift[:, None]
    logy = np.log(y)
    spread = _row_stds(logy, rows)
    t = np.array([np.log(np.maximum(math.pi / (math.sqrt(3.0) * spread), 0.1)),
                  np.log(_row_medians(y, rows))])
    # where each row's solve stands; the arrays of the live rows shrink as rows end
    end_t, end_total, ok = t.copy(), np.ones(len(y)), spread > 0.0
    live = np.flatnonzero(ok)
    logs, t = _taken(rows._replace(x=logy), live), t[:, live]
    sum_logy = _row_sums(logs.x, logs)
    f, state = _burr_nll(logs, sum_logy, t)
    keep = np.isfinite(f) & _in_burr_box(t, logs.n, state[2])
    ok[live[~keep]] = False
    for _ in range(_NEWTON_MAX_ITER):
        if not keep.all():
            live, logs, sum_logy = live[keep], _taken(logs, keep), sum_logy[keep]
            t, f = t[:, keep], f[keep]
            state = tuple(v[keep] for v in state)
        if not len(live):
            break
        gradient, hessian = _burr_derivatives(logs, t, state)
        step = _descent_step(gradient, hessian)
        longest = np.abs(step).max(axis=0)
        stepped = np.isfinite(longest)
        step = np.where(longest > _BURR_MAX_STEP, step * _BURR_MAX_STEP / longest, step)
        # a step whose predicted fall is within the likelihood's rounding is
        # the last; it is taken without a fall test, which rounding would
        # decide
        fall = -(gradient[0] * step[0] + gradient[1] * step[1])
        last = fall <= _BURR_FALL_RTOL * (1.0 + np.abs(f))
        trial = t + step
        f_trial, trial_state = _burr_nll(logs, sum_logy, trial)
        accepted = stepped & ((f_trial < f) | last & (f_trial < np.inf))
        halving = np.flatnonzero(stepped & ~accepted & (np.abs(step).max(axis=0) > _NEWTON_RTOL))
        while len(halving):
            step[:, halving] *= 0.5
            part = t[:, halving] + step[:, halving]
            f_part, part_state = _burr_nll(_taken(logs, halving), sum_logy[halving], part)
            fell = (f_part < f[halving]) | last[halving] & (f_part < np.inf)
            at = halving[fell]
            trial[:, at], f_trial[at], accepted[at] = part[:, fell], f_part[fell], True
            for whole, piece in zip(trial_state, part_state):
                whole[at] = piece[fell]
            halving = halving[~fell & (np.abs(step[:, halving]).max(axis=0) > _NEWTON_RTOL)]
        # a row with no step, or whose step leaves the box, ends with no fit;
        # one whose likelihood falls no more above rounding ends where it
        # stands, one after its last step where that takes it
        inside = _in_burr_box(trial, logs.n, trial_state[2])
        ok[live[~stepped | accepted & ~inside]] = False
        end_t[:, live] = np.where(accepted, trial, t)
        end_total[live] = np.where(accepted, trial_state[2], state[2])
        t, f, state, keep = trial, f_trial, trial_state, accepted & inside & ~last
    c, lam = np.exp(end_t)
    # k at the returned (c, lam)
    return _Fits({"c": c, "k": rows.n / end_total, "lam": lam}, ok, shift)


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
