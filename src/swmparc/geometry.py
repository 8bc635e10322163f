"""Streamline geometry: resampling and the six per-streamline descriptors.

A streamline is an (N, 3) float64 array of points in millimeters.  All
pipeline algorithms operate on the fixed-K resampled form (K odd, default 21)
so that every streamline has an exact medial point.  Batch variants accept an
(n, K, 3) stack and are the hot path; the scalar functions define the contract.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESAMPLE_POINTS = 21
DEGENERATE_NORM = 1e-9


_NON_FINITE = "streamline contains non-finite coordinates"
_ZERO_LENGTH = "zero-length streamline"

# Most values a temporary of `resample_all` may hold (8 MB of float64).
# Streamlines are cut into input-order chunks of at most this many
# coordinates, counting max(points, k) points per streamline, so no temporary
# grows with the number of streamlines; one streamline longer than that is a
# chunk of its own.
_CHUNK_ELEMENTS = 1 << 20


def _shaped(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("streamline must be an (N, 3) array")
    if pts.shape[0] < 2:
        raise ValueError("streamline needs at least 2 points")
    return pts


def as_points(points) -> np.ndarray:
    pts = _shaped(points)
    if not np.all(np.isfinite(pts)):
        raise ValueError(_NON_FINITE)
    return pts


def dedupe_consecutive(points: np.ndarray) -> np.ndarray:
    """Drop points identical to their predecessor (zero-length segments)."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = seg > 0.0
    return points[keep]


def resample(points, k: int = RESAMPLE_POINTS) -> np.ndarray:
    """Resample a polyline to k points at equal arc-length spacing.

    Endpoints are preserved.  Consecutive duplicate points are removed first;
    a zero-total-length input is rejected.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    pts = dedupe_consecutive(as_points(points))
    if len(pts) < 2:
        raise ValueError(_ZERO_LENGTH)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    if total <= 0.0:
        raise ValueError(_ZERO_LENGTH)
    target = np.linspace(0.0, total, k)
    out = np.empty((k, 3))
    for dim in range(3):
        out[:, dim] = np.interp(target, cum, pts[:, dim])
    # guard against interp rounding at the ends
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def resample_all(streamlines, k: int = RESAMPLE_POINTS) -> np.ndarray:
    """Resample a sequence of polylines into one (n, k, 3) stack.

    Row i is bit for bit ``resample(streamlines[i], k)``.  Only the shape
    checks loop over the streamlines: they are concatenated in input-order
    chunks within `_CHUNK_ELEMENTS`, deduplicated in one pass over each
    chunk, and resampled by `_resample_group` in groups of similar
    deduplicated point counts.  A bad streamline rejects the whole input with
    a ValueError that names the first bad one in input order, as
    ``streamline <i>: <reason>``; ``k`` is checked first, also for no input.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    arrays: list[np.ndarray] = []
    failure = None
    for s in streamlines:
        try:
            arrays.append(_shaped(s))
        except ValueError as e:
            failure = e
            break
    out = np.empty((len(arrays), k, 3))
    counts = np.fromiter((len(a) for a in arrays), dtype=np.int64, count=len(arrays))
    size = 3 * np.maximum(counts, k)
    ends = np.cumsum(size)
    lo = 0
    while lo < len(arrays):
        room = ends[lo] - size[lo] + _CHUNK_ELEMENTS
        hi = max(lo + 1, int(np.searchsorted(ends, room, side="right")))
        bad = _resample_chunk(arrays[lo:hi], counts[lo:hi], k, out[lo:hi])
        if bad is not None:
            raise ValueError(f"streamline {lo + bad[0]}: {bad[1]}")
        lo = hi
    if failure is not None:
        raise ValueError(f"streamline {len(arrays)}: {failure}")
    return out


def _segment_lengths(coords: np.ndarray) -> np.ndarray:
    """Segment lengths of a (3, P) coordinate-major polyline, bit for bit
    ``np.linalg.norm(np.diff(points, axis=0), axis=1)``: the squares are
    summed x, y, z in order, as its reduction over each row does."""
    d = np.diff(coords, axis=1)
    d *= d
    return np.sqrt((d[0] + d[1]) + d[2])


def _resample_chunk(arrays, counts, k, out):
    """Resample streamlines that passed `_shaped` into ``out``.

    Returns (index, reason) of the first one that `resample` would reject,
    or None.
    """
    # coordinate-major, so that every operation below runs along long rows
    coords = np.concatenate(arrays).T.copy()
    ends = np.cumsum(counts)
    starts = ends - counts
    finite = np.ones(len(counts), dtype=bool)
    finite[np.searchsorted(ends, np.flatnonzero(~np.isfinite(coords).all(axis=0)),
                           side="right")] = False
    # dedupe_consecutive over the whole chunk; the segments that cross a
    # streamline boundary are overruled by keeping every first point
    with np.errstate(over="ignore", invalid="ignore"):
        seg = _segment_lengths(coords)
        keep = np.empty(coords.shape[1], dtype=bool)
        keep[0] = True
        np.greater(seg, 0.0, out=keep[1:])
        keep[starts] = True
        if not keep.all():
            coords = coords[:, keep]
            seg = _segment_lengths(coords)
    kept = np.add.reduceat(keep, starts, dtype=np.int64)
    kept_starts = np.cumsum(kept) - kept

    zero = finite & (kept < 2)
    rows = np.flatnonzero(finite & (kept >= 2))
    # rows of similar point counts (within a factor of sqrt 2) are resampled
    # together, each padded to the longest
    rows = rows[np.argsort(kept[rows], kind="stable")]
    band = np.floor(2.0 * np.log2(kept[rows]))
    for group in np.split(rows, np.flatnonzero(np.diff(band)) + 1):
        if len(group):
            coords_out, zero[group] = _resample_group(coords, seg, kept_starts[group],
                                                      kept[group], k)
            out[group] = coords_out.transpose(1, 2, 0)
    bad = np.flatnonzero(~finite | zero)
    if bad.size == 0:
        return None
    i = int(bad[0])
    return i, _ZERO_LENGTH if finite[i] else _NON_FINITE


def _resample_group(coords, seg, starts, counts, k):
    """`resample` of the g deduplicated streamlines of ``counts`` points that
    start at columns ``starts`` of the (3, P) ``coords``; ``seg[t]`` is the
    length of the segment from point t to point t + 1.

    Returns the (3, g, k) coordinate-major stack and the rows of zero total
    length.  Each row repeats the scalar arithmetic: the running sum of its
    segment lengths in order (padded with zero lengths, which leave it
    unchanged, up to the longest row), ``np.linspace`` to its total, and the
    ``np.interp`` formula ``slope * (x - xp[j]) + fp[j]``, with j the last
    index where ``xp <= x``, and ``fp[j]`` itself where ``x == xp[j]`` or j
    is the last index.
    """
    g = len(starts)
    first = starts[:, None]
    last = (counts - 1)[:, None]
    steps = np.arange(counts.max() - 1)
    lengths = np.take(seg, first + steps, mode="clip")
    lengths[steps >= last] = 0.0
    cum = np.zeros((g, len(steps) + 1))
    np.cumsum(lengths, axis=1, out=cum[:, 1:])
    total = cum[:, -1]
    zero = total <= 0.0
    # a zero step would switch linspace to its other arithmetic for every
    # row; those rows are rejected anyway
    x = np.linspace(0.0, np.where(zero, 1.0, total), k, axis=1)
    # the padding equals the total, so only the last target can land on it
    j = np.minimum(_last_at_or_below(cum, x), last)
    below = np.minimum(j, last - 1)
    x0 = np.take_along_axis(cum, below, axis=1)
    x1 = np.take_along_axis(cum, below + 1, axis=1)
    y0 = np.take(coords, first + below, axis=1)
    y1 = np.take(coords, first + below + 1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (y1 - y0) / (x1 - x0) * (x - x0) + y0
    knot = (j == last) | (x == np.take_along_axis(cum, j, axis=1))
    out[:, knot] = np.take(coords, (first + j)[knot], axis=1)
    out[:, :, 0] = np.take(coords, starts, axis=1)
    out[:, :, -1] = np.take(coords, starts + counts - 1, axis=1)
    return out, zero


def _last_at_or_below(cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row, the last index t with ``cum[t] <= x[i]`` for every target i.

    Both rows are non-decreasing, so each knot's count of targets below it,
    ``p = #{i: x[i] < cum[t]}``, starts from ``ceil(cum / step)`` and is moved
    until exact; then index t is at or below x[i] exactly when p[t] <= i.
    """
    g, k = x.shape
    step = x[:, 1:2]  # the second target is one step from 0
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.clip(np.ceil(cum / step), 0, k).astype(np.int64)
    while True:
        down = (p > 0) & (np.take_along_axis(x, np.maximum(p - 1, 0), axis=1) >= cum)
        if not down.any():
            break
        p -= down
    while True:
        up = (p < k) & (np.take_along_axis(x, np.minimum(p, k - 1), axis=1) < cum)
        if not up.any():
            break
        p += up
    hist = np.bincount((np.arange(g)[:, None] * (k + 1) + p).ravel(), minlength=g * (k + 1))
    return np.cumsum(hist.reshape(g, k + 1)[:, :k], axis=1) - 1


def arc_length(points) -> float:
    pts = as_points(points)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def arc_lengths(batch: np.ndarray) -> np.ndarray:
    """Arc lengths of an (n, K, 3) stack."""
    return np.sum(np.linalg.norm(np.diff(batch, axis=1), axis=2), axis=1)


def midpoint(points) -> np.ndarray:
    pts = as_points(points)
    if len(pts) % 2 == 0:
        raise ValueError("midpoint requires an odd point count")
    return pts[(len(pts) - 1) // 2]


def midpoints(batch: np.ndarray) -> np.ndarray:
    if batch.shape[1] % 2 == 0:
        raise ValueError("midpoint requires an odd point count")
    return batch[:, (batch.shape[1] - 1) // 2, :]


@dataclass(frozen=True)
class Bundle:
    """A named group of resampled streamlines, stacked (n, K, 3)."""

    id: str
    streamlines: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.streamlines, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError("bundle streamlines must be an (n, K, 3) array")
        if arr.shape[0] == 0:
            raise ValueError("bundle must be non-empty")
        object.__setattr__(self, "streamlines", arr)

    def __len__(self) -> int:
        return self.streamlines.shape[0]


def bundle_barycenter(streamlines: np.ndarray) -> np.ndarray:
    """Mean of all resampled points of all streamlines."""
    if len(streamlines) == 0:
        raise ValueError("bundle must be non-empty")
    return streamlines.reshape(-1, 3).mean(axis=0)


def bundle_radius(streamlines: np.ndarray, barycenter: np.ndarray | None = None) -> float:
    """Radius of the smallest barycenter-centered sphere containing all points."""
    if barycenter is None:
        barycenter = bundle_barycenter(streamlines)
    d = np.linalg.norm(streamlines.reshape(-1, 3) - barycenter, axis=1)
    return float(d.max())


def _normalize_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its first component with |v| > threshold is positive."""
    v = np.atleast_2d(vectors).copy()
    significant = np.abs(v) > DEGENERATE_NORM
    # index of the first significant component per row; rows with none stay put
    any_sig = significant.any(axis=1)
    first = np.argmax(significant, axis=1)
    lead = v[np.arange(len(v)), first]
    flip = any_sig & (lead < 0)
    v[flip] *= -1.0
    return v if vectors.ndim > 1 else v[0]


def plane_normals(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares plane normals for an (n, K, 3) stack.

    Returns (normals, degenerate) where degenerate marks collinear point sets
    whose normal direction is ambiguous.  Normals are sign-normalized so the
    first component above threshold is positive.
    """
    centered = batch - batch.mean(axis=1, keepdims=True)
    # smallest right-singular vector = direction of least scatter
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    normals = _normalize_sign(vt[:, 2, :])
    scale = np.maximum(s[:, 0], 1e-12)
    degenerate = s[:, 1] <= 1e-9 * scale
    return normals, degenerate


def fit_plane_normal(points) -> tuple[np.ndarray, bool]:
    """Unit normal of the least-squares plane through a streamline's points."""
    pts = as_points(points)
    if len(pts) < 3:
        raise ValueError("plane fit needs at least 3 points")
    normals, degenerate = plane_normals(pts[None, :, :])
    return normals[0], bool(degenerate[0])


def direction_vectors(batch: np.ndarray) -> np.ndarray:
    """Mean of (first - midpoint) and (last - midpoint) per streamline."""
    mid = midpoints(batch)
    v1 = batch[:, 0, :] - mid
    v2 = batch[:, -1, :] - mid
    return 0.5 * (v1 + v2)


def direction_vector(points) -> np.ndarray:
    pts = as_points(points)
    return direction_vectors(pts[None, :, :])[0]


def _angles_deg(a: np.ndarray, b: np.ndarray, fold: bool = False) -> np.ndarray:
    """Angles in degrees between the vectors on the last axis of ``a`` and
    ``b`` (``b`` may be one vector for all), as arctan2(|a x b|, a.b), which
    keeps full precision at 0 and 180 degrees where the arccos of a cosine
    turns rounding into about 1e-6 degrees.  The arithmetic is elementwise, so
    a row's bits do not depend on how many rows share the call, as those of a
    BLAS matrix-vector product do.  ``fold`` takes |a.b|: the angle between
    the planes with normals a and b, in [0, 90] degrees."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    cross = np.sqrt((a1 * b2 - a2 * b1) ** 2 + (a2 * b0 - a0 * b2) ** 2 + (a0 * b1 - a1 * b0) ** 2)
    dot = a0 * b0 + a1 * b1 + a2 * b2
    return np.degrees(np.arctan2(cross, np.abs(dot) if fold else dot))


def shape_angles(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle between the two midpoint-to-endpoint vectors, per streamline.

    Returns (angles_deg, degenerate); degenerate rows (either vector below
    threshold) carry NaN angles instead of raising.
    """
    mid = midpoints(batch)
    v1 = batch[:, 0, :] - mid
    v2 = batch[:, -1, :] - mid
    n1 = np.linalg.norm(v1, axis=1)
    n2 = np.linalg.norm(v2, axis=1)
    degenerate = (n1 <= DEGENERATE_NORM) | (n2 <= DEGENERATE_NORM)
    return np.where(degenerate, np.nan, _angles_deg(v1, v2)), degenerate


def shape_angle(points) -> float:
    """Angle describing how close to a U-form the streamline is (180 = straight)."""
    pts = as_points(points)
    angles, degenerate = shape_angles(pts[None, :, :])
    if degenerate[0]:
        raise ValueError("degenerate shape angle")
    return float(angles[0])


def angle_between_planes(n1, n2) -> float:
    """Angle between two planes via their normals, folded to [0, 90] degrees."""
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    m1 = float(np.linalg.norm(n1))
    m2 = float(np.linalg.norm(n2))
    if m1 <= DEGENERATE_NORM or m2 <= DEGENERATE_NORM:
        raise ValueError("degenerate plane normal")
    return float(_angles_deg(n1, n2, fold=True))


def angles_to_plane(normals: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Angles of each row's plane to the reference plane, by their normals,
    folded to [0, 90] degrees."""
    return _angles_deg(normals, reference, fold=True)


def angle_between_directions(d1, d2) -> float:
    """Oriented angle between two direction vectors in [0, 180] degrees."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    m1 = float(np.linalg.norm(d1))
    m2 = float(np.linalg.norm(d2))
    if m1 <= DEGENERATE_NORM or m2 <= DEGENERATE_NORM:
        raise ValueError("degenerate direction")
    return float(_angles_deg(d1, d2))


def angles_to_direction(directions: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles of each row to a reference direction; degenerate rows flagged."""
    norms = np.linalg.norm(directions, axis=1)
    ref_norm = float(np.linalg.norm(reference))
    degenerate = norms <= DEGENERATE_NORM
    if ref_norm <= DEGENERATE_NORM:
        return np.full(len(directions), np.nan), np.ones(len(directions), dtype=bool)
    return np.where(degenerate, np.nan, _angles_deg(directions, reference)), degenerate
