"""One-pass incremental centroid clustering of resampled streamlines.

Streamlines are processed in input order; each joins the nearest existing
centroid when its MDF is below the threshold (flipping its orientation if the
flipped MDF is smaller), otherwise it seeds a new cluster.  Centroids are the
running pointwise mean of the flip-aligned members.  Order dependence is part
of the contract: identical input order and threshold give identical output.

Most centroids are too far away to matter, and a bound rules them out from
three numbers each.  MDF is a mean of point distances, so by the triangle
inequality MDF(s, c) >= |mean(s) - mean(c)| in either orientation (flipping a
streamline does not move its point-mean).  A centroid whose mean-distance is
at or above ``threshold * (1 + 1e-9) + 1e-9 * max|coordinate|`` therefore has
an MDF at or above the threshold, and is skipped before the full MDF.  A NaN
mean-distance is never skipped.

A centroid's point-mean is kept as the running sum of its members'
point-means, divided by the member count, not recomputed from the centroid.
Against the exact point-mean of the stored centroid it rounds by at most
about (2 count + K) units of 1.1e-16 of the largest coordinate: the running
sums of points and of means each lose count units, the means K.  The
absolute term of the slack outweighs that, and the rounding of the MDF, for
clusters of up to about 4 million members; a relative slack alone would
miss it at thresholds far below the coordinates.

The survivors keep ascending index order, so ties break as in a full scan,
and their MDFs are computed with the same reductions: the output is bit for
bit that of comparing every streamline with every centroid.  Both
orientations of a streamline meet the near centroids in one subtraction,
and the decision is then taken on Python floats.  Centroids are stored
planar, (3, K) each, so that the sum over the three coordinates runs as
vector additions, ((x + y) + z) as numpy's reduction over a last axis of
three adds them.  The direct and reversed copies are built for
`_CHUNK_ROWS` streamlines at a time, never for all n.

At an infinite threshold every streamline of finite input joins the one
cluster, and only its orientation is decided: flipped when its flipped MDF
to the running centroid is below its direct one.  Those decisions are taken
in chunks, of `_RUN_FIRST` rows doubling to `_RUN_MAX`, against one snapshot
c of the centroid, with a bound of the same kind as the mean-distance one.
Let a' and b' be a row's direct and flipped MDF to c.  When rows 0 .. i-1 of
the chunk have joined, the centroid is c plus the sum of their deviations
from c over the member count then, count + i, so its points lie on average
within D = (sum of those rows' MDFs to c, each in the orientation it joined
in) / (count + i) of c's.  Point by point, the triangle inequality then puts
row i's direct and flipped MDFs at its turn within D of a' and b', so
|a' - b'| > 2 D proves the decision that c gives.  (Adding up the moves
one join at a time, D' = sum of (min(a', b') + D') / count, bounds the same
drift more loosely: on the big_atlas seed-1 bundles it leaves about twice as
many rows unproven.)  D is inflated by `_BOUND_SLACK` on its value and on
the largest coordinate, which covers the rounding of the snapshot, the sums
and the means (about (i + K) units of 1.1e-16 of the largest coordinate).
The run of proven rows joins in one `np.add.accumulate`, which adds in
sequence, so the running sum gets the bits of one `+=` a row.  The first row
not proven takes the full scan's step at the current centroid, and the chunk
goes on past it with that row's own orientation in D.  So the cluster is bit
for bit the full scan's.  Input with a NaN or an infinite coordinate, or so
large (past about 1e153) that a squared point distance could overflow, takes
the general loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# relative slack of the mean-distance bound, on the threshold and on the
# largest coordinate (see the module docstring)
_BOUND_SLACK = 1e-9
# streamlines whose direct and reversed copies are built at a time
_CHUNK_ROWS = 128
# rows of the first and of the largest chunk whose orientations are decided
# against one snapshot of the centroid at an infinite threshold (see the
# module docstring); a chunk doubles after each run that takes all its rows
_RUN_FIRST = 8
_RUN_MAX = 256


@dataclass
class Cluster:
    centroid: np.ndarray
    member_indices: list[int] = field(default_factory=list)
    flipped: list[bool] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.member_indices)


def quickbundles(streamlines: np.ndarray, threshold_mm: float) -> list[Cluster]:
    """Cluster an (n, K, 3) stack under an MDF threshold (mm)."""
    if threshold_mm <= 0.0:
        raise ValueError("threshold must be positive")
    streamlines = np.asarray(streamlines, dtype=np.float64)
    n = streamlines.shape[0]
    if n == 0:
        return []
    k = streamlines.shape[1]
    if k == 0:
        # a line of no points has a NaN MDF to every centroid, so in the full
        # scan each one seeds a cluster of its own
        return [Cluster(centroid=s.copy(), member_indices=[i], flipped=[False])
                for i, s in enumerate(streamlines)]

    # NaN prunes nothing
    scale = max(streamlines.max(), -streamlines.min())
    # finite input whose squared point distances cannot overflow: every line
    # joins the one cluster, in the orientation that certified runs decide
    if threshold_mm == math.inf and 16.0 * scale * scale < math.inf:
        return [_one_cluster(streamlines, scale)]
    means = streamlines.mean(axis=1)
    bound = threshold_mm * (1.0 + _BOUND_SLACK) + _BOUND_SLACK * scale
    bound_sq = bound * bound

    cap = 16
    centroids = np.empty((cap, 3, k))
    sums = np.empty((cap, 3, k))
    centroid_means = np.empty((3, cap))  # one row per axis: the bound is three row sums
    live = centroid_means[:, :0]
    mean_sums: list[tuple] = []  # running sums of the members' point-means
    counts: list[int] = []
    members: list[list[int]] = []
    flips: list[list[bool]] = []
    # each streamline direct and reversed, (2, 1, 3, K), to broadcast against
    # the (L, 3, K) near centroids
    pairs = np.empty((min(n, _CHUNK_ROWS), 2, 1, 3, k))

    for lo in range(0, n, _CHUNK_ROWS):
        chunk = streamlines[lo:lo + _CHUNK_ROWS]
        pairs[:len(chunk), 0, 0] = chunk.transpose(0, 2, 1)
        pairs[:len(chunk), 1, 0] = chunk[:, ::-1].transpose(0, 2, 1)
        columns = means[lo:lo + _CHUNK_ROWS, :, None]
        row_means = means[lo:lo + _CHUNK_ROWS].tolist()
        for idx, (pair, column, (mx, my, mz)) in enumerate(zip(pairs, columns, row_means), lo):
            gap = live - column
            gap *= gap
            near = (~(np.add.reduce(gap) >= bound_sq)).nonzero()[0]
            j = -1
            if near.size:
                diff = pair - (centroids[near[0]] if near.size == 1 else centroids[near])
                diff *= diff
                dist = np.add.reduce(diff, axis=2)
                np.sqrt(dist, out=dist)
                direct, flipped = np.add.reduce(dist, axis=2).tolist()
                # the full scan's argmin: the first smallest of min(direct,
                # flipped), or the first NaN; it joins below the threshold
                nearest = threshold_mm
                for c, a, b in zip(near.tolist(), direct, flipped):
                    a /= k
                    b /= k
                    if a != a or b != b:
                        j = -1
                        break
                    if b < a:
                        if b < nearest:
                            nearest, j, use_flip = b, c, True
                    elif a < nearest:
                        nearest, j, use_flip = a, c, False
            if j >= 0:
                total = sums[j]
                total += pair[1, 0] if use_flip else pair[0, 0]
                count = counts[j] + 1
                np.divide(total, count, out=centroids[j])
                sx, sy, sz = mean_sums[j]
                sx += mx
                sy += my
                sz += mz
                mean_sums[j] = sx, sy, sz
                centroid_means[0, j] = sx / count
                centroid_means[1, j] = sy / count
                centroid_means[2, j] = sz / count
                counts[j] = count
                members[j].append(idx)
                flips[j].append(use_flip)
                continue
            m = len(counts)
            if m == cap:
                cap *= 2
                centroids = np.concatenate((centroids, np.empty_like(centroids)))
                sums = np.concatenate((sums, np.empty_like(sums)))
                centroid_means = np.concatenate((centroid_means, np.empty_like(centroid_means)),
                                                axis=1)
            centroids[m] = sums[m] = pair[0, 0]
            centroid_means[0, m] = mx
            centroid_means[1, m] = my
            centroid_means[2, m] = mz
            live = centroid_means[:, :m + 1]
            mean_sums.append((mx, my, mz))
            counts.append(1)
            members.append([idx])
            flips.append([False])

    return [
        Cluster(centroid=centroids[j].T.copy(), member_indices=members[j], flipped=flips[j])
        for j in range(len(counts))
    ]


def _proven(gap: np.ndarray, taken: np.ndarray, members: np.ndarray, slack: float) -> np.ndarray:
    """Which rows of a chunk the snapshot's decision is proven for: |a' - b'|
    above twice the drift bound, the sum of the earlier rows' distances to
    the snapshot over the member count at the row's turn (`members`, for
    rows 1 .. r-1), inflated for rounding (see the module docstring)."""
    drift = np.zeros(len(gap))
    np.cumsum(taken[:-1], out=drift[1:])
    drift[1:] /= members
    return gap > 2.0 * (drift * (1.0 + _BOUND_SLACK) + slack)


def _full_scan_flip(centroid: np.ndarray, line: np.ndarray, step: np.ndarray) -> bool:
    """Whether the full scan flips ``line`` to join ``centroid``: its flipped
    MDF below its direct one, in the arithmetic of the full scan's
    ``norm(centroid - line, axis=-1).mean()``; ``step`` is a (2, K, 3)
    workspace."""
    np.subtract(centroid, line, out=step[0])
    np.subtract(centroid, line[::-1], out=step[1])
    step *= step
    direct, flipped = np.add.reduce(np.sqrt(np.add.reduce(step, axis=2)), axis=1) / len(line)
    return bool(flipped < direct)


def _one_cluster(streamlines: np.ndarray, scale: float) -> Cluster:
    """`quickbundles` at an infinite threshold on finite input: one cluster,
    its orientations decided by certified runs (see the module docstring)."""
    n, k = streamlines.shape[:2]
    slack = _BOUND_SLACK * scale
    total = streamlines[0].copy()
    flips = [False]
    # each row of a chunk direct and reversed, less the snapshot
    pair = np.empty((2, min(n, _RUN_MAX), k, 3))
    step = np.empty((2, k, 3))
    count, pos, size = 1, 1, _RUN_FIRST
    while pos < n:
        rows = streamlines[pos:pos + size]
        r = len(rows)
        centroid = total / count
        np.subtract(rows, centroid, out=pair[0, :r])
        np.subtract(rows[:, ::-1], centroid, out=pair[1, :r])
        dist = np.sqrt(np.einsum("...c,...c->...", pair[:, :r], pair[:, :r]))
        direct, flipped = np.add.reduce(dist, axis=2) / k
        gap = np.abs(direct - flipped)
        # distance to the snapshot of the orientation each row joins in
        taken = np.minimum(direct, flipped)
        members = np.arange(count + 1.0, count + r)
        proven = _proven(gap, taken, members, slack)
        done = 0
        while done < r:
            rest = proven[done:]
            run = len(rest) if rest.all() else int(rest.argmin())
            if run:
                flip = flipped[done:done + run] < direct[done:done + run]
                part = rows[done:done + run]
                aligned = np.where(flip[:, None, None], part[:, ::-1], part)
                # adds in sequence: each row gets the bits of its own `+=`
                total = np.add.accumulate(np.concatenate((total[None], aligned)))[-1]
                flips += flip.tolist()
                count += run
                done += run
            if done < r:
                # not proven: the full scan's step at the current centroid
                line = rows[done]
                use_flip = _full_scan_flip(total / count, line, step)
                total += line[::-1] if use_flip else line
                flips.append(use_flip)
                count += 1
                if use_flip != (flipped[done] < direct[done]):
                    taken[done] = flipped[done] if use_flip else direct[done]
                    proven = _proven(gap, taken, members, slack)
                done += 1
        pos += r
        size = min(2 * size, _RUN_MAX)
    return Cluster(centroid=total / count, member_indices=list(range(n)), flipped=flips)


def cluster_centroids(clusters: list[Cluster]) -> np.ndarray:
    """Stack cluster centroids into an (m, K, 3) array."""
    if not clusters:
        return np.empty((0, 0, 3))
    return np.stack([c.centroid for c in clusters])
