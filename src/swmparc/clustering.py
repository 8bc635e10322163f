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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# relative slack of the mean-distance bound, on the threshold and on the
# largest coordinate (see the module docstring)
_BOUND_SLACK = 1e-9
# streamlines whose direct and reversed copies are built at a time
_CHUNK_ROWS = 128


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

    means = streamlines.mean(axis=1)
    # NaN prunes nothing
    scale = max(streamlines.max(), -streamlines.min())
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


def cluster_centroids(clusters: list[Cluster]) -> np.ndarray:
    """Stack cluster centroids into an (m, K, 3) array."""
    if not clusters:
        return np.empty((0, 0, 3))
    return np.stack([c.centroid for c in clusters])
