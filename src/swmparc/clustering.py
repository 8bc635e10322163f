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
an MDF at or above the threshold, and is skipped before the full MDF.  The
absolute term outweighs the rounding of the means and of the MDF (about
K * 1e-16 of the largest coordinate), which a relative slack alone misses at
thresholds far below the coordinates.  A NaN mean-distance is never skipped.
The survivors keep ascending index order, so ties break as in a full scan, and
their MDFs are computed with the same reductions: the output is bit for bit
that of comparing every streamline with every centroid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# relative slack of the mean-distance bound, on the threshold and on the
# largest coordinate (see the module docstring)
_BOUND_SLACK = 1e-9


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

    means = streamlines.mean(axis=1)
    # NaN prunes nothing; the initial value keeps streamlines of no points legal
    scale = max(streamlines.max(initial=0.0), -streamlines.min(initial=0.0))
    bound = threshold_mm * (1.0 + _BOUND_SLACK) + _BOUND_SLACK * scale
    bound_sq = bound * bound
    orders = np.array([np.arange(k), np.arange(k)[::-1]])  # direct, flipped

    cap = 16
    centroids = np.empty((cap, k, 3))
    sums = np.empty((cap, k, 3))
    centroid_means = np.empty((3, cap))  # one row per axis: the bound is three row sums
    counts: list[int] = []
    members: list[list[int]] = []
    flips: list[list[bool]] = []

    for idx in range(n):
        s = streamlines[idx]
        m = len(counts)
        gap = centroid_means[:, :m] - means[idx][:, None]
        gap *= gap
        near = np.flatnonzero(~(gap[0] + gap[1] + gap[2] >= bound_sq))
        if near.size:
            diff = centroids[near] - s[orders][:, None]
            direct, flipped = np.sqrt(np.add.reduce(diff * diff, axis=3)).sum(axis=2) / k
            best_each = np.minimum(direct, flipped)
            i = int(np.argmin(best_each))
            if best_each[i] < threshold_mm:
                j = int(near[i])
                use_flip = bool(flipped[i] < direct[i])
                sums[j] += s[::-1] if use_flip else s
                counts[j] += 1
                centroids[j] = sums[j] / counts[j]
                centroid_means[:, j] = centroids[j].mean(axis=0)
                members[j].append(idx)
                flips[j].append(use_flip)
                continue
        if m == cap:
            cap *= 2
            centroids = np.concatenate((centroids, np.empty_like(centroids)))
            sums = np.concatenate((sums, np.empty_like(sums)))
            centroid_means = np.concatenate((centroid_means, np.empty_like(centroid_means)), axis=1)
        centroids[m] = s
        sums[m] = s
        centroid_means[:, m] = means[idx]
        counts.append(1)
        members.append([idx])
        flips.append([False])

    return [
        Cluster(centroid=centroids[j].copy(), member_indices=members[j], flipped=flips[j])
        for j in range(len(counts))
    ]


def cluster_centroids(clusters: list[Cluster]) -> np.ndarray:
    """Stack cluster centroids into an (m, K, 3) array."""
    if not clusters:
        return np.empty((0, 0, 3))
    return np.stack([c.centroid for c in clusters])
