"""One-pass clustering checked against a plain-loop replay oracle and, bit for
bit, against the full-scan loop that the mean-distance pruning replaced."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swmparc.clustering import Cluster, cluster_centroids, quickbundles
from swmparc.distances import mdf

from conftest import random_streamlines, random_unit


def replay(streamlines, threshold):
    """Independent reimplementation with scalar kernels and explicit state."""
    clusters = []  # [sum, count, members, flips]
    for idx, s in enumerate(streamlines):
        best = None
        for ci, (total, count, _, _) in enumerate(clusters):
            centroid = total / count
            direct = float(np.mean(np.linalg.norm(centroid - s, axis=1)))
            flipped = float(np.mean(np.linalg.norm(centroid - s[::-1], axis=1)))
            d = min(direct, flipped)
            if best is None or d < best[1]:
                best = (ci, d, flipped < direct)
        if best is not None and best[1] < threshold:
            ci, _, flip = best
            aligned = s[::-1] if flip else s
            clusters[ci][0] = clusters[ci][0] + aligned
            clusters[ci][1] += 1
            clusters[ci][2].append(idx)
            clusters[ci][3].append(flip)
        else:
            clusters.append([s.copy(), 1, [idx], [False]])
    return clusters


@pytest.mark.parametrize("threshold", [2.0, 8.0, 25.0])
def test_matches_replay_oracle(rng, threshold):
    lines = random_streamlines(rng, 50)
    got = quickbundles(lines, threshold)
    want = replay(lines, threshold)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.member_indices == w[2]
        assert g.flipped == w[3]
        assert np.allclose(g.centroid, w[0] / w[1], atol=1e-9)


def test_partition_is_exact(rng):
    lines = random_streamlines(rng, 60)
    clusters = quickbundles(lines, 12.0)
    seen = sorted(i for c in clusters for i in c.member_indices)
    assert seen == list(range(60))


def test_assignment_distance_below_threshold(rng):
    """Each member was within threshold of its cluster's centroid when it joined."""
    lines = random_streamlines(rng, 50)
    threshold = 10.0
    clusters = quickbundles(lines, threshold)
    for c in clusters:
        running = None
        count = 0
        for idx, flip in zip(c.member_indices, c.flipped):
            s = lines[idx][::-1] if flip else lines[idx]
            if running is not None:
                at_assign = min(
                    mdf(running / count, lines[idx]),
                    mdf(running / count, lines[idx][::-1]),
                )
                assert at_assign < threshold
                running = running + s
            else:
                running = s.copy()
            count += 1
        assert np.allclose(c.centroid, running / count)


def test_infinite_threshold_single_cluster(rng):
    lines = random_streamlines(rng, 25)
    clusters = quickbundles(lines, np.inf)
    assert len(clusters) == 1
    assert clusters[0].count == 25


def test_tiny_threshold_all_singletons(rng):
    lines = random_streamlines(rng, 25)
    clusters = quickbundles(lines, 1e-9)
    assert len(clusters) == 25


def test_threshold_is_strict(rng):
    a = np.linspace([0.0, 0, 0], [10.0, 0, 0], 5)
    b = a + [0.0, 2.0, 0.0]
    # distance exactly 2: strict < means no merge at threshold 2
    assert len(quickbundles(np.stack([a, b]), 2.0)) == 2
    assert len(quickbundles(np.stack([a, b]), 2.0 + 1e-9)) == 1


def test_deterministic(rng):
    lines = random_streamlines(rng, 40)
    c1 = quickbundles(lines, 9.0)
    c2 = quickbundles(lines, 9.0)
    assert [c.member_indices for c in c1] == [c.member_indices for c in c2]


def test_rejects_nonpositive_threshold(rng):
    with pytest.raises(ValueError):
        quickbundles(random_streamlines(rng, 3), 0.0)


def test_centroid_stack():
    assert cluster_centroids([]).shape == (0, 0, 3)
    lines = random_streamlines(np.random.default_rng(3), 6)
    clusters = quickbundles(lines, 5.0)
    stack = cluster_centroids(clusters)
    assert stack.shape == (len(clusters), 21, 3)


def reference_quickbundles(streamlines, threshold_mm):
    """The full-scan loop, kept as the bit-exact oracle of ``quickbundles``:
    every streamline is compared with every centroid, in both orientations."""
    if threshold_mm <= 0.0:
        raise ValueError("threshold must be positive")
    streamlines = np.asarray(streamlines, dtype=np.float64)
    n = streamlines.shape[0]
    if n == 0:
        return []
    k = streamlines.shape[1]

    cap = 16
    centroids = np.empty((cap, k, 3))
    sums = np.empty((cap, k, 3))
    counts: list[int] = []
    members: list[list[int]] = []
    flips: list[list[bool]] = []

    for idx in range(n):
        s = streamlines[idx]
        m = len(counts)
        if m > 0:
            cur = centroids[:m]
            direct = np.linalg.norm(cur - s, axis=2).mean(axis=1)
            flipped = np.linalg.norm(cur - s[::-1], axis=2).mean(axis=1)
            best_each = np.minimum(direct, flipped)
            j = int(np.argmin(best_each))
            if best_each[j] < threshold_mm:
                use_flip = bool(flipped[j] < direct[j])
                aligned = s[::-1] if use_flip else s
                sums[j] += aligned
                counts[j] += 1
                centroids[j] = sums[j] / counts[j]
                members[j].append(idx)
                flips[j].append(use_flip)
                continue
        if m == cap:
            cap *= 2
            grown = np.empty((cap, k, 3))
            grown[:m] = centroids[:m]
            centroids = grown
            grown = np.empty((cap, k, 3))
            grown[:m] = sums[:m]
            sums = grown
        centroids[m] = s
        sums[m] = s
        counts.append(1)
        members.append([idx])
        flips.append([False])

    return [
        Cluster(centroid=centroids[j].copy(), member_indices=members[j], flipped=flips[j])
        for j in range(len(counts))
    ]


def assert_same_clusters(got, want):
    assert [c.member_indices for c in got] == [c.member_indices for c in want]
    assert [c.flipped for c in got] == [c.flipped for c in want]
    assert [c.centroid.tobytes() for c in got] == [c.centroid.tobytes() for c in want]


THRESHOLDS = [1e-6, 2.0, 6.0, 10.0, 25.0, math.inf]


def tie_case():
    """Two centroids at MDF exactly 3 from the last streamline, the later one
    with the smaller mean-distance (1/7 against 3): the earlier one wins."""
    s = np.stack([np.arange(21.0) * 10.0, np.zeros(21), np.zeros(21)], axis=1)
    zigzag = np.zeros((21, 3))
    zigzag[:20, 2] = np.tile([3.0, -3.0], 10)
    zigzag[20, 0] = 3.0
    return np.stack([s + [0.0, 3.0, 0.0], s + zigzag, s]), 4.0


def stale_mean_case():
    """The second line moves the first centroid towards the third, which joins
    it only if the centroid's point-mean moved along."""
    s = random_streamlines(np.random.default_rng(7), 1)[0] + 100.0
    return np.stack([s, s + [9.0, 0.0, 0.0], s + [13.0, 0.0, 0.0]]), 10.0


def nan_case():
    """A NaN centroid ahead of a near copy: the full scan's argmin lands on
    the NaN, so the copy seeds a new cluster instead of joining the first."""
    s = random_streamlines(np.random.default_rng(8), 1)[0]
    return np.stack([s, np.full_like(s, np.nan), s + 0.5]), 10.0


@st.composite
def streamline_sets(draw):
    """Random lines near 100 mm, where the means round at ~1e-13 mm, with exact
    and point-reversed copies, copies shifted by the threshold, and NaN lines."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    threshold = draw(st.sampled_from(THRESHOLDS))
    spread = draw(st.sampled_from([3.0, 30.0]))
    lines = list(random_streamlines(rng, draw(st.integers(1, 40)), scale=spread) + 100.0)
    step = threshold if math.isfinite(threshold) else 10.0
    for kind in draw(st.lists(st.sampled_from(["copy", "reversed", "shifted", "axis", "nan"]),
                              max_size=8)):
        s = lines[rng.integers(len(lines))]
        lines.append({
            "copy": lambda: s.copy(),
            "reversed": lambda: s[::-1].copy(),
            "shifted": lambda: s + step * random_unit(rng),
            "axis": lambda: s + [step, 0.0, 0.0],
            "nan": lambda: np.full_like(s, np.nan),
        }[kind]())
    lines = np.stack(lines)
    if draw(st.booleans()):
        lines = lines[rng.permutation(len(lines))]
    return lines, threshold


# lines of no points have NaN means and MDFs, which numpy reports
@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value encountered")
@settings(max_examples=300, deadline=None)
@given(streamline_sets())
@example(tie_case())
@example(stale_mean_case())
@example(nan_case())
@example((random_streamlines(np.random.default_rng(9), 40) + 100.0, 2.0))
@example((np.empty((3, 0, 3)), 2.0))  # no points: NaN MDFs, three clusters
def test_pruned_scan_matches_full_scan_bit_for_bit(case):
    lines, threshold = case
    assert_same_clusters(quickbundles(lines, threshold), reference_quickbundles(lines, threshold))


def test_oracle_cases_exercise_their_paths():
    # the examples above decide something, or the property could pass vacuously
    lines, threshold = tie_case()
    assert quickbundles(lines, threshold)[0].member_indices == [0, 2]
    lines, threshold = stale_mean_case()
    assert quickbundles(lines, threshold)[0].member_indices == [0, 1, 2]
    lines, threshold = nan_case()
    assert [c.member_indices for c in quickbundles(lines, threshold)] == [[0], [1], [2]]
    assert len(quickbundles(random_streamlines(np.random.default_rng(9), 40) + 100.0, 2.0)) > 16
