import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swmparc.distances as dist
from swmparc.distances import bundle_min_distance, mdf, mmea, pairwise_mdf, pairwise_mmea

from conftest import random_streamlines


def test_mdf_axioms(rng):
    A = random_streamlines(rng, 40)
    B = random_streamlines(rng, 40)
    for a, b in zip(A, B):
        d = mdf(a, b)
        assert d >= 0.0
        assert abs(d - mdf(b, a)) < 1e-9
        assert mdf(a, a) == 0.0
        assert mdf(a, a[::-1]) == 0.0  # flip identity


def test_mdf_picks_smaller_orientation():
    a = np.linspace([0.0, 0, 0], [10.0, 0, 0], 5)
    b = a[::-1] + [0.0, 1.0, 0.0]
    # direct order is reversed, flipped matches: distance is the 1 mm offset
    assert mdf(a, b) == pytest.approx(1.0)


def test_mdf_shape_checks():
    a = np.zeros((5, 3))
    with pytest.raises(ValueError):
        mdf(a, np.zeros((7, 3)))


def test_mmea_translation_invariance(rng):
    A = random_streamlines(rng, 30)
    B = random_streamlines(rng, 30)
    for a, b in zip(A, B):
        base = mmea(a, b)
        shifted = mmea(a + rng.uniform(-100, 100, 3), b + rng.uniform(-100, 100, 3))
        assert abs(base - shifted) < 1e-9
        assert abs(base - mmea(b, a)) < 1e-9


def test_mmea_requires_odd_point_count():
    with pytest.raises(ValueError):
        mmea(np.zeros((4, 3)), np.zeros((4, 3)))


def test_mmea_zero_after_translation():
    a = random_streamlines(np.random.default_rng(0), 1)[0]
    assert mmea(a, a + [5.0, -3.0, 2.0]) < 1e-9


def test_pairwise_mdf_matches_scalar_kernel(rng):
    A = random_streamlines(rng, 17)
    B = random_streamlines(rng, 23)
    fast = pairwise_mdf(A, B)
    slow = np.array([[mdf(a, b) for b in B] for a in A])
    assert np.abs(fast - slow).max() < 1e-9


def test_pairwise_mdf_chunking(rng, monkeypatch):
    A = random_streamlines(rng, 10)
    B = random_streamlines(rng, 4)
    slow = np.array([[mdf(a, b) for b in B] for a in A])
    # three rows of all four columns a chunk; then one row of three columns,
    # so the static side splits into two blocks
    for budget in (2 * 21 * 4 * 3, 2 * 21 * 3):
        monkeypatch.setattr(dist, "_BLOCK_ELEMENTS", budget)
        assert np.abs(pairwise_mdf(A, B) - slow).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairwise_mdf_matches_scalar_kernel_in_chunks(data):
    # shapes and the budget come from hypothesis, the points from a seeded
    # generator: the expansion is only accurate to 1e-9 away from coincident
    # points (about 1e-6 at them, which is why the self path pins its
    # diagonal; see test_pairwise_self_distance_near_zero)
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.integers(1, 30), label="m")
    k = data.draw(st.integers(1, 10).map(lambda h: 2 * h + 1), label="K")
    budget = data.draw(st.integers(2 * k, 2 * k * m * n), label="budget")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = random_streamlines(rng, n, k=k)
    B = random_streamlines(rng, m, k=k)
    slow = np.array([[mdf(a, b) for b in B] for a in A])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_BLOCK_ELEMENTS", budget)
        assert np.abs(pairwise_mdf(A, B) - slow).max() < 1e-9


def test_kernel_blocks_stay_within_budget_for_large_m(rng):
    # the widest m whose three rows of the distance block, 3 x 2m x K values,
    # fit the budget (1,040 at K = 21 and 2^17) keeps one column block; past
    # it the static side splits into blocks of that width, three rows a
    # chunk.  n only sets how many row chunks a call makes
    k = 21
    n, width = 1_000_000, dist._BLOCK_ELEMENTS // (2 * k * 3)
    assert width == 1040
    for m, blocks in ((width, 1), (3 * width, 3), (3 * width + 1, 4)):
        kernel = dist.MdfKernel(np.zeros((m, k, 3)), n)
        assert [lo for lo, _ in kernel.blocks] == list(range(0, m, width))[:blocks]
        assert kernel.rows == 3
        assert kernel.rows * 2 * width * k <= dist._BLOCK_ELEMENTS
        assert kernel._dist.size <= dist._BLOCK_ELEMENTS
    # under a budget of three rows of seven columns, blocks of seven
    A = random_streamlines(rng, 5, k=k)
    B = random_streamlines(rng, 40, k=k)
    slow = np.array([[mdf(a, b) for b in B] for a in A])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_BLOCK_ELEMENTS", 2 * k * 3 * 7)
        kernel = dist.MdfKernel(B, len(A))
        assert kernel._dist.size <= 2 * k * 3 * 7
        assert [lo for lo, _ in kernel.blocks] == list(range(0, 40, 7))
        assert kernel.rows == 3
        out = kernel(dist.augment(A.transpose(1, 0, 2)), np.empty((5, 40)))
    assert np.abs(out - slow).max() < 1e-9


@pytest.mark.parametrize("m", [1041, 1561, 5000, 20000])
def test_wide_static_sets_keep_three_row_chunks(m, rng):
    # past 1,040 static streamlines (K = 21) the column blocks narrow so that
    # a chunk may hold three rows, and seven rows split 2 + 2 + 3 with no
    # one-row chunk; the distances stay those of `mdf`
    k = 21
    A = random_streamlines(rng, 7, k=k)
    B = random_streamlines(rng, m, k=k)
    kernel = dist.MdfKernel(B, len(A))
    assert kernel.rows == 3
    assert [hi - lo for lo, hi in kernel.chunks(len(A))] == [2, 2, 3]
    out = pairwise_mdf(A, B)
    for a, row in zip(A, out):
        direct = np.linalg.norm(B - a, axis=2).mean(axis=1)
        flipped = np.linalg.norm(B[:, ::-1] - a, axis=2).mean(axis=1)
        assert np.abs(row - np.minimum(direct, flipped)).max() < 1e-9
    for i, j in ((0, 0), (3, m // 2), (6, m - 1)):
        assert out[i, j] == pytest.approx(mdf(A[i], B[j]), abs=1e-9)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 10])
def test_row_chunks_are_even(rows, monkeypatch):
    # a one-row chunk runs as a matrix-vector product, which rounds
    # differently; an even split leaves none unless rows < 3 or n = 1.  One
    # static streamline, since a wider set would narrow its column blocks
    # to leave three rows a chunk
    k, m = 3, 1
    monkeypatch.setattr(dist, "_BLOCK_ELEMENTS", 2 * k * m * rows)
    for n in range(1, 60):
        kernel = dist.MdfKernel(np.zeros((m, k, 3)), n)
        spans = kernel.chunks(n)
        assert kernel.rows == min(rows, n)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == n and len(spans) == -(-n // kernel.rows)
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) <= kernel.rows and max(sizes) - min(sizes) <= 1
        if n > 1 and rows >= 3:
            assert min(sizes) >= 2


def test_pairwise_self_distance_near_zero(rng):
    # the matmul expansion leaves about 1e-6 at zero distance; the self path
    # pins the diagonal of finite rows to the exact MDF(s, s) = 0
    A = random_streamlines(rng, 12) + 150.0
    assert np.all(np.diag(pairwise_mdf(A, A)) == 0.0)
    assert np.all(np.diag(pairwise_mmea(A, A)) == 0.0)


TILE = dist._SELF_TILE


@pytest.mark.parametrize("n", [1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 5])
@pytest.mark.parametrize("budget", [None, 2 * 21 * TILE * 3])
def test_self_path_is_symmetric_and_exact(n, budget, rng, monkeypatch):
    # each unordered pair once, mirrored: bitwise symmetric, and within 1e-9
    # of the point-difference references off the diagonal.  The small budget
    # holds three rows of a tile, so one tile spans several row chunks
    if budget is not None:
        monkeypatch.setattr(dist, "_BLOCK_ELEMENTS", budget)
        assert dist.MdfKernel(np.zeros((TILE, 21, 3)), n).rows == min(3, n)
    A = random_streamlines(rng, n) + 50.0
    for fast, scalar in ((pairwise_mdf(A, A), mdf), (pairwise_mmea(A, A), mmea)):
        slow = np.array([[scalar(a, b) for b in A] for a in A])
        assert fast.shape == (n, n)
        assert np.array_equal(fast, fast.T)
        assert np.all(np.diag(fast) == 0.0)
        assert np.abs(fast - slow).max() < 1e-9


def test_self_path_keeps_nan_rows(rng):
    A = random_streamlines(rng, TILE + 7)
    A[TILE - 2, 4] = np.nan
    for d in (pairwise_mdf(A, A), pairwise_mmea(A, A)):
        assert np.array_equal(d, d.T, equal_nan=True)
        assert np.isnan(d[TILE - 2]).all() and np.isnan(d[:, TILE - 2]).all()
        others = np.delete(np.delete(d, TILE - 2, axis=0), TILE - 2, axis=1)
        assert np.isfinite(others).all() and np.all(np.diag(others) == 0.0)


def test_only_the_same_object_takes_the_self_path(rng, monkeypatch):
    calls = []
    self_path = dist._pairwise_self
    monkeypatch.setattr(dist, "_pairwise_self", lambda A: calls.append(len(A)) or self_path(A))
    A = random_streamlines(rng, 9)
    copy = A.copy()
    general = pairwise_mdf(A, copy)
    pairwise_mmea(A, copy)
    assert calls == []
    same = pairwise_mdf(A, A)
    pairwise_mmea(A, A)
    assert calls == [9, 9]
    off = ~np.eye(9, dtype=bool)
    assert np.abs(same - general)[off].max() < 1e-9


def test_pairwise_mmea_matches_scalar(rng):
    A = random_streamlines(rng, 9)
    B = random_streamlines(rng, 7)
    fast = pairwise_mmea(A, B)
    slow = np.array([[mmea(a, b) for b in B] for a in A])
    assert np.abs(fast - slow).max() < 1e-9


def test_bundle_min_distance_brute_force(rng):
    A = random_streamlines(rng, 8)
    B = random_streamlines(rng, 11)
    half_a = np.mean([min(mdf(a, b) for b in B) for a in A])
    half_b = np.mean([min(mdf(b, a) for a in A) for b in B])
    expected = 0.5 * (half_a + half_b)
    assert bundle_min_distance(A, B) == pytest.approx(expected, abs=1e-9)
    assert bundle_min_distance(A, B) == pytest.approx(bundle_min_distance(B, A), abs=1e-9)


def test_bundle_min_distance_zero_on_identical_sets(rng):
    A = random_streamlines(rng, 5)
    assert bundle_min_distance(A, A) < 1e-6
    with pytest.raises(ValueError):
        bundle_min_distance(A, np.empty((0, 21, 3)))
