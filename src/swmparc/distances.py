"""Streamline distance kernels: MDF, medial-aligned MDF, and the symmetric
bundle cost minimized by registration.

`mdf`, `mmea` and `bundle_min_distance` work from point differences; they are
the references the fast path is tested against.  The fast path is one fused
kernel, `MdfKernel`, used by `pairwise_mdf` (and so `pairwise_mmea`) and by
the registration cost.  It stores the static stack once as an augmented block
holding [-2b; 1; |b|^2] for the direct and the point-reversed streamlines side
by side, so that moving rows [a, |a|^2, 1] give every squared point distance,
direct and flipped, in one batched matmul.  Its row chunks are sized by an
element budget on the (K, rows, 2m) distance block, `_BLOCK_ELEMENTS`, and its
workspaces are allocated once per kernel: the registration builds one kernel
per registration and reuses it for every cost evaluation.

The budget matters.  Over the 208 `pairwise_mmea` calls of the three bench
workloads' first seed (a 2-core VM, one BLAS thread, two runs), a 1 MB block
(2^17 values) takes 22-27% less time than an 8 MB one (0.35-0.39 against
0.47-0.50 s) with the same bits, since the block stays in cache between the
matmul that writes it and the passes that read it.  At 2^14 values a block
holds one row of a 300-column call, so every chunk runs as a matrix-vector
product: 7-12% slower than 8 MB, and the bits of all 40 such calls change.
For the same reason a static set wider than a third of the budget's rows
(1,040 streamlines at K = 21) is split into column blocks of that width, so
that its chunks keep at least three rows; narrower sets, every call of the
bench workloads among them, keep one block.
"""
from __future__ import annotations

import numpy as np

from .geometry import midpoints

# Most float64 values one (K, rows, 2m) point-distance block of the fused
# kernel may hold (1 MB, small enough to stay in cache; see the module
# docstring); rows, and columns past a third of it, are chunked to stay
# within it.
_BLOCK_ELEMENTS = 1 << 17
# Fewest rows a chunk may be held to: below three, the even split of
# `MdfKernel.chunks` leaves one-row chunks, which numpy runs as
# matrix-vector products, with other bits and one loop pass per row
_MIN_ROWS = 3


def _check_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("streamlines must share the same (K, 3) shape")
    return a, b


def mdf(a, b) -> float:
    """Minimum average direct-flip distance between two equal-K streamlines."""
    a, b = _check_pair(a, b)
    direct = float(np.mean(np.linalg.norm(a - b, axis=1)))
    flipped = float(np.mean(np.linalg.norm(a - b[::-1], axis=1)))
    return min(direct, flipped)


def center_at_midpoints(batch: np.ndarray) -> np.ndarray:
    """Translate each streamline so its medial point sits at the origin."""
    return batch - midpoints(batch)[:, None, :]


def mmea(a, b) -> float:
    """MDF after translating both streamlines to put their medial points at
    the origin; translation-invariant shape distance."""
    a, b = _check_pair(a, b)
    if a.shape[0] % 2 == 0:
        raise ValueError("medial alignment requires an odd point count")
    k = (a.shape[0] - 1) // 2
    return mdf(a - a[k], b - b[k])


def augment(points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Moving rows [a, |a|^2, 1] of points laid out (K, n, 3), as (K, n, 5)."""
    # |a|^2 from a contiguous array: einsum adds up a strided view in another
    # order, which moves the last bit of the distances
    points = np.ascontiguousarray(points)
    aug = np.empty(points.shape[:2] + (5,)) if out is None else out
    aug[..., :3] = points
    np.einsum("knc,knc->kn", points, points, out=aug[..., 3])
    aug[..., 4] = 1.0
    return aug


def static_block(B: np.ndarray) -> np.ndarray:
    """Augmented static block of an (m, K, 3) stack, shape (K, 5, 2m).

    Column j holds [-2b; 1; |b|^2] for point k of streamline j, column m + j
    the same for streamline j point-reversed.  A moving row [a, |a|^2, 1]
    (`augment`) times a column is |a - b|^2, so one batched matmul gives the
    direct and the flipped point distances of every pair.
    """
    m, k = B.shape[:2]
    Bt = np.ascontiguousarray(B.transpose(1, 2, 0))  # (K, 3, m), contiguous as in `augment`
    block = np.empty((k, 5, 2 * m))
    np.multiply(Bt, -2.0, out=block[:, :3, :m])
    block[:, :3, m:] = block[::-1, :3, :m]
    block[:, 3] = 1.0
    np.einsum("kcm,kcm->km", Bt, Bt, out=block[:, 4, :m])
    block[:, 4, m:] = block[::-1, 4, :m]
    return block


class MdfKernel:
    """Fused all-pairs MDF against one static (m, K, 3) stack.

    The static side is built once as augmented blocks (`static_block`).  A
    call takes augmented moving rows (`augment`) and per block does one
    batched matmul, a clamp (the |a|^2 + |b|^2 - 2 a.b expansion can go slightly
    negative under rounding), a sqrt and a sum over K, then keeps the smaller
    of the direct and flipped halves.  Static columns are split into blocks
    and moving rows into chunks (`chunks`) so that no (K, rows, 2 columns)
    distance block holds more than `_BLOCK_ELEMENTS` values; a block has at
    most `_BLOCK_ELEMENTS` // (2 K `_MIN_ROWS`) columns, so that a chunk
    holds at least `_MIN_ROWS` rows when the budget has room for them.  The workspaces
    are allocated once, for moving sets of up to ``n`` streamlines, and reused
    by every call, so an instance must not be shared between threads.
    """

    def __init__(self, B: np.ndarray, n: int):
        B = np.asarray(B, dtype=np.float64)
        m, k = B.shape[:2]
        width = min(m, max(1, _BLOCK_ELEMENTS // (2 * k * _MIN_ROWS)))
        self.rows = max(1, min(n, _BLOCK_ELEMENTS // (2 * k * width)))
        self.blocks = [(lo, static_block(B[lo:lo + width])) for lo in range(0, m, width)]
        self._dist = np.empty(k * self.rows * 2 * width)
        self._sums = np.empty(self.rows * 2 * width)

    def chunks(self, n: int) -> list[tuple[int, int]]:
        """Ranges of ``n`` moving rows, at most `rows` each, split evenly.

        numpy runs a one-row matmul as a matrix-vector product, which rounds
        differently from the matrix product of the other chunks; an even split
        has no one-row chunk unless n is 1 or `rows` is below 3.
        """
        count = -(-n // self.rows)
        return [(n * i // count, n * (i + 1) // count) for i in range(count)]

    def __call__(self, aug: np.ndarray, out: np.ndarray) -> np.ndarray:
        """MDF of the moving rows ``aug`` (K, n, 5) to every static streamline,
        written into ``out`` of shape (n, m)."""
        k, n = aug.shape[:2]
        spans = self.chunks(n)
        for c0, block in self.blocks:
            c = block.shape[2] // 2
            for lo, hi in spans:
                r = hi - lo
                dist = self._dist[:k * r * 2 * c].reshape(k, r, 2 * c)
                np.matmul(aug[:, lo:hi], block, out=dist)
                np.maximum(dist, 0.0, out=dist)
                np.sqrt(dist, out=dist)
                sums = dist.sum(axis=0, out=self._sums[:r * 2 * c].reshape(r, 2 * c))
                np.minimum(sums[:, :c], sums[:, c:], out=out[lo:lo + r, c0:c0 + c])
        out /= k
        return out


def pairwise_mdf(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All-pairs MDF between two (n, K, 3) stacks, returned as (n, m).

    Runs `MdfKernel` on row chunks of A, so the augmented rows and the
    distance blocks stay within the `_BLOCK_ELEMENTS` budget whatever n and m.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[1:] != B.shape[1:]:
        raise ValueError("stacks must share the same (K, 3) streamline shape")
    n = A.shape[0]
    out = np.empty((n, B.shape[0]))
    if out.size:
        kernel = MdfKernel(B, n)
        for lo, hi in kernel.chunks(n):
            kernel(augment(A[lo:hi].transpose(1, 0, 2)), out[lo:hi])
    return out


def pairwise_mmea(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All-pairs medial-aligned MDF between two (n, K, 3) stacks."""
    return pairwise_mdf(center_at_midpoints(np.asarray(A, dtype=np.float64)),
                        center_at_midpoints(np.asarray(B, dtype=np.float64)))


def bundle_min_distance(A, B) -> float:
    """Symmetric mean-of-minimum MDF between two streamline sets.

    0.5 * (mean over A of min MDF to B + mean over B of min MDF to A); the
    registration cost.  Exact brute force, intended for centroid-sized sets.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if len(A) == 0 or len(B) == 0:
        raise ValueError("bundle_min_distance needs non-empty sets")
    if A.shape[1:] != B.shape[1:]:
        raise ValueError("sets must share the same (K, 3) streamline shape")
    # point differences, not the matmul expansion: this is the reference the
    # fused kernel is tested against
    flipped = B[:, ::-1]
    d = np.array([np.minimum(np.linalg.norm(B - a, axis=2).mean(axis=1),
                             np.linalg.norm(flipped - a, axis=2).mean(axis=1)) for a in A])
    return float(0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean()))
