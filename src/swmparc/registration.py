"""Rigid streamline-set registration and bundle neighborhood machinery.

The 6-DOF transform (intrinsic x-y-z Euler rotation about a pivot plus a
translation) is fit by one deterministic BFGS descent on the symmetric
bundle distance and its analytic gradient.  Neighborhoods are extracted on
the fly through the spatial grid, never precomputed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import cluster_centroids, quickbundles
from .config import RunConfig
from .distances import MdfKernel, augment
from .optimize import bfgs
# the brute-force form of RigidCost, still importable from this module
from .distances import bundle_min_distance  # noqa: F401
from .spatial import StreamlineGrid

# the descent stops after a step that moves no parameter by more than this,
# in degrees and mm: 0.01 deg moves a point 100 mm from the pivot by
# 0.017 mm, and 0.01 mm is 1/30 of the 0.3 mm coordinate noise of the
# benchmark subjects.
SBR_XATOL = 1e-2
# that stop also needs the step to change the cost by at most this, in mm;
# an initial cost this low returns the identity at once
SBR_COST_TOLERANCE_MM = 1e-3
# cost calls a descent may spend beyond the first; a converging descent
# stops long before, so this only bounds one that does not
SBR_MAX_EVALUATIONS = 500
# the first step's length and the units of the descent: criterion 4 recovers
# moves of 3-10 deg and 3-10 mm from an identity start
SBR_STEP_DEG = 10.0
SBR_STEP_MM = 10.0
_SBR_SCALE = np.array([SBR_STEP_DEG] * 3 + [SBR_STEP_MM] * 3)
# point differences shorter than this count as zero in the gradient
_TINY_MM = 1e-150


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (intrinsic x-y-z Euler angles, degrees) about a pivot, then a
    translation in mm: p -> R (p - pivot) + pivot + t."""

    rotation_deg: np.ndarray
    translation_mm: np.ndarray
    pivot: np.ndarray

    def __post_init__(self):
        for name in ("rotation_deg", "translation_mm", "pivot"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, v)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.zeros(3), np.zeros(3), np.zeros(3))

    def rotation_matrix(self) -> np.ndarray:
        return euler_xyz_matrix(*self.rotation_deg)

    def matrix(self) -> np.ndarray:
        """Equivalent homogeneous 4x4 matrix."""
        R = self.rotation_matrix()
        m = np.eye(4)
        m[:3, :3] = R
        m[:3, 3] = self.pivot + self.translation_mm - R @ self.pivot
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to an (..., 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        R = self.rotation_matrix()
        return (pts - self.pivot) @ R.T + self.pivot + self.translation_mm

    def is_identity(self) -> bool:
        return bool(np.all(self.rotation_deg == 0.0) and np.all(self.translation_mm == 0.0))


def apply_rigid(transform: RigidTransform, streamlines: np.ndarray) -> np.ndarray:
    """Transform a streamline or an (n, K, 3) stack."""
    return transform.apply(streamlines)


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    initial_cost_mm: float
    final_cost_mm: float
    iterations: int
    converged: bool


def euler_xyz_matrix(ax: float, ay: float, az: float) -> np.ndarray:
    """Rotation matrix of intrinsic x-y-z Euler angles in degrees, in closed form.

    Composes the three half-angle quaternions and expands the product into a
    matrix with the operations in the order scipy's `Rotation.from_euler(
    "XYZ", ...)` uses, so it matches scipy to the last bit in practice.
    """
    ha, hb, hc = math.radians(ax) / 2.0, math.radians(ay) / 2.0, math.radians(az) / 2.0
    sa, ca = math.sin(ha), math.cos(ha)
    sb, cb = math.sin(hb), math.cos(hb)
    sc, cc = math.sin(hc), math.cos(hc)
    # quaternion (x, y, z, w) of the x then y rotation, then of all three
    x1, y1, z1, w1 = cb * sa, ca * sb, sa * sb, ca * cb
    x = cc * x1 + y1 * sc
    y = cc * y1 - x1 * sc
    z = w1 * sc + cc * z1
    w = w1 * cc - z1 * sc
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([
        [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
        [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
        [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
    ])


def euler_xyz_axes(ax: float, ay: float) -> tuple:
    """Derivatives of `euler_xyz_matrix` in closed form, as three axes.

    With R = Rx(ax) Ry(ay) Rz(az), the derivative by angle r in radians is
    [w_r]x R, the cross product with axis w_r applied after R: w_x = e_x,
    w_y = Rx e_y and w_z = Rx Ry e_z.  So a point p rotated to R p moves at
    w_r x R p.  The axes do not depend on az.  Returns (w_x, w_y, w_z) as
    tuples of floats.
    """
    a, b = math.radians(ax), math.radians(ay)
    sa, ca, sb, cb = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
    return (1.0, 0.0, 0.0), (0.0, ca, sa), (sb, -sa * cb, ca * cb)


def canonical_orientation(streamlines: np.ndarray) -> np.ndarray:
    """An (n, K, 3) stack with each streamline reversed where its first point
    is lexicographically greater than its last, so that a streamline and its
    reverse come out the same."""
    first, last = streamlines[:, 0], streamlines[:, -1]
    axis = (first != last).argmax(axis=1)
    rows = np.arange(len(streamlines))
    reverse = first[rows, axis] > last[rows, axis]
    return np.where(reverse[:, None, None], streamlines[:, ::-1], streamlines)


class RigidCost:
    """Symmetric bundle distance of a rigidly moved set to a static one, as a
    function of the 6 parameters (rotation degrees, translation mm) about the
    moving set's barycenter, with its gradient.

    Equals ``bundle_min_distance(RigidTransform(x[:3], x[3:], pivot).apply(
    moving), static)`` up to rounding.  Both sets are first put in
    `canonical_orientation`, so that reading any streamline backwards changes
    no bit of a cost, a gradient or the pivot.  What does not depend on the
    parameters is built once: the moving set centred on the pivot in a
    (K, n, 3) layout, the static side as an `MdfKernel` and as points, and
    workspaces for the moved points, their augmented rows, the MDF matrix and
    the gradient's pairs.  A call builds the rotation in closed form, rotates
    and translates into the workspace and runs the kernel; `gradient` then
    reads the moved points and the MDF matrix that call left.  Not safe to
    share between threads.

    The cost of a set against itself is not 0 but about 3e-8 mm, the
    rounding of the kernel's expansion at coincident points.  There the
    gradient is only the direction of rounding noise.
    """

    def __init__(self, moving: np.ndarray, static: np.ndarray):
        moving = canonical_orientation(moving)
        static = canonical_orientation(static)
        n, k, m = len(moving), moving.shape[1], len(static)
        self.pivot = moving.reshape(-1, 3).mean(axis=0)
        self._centred = np.ascontiguousarray((moving - self.pivot).transpose(1, 0, 2))
        self._moved = np.empty_like(self._centred)
        self._rows = np.empty(self._centred.shape[:2] + (5,))
        self._kernel = MdfKernel(static, n)
        self._mdf = np.empty((n, m))
        # the gradient's n + m pairs: each moving row with its nearest static
        # column, then each static column with its nearest moving row
        self._static = np.ascontiguousarray(static.transpose(2, 1, 0))
        self._pair_moving = np.concatenate([np.arange(n), np.zeros(m, dtype=np.intp)])
        self._pair_static = np.concatenate([np.zeros(n, dtype=np.intp), np.arange(m)])
        self._weights = np.repeat([0.5 / (n * k), 0.5 / (m * k)], [n, m])
        self._paired = np.empty((2, 3, k, n + m))
        self._at = None  # the bytes of the last call's parameters
        self.evaluations = 0

    def __call__(self, x: np.ndarray) -> float:
        self.evaluations += 1
        x = np.asarray(x, dtype=np.float64)
        self._at = x.tobytes()
        moved = np.matmul(self._centred, euler_xyz_matrix(x[0], x[1], x[2]).T, out=self._moved)
        moved += self.pivot
        moved += x[3:]
        d = self._kernel(augment(moved, self._rows), self._mdf)
        n, m = d.shape
        # sum / count is what mean() computes, without its per-call overhead
        return float(0.5 * (d.min(axis=1).sum() / n + d.min(axis=0).sum() / m))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """The 6-vector gradient of the cost at ``x``, from the moved points
        and the MDF matrix of the last call, which must have been at ``x``;
        it is not an evaluation.

        The gradient is that of the n + m pairs that hold the row and column
        minima of the MDF matrix, each recomputed from point differences in
        the static streamline's point order, direct or with the moving points
        reversed, whichever sum is smaller.  Each unit point difference is
        weighted 0.5 / (n K) or 0.5 / (m K) and carried through the
        derivatives of the rotation (`euler_xyz_axes`); a zero-length
        difference contributes 0.  At an argmin switch this is the gradient of
        one of the meeting pieces.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.tobytes() != self._at:
            raise ValueError("RigidCost.gradient(x) needs the last call to be at x")
        d = self._mdf
        n = len(d)
        d.argmin(axis=1, out=self._pair_static[:n])
        d.argmin(axis=0, out=self._pair_moving[n:])
        # moving points of each pair (x, y, z first), direct and reversed
        paired = self._paired
        np.take(self._moved.transpose(2, 0, 1), self._pair_moving, axis=2, out=paired[0])
        paired[1] = paired[0, :, ::-1]
        diff = paired - np.take(self._static, self._pair_static, axis=2)
        dist = np.sqrt((diff * diff).sum(axis=1))
        sums = dist.sum(axis=1)
        weight = np.empty_like(sums)
        np.multiply(self._weights, sums[1] < sums[0], out=weight[1])
        np.subtract(self._weights, weight[1], out=weight[0])
        diff *= (weight[:, None, :] / np.maximum(dist, _TINY_MM))[:, None]
        units = diff.reshape(2, 3, -1)
        gt = units.sum(axis=(0, 2)).tolist()
        # torque of the weighted unit differences about the moved pivot:
        # sum of (p - c) x u over the moving points p, c = pivot + translation
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.matmul(
            units, paired.reshape(2, 3, -1).transpose(0, 2, 1)).sum(axis=0).tolist()
        cx, cy, cz = (self.pivot + x[3:]).tolist()
        tx = (m21 - m12) - (cy * gt[2] - cz * gt[1])
        ty = (m02 - m20) - (cz * gt[0] - cx * gt[2])
        tz = (m10 - m01) - (cx * gt[1] - cy * gt[0])
        per_degree = math.pi / 180.0
        grad = [per_degree * (wx * tx + wy * ty + wz * tz)
                for wx, wy, wz in euler_xyz_axes(x[0], x[1])]
        return np.array(grad + gt)


def sbr_rigid(moving: np.ndarray, static: np.ndarray) -> RegistrationResult:
    """Rigid registration of a moving streamline set onto a static one.

    Minimizes the symmetric bundle distance over 6 parameters with one
    `optimize.bfgs` descent on a `RigidCost` and its gradient, started at the
    identity.  Its first step goes down the gradient by `SBR_STEP_DEG` and
    `SBR_STEP_MM` units.  It stops after a step that moves every parameter by
    at most `SBR_XATOL` (degrees and mm) and the cost by at most
    `SBR_COST_TOLERANCE_MM`, when its line search finds no decrease, or after
    `SBR_MAX_EVALUATIONS` cost calls beyond the first; the gradient is
    taken only at accepted steps, from the distances of the call there.  The
    pivot is the moving set's barycenter.  The cost is one `RigidCost`, so its
    static block and workspaces are built once per registration, not per
    evaluation, and never shared between threads.  Deterministic: fixed
    start, no randomness, and the same result when any streamline of either
    set is read backwards.  Never raises on optimizer failure; if no
    parameter set beats the initial cost the identity transform is returned
    with converged=False.

    The cost of a set against itself is about 3e-8 mm, not 0, so with a
    `SBR_COST_TOLERANCE_MM` below that an already aligned pair runs the
    descent.  No step lowers that cost, so the line search ends the descent
    after at most a dozen calls (one halving of the first step per factor 2
    down to `SBR_XATOL`), not at the budget.
    """
    moving = np.asarray(moving, dtype=np.float64)
    static = np.asarray(static, dtype=np.float64)
    if len(moving) == 0 or len(static) == 0:
        raise ValueError("registration needs non-empty streamline sets")
    if moving.shape[1:] != static.shape[1:]:
        raise ValueError("streamline sets must share the same (K, 3) shape")

    cost = RigidCost(moving, static)

    x0 = np.zeros(6)
    initial_cost = cost(x0)
    if initial_cost <= SBR_COST_TOLERANCE_MM:
        return RegistrationResult(
            transform=RigidTransform.identity(),
            initial_cost_mm=initial_cost,
            final_cost_mm=initial_cost,
            iterations=cost.evaluations,
            converged=True,
        )

    best_x, best_cost, _ = bfgs(cost, cost.gradient, x0, initial_cost, cost.gradient(x0),
                                _SBR_SCALE, SBR_MAX_EVALUATIONS, xatol=SBR_XATOL,
                                fatol=SBR_COST_TOLERANCE_MM)

    if not (math.isfinite(best_cost) and best_cost < initial_cost):
        return RegistrationResult(
            transform=RigidTransform.identity(),
            initial_cost_mm=initial_cost,
            final_cost_mm=initial_cost,
            iterations=cost.evaluations,
            converged=False,
        )
    return RegistrationResult(
        transform=RigidTransform(best_x[:3], best_x[3:], cost.pivot),
        initial_cost_mm=initial_cost,
        final_cost_mm=best_cost,
        iterations=cost.evaluations,
        converged=True,
    )


def extract_neighborhood(
    streamlines: np.ndarray,
    center,
    radius_mm: float,
    rule: str = "all",
    grid: StreamlineGrid | None = None,
) -> np.ndarray:
    """Ascending indices of the streamlines of a tractogram contained in a sphere.

    rule="all": every resampled point inside the sphere (strict reading);
    rule="any": at least one point inside.  With a grid the scan only touches
    candidates whose bounding box can reach the sphere; the result is always
    identical to the brute-force scan.
    """
    if radius_mm <= 0.0:
        raise ValueError("radius must be positive")
    if rule not in ("all", "any"):
        raise ValueError("containment rule must be 'all' or 'any'")
    center = np.asarray(center, dtype=np.float64)
    if grid is not None:
        candidates = grid.sphere_candidates(center, radius_mm)
    else:
        candidates = np.arange(len(streamlines), dtype=np.int64)
    if len(candidates) == 0:
        return candidates
    d = np.linalg.norm(streamlines[candidates] - center, axis=2)
    inside = d.max(axis=1) <= radius_mm if rule == "all" else d.min(axis=1) <= radius_mm
    return candidates[inside]


@dataclass(frozen=True)
class LocalRegistration:
    """Outcome of one bundle's local neighborhood registration."""

    registration: RegistrationResult
    neighborhood: np.ndarray          # ascending subject indices in the sphere
    atlas_neighborhood_size: int
    absent: bool


def lsnr(
    center,
    radius_mm: float,
    atlas_streamlines: np.ndarray,
    subject_streamlines: np.ndarray,
    config: RunConfig | None = None,
    atlas_grid: StreamlineGrid | None = None,
    subject_grid: StreamlineGrid | None = None,
) -> LocalRegistration:
    """Local streamline neighborhood registration for one bundle.

    Extracts the sphere neighborhood (neighborhood_factor times the bundle
    radius) in the whole atlas and in the globally aligned subject, reduces
    both to centroids, and registers subject centroids onto atlas centroids.
    An empty subject neighborhood flags the bundle as absent.
    """
    cfg = config or RunConfig()
    sphere_radius = cfg.neighborhood_factor * float(radius_mm)
    atlas_nbhd = extract_neighborhood(
        atlas_streamlines, center, sphere_radius,
        rule=cfg.containment_rule, grid=atlas_grid,
    )
    subject_nbhd = extract_neighborhood(
        subject_streamlines, center, sphere_radius,
        rule=cfg.containment_rule, grid=subject_grid,
    )
    if len(subject_nbhd) == 0 or len(atlas_nbhd) == 0:
        return LocalRegistration(
            registration=RegistrationResult(
                transform=RigidTransform.identity(),
                initial_cost_mm=float("nan"),
                final_cost_mm=float("nan"),
                iterations=0,
                converged=False,
            ),
            neighborhood=subject_nbhd,
            atlas_neighborhood_size=len(atlas_nbhd),
            absent=True,
        )
    atlas_centroids = cluster_centroids(
        quickbundles(atlas_streamlines[atlas_nbhd], cfg.qb_threshold_local_mm)
    )
    subject_centroids = cluster_centroids(
        quickbundles(subject_streamlines[subject_nbhd], cfg.qb_threshold_local_mm)
    )
    registration = sbr_rigid(subject_centroids, atlas_centroids)
    return LocalRegistration(
        registration=registration,
        neighborhood=subject_nbhd,
        atlas_neighborhood_size=len(atlas_nbhd),
        absent=False,
    )
