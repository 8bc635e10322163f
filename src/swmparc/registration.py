"""Rigid streamline-set registration and bundle neighborhood machinery.

The 6-DOF transform (intrinsic x-y-z Euler rotation about a pivot plus a
translation) is fit by a deterministic two-stage Nelder-Mead descent on the
symmetric bundle distance.  Neighborhoods are extracted on the fly through
the spatial grid, never precomputed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation

from .clustering import cluster_centroids, quickbundles
from .config import RunConfig
from .distances import MdfKernel, augment
from .optimize import nelder_mead
# the brute-force form of RigidCost, still importable from this module
from .distances import bundle_min_distance  # noqa: F401
from .spatial import StreamlineGrid


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
        return Rotation.from_euler("XYZ", self.rotation_deg, degrees=True).as_matrix()

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

    def inverse(self) -> "RigidTransform":
        R = self.rotation_matrix()
        Rinv = R.T
        # inverse maps q -> Rinv (q - pivot - t) + pivot; same pivot, new angles
        angles = Rotation.from_matrix(Rinv).as_euler("XYZ", degrees=True)
        t_inv = Rinv @ (-np.asarray(self.translation_mm))
        return RigidTransform(angles, t_inv, self.pivot)

    def is_identity(self, tol: float = 0.0) -> bool:
        return bool(
            np.all(np.abs(self.rotation_deg) <= tol)
            and np.all(np.abs(self.translation_mm) <= tol)
        )


def apply_rigid(transform: RigidTransform, streamlines: np.ndarray) -> np.ndarray:
    """Transform a streamline or an (n, K, 3) stack."""
    return transform.apply(streamlines)


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying ``inner`` then ``outer``."""
    m = outer.matrix() @ inner.matrix()
    angles = Rotation.from_matrix(m[:3, :3]).as_euler("XYZ", degrees=True)
    return RigidTransform(angles, m[:3, 3], np.zeros(3))


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    initial_cost_mm: float
    final_cost_mm: float
    iterations: int
    converged: bool


def _params_to_transform(x: np.ndarray, pivot: np.ndarray) -> RigidTransform:
    return RigidTransform(x[:3], x[3:], pivot)


def euler_xyz_matrix(ax: float, ay: float, az: float) -> np.ndarray:
    """Rotation matrix of intrinsic x-y-z Euler angles in degrees, in closed form.

    Composes the three half-angle quaternions and expands the product into a
    matrix with the operations in the order scipy's `Rotation` uses, so it
    matches `RigidTransform.rotation_matrix` to the last bit in practice, and
    the registration takes the same optimizer path with either.
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


class RigidCost:
    """Symmetric bundle distance of a rigidly moved set to a static one, as a
    function of the 6 parameters (rotation degrees, translation mm) about the
    moving set's barycenter.

    Equals ``bundle_min_distance(RigidTransform(x[:3], x[3:], pivot).apply(
    moving), static)`` up to rounding.  What does not depend on the
    parameters is built once: the moving set centred on the pivot in a
    (K, n, 3) layout, the static side as an `MdfKernel`, and workspaces for
    the moved points, their augmented rows and the MDF matrix.  A call builds
    the rotation in closed form, rotates and translates into the workspace and
    runs the kernel.  Not safe to share between threads.
    """

    def __init__(self, moving: np.ndarray, static: np.ndarray):
        self.pivot = moving.reshape(-1, 3).mean(axis=0)
        self._centred = np.ascontiguousarray((moving - self.pivot).transpose(1, 0, 2))
        self._moved = np.empty_like(self._centred)
        self._rows = np.empty(self._centred.shape[:2] + (5,))
        self._kernel = MdfKernel(static, len(moving))
        self._mdf = np.empty((len(moving), len(static)))
        self.evaluations = 0

    def __call__(self, x: np.ndarray) -> float:
        self.evaluations += 1
        moved = np.matmul(self._centred, euler_xyz_matrix(x[0], x[1], x[2]).T, out=self._moved)
        moved += self.pivot
        moved += x[3:]
        d = self._kernel(augment(moved, self._rows), self._mdf)
        n, m = d.shape
        # sum / count is what mean() computes, without its per-call overhead
        return float(0.5 * (d.min(axis=1).sum() / n + d.min(axis=0).sum() / m))


def sbr_rigid(moving: np.ndarray, static: np.ndarray, config: RunConfig | None = None) -> RegistrationResult:
    """Rigid registration of a moving streamline set onto a static one.

    Minimizes the symmetric bundle distance over 6 parameters with two
    Nelder-Mead stages (coarse then fine initial simplex), each a run of
    `optimize.nelder_mead`, the optimizer the distribution fits use too, with
    at most ``max_cost_evaluations`` cost calls.  The pivot is the moving
    set's barycenter.  The cost is one `RigidCost` per call, so its static
    block and workspaces are built once per registration, not per evaluation,
    and never shared between threads.  Deterministic: fixed initial simplex,
    no randomness.  Never raises on optimizer failure; if no parameter set
    beats the initial cost the identity transform is returned with
    converged=False.

    The cost of a set against itself is not 0 but about 3e-8 mm, the
    rounding of the kernel's expansion at coincident points.  With a
    ``cost_tolerance_mm`` below that floor an already aligned pair is not
    returned at once, and both stages spend their whole budget on it.
    """
    cfg = config or RunConfig()
    moving = np.asarray(moving, dtype=np.float64)
    static = np.asarray(static, dtype=np.float64)
    if len(moving) == 0 or len(static) == 0:
        raise ValueError("registration needs non-empty streamline sets")
    if moving.shape[1:] != static.shape[1:]:
        raise ValueError("streamline sets must share the same (K, 3) shape")

    cost = RigidCost(moving, static)

    x0 = np.zeros(6)
    initial_cost = cost(x0)
    if initial_cost <= cfg.cost_tolerance_mm:
        return RegistrationResult(
            transform=RigidTransform.identity(),
            initial_cost_mm=initial_cost,
            final_cost_mm=initial_cost,
            iterations=cost.evaluations,
            converged=True,
        )

    stages = (
        (cfg.coarse_step_deg, cfg.coarse_step_mm),
        (cfg.fine_step_deg, cfg.fine_step_mm),
    )
    best_x = x0
    best_cost = initial_cost
    for step_deg, step_mm in stages:
        simplex = np.tile(best_x, (7, 1))
        steps = np.array([step_deg] * 3 + [step_mm] * 3)
        for i in range(6):
            simplex[i + 1, i] += steps[i]
        x, fun, _ = nelder_mead(cost, simplex, cfg.max_cost_evaluations,
                                xatol=1e-4, fatol=cfg.cost_tolerance_mm)
        if math.isfinite(fun) and fun < best_cost:
            best_cost = fun
            best_x = x

    if best_cost >= initial_cost:
        return RegistrationResult(
            transform=RigidTransform.identity(),
            initial_cost_mm=initial_cost,
            final_cost_mm=initial_cost,
            iterations=cost.evaluations,
            converged=False,
        )
    return RegistrationResult(
        transform=_params_to_transform(best_x, cost.pivot),
        initial_cost_mm=initial_cost,
        final_cost_mm=best_cost,
        iterations=cost.evaluations,
        converged=True,
    )


@dataclass(frozen=True)
class Neighborhood:
    bundle_id: str
    streamline_indices: np.ndarray
    center: np.ndarray
    radius_mm: float

    def __len__(self) -> int:
        return int(len(self.streamline_indices))


def extract_neighborhood(
    streamlines: np.ndarray,
    center,
    radius_mm: float,
    rule: str = "all",
    grid: StreamlineGrid | None = None,
    bundle_id: str = "",
) -> Neighborhood:
    """Streamlines of a tractogram contained in a sphere.

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
        indices = candidates
    else:
        d = np.linalg.norm(streamlines[candidates] - center, axis=2)
        inside = d.max(axis=1) <= radius_mm if rule == "all" else d.min(axis=1) <= radius_mm
        indices = candidates[inside]
    return Neighborhood(bundle_id=bundle_id, streamline_indices=indices,
                        center=center, radius_mm=float(radius_mm))


@dataclass(frozen=True)
class LocalRegistration:
    """Outcome of one bundle's local neighborhood registration."""

    registration: RegistrationResult
    neighborhood: Neighborhood
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
    bundle_id: str = "",
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
        rule=cfg.containment_rule, grid=atlas_grid, bundle_id=bundle_id,
    )
    subject_nbhd = extract_neighborhood(
        subject_streamlines, center, sphere_radius,
        rule=cfg.containment_rule, grid=subject_grid, bundle_id=bundle_id,
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
        quickbundles(atlas_streamlines[atlas_nbhd.streamline_indices], cfg.qb_threshold_local_mm)
    )
    subject_centroids = cluster_centroids(
        quickbundles(subject_streamlines[subject_nbhd.streamline_indices], cfg.qb_threshold_local_mm)
    )
    registration = sbr_rigid(subject_centroids, atlas_centroids, cfg)
    return LocalRegistration(
        registration=registration,
        neighborhood=subject_nbhd,
        atlas_neighborhood_size=len(atlas_nbhd),
        absent=False,
    )
