"""Synthetic scene generator: arc-shaped bundles with controlled jitter,
distractor streamlines, and known ground-truth labels.

Arcs stand in for short association fibers: they bend around a virtual fold,
so every geometric feature (plane, direction, shape angle) is nontrivial and
has an analytic expectation.  Per-streamline jitter is driven by one shared
heavy-tailed magnitude that scales all parameter deviations together; a
streamline that is off in one feature tends to be off in the others, the way
outlier members of a real bundle are.

Draw-order contract: a bundle's generator, seeded with its spec's seed,
draws one standard-normal block of shape (count, 10 + 3k).  Row i holds
streamline i's draws in order: the magnitude z-score, the centre (3),
radius, span and phase deviations, the tilt rotation vector (3), and the
(k, 3) point noise.  A bundle of fewer streamlines from the same seed is
therefore a prefix of a larger one.  The whole bundle is then built in
array passes whose arithmetic matches, bit for bit, the per-streamline
formulas it replaced.  Distractors draw candidate by candidate; a candidate
is redrawn when, in one (spheres, k) distance array, some keep-out sphere
holds one of its points (the distance is not above the radius).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation

from .config import RunConfig
from .geometry import Bundle, bundle_barycenter, bundle_radius
from .registration import RigidTransform, apply_rigid

OUTLIER_LABEL = "outlier"

# relative weights of the jitter components, all scaled by jitter_mm
_POINT_NOISE = 0.15       # per-point sigma as a fraction of jitter_mm
_ANGULAR_GAIN = 2.0       # span/phase/tilt sigma = gain * jitter_mm / radius
_MAGNITUDE_SPREAD = 1.2   # log-sd of the shared per-streamline magnitude


@dataclass(frozen=True)
class ArcSpec:
    """One parametric arc bundle."""

    bundle_id: str
    center: tuple[float, float, float]
    radius_mm: float
    span_deg: float
    orientation_deg: tuple[float, float]   # rotation about z then y
    jitter_mm: float
    count: int
    seed: int

    def __post_init__(self):
        if not self.bundle_id:
            raise ValueError("invalid arc spec: empty bundle id")
        if self.radius_mm <= 0:
            raise ValueError("invalid arc spec: radius must be positive")
        if not 10.0 < self.span_deg < 350.0:
            raise ValueError("invalid arc spec: span must be in (10, 350) degrees")
        if self.count < 1:
            raise ValueError("invalid arc spec: count must be >= 1")
        if self.jitter_mm < 0:
            raise ValueError("invalid arc spec: jitter must be >= 0")

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "center": list(self.center),
            "radius_mm": self.radius_mm,
            "span_deg": self.span_deg,
            "orientation_deg": list(self.orientation_deg),
            "jitter_mm": self.jitter_mm,
            "count": self.count,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArcSpec":
        return cls(
            bundle_id=str(d["bundle_id"]),
            center=tuple(float(v) for v in d["center"]),
            radius_mm=float(d["radius_mm"]),
            span_deg=float(d["span_deg"]),
            orientation_deg=tuple(float(v) for v in d["orientation_deg"]),
            jitter_mm=float(d["jitter_mm"]),
            count=int(d["count"]),
            seed=int(d["seed"]),
        )


def generate_bundle(spec: ArcSpec, k: int = RunConfig.resample_k) -> Bundle:
    """Expand an arc spec into `count` jittered copies of the analytic arc."""
    rng = np.random.default_rng(spec.seed)
    frame = Rotation.from_euler(
        "ZY", [spec.orientation_deg[0], spec.orientation_deg[1]], degrees=True)
    center = np.asarray(spec.center, dtype=np.float64)
    span = math.radians(spec.span_deg)
    sigma = spec.jitter_mm
    angular_sd = _ANGULAR_GAIN * sigma / spec.radius_mm
    count = spec.count

    # row i: streamline i's z-score, centre (3), radius, span, phase and tilt
    # (3) deviations, then its (k, 3) point noise
    draws = rng.standard_normal((count, 10 + 3 * k))
    # one shared magnitude couples all deviation components; the z-score
    # is clipped so outliers stay heavy but bounded (unbounded tails
    # stretch feature histograms until distribution fits go to mush)
    z = np.clip(draws[:, 0], -2.0, 2.0)
    # math.exp per row: numpy's vectorized exp need not round the same way
    magnitude = np.array([math.exp(_MAGNITUDE_SPREAD * v) for v in z.tolist()])
    linear = sigma * magnitude
    angular = angular_sd * magnitude
    d_center = linear[:, None] * draws[:, 1:4]
    d_radius = linear * draws[:, 4]
    d_span = angular * draws[:, 5]
    d_phase = angular * draws[:, 6]
    tilt = Rotation.from_rotvec(angular[:, None] * draws[:, 7:10]).as_matrix()

    half = 0.5 * np.maximum(span + d_span, math.radians(5.0))
    theta = np.linspace(-half, half, k, axis=1) + d_phase[:, None]
    radius = np.maximum(spec.radius_mm + d_radius, 0.5)[:, None]
    local = np.zeros((count, k, 3))
    local[:, :, 0] = radius * np.cos(theta)
    local[:, :, 1] = radius * np.sin(theta)
    # v @ m.T is how Rotation.apply rotates points; m @ v gives other bits
    tilted = (local @ tilt.transpose(0, 2, 1)).reshape(count * k, 3)
    streamlines = np.empty((count, k, 3), dtype=np.float64)
    np.add((center + d_center)[:, None, :], frame.apply(tilted).reshape(count, k, 3),
           out=streamlines)
    streamlines += (_POINT_NOISE * sigma) * draws[:, 10:].reshape(count, k, 3)
    return Bundle(spec.bundle_id, streamlines)


@dataclass(frozen=True)
class SceneSpec:
    """A full synthetic experiment: bundles, distractors, perturbations."""

    bundles: tuple[ArcSpec, ...]
    distractor_count: int = 0
    extent_lo: tuple[float, float, float] = (-80.0, -80.0, -60.0)
    extent_hi: tuple[float, float, float] = (80.0, 80.0, 60.0)
    # > 0: distractors are redrawn until no point lies within
    # clearance_factor * bundle radius of any bundle barycenter, keeping the
    # junk out of the bundles' local neighborhoods but still in the subject.
    distractor_clearance_factor: float = 0.0
    global_rotation_deg: tuple[float, float, float] = (0.0, 0.0, 0.0)
    global_translation_mm: tuple[float, float, float] = (0.0, 0.0, 0.0)
    local_rotations_deg: dict = field(default_factory=dict)     # bundle id -> (3,)
    local_translations_mm: dict = field(default_factory=dict)   # bundle id -> (3,)
    seed: int = 0

    def __post_init__(self):
        ids = [b.bundle_id for b in self.bundles]
        if len(set(ids)) != len(ids):
            raise ValueError("overlapping bundle ids in scene spec")
        if self.distractor_count < 0:
            raise ValueError("distractor count must be >= 0")
        if self.distractor_clearance_factor < 0:
            raise ValueError("distractor clearance factor must be >= 0")
        for key in list(self.local_rotations_deg) + list(self.local_translations_mm):
            if key not in ids:
                raise ValueError(f"local perturbation for unknown bundle {key!r}")

    def to_dict(self) -> dict:
        return {
            "bundles": [b.to_dict() for b in self.bundles],
            "distractor_count": self.distractor_count,
            "extent_lo": list(self.extent_lo),
            "extent_hi": list(self.extent_hi),
            "distractor_clearance_factor": self.distractor_clearance_factor,
            "global_rotation_deg": list(self.global_rotation_deg),
            "global_translation_mm": list(self.global_translation_mm),
            "local_rotations_deg": {k: list(v) for k, v in self.local_rotations_deg.items()},
            "local_translations_mm": {k: list(v) for k, v in self.local_translations_mm.items()},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        known = {
            "bundles", "distractor_count", "extent_lo", "extent_hi",
            "distractor_clearance_factor",
            "global_rotation_deg", "global_translation_mm",
            "local_rotations_deg", "local_translations_mm", "seed",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown scene spec fields: {sorted(unknown)}")
        return cls(
            bundles=tuple(ArcSpec.from_dict(b) for b in d["bundles"]),
            distractor_count=int(d.get("distractor_count", 0)),
            extent_lo=tuple(float(v) for v in d.get("extent_lo", (-80.0, -80.0, -60.0))),
            extent_hi=tuple(float(v) for v in d.get("extent_hi", (80.0, 80.0, 60.0))),
            distractor_clearance_factor=float(d.get("distractor_clearance_factor", 0.0)),
            global_rotation_deg=tuple(float(v) for v in d.get("global_rotation_deg", (0.0, 0.0, 0.0))),
            global_translation_mm=tuple(float(v) for v in d.get("global_translation_mm", (0.0, 0.0, 0.0))),
            local_rotations_deg={str(k): tuple(float(x) for x in v)
                                 for k, v in d.get("local_rotations_deg", {}).items()},
            local_translations_mm={str(k): tuple(float(x) for x in v)
                                   for k, v in d.get("local_translations_mm", {}).items()},
            seed=int(d.get("seed", 0)),
        )


def generate_distractors(count: int, lo, hi, rng: np.random.Generator,
                         k: int = RunConfig.resample_k,
                         keep_out: list | None = None) -> np.ndarray:
    """Random low-curvature polylines spread over a box.

    keep_out is an optional list of (center, radius) spheres; a candidate with
    a point within a radius of its sphere's center is redrawn.  Draw order
    is fixed, so results are deterministic for a given generator state.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    spheres = keep_out or []
    centers = np.array([c for c, _ in spheres], dtype=np.float64).reshape(-1, 1, 3)
    radii = np.array([r for _, r in spheres], dtype=np.float64)
    out = np.empty((count, k, 3), dtype=np.float64)
    t = np.linspace(-0.5, 0.5, k)[:, None]
    for i in range(count):
        for _ in range(1000):
            start = rng.uniform(lo, hi)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(3)
            v -= (v @ u) * u
            v /= np.linalg.norm(v)
            length = rng.uniform(30.0, 90.0)
            bend = rng.uniform(0.0, 0.25)
            line = start + length * t * u + bend * length * (t ** 2 - 1.0 / 12.0) * v
            if (np.linalg.norm(line - centers, axis=2).min(axis=1) > radii).all():
                out[i] = line
                break
        else:
            raise ValueError("distractor keep-out spheres leave no room in the extent box")
    return out


@dataclass(frozen=True)
class Scene:
    atlas_bundles: tuple[Bundle, ...]
    subject: np.ndarray                  # (N, K, 3)
    truth_labels: tuple[str, ...]        # per subject streamline
    global_transform: RigidTransform
    local_transforms: dict

    def truth_indices(self, bundle_id: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.truth_labels) == bundle_id)


def generate_scene(spec: SceneSpec, k: int = RunConfig.resample_k) -> Scene:
    """Expand a scene spec deterministically.

    The subject is built from perturbed copies of the atlas streamlines
    (per-bundle local rigid moves, then one global rigid move over
    everything) plus distractors; truth records each subject streamline's
    source bundle or the outlier label.
    """
    atlas_bundles = tuple(generate_bundle(b, k) for b in spec.bundles)

    parts = []
    labels: list[str] = []
    local_transforms: dict[str, RigidTransform] = {}
    for bundle in atlas_bundles:
        copy = bundle.streamlines.copy()
        rot = spec.local_rotations_deg.get(bundle.id, (0.0, 0.0, 0.0))
        trans = spec.local_translations_mm.get(bundle.id, (0.0, 0.0, 0.0))
        local = RigidTransform(
            rotation_deg=np.asarray(rot, dtype=np.float64),
            translation_mm=np.asarray(trans, dtype=np.float64),
            pivot=bundle_barycenter(copy),
        )
        local_transforms[bundle.id] = local
        if not local.is_identity():
            copy = apply_rigid(local, copy)
        parts.append(copy)
        labels.extend([bundle.id] * len(copy))

    if spec.distractor_count > 0:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
        keep_out = None
        if spec.distractor_clearance_factor > 0:
            keep_out = [
                (bundle_barycenter(b.streamlines),
                 spec.distractor_clearance_factor * bundle_radius(b.streamlines))
                for b in atlas_bundles
            ]
        parts.append(generate_distractors(
            spec.distractor_count, spec.extent_lo, spec.extent_hi, rng, k,
            keep_out=keep_out))
        labels.extend([OUTLIER_LABEL] * spec.distractor_count)

    subject = np.concatenate(parts) if parts else np.empty((0, k, 3))
    pivot = subject.reshape(-1, 3).mean(axis=0) if len(subject) else np.zeros(3)
    global_transform = RigidTransform(
        rotation_deg=np.asarray(spec.global_rotation_deg, dtype=np.float64),
        translation_mm=np.asarray(spec.global_translation_mm, dtype=np.float64),
        pivot=pivot,
    )
    if not global_transform.is_identity():
        subject = apply_rigid(global_transform, subject)
    return Scene(
        atlas_bundles=atlas_bundles,
        subject=subject,
        truth_labels=tuple(labels),
        global_transform=global_transform,
        local_transforms=local_transforms,
    )


def random_scene_spec(
    n_bundles: int = 20,
    streamlines_per_bundle: int = 50,
    jitter_mm: float = 0.5,
    distractor_count: int = 200,
    seed: int = 0,
    **scene_kwargs,
) -> SceneSpec:
    """Well-separated random arc bundles on a jittered 3D grid.

    Grid spacing keeps bundle neighborhoods from swallowing each other, so
    every bundle is individually recoverable; distractors still cross them.
    """
    rng = np.random.default_rng(seed)
    # spacing > 7x the largest bundle radius keeps every 6 r_b neighborhood
    # sphere clear of other bundles, so local registration sees one bundle
    spacing = 200.0
    cells = []
    side = max(2, math.ceil(n_bundles ** (1.0 / 3.0)))
    for ix in range(side + 1):
        for iy in range(side + 1):
            for iz in range(side):
                cells.append((ix, iy, iz))
    order = rng.permutation(len(cells))
    arcs = []
    for b in range(n_bundles):
        ix, iy, iz = cells[order[b]]
        center = (np.array([ix, iy, iz], dtype=np.float64) - (side - 1) / 2.0) * spacing
        center = center + rng.uniform(-6.0, 6.0, 3)
        arcs.append(ArcSpec(
            bundle_id=f"bundle_{b:03d}",
            center=tuple(center),
            radius_mm=float(rng.uniform(8.0, 12.0)),
            span_deg=float(rng.uniform(130.0, 220.0)),
            orientation_deg=(float(rng.uniform(0.0, 360.0)), float(rng.uniform(0.0, 180.0))),
            jitter_mm=jitter_mm,
            count=streamlines_per_bundle,
            seed=int(rng.integers(0, 2 ** 31)),
        ))
    # box wide enough that the keep-out spheres leave room for distractors
    half = (side + 1) / 2.0 * spacing * 1.6
    return SceneSpec(
        bundles=tuple(arcs),
        distractor_count=distractor_count,
        extent_lo=scene_kwargs.pop("extent_lo", (-half,) * 3),
        extent_hi=scene_kwargs.pop("extent_hi", (half,) * 3),
        distractor_clearance_factor=scene_kwargs.pop("distractor_clearance_factor", 6.5),
        seed=seed,
        **scene_kwargs,
    )


def ambiguous_pair_spec(
    seed: int = 0,
    offset_mm: float = 1.5,
    jitter_mm: float = 0.5,
    count: int = 50,
) -> SceneSpec:
    """Two geometrically similar bundles that overlap in space, for testing
    multi-label behavior and the winner-take-all tie-break."""
    base = dict(radius_mm=10.0, span_deg=180.0, orientation_deg=(30.0, 45.0),
                jitter_mm=jitter_mm, count=count)
    a = ArcSpec(bundle_id="twin_a", center=(0.0, 0.0, 0.0), seed=seed, **base)
    b = ArcSpec(bundle_id="twin_b", center=(offset_mm, 0.0, 0.0), seed=seed + 1, **base)
    return SceneSpec(bundles=(a, b), distractor_count=0, seed=seed)
