"""Atlas analysis: per-bundle feature statistics, distribution fits, and
decile threshold intervals.

Every bundle gets a reference streamline (the flip-aligned mean of all its
members), and each member is described by six features computed against that
reference and the bundle barycenter.  `feature_table` is the one
implementation of the six features: atlas samples are its rows for the
bundle's own members and labeling calls it for subject candidates, so atlas
thresholds and subject features are directly comparable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import quickbundles
from .config import FEATURE_NAMES, RunConfig
from .distances import pairwise_mmea
from .fitting import FittedDistribution, select_best
from .geometry import (
    Bundle,
    angles_to_direction,
    angles_to_plane,
    arc_lengths,
    bundle_barycenter,
    bundle_radius,
    direction_vectors,
    midpoints,
    plane_normals,
    shape_angles,
)

# physically valid range per feature, used to clamp fitted thresholds
FEATURE_DOMAINS = {
    "length_mm": (0.0, math.inf),
    "dist_to_barycenter_mm": (0.0, math.inf),
    "mmea_mm": (0.0, math.inf),
    "plane_angle_deg": (0.0, 90.0),
    "direction_angle_deg": (0.0, 180.0),
    "shape_angle_deg": (0.0, 180.0),
}

_EMPIRICAL_WIDEN = 1e-3

# mmea scores closeness to the model bundle, and a candidate lying closer to
# the bundle than the atlas members lie to each other is evidence for
# membership, not against: an atlas member projected onto itself has mmea 0
# (its twin is in the bundle) yet must be retained.  Only the far decile
# rejects, so the interval floor is pinned to 0.
_LOWER_OPEN = ("mmea_mm",)


@dataclass(frozen=True)
class FeatureInterval:
    low: float
    high: float
    source: str           # "fitted" | "empirical"
    informative: bool = True

    def __post_init__(self):
        if self.informative and not self.low < self.high:
            raise ValueError("threshold interval must satisfy low < high")

    def contains(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.low) & (values <= self.high)


@dataclass(frozen=True)
class BundleModel:
    """An atlas bundle plus everything labeling needs: geometry summary,
    reference streamline, fitted feature intervals."""

    bundle: Bundle
    barycenter: np.ndarray
    radius_mm: float
    reference: np.ndarray
    reference_normal: np.ndarray
    reference_normal_degenerate: bool
    reference_direction: np.ndarray
    thresholds: dict[str, FeatureInterval]
    fits: dict[str, FittedDistribution | None]

    @property
    def id(self) -> str:
        return self.bundle.id


@dataclass(frozen=True)
class AtlasModel:
    """Bundle models of one K, the points per streamline of every bundle."""

    bundles: tuple[BundleModel, ...]

    def __post_init__(self):
        if not self.bundles:
            raise ValueError("atlas needs at least one bundle")
        ids = [m.id for m in self.bundles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bundle id")
        if len({m.bundle.streamlines.shape[1] for m in self.bundles}) != 1:
            raise ValueError("atlas bundles must share one number of points per streamline")

    @property
    def resample_k(self) -> int:
        return self.bundles[0].bundle.streamlines.shape[1]

    def bundle_map(self) -> dict[str, BundleModel]:
        return {m.id: m for m in self.bundles}

    def all_streamlines(self) -> np.ndarray:
        """Concatenated (N, K, 3) stack of every bundle's streamlines."""
        return np.concatenate([m.bundle.streamlines for m in self.bundles])


def reference_streamline(streamlines: np.ndarray) -> np.ndarray:
    """Single-cluster centroid of the bundle: flip-aligned running mean."""
    clusters = quickbundles(streamlines, threshold_mm=math.inf)
    return clusters[0].centroid


def feature_table(streamlines: np.ndarray, nearest_mmea: np.ndarray, model: BundleModel):
    """The six feature arrays of a batch plus per-row degenerate flags.

    `model` supplies the reference geometry (barycenter, reference normal and
    direction).  `nearest_mmea` is each row's mmea to its nearest streamline
    of the caller's choice: the other members for atlas samples, the model
    bundle for subject candidates.  A flagged plane angle is NaN.
    """
    n = len(streamlines)
    no_flag = np.zeros(n, dtype=bool)
    values = {
        "length_mm": arc_lengths(streamlines),
        "dist_to_barycenter_mm": np.linalg.norm(midpoints(streamlines) - model.barycenter, axis=1),
        "mmea_mm": nearest_mmea,
    }
    degenerate = {f: no_flag for f in values}
    if model.reference_normal_degenerate:
        values["plane_angle_deg"] = np.full(n, np.nan)
        degenerate["plane_angle_deg"] = np.ones(n, dtype=bool)
    else:
        normals, ndeg = plane_normals(streamlines)
        angles = angles_to_plane(normals, model.reference_normal)
        values["plane_angle_deg"] = np.where(ndeg, np.nan, angles)
        degenerate["plane_angle_deg"] = ndeg
    values["direction_angle_deg"], degenerate["direction_angle_deg"] = angles_to_direction(
        direction_vectors(streamlines), model.reference_direction)
    values["shape_angle_deg"], degenerate["shape_angle_deg"] = shape_angles(streamlines)
    return values, degenerate


def _reference_model(bundle: Bundle) -> BundleModel:
    """The bundle's reference geometry, as a model with no thresholds yet."""
    arr = bundle.streamlines
    if len(arr) < 2:
        raise ValueError("atlas bundle too small")
    reference = reference_streamline(arr)
    normal, normal_degenerate = plane_normals(reference[None])
    return BundleModel(
        bundle=bundle,
        barycenter=bundle_barycenter(arr),
        radius_mm=bundle_radius(arr),
        reference=reference,
        reference_normal=normal[0],
        reference_normal_degenerate=bool(normal_degenerate[0]),
        reference_direction=direction_vectors(reference[None])[0],
        thresholds={},
        fits={},
    )


def compute_feature_samples(bundle: Bundle,
                            model: BundleModel | None = None) -> dict[str, np.ndarray]:
    """Per-streamline feature arrays for an atlas bundle.

    `feature_table` of the members against the bundle's reference geometry
    (`model`, worked out from the bundle when None), with a leave-one-out
    nearest neighbor for mmea.  Degenerate values are dropped from the
    affected feature's sample set, so arrays may be shorter than the bundle.
    """
    if model is None:
        model = _reference_model(bundle)
    arr = bundle.streamlines
    d = pairwise_mmea(arr, arr)
    np.fill_diagonal(d, np.inf)
    values, degenerate = feature_table(arr, d.min(axis=1), model)
    return {f: values[f][~degenerate[f]] for f in FEATURE_NAMES}


def _empirical_interval(samples: np.ndarray, low_q: float, high_q: float) -> FeatureInterval:
    low = float(np.quantile(samples, low_q))
    high = float(np.quantile(samples, high_q))
    if high - low < 1e-9:
        low -= _EMPIRICAL_WIDEN
        high += _EMPIRICAL_WIDEN
    return FeatureInterval(low, high, "empirical")


def _uninformative_interval(feature: str) -> FeatureInterval:
    lo, hi = FEATURE_DOMAINS[feature]
    return FeatureInterval(lo, hi if math.isfinite(hi) else math.inf,
                           "empirical", informative=False)


def feature_interval(
    feature: str, samples: np.ndarray, fit: FittedDistribution | None,
    config: RunConfig | None = None,
) -> FeatureInterval:
    """Threshold interval for one feature from its sample array and the fit
    `build_atlas` made of it.

    The config's `decile_low` and `decile_high` quantiles of the fit when
    there is one and they make an interval; empirical quantiles otherwise.
    Features with fewer than 2 valid samples carry no information and get a
    full-domain auto-pass interval.
    """
    cfg = config or RunConfig()
    low_q, high_q = cfg.decile_low, cfg.decile_high
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < 2:
        return _uninformative_interval(feature)
    interval = None
    if fit is not None:
        dom_lo, dom_hi = FEATURE_DOMAINS[feature]
        low = max(fit.quantile(low_q), dom_lo)
        high = min(fit.quantile(high_q), dom_hi)
        if math.isfinite(low) and math.isfinite(high) and low < high:
            interval = FeatureInterval(low, high, "fitted")
    if interval is None:
        interval = _empirical_interval(samples, low_q, high_q)
    if feature in _LOWER_OPEN and interval.high > 0.0:
        return FeatureInterval(0.0, interval.high, interval.source)
    return interval


def build_bundle_model(bundle: Bundle, config: RunConfig | None = None) -> BundleModel:
    """Analyze one atlas bundle into a BundleModel: the one-bundle atlas's."""
    return build_atlas((bundle,), config).bundles[0]


def build_atlas(bundles, config: RunConfig | None = None) -> AtlasModel:
    """Build models for a full bundle set, their intervals set by one config's
    deciles, `threshold_source` and `min_fit_samples` (`RunConfig()` when
    None).

    With `threshold_source` "fitted", every feature sample set of at least
    `min_fit_samples` samples is fit, all of them in one `select_best` call,
    which fits each set as it would alone.  The atlas's K is the bundles'
    points per streamline, which must be the same for all of them;
    `config.resample_k` is read by whoever resamples the bundles, not here."""
    cfg = config or RunConfig()
    models = [_reference_model(b) for b in bundles]
    samples = [compute_feature_samples(m.bundle, m) for m in models]
    wanted = [(i, f) for i, s in enumerate(samples) for f in FEATURE_NAMES
              if cfg.threshold_source == "fitted" and len(s[f]) >= cfg.min_fit_samples]
    fits = dict(zip(wanted, select_best([samples[i][f] for i, f in wanted], cfg.min_fit_samples)))
    return AtlasModel(bundles=tuple(
        replace(m, fits={f: fits.get((i, f)) for f in FEATURE_NAMES},
                thresholds={f: feature_interval(f, s[f], fits.get((i, f)), cfg)
                            for f in FEATURE_NAMES})
        for i, (m, s) in enumerate(zip(models, samples))))
