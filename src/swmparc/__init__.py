"""Geometry-based parcellation of superficial white matter tractograms.

Pipeline: resample streamlines to a fixed point count, analyze atlas bundles
into six-feature decile thresholds, register a subject globally and per
bundle neighborhood, then label subject streamlines by threshold intervals.
"""

from .atlas import (
    AtlasModel,
    BundleModel,
    FeatureInterval,
    build_atlas,
    build_bundle_model,
    compute_feature_samples,
)
from .clustering import Cluster, cluster_centroids, quickbundles
from .config import FEATURE_NAMES, RunConfig
from .distances import bundle_min_distance, mdf, mmea, pairwise_mdf, pairwise_mmea
from .fitting import FittedDistribution, fit_family, select_best
from .geometry import (
    Bundle,
    bundle_barycenter,
    bundle_radius,
    resample,
    resample_all,
)
from .metrics import (
    BundleScore,
    bundle_adjacency,
    confusion_scores,
    coverage,
    overlap,
    pbe,
    spb,
)
from .parcellation import (
    LabelDecision,
    ParcellationResult,
    parcellate,
    parcellate_bundle,
)
from .registration import (
    RegistrationResult,
    RigidTransform,
    apply_rigid,
    extract_neighborhood,
    lsnr,
    sbr_rigid,
)
from .serialization import (
    apply_affine,
    read_affine,
    read_atlas,
    read_result,
    read_truth,
    write_atlas,
    write_result,
    write_truth,
)
from .synth import ArcSpec, Scene, SceneSpec, generate_bundle, generate_scene
from .tckio import TrackFileError, read_tck, write_tck

__version__ = "0.1.0"

__all__ = [
    "ArcSpec",
    "AtlasModel",
    "Bundle",
    "BundleModel",
    "BundleScore",
    "Cluster",
    "FEATURE_NAMES",
    "FeatureInterval",
    "FittedDistribution",
    "LabelDecision",
    "ParcellationResult",
    "RegistrationResult",
    "RigidTransform",
    "RunConfig",
    "Scene",
    "SceneSpec",
    "TrackFileError",
    "apply_affine",
    "apply_rigid",
    "build_atlas",
    "build_bundle_model",
    "bundle_adjacency",
    "bundle_barycenter",
    "bundle_min_distance",
    "bundle_radius",
    "cluster_centroids",
    "compute_feature_samples",
    "confusion_scores",
    "coverage",
    "extract_neighborhood",
    "fit_family",
    "generate_bundle",
    "generate_scene",
    "lsnr",
    "mdf",
    "mmea",
    "overlap",
    "pairwise_mdf",
    "pairwise_mmea",
    "parcellate",
    "parcellate_bundle",
    "pbe",
    "quickbundles",
    "read_affine",
    "read_atlas",
    "read_result",
    "read_tck",
    "read_truth",
    "resample",
    "resample_all",
    "sbr_rigid",
    "select_best",
    "spb",
    "write_atlas",
    "write_result",
    "write_tck",
    "write_truth",
]
