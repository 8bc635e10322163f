"""Subject labeling pipeline: global alignment onto the atlas, per-bundle
local registration, the six features of each candidate (`atlas.feature_table`
with the mmea to the model bundle), and threshold-interval decisions.

A bundle's candidates are decided together, one feature column at a time by
`FeatureInterval.contains`; a candidate is accepted where all six columns
pass, and its `LabelDecision` record is built from the columns afterwards.

Bundles are labeled one at a time, in atlas order, on the calling thread.
Each bundle reads only the immutable atlas and aligned subject arrays, so its
result does not depend on which bundles ran before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import AtlasModel, BundleModel, feature_table
from .clustering import Cluster, cluster_centroids, quickbundles
from .config import FEATURE_NAMES, RunConfig
from .distances import pairwise_mmea
from .registration import (
    LocalRegistration,
    RegistrationResult,
    apply_rigid,
    lsnr,
    sbr_rigid,
)
from .spatial import StreamlineGrid

# global SBR fits only the centroids of clusters with at least this many
# members, so singleton outliers neither pull the fit nor cost evaluations
GLOBAL_MIN_CLUSTER_SIZE = 2
# a rigid fit on one or two centroids is poorly constrained, so a side with
# fewer clusters of the minimum size registers all of its centroids; this
# also lets small scenes of a few bundles register
MIN_GLOBAL_CENTROIDS = 3


@dataclass(frozen=True)
class LabelDecision:
    """One candidate's six feature values against one bundle model and the
    outcome of each feature's interval test; accepted iff all passed."""

    streamline_index: int
    features: dict[str, float]
    passed: dict[str, bool]


@dataclass(frozen=True)
class BundleParcellation:
    bundle_id: str
    status: str                       # "recognized" | "absent"
    accepted_indices: np.ndarray      # ascending original subject indices
    decisions: tuple[LabelDecision, ...]
    local: LocalRegistration


@dataclass(frozen=True)
class GlobalCentroids:
    """Centroids the global registration used (kept) out of the QuickBundles
    centroids of each side (total)."""

    subject_kept: int
    subject_total: int
    atlas_kept: int
    atlas_total: int


@dataclass(frozen=True)
class ParcellationResult:
    bundles: tuple[BundleParcellation, ...]
    global_registration: RegistrationResult
    config: RunConfig
    subject_count: int
    global_centroids: GlobalCentroids

    def bundle_map(self) -> dict[str, BundleParcellation]:
        return {b.bundle_id: b for b in self.bundles}

    def label_map(self) -> dict[int, tuple[str, ...]]:
        """Subject index -> accepted bundle ids, in atlas order (multi-label)."""
        labels: dict[int, list[str]] = {}
        for b in self.bundles:
            for i in b.accepted_indices:
                labels.setdefault(int(i), []).append(b.bundle_id)
        return {i: tuple(v) for i, v in labels.items()}


def parcellate_bundle(
    model: BundleModel,
    subject_streamlines: np.ndarray,
    atlas_streamlines: np.ndarray,
    config: RunConfig | None = None,
    subject_grid: StreamlineGrid | None = None,
    atlas_grid: StreamlineGrid | None = None,
) -> BundleParcellation:
    """Label one bundle: local registration, then per-candidate decisions.

    `subject_streamlines` must already be globally aligned to the atlas.
    Candidates are the streamlines of the bundle's sphere neighborhood,
    moved by the local transform before feature computation.
    """
    cfg = config or RunConfig()
    local = lsnr(
        model.barycenter, model.radius_mm,
        atlas_streamlines, subject_streamlines,
        config=cfg, atlas_grid=atlas_grid, subject_grid=subject_grid,
    )
    if local.absent:
        return BundleParcellation(
            bundle_id=model.id,
            status="absent",
            accepted_indices=np.empty(0, dtype=np.int64),
            decisions=(),
            local=local,
        )
    indices = local.neighborhood
    candidates = apply_rigid(local.registration.transform, subject_streamlines[indices])
    nearest = pairwise_mmea(candidates, model.bundle.streamlines).min(axis=1)
    values, degenerate = feature_table(candidates, nearest, model)

    # a feature passes where its value lies in the closed interval or is
    # degenerate; it passes everywhere when `cfg.features` leaves it out or
    # the model's interval carries no information
    passed = {}
    for f in FEATURE_NAMES:
        interval = model.thresholds[f]
        if f in cfg.features and interval.informative:
            passed[f] = degenerate[f] | interval.contains(values[f])
        else:
            passed[f] = np.ones(len(indices), dtype=bool)
    accepted = np.logical_and.reduce([passed[f] for f in FEATURE_NAMES])

    value_rows = zip(*(values[f].tolist() for f in FEATURE_NAMES))
    passed_rows = zip(*(passed[f].tolist() for f in FEATURE_NAMES))
    decisions = tuple(
        LabelDecision(idx, dict(zip(FEATURE_NAMES, v)), dict(zip(FEATURE_NAMES, p)))
        for idx, v, p in zip(indices.tolist(), value_rows, passed_rows))
    return BundleParcellation(
        bundle_id=model.id,
        status="recognized",
        accepted_indices=indices[accepted],
        decisions=decisions,
        local=local,
    )


def registration_clusters(clusters: list[Cluster]) -> list[Cluster]:
    """The clusters of at least GLOBAL_MIN_CLUSTER_SIZE members, in their
    order; all of them when fewer than MIN_GLOBAL_CENTROIDS reach that size."""
    kept = [c for c in clusters if c.count >= GLOBAL_MIN_CLUSTER_SIZE]
    return kept if len(kept) >= MIN_GLOBAL_CENTROIDS else clusters


def global_align(
    atlas: AtlasModel,
    subject_streamlines: np.ndarray,
    config: RunConfig | None = None,
) -> tuple[np.ndarray, RegistrationResult, GlobalCentroids]:
    """Rigidly register the subject onto the atlas via centroid reductions.

    As in whole-brain streamline linear registration, only the centroids of
    clusters with at least GLOBAL_MIN_CLUSTER_SIZE members enter the cost;
    the transform moves every subject streamline.
    """
    cfg = config or RunConfig()
    atlas_clusters = quickbundles(atlas.all_streamlines(), cfg.qb_threshold_global_mm)
    subject_clusters = quickbundles(subject_streamlines, cfg.qb_threshold_global_mm)
    atlas_kept = registration_clusters(atlas_clusters)
    subject_kept = registration_clusters(subject_clusters)
    registration = sbr_rigid(cluster_centroids(subject_kept), cluster_centroids(atlas_kept))
    aligned = apply_rigid(registration.transform, subject_streamlines)
    sizes = GlobalCentroids(len(subject_kept), len(subject_clusters),
                            len(atlas_kept), len(atlas_clusters))
    return aligned, registration, sizes


def _winner_take_all(bundles: list[BundleParcellation]) -> list[BundleParcellation]:
    """Keep each multiply-accepted streamline only in its closest bundle.

    Closest = smallest mmea feature value; ties go to the earlier bundle in
    atlas order.  Decisions are left untouched (they record the raw tests).
    """
    best: dict[int, tuple[float, int]] = {}
    for order, b in enumerate(bundles):
        mmea_of = {d.streamline_index: d.features["mmea_mm"] for d in b.decisions}
        for idx in b.accepted_indices:
            key = (mmea_of[int(idx)], order)
            if int(idx) not in best or key < best[int(idx)]:
                best[int(idx)] = key
    out = []
    for order, b in enumerate(bundles):
        keep = np.asarray(
            [i for i in b.accepted_indices if best[int(i)][1] == order],
            dtype=np.int64,
        )
        out.append(BundleParcellation(
            bundle_id=b.bundle_id, status=b.status,
            accepted_indices=keep, decisions=b.decisions, local=b.local,
        ))
    return out


def parcellate(
    atlas: AtlasModel,
    subject_streamlines: np.ndarray,
    config: RunConfig | None = None,
) -> ParcellationResult:
    """Full projection: global registration, then every bundle independently,
    in atlas order."""
    cfg = config or RunConfig()
    subject_streamlines = np.asarray(subject_streamlines, dtype=np.float64)
    if len(subject_streamlines) == 0:
        raise ValueError("empty subject tractogram")

    aligned, global_reg, global_centroids = global_align(atlas, subject_streamlines, cfg)
    atlas_all = atlas.all_streamlines()
    atlas_grid = StreamlineGrid(atlas_all)
    subject_grid = StreamlineGrid(aligned)

    results = [parcellate_bundle(model, aligned, atlas_all, cfg,
                                 subject_grid=subject_grid, atlas_grid=atlas_grid)
               for model in atlas.bundles]
    if cfg.winner_take_all:
        results = _winner_take_all(results)
    return ParcellationResult(
        bundles=tuple(results),
        global_registration=global_reg,
        config=cfg,
        subject_count=len(subject_streamlines),
        global_centroids=global_centroids,
    )
