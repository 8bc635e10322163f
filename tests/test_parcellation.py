import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import swmparc.parcellation as parcellation
from swmparc.atlas import AtlasModel, build_atlas, build_bundle_model
from swmparc.clustering import Cluster, cluster_centroids, quickbundles
from swmparc.config import FEATURE_NAMES, RunConfig
from swmparc.geometry import Bundle, bundle_barycenter, bundle_radius
from swmparc.parcellation import (
    GLOBAL_MIN_CLUSTER_SIZE,
    MIN_GLOBAL_CENTROIDS,
    GlobalCentroids,
    LabelDecision,
    compute_features,
    global_align,
    label_streamline,
    parcellate,
    parcellate_bundle,
    registration_clusters,
)
from swmparc.registration import RigidTransform, apply_rigid, sbr_rigid
from swmparc.synth import (
    ArcSpec,
    ambiguous_pair_spec,
    generate_bundle,
    generate_distractors,
    generate_scene,
    random_scene_spec,
)

from test_clustering import reference_quickbundles


def arc_bundle(bundle_id="b", seed=0, count=40, center=(0.0, 0.0, 0.0)):
    spec = ArcSpec(bundle_id, center, 10.0, 170.0, (20.0, 40.0), 0.5, count, seed)
    return generate_bundle(spec)


@pytest.fixture(scope="module")
def model():
    return build_bundle_model(arc_bundle())


def test_decision_invariant_enforced():
    with pytest.raises(ValueError):
        LabelDecision(0, "b", {}, {"length_mm": False}, accepted=True)
    d = LabelDecision(0, "b", {}, {"length_mm": False}, accepted=False)
    assert not d.accepted


def test_member_features_pass_their_own_model(model):
    arr = model.bundle.streamlines
    hits = 0
    for i in range(len(arr)):
        fv, flagged = compute_features(arr[i], model)
        assert not flagged
        # an atlas member has an identical twin in the bundle
        assert fv["mmea_mm"] == pytest.approx(0.0, abs=1e-5)
        decision = label_streamline(fv, model, i)
        hits += decision.accepted
    assert hits / len(arr) > 0.4


def test_feature_vector_is_complete(model):
    fv, _ = compute_features(model.bundle.streamlines[0], model)
    assert set(fv) == set(FEATURE_NAMES)
    assert all(np.isfinite(v) for v in fv.values())


def test_label_streamline_interval_logic(model):
    fv = {f: 0.5 * (model.thresholds[f].low + model.thresholds[f].high)
          for f in FEATURE_NAMES}
    assert label_streamline(fv, model).accepted
    bad = dict(fv)
    bad["length_mm"] = model.thresholds["length_mm"].high + 1.0
    d = label_streamline(bad, model)
    assert not d.accepted
    assert d.passed["length_mm"] is False
    assert all(d.passed[f] for f in FEATURE_NAMES if f != "length_mm")


def test_feature_subset_auto_passes(model):
    fv = {f: -1e9 for f in FEATURE_NAMES}  # fails every informative interval
    only_len = label_streamline(fv, model, features=("length_mm",))
    assert set(only_len.auto_passed) >= set(FEATURE_NAMES) - {"length_mm"}
    assert not only_len.accepted  # length still fails
    fv["length_mm"] = 0.5 * (model.thresholds["length_mm"].low
                             + model.thresholds["length_mm"].high)
    assert label_streamline(fv, model, features=("length_mm",)).accepted


def test_degenerate_candidate_feature_auto_passes(model):
    fv = {f: 0.5 * (model.thresholds[f].low + model.thresholds[f].high)
          for f in FEATURE_NAMES}
    fv["plane_angle_deg"] = float("nan")
    d = label_streamline(fv, model, degenerate=("plane_angle_deg",))
    assert d.accepted
    assert "plane_angle_deg" in d.auto_passed


def test_parcellate_bundle_accepts_own_streamlines(model):
    arr = model.bundle.streamlines
    out = parcellate_bundle(model, arr, arr, RunConfig())
    assert out.status == "recognized"
    assert len(out.decisions) == len(arr)
    assert len(out.accepted_indices) / len(arr) >= 0.4
    assert np.all(np.diff(out.accepted_indices) > 0)


def test_parcellate_bundle_absent_when_no_candidates(model):
    arr = model.bundle.streamlines
    far = arr + 10_000.0
    out = parcellate_bundle(model, far, arr, RunConfig())
    assert out.status == "absent"
    assert out.decisions == ()
    assert out.accepted_indices.size == 0


def two_bundle_atlas():
    b1 = arc_bundle("left", seed=1)
    b2 = arc_bundle("right", seed=2, center=(250.0, 0.0, 0.0))
    return build_atlas([b1, b2])


def test_parcellate_full_pipeline_self():
    atlas = two_bundle_atlas()
    subject = atlas.all_streamlines()
    result = parcellate(atlas, subject, RunConfig())
    assert result.subject_count == len(subject)
    assert [b.bundle_id for b in result.bundles] == ["left", "right"]
    for b, model in zip(result.bundles, atlas.bundles):
        assert b.status == "recognized"
        assert len(b.accepted_indices) > 0
    # left candidates come from the first half, right from the second
    assert set(result.bundles[0].accepted_indices) <= set(range(40))
    assert set(result.bundles[1].accepted_indices) <= set(range(40, 80))


def test_parcellate_repeats_identically():
    atlas = two_bundle_atlas()
    subject = atlas.all_streamlines()
    r1 = parcellate(atlas, subject, RunConfig())
    r2 = parcellate(atlas, subject, RunConfig())
    for a, b in zip(r1.bundles, r2.bundles):
        assert np.array_equal(a.accepted_indices, b.accepted_indices)
        assert a.decisions == b.decisions


def test_parcellate_rejects_empty_subject():
    atlas = two_bundle_atlas()
    with pytest.raises(ValueError, match="empty subject"):
        parcellate(atlas, np.empty((0, 21, 3)))


def test_global_align_recovers_whole_subject_shift():
    atlas = two_bundle_atlas()
    subject = atlas.all_streamlines()
    moved = apply_rigid(
        RigidTransform([3.0, -2.0, 4.0], [8.0, -5.0, 3.0],
                       subject.reshape(-1, 3).mean(axis=0)),
        subject,
    )
    aligned, reg, _ = global_align(atlas, moved, RunConfig())
    assert reg.converged
    assert np.linalg.norm(aligned - subject, axis=2).mean() < 1.0


def test_interval_widening_is_monotone(model):
    """Widening every interval can only add accepted streamlines."""
    arr = model.bundle.streamlines
    base = parcellate_bundle(model, arr, arr, RunConfig())
    import dataclasses

    from swmparc.atlas import FeatureInterval
    wide = {
        f: FeatureInterval(iv.low - 1.0, iv.high + 1.0, iv.source, iv.informative)
        for f, iv in model.thresholds.items()
    }
    wider_model = dataclasses.replace(model, thresholds=wide)
    grown = parcellate_bundle(wider_model, arr, arr, RunConfig())
    assert set(base.accepted_indices) <= set(grown.accepted_indices)


def test_winner_take_all_on_overlapping_twins():
    scene = generate_scene(ambiguous_pair_spec(seed=0))
    atlas = build_atlas(scene.atlas_bundles)
    subject = scene.subject

    multi = parcellate(atlas, subject, RunConfig())
    labels = multi.label_map()
    doubled = [i for i, ids in labels.items() if len(ids) > 1]
    assert doubled, "twin fixture should produce multi-labels"

    wta = parcellate(atlas, subject, RunConfig(winner_take_all=True))
    wta_labels = wta.label_map()
    assert all(len(ids) == 1 for ids in wta_labels.values())
    # nothing is lost, only deduplicated
    assert set(wta_labels) == set(labels)
    for i, ids in wta_labels.items():
        assert ids[0] in labels[i]
    # decisions keep the raw record of both acceptances
    for b_multi, b_wta in zip(multi.bundles, wta.bundles):
        assert b_multi.decisions == b_wta.decisions


def test_label_map_orders_by_atlas(model):
    atlas = two_bundle_atlas()
    subject = atlas.all_streamlines()
    result = parcellate(atlas, subject, RunConfig())
    for ids in result.label_map().values():
        assert list(ids) == sorted(ids, key=["left", "right"].index)


def test_labels_unchanged_when_subject_streamlines_reversed():
    # every distance in the method is flip-invariant (MDF and MMEA take the
    # better of both orientations, the features do not depend on the point
    # order), so reading each subject streamline backwards changes nothing
    spec = random_scene_spec(n_bundles=4, streamlines_per_bundle=30, distractor_count=150,
                             seed=11, global_rotation_deg=(4.0, -3.0, 6.0),
                             global_translation_mm=(7.0, -5.0, 3.0))
    scene = generate_scene(spec)
    atlas = build_atlas(scene.atlas_bundles)
    cfg = RunConfig()
    forward = parcellate(atlas, scene.subject, cfg)
    backward = parcellate(atlas, np.ascontiguousarray(scene.subject[:, ::-1]), cfg)
    labels = forward.label_map()
    assert all(len(b.accepted_indices) > 0 for b in forward.bundles)
    assert backward.label_map() == labels
    t, t_back = forward.global_registration.transform, backward.global_registration.transform
    assert t.rotation_deg.tobytes() == t_back.rotation_deg.tobytes()
    assert t.translation_mm.tobytes() == t_back.translation_mm.tobytes()


def clustered_scene(seed, rotation_deg=(4.0, -3.0, 6.0), translation_mm=(6.0, -4.0, 3.0),
                    noise_mm=0.0):
    """Four bundles, singleton distractors and clusters of 2-4 near-copies,
    all kept out of the bundle neighborhoods; one global rigid move."""
    spec = random_scene_spec(n_bundles=4, streamlines_per_bundle=30, distractor_count=60,
                             seed=seed, distractor_clearance_factor=6.5,
                             global_rotation_deg=tuple(rotation_deg),
                             global_translation_mm=tuple(translation_mm))
    scene = generate_scene(spec)
    rng = np.random.default_rng(seed)
    keep_out = [(bundle_barycenter(b.streamlines), 6.5 * bundle_radius(b.streamlines))
                for b in scene.atlas_bundles]
    seeds = generate_distractors(20, spec.extent_lo, spec.extent_hi, rng, keep_out=keep_out)
    copies = np.stack([line + rng.uniform(-0.5, 0.5, line.shape)
                       for line in seeds for _ in range(int(rng.integers(2, 5)))])
    subject = np.concatenate([scene.subject, apply_rigid(scene.global_transform, copies)])
    subject = subject + rng.normal(0.0, noise_mm, subject.shape)
    return build_atlas(scene.atlas_bundles), subject, scene.global_transform


def assert_same_registration(a, b):
    for name in ("rotation_deg", "translation_mm", "pivot"):
        assert getattr(a.transform, name).tobytes() == getattr(b.transform, name).tobytes()
    assert (a.initial_cost_mm, a.final_cost_mm, a.iterations, a.converged) == \
        (b.initial_cost_mm, b.final_cost_mm, b.iterations, b.converged)


def test_registration_clusters_keeps_large_clusters_in_order(monkeypatch):
    def cluster(size):
        return Cluster(np.zeros((3, 3)), list(range(size)), [False] * size)

    clusters = [cluster(n) for n in (1, 2, 1, 5, 3, 1)]
    assert GLOBAL_MIN_CLUSTER_SIZE == 2
    assert registration_clusters(clusters) == [clusters[1], clusters[3], clusters[4]]
    # fewer than MIN_GLOBAL_CENTROIDS reach the size: every centroid stays
    assert MIN_GLOBAL_CENTROIDS == 3
    assert registration_clusters(clusters[:3]) == clusters[:3]
    monkeypatch.setattr(parcellation, "GLOBAL_MIN_CLUSTER_SIZE", 3)
    assert registration_clusters(clusters) == clusters
    monkeypatch.setattr(parcellation, "GLOBAL_MIN_CLUSTER_SIZE", 1)
    assert registration_clusters(clusters) == clusters


@pytest.mark.parametrize("min_size", [1, 2])
def test_global_align_is_sbr_over_the_kept_centroids(min_size, monkeypatch):
    # size 1 keeps every centroid: the global stage before the size was set
    monkeypatch.setattr(parcellation, "GLOBAL_MIN_CLUSTER_SIZE", min_size)
    atlas, subject, _ = clustered_scene(seed=3)
    cfg = RunConfig()
    aligned, reg, sizes = global_align(atlas, subject, cfg)
    subject_all = quickbundles(subject, cfg.qb_threshold_global_mm)
    atlas_all = quickbundles(atlas.all_streamlines(), cfg.qb_threshold_global_mm)
    subject_kept = [c for c in subject_all if c.count >= min_size]
    atlas_kept = [c for c in atlas_all if c.count >= min_size]
    assert len(subject_kept) >= MIN_GLOBAL_CENTROIDS and len(atlas_kept) >= MIN_GLOBAL_CENTROIDS
    expected = sbr_rigid(cluster_centroids(subject_kept), cluster_centroids(atlas_kept))
    assert_same_registration(reg, expected)
    assert aligned.tobytes() == apply_rigid(reg.transform, subject).tobytes()
    assert sizes == GlobalCentroids(len(subject_kept), len(subject_all),
                                    len(atlas_kept), len(atlas_all))
    # only size 1 keeps every centroid
    assert (sizes.subject_kept == sizes.subject_total) == (min_size == 1)


def test_global_align_falls_back_to_all_centroids_of_singletons():
    atlas = two_bundle_atlas()
    # five different arcs 200 mm apart: five singleton clusters, none of two
    subject = np.stack([
        generate_bundle(ArcSpec(f"s{i}", (200.0 * i, 0.0, 0.0), 8.0 + i, 120.0 + 15 * i,
                                (30.0 * i, 20.0), 0.0, 1, i)).streamlines[0]
        for i in range(5)])
    cfg = RunConfig()
    aligned, reg, sizes = global_align(atlas, subject, cfg)
    assert sizes.subject_kept == sizes.subject_total == 5
    # every atlas cluster holds several members of a 40-streamline bundle
    assert sizes.atlas_kept == sizes.atlas_total
    every_centroid = sbr_rigid(
        cluster_centroids(quickbundles(subject, cfg.qb_threshold_global_mm)),
        cluster_centroids(quickbundles(atlas.all_streamlines(), cfg.qb_threshold_global_mm)))
    assert_same_registration(reg, every_centroid)
    assert np.all(np.isfinite(aligned))
    assert parcellate(atlas, subject, cfg).global_centroids == sizes


def test_global_align_unchanged_by_the_pruned_quickbundles(monkeypatch):
    # the full scan of every centroid, in place of the pruned one, must give
    # the same centroid counts and the same transform bits on a scene where
    # hundreds of singleton distractors are pruned
    spec = random_scene_spec(n_bundles=4, streamlines_per_bundle=30, distractor_count=320,
                             seed=11, global_rotation_deg=(4.0, -3.0, 6.0),
                             global_translation_mm=(6.0, -4.0, 3.0))
    scene = generate_scene(spec)
    atlas = build_atlas(scene.atlas_bundles)
    cfg = RunConfig()
    singletons = sum(c.count == 1 for c in quickbundles(scene.subject, cfg.qb_threshold_global_mm))
    assert singletons >= 300
    aligned, reg, sizes = global_align(atlas, scene.subject, cfg)
    monkeypatch.setattr(parcellation, "quickbundles", reference_quickbundles)
    aligned_full, reg_full, sizes_full = global_align(atlas, scene.subject, cfg)
    assert sizes == sizes_full
    assert_same_registration(reg, reg_full)
    assert aligned.tobytes() == aligned_full.tobytes()


def test_default_global_stage_recovers_rotation_among_distractors():
    # criterion-4 style: a rotation of 3-10 degrees about a random axis and a
    # 3-10 mm shift, on a noisy subject with singleton and clustered distractors
    rng = np.random.default_rng(44)
    for seed in (5, 6):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(3.0, 10.0)
        euler = Rotation.from_rotvec(np.radians(angle) * axis).as_euler("XYZ", degrees=True)
        shift = rng.standard_normal(3)
        shift *= rng.uniform(3.0, 10.0) / np.linalg.norm(shift)
        atlas, subject, truth = clustered_scene(seed, euler, shift, noise_mm=0.3)
        _, reg, sizes = global_align(atlas, subject, RunConfig())
        assert sizes.subject_kept < sizes.subject_total
        assert sizes.atlas_kept < sizes.atlas_total
        m = reg.transform.matrix() @ truth.matrix()
        cos = np.clip(0.5 * (np.trace(m[:3, :3]) - 1.0), -1.0, 1.0)
        assert math.degrees(math.acos(float(cos))) <= 0.5


MM_FEATURES = ("length_mm", "dist_to_barycenter_mm", "mmea_mm")


def assert_same_features(before, after, skip=()):
    (fv, flagged), (moved_fv, moved_flagged) = before, after
    assert moved_flagged == flagged
    for f in FEATURE_NAMES:
        if f in flagged:
            assert math.isnan(fv[f]) and math.isnan(moved_fv[f])
        elif f in MM_FEATURES:
            assert moved_fv[f] == pytest.approx(fv[f], rel=1e-9, abs=0.0), f
        elif f not in skip:
            assert moved_fv[f] == pytest.approx(fv[f], rel=0.0, abs=1e-7), f


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.tuples(*[st.floats(-180.0, 180.0)] * 3),
    st.tuples(*[st.floats(-50.0, 50.0)] * 3),
)
def test_features_invariant_under_one_rigid_motion(seed, angles, shift):
    # the points come from a generator seeded by hypothesis, so candidates
    # never coincide with bundle members (where the MMEA expansion rounds)
    rng = np.random.default_rng(seed)
    bundle = generate_bundle(ArcSpec(
        "b", tuple(rng.uniform(-40.0, 40.0, 3)), float(rng.uniform(8.0, 14.0)),
        float(rng.uniform(120.0, 220.0)), tuple(rng.uniform(0.0, 180.0, 2)), 0.5, 12,
        int(rng.integers(2 ** 31))))
    candidates = bundle.streamlines[:4] + rng.normal(0.0, 1.5, (4, 21, 3))
    motion = RigidTransform(angles, shift, rng.uniform(-20.0, 20.0, 3))

    # the features read no threshold, so the models skip the distribution fits
    empirical = RunConfig(threshold_source="empirical")
    model = build_bundle_model(bundle, empirical)
    moved_model = build_bundle_model(Bundle("b", apply_rigid(motion, bundle.streamlines)),
                                     empirical)
    for candidate in candidates:
        assert_same_features(compute_features(candidate, model),
                             compute_features(apply_rigid(motion, candidate), moved_model))

    # a straight line: its plane normal is degenerate before and after the
    # move, and its shape angle is 180 degrees to the same 1e-7 degrees
    line = np.linspace(0.0, 1.0, 21)[:, None] * rng.uniform(-30.0, 30.0, 3) + rng.uniform(-5, 5, 3)
    before = compute_features(line, model)
    after = compute_features(apply_rigid(motion, line), moved_model)
    assert "plane_angle_deg" in before[1]
    assert_same_features(before, after)
    assert before[0]["shape_angle_deg"] == pytest.approx(180.0, rel=0.0, abs=1e-7)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_bundles=st.integers(2, 3),
    distractors=st.integers(0, 8),
    angles=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
    shift=st.tuples(*[st.floats(-6.0, 6.0)] * 3),
)
def test_each_bundle_is_labeled_as_if_alone(seed, n_bundles, distractors, angles, shift):
    # bundles run one after another; none may leave state behind (a shared
    # cost workspace, say) that changes the next one's result
    scene = generate_scene(random_scene_spec(
        n_bundles=n_bundles, streamlines_per_bundle=15, distractor_count=distractors, seed=seed,
        global_rotation_deg=angles, global_translation_mm=shift))
    built = build_atlas(scene.atlas_bundles)
    cfg = RunConfig()
    for bundles in (built.bundles, built.bundles[::-1]):
        atlas = AtlasModel(bundles=bundles)
        result = parcellate(atlas, scene.subject, cfg)
        aligned, _, _ = global_align(atlas, scene.subject, cfg)
        assert [b.bundle_id for b in result.bundles] == [m.id for m in bundles]
        assert any(len(b.accepted_indices) for b in result.bundles)
        for b, model in zip(result.bundles, bundles):
            alone = parcellate_bundle(model, aligned, atlas.all_streamlines(), cfg)
            assert b.status == alone.status
            assert b.accepted_indices.tobytes() == alone.accepted_indices.tobytes()
            assert_same_registration(b.local.registration, alone.local.registration)
