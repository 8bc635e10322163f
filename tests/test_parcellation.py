import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import swmparc.parcellation as parcellation
from swmparc.atlas import (
    AtlasModel,
    FeatureInterval,
    build_atlas,
    build_bundle_model,
    feature_table,
)
from swmparc.clustering import Cluster, cluster_centroids, quickbundles
from swmparc.config import FEATURE_NAMES, RunConfig
from swmparc.distances import pairwise_mmea
from swmparc.geometry import Bundle, bundle_barycenter, bundle_radius
from swmparc.parcellation import (
    GLOBAL_MIN_CLUSTER_SIZE,
    MIN_GLOBAL_CENTROIDS,
    GlobalCentroids,
    global_align,
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


def with_intervals(model, thresholds):
    """The model with its intervals replaced by `thresholds` where given.  The
    local registration reads no interval, so labeling with it sees the same
    candidate values."""
    return dataclasses.replace(model, thresholds={**model.thresholds, **thresholds})


def own_members(model, thresholds=None, **config):
    """`parcellate_bundle` of the model's own members against `with_intervals`."""
    arr = model.bundle.streamlines
    return parcellate_bundle(with_intervals(model, thresholds or {}), arr, arr,
                             RunConfig(**config))


def around(value, width=1.0):
    return FeatureInterval(value - width, value + width, "empirical")


EXCLUDES_ALL = FeatureInterval(-2.0, -1.0, "empirical")  # no feature value is negative


def test_member_features_pass_their_own_model(model):
    arr = model.bundle.streamlines
    out = own_members(model)
    assert [d.streamline_index for d in out.decisions] == list(range(len(arr)))
    for d in out.decisions:
        assert all(np.isfinite(v) for v in d.features.values())  # nothing degenerate
        # an atlas member has an identical twin in the bundle
        assert d.features["mmea_mm"] == pytest.approx(0.0, abs=1e-5)
    assert len(out.accepted_indices) / len(arr) > 0.4


def test_feature_vector_is_complete(model):
    d = own_members(model).decisions[0]
    assert list(d.features) == list(d.passed) == list(FEATURE_NAMES)
    assert all(np.isfinite(v) for v in d.features.values())


def test_candidate_interval_logic(model):
    first = own_members(model).decisions[0]
    i, values = first.streamline_index, first.features
    fit = {f: around(v) for f, v in values.items()}
    out = own_members(model, fit)
    assert out.decisions[0].passed == {f: True for f in FEATURE_NAMES}
    assert i in out.accepted_indices
    # a length above its interval fails that test only
    too_long = {**fit, "length_mm": FeatureInterval(values["length_mm"] - 2.0,
                                                    values["length_mm"] - 1.0, "empirical")}
    out = own_members(model, too_long)
    d = out.decisions[0]
    assert d.passed["length_mm"] is False
    assert all(d.passed[f] for f in FEATURE_NAMES if f != "length_mm")
    assert i not in out.accepted_indices


def test_feature_subset_auto_passes(model):
    fails_all = {f: EXCLUDES_ALL for f in FEATURE_NAMES}
    out = own_members(model, fails_all)
    assert out.accepted_indices.size == 0
    assert not any(any(d.passed.values()) for d in out.decisions)
    only_len = own_members(model, fails_all, features=("length_mm",))
    assert only_len.accepted_indices.size == 0  # length still fails
    for d in only_len.decisions:
        assert d.passed == {f: f != "length_mm" for f in FEATURE_NAMES}
    first = only_len.decisions[0]
    fits_len = {**fails_all, "length_mm": around(first.features["length_mm"])}
    assert first.streamline_index in own_members(
        model, fits_len, features=("length_mm",)).accepted_indices
    # an interval that carries no information passes every value as well
    no_info = {f: FeatureInterval(-2.0, -1.0, "empirical", informative=False)
               for f in FEATURE_NAMES}
    assert len(own_members(model, no_info).accepted_indices) == len(model.bundle.streamlines)


def test_degenerate_candidate_feature_auto_passes(model):
    # a straight chord of a member lies inside the bundle's sphere; its plane
    # normal (and its direction) are degenerate, so those values are NaN and
    # pass any interval
    arr = model.bundle.streamlines
    chord = np.linspace(arr[0, 0], arr[0, -1], arr.shape[1])
    subject = np.concatenate([arr, chord[None]])
    line = len(arr)

    def run(thresholds):
        return parcellate_bundle(with_intervals(model, thresholds), subject, arr, RunConfig())

    last = run({}).decisions[-1]  # decisions are in ascending subject order
    assert last.streamline_index == line
    degenerate = [f for f, v in last.features.items() if math.isnan(v)]
    assert "plane_angle_deg" in degenerate
    fit = {f: EXCLUDES_ALL if f in degenerate else around(v) for f, v in last.features.items()}
    out = run(fit)
    assert out.decisions[-1].passed == {f: True for f in FEATURE_NAMES}
    assert list(out.accepted_indices) == [line]


@pytest.mark.parametrize("seed", [21, 22])
def test_accepted_are_the_decisions_that_pass_all_tests(seed):
    # a bench-like scene: four bundles among 150 distractors, one global move
    scene = generate_scene(random_scene_spec(
        n_bundles=4, streamlines_per_bundle=30, distractor_count=150, seed=seed,
        global_rotation_deg=(4.0, -3.0, 6.0), global_translation_mm=(7.0, -5.0, 3.0)))
    atlas = build_atlas(scene.atlas_bundles)
    for features in (FEATURE_NAMES, ("length_mm", "mmea_mm")):
        result = parcellate(atlas, scene.subject, RunConfig(features=features))
        outcomes = set()
        for b, model in zip(result.bundles, atlas.bundles):
            passing = [d.streamline_index for d in b.decisions if all(d.passed.values())]
            assert b.accepted_indices.tolist() == passing
            for d in b.decisions:
                outcomes.add(all(d.passed.values()))
                for f, v in d.features.items():
                    interval = model.thresholds[f]
                    tested = f in features and interval.informative and not math.isnan(v)
                    assert d.passed[f] == (not tested or interval.low <= v <= interval.high)
        assert outcomes == {True, False}

    # a value equal to an interval's low or high end passes
    cfg = RunConfig()
    aligned, _, _ = global_align(atlas, scene.subject, cfg)
    model = atlas.bundles[0]
    first = parcellate_bundle(model, aligned, atlas.all_streamlines(), cfg).decisions[0]
    ends = {f: FeatureInterval(v, v + 1.0, "empirical") if j % 2 else
            FeatureInterval(v - 1.0, v, "empirical")
            for j, (f, v) in enumerate(first.features.items()) if not math.isnan(v)}
    out = parcellate_bundle(with_intervals(model, ends), aligned, atlas.all_streamlines(), cfg)
    assert out.decisions[0].passed == {f: True for f in FEATURE_NAMES}
    assert first.streamline_index in out.accepted_indices


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


@pytest.mark.parametrize("seed", range(11, 16))
def test_labels_unchanged_when_atlas_streamlines_reversed(seed):
    # the atlas side of the flip invariance: reading every atlas bundle
    # streamline backwards gives the same labels (thresholds may move in
    # their last bits, as the features' sums run in the other order)
    spec = random_scene_spec(n_bundles=4, streamlines_per_bundle=30, distractor_count=150,
                             seed=seed, global_rotation_deg=(4.0, -3.0, 6.0),
                             global_translation_mm=(7.0, -5.0, 3.0))
    scene = generate_scene(spec)
    backward_bundles = [Bundle(b.id, np.ascontiguousarray(b.streamlines[:, ::-1]))
                        for b in scene.atlas_bundles]
    cfg = RunConfig()
    forward = parcellate(build_atlas(scene.atlas_bundles), scene.subject, cfg)
    backward = parcellate(build_atlas(backward_bundles), scene.subject, cfg)
    assert all(len(b.accepted_indices) > 0 for b in forward.bundles)
    assert backward.label_map() == forward.label_map()


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


def candidate_features(candidates, model):
    """`feature_table` of a batch with the mmea to the model bundle, as
    labeling computes it."""
    return feature_table(candidates,
                         pairwise_mmea(candidates, model.bundle.streamlines).min(axis=1), model)


def assert_same_features(before, after):
    (values, degenerate), (moved, moved_degenerate) = before, after
    for f in FEATURE_NAMES:
        flagged = degenerate[f]
        assert np.array_equal(moved_degenerate[f], flagged), f
        assert np.isnan(values[f][flagged]).all() and np.isnan(moved[f][flagged]).all(), f
        tol = dict(rel=1e-9, abs=0.0) if f in MM_FEATURES else dict(rel=0.0, abs=1e-7)
        assert moved[f][~flagged] == pytest.approx(values[f][~flagged], **tol), f


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
    # a straight line: its plane normal is degenerate before and after the
    # move, and its shape angle is 180 degrees to the same 1e-7 degrees
    line = np.linspace(0.0, 1.0, 21)[:, None] * rng.uniform(-30.0, 30.0, 3) + rng.uniform(-5, 5, 3)
    candidates = np.concatenate([candidates, line[None]])
    motion = RigidTransform(angles, shift, rng.uniform(-20.0, 20.0, 3))

    # the features read no threshold, so the models skip the distribution fits
    empirical = RunConfig(threshold_source="empirical")
    model = build_bundle_model(bundle, empirical)
    moved_model = build_bundle_model(Bundle("b", apply_rigid(motion, bundle.streamlines)),
                                     empirical)
    moved = apply_rigid(motion, candidates)
    # the whole batch, then each candidate as a batch of one row
    batches = [slice(None)] + [slice(i, i + 1) for i in range(len(candidates))]
    for rows in batches:
        assert_same_features(candidate_features(candidates[rows], model),
                             candidate_features(moved[rows], moved_model))
    values, degenerate = candidate_features(candidates, model)
    assert degenerate["plane_angle_deg"][-1]
    assert values["shape_angle_deg"][-1] == pytest.approx(180.0, rel=0.0, abs=1e-7)


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
