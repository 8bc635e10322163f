import numpy as np
import pytest

from swmparc.atlas import build_atlas, build_bundle_model
from swmparc.config import FEATURE_NAMES, RunConfig
from swmparc.parcellation import (
    LabelDecision,
    compute_features,
    global_align,
    label_streamline,
    parcellate,
    parcellate_bundle,
)
from swmparc.registration import RigidTransform, apply_rigid
from swmparc.synth import (
    ArcSpec,
    ambiguous_pair_spec,
    generate_bundle,
    generate_scene,
    random_scene_spec,
)


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
    out = parcellate_bundle(model, arr, arr, RunConfig(workers=1))
    assert out.status == "recognized"
    assert len(out.decisions) == len(arr)
    assert len(out.accepted_indices) / len(arr) >= 0.4
    assert np.all(np.diff(out.accepted_indices) > 0)


def test_parcellate_bundle_absent_when_no_candidates(model):
    arr = model.bundle.streamlines
    far = arr + 10_000.0
    out = parcellate_bundle(model, far, arr, RunConfig(workers=1))
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
    result = parcellate(atlas, subject, RunConfig(workers=1))
    assert result.subject_count == len(subject)
    assert [b.bundle_id for b in result.bundles] == ["left", "right"]
    for b, model in zip(result.bundles, atlas.bundles):
        assert b.status == "recognized"
        assert len(b.accepted_indices) > 0
    # left candidates come from the first half, right from the second
    assert set(result.bundles[0].accepted_indices) <= set(range(40))
    assert set(result.bundles[1].accepted_indices) <= set(range(40, 80))


def test_parcellate_worker_counts_identical():
    atlas = two_bundle_atlas()
    subject = atlas.all_streamlines()
    r1 = parcellate(atlas, subject, RunConfig(workers=1))
    r4 = parcellate(atlas, subject, RunConfig(workers=4))
    for a, b in zip(r1.bundles, r4.bundles):
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
    aligned, reg = global_align(atlas, moved, RunConfig(workers=1))
    assert reg.converged
    assert np.linalg.norm(aligned - subject, axis=2).mean() < 1.0


def test_interval_widening_is_monotone(model):
    """Widening every interval can only add accepted streamlines."""
    arr = model.bundle.streamlines
    base = parcellate_bundle(model, arr, arr, RunConfig(workers=1))
    import dataclasses

    from swmparc.atlas import FeatureInterval
    wide = {
        f: FeatureInterval(iv.low - 1.0, iv.high + 1.0, iv.source, iv.informative)
        for f, iv in model.thresholds.items()
    }
    wider_model = dataclasses.replace(model, thresholds=wide)
    grown = parcellate_bundle(wider_model, arr, arr, RunConfig(workers=1))
    assert set(base.accepted_indices) <= set(grown.accepted_indices)


def test_winner_take_all_on_overlapping_twins():
    scene = generate_scene(ambiguous_pair_spec(seed=0))
    atlas = build_atlas(scene.atlas_bundles)
    subject = scene.subject

    multi = parcellate(atlas, subject, RunConfig(workers=1))
    labels = multi.label_map()
    doubled = [i for i, ids in labels.items() if len(ids) > 1]
    assert doubled, "twin fixture should produce multi-labels"

    wta = parcellate(atlas, subject, RunConfig(workers=1, winner_take_all=True))
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
    result = parcellate(atlas, subject, RunConfig(workers=1))
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
    cfg = RunConfig(workers=1)
    forward = parcellate(atlas, scene.subject, cfg)
    backward = parcellate(atlas, np.ascontiguousarray(scene.subject[:, ::-1]), cfg)
    labels = forward.label_map()
    assert all(len(b.accepted_indices) > 0 for b in forward.bundles)
    assert backward.label_map() == labels
    t, t_back = forward.global_registration.transform, backward.global_registration.transform
    assert t.rotation_deg.tobytes() == t_back.rotation_deg.tobytes()
    assert t.translation_mm.tobytes() == t_back.translation_mm.tobytes()
