import dataclasses
import hashlib

import numpy as np
import pytest

from swmparc.geometry import bundle_barycenter, bundle_radius
from swmparc.registration import apply_rigid
from swmparc.synth import (
    OUTLIER_LABEL,
    ArcSpec,
    SceneSpec,
    ambiguous_pair_spec,
    generate_bundle,
    generate_distractors,
    generate_scene,
    random_scene_spec,
)

ARC = ArcSpec("arc", (10.0, -5.0, 2.0), 12.0, 150.0, (20.0, 70.0), 0.5, 25, 3)


def test_arc_spec_validation():
    with pytest.raises(ValueError, match="empty bundle id"):
        dataclasses.replace(ARC, bundle_id="")
    with pytest.raises(ValueError, match="radius"):
        dataclasses.replace(ARC, radius_mm=0.0)
    with pytest.raises(ValueError, match="span"):
        dataclasses.replace(ARC, span_deg=5.0)
    with pytest.raises(ValueError, match="span"):
        dataclasses.replace(ARC, span_deg=355.0)
    with pytest.raises(ValueError, match="count"):
        dataclasses.replace(ARC, count=0)
    with pytest.raises(ValueError, match="jitter"):
        dataclasses.replace(ARC, jitter_mm=-0.1)


def test_arc_spec_dict_round_trip():
    assert ArcSpec.from_dict(ARC.to_dict()) == ARC


def test_generate_bundle_shape_and_determinism():
    b1 = generate_bundle(ARC)
    b2 = generate_bundle(ARC)
    assert b1.id == "arc"
    assert b1.streamlines.shape == (25, 21, 3)
    assert np.array_equal(b1.streamlines, b2.streamlines)
    other = generate_bundle(dataclasses.replace(ARC, seed=4))
    assert not np.array_equal(b1.streamlines, other.streamlines)


def test_zero_jitter_gives_identical_analytic_arcs():
    spec = dataclasses.replace(ARC, jitter_mm=0.0, count=5)
    arr = generate_bundle(spec).streamlines
    for i in range(1, 5):
        assert np.allclose(arr[i], arr[0], atol=1e-12)
    # every point sits on the circle of the spec radius around the center
    r = np.linalg.norm(arr[0] - np.asarray(spec.center), axis=1)
    assert np.allclose(r, spec.radius_mm, atol=1e-9)


def test_bundle_stays_near_center():
    arr = generate_bundle(ARC).streamlines
    bary = bundle_barycenter(arr)
    assert np.linalg.norm(bary - np.asarray(ARC.center)) < ARC.radius_mm
    assert bundle_radius(arr) < 6.0 * ARC.radius_mm


def test_scene_spec_validation():
    with pytest.raises(ValueError, match="overlapping bundle ids"):
        SceneSpec(bundles=(ARC, dataclasses.replace(ARC, seed=9)))
    with pytest.raises(ValueError, match="unknown bundle"):
        SceneSpec(bundles=(ARC,), local_rotations_deg={"nope": (1.0, 0.0, 0.0)})
    with pytest.raises(ValueError, match="distractor count"):
        SceneSpec(bundles=(ARC,), distractor_count=-1)
    with pytest.raises(ValueError, match="clearance factor"):
        SceneSpec(bundles=(ARC,), distractor_clearance_factor=-0.5)


def test_scene_spec_dict_round_trip():
    spec = SceneSpec(
        bundles=(ARC,),
        distractor_count=10,
        distractor_clearance_factor=2.0,
        global_rotation_deg=(1.0, 2.0, 3.0),
        global_translation_mm=(4.0, 5.0, 6.0),
        local_rotations_deg={"arc": (0.5, 0.0, 0.0)},
        local_translations_mm={"arc": (1.0, 0.0, 0.0)},
        seed=11,
    )
    assert SceneSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="unknown scene spec fields"):
        SceneSpec.from_dict({**spec.to_dict(), "bogus": 1})


def test_unperturbed_scene_is_the_atlas_plus_distractors():
    spec = SceneSpec(bundles=(ARC,), distractor_count=12, seed=2)
    scene = generate_scene(spec)
    n = ARC.count
    assert len(scene.subject) == n + 12
    assert scene.truth_labels[:n] == ("arc",) * n
    assert scene.truth_labels[n:] == (OUTLIER_LABEL,) * 12
    assert np.array_equal(scene.subject[:n], scene.atlas_bundles[0].streamlines)
    assert scene.global_transform.is_identity()
    assert np.array_equal(scene.truth_indices("arc"), np.arange(n))
    assert scene.truth_indices("missing").size == 0


def test_scene_determinism():
    spec = SceneSpec(bundles=(ARC,), distractor_count=30, seed=6)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(a.subject, b.subject)
    assert a.truth_labels == b.truth_labels


def test_global_move_applies_to_everything():
    spec = SceneSpec(bundles=(ARC,), distractor_count=5,
                     global_rotation_deg=(4.0, -3.0, 8.0),
                     global_translation_mm=(10.0, 0.0, -5.0), seed=2)
    plain = generate_scene(dataclasses.replace(
        spec, global_rotation_deg=(0.0, 0.0, 0.0),
        global_translation_mm=(0.0, 0.0, 0.0)))
    moved = generate_scene(spec)
    assert np.allclose(moved.subject,
                       apply_rigid(moved.global_transform, plain.subject))
    assert not moved.global_transform.is_identity()


def test_local_move_applies_to_one_bundle():
    arc2 = dataclasses.replace(ARC, bundle_id="arc2", center=(200.0, 0.0, 0.0), seed=8)
    spec = SceneSpec(bundles=(ARC, arc2),
                     local_translations_mm={"arc": (2.0, 0.0, 0.0)})
    scene = generate_scene(spec)
    n = ARC.count
    shifted = scene.atlas_bundles[0].streamlines + np.array([2.0, 0.0, 0.0])
    assert np.allclose(scene.subject[:n], shifted)
    assert np.array_equal(scene.subject[n:], scene.atlas_bundles[1].streamlines)
    assert scene.local_transforms["arc2"].is_identity()


def test_distractor_clearance_keeps_spheres_empty():
    spec = SceneSpec(bundles=(ARC,), distractor_count=40,
                     distractor_clearance_factor=3.0, seed=4)
    scene = generate_scene(spec)
    bary = bundle_barycenter(scene.atlas_bundles[0].streamlines)
    r = 3.0 * bundle_radius(scene.atlas_bundles[0].streamlines)
    distractors = scene.subject[ARC.count:]
    d = np.linalg.norm(distractors - bary, axis=2)
    assert d.min() > r


def test_distractors_fill_the_box():
    rng = np.random.default_rng(0)
    lines = generate_distractors(50, (-40.0,) * 3, (40.0,) * 3, rng)
    assert lines.shape == (50, 21, 3)
    lengths = np.linalg.norm(np.diff(lines, axis=1), axis=2).sum(axis=1)
    assert lengths.min() > 20.0


def test_distractor_keep_out_can_exhaust_the_box():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="no room in the extent box"):
        generate_distractors(1, (-10.0,) * 3, (10.0,) * 3, rng,
                             keep_out=[((0.0, 0.0, 0.0), 1e4)])


def test_random_scene_spec_layout():
    spec = random_scene_spec(n_bundles=8, streamlines_per_bundle=10, seed=3)
    assert len(spec.bundles) == 8
    ids = [b.bundle_id for b in spec.bundles]
    assert len(set(ids)) == 8
    assert spec.distractor_clearance_factor > 0
    # bundle centers are far enough apart that neighborhoods never merge
    centers = np.array([b.center for b in spec.bundles])
    d = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 150.0
    assert random_scene_spec(n_bundles=8, streamlines_per_bundle=10, seed=3) == spec


def test_ambiguous_pair_overlaps():
    scene = generate_scene(ambiguous_pair_spec(seed=1))
    a, b = scene.atlas_bundles
    ca = bundle_barycenter(a.streamlines)
    cb = bundle_barycenter(b.streamlines)
    assert np.linalg.norm(ca - cb) < 0.5 * bundle_radius(a.streamlines)


# -- the generated bits, pinned ------------------------------------------------

def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


ARC2 = dataclasses.replace(ARC, bundle_id="arc2", center=(200.0, 0.0, 0.0), seed=8)
SPHERES = [((0.0, 0.0, 0.0), 20.0), ((25.0, 10.0, -5.0), 12.0)]
SCENE = SceneSpec(bundles=(ARC, ARC2), distractor_count=20, distractor_clearance_factor=3.0)

GENERATED = {
    **{f"bundle_{count}_{k}": (lambda count=count, k=k: generate_bundle(
        dataclasses.replace(ARC, count=count), k).streamlines)
       for count in (1, 25, 300) for k in (21, 31)},
    "bundle_jitter_0": lambda: generate_bundle(
        dataclasses.replace(ARC, jitter_mm=0.0, count=5)).streamlines,
    "distractors": lambda: generate_distractors(
        50, (-40.0,) * 3, (40.0,) * 3, np.random.default_rng(0)),
    "distractors_keep_out": lambda: generate_distractors(
        40, (-40.0,) * 3, (40.0,) * 3, np.random.default_rng(1), k=31, keep_out=SPHERES),
    "scene_local_move": lambda: generate_scene(dataclasses.replace(
        SCENE, local_rotations_deg={"arc": (3.0, -2.0, 1.0)},
        local_translations_mm={"arc": (2.0, 0.0, 0.0)}, seed=5)).subject,
    "scene_global_move": lambda: generate_scene(dataclasses.replace(
        SCENE, global_rotation_deg=(4.0, -3.0, 8.0),
        global_translation_mm=(10.0, 0.0, -5.0), seed=2)).subject,
}

# sha256 of the float64 bytes, recorded from the per-streamline generator that
# the whole-array passes replaced (numpy 2.4, scipy 1.17, x86-64).  The draws,
# their order and the arithmetic are the contract; a different libm may move
# last bits of sin, cos or exp and with them these digests.
DIGESTS = {
    "bundle_1_21": "f1d85ff243065af640eb3eb5685a29a5957c5a5ce8df0363dde747e195f77e0c",
    "bundle_1_31": "493d9b8fbce581a7a2e956102e14e0a432646cf40a27b13eeb78ffcf16861bb0",
    "bundle_25_21": "2abb30a3629ef7022ddfb05c08a7dea6134cff398b5cd1e6731a4f7fd569de57",
    "bundle_25_31": "add8c811fcf15f207d5feeea6f02c92e7af83d9392df655129c4eaa8e5ec272c",
    "bundle_300_21": "20f0a8190efd685c9b7e5099c6b9ce8f2b4df86b6bd7d0abe361599d9d0e7f9e",
    "bundle_300_31": "01a25388d26fac3c53eb18a53a8ddb2e5a55dcc37cfe8d4760ed52806e1cc08f",
    "bundle_jitter_0": "19987387787a759f82889fd2ed77f9b3118e925d675a09ef6eb944540eb1e3a5",
    "distractors": "bc4a24dd981c635721009d00aa6165cd8c032736ac552534f2a4f27afcaf8fc0",
    "distractors_keep_out": "e2ab948185c2707068747c9f8412a29b7c34f74bb34c908e33cea29e506a0efe",
    "scene_local_move": "0a9b26ac3a0ce6965b96f554907469890e182ea1e93de6323f93acd9c88e1d93",
    "scene_global_move": "40a5aba05626166ecb2915aed613591bba45343e2505d633f41b36f25b65d785",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_generated_bits_are_pinned(name):
    out = GENERATED[name]()
    assert out.dtype == np.float64
    assert out.flags.c_contiguous
    assert _sha(out) == DIGESTS[name]


def test_keep_out_spheres_force_redraws():
    # the pinned keep-out draw differs from the same draw without spheres, so
    # its digest covers the redraw path
    free = generate_distractors(40, (-40.0,) * 3, (40.0,) * 3, np.random.default_rng(1), k=31)
    assert not np.array_equal(free, GENERATED["distractors_keep_out"]())
