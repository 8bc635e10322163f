import json
import math

import numpy as np
import pytest

from swmparc.atlas import build_atlas
from swmparc.config import FEATURE_NAMES, RunConfig
from swmparc.parcellation import parcellate
from swmparc.serialization import (
    AtlasFormatError,
    apply_affine,
    read_affine,
    read_atlas,
    read_result,
    read_truth,
    write_atlas,
    write_result,
    write_truth,
)
from swmparc.synth import ArcSpec, generate_bundle
from swmparc.tckio import write_tck


def small_atlas(seed=0):
    b1 = generate_bundle(ArcSpec("arc_a", (0.0, 0.0, 0.0), 10.0, 160.0,
                                 (15.0, 30.0), 0.4, 30, seed))
    b2 = generate_bundle(ArcSpec("arc_b", (260.0, 0.0, 0.0), 9.0, 200.0,
                                 (80.0, 10.0), 0.4, 30, seed + 1))
    return build_atlas([b1, b2])


@pytest.fixture(scope="module")
def atlas():
    return small_atlas()


def test_atlas_round_trip_value_exact(atlas, tmp_path):
    write_atlas(atlas, tmp_path / "atlas")
    back = read_atlas(tmp_path / "atlas")
    assert back.resample_k == atlas.resample_k
    assert [m.id for m in back.bundles] == [m.id for m in atlas.bundles]
    for orig, rt in zip(atlas.bundles, back.bundles):
        # summary fields are JSON doubles: exact equality expected
        assert np.array_equal(rt.barycenter, orig.barycenter)
        assert rt.radius_mm == orig.radius_mm
        assert np.array_equal(rt.reference, orig.reference)
        assert np.array_equal(rt.reference_normal, orig.reference_normal)
        assert np.array_equal(rt.reference_direction, orig.reference_direction)
        assert rt.reference_normal_degenerate == orig.reference_normal_degenerate
        for f in FEATURE_NAMES:
            assert rt.thresholds[f] == orig.thresholds[f], f
            a, b = orig.fits[f], rt.fits[f]
            if a is None:
                assert b is None
            else:
                assert b.family == a.family
                assert b.params == a.params
                assert b.sse == a.sse
                assert b.shift == a.shift
                assert b.support == a.support
        # track payload is float32, exact at that precision
        assert np.array_equal(
            rt.bundle.streamlines,
            orig.bundle.streamlines.astype("<f4").astype(np.float64))


def test_atlas_reload_is_stable(atlas, tmp_path):
    """Write, read, write again: the second copy is byte-identical."""
    write_atlas(atlas, tmp_path / "a1")
    write_atlas(read_atlas(tmp_path / "a1"), tmp_path / "a2")
    for name in sorted(p.name for p in (tmp_path / "a1").iterdir()):
        assert (tmp_path / "a2" / name).read_bytes() == \
            (tmp_path / "a1" / name).read_bytes(), name


def test_atlas_version_mismatch(atlas, tmp_path):
    write_atlas(atlas, tmp_path / "atlas")
    manifest = tmp_path / "atlas" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["format_version"] = "99"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(AtlasFormatError, match="expected format_version '1', found '99'"):
        read_atlas(tmp_path / "atlas")


def test_atlas_missing_track_file(atlas, tmp_path):
    write_atlas(atlas, tmp_path / "atlas")
    (tmp_path / "atlas" / "arc_b.tck").unlink()
    with pytest.raises(AtlasFormatError, match="missing track file for bundle 'arc_b'"):
        read_atlas(tmp_path / "atlas")


def test_atlas_missing_stats_entry(atlas, tmp_path):
    write_atlas(atlas, tmp_path / "atlas")
    stats = tmp_path / "atlas" / "atlas_stats.json"
    doc = json.loads(stats.read_text())
    del doc["bundles"]["arc_a"]
    stats.write_text(json.dumps(doc))
    with pytest.raises(AtlasFormatError, match="no stats entry for bundle 'arc_a'"):
        read_atlas(tmp_path / "atlas")


def test_atlas_wrong_point_count(atlas, tmp_path):
    write_atlas(atlas, tmp_path / "atlas")
    write_tck([np.zeros((7, 3))], tmp_path / "atlas" / "arc_a.tck")
    with pytest.raises(AtlasFormatError, match="7 points, expected 21"):
        read_atlas(tmp_path / "atlas")


def test_atlas_invalid_json(atlas, tmp_path):
    write_atlas(atlas, tmp_path / "atlas")
    (tmp_path / "atlas" / "manifest.json").write_text("{not json")
    with pytest.raises(AtlasFormatError, match="invalid JSON"):
        read_atlas(tmp_path / "atlas")


def test_affine_round_trip(tmp_path):
    m = np.eye(4)
    m[:3, :3] = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    m[:3, 3] = [5.0, -2.0, 0.25]
    path = tmp_path / "pre.txt"
    np.savetxt(path, m)
    back = read_affine(path)
    assert np.allclose(back, m, atol=0)
    pts = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
    expect = pts @ m[:3, :3].T + m[:3, 3]
    assert np.allclose(apply_affine(back, pts), expect)


def test_affine_validation(tmp_path):
    path = tmp_path / "bad.txt"
    np.savetxt(path, np.eye(3))
    with pytest.raises(ValueError, match="must be 4x4"):
        read_affine(path)
    m = np.eye(4)
    m[3, 0] = 0.5
    np.savetxt(path, m)
    with pytest.raises(ValueError, match=r"last row must be \(0, 0, 0, 1\)"):
        read_affine(path)
    path.write_text("not numbers\n")
    with pytest.raises(ValueError, match="cannot parse affine"):
        read_affine(path)


@pytest.fixture(scope="module")
def result(atlas):
    return parcellate(atlas, atlas.all_streamlines(), RunConfig())


def test_result_round_trip(atlas, result, tmp_path):
    subject = atlas.all_streamlines()
    write_result(result, tmp_path / "res", subject_streamlines=subject)
    back = read_result(tmp_path / "res")
    assert back.subject_count == len(subject)
    assert [b.bundle_id for b in back.bundles] == ["arc_a", "arc_b"]
    for orig, rt in zip(result.bundles, back.bundles):
        assert rt.status == orig.status
        assert np.array_equal(rt.accepted_indices, orig.accepted_indices)
    assert back.config == RunConfig().to_dict()
    assert back.config["qb_threshold_global_mm"] == 10.0
    # each recognized bundle gets its accepted streamlines as a track file
    from swmparc.tckio import read_tck
    for b in result.bundles:
        tracks = read_tck(tmp_path / "res" / f"{b.bundle_id}.tck")
        assert len(tracks) == len(b.accepted_indices)


def test_result_without_subject_writes_no_tracks(result, tmp_path):
    write_result(result, tmp_path / "res")
    names = {p.name for p in (tmp_path / "res").iterdir()}
    assert names == {"summary.json"}
    back = read_result(tmp_path / "res")
    assert len(back.bundles) == 2


def test_result_version_mismatch(result, tmp_path):
    write_result(result, tmp_path / "res")
    path = tmp_path / "res" / "summary.json"
    doc = json.loads(path.read_text())
    doc["format_version"] = "0"
    path.write_text(json.dumps(doc))
    with pytest.raises(AtlasFormatError, match="format_version"):
        read_result(tmp_path / "res")


def test_summary_json_has_finite_costs_only(result, tmp_path):
    write_result(result, tmp_path / "res")
    doc = json.loads((tmp_path / "res" / "summary.json").read_text())
    g = doc["global_registration"]
    assert isinstance(g["final_cost_mm"], (int, float)) or g["final_cost_mm"] is None
    assert isinstance(g["converged"], bool)
    for e in doc["bundles"]:
        assert set(e) == {
            "bundle_id", "status", "count", "accepted", "local_registration",
            "neighborhood_size", "atlas_neighborhood_size",
        }
        assert e["count"] == len(e["accepted"])


def test_truth_round_trip(tmp_path):
    labels = ["a", "b", "outlier", "a"]
    write_truth(labels, tmp_path / "truth.json")
    assert read_truth(tmp_path / "truth.json") == labels


def test_truth_rejects_non_strings(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text(json.dumps({"format_version": "1", "labels": ["a", 3]}))
    with pytest.raises(AtlasFormatError, match="labels must be a list of strings"):
        read_truth(path)
    path.write_text(json.dumps({"format_version": "2", "labels": []}))
    with pytest.raises(AtlasFormatError, match="format_version"):
        read_truth(path)
