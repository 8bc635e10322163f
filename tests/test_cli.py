import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swmparc
from swmparc.cli import main
from swmparc.config import RunConfig
from swmparc.serialization import read_truth
from swmparc.synth import OUTLIER_LABEL, ArcSpec, SceneSpec
from swmparc.tckio import read_tck, write_tck

SPEC = SceneSpec(
    bundles=(
        ArcSpec("cli_a", (0.0, 0.0, 0.0), 10.0, 170.0, (20.0, 40.0), 0.4, 20, 1),
        ArcSpec("cli_b", (250.0, 0.0, 0.0), 9.0, 200.0, (70.0, 15.0), 0.4, 20, 2),
    ),
    distractor_count=8,
    extent_lo=(-120.0, -120.0, -120.0),
    extent_hi=(370.0, 120.0, 120.0),
    distractor_clearance_factor=3.0,
    global_rotation_deg=(3.0, -2.0, 4.0),
    global_translation_mm=(8.0, -5.0, 3.0),
    seed=9,
)


def dir_snapshot(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One full synth -> build-atlas -> parcellate -> evaluate run."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC.to_dict()))

    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "scene")]) == 0
    assert main(["build-atlas", "--bundles", str(root / "scene" / "bundles"),
                 "--out", str(root / "atlas")]) == 0
    assert main(["parcellate", "--atlas", str(root / "atlas"),
                 "--subject", str(root / "scene" / "subject.tck"),
                 "--out", str(root / "res1")]) == 0
    assert main(["evaluate", "--result", str(root / "res1"),
                 "--truth", str(root / "scene" / "truth.json"),
                 "--subject", str(root / "scene" / "subject.tck"),
                 "--out", str(root / "report.json")]) == 0
    return root


def test_synth_outputs(work):
    scene = work / "scene"
    assert (scene / "subject.tck").exists()
    assert (scene / "truth.json").exists()
    assert (scene / "scene.json").exists()
    assert sorted(p.name for p in (scene / "bundles").iterdir()) == \
        ["cli_a.tck", "cli_b.tck"]
    assert json.loads((scene / "scene.json").read_text()) == SPEC.to_dict()


def test_atlas_outputs(work):
    atlas = work / "atlas"
    names = {p.name for p in atlas.iterdir()}
    assert names == {"manifest.json", "atlas_stats.json", "run_config.json",
                     "cli_a.tck", "cli_b.tck"}
    manifest = json.loads((atlas / "manifest.json").read_text())
    assert manifest["bundles"] == ["cli_a", "cli_b"]


def test_parcellate_outputs(work):
    res = work / "res1"
    summary = json.loads((res / "summary.json").read_text())
    assert summary["subject_count"] == 48
    assert [b["bundle_id"] for b in summary["bundles"]] == ["cli_a", "cli_b"]
    for b in summary["bundles"]:
        assert b["status"] == "recognized"
        assert b["count"] > 0
        assert (res / f"{b['bundle_id']}.tck").exists()
    echoed = json.loads((res / "run_config.json").read_text())
    assert "workers" not in echoed
    assert echoed["resample_k"] == 21


def test_evaluate_report(work):
    report = json.loads((work / "report.json").read_text())
    assert report["subject_count"] == 48
    rows = {r["bundle_id"]: r for r in report["bundles"]}
    assert set(rows) == {"cli_a", "cli_b"}
    for r in rows.values():
        assert r["defined"]
        assert r["truth_count"] == 20
        assert r["precision"] is not None and r["precision"] > 0.8
        assert r["sensitivity"] > 0.3
        assert 0.0 <= r["specificity"] <= 1.0
        # subject was passed, so the distance metrics are present
        assert r["coverage"] is not None and r["coverage"] > 0.5
        assert r["overlap"] >= r["coverage"]
    agg = report["aggregate"]
    assert agg["pbe_1"] == 100.0
    assert agg["spb_mean"] > 0


def test_worker_count_leaves_identical_results(work, capsys):
    # older command lines pass --workers; it is accepted and changes nothing
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(work / "res3"), "--workers", "3"]) == 0
    assert dir_snapshot(work / "res3") == dir_snapshot(work / "res1")
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "--workers 3 is ignored: bundles run one at a time"
    assert err[1] == "parcellating 48 streamlines against 2 bundles"


def test_identity_affine_changes_nothing(work, tmp_path):
    affine = tmp_path / "eye.txt"
    np.savetxt(affine, np.eye(4))
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--affine", str(affine),
                 "--out", str(tmp_path / "res")]) == 0
    assert dir_snapshot(tmp_path / "res") == dir_snapshot(work / "res1")


def test_config_file_and_override(work, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"winner_take_all": False, "qb_threshold_local_mm": 6.0}))
    label = ["parcellate", "--atlas", str(work / "atlas"),
             "--subject", str(work / "scene" / "subject.tck"), "--config", str(cfg)]
    assert main(label + ["--out", str(tmp_path / "res")]) == 0
    assert dir_snapshot(tmp_path / "res") == dir_snapshot(work / "res1")
    # the flag overrides the file; the two bundles share no streamline
    assert main(label + ["--out", str(tmp_path / "wta"), "--winner-take-all"]) == 0
    echoed = json.loads((work / "res1" / "run_config.json").read_text())
    assert json.loads((tmp_path / "wta" / "run_config.json").read_text()) == \
        {**echoed, "winner_take_all": True}
    summary = json.loads((tmp_path / "wta" / "summary.json").read_text())
    assert summary["bundles"] == json.loads((work / "res1" / "summary.json").read_text())["bundles"]


def test_parcellate_runs_at_and_echoes_the_atlas_k(work, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "k31.json"
    cfg.write_text(json.dumps({"resample_k": 31}))
    atlas = tmp_path / "atlas31"
    assert main(["build-atlas", "--bundles", str(work / "scene" / "bundles"),
                 "--out", str(atlas), "--config", str(cfg)]) == 0
    assert json.loads((atlas / "manifest.json").read_text())["resample_k"] == 31
    # the default config asks for K = 21; the run is at the atlas's 31, and
    # both echoed configs say so
    capsys.readouterr()
    res = tmp_path / "res31"
    assert main(["parcellate", "--atlas", str(atlas),
                 "--subject", str(work / "scene" / "subject.tck"), "--out", str(res)]) == 0
    assert capsys.readouterr().err.splitlines()[0] == \
        "resample_k 21 of the config is ignored: the atlas has 31 points per streamline"
    assert json.loads((res / "run_config.json").read_text())["resample_k"] == 31
    assert json.loads((res / "summary.json").read_text())["config"]["resample_k"] == 31
    assert all(len(s) == 31 for s in read_tck(res / "cli_a.tck"))
    # evaluate resamples the subject at the K the result echoes
    import swmparc.cli as cli
    seen = []
    resample = cli.resample_all

    def recorded(streamlines, k):
        seen.append(k)
        return resample(streamlines, k)

    monkeypatch.setattr(cli, "resample_all", recorded)
    assert main(["evaluate", "--result", str(res), "--truth", str(work / "scene" / "truth.json"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert seen == [31]
    # a config asking for 31 against the K = 21 atlas runs and writes as if
    # it asked for 21
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(work / "atlas"), "--config", str(cfg),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(tmp_path / "res21")]) == 0
    assert dir_snapshot(tmp_path / "res21") == dir_snapshot(work / "res1")
    assert capsys.readouterr().err.splitlines()[0] == \
        "resample_k 31 of the config is ignored: the atlas has 21 points per streamline"


def test_echoed_configs_replay_their_directories(work, tmp_path):
    # a run fed its own run_config.json writes the same bytes; here with
    # empirical thresholds at deciles 0.15 / 0.85, the "any" containment
    # rule and winner-take-all
    config = {"threshold_source": "empirical", "containment_rule": "any",
              "winner_take_all": True, "decile_low": 0.15, "decile_high": 0.85}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    build = ["build-atlas", "--bundles", str(work / "scene" / "bundles")]
    assert main(build + ["--out", str(tmp_path / "a1"), "--config", str(cfg)]) == 0
    echoed = tmp_path / "a1" / "run_config.json"
    assert json.loads(echoed.read_text()) == RunConfig(**config).to_dict()
    assert main(build + ["--out", str(tmp_path / "a2"), "--config", str(echoed)]) == 0
    assert dir_snapshot(tmp_path / "a2") == dir_snapshot(tmp_path / "a1")
    assert dir_snapshot(tmp_path / "a1") != dir_snapshot(work / "atlas")

    label = ["parcellate", "--atlas", str(tmp_path / "a1"),
             "--subject", str(work / "scene" / "subject.tck")]
    assert main(label + ["--out", str(tmp_path / "r1"), "--config", str(cfg)]) == 0
    echoed = tmp_path / "r1" / "run_config.json"
    assert json.loads(echoed.read_text()) == RunConfig(**config).to_dict()
    assert main(label + ["--out", str(tmp_path / "r2"), "--config", str(echoed)]) == 0
    assert dir_snapshot(tmp_path / "r2") == dir_snapshot(tmp_path / "r1")


def test_exit_2_on_bad_inputs(work, tmp_path):
    missing = str(tmp_path / "nope")
    assert main(["synth", "--spec", missing, "--out", str(tmp_path / "o")]) == 2
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({"bundles": [], "bogus": 1}))
    assert main(["synth", "--spec", str(bad_spec), "--out", str(tmp_path / "o")]) == 2
    assert main(["build-atlas", "--bundles", missing, "--out", str(tmp_path / "o")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["build-atlas", "--bundles", str(empty), "--out", str(tmp_path / "o")]) == 2
    corrupt = tmp_path / "subject.tck"
    corrupt.write_bytes(b"garbage")
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(corrupt), "--out", str(tmp_path / "o")]) == 2
    assert main(["evaluate", "--result", str(work / "res1"),
                 "--truth", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_exit_2_names_the_first_bad_streamline(work, tmp_path, capsys):
    # one zero-length streamline rejects the whole file, and the message
    # names it by its index in the file
    subject = read_tck(work / "scene" / "subject.tck")
    subject[17] = np.repeat(subject[17][:1], 4, axis=0)
    subject[30] = np.repeat(subject[30][:1], 2, axis=0)
    path = tmp_path / "subject.tck"
    write_tck(subject, path)
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(work / "atlas"), "--subject", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}: streamline 17: zero-length streamline" in capsys.readouterr().err
    bundles = tmp_path / "bundles"
    shutil.copytree(work / "scene" / "bundles", bundles)
    lines = read_tck(bundles / "cli_b.tck")
    lines[3] = np.repeat(lines[3][:1], 3, axis=0)
    write_tck(lines, bundles / "cli_b.tck")
    assert main(["build-atlas", "--bundles", str(bundles), "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert f"error: {bundles / 'cli_b.tck'}: streamline 3: zero-length streamline" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "a").exists()


def test_exit_2_names_the_first_bad_streamline_with_an_affine(work, tmp_path, capsys):
    # the --affine path reads, checks and resamples the subject as the plain one
    subject = read_tck(work / "scene" / "subject.tck")
    subject[17] = np.repeat(subject[17][:1], 4, axis=0)
    path = tmp_path / "subject.tck"
    write_tck(subject, path)
    affine = tmp_path / "eye.txt"
    np.savetxt(affine, np.eye(4))
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(work / "atlas"), "--subject", str(path),
                 "--affine", str(affine), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}: streamline 17: zero-length streamline" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_2_on_truth_length_mismatch(work, tmp_path):
    from swmparc.serialization import write_truth
    write_truth(["cli_a"] * 3, tmp_path / "short.json")
    assert main(["evaluate", "--result", str(work / "res1"),
                 "--truth", str(tmp_path / "short.json"),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_exit_2_on_bad_config(work, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resample_k": -4}))
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_exit_2_on_out_of_range_config(work, tmp_path, capsys):
    label = ["parcellate", "--atlas", str(work / "atlas"),
             "--subject", str(work / "scene" / "subject.tck"), "--out", str(tmp_path / "o")]
    cfg = tmp_path / "cfg.json"
    for config in ({"resample_k": "21"}, {"neighborhood_factor": 0.0},
                   {"winner_take_all": "no"}, {"pbe_min_counts": [1, 2, 3]},
                   {"features": 5}, {"features": ["length_mm", 5]}, {"decile_low": "0.1"},
                   {"decile_high": None}):
        cfg.write_text(json.dumps(config))
        assert main(label + ["--config", str(cfg)]) == 2
    # a run_config.json echoed by an older version: the step sizes of the
    # two-stage rigid SBR, the unused seed, the bundle worker count, the
    # grid cell and the registration budget and tolerance, now constants,
    # are unknown keys, and no replay could honour them
    retired = {"seed": 0, "coarse_step_deg": 10.0, "coarse_step_mm": 10.0,
               "fine_step_deg": 1.0, "fine_step_mm": 1.0, "workers": 0,
               "grid_cell_mm": 20.0, "max_cost_evaluations": 500, "cost_tolerance_mm": 1e-3}
    echoed = json.loads((work / "res1" / "run_config.json").read_text())
    cfg.write_text(json.dumps({**echoed, **retired}))
    capsys.readouterr()
    assert main(label + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert all(repr(key) in err for key in retired)
    assert main(label + ["--workers", "-1"]) == 2
    assert not (tmp_path / "o").exists()


def test_global_centroid_sizes_in_summary_and_progress(work, tmp_path, capsys):
    # three distractors doubled: their pairs reach the minimum cluster size,
    # while the other distractors stay singletons, out of the global fit
    subject = read_tck(work / "scene" / "subject.tck")
    labels = read_truth(work / "scene" / "truth.json")
    doubled = [i for i, label in enumerate(labels) if label == OUTLIER_LABEL][:3]
    write_tck(subject + [subject[i] + 0.2 for i in doubled], tmp_path / "subject.tck")
    out = tmp_path / "res"
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(tmp_path / "subject.tck"),
                 "--out", str(out)]) == 0
    sizes = json.loads((out / "summary.json").read_text())["global_centroids"]
    assert list(sizes) == ["subject_kept", "subject_total", "atlas_kept", "atlas_total"]
    assert all(isinstance(v, int) and v >= 1 for v in sizes.values())
    assert sizes["subject_kept"] < sizes["subject_total"]
    assert sizes["atlas_kept"] <= sizes["atlas_total"]
    line = next(line for line in capsys.readouterr().err.splitlines()
                if line.startswith("global registration:"))
    assert line.endswith(f"centroids subject {sizes['subject_kept']}/{sizes['subject_total']}, "
                         f"atlas {sizes['atlas_kept']}/{sizes['atlas_total']}")


BAD_IDS = "bundles must be a non-empty list of distinct bundle ids"


@pytest.mark.parametrize("edit, message", [
    (lambda m: {**m, "bundles": []}, BAD_IDS),
    (lambda m: {**m, "bundles": "abc"}, BAD_IDS),
    (lambda m: {**m, "bundles": m["bundles"] + m["bundles"][:1]}, BAD_IDS),
    (lambda m: {k: v for k, v in m.items() if k != "resample_k"},
     "resample_k must be an odd integer >= 3"),
    (lambda m: {**m, "resample_k": 20}, "resample_k must be an odd integer >= 3"),
    (lambda m: list(m), "expected a JSON object"),
], ids=["no_bundles", "bundles_not_a_list", "repeated_bundle", "no_resample_k",
        "even_resample_k", "not_an_object"])
def test_exit_2_on_hostile_atlas_manifest(work, tmp_path, capsys, edit, message):
    atlas = tmp_path / "atlas"
    shutil.copytree(work / "atlas", atlas)
    manifest = json.loads((atlas / "manifest.json").read_text())
    (atlas / "manifest.json").write_text(json.dumps(edit(manifest)))
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(atlas),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {atlas / 'manifest.json'}: {message}\n"
    assert not (tmp_path / "o").exists()


def without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda e: {**e, "radius_mm": "abc"}, "radius_mm must be a finite number"),
    (lambda e: {**e, "radius_mm": True}, "radius_mm must be a finite number"),
    (lambda e: {**e, "radius_mm": 10 ** 400}, "radius_mm must be a finite number"),
    (lambda e: {**e, "barycenter": [10 ** 400, 0.0, 0.0]},
     "barycenter must be numbers of shape (3,)"),
    (lambda e: without(e, "thresholds"), "missing thresholds"),
    (lambda e: without(e, "fits"), "missing fits"),
    (lambda e: without(e, "reference"), "missing reference"),
    (lambda e: without(e, "reference_normal"), "missing reference_normal"),
    (lambda e: without(e, "reference_direction"), "missing reference_direction"),
    (lambda e: {**e, "barycenter": e["barycenter"][:2]},
     "barycenter must be numbers of shape (3,)"),
    (lambda e: {**e, "reference_normal": e["reference_normal"] + [0.0]},
     "reference_normal must be numbers of shape (3,)"),
    (lambda e: {**e, "reference": e["reference"][1:]},
     "reference must be numbers of shape (21, 3)"),
    (lambda e: {**e, "reference_direction": ["x", 0.0, 1.0]},
     "reference_direction must be numbers of shape (3,)"),
    (lambda e: {**e, "reference_normal_degenerate": "no"},
     "reference_normal_degenerate must be true or false"),
    (lambda e: {**e, "thresholds": without(e["thresholds"], "length_mm")},
     "malformed thresholds or fits (KeyError('length_mm'))"),
    (lambda e: {**e, "fits": {f: [] for f in e["fits"]}},
     "malformed thresholds or fits (AttributeError(\"'list' object has no attribute 'get'\"))"),
    (lambda e: "abc", "expected a JSON object"),
], ids=["radius_text", "radius_bool", "radius_past_float", "barycenter_past_float",
        "no_thresholds", "no_fits", "no_reference",
        "no_reference_normal", "no_reference_direction", "short_barycenter", "long_normal",
        "short_reference", "text_in_direction", "degenerate_text", "threshold_feature_gone",
        "fits_not_objects", "entry_not_an_object"])
def test_exit_2_on_hostile_atlas_stats(work, tmp_path, capsys, edit, message):
    atlas = tmp_path / "atlas"
    shutil.copytree(work / "atlas", atlas)
    stats = json.loads((atlas / "atlas_stats.json").read_text())
    stats["bundles"]["cli_b"] = edit(stats["bundles"]["cli_b"])
    (atlas / "atlas_stats.json").write_text(json.dumps(stats))
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(atlas),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: {atlas / 'atlas_stats.json'}: bundle 'cli_b': {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, content, message", [
    ("cli_b.tck", b"not a track file", "bad magic at byte 0"),
    ("cli_a.tck", None, "no streamline in bundle 'cli_a'"),
], ids=["garbage_bytes", "no_streamline"])
def test_exit_2_on_bad_atlas_track_file(work, tmp_path, capsys, name, content, message):
    atlas = tmp_path / "atlas"
    shutil.copytree(work / "atlas", atlas)
    if content is None:
        write_tck([], atlas / name)
    else:
        (atlas / name).write_bytes(content)
    capsys.readouterr()
    assert main(["parcellate", "--atlas", str(atlas),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {atlas / name}: ") and message in err
    assert not (tmp_path / "o").exists()


def test_exit_2_on_bad_affine(work, tmp_path):
    affine = tmp_path / "bad.txt"
    np.savetxt(affine, np.eye(3))
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--affine", str(affine), "--out", str(tmp_path / "o")]) == 2


def test_exit_1_on_processing_failure(tmp_path):
    # keep-out sphere swallows the whole extent box: generation cannot finish
    spec = SceneSpec(
        bundles=(ArcSpec("a", (0.0, 0.0, 0.0), 10.0, 170.0, (0.0, 0.0), 0.3, 4, 1),),
        distractor_count=1,
        extent_lo=(-20.0, -20.0, -20.0),
        extent_hi=(20.0, 20.0, 20.0),
        distractor_clearance_factor=1e5,
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1


def test_argparse_exits():
    assert main([]) == 2
    assert main(["--help"]) == 0


def declared_scripts(pyproject):
    """The `[project.scripts]` table of a pyproject.toml as {name: "module:function"}."""
    text = pyproject.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the flat table line by line
        scripts, inside = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("#"):
                continue
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
                scripts[name] = target
        return scripts
    return tomllib.loads(text).get("project", {}).get("scripts", {})


def test_console_script_installed():
    """The declared `swmparc` command runs as its own process and lists `parcellate`.

    Runs from the source tree: the declared target as a console-script wrapper
    would call it, and `python -m swmparc`. Where an installed `swmparc` is on
    PATH, that executable is run too.
    """
    target = declared_scripts(Path(__file__).parents[1] / "pyproject.toml").get("swmparc")
    assert target, "pyproject.toml declares no `swmparc` script"
    module, _, function = target.partition(":")
    assert callable(getattr(importlib.import_module(module), function))

    source_root = str(Path(swmparc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))}
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    runs = [([sys.executable, "-c", wrapper, "--help"], env),
            ([sys.executable, "-m", "swmparc", "--help"], env)]
    installed = shutil.which("swmparc")
    if installed:  # the installed wrapper imports whatever its install put in place
        runs.append(([installed, "--help"], None))
    for command, run_env in runs:
        script = subprocess.run(command, capture_output=True, text=True,
                                env=run_env, timeout=120)
        assert script.returncode == 0, (command, script.stderr)
        assert "parcellate" in script.stdout, command
