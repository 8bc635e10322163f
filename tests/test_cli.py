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
                 "--out", str(root / "res1"), "--workers", "1"]) == 0
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


def test_worker_count_leaves_identical_results(work):
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--out", str(work / "res3"), "--workers", "3"]) == 0
    assert dir_snapshot(work / "res3") == dir_snapshot(work / "res1")


def test_identity_affine_changes_nothing(work, tmp_path):
    affine = tmp_path / "eye.txt"
    np.savetxt(affine, np.eye(4))
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--affine", str(affine),
                 "--out", str(tmp_path / "res"), "--workers", "1"]) == 0
    assert dir_snapshot(tmp_path / "res") == dir_snapshot(work / "res1")


def test_config_file_and_override(work, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2, "qb_threshold_local_mm": 6.0}))
    assert main(["parcellate", "--atlas", str(work / "atlas"),
                 "--subject", str(work / "scene" / "subject.tck"),
                 "--config", str(cfg),
                 "--out", str(tmp_path / "res"), "--workers", "1"]) == 0
    assert dir_snapshot(tmp_path / "res") == dir_snapshot(work / "res1")


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
    for config in ({"workers": -1}, {"max_cost_evaluations": 0},
                   {"cost_tolerance_mm": -1.0}, {"grid_cell_mm": 0.0}, {"resample_k": "21"},
                   {"winner_take_all": "no"}, {"pbe_min_counts": [1, 2, 3]},
                   {"features": 5}, {"features": ["length_mm", 5]}, {"decile_low": "0.1"},
                   {"decile_high": None}):
        cfg.write_text(json.dumps(config))
        assert main(label + ["--config", str(cfg)]) == 2
    # a run_config.json echoed before rigid SBR ran one stage: its step sizes
    # and unused seed are unknown keys, and no replay could give its results
    retired = {"seed": 0, "coarse_step_deg": 10.0, "coarse_step_mm": 10.0,
               "fine_step_deg": 1.0, "fine_step_mm": 1.0}
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
                 "--out", str(out), "--workers", "1"]) == 0
    sizes = json.loads((out / "summary.json").read_text())["global_centroids"]
    assert list(sizes) == ["subject_kept", "subject_total", "atlas_kept", "atlas_total"]
    assert all(isinstance(v, int) and v >= 1 for v in sizes.values())
    assert sizes["subject_kept"] < sizes["subject_total"]
    assert sizes["atlas_kept"] <= sizes["atlas_total"]
    line = next(line for line in capsys.readouterr().err.splitlines()
                if line.startswith("global registration:"))
    assert line.endswith(f"centroids subject {sizes['subject_kept']}/{sizes['subject_total']}, "
                         f"atlas {sizes['atlas_kept']}/{sizes['atlas_total']}")


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
