"""Checks of the benchmark itself.

    python3 -m pytest bench

Run from the repository root.  These are not part of the repository's test
suite (pyproject's testpaths is `tests`).
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _result(scene: str, work: str, workers: int) -> dict:
    os.makedirs(work)
    server = run.PassServer(work)
    try:
        report, out = run.run_pass(server, 0, scene, work, workers, None, time.perf_counter() + 600)
    finally:
        server.close()
    assert report is not None
    return run.tree(os.path.join(out, "result"))


@pytest.mark.parametrize("seed", [0, 1])
def test_crowded_local_result_is_identical_for_any_worker_count(tmp_path, seed):
    # the first scene of the seed; neighborhoods overlap, so bundle tasks
    # share subject streamlines
    scene = str(tmp_path / "scene")
    workloads.write_scene("crowded_local", workloads.scene_seed(seed, 0), scene)
    one = _result(scene, str(tmp_path / "w1"), 1)
    two = _result(scene, str(tmp_path / "w2"), 2)
    assert "summary.json" in one
    assert one == two


def test_setup_is_deterministic(tmp_path):
    a = workloads.write_workload("sparse_global", 3, str(tmp_path / "a"))
    b = workloads.write_workload("sparse_global", 3, str(tmp_path / "b"))
    assert len(a) == len(b) == workloads.WORKLOADS["sparse_global"].scenes
    assert run.tree(str(tmp_path / "a")) == run.tree(str(tmp_path / "b"))


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_name_gives_null_metrics_not_a_failure():
    tracer = tracing.Tracer(0)
    tracer.wrap("swmparc.parcellation:no_such_function", "parcellation.bundle")
    values = tracing.layer_metrics(tracer)
    assert values["parcellation.candidates"] is None
    assert values["parcellation.bundle_busy_s"] is None
    assert values["cli.parcellate_s"] == 0.0


def test_peak_memory_is_the_pass_process_own():
    # Linux carries ru_maxrss over an exec, so a pass started by a large
    # process would report that process's peak
    ballast = np.ones(200_000_000 // 8)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH]))
    out = subprocess.run([sys.executable, "-c", "import one_pass; print(one_pass.peak_rss_kb())"],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    assert ballast.sum() > 0
    assert 0 < int(out.stdout) * 1024 < 150e6
