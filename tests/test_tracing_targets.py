"""The benchmark's traced run wraps public names of the program by name
(`bench/tracing.py`); a renamed or removed name, or a return value whose
shape a counter no longer reads, turns its per-layer metrics into null.
Here either fails a test that names the span or the metric."""
import importlib.util
import json
from pathlib import Path

from swmparc.cli import main
from swmparc.synth import random_scene_spec

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracing().install(0)
    try:
        assert tracer.dead == set()
    finally:
        tracer.uninstall()


def test_every_traced_span_is_entered(tmp_path):
    # a wrapper that exists but is never called reads 0 s, not null; 12
    # streamlines a bundle so fits (8 samples) reach `select_best`
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(random_scene_spec(3, 12).to_dict()))
    tracing = load_tracing()
    tracer = tracing.install(0)
    try:
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "scene")]) == 0
        assert main(["build-atlas", "--bundles", str(tmp_path / "scene" / "bundles"),
                     "--out", str(tmp_path / "atlas")]) == 0
        assert main(["parcellate", "--atlas", str(tmp_path / "atlas"),
                     "--subject", str(tmp_path / "scene" / "subject.tck"),
                     "--out", str(tmp_path / "result")]) == 0
    finally:
        tracer.uninstall()
    # distances.bmd wraps an import of registration.py that nothing calls
    never = {name for _, name, _, _ in tracing.TARGETS
             if name != "distances.bmd" and tracer.count(name) == 0}
    assert never == set()
    # a counter that cannot read what its span returned marks the span dead
    # and nulls every metric that needs it
    assert tracer.dead == set()
    metrics = tracing.layer_metrics(tracer)
    assert [name for name, value in metrics.items() if value is None] == []
