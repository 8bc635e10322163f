"""The benchmark's traced run wraps public names of the program by name
(`bench/tracing.py`); a renamed or removed name turns its per-layer metrics
into null.  Here such a rename fails a test that names the span."""
import importlib.util
from pathlib import Path

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
