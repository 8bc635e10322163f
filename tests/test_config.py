"""RunConfig range checks: a number out of range is a ValueError at construction,
so a bad ``--config`` file ends the CLI with exit code 2."""
import ast
import math
from dataclasses import fields
from pathlib import Path

import pytest

import swmparc
from swmparc.config import RunConfig

POSITIVE_BAD = [0, 0.0, -1.0, math.nan, math.inf, None]

# field, values it rejects, values it keeps
CASES = [
    ("resample_k", [1, 4, 21.0, "21", True], [3, 21]),
    ("min_fit_samples", [1, 0, -3, 8.0, True], [2, 8]),
    ("winner_take_all", ["no", "false", 0, 1, None], [True, False]),
    ("pbe_min_counts", [(1.7, True), (1, 2, 3), (0, -4), (1,), (1, 10.0), (True, 10), 5, "12"],
     [(1, 10), (2, 2)]),
    ("features", [5, None, "length_mm", {"length_mm": 1}, ["length_mm", 5], ["volume"]],
     [("length_mm",), ("mmea_mm", "shape_angle_deg")]),
    ("decile_low", ["0.1", None, True, math.nan, 0.0, 0.9, -0.1], [0.05, 0.5]),
    ("decile_high", ["0.9", None, True, False, math.nan, 0.1, 1.0, 1], [0.5, 0.95]),
] + [
    (name, POSITIVE_BAD + [True], [0.5, 10])
    for name in ("neighborhood_factor", "qb_threshold_global_mm", "qb_threshold_local_mm",
                 "ba_threshold_mm")
]


@pytest.mark.parametrize("name, bad, good", CASES, ids=[c[0] for c in CASES])
def test_range_check(name, bad, good):
    for value in bad:
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})
    for value in good:
        assert getattr(RunConfig(**{name: value}), name) == value


def test_defaults_pass():
    assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()


def test_every_field_is_read_outside_config():
    # a static scan: each field must be read as an attribute (`cfg.name`) by
    # some module of the package other than config.py, so no knob is kept
    # that no code reads
    read = set()
    for path in Path(swmparc.__file__).parent.glob("*.py"):
        if path.name != "config.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert unread == []
