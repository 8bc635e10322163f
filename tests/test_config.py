"""RunConfig range checks: a number out of range is a ValueError at construction,
so a bad ``--config`` file ends the CLI with exit code 2."""
import math

import pytest

from swmparc.config import RunConfig

POSITIVE_BAD = [0, 0.0, -1.0, math.nan, math.inf, None]

# field, values it rejects, values it keeps
CASES = [
    ("resample_k", [1, 4, 21.0, "21", True], [3, 21]),
    ("workers", [-1, 2.5, "2", True, False], [0, 1, 64]),
    ("max_cost_evaluations", [0, -5, 10.0, True], [1, 500]),
    ("cost_tolerance_mm", [-1e-3, math.nan, "0.1", True, False], [0.0, 1e-3, 2]),
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
                 "ba_threshold_mm", "grid_cell_mm")
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
