"""RunConfig range checks: a number out of range is a ValueError at construction,
so a bad ``--config`` file ends the CLI with exit code 2."""
import math

import pytest

from swmparc.config import RunConfig

POSITIVE_BAD = [0, 0.0, -1.0, math.nan, math.inf, None]

# field, values it rejects, values it keeps
CASES = [
    ("workers", [-1, 2.5, "2"], [0, 1, 64]),
    ("max_cost_evaluations", [0, -5, 10.0], [1, 500]),
    ("cost_tolerance_mm", [-1e-3, math.nan, "0.1"], [0.0, 1e-3, 2]),
    ("min_fit_samples", [1, 0, -3], [2, 8]),
] + [
    (name, POSITIVE_BAD, [0.5, 10])
    for name in ("neighborhood_factor", "qb_threshold_global_mm", "qb_threshold_local_mm",
                 "ba_threshold_mm", "grid_cell_mm", "coarse_step_deg", "coarse_step_mm",
                 "fine_step_deg", "fine_step_mm")
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
