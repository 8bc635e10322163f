"""Run configuration: every pipeline constant, overridable and echoed into
outputs so any run can be replayed exactly."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from pathlib import Path

FEATURE_NAMES = (
    "length_mm",
    "dist_to_barycenter_mm",
    "mmea_mm",
    "plane_angle_deg",
    "direction_angle_deg",
    "shape_angle_deg",
)


def _is_number(value, kind=Real) -> bool:
    # bool is an Integral and a Real, but True is no count, length or factor
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class RunConfig:
    resample_k: int = 21
    neighborhood_factor: float = 6.0
    qb_threshold_global_mm: float = 10.0
    qb_threshold_local_mm: float = 6.0
    decile_low: float = 0.1
    decile_high: float = 0.9
    ba_threshold_mm: float = 5.0
    containment_rule: str = "all"          # "all" | "any" point inside the sphere
    threshold_source: str = "fitted"       # "fitted" | "empirical" deciles
    features: tuple[str, ...] = FEATURE_NAMES
    winner_take_all: bool = False
    workers: int = 0                       # 0 = available parallelism
    grid_cell_mm: float = 20.0
    max_cost_evaluations: int = 500        # per rigid registration
    cost_tolerance_mm: float = 1e-3
    pbe_min_counts: tuple[int, int] = (1, 10)
    min_fit_samples: int = 8

    def __post_init__(self):
        for name, least in (("resample_k", 3), ("workers", 0), ("max_cost_evaluations", 1),
                            ("min_fit_samples", 2)):
            value = getattr(self, name)
            if not (_is_number(value, Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if self.resample_k % 2 == 0:
            raise ValueError("resample_k must be odd and >= 3")
        if self.containment_rule not in ("all", "any"):
            raise ValueError("containment_rule must be 'all' or 'any'")
        if self.threshold_source not in ("fitted", "empirical"):
            raise ValueError("threshold_source must be 'fitted' or 'empirical'")
        if not (_is_number(self.decile_low) and _is_number(self.decile_high)
                and 0.0 < self.decile_low < self.decile_high < 1.0):
            raise ValueError("decile_low and decile_high must be numbers with "
                             "0 < decile_low < decile_high < 1")
        if not (isinstance(self.features, (list, tuple))
                and all(isinstance(name, str) for name in self.features)):
            raise ValueError("features must be a list of feature names")
        unknown = set(self.features) - set(FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        self.features = tuple(self.features)
        if not isinstance(self.winner_take_all, bool):
            raise ValueError("winner_take_all must be true or false")
        for name in ("neighborhood_factor", "qb_threshold_global_mm", "qb_threshold_local_mm",
                     "ba_threshold_mm", "grid_cell_mm"):
            value = getattr(self, name)
            if not (_is_number(value) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number")
        tol = self.cost_tolerance_mm
        if not (_is_number(tol) and tol >= 0.0):
            raise ValueError("cost_tolerance_mm must be a number >= 0")
        counts = self.pbe_min_counts
        if not (isinstance(counts, (tuple, list)) and len(counts) == 2
                and all(_is_number(c, Integral) and c >= 1 for c in counts)):
            raise ValueError("pbe_min_counts must be two integers >= 1")
        self.pbe_min_counts = tuple(counts)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["features"] = list(self.features)
        d["pbe_min_counts"] = list(self.pbe_min_counts)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
