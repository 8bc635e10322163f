import numpy as np
import pytest

from swmparc.registration import extract_neighborhood
from swmparc.spatial import StreamlineGrid

from conftest import random_streamlines


def test_candidates_are_superset_of_sphere_members(rng):
    lines = random_streamlines(rng, 80)
    grid = StreamlineGrid(lines, cell_mm=15.0)
    for _ in range(20):
        center = rng.uniform(-40, 40, 3)
        radius = rng.uniform(5.0, 50.0)
        cand = set(grid.sphere_candidates(center, radius).tolist())
        d = np.linalg.norm(lines - center, axis=2)
        for rule_hits in (d.max(axis=1) <= radius, d.min(axis=1) <= radius):
            assert set(np.flatnonzero(rule_hits).tolist()) <= cand


def test_neighborhood_same_with_and_without_grid(rng):
    lines = random_streamlines(rng, 60)
    grid = StreamlineGrid(lines, cell_mm=10.0)
    for rule in ("all", "any"):
        for _ in range(10):
            center = rng.uniform(-30, 30, 3)
            radius = rng.uniform(10.0, 40.0)
            a = extract_neighborhood(lines, center, radius, rule=rule)
            b = extract_neighborhood(lines, center, radius, rule=rule, grid=grid)
            assert np.array_equal(a, b)


def test_cell_size_never_changes_results(rng):
    lines = random_streamlines(rng, 40)
    center = np.zeros(3)
    base = extract_neighborhood(lines, center, 25.0)
    for cell in (3.0, 11.0, 50.0, 300.0):
        grid = StreamlineGrid(lines, cell_mm=cell)
        got = extract_neighborhood(lines, center, 25.0, grid=grid)
        assert np.array_equal(got, base)


def test_containment_rules_differ():
    # one streamline half in, half out of the sphere
    line = np.linspace([0.0, 0, 0], [40.0, 0, 0], 21)[None]
    inside_all = extract_neighborhood(line, [0.0, 0, 0], 10.0, rule="all")
    inside_any = extract_neighborhood(line, [0.0, 0, 0], 10.0, rule="any")
    assert len(inside_all) == 0
    assert len(inside_any) == 1


def test_empty_grid_and_validation():
    grid = StreamlineGrid(np.empty((0, 21, 3)))
    assert grid.sphere_candidates([0, 0, 0], 10.0).size == 0
    with pytest.raises(ValueError):
        StreamlineGrid(np.empty((0, 21, 3)), cell_mm=0.0)
    with pytest.raises(ValueError):
        extract_neighborhood(np.empty((0, 21, 3)), [0, 0, 0], -1.0)
    with pytest.raises(ValueError):
        extract_neighborhood(np.empty((0, 21, 3)), [0, 0, 0], 5.0, rule="some")


# -- the box-overlap index against the cell dictionary it replaced ------------

from hypothesis import given, settings
from hypothesis import strategies as st


class ReferenceGrid:
    """The map from grid cells to the streamlines whose AABB overlaps them,
    frozen as the oracle of `StreamlineGrid`."""

    def __init__(self, streamlines, cell_mm):
        self.cell_mm = float(cell_mm)
        self.n = len(streamlines)
        self._cells = {}
        if self.n == 0:
            return
        lo = np.floor(streamlines.min(axis=1) / self.cell_mm).astype(np.int64)
        hi = np.floor(streamlines.max(axis=1) / self.cell_mm).astype(np.int64)
        for idx in range(self.n):
            x0, y0, z0 = lo[idx]
            x1, y1, z1 = hi[idx]
            for cx in range(x0, x1 + 1):
                for cy in range(y0, y1 + 1):
                    for cz in range(z0, z1 + 1):
                        self._cells.setdefault((cx, cy, cz), []).append(idx)

    def sphere_candidates(self, center, radius_mm):
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        center = np.asarray(center, dtype=np.float64)
        lo = np.floor((center - radius_mm) / self.cell_mm).astype(np.int64)
        hi = np.floor((center + radius_mm) / self.cell_mm).astype(np.int64)
        mask = np.zeros(self.n, dtype=bool)
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                for cz in range(lo[2], hi[2] + 1):
                    hits = self._cells.get((cx, cy, cz))
                    if hits:
                        mask[hits] = True
        return np.flatnonzero(mask)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40),
       cell=st.sampled_from([0.5, 1.0, 2.5, 7.0, 20.0, 50.0]),
       snap=st.booleans())
def test_box_overlap_matches_the_cell_dictionary(seed, n, cell, snap):
    """Negative coordinates, streamline boxes and query boxes on cell
    boundaries (when snapped), cell sizes 0.5-50 mm."""
    rng = np.random.default_rng(seed)
    # in cell units, so that every cell size spans a few cells per box
    lines = cell * (rng.uniform(-12.0, 4.0, (n, 1, 3)) + rng.uniform(-1.5, 1.5, (n, 5, 3)))
    if snap:
        lines = np.round(lines / cell) * cell
    grid = StreamlineGrid(lines, cell_mm=cell)
    reference = ReferenceGrid(lines, cell)
    for _ in range(8):
        center = cell * rng.uniform(-14.0, 6.0, 3)
        radius = cell * float(rng.choice([0.0, 1.0, 2.0, rng.uniform(0.05, 4.0)]))
        if snap:
            center = np.round(center / cell) * cell
        got = grid.sphere_candidates(center, radius)
        expected = reference.sphere_candidates(center, radius)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
