"""Bounding-box index of a tractogram for sphere neighborhood queries.

Each streamline is reduced to the integer cell-index bounds of its AABB on a
uniform grid, ``floor(min / cell)`` and ``floor(max / cell)``.  A query
returns, in one vectorized box-overlap test, the streamlines whose cell range
meets the cell range of the query sphere's bounding box: exactly the
streamlines a map from grid cells to the streamlines whose AABB overlaps them
would list for the query's cells.  Cell size only affects how many candidates
a query returns, never results: callers filter the candidates exactly.
"""
from __future__ import annotations

import numpy as np


def _cells(points: np.ndarray, cell_mm: float) -> np.ndarray:
    return np.floor(points / cell_mm).astype(np.int64)


class StreamlineGrid:
    """Cell-index bounds of every streamline's AABB on a uniform grid;
    `parcellate` builds its grids at the default cell."""

    def __init__(self, streamlines: np.ndarray, cell_mm: float = 20.0):
        if cell_mm <= 0.0:
            raise ValueError("cell size must be positive")
        self.cell_mm = float(cell_mm)
        self.n = int(len(streamlines))
        # (3, n), so that the query compares along contiguous rows
        self._lo = _cells(streamlines.min(axis=1), self.cell_mm).T.copy()
        self._hi = _cells(streamlines.max(axis=1), self.cell_mm).T.copy()

    def sphere_candidates(self, center, radius_mm: float) -> np.ndarray:
        """Indices of streamlines whose AABB can intersect the query sphere.

        Sorted ascending; a superset of any containment rule's exact answer.
        """
        center = np.asarray(center, dtype=np.float64)
        lo = _cells(center - radius_mm, self.cell_mm)
        hi = _cells(center + radius_mm, self.cell_mm)
        overlap = (self._lo <= hi[:, None]) & (self._hi >= lo[:, None])
        return np.flatnonzero(overlap.all(axis=0))
