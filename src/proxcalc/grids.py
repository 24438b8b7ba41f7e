"""Regular sample grids and value tables for numerical conjugation."""

from __future__ import annotations

import math

import numpy as np

from . import functions as fn
from .errors import DimensionMismatch

GRID_MAX_POINTS = 10**6


class SampleGrid:
    """Axis-aligned lattice: per-axis bounds lo < hi and point counts >= 2.
    Any size is accepted, as ``reconstruct`` reads only the box; building the
    lattice past GRID_MAX_POINTS points raises ValueError before allocating."""

    def __init__(self, lo, hi, counts):
        self.lo = fn.as_point(lo)
        self.hi = fn.as_point(hi, self.lo.size)
        try:
            self.counts = np.atleast_1d(np.asarray(counts, dtype=int))
        except OverflowError:  # a Python int past int64
            raise ValueError("grid counts must fit in a signed 64-bit integer") from None
        if self.counts.size != self.lo.size:
            raise DimensionMismatch("counts must match the number of axes")
        fn._capped_dim(self.lo.size)
        if np.any(self.lo >= self.hi):
            raise ValueError("grid needs lo < hi componentwise")
        if np.any(self.counts < 2):
            raise ValueError("grid needs >= 2 points per axis")
        self.dim = self.lo.size
        self.size = math.prod(self.counts.tolist())  # Python ints: no overflow
        self._points = None
        self._boundary = None

    def _check_cap(self) -> None:
        if self.size > GRID_MAX_POINTS:
            raise ValueError(f"grid exceeds {GRID_MAX_POINTS} points")

    def axes(self) -> list[np.ndarray]:
        self._check_cap()
        return [
            np.linspace(self.lo[i], self.hi[i], self.counts[i]) for i in range(self.dim)
        ]

    def points(self) -> np.ndarray:
        """All lattice points, shape (size, dim), last axis fastest.

        Built once per grid; the array is shared and read-only.
        """
        if self._points is None:
            mesh = np.meshgrid(*self.axes(), indexing="ij")
            self._points = _read_only(np.stack([m.ravel() for m in mesh], axis=1))
        return self._points

    def boundary_mask(self) -> np.ndarray:
        """True for lattice points on the outer shell of the grid.

        Built once per grid; the array is shared and read-only.
        """
        if self._boundary is None:
            self._check_cap()
            masks = []
            for count in self.counts:
                m = np.zeros(count, dtype=bool)
                m[0] = m[-1] = True
                masks.append(m)
            mesh = np.meshgrid(*masks, indexing="ij")
            out = np.zeros(self.size, dtype=bool)
            for m in mesh:
                out |= m.ravel()
            self._boundary = _read_only(out)
        return self._boundary

    def __repr__(self):
        return f"SampleGrid({self.lo.tolist()}, {self.hi.tolist()}, {self.counts.tolist()})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ValueTable:
    """Grid plus one extended-real value per lattice point."""

    def __init__(self, grid: SampleGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float).ravel()
        if self.values.size != grid.size:
            raise DimensionMismatch("values length must equal the lattice size")
        if np.any(np.isnan(self.values)) or np.any(np.isneginf(self.values)):
            raise ValueError("table values must be finite or +inf")
        if not np.any(np.isfinite(self.values)):
            raise ValueError("table needs at least one finite value")

    def __repr__(self):
        finite = int(np.sum(np.isfinite(self.values)))
        return f"ValueTable({self.grid!r}, finite={finite}/{self.values.size})"


def tabulate(f, grid: SampleGrid) -> ValueTable:
    """Evaluate f on every lattice point of the grid."""
    if f.dim != grid.dim:
        raise DimensionMismatch(f"function dim {f.dim} != grid dim {grid.dim}")
    return ValueTable(grid, fn.evaluate_many(f, grid.points()))


def write_table_csv(table: ValueTable, path: str) -> None:
    """One row per lattice point: coordinates, then the value ('+inf' literal)."""
    P = table.grid.points()
    with open(path, "w", encoding="utf-8") as handle:
        for row, v in zip(P, table.values):
            coords = ",".join(repr(float(c)) for c in row)
            val = "+inf" if np.isinf(v) else repr(float(v))
            handle.write(f"{coords},{val}\n")


def read_csv_rows(path: str) -> np.ndarray:
    """A CSV file of decimals ('+inf' and 'nan' included) as an (n, width)
    array, skipping blank lines and '#' comments. A non-decimal field or a
    row of another width than the first raises ValueError naming path:line."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(p) for p in line.split(",")]
            except ValueError as exc:  # names the field
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}:{line_no}: expected {len(rows[0])} fields, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"no rows in {path}")
    return np.array(rows)


def read_table_csv(path: str) -> ValueTable:
    """Rebuild a ValueTable from rows of coordinates then value, read by
    ``read_csv_rows``, inferring the lattice; a partial lattice raises."""
    rows = read_csv_rows(path)
    coords, values = rows[:, :-1], rows[:, -1]
    dim = coords.shape[1]
    axes = [np.unique(coords[:, i]) for i in range(dim)]
    grid = SampleGrid([a[0] for a in axes], [a[-1] for a in axes], [a.size for a in axes])
    if coords.shape[0] != grid.size:
        raise ValueError(f"{path}: rows do not form a full lattice")
    # order rows into lattice order regardless of file order
    idx = np.zeros(coords.shape[0], dtype=int)
    for i in range(dim):
        pos = np.searchsorted(axes[i], coords[:, i])
        idx = idx * axes[i].size + pos
    # as many rows as points, so a repeated point leaves another out
    repeats = np.bincount(idx, minlength=grid.size)[idx] > 1
    if np.any(repeats):
        raise ValueError(f"{path}: lattice point {coords[np.argmax(repeats)].tolist()} repeats")
    ordered = np.empty(grid.size)
    ordered[idx] = values
    return ValueTable(grid, ordered)
