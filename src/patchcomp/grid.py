"""Finite-difference grids over the patch union and fields living on them.

Every interior interface carries two collocated degrees of freedom, one per
one-sided trace, because the density is genuinely discontinuous there.  The
full DOF vector concatenates the per-patch node values; solvers work in a
reduced vector that drops each right trace (it is slaved to the left trace
through the species' jump ratio).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import GridResolutionError, ValidationError
from .landscape import Landscape, SpeciesTraits

CSV_HEADER = "patch_index,x,value"


def format_value(x: float) -> str:
    """A number as every CSV writes it: 17 significant digits, which round-trip."""
    return f"{x:.17g}"


def _read_only(values, dtype=int) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


class _Layout(NamedTuple):
    """A grid's index maps: read-only integer arrays and per-patch slices."""

    offsets: np.ndarray
    patch_slices: tuple[slice, ...]
    left: np.ndarray
    right: np.ndarray
    reduced_trace: np.ndarray
    reduced_patch_slices: tuple[slice, ...]
    kept: np.ndarray
    patch_of: np.ndarray
    trapezoid: np.ndarray


@dataclass(frozen=True)
class Grid:
    """Per-patch uniform node layout with duplicated interface nodes."""

    landscape: Landscape
    counts: tuple[int, ...]

    def __init__(self, landscape: Landscape, counts):
        counts = tuple(int(c) for c in counts)
        if len(counts) != landscape.n:
            raise ValidationError("need one subinterval count per patch")
        if any(c < 2 for c in counts):
            raise ValidationError("each patch needs at least 2 subintervals")
        object.__setattr__(self, "landscape", landscape)
        object.__setattr__(self, "counts", counts)

    def __getstate__(self):
        # pickle the fields only: the layout cache is rebuilt on first use
        return {"landscape": self.landscape, "counts": self.counts}

    @cached_property
    def _layout(self) -> _Layout:
        """Index maps of this grid, built on first use and kept for its lifetime.

        ``cached_property`` writes the instance ``__dict__`` directly, so it
        works on the frozen dataclass; equality and hashing read the fields
        only.
        """
        offsets = [0, *accumulate(c + 1 for c in self.counts)]
        left = [offsets[m] + self.counts[m] for m in range(self.n - 1)]
        right = offsets[1:-1]  # the first node of the next patch
        kept = np.ones(offsets[-1], dtype=bool)
        kept[right] = False
        patch_of = np.concatenate([np.full(c + 1, i) for i, c in enumerate(self.counts)])
        trapezoid = (np.diff(self.landscape.boundaries) / np.array(self.counts))[patch_of]
        trapezoid[offsets[:-1]] /= 2.0
        trapezoid[np.array(offsets[1:]) - 1] /= 2.0
        return _Layout(
            offsets=_read_only(offsets),
            patch_slices=tuple(slice(a, b) for a, b in zip(offsets, offsets[1:])),
            left=_read_only(left),
            right=_read_only(right),
            reduced_trace=_read_only([j - m for m, j in enumerate(left)]),
            reduced_patch_slices=tuple(
                slice(offsets[i] - i + (1 if i > 0 else 0), offsets[i + 1] - i)
                for i in range(self.n)
            ),
            kept=_read_only(np.flatnonzero(kept)),
            patch_of=_read_only(patch_of),
            trapezoid=_read_only(trapezoid, float),
        )

    # --- full DOF layout -------------------------------------------------

    @property
    def n(self) -> int:
        return self.landscape.n

    @property
    def num_dofs(self) -> int:
        return int(self._layout.offsets[-1])

    @property
    def num_reduced(self) -> int:
        return self.num_dofs - (self.n - 1)

    def offsets(self) -> np.ndarray:
        """Full index where each patch starts, then the total DOF count (read-only)."""
        return self._layout.offsets

    def patch_slice(self, i: int) -> slice:
        return self._layout.patch_slices[i]

    def spacing(self, i: int) -> float:
        a, b = self.landscape.patch_bounds(i)
        return (b - a) / self.counts[i]

    def patch_nodes(self, i: int) -> np.ndarray:
        a, b = self.landscape.patch_bounds(i)
        return np.linspace(a, b, self.counts[i] + 1)

    def full_x(self) -> np.ndarray:
        return np.concatenate([self.patch_nodes(i) for i in range(self.n)])

    def patch_index_of_dofs(self) -> np.ndarray:
        """Patch index of every full DOF (read-only)."""
        return self._layout.patch_of

    def trapezoid_weights(self) -> np.ndarray:
        """Composite-trapezoid quadrature weight of every full DOF (read-only)."""
        return self._layout.trapezoid

    def left_trace_index(self, m: int) -> int:
        """Full index of the left trace at interior interface m (0-based)."""
        return int(self._layout.left[m])

    def right_trace_index(self, m: int) -> int:
        """Full index of the right trace at interior interface m."""
        return int(self._layout.right[m])

    def right_trace_indices(self) -> np.ndarray:
        """Full indices of the right traces, one per interface (read-only)."""
        return self._layout.right

    # --- reduced layout ---------------------------------------------------

    def kept_indices(self) -> np.ndarray:
        """Full indices retained in the reduced vector (right traces dropped; read-only)."""
        return self._layout.kept

    def reduced_trace_index(self, m: int) -> int:
        """Reduced index of the (left) trace DOF at interface m."""
        return int(self._layout.reduced_trace[m])

    def reduced_trace_indices(self) -> np.ndarray:
        """Reduced indices of the trace DOFs, one per interface (read-only)."""
        return self._layout.reduced_trace

    def reduced_patch_slice(self, i: int) -> slice:
        """Reduced indices whose values belong to patch i (its left trace included)."""
        return self._layout.reduced_patch_slices[i]


def build_grid(
    landscape: Landscape,
    target_h: float | None = None,
    per_patch: int | list | tuple | None = None,
    min_subintervals: int = 4,
) -> Grid:
    """Build a near-uniform grid from a target spacing or explicit counts.

    With ``target_h`` each patch gets ``round(length/h)`` subintervals; a patch
    that would receive fewer than ``min_subintervals`` raises, suggesting a
    finer resolution.
    """
    if per_patch is not None:
        if np.isscalar(per_patch):
            counts = [int(per_patch)] * landscape.n
        else:
            counts = [int(c) for c in per_patch]
    else:
        if target_h is None or target_h <= 0:
            raise ValidationError("resolution must be a positive spacing or explicit counts")
        counts = [max(1, round(length / target_h)) for length in landscape.patch_lengths]
    for i, c in enumerate(counts):
        if c < min_subintervals:
            raise GridResolutionError(
                f"patch {i + 1} receives only {c} subintervals "
                f"(minimum {min_subintervals}); use a finer resolution"
            )
    return Grid(landscape, counts)


@dataclass
class PiecewiseField:
    """Values at every DOF of a grid, with access to both interface traces."""

    grid: Grid
    values: np.ndarray

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (grid.num_dofs,):
            raise ValidationError(
                f"field needs {grid.num_dofs} values, got {values.shape}"
            )
        self.grid = grid
        self.values = values

    def patch_values(self, i: int) -> np.ndarray:
        return self.values[self.grid.patch_slice(i)]

    def left_trace(self, m: int) -> float:
        return float(self.values[self.grid.left_trace_index(m)])

    def right_trace(self, m: int) -> float:
        return float(self.values[self.grid.right_trace_index(m)])

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def jump_consistency_error(self, traits: SpeciesTraits) -> float:
        """Largest relative mismatch of right trace vs ratio * left trace."""
        p = traits.p_array
        if p.size != self.grid.n - 1:
            raise ValidationError("traits do not match the grid's landscape")
        worst = 0.0
        for m in range(self.grid.n - 1):
            left = self.left_trace(m)
            right = self.right_trace(m)
            scale = max(abs(right), abs(p[m] * left), 1e-300)
            worst = max(worst, abs(right - p[m] * left) / scale)
        return worst

    def is_jump_consistent(self, traits: SpeciesTraits) -> bool:
        """Whether every right trace is its ratio times the left one, to 1e-12."""
        return self.grid.n == 1 or self.jump_consistency_error(traits) <= 1e-12

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        patch_of = self.grid.patch_index_of_dofs()
        xs = self.grid.full_x()
        for j in range(self.grid.num_dofs):
            buf.write(f"{patch_of[j] + 1},{format_value(xs[j])},{format_value(self.values[j])}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def integrate_field(field: PiecewiseField) -> float:
    """Composite trapezoid integral over the whole patch union (total biomass)."""
    total = 0.0
    for i in range(field.grid.n):
        total += float(np.trapezoid(field.patch_values(i), dx=field.grid.spacing(i)))
    return total


def patch_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Nodal derivative within one patch: central inside, 3-point one-sided ends."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValidationError("derivative stencils need at least 3 nodes per patch")
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    dv[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return dv


def one_sided_from_left(values: np.ndarray, h: float) -> float:
    """Second-order derivative at the right end of a node run, from inside."""
    v = np.asarray(values, dtype=float)
    return float((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h))


def one_sided_from_right(values: np.ndarray, h: float) -> float:
    """Second-order derivative at the left end of a node run, from inside."""
    v = np.asarray(values, dtype=float)
    return float((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h))
