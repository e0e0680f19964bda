"""Assembly of the per-species diffusion operator with interface jump conditions.

The operator acts on the reduced DOF vector (right traces eliminated through
``value(x+) = p * value(x-)``).  Interior rows are plain central differences.
Each interface row balances the one-sided fluxes over the dual cell around the
interface; this closure is the two-point one-sided flux difference corrected
through the equation itself, which keeps it second order and makes the whole
matrix exactly symmetric under the weighted inner product whose weights are
the per-patch reciprocal jump products times the local quadrature weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .errors import ValidationError
from .grid import Grid, PiecewiseField
from .landscape import PatchEnvironment, SpeciesTraits


def _check_traits(grid: Grid, traits: SpeciesTraits) -> None:
    if traits.n != grid.n:
        raise ValidationError("traits are dimensioned for a different landscape")


def env_on_dofs(grid: Grid, env: PatchEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """Per-DOF growth rate and carrying capacity (constant within each patch)."""
    if env.n != grid.n:
        raise ValidationError("environment does not match the grid's landscape")
    patch_of = grid.patch_index_of_dofs()
    return env.r_array[patch_of], env.k_array[patch_of]


def full_mass(grid: Grid, traits: SpeciesTraits) -> np.ndarray:
    """Weighted trapezoid mass per full DOF: (1 / prod of jump ratios) * quad weight."""
    _check_traits(grid, traits)
    omega = 1.0 / traits.cumulative_scales()
    mass = np.empty(grid.num_dofs)
    for i in range(grid.n):
        h = grid.spacing(i)
        sl = grid.patch_slice(i)
        mass[sl] = omega[i] * h
        mass[sl.start] = omega[i] * h / 2.0
        mass[sl.stop - 1] = omega[i] * h / 2.0
    return mass


def reduced_weights(
    grid: Grid, traits: SpeciesTraits, mass: np.ndarray | None = None
) -> np.ndarray:
    """Symmetrization weights on the reduced DOFs (eliminated mass folded in).

    ``mass`` is ``full_mass(grid, traits)``, computed here unless passed in.
    """
    if mass is None:
        mass = full_mass(grid, traits)
    p = traits.p_array
    w = mass[grid.kept_indices()]
    for m in range(grid.n - 1):
        w[grid.reduced_trace_index(m)] += p[m] ** 2 * mass[grid.right_trace_index(m)]
    return w


def expand_reduced(grid: Grid, traits: SpeciesTraits, reduced: np.ndarray) -> np.ndarray:
    """Scatter a reduced vector to the full DOF layout (right traces filled in)."""
    _check_traits(grid, traits)
    reduced = np.asarray(reduced, dtype=float)
    if reduced.shape != (grid.num_reduced,):
        raise ValidationError("reduced vector has the wrong length")
    full = np.empty(grid.num_dofs)
    full[grid.kept_indices()] = reduced
    full[grid.right_trace_indices()] = traits.p_array * reduced[grid.reduced_trace_indices()]
    return full


def restrict_values(grid: Grid, full: np.ndarray) -> np.ndarray:
    """Keep the reduced DOFs of a full vector (left-trace convention)."""
    full = np.asarray(full, dtype=float)
    return full[grid.kept_indices()].copy()


def _restrict_weighted(
    grid: Grid,
    traits: SpeciesTraits,
    full_values: np.ndarray,
    trace_power: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    mass = full_mass(grid, traits)
    if weights is None:
        weights = reduced_weights(grid, traits, mass)
    p = traits.p_array
    num = mass * np.asarray(full_values, dtype=float)
    red = num[grid.kept_indices()]
    for m in range(grid.n - 1):
        red[grid.reduced_trace_index(m)] += p[m] ** trace_power * num[grid.right_trace_index(m)]
    return red / weights


def restrict_cell_average(grid: Grid, traits: SpeciesTraits, full_values) -> np.ndarray:
    """Mass-weighted restriction for residual-type quantities (reaction terms)."""
    return _restrict_weighted(grid, traits, full_values, trace_power=1)


def restrict_diagonal(
    grid: Grid, traits: SpeciesTraits, full_values, weights: np.ndarray | None = None
) -> np.ndarray:
    """Mass-weighted restriction for multiplicative coefficients (potentials).

    ``weights`` is ``reduced_weights(grid, traits)``, computed here unless
    passed in (an assembled operator carries them as ``op.weights``).
    """
    return _restrict_weighted(grid, traits, full_values, trace_power=2, weights=weights)


def consistent_constant(grid: Grid, traits: SpeciesTraits, amplitude: float = 1.0) -> np.ndarray:
    """Reduced vector of the jump-consistent piecewise-constant field."""
    _check_traits(grid, traits)
    scales = traits.cumulative_scales()
    out = np.empty(grid.num_reduced)
    for i in range(grid.n):
        # the patch slice ends at its own left trace, which carries this scale
        out[grid.reduced_patch_slice(i)] = amplitude * scales[i]
    return out


def tridiagonal_matvec(lo, di, up, x: np.ndarray) -> np.ndarray:
    """``A x`` for bands ``lo``/``di``/``up`` of shape ``(N,)``, or ``(M, N)``
    for M operators applied row by row (``lo[..., 0]``, ``up[..., -1]`` unused)."""
    y = di * x
    y[..., :-1] += up[..., :-1] * x[..., 1:]
    y[..., 1:] += lo[..., 1:] * x[..., :-1]
    return y


def symmetry_defects(lo, di, up, weights):
    """Max relative asymmetry of the weighted matrix W A, per row of ``(M, N)``
    bands (a 0-d array for ``(N,)`` bands)."""
    wu = weights[..., :-1] * up[..., :-1]
    wl = weights[..., 1:] * lo[..., 1:]
    scale = np.maximum(
        np.maximum(np.abs(weights * di).max(axis=-1), np.abs(wu).max(axis=-1)), 1e-300
    )
    return np.abs(wu - wl).max(axis=-1) / scale


def factor_tridiagonal(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """LU-factor the tridiagonal matrix with sub-, main and super-diagonals
    ``dl``, ``d``, ``du`` once (LAPACK gttrf); return the O(N) solve
    ``rhs -> x`` (gttrs), which keeps the shape of ``rhs`` and flattens it
    row-major.  Neither the bands nor the right-hand side are checked:
    callers pass finite ones.

    A zero in ``dl`` and ``du`` between rows k-1 and k splits the matrix into
    independent blocks, and each block's factor and solve are bit for bit
    those of the block on its own: the elimination never crosses the zero.
    A singular matrix raises LinAlgError.
    """
    dl, d, du, du2, ipiv, info = dgttrf(dl, d, du)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, _ = dgttrs(dl, d, du, du2, ipiv, rhs.ravel())
        return x.reshape(rhs.shape)

    return solve


@dataclass
class LinearOperator:
    """Tridiagonal operator over reduced DOFs plus its symmetrization weights.

    The bands are checked to be finite once, here, so the factorisations
    below check only what they are given per call.
    """

    grid: Grid
    traits: SpeciesTraits
    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.isfinite(np.concatenate((self.lo, self.di, self.up, self.weights))).all():
            raise ValueError("operator bands must be finite")

    @property
    def size(self) -> int:
        return self.di.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return tridiagonal_matvec(self.lo, self.di, self.up, np.asarray(x, dtype=float))

    def add_diagonal(self, diag) -> "LinearOperator":
        return LinearOperator(
            self.grid, self.traits, self.lo.copy(), self.di + diag, self.up.copy(),
            self.weights.copy(),
        )

    def banded(self) -> np.ndarray:
        """(3, N) band storage (upper, main, lower), as scipy's solve_banded takes."""
        ab = np.zeros((3, self.size))
        ab[0, 1:] = self.up[:-1]
        ab[1, :] = self.di
        ab[2, :-1] = self.lo[1:]
        return ab

    def factor_shifted(self, alpha, beta: float = 1.0):
        """LU-factor ``diag(alpha) + beta * A`` once (LAPACK gttrf); return the
        O(N) solve ``rhs -> x`` (gttrs).  ``alpha`` is a scalar or a diagonal.

        A non-finite ``alpha`` or right-hand side raises ValueError, a
        singular matrix LinAlgError.
        """
        alpha = np.asarray_chkfinite(alpha, dtype=float)
        solve = factor_tridiagonal(
            beta * self.lo[1:], alpha + beta * self.di, beta * self.up[:-1]
        )
        return lambda rhs: solve(np.asarray_chkfinite(rhs, dtype=float))

    def factor_symmetric(self, alpha, beta: float = 1.0):
        """As ``factor_shifted``, by LDLᵀ (LAPACK pttrf/pttrs), for A symmetric
        in its weights and ``diag(alpha) + beta * A`` positive definite.

        The factor is of ``S (alpha + beta A) S⁻¹``, ``S = diag(sqrt(weights))``,
        whose off-diagonal is that of ``symmetrized_bands`` (rows scaled by the
        weights instead lose accuracy).  An asymmetric A or non-finite input
        raises ValueError, a matrix that is not positive definite LinAlgError.
        """
        if self.symmetry_defect() > 1e-10:
            raise ValueError("operator is not symmetric in its weights")
        _, off = self.symmetrized_bands()
        alpha = np.asarray_chkfinite(alpha, dtype=float)
        d, e, info = dpttrf(alpha + beta * self.di, beta * off)
        if info > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        s = np.sqrt(self.weights)

        def solve(rhs: np.ndarray) -> np.ndarray:
            x, _ = dpttrs(d, e, s * np.asarray_chkfinite(rhs, dtype=float), overwrite_b=1)
            return x / s

        return solve

    def solve_shifted(self, sigma: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (sigma * I - A) x = rhs."""
        return self.factor_shifted(sigma, -1.0)(rhs)

    def dense(self) -> np.ndarray:
        a = np.diag(self.di)
        a += np.diag(self.up[:-1], k=1)
        a += np.diag(self.lo[1:], k=-1)
        return a

    def symmetrized_bands(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the weight-similarity transformed matrix."""
        ratio = np.sqrt(self.weights[:-1] / self.weights[1:])
        return self.di.copy(), ratio * self.up[:-1]

    def symmetry_defect(self) -> float:
        """Max relative asymmetry of the weighted matrix W A."""
        return float(symmetry_defects(self.lo, self.di, self.up, self.weights))


def assemble_diffusion(
    grid: Grid, traits: SpeciesTraits, mass: np.ndarray | None = None
) -> LinearOperator:
    """Per-species diffusion operator on the reduced DOFs.

    Built from the weighted stiffness of piecewise-linear elements with the
    right traces eliminated, then divided by the lumped weighted mass.  The
    jump-consistent piecewise constant spans its kernel and the weighted
    matrix is exactly symmetric.  ``mass`` is ``full_mass(grid, traits)``,
    computed here unless passed in.
    """
    _check_traits(grid, traits)
    scales = traits.cumulative_scales()
    omega = 1.0 / scales
    p = traits.p_array
    size = grid.num_reduced

    k_di = np.zeros(size)
    k_up = np.zeros(size)  # k_up[j] couples reduced DOFs j and j+1
    for i in range(grid.n):
        c = omega[i] * traits.d[i] / grid.spacing(i)
        start = 0 if i == 0 else grid.reduced_trace_index(i - 1)
        count = grid.counts[i]
        rho = 1.0 if i == 0 else p[i - 1]
        k_di[start] += rho * rho * c
        k_di[start + 1 : start + count] += 2.0 * c
        k_di[start + count] += c
        k_up[start] += -rho * c
        k_up[start + 1 : start + count] += -c

    weights = reduced_weights(grid, traits, mass)
    di = -k_di / weights
    up = np.zeros(size)
    lo = np.zeros(size)
    up[:-1] = -k_up[:-1] / weights[:-1]
    lo[1:] = -k_up[:-1] / weights[1:]
    return LinearOperator(grid, traits, lo, di, up, weights)


def apply_to_field(op: LinearOperator, field: PiecewiseField) -> np.ndarray:
    """Apply the reduced operator to a full field (taken by its left traces)."""
    return op.matvec(restrict_values(op.grid, field.values))


class SpeciesLayout:
    """Masses and weights for one species on one grid, with its index maps.

    The index arrays are the grid's own cached, read-only ones.  The
    expansion / restriction helpers above recompute the species' masses and
    weights on every call; the steady solve, which restricts many times on
    one grid, goes through this object instead.  Its arithmetic is that of
    the helpers, so results are bit-for-bit the same.
    """

    def __init__(self, grid: Grid, traits: SpeciesTraits):
        _check_traits(grid, traits)
        self.grid = grid
        self.traits = traits
        self.kept = grid.kept_indices()
        self.right = grid.right_trace_indices()
        self.trace = grid.reduced_trace_indices()
        self.p = traits.p_array
        self.p2 = self.p**2
        self.mass = full_mass(grid, traits)
        self.weights = reduced_weights(grid, traits, self.mass)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        full = np.empty(self.grid.num_dofs)
        full[self.kept] = reduced
        if self.right.size:
            full[self.right] = self.p * reduced[self.trace]
        return full

    def _restrict(self, full_values: np.ndarray, trace_factor: np.ndarray) -> np.ndarray:
        num = self.mass * full_values
        red = num[self.kept]
        if self.right.size:
            red[self.trace] += trace_factor * num[self.right]
        return red / self.weights

    def restrict_avg(self, full_values: np.ndarray) -> np.ndarray:
        """As ``restrict_cell_average`` (reaction terms)."""
        return self._restrict(full_values, self.p)

    def restrict_diag(self, full_values: np.ndarray) -> np.ndarray:
        """As ``restrict_diagonal`` (multiplicative coefficients)."""
        return self._restrict(full_values, self.p2)
