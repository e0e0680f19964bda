"""The reduced-DOF format and the per-species diffusion operator on it.

Edge behaviour enters through the interface condition ``u(x+) = p * u(x-)``.
The solvers work on the reduced DOF vector, which drops each right trace and
rebuilds it as ``p`` times the left trace; the eliminated trace's mass is
folded into its trace DOF, times ``p`` for cell averages and ``p²`` for
coefficients.  ``SpeciesLayout`` is the one implementation of that format:
per species, or per stack of species, it builds the masses and weights once
and expands and restricts with them, and it folds the eliminated traces into
the logistic reaction's coefficients (``logistic_coefficients``), which the
steady solve and the time step share.  ``expand_reduced``, the ``restrict_*``
helpers and ``consistent_constant`` are one-call conveniences that build a
layout for a single use.

The operator acts on the reduced vector.  Interior rows are plain central
differences.  Each interface row balances the one-sided fluxes over the dual
cell around the interface; this closure is the two-point one-sided flux
difference corrected through the equation itself, which keeps it second order
and makes the whole matrix exactly symmetric under the weighted inner product
whose weights are the layout's (the per-patch reciprocal jump products times
the local quadrature weight).

Every solver reaches its tridiagonal operators through one convention, owned
here: bands ``lo``/``di``/``up`` of shape ``(N,)`` for one operator, or
``(M, N)`` for a stack of M, whose unused corners (``lo[..., 0]`` and
``up[..., -1]``) are zero, so that the stack laid end to end is one
block-diagonal tridiagonal matrix (``diffusion_bands`` assembles them so).
These operations on it serve the package: ``tridiagonal_matvec``, the
product; ``factor_blocks``, the one LU and its solve (LAPACK
gttrf/gttrs), for Newton and ``solve_shifted``; ``factor_symmetrized``, the one LDLᵀ of
``alpha - beta S A S⁻¹`` on the ``symmetrizing_similarity`` of the
couplings, for the IMEX step; and the solvers' inner loops,
``noda_pass``, one pass of Noda's shifted inverse iteration (on the same
LDLᵀ), and ``logistic_residual``, the steady residual and its Jacobian's
diagonal.  The similarity depends on the couplings alone, so its callers
build it once per operator they hold: once per mutant of a scan, once per
stepper.  The zero corners keep the blocks apart: each block's arithmetic is
bit for bit that of its operator on its own, and the solves take M
right-hand-side rows of one operator as M single solves.  ``stack_chunks``
is the one cut of a long stack into stacked solves of at most
``_STACK_DOFS`` reduced DOFs, for the steady states, the mutant stacks and
the eigen pairs of a scan.

Each operation has two routes with the same arithmetic, bit for bit.  The
native kernel ``_ldlt.c``, which ``_native`` builds on first import, runs
each in one call: the LDLᵀ does pttrf's and pttrs's operations on every
element but walks the rows in its outer loop and the blocks (times the
right-hand sides) in its inner one, so the blocks' recurrences overlap
instead of running end to end as one chain; the LU is reference dgttrf and
dgtts2, the same operations and pivots as scipy's; ``noda_pass`` and
``logistic_residual`` share its one band product, and the pass sums its
Rayleigh quotient in numpy's pairwise order.  Where the kernel cannot be
built or loaded (``_ldlt`` is then None), LAPACK, imported from scipy on
first use, and numpy run instead.  ``factor_symmetrized`` returns a
``SymmetrizedFactor``, whose call is the solve; on the kernel's factor of a
two-species stack its ``pair_step`` is the whole IMEX step of
``dynamics.Stepper`` in one kernel call: the competition right-hand side,
both sweeps of the solve and the division by the similarity's scale, with
the two species as the two lanes of one vector.  This module is the only
one that calls LAPACK or the kernel.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._native import load_ldlt
from .errors import EigenSolveError, ValidationError
from .grid import Grid
from .landscape import PatchEnvironment, SpeciesTraits

# The native kernel, or None (LAPACK and numpy instead).
_ldlt = load_ldlt()


@cache
def _lapack():
    """scipy's LAPACK wrappers, imported on first use: only the route without
    the kernel calls them, so a package with the kernel never imports scipy."""
    from scipy.linalg import lapack

    return lapack


# One stacked solve (steady states or eigenpairs) holds at most this many
# reduced DOFs (and at least one block), so a long scan on a fine grid keeps
# only a few copies of its bands and iterates at a time.  Past a few thousand
# DOFs per solve the LAPACK calls dominate and a larger stack gains nothing.
_STACK_DOFS = 1 << 14


def stack_chunks(count: int, size: int) -> Iterator[slice]:
    """Consecutive slices of ``count`` blocks of ``size`` reduced DOFs, each
    one stacked solve's worth: at most ``_STACK_DOFS`` DOFs, and at least
    one block."""
    step = max(1, _STACK_DOFS // size)
    for start in range(0, count, step):
        yield slice(start, start + step)


def env_on_dofs(grid: Grid, env: PatchEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """Per-DOF growth rate and carrying capacity (constant within each patch)."""
    if env.n != grid.n:
        raise ValidationError("environment does not match the grid's landscape")
    patch_of = grid.patch_index_of_dofs()
    return env.r_array[patch_of], env.k_array[patch_of]


def expand_reduced(grid: Grid, traits: SpeciesTraits, reduced: np.ndarray) -> np.ndarray:
    """Scatter a reduced vector to the full DOF layout (right traces filled in)."""
    reduced = np.asarray(reduced, dtype=float)
    if reduced.shape != (grid.num_reduced,):
        raise ValidationError("reduced vector has the wrong length")
    return SpeciesLayout(grid, traits).expand(reduced)


def restrict_values(grid: Grid, full: np.ndarray) -> np.ndarray:
    """Keep the reduced DOFs of a full vector (left-trace convention)."""
    return np.asarray(full, dtype=float)[grid.kept_indices()]


def restrict_cell_average(grid: Grid, traits: SpeciesTraits, full_values) -> np.ndarray:
    """Mass-weighted restriction for residual-type quantities (reaction terms)."""
    return SpeciesLayout(grid, traits).restrict_avg(np.asarray(full_values, dtype=float))


def restrict_diagonal(grid: Grid, traits: SpeciesTraits, full_values) -> np.ndarray:
    """Mass-weighted restriction for multiplicative coefficients (potentials)."""
    return SpeciesLayout(grid, traits).restrict_diag(np.asarray(full_values, dtype=float))


def consistent_constant(grid: Grid, traits: SpeciesTraits) -> np.ndarray:
    """Reduced vector of the jump-consistent piecewise-constant field."""
    return SpeciesLayout(grid, traits).fill(traits.cumulative_scales())


def tridiagonal_matvec(lo, di, up, x: np.ndarray) -> np.ndarray:
    """``A x`` for a stack in the one convention (see the module docstring):
    bands and ``x`` of shape ``(N,)``, or ``(M, N)`` for M operators applied
    row by row, computed on the stack laid end to end (so a non-finite entry
    of ``x`` reaches the next block through its zero corner, which LAPACK's
    solves share but the interleaved LDLᵀ kernel's do not; no caller solves
    a non-finite right-hand side)."""
    xs = x.reshape(-1)
    y = di.reshape(-1) * xs
    y[:-1] += up.reshape(-1)[:-1] * xs[1:]
    y[1:] += lo.reshape(-1)[1:] * xs[:-1]
    return y.reshape(x.shape)


def _columns(rhs: np.ndarray, size: int) -> np.ndarray:
    """``rhs`` as LAPACK right-hand-side columns of length ``size``: a stack
    laid end to end is one column, M rows of one operator are M columns (the
    C-order rows are the Fortran-order columns of the transpose, no copy)."""
    return rhs.reshape(-1, size).T


def factor_blocks(lo: np.ndarray, di: np.ndarray, up: np.ndarray, rhs: np.ndarray):
    """LU-factor the stack's block-diagonal matrix (LAPACK gttrf) and return
    the solve ``x`` of ``rhs`` (gttrs), shaped as ``rhs``: the stack's
    ``(M, N)`` rows (or ``(N,)`` for one operator), each block solved bit for
    bit as on its own, or M rows of a single operator, each solved as its
    own solve.  Neither the bands nor the right-hand side are checked:
    callers pass finite ones.  A singular matrix raises LinAlgError.

    The kernel factors and solves in one call, with a C copy of reference
    LAPACK's dgttrf and dgtts2 (the same operations and pivots), so both
    routes give scipy's numbers bit for bit.
    """
    if _ldlt is None:
        lapack = _lapack()
        dl, d, du, du2, ipiv, info = lapack.dgttrf(lo.ravel()[1:], di.ravel(), up.ravel()[:-1])
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        x, _ = lapack.dgttrs(dl, d, du, du2, ipiv, _columns(rhs, d.size))
        return x.T.reshape(rhs.shape)
    bands = [np.ascontiguousarray(band, dtype=float) for band in (lo, di, up)]
    x = np.array(rhs, dtype=float, order="C")
    if not _ldlt.gttrf(*bands, np.empty(4 * di.size), np.empty(di.size, np.intc), x):
        raise np.linalg.LinAlgError("singular matrix")
    return x


def logistic_residual(lo, di, up, a, b, u):
    """The steady residual ``A u + u (a - b u)`` of a stack in the one
    convention and its Jacobian's diagonal ``di + a - 2 b u``: one kernel
    call, or numpy's with the same operations, bit for bit.  Every argument
    has ``u``'s shape; ``u`` is unchecked."""
    if _ldlt is None:
        bu = b * u
        res = tridiagonal_matvec(lo, di, up, u)
        res += u * (a - bu)
        slope = a - 2.0 * bu
        slope += di
        return res, slope
    u = np.ascontiguousarray(u, dtype=float)
    res, slope = np.empty(u.shape), np.empty(u.shape)
    _ldlt.residual(lo, di, up, a, b, u, res, slope)
    return res, slope


def symmetrizing_similarity(lo: np.ndarray, up: np.ndarray):
    """The diagonal similarity ``S = diag(s)`` that makes a stack with
    positive couplings symmetric, block by block: ``(s, s², off)``.

    ``s[0] = 1`` and ``s[i+1] = s[i] sqrt(up[i] / lo[i+1])`` in each block,
    so ``S A S⁻¹`` is symmetric with off-diagonal ``off``,
    ``sqrt(lo[i+1] up[i])`` and a 0 in each block's last column; for an
    operator symmetric in its weights ``s²`` is proportional to them.  When
    the couplings are far from symmetric over many rows ``s²`` leaves the
    floating-point range, which raises ValueError.
    """
    s = np.ones(lo.shape)
    with np.errstate(over="ignore"):  # checked below
        s[..., 1:] = np.cumprod(np.sqrt(up[..., :-1] / lo[..., 1:]), axis=-1)
        weights = s * s
    if not (np.isfinite(weights.max()) and weights.min() > 0):
        raise ValueError(
            "operator couplings are too far from symmetric for a symmetric "
            "similarity in floating point"
        )
    off = np.zeros(lo.shape)
    off[..., :-1] = np.sqrt(lo[..., 1:] * up[..., :-1])
    return s, weights, off


def factor_symmetrized(di: np.ndarray, off: np.ndarray, alpha, beta: float = 1.0):
    """LDLᵀ-factor ``alpha - beta S A S⁻¹`` once, from the stack's main
    diagonal ``di`` and the ``off`` of its ``symmetrizing_similarity``;
    ``alpha`` is a scalar, a diagonal, or one value per block (an ``(M, 1)``
    column).  Returns the ``SymmetrizedFactor``, whose call is the solve
    ``b -> y`` of ``(alpha - beta S A S⁻¹) y = b`` for a ``b`` already
    scaled by ``s``.

    The interleaved kernel (see the module docstring) factors it, with a
    stack's blocks side by side, or LAPACK's pttrf where the kernel did not
    load; the solve is the kernel's or pttrs.  The factor and the solve of
    finite right-hand sides are bit for bit the same on both routes, and
    both refuse the same shifts.  A non-finite ``alpha`` or ``beta`` raises
    ValueError, a matrix that is not positive definite LinAlgError.
    """
    if not (np.isfinite(alpha).all() and np.isfinite(beta)):
        raise ValueError("shift must be finite")
    d = (alpha - beta * di).ravel()
    e = (-beta * off).ravel()
    n = di.shape[-1]
    if _ldlt is None:
        d, e, info = _lapack().dpttrf(d, e[:-1], overwrite_d=1, overwrite_e=1)
        positive = info == 0
    else:
        positive = _ldlt.factor(d, e, n)
    if not positive:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return SymmetrizedFactor(d, e, n, _ldlt)


class SymmetrizedFactor:
    """The LDLᵀ factor ``factor_symmetrized`` returns: ``d`` and ``e`` of the
    stack laid end to end, its block size ``n`` and the kernel that made it
    (None for LAPACK, whose ``e`` drops the last corner)."""

    __slots__ = ("d", "e", "n", "kernel")

    def __init__(self, d: np.ndarray, e: np.ndarray, n: int, kernel):
        self.d, self.e, self.n, self.kernel = d, e, n, kernel

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """The solve ``y`` of a ``b`` shaped as ``factor_blocks`` takes it;
        ``b`` is unchecked and, when C-contiguous, overwritten (``y`` is then
        ``b``; any other ``b`` is solved on a copy)."""
        if self.kernel is None:
            y, _ = _lapack().dpttrs(self.d, self.e, _columns(b, self.d.size), overwrite_b=1)
            return y.T.reshape(b.shape)
        y = b if b.flags.c_contiguous else np.ascontiguousarray(b)
        self.kernel.solve(self.d, self.e, self.n, y)
        return y

    def pair_step(self, coefficients: np.ndarray, w: np.ndarray) -> np.ndarray | None:
        """The IMEX step of a two-species pair in one kernel call, for a
        factor of two blocks of ``n`` rows, one per species:
        ``solve(w (sa - (sc x + sb w))) / s`` in a fresh array, ``x`` the
        other species, ``w`` a ``(2, n)`` state or an ``(M, 2, n)`` stack of
        runs and ``coefficients`` the C-contiguous ``(4, 2, n)`` rows
        ``sa, sb, sc, s``; bit for bit the same arithmetic as forming the
        right-hand side with numpy and solving it.  ``w`` is not written.
        None, having done nothing a caller sees, where the factor is
        LAPACK's, ``w`` is not a C-contiguous float64 stack of pairs, or an
        entry of the right-hand side is negative, infinite or NaN."""
        if (self.kernel is None or w.shape[-2:] != (2, self.n) or w.dtype != np.float64
                or not w.flags.c_contiguous):
            return None
        out = np.empty(w.shape)
        return out if self.kernel.step(self.d, self.e, self.n, coefficients, w, out) else None


# noda_pass's kernel outcomes that are not a count of stopped blocks
_NODA_FAILURES = {
    -1: "shifted operator is not positive definite; the principal eigenpair is "
        "not isolated at this resolution; refine grid",
    -2: "principal eigenpair not isolated at this resolution; refine grid",
}


def noda_pass(bands, similarity, margin, least, tol: float, x: np.ndarray, solve: bool = True):
    """One pass of Noda's shifted inverse iteration on an ``(M, N)`` stack
    (``eigen`` runs the loop): returns per block the Rayleigh quotient
    ``theta`` of ``x`` weighted by ``s²``, the residual ``max|A x - theta x|``
    and whether it stopped, ``residual <= max(tol |theta|, least)``.  When
    ``solve`` holds, each block that did not stop has its row of ``x``
    replaced, in place, by the next iterate: the solve ``y`` of
    ``(sigma - A) y = x`` as ``S⁻¹ (sigma - S A S⁻¹)⁻¹ S x`` by the one
    LDLᵀ, ``sigma`` the Collatz-Wielandt bound ``max (A x) / x`` plus the
    block's ``margin``, checked positive and divided by its max
    (``sigma - A`` is an M-matrix, so the solve of a positive iterate stays
    positive unless the top eigenpair is not resolved).

    ``bands`` are ``(lo, di, up)``, ``similarity`` their
    ``symmetrizing_similarity`` ``(s, s², off)``, and ``x`` is C-contiguous.
    One kernel call, or numpy's and LAPACK's with the same operations, bit
    for bit: both sum the quotient's two dots in numpy's pairwise order
    (``np.add.reduce`` along a row).  A non-finite shift raises ValueError;
    a shifted matrix that is not positive definite, or a next iterate that
    is not positive, EigenSolveError.
    """
    lo, di, up = bands
    s, weights, off = similarity
    if _ldlt is not None:
        theta, res, done = np.empty(len(x)), np.empty(len(x)), np.empty(len(x), bool)
        outcome = _ldlt.noda(lo, di, up, s, weights, off, x, x.shape[-1], margin, least,
                             theta, res, done, tol, solve)
        if outcome == -3:
            raise ValueError("shift must be finite")
        if outcome < 0:
            raise EigenSolveError(_NODA_FAILURES[outcome])
        return theta, res, done
    ax = tridiagonal_matvec(lo, di, up, x)
    wx = weights * x
    theta = np.add.reduce(wx * ax, axis=-1) / np.add.reduce(wx * x, axis=-1)
    res = np.abs(ax - theta[:, None] * x).max(axis=-1)
    done = res <= np.maximum(tol * np.abs(theta), least)
    stopped = np.count_nonzero(done)
    if solve and stopped < done.size:
        going, xs = slice(None), x
        if stopped:  # only the blocks still going are solved
            going = ~done
            ax, xs, s, di, off, margin = (a[going] for a in (ax, x, s, di, off, margin))
        sigma = (ax / xs).max(axis=-1) + margin
        try:
            factor = factor_symmetrized(di, off, sigma[:, None])
        except np.linalg.LinAlgError:
            raise EigenSolveError(_NODA_FAILURES[-1]) from None
        y = factor(s * xs)
        y /= s
        if not y.min() > 0:
            raise EigenSolveError(_NODA_FAILURES[-2])
        y /= y.max(axis=-1, keepdims=True)
        x[going] = y
    return theta, res, done


@dataclass
class LinearOperator:
    """Tridiagonal operator over reduced DOFs plus its symmetrization weights.

    The bands are checked to be finite once, here, so the solves on them
    check only what they are given per call.
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
        """(3, N) band storage (upper, main, lower), LAPACK's general band layout."""
        ab = np.zeros((3, self.size))
        ab[0, 1:] = self.up[:-1]
        ab[1, :] = self.di
        ab[2, :-1] = self.lo[1:]
        return ab

    def solve_shifted(self, sigma: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (sigma * I - A) x = rhs by the one LU; a non-finite ``sigma``
        or ``rhs`` raises ValueError."""
        shifted = np.asarray_chkfinite(sigma, dtype=float) - self.di
        return factor_blocks(-self.lo, shifted, -self.up, np.asarray_chkfinite(rhs, dtype=float))

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
        wu = self.weights[:-1] * self.up[:-1]
        wl = self.weights[1:] * self.lo[1:]
        scale = max(float(np.abs(self.weights * self.di).max()), float(np.abs(wu).max()), 1e-300)
        return float(np.abs(wu - wl).max()) / scale


def assemble_diffusion(
    grid: Grid, traits: SpeciesTraits, layout: "SpeciesLayout | None" = None
) -> LinearOperator:
    """Per-species diffusion operator on the reduced DOFs.

    Built from the weighted stiffness of piecewise-linear elements with the
    right traces eliminated, then divided by the lumped weighted mass.  The
    jump-consistent piecewise constant spans its kernel and the weighted
    matrix is exactly symmetric.  ``layout`` is the species' ``SpeciesLayout``
    (its weights become the operator's), built here unless passed in.
    """
    if layout is None:
        layout = SpeciesLayout(grid, traits)
    return LinearOperator(grid, traits, *_stiffness_bands(layout, traits.d_array), layout.weights)


def diffusion_bands(
    grid: Grid, traits
) -> tuple["SpeciesLayout", np.ndarray, np.ndarray, np.ndarray]:
    """The layout and the ``assemble_diffusion`` bands (lo, di, up) of one
    species, ``(N,)`` each, or of a stack of them, ``(M, N)``, assembled at
    once; ``traits`` is one ``SpeciesTraits`` or a sequence, as for
    ``SpeciesLayout``.  Each row is bit for bit its species' operator, and
    the unused corners are zero, as the stack convention wants."""
    layout = SpeciesLayout(grid, traits)
    if isinstance(traits, SpeciesTraits):
        d = traits.d_array
    else:
        d = np.array([one.d for one in traits], dtype=float).reshape(-1, grid.n)
    return (layout, *_stiffness_bands(layout, d))


def _stiffness_bands(layout: "SpeciesLayout", d: np.ndarray):
    """``assemble_diffusion``'s bands for the layout's species, whose
    diffusion rates ``d`` hold one row per species of a stack."""
    grid = layout.grid
    # indexed through .T, which reaches the last axis of either shape
    omega, p, size = (1.0 / layout.scales).T, layout.p.T, grid.num_reduced
    shape = d.shape[:-1] + (size,)
    k_di = np.zeros(shape)
    k_up = np.zeros(shape)  # k_up[j] couples reduced DOFs j and j+1
    di_t, up_t = k_di.T, k_up.T
    for i in range(grid.n):
        c = omega[i] * d.T[i] / grid.spacing(i)
        start = 0 if i == 0 else grid.reduced_trace_index(i - 1)
        count = grid.counts[i]
        rho = 1.0 if i == 0 else p[i - 1]
        di_t[start] += rho * rho * c
        di_t[start + 1 : start + count] += 2.0 * c
        di_t[start + count] += c
        up_t[start] += -rho * c
        up_t[start + 1 : start + count] += -c

    weights = layout.weights.T
    di = -k_di / layout.weights
    up = np.zeros(shape)
    lo = np.zeros(shape)
    up.T[:-1] = -up_t[:-1] / weights[:-1]
    lo.T[1:] = -up_t[:-1] / weights[1:]
    return lo, di, up


class SpeciesLayout:
    """The reduced-DOF format of one species, or of a stack of M species, on
    one grid; ``traits`` is one ``SpeciesTraits`` or a sequence of them.

    Built once per species: the jump ratios ``p`` and their squares ``p2``,
    the cumulative ``scales``, the full-DOF trapezoid ``mass`` over the
    product of the ratios left of the patch, and the reduced ``weights``
    (each right trace's mass folded into its trace DOF times p²).  A single
    layout holds ``(N,)`` arrays, a stack ``(M, N)`` ones (``p`` is
    ``(M, n-1)``); every method maps either shape row by row, and
    ``layout[b]`` is the layout of the species at ``b``.

    ``p2`` squares each ratio by ``pow``, as the weights always have; an
    array ``p**2`` differs in the last bit for about one ratio in a
    thousand.  ``x.take(i, axis=-1)`` and ``x.T[i]`` index the last axis at
    less cost than ``x[..., i]``; what later row reductions read comes from
    ``take``, in C order, since a stack in F order rounds them differently.
    """

    _PER_GRID = ("grid", "kept", "right", "trace", "reduced_sizes")
    _PER_SPECIES = ("p", "p2", "scales", "mass", "weights")

    def __init__(self, grid: Grid, traits):
        single = isinstance(traits, SpeciesTraits)
        species = [traits] if single else list(traits)
        if any(one.n != grid.n for one in species):
            raise ValidationError("traits are dimensioned for a different landscape")
        rows = 0 if single else slice(None)  # a single layout's arrays are row 0
        self.grid = grid
        self.kept = grid.kept_indices()
        self.right = grid.right_trace_indices()
        self.trace = grid.reduced_trace_indices()
        self.p = np.array([one.p_array for one in species])[rows]
        self.p2 = np.array([v**2 for v in self.p.flat]).reshape(self.p.shape)
        self.scales = np.array([one.cumulative_scales() for one in species])[rows]
        sizes = np.add(grid.counts, 1)  # full DOFs per patch
        # halving the end weights commutes with the rounding of the product
        self.mass = np.repeat(1.0 / self.scales, sizes, axis=-1) * grid.trapezoid_weights()
        sizes[1:] -= 1  # each patch but the first loses its right trace
        self.reduced_sizes = sizes
        self.weights = self.mass.take(self.kept, axis=-1)
        self.weights.T[self.trace] += self.p2.T * self.mass.T[self.right]

    def __getitem__(self, index) -> "SpeciesLayout":
        """The layout of the species at ``index`` of a stack (a stack again
        for an array of indices)."""
        out = object.__new__(SpeciesLayout)
        for name in self._PER_GRID:
            setattr(out, name, getattr(self, name))
        for name in self._PER_SPECIES:
            setattr(out, name, getattr(self, name).take(index, axis=0))
        return out

    @cached_property
    def a_left(self) -> np.ndarray:
        """Share ``mass / weight`` of each trace DOF's own (left) value."""
        w = self.weights.take(self.trace, axis=-1)
        return self.mass.take(self.kept[self.trace], axis=-1) / w

    @cached_property
    def a_right(self) -> np.ndarray:
        """Share ``p² mass / weight`` of each eliminated right trace's value."""
        w = self.weights.take(self.trace, axis=-1)
        return self.p2 * self.mass.take(self.right, axis=-1) / w

    def logistic_coefficients(
        self, env: PatchEnvironment, p_crowd
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(a, b)`` of the logistic reaction ``w (a - b x)`` on the reduced
        DOFs, shaped as the weights, for the species' own ``w`` crowded by a
        field ``x`` whose eliminated right traces are ``p_crowd`` times its
        left ones (``self.p`` for self-crowding).  It is the
        ``restrict_avg`` of ``w r (1 - x / k)`` on the expanded fields: off
        the traces ``a = r`` and ``b = r / k``; at the trace DOF of
        interface m, ``a = a_left r_m + a_right r_{m+1}`` and
        ``b = a_left r_m / k_m + a_right r_{m+1} p_crowd / k_{m+1}``."""
        r, k = env.r_array, env.k_array
        a, b = np.empty(self.weights.shape), np.empty(self.weights.shape)
        a[...] = self.fill(r)
        b[...] = self.fill(r / k)
        left = self.a_left * r[:-1]
        right = self.a_right * r[1:]
        a.T[self.trace] = (left + right).T
        b.T[self.trace] = (left / k[:-1] + right * p_crowd / k[1:]).T
        return a, b

    def fill(self, values) -> np.ndarray:
        """Per-patch ``values`` (last axis one per patch) on the reduced DOFs."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.grid.n:
            raise ValidationError("per-patch values do not match the grid's landscape")
        return np.repeat(values, self.reduced_sizes, axis=-1)

    def right_values(self, reduced: np.ndarray) -> np.ndarray:
        """The eliminated right traces of a reduced vector, ``p * (left trace)``."""
        return self.p * reduced.take(self.trace, axis=-1)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """The full-DOF vector of a reduced one (right traces filled in)."""
        full = np.empty(reduced.shape[:-1] + (self.grid.num_dofs,))
        full.T[self.kept] = reduced.T
        full.T[self.right] = self.right_values(reduced).T
        return full

    def _restrict(self, full_values: np.ndarray, trace_factor: np.ndarray) -> np.ndarray:
        num = self.mass * full_values
        red = num.take(self.kept, axis=-1)
        red.T[self.trace] += (trace_factor * num.take(self.right, axis=-1)).T
        return red / self.weights

    def restrict_avg(self, full_values: np.ndarray) -> np.ndarray:
        """Mass-weighted restriction of residual-type quantities (reaction terms)."""
        return self._restrict(full_values, self.p)

    def restrict_diag(self, full_values: np.ndarray) -> np.ndarray:
        """Mass-weighted restriction of multiplicative coefficients (potentials)."""
        return self._restrict(full_values, self.p2)
