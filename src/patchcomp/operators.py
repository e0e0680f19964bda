"""The reduced-DOF format and the per-species diffusion operator on it.

Edge behaviour enters through the interface condition ``u(x+) = p * u(x-)``.
The solvers work on the reduced DOF vector, which drops each right trace and
rebuilds it as ``p`` times the left trace; the eliminated trace's mass is
folded into its trace DOF, times ``p`` for cell averages and ``p²`` for
coefficients.  ``SpeciesLayout`` is the one implementation of that format:
per species, or per stack of species, it builds the masses, the weights and
the diffusion bands and their symmetrizing similarity once and expands and
restricts with them, and it folds the eliminated traces into the logistic
reaction's coefficients (``logistic_coefficients``), which the steady solve
and the time step share.  Weights that are not finite and positive, bands
that are not finite (jump ratios whose products or squares overflow), and
couplings that are not positive or too far from symmetric for the similarity
are refused there, as ValidationError naming ``p``, before any solve.
``expand_reduced``, the ``restrict_*`` helpers and ``consistent_constant``
are one-call conveniences that build a layout for a single use.

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
block-diagonal tridiagonal matrix (``SpeciesLayout`` assembles them so).
These operations on it serve the package: ``tridiagonal_matvec``, the
product; ``factor_symmetrized``, the one factorisation, an LDLᵀ of
``alpha - beta S A S⁻¹`` on the ``symmetrizing_similarity`` of the
couplings, for the IMEX step, Newton's steps and ``solve_shifted``; and the
solvers' loops, one kernel call each, ``noda_loop``, Noda's shifted inverse
iteration (on the same LDLᵀ), and ``logistic_newton``, the steady Newton
run, which return None where the kernel did not load: their callers then run
``noda_pass``, one pass in numpy, and ``steady.newton`` instead.  The
similarity depends on the couplings alone, so ``SpeciesLayout`` writes it
beside the bands, once per species, and every solver on an assembled
operator reads it there: the steady problem, the stepper and each mutant of
a scan.  Each loop takes its band scale from the bands it is given.
``checked_similarity`` runs the same checks, in numpy, on the operators
built by hand that ``eigen.principal_eigenpairs`` takes, and
``LinearOperator.solve_shifted`` the coupling checks on its own bands.  The
zero corners keep the blocks apart: each block's arithmetic is bit for bit
that of its operator on its own, and the solves take M right-hand-side rows
of one operator as M single solves.  ``stack_chunks`` is the one cut of a
long stack into stacked solves of at most ``_STACK_DOFS`` reduced DOFs, for
the steady states, the mutants' layouts and the eigen pairs of a scan.

Each operation has two routes with the same arithmetic, bit for bit.  The
native kernel ``_ldlt.c``, which ``_native`` builds on first import, runs
each, a whole solver loop included, in one call, the assembly too:
``SpeciesLayout`` writes a stack's masses, weights, bands and similarity in
one pass (``species``), with numpy's operations in numpy's order, each
correctly rounded, so the ~60 small numpy calls and the serial ``cumprod``
of a species' numpy assembly are one call.  The LDLᵀ does pttrf's and
pttrs's operations on every element but walks the rows in its outer loop and
the blocks (times the right-hand sides) in its inner one, so the blocks'
recurrences overlap instead of running end to end as one chain.  The two
loops share the kernel's one band product and its one shifted solve, pttrf
fused with pttrs's forward sweep, and Noda's sums its Rayleigh quotient in
numpy's pairwise order.  Where the kernel cannot be built or loaded
(``_ldlt`` is then None), LAPACK, imported from scipy on first use, and
numpy run instead.
``factor_symmetrized`` returns a ``SymmetrizedFactor``, whose call is the
solve; on the kernel's factor of a two-species stack its ``pair_step`` is
the whole IMEX step of ``dynamics.Stepper`` in one kernel call: the
competition right-hand side, both sweeps of the solve and the division by
the similarity's scale, with the two species as the two lanes of one vector.
This module is the only one that calls LAPACK or the kernel.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._native import load_ldlt
from .errors import EigenSolveError, SteadyConvergenceError, ValidationError
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


# the refusal of a Newton step, on both routes
NOT_NEGATIVE_DEFINITE = "Newton's Jacobian is not negative definite"


def logistic_newton(bands, similarity, a, b, u: np.ndarray, cap: float, tol: float,
                    max_iters: int):
    """``steady.newton``'s whole run for ``A u + u (a - b u) = 0`` on an
    ``(R, N)`` stack in one kernel call, bit for bit: ``bands`` are
    ``(lo, di, up)``, ``similarity`` their couplings' ``(s, off)`` and ``u``
    the C-contiguous start, overwritten; the kernel takes each block's
    ``row_scale`` of ``steady.newton`` from the bands, its largest
    ``|di| + |lo| + |up|``.  Returns ``(u, max|F|, converged, steps)``, or
    None where the kernel did not load, and raises as ``steady.newton``."""
    if _ldlt is None:
        return None
    lo, di, up = bands
    s, off = similarity
    norm, converged, steps = np.empty(len(u)), np.empty(len(u), bool), np.empty(len(u), np.intp)
    failed = _ldlt.newton(lo, di, up, s, off, a, b, u, u.shape[-1], norm, converged, steps, cap,
                          tol, max_iters)
    if failed:
        raise SteadyConvergenceError(NOT_NEGATIVE_DEFINITE, residual=float(norm[failed - 1]))
    return u, norm, converged, steps


def symmetrizing_similarity(lo: np.ndarray, up: np.ndarray):
    """The diagonal similarity ``S = diag(s)`` that makes a stack with
    positive couplings symmetric, block by block: ``(s, s², off)``.

    ``s[0] = 1`` and ``s[i+1] = s[i] sqrt(up[i] / lo[i+1])`` in each block,
    so ``S A S⁻¹`` is symmetric with off-diagonal ``off``,
    ``sqrt(lo[i+1] up[i])`` and a 0 in each block's last column; for an
    operator symmetric in its weights ``s²`` is proportional to them.  When
    the couplings are far from symmetric over many rows ``s²`` leaves the
    floating-point range, which raises ValueError.  numpy's serial
    ``cumprod``: the kernel's ``species`` writes the same numbers for every
    ``SpeciesLayout``, so this serves the operators no layout built.
    """
    s = np.ones(lo.shape)
    with np.errstate(over="ignore"):  # checked below
        s[..., 1:] = np.cumprod(np.sqrt(up[..., :-1] / lo[..., 1:]), axis=-1)
        weights = s * s
    if not (np.isfinite(weights.max()) and weights.min() > 0):
        raise ValueError(_OUT_OF_RANGE)
    off = np.zeros(lo.shape)
    off[..., :-1] = np.sqrt(lo[..., 1:] * up[..., :-1])
    return s, weights, off


_OUT_OF_RANGE = (
    "operator couplings are too far from symmetric for a symmetric similarity in "
    "floating point"
)
_NOT_POSITIVE = "operator couplings are not all positive"
_UNCERTIFIED = ", so the principal eigenpair is not certified; refine grid"


def _similarity_checks(lo: np.ndarray, up: np.ndarray):
    """The couplings' checks of a stack with finite bands, in the kernel's
    order: ``(outcome, similarity)``, outcome 0 with the
    ``symmetrizing_similarity`` ``(s, s², off)``; or outcome 3 (a coupling
    is not positive) or else 4 (``s²`` out of range) with None."""
    if min(up[..., :-1].min(), lo[..., 1:].min()) <= 0:
        return 3, None
    try:
        return 0, symmetrizing_similarity(lo, up)
    except ValueError:
        return 4, None


def checked_similarity(lo: np.ndarray, di: np.ndarray, up: np.ndarray):
    """The ``symmetrizing_similarity`` ``(s, s², off)`` of an ``(M, N)``
    stack's couplings, after the checks every block must pass: finite bands,
    positive couplings and a finite similarity; ``di`` is only checked, so
    that a non-finite band fails before a coupling check.  A non-finite band
    raises ValueError, couplings that are not all positive or too far from
    symmetric EigenSolveError, in that order over the whole stack.  numpy's
    checks, for operators built by hand: a ``SpeciesLayout`` writes the same
    arrays and runs the same checks."""
    if not all(np.isfinite(band).all() for band in (lo, di, up)):
        raise ValueError("operator bands must be finite")
    outcome, similarity = _similarity_checks(lo, up)
    if outcome:
        raise EigenSolveError(_NOT_POSITIVE + _UNCERTIFIED if outcome == 3 else _OUT_OF_RANGE)
    return similarity


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
        """The solve ``y`` of ``b``: the stack's ``(M, N)`` rows (or
        ``(N,)`` for one operator), each block solved bit for bit as on its
        own, or M rows of a single operator, each solved as its own solve.
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


# the kernel's Noda outcomes that are not a count of stopped blocks
_NODA_FAILURES = {
    -1: "shifted operator is not positive definite; the principal eigenpair is "
        "not isolated at this resolution; refine grid",
    -2: "principal eigenpair not isolated at this resolution; refine grid",
}


def noda_loop(bands, similarity, tol: float, x: np.ndarray, max_iters: int):
    """``noda_pass`` repeated in one kernel call, bit for bit, until every
    block stops or ``max_iters`` passes have solved, one more pass then only
    testing: per block the last pass's ``theta``, residual and stop, and the
    solves before the block first stopped (``max_iters`` for one that did
    not).  The kernel takes each block's ``margin`` and ``least`` of
    ``noda_pass`` from its scale, its largest band entry (at least 1):
    ``8 eps scale`` and ``max(tol, 5e-15 scale)``.  None where the kernel did
    not load; raises as ``noda_pass``."""
    if _ldlt is None:
        return None
    lo, di, up = bands
    s, weights, off = similarity
    m = len(x)
    theta, res, done = np.empty(m), np.empty(m), np.empty(m, bool)
    counts = np.empty(m, np.intp)
    outcome = _ldlt.noda(lo, di, up, s, weights, off, x, x.shape[-1], theta, res, done, counts,
                         tol, max_iters)
    if outcome == -3:
        raise ValueError("shift must be finite")
    if outcome < 0:
        raise EigenSolveError(_NODA_FAILURES[outcome])
    return theta, res, done, counts


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
    numpy's and LAPACK's operations, those of the kernel's pass, bit for
    bit: both sum the quotient's two dots in numpy's pairwise order
    (``np.add.reduce`` along a row).  A non-finite shift raises ValueError;
    a shifted matrix that is not positive definite, or a next iterate that
    is not positive, EigenSolveError.
    """
    lo, di, up = bands
    s, weights, off = similarity
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
        """Solve (sigma * I - A) x = rhs by the one LDLᵀ, on the couplings'
        ``symmetrizing_similarity``: ``sigma`` must lie above A's spectrum,
        else the matrix is not positive definite and LinAlgError is raised.
        ``rhs`` is one right-hand side or rows of them.  A non-finite
        ``sigma`` or ``rhs``, and couplings that are not all positive or too
        far from symmetric for the similarity, raise ValueError."""
        sigma = np.asarray_chkfinite(sigma, dtype=float)
        rhs = np.asarray_chkfinite(rhs, dtype=float)
        outcome, similarity = _similarity_checks(self.lo, self.up)
        if outcome:
            raise ValueError(_NOT_POSITIVE if outcome == 3 else _OUT_OF_RANGE)
        s, _, off = similarity
        return factor_symmetrized(self.di, off, sigma)(s * rhs) / s

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
    matrix is exactly symmetric.  ``layout`` is the species'
    ``SpeciesLayout``, whose bands and weights become the operator's, built
    here unless passed in.
    """
    if layout is None:
        layout = SpeciesLayout(grid, traits)
    return LinearOperator(grid, traits, layout.lo, layout.di, layout.up, layout.weights)


def _stiffness_bands(layout: "SpeciesLayout", d: np.ndarray):
    """``assemble_diffusion``'s bands for the layout's species, whose
    diffusion rates ``d`` hold one row per species of a stack: the numpy
    twin of the kernel's ``species``."""
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


# SpeciesLayout's refusals, for the kernel's outcomes 1 to 4
_ASSEMBLY_FAILURES = {
    1: "p: the jump ratios' products and squares overflow floating point: the "
       "reduced weights are not all finite and positive",
    2: "p: with these jump ratios and diffusion rates the diffusion bands are "
       "not all finite",
    3: "p: with these jump ratios and diffusion rates the diffusion couplings "
       "are not all positive",
    4: "p: with these jump ratios the diffusion couplings are too far from "
       "symmetric for a symmetric similarity in floating point",
}


class SpeciesLayout:
    """The reduced-DOF format of one species, or of a stack of M species, on
    one grid, and its diffusion bands; ``traits`` is one ``SpeciesTraits``
    or a sequence of them.

    Built once per species: the jump ratios ``p`` and their squares ``p2``,
    the cumulative ``scales``, the full-DOF trapezoid ``mass`` over the
    product of the ratios left of the patch, the reduced ``weights`` (each
    right trace's mass folded into its trace DOF times p²), the bands
    ``lo``, ``di`` and ``up`` of ``assemble_diffusion`` in the stack
    convention, and what every solver on them needs of their couplings: the
    ``symmetrizing_similarity`` ``s``, ``s2`` (``s²``) and ``off``.  A
    single layout holds ``(N,)`` arrays, a stack ``(M, N)`` ones (``p`` is
    ``(M, n-1)``); every method maps either shape row by row, and
    ``layout[b]`` is the layout of the species at ``b``.  The first of these
    checks that fails raises ValidationError naming ``p``, before any solve:
    weights finite and positive, band entries finite (jump ratios whose
    products or squares overflow fail these two), couplings positive, and
    ``s²`` finite and positive (couplings too far from symmetric over many
    rows).

    The kernel's ``species`` writes the masses, weights, bands and
    similarity in one pass, from the species' ``scales``, ``d``, ``p`` and
    ``p2`` and the grid's offsets, trapezoid weights and spacings (built
    once per grid); each of its operations, ``1 / scales`` and
    ``c = (1 / scales) d / h`` per patch included, is one correctly rounded
    operation in numpy's order, so numpy's twin, here, in
    ``_stiffness_bands`` and in ``symmetrizing_similarity``, gives the same
    numbers, bit for bit.

    ``p2`` is ``SpeciesTraits.p_squares``: each ratio squared by ``pow``,
    as the weights always have been; an array ``p**2`` differs in the last
    bit for about one ratio in a thousand.  ``x.take(i, axis=-1)`` and ``x.T[i]`` index the last axis at
    less cost than ``x[..., i]``; what later row reductions read comes from
    ``take``, in C order, since a stack in F order rounds them differently.
    """

    _PER_GRID = ("grid", "kept", "right", "trace", "reduced_sizes")
    _PER_SPECIES = ("p", "p2", "scales", "mass", "weights", "lo", "di", "up", "s", "s2", "off")

    def __init__(self, grid: Grid, traits):
        single = isinstance(traits, SpeciesTraits)
        species = [traits] if single else list(traits)
        if any(one.n != grid.n for one in species):
            raise ValidationError("traits are dimensioned for a different landscape")
        self.grid = grid
        self.kept = grid.kept_indices()
        self.right = grid.right_trace_indices()
        self.trace = grid.reduced_trace_indices()
        self.reduced_sizes = grid.reduced_sizes()
        if single:  # the traits' own read-only p2 and scales
            self.p, self.p2 = np.array(traits.jump.values), traits.p_squares
            self.scales, d = traits.cumulative_scales(), np.array(traits.d)
        else:
            self.p = np.array([one.jump.values for one in species])
            self.p2 = np.array([one.p_squares for one in species])
            self.scales = np.array([one.cumulative_scales() for one in species])
            d = np.array([one.d for one in species])
        outcome = self._assemble(d)
        if outcome:
            raise ValidationError(_ASSEMBLY_FAILURES[outcome])

    def _assemble(self, d: np.ndarray) -> int:
        """Write ``mass``, ``weights``, the bands and their similarity of the
        species, whose diffusion rates ``d`` are shaped as the scales;
        returns the kernel's outcome (0, or the first failed check)."""
        grid = self.grid
        if _ldlt is not None:
            shape = self.scales.shape[:-1]
            self.mass = np.empty(shape + (grid.num_dofs,))
            self.weights, self.lo, self.di, self.up, self.s, self.s2, self.off = (
                np.empty(shape + (grid.num_reduced,)) for _ in range(7)
            )
            return _ldlt.species(
                grid.offsets(), grid.trapezoid_weights(), grid.spacings(), self.scales,
                d, self.p, self.p2, self.mass, self.weights, *self.bands, self.s, self.s2,
                self.off,
            )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked here
            # halving the end weights commutes with the rounding of the product
            self.mass = np.repeat(1.0 / self.scales, np.add(grid.counts, 1), axis=-1)
            self.mass *= grid.trapezoid_weights()
            self.weights = self.mass.take(self.kept, axis=-1)
            self.weights.T[self.trace] += self.p2.T * self.mass.T[self.right]
            if not (self.weights.min() > 0 and self.weights.max() < np.inf):
                return 1
            self.lo, self.di, self.up = _stiffness_bands(self, d)
            if not all(np.isfinite(band).all() for band in self.bands):
                return 2
            outcome, similarity = _similarity_checks(self.lo, self.up)
            if not outcome:
                self.s, self.s2, self.off = similarity
        return outcome

    @property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, di, up)``: each row bit for bit its species'
        ``assemble_diffusion`` operator, with the stack's zero corners."""
        return self.lo, self.di, self.up

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

    def logistic_coefficients(self, env: PatchEnvironment, *p_crowds) -> tuple[np.ndarray, ...]:
        """``(a, b, ...)``, one ``b`` per ratio of ``p_crowds``, of the
        logistic reaction ``w (a - b x)`` on the reduced DOFs, shaped as the
        weights, for the species' own ``w`` crowded by a field ``x`` whose
        eliminated right traces are ``p_crowd`` times its left ones
        (``self.p`` for self-crowding).  It is the ``restrict_avg`` of
        ``w r (1 - x / k)`` on the expanded fields: off the traces ``a = r``
        and ``b = r / k``; at the trace DOF of interface m,
        ``a = a_left r_m + a_right r_{m+1}`` and
        ``b = a_left r_m / k_m + a_right r_{m+1} p_crowd / k_{m+1}``."""
        r, k = env.r_array, env.k_array
        a = np.empty(self.weights.shape)
        a[...] = self.fill(r)
        left = self.a_left * r[:-1]
        right = self.a_right * r[1:]
        a.T[self.trace] = (left + right).T
        off_trace, own = self.fill(r / k), left / k[:-1]
        out = [a]
        for p_crowd in p_crowds:
            b = np.empty(self.weights.shape)
            b[...] = off_trace
            b.T[self.trace] = (own + right * p_crowd / k[1:]).T
            out.append(b)
        return tuple(out)

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
