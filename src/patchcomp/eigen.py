"""Principal eigenvalue and eigenfunction of the linearized invasion operator.

The invader's linearization is its diffusion operator (with its own interface
conditions) plus the growth potential left over by the resident's steady
state.  The principal eigenvalue is the top of the spectrum; it is simple and
carries a positive eigenfunction, and its sign decides invasion when rare.

It is computed by Noda's inverse iteration (T. Noda, Numer. Math. 17, 1971;
L. Elsner, Linear Algebra Appl. 15, 1976): shifts from the Collatz-Wielandt
upper bound, one tridiagonal solve per pass, quadratic convergence.  This
needs the operator's couplings to be positive, as the assembled linearization's
always are; an operator without them is rejected.

The iteration runs on a stack of M same-size operators at once, held as
(M, N) bands.  Laid end to end they form one block-diagonal tridiagonal
matrix (no band couples the last row of a block to the first of the next),
so one LAPACK factorisation and solve per pass serve every block, and each
block's arithmetic is bit for bit that of its operator on its own.  Every
block keeps its own shift, stop test and iteration count, and drops out of
the stack once it stops.  A single operator is the stack of one.

``ResidentContext`` is the one route from a resident to invasion fitness: it
solves the resident's steady state and growth potential once, and evaluates a
``MutantStack`` (the mutants' diffusion operators, assembled once per scan)
against it in one stacked solve.  ``fitness_table`` is the one route from a
set of (resident, mutant) pairs to their eigenvalues, and ``signs`` the one
rule that turns eigenvalues into invasion signs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .errors import EigenSolveError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import PatchEnvironment, SpeciesTraits
from .operators import (
    LinearOperator,
    SpeciesLayout,
    assemble_diffusion,
    env_on_dofs,
    factor_tridiagonal,
    symmetry_defects,
    tridiagonal_matvec,
)
from .steady import SteadyConfig, solve_resident_steady

SIGN_TOL = 1e-8

# One stacked solve holds at most this many reduced DOFs (and at least one
# block), so a long scan on a fine grid keeps only a few copies of its bands
# and iterates at a time.  Past a few thousand DOFs per solve the LAPACK
# calls dominate and a larger stack gains nothing.
_STACK_DOFS = 1 << 14
_EPS = np.finfo(float).eps
_BANDS = ("lo", "di", "up")


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue with its positive max-normalized eigenfunction."""

    lambda1: float
    phi: PiecewiseField
    residual: float
    iterations: int

    def sign(self, tol: float = SIGN_TOL) -> int:
        """-1, 0 (within the neutral band) or +1."""
        return int(signs(self.lambda1, tol))


def signs(lambdas, tol: float = SIGN_TOL) -> np.ndarray:
    """Invasion signs of eigenvalues, elementwise: +1 above ``tol``, -1 below
    ``-tol``, 0 within the neutral band (and for NaN, an unsolved pair)."""
    lambdas = np.asarray(lambdas, dtype=float)
    return (lambdas > tol).astype(int) - (lambdas < -tol)


def assemble_linearization(
    grid: Grid, traits_hat: SpeciesTraits, potential
) -> LinearOperator:
    """Invader diffusion plus a multiplicative growth potential.

    ``potential`` may be a PiecewiseField, a full DOF vector, or a scalar.
    """
    layout = SpeciesLayout(grid, traits_hat)
    op = assemble_diffusion(grid, traits_hat, layout)
    if np.isscalar(potential):
        c = np.full(grid.num_reduced, float(potential))
    else:
        values = potential.values if isinstance(potential, PiecewiseField) else potential
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.num_dofs,):
            raise ValidationError("potential must be sampled on the grid's full DOFs")
        c = layout.restrict_diag(values)
    return op.add_diagonal(c)


def _start_vectors(layout: SpeciesLayout) -> np.ndarray:
    """The jump-consistent constants scaled to max 1: Noda's starting iterates."""
    x = layout.fill(layout.scales)
    return x / x.max(axis=-1, keepdims=True)


def _shifted_off_diagonals(lo, up):
    """Sub- and super-diagonal of ``sigma I - A`` for the (M, N) stack laid
    end to end, with zeros between blocks to keep them apart in the
    factorisation."""
    size = lo.shape[1]
    dl, du = -lo.ravel()[1:], -up.ravel()[:-1]
    dl[size - 1 :: size] = du[size - 1 :: size] = 0.0
    return dl, du


def _noda(lo, di, up, weights, scale, x, tol, max_iters):
    """Noda's inverse iteration on the stack of (M, N) bands; see
    ``principal_eigenpair``.  ``weights`` are the Rayleigh-quotient weights
    and ``scale`` the largest band entry (at least 1) of each block.  Returns
    per block the eigenvalue, the reduced max-normalized eigenvector, the
    residual and the number of solves."""
    size = di.shape[1]
    # keeps the rounded Collatz-Wielandt bound above the top eigenvalue
    margin = 8.0 * _EPS * scale
    floor = size * _EPS * scale
    # max(tol * max(1, |theta|), 5e-15 * scale) is max(tol * |theta|, least)
    least = np.maximum(tol, 5e-15 * scale)
    dl, du = _shifted_off_diagonals(lo, up)
    rows = np.arange(len(di))
    out = None  # (theta, x, residual, iterations) of every block, once one stops
    iterations = 0
    previous = np.inf
    while True:
        ax = tridiagonal_matvec(lo, di, up, x)
        wx = weights * x
        # one BLAS dot per block, as for that operator alone
        theta = np.vecdot(wx, ax) / np.vecdot(wx, x)
        res = np.abs(ax - theta[:, None] * x).max(axis=1)
        # tested before any factorisation, so an exact eigenvector never
        # factors a singular sigma I - A.  The residual of a solved iterate
        # bottoms out at a rounding floor that grows with the size (measured
        # up to 0.13 * size * eps * scale, above the threshold from about
        # 2,000 DOFs on), so a pass that no longer lowers it, once under
        # size * eps * scale, also ends the loop.
        done = (res <= np.maximum(tol * np.abs(theta), least)) | (
            (previous <= res) & (res <= floor)
        )
        stopped = np.count_nonzero(done)
        if stopped:
            if out is None:
                if stopped == len(rows):  # all blocks stop on one pass
                    return theta, x, res, np.full(len(rows), iterations)
                out = (np.empty(len(rows)), np.empty_like(x), np.empty(len(rows)),
                       np.empty(len(rows), dtype=int))
            at = rows[done]
            out[0][at], out[1][at], out[2][at] = theta[done], x[done], res[done]
            out[3][at] = iterations
            if stopped == len(rows):
                return out
            # freeze the stopped blocks: drop them from the stack
            going = ~done
            rows, lo, di, up, weights, x, ax, res, margin, floor, least = (
                a[going] for a in (rows, lo, di, up, weights, x, ax, res, margin, floor, least)
            )
            dl, du = _shifted_off_diagonals(lo, up)
        previous = res
        if iterations == max_iters:
            raise EigenSolveError(
                "principal eigen iteration did not converge; the operator may "
                "have a clustered leading spectrum"
            )
        sigma = (ax / x).max(axis=1) + margin
        x = factor_tridiagonal(dl, (sigma[:, None] - di).ravel(), du)(x)
        iterations += 1
        # sigma I - A is an M-matrix, so a solve from a positive iterate
        # stays positive unless the top eigenpair is not resolved
        if not x.min() > 0:
            raise EigenSolveError(
                "principal eigenpair not isolated at this resolution; refine grid"
            )
        x /= x.max(axis=1, keepdims=True)


def _stacked_eigenpairs(
    layout: SpeciesLayout, lo, di, up, weights, start, tol: float, max_iters: int
) -> list[EigenPair]:
    """Eigenpairs of the (M, N) stack, solved ``_STACK_DOFS`` at a time;
    ``layout`` is the stacked layout of the operators' species."""
    defect = symmetry_defects(lo, di, up, weights)
    scale = np.maximum(1.0, np.abs(np.concatenate((di, up, lo), axis=1)).max(axis=1))
    # NaN or inf in a band makes its block's scale non-finite, and in the
    # weights its symmetry defect; max carries either through
    if not np.isfinite(scale.max() + defect.max()):
        raise ValueError("operator bands must be finite")
    if min(up[:, :-1].min(), lo[:, 1:].min()) <= 0:
        raise EigenSolveError(
            "operator couplings are not all positive, so the principal "
            "eigenpair is not certified; refine grid"
        )
    # per block: the weighted Rayleigh quotient when W A is symmetric
    symmetric = defect <= 1e-10
    if np.count_nonzero(symmetric) < len(symmetric):
        weights = np.where(symmetric[:, None], weights, 1.0)
    grid = layout.grid
    step = max(1, _STACK_DOFS // grid.num_reduced)
    pairs = []
    for s in range(0, len(di), step):
        b = slice(s, s + step)
        theta, x, res, iterations = _noda(
            lo[b], di[b], up[b], weights[b], scale[b], start[b], tol, max_iters
        )
        phi = layout[b].expand(x)
        phi /= phi.max(axis=1, keepdims=True)
        pairs += [
            EigenPair(lambda1=float(t), phi=PiecewiseField(grid, f), residual=float(r),
                      iterations=int(i))
            for t, f, r, i in zip(theta, phi, res, iterations)
        ]
    return pairs


def principal_eigenpairs(
    ops: Sequence[LinearOperator],
    tol: float = 1e-13,
    max_iters: int = 2000,
) -> list[EigenPair]:
    """``principal_eigenpair`` of each operator, all in one stacked solve.

    The operators must share one grid.  Each pair is bit for bit the one
    ``principal_eigenpair`` returns for that operator alone; a non-finite
    band raises ValueError, and an operator without positive couplings
    raises EigenSolveError for the whole call, both before any solve.
    """
    grid = ops[0].grid
    if any(op.grid != grid for op in ops):
        raise ValidationError("stacked operators must share one grid")
    layout = SpeciesLayout(grid, [op.traits for op in ops])
    return _stacked_eigenpairs(
        layout,
        *(np.array([getattr(op, band) for op in ops]) for band in (*_BANDS, "weights")),
        _start_vectors(layout),
        tol,
        max_iters,
    )


def principal_eigenpair(
    op: LinearOperator,
    tol: float = 1e-13,
    max_iters: int = 2000,
) -> EigenPair:
    """Top eigenvalue and positive eigenfunction of a reduced operator.

    Route: Noda's inverse iteration on ``A`` itself.  Starting from the
    jump-consistent constant (the kernel of the diffusion part), each pass
    takes the Rayleigh quotient of the iterate (weighted by ``op.weights``
    when the weighted matrix is symmetric, plain otherwise) and stops once the
    residual ``|A x - theta x|`` is at the tolerance, or has stopped falling
    at its rounding floor.  Otherwise it shifts to the Collatz-Wielandt bound
    ``max_i (A x)_i / x_i`` and solves once with ``sigma I - A``.  The shift
    is never below the top eigenvalue and closes on it quadratically, so a
    few O(N) tridiagonal solves suffice.

    Precondition: every coupling (off-diagonal entry) of ``A`` is positive.
    Then ``sigma I - A`` is an M-matrix, every iterate stays positive, and by
    Perron-Frobenius the positive eigenvector belongs to the top eigenvalue;
    an operator that breaks this raises EigenSolveError before any solve.
    The eigenfunction is positivity-checked and max-normalized;
    ``iterations`` counts the shifted solves (0 when the start is already an
    eigenvector, as for a constant potential).  This is the one-operator
    case of ``principal_eigenpairs``.
    """
    return principal_eigenpairs([op], tol, max_iters)[0]


def growth_potential(
    grid: Grid, env: PatchEnvironment, ustar: PiecewiseField, factor: float = 1.0
) -> np.ndarray:
    """Potential r (1 - factor * u* / k) on the full DOFs."""
    r_full, k_full = env_on_dofs(grid, env)
    return r_full * (1.0 - factor * ustar.values / k_full)


@dataclass(frozen=True, eq=False)
class MutantStack:
    """Diffusion operators of M mutants on one grid, assembled once.

    ``layout`` is the mutants' stacked ``SpeciesLayout`` (its weights are the
    operators'); row ``b`` of every ``(M, N)`` array belongs to mutant ``b``:
    its bands and its Noda start vector.  A scan builds the stack once and
    evaluates it against every resident it meets (``ResidentContext.fitness``).
    """

    layout: SpeciesLayout
    lo: np.ndarray
    di: np.ndarray
    up: np.ndarray
    start: np.ndarray

    @classmethod
    def assemble(cls, grid: Grid, mutants: Sequence[SpeciesTraits]) -> "MutantStack":
        layout = SpeciesLayout(grid, mutants)
        ops = [assemble_diffusion(grid, m, layout[b]) for b, m in enumerate(mutants)]
        return cls(
            layout,
            *(np.array([getattr(op, band) for op in ops]) for band in _BANDS),
            _start_vectors(layout),
        )

    @classmethod
    def chunks(cls, grid: Grid, mutants: Sequence[SpeciesTraits]) -> Iterator["MutantStack"]:
        """Stacks of consecutive mutants, each one stacked solve's worth, for
        scans too long to hold assembled at once."""
        step = max(1, _STACK_DOFS // grid.num_reduced)
        for s in range(0, len(mutants), step):
            yield cls.assemble(grid, mutants[s : s + step])

    def take(self, index) -> "MutantStack":
        """The stack of the mutants at ``index``, in that order."""
        return MutantStack(*(getattr(self, f.name)[index] for f in fields(self)))


class ResidentContext:
    """A resident's steady state and growth potential, solved once.

    ``fitness`` gives the invasion fitness of each mutant of a stack at this
    resident: the principal eigenpair of its diffusion operator plus the
    potential ``r (1 - u*/k)``.  ``ustar`` skips the steady solve when the
    resident state is known.
    """

    def __init__(
        self,
        landscape,
        env: PatchEnvironment,
        resident: SpeciesTraits,
        grid: Grid,
        steady_config: SteadyConfig | None = None,
        ustar: PiecewiseField | None = None,
    ):
        if ustar is None:
            ustar = solve_resident_steady(landscape, env, resident, grid, steady_config)
        self.grid = grid
        self.ustar = ustar
        self.potential = growth_potential(grid, env, ustar)

    def fitness(
        self, mutants: MutantStack, tol: float = 1e-13, max_iters: int = 2000
    ) -> list[EigenPair]:
        """One EigenPair per mutant, in stack order; each is bit for bit
        ``principal_eigenpair(assemble_linearization(grid, mutant, potential))``."""
        if mutants.layout.grid != self.grid:
            raise ValidationError("mutant stack lives on another grid")
        layout = mutants.layout
        return _stacked_eigenpairs(
            layout, mutants.lo, mutants.di + layout.restrict_diag(self.potential),
            mutants.up, layout.weights, mutants.start, tol, max_iters,
        )


def fitness_table(
    landscape,
    env: PatchEnvironment,
    grid: Grid,
    residents: Sequence[SpeciesTraits],
    mutants: Sequence[SpeciesTraits],
    steady_config: SteadyConfig | None = None,
    solve=None,
) -> np.ndarray:
    """Invasion fitness λ1 of every mutant at every resident, as an (R, M) array.

    ``solve``, an (R, M) boolean mask, selects the pairs to evaluate (all by
    default); the others read NaN.  Each resident with a pair to solve gets
    one ``ResidentContext``, and the mutants with a pair to solve are
    assembled once, one stacked solve's worth at a time.  Every entry is bit
    for bit ``invasion_fitness(..., resident, mutant, ...).lambda1``.
    """
    table = np.full((len(residents), len(mutants)), np.nan)
    solve = np.ones(table.shape, bool) if solve is None else np.asarray(solve, bool)
    if solve.shape != table.shape:
        raise ValidationError(f"solve mask must have shape {table.shape}")
    rows = np.flatnonzero(solve.any(axis=1))
    cols = np.flatnonzero(solve.any(axis=0))
    contexts = [ResidentContext(landscape, env, residents[i], grid, steady_config) for i in rows]
    done = 0
    for stack in MutantStack.chunks(grid, [mutants[j] for j in cols]):
        block = cols[done : done + len(stack.di)]
        done += block.size
        for i, context in zip(rows, contexts):
            pick = np.flatnonzero(solve[i, block])
            if pick.size:
                sub = stack if pick.size == block.size else stack.take(pick)
                table[i, block[pick]] = [pair.lambda1 for pair in context.fitness(sub)]
    return table


def invasion_fitness(
    landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    config: SteadyConfig | None = None,
    ustar: PiecewiseField | None = None,
) -> EigenPair:
    """Principal eigenvalue of the mutant's linearization at the resident state.

    Positive: the mutant invades when rare (the resident-only state is
    unstable).  Negative: it cannot.  Within the neutral band the sign is not
    called.  A precomputed resident steady state can be passed to amortize
    scans over many mutants; ``ResidentContext`` amortizes the rest.
    """
    context = ResidentContext(landscape, env, resident, grid, config, ustar)
    return context.fitness(MutantStack.assemble(grid, [mutant]))[0]


def resident_self_eigenpair(
    landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    grid: Grid,
    config: SteadyConfig | None = None,
    ustar: PiecewiseField | None = None,
) -> EigenPair:
    """Eigenpair of the resident's own linearization around its steady state.

    Uses the potential r (1 - 2 u*/k) with the resident's interface
    conditions; its principal eigenvalue is negative whenever u* is the
    attracting single-species state.
    """
    if ustar is None:
        ustar = solve_resident_steady(landscape, env, resident, grid, config)
    potential = growth_potential(grid, env, ustar, factor=2.0)
    op = assemble_linearization(grid, resident, potential)
    return principal_eigenpair(op)
