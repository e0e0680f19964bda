"""Principal eigenvalue and eigenfunction of the linearized invasion operator.

The invader's linearization is its diffusion operator (with its own interface
conditions) plus the growth potential left over by the resident's steady
state.  The principal eigenvalue is the top of the spectrum; it is simple and
carries a positive eigenfunction, and its sign decides invasion when rare.

It is computed by Noda's inverse iteration (T. Noda, Numer. Math. 17, 1971;
L. Elsner, Linear Algebra Appl. 15, 1976): shifts from the Collatz-Wielandt
upper bound, one tridiagonal solve per pass, quadratic convergence.  This
needs the operator's couplings to be positive, as the assembled linearization's
always are; an operator without them is rejected.  Positive couplings also
make ``A`` diagonally similar to a symmetric tridiagonal ``S A S⁻¹``
(``operators.symmetrizing_similarity``), and above the spectrum
``sigma I - S A S⁻¹`` is positive definite (B. Parlett, *The Symmetric
Eigenvalue Problem*, ch. 7).  So every shifted solve is one factorisation
and solve of that matrix by the package's one LDLᵀ
(``operators.factor_symmetrized``), and the Rayleigh quotient is weighted by
``s²``, for operators symmetric in their weights or not alike.

The iteration runs on a stack of M same-size operators at once, held as
(M, N) bands in the stack convention of ``operators``: laid end to end they
form one block-diagonal tridiagonal matrix (zero corners part the last row
of a block from the first of the next; ``principal_eigenpairs`` zeroes those
of operators built by hand), so one matrix-vector product, one LDLᵀ
factorisation and one solve per pass serve every block, and each block's
arithmetic is bit for bit that of its operator on its own.  Every block
keeps its own shift, stop test and iteration count, and drops out of the
stack once it stops.  A single operator is the stack of one.

``ResidentContext`` is the one route from residents to invasion fitness: it
holds a stack of residents, solves their steady states in one stacked
damped-Newton call and their growth potentials once, and evaluates every
(resident, mutant) pair of a ``MutantStack`` (the mutants' diffusion
operators, assembled once per scan) in stacked solves; ``invasion_fitness``
is its 1x1 case.  ``fitness_table`` is the one route from a set of
(resident, mutant) pairs to their eigenvalues: one context for its
residents, and every masked pair, in row-major order, in one stacked Noda
solve whose bands (``mutant.di + restrict_diag(potential)``) are built one
``_STACK_DOFS`` chunk of pairs at a time.  ``signs`` is the one rule that
turns eigenvalues into invasion signs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EigenSolveError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import PatchEnvironment, SpeciesTraits
from .operators import (
    _STACK_DOFS,
    LinearOperator,
    SpeciesLayout,
    assemble_diffusion,
    diffusion_bands,
    env_on_dofs,
    factor_symmetrized,
    symmetrizing_similarity,
    tridiagonal_matvec,
)
from .steady import SteadyConfig, solve_resident_steady, solve_resident_steady_states

SIGN_TOL = 1e-8

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


def _noda(lo, di, up, s, weights, off, scale, x, tol, max_iters):
    """Noda's inverse iteration on the stack of (M, N) bands; see
    ``principal_eigenpair``.  ``s`` and ``off`` are the bands'
    ``symmetrizing_similarity``, ``weights`` is ``s²`` (the Rayleigh
    quotient of ``S x`` for the symmetric ``S A S⁻¹``) and ``scale`` the
    largest band entry (at least 1) of each block.  Returns per block the
    eigenvalue, the reduced max-normalized eigenvector, the residual and the
    number of solves."""
    # keeps the rounded Collatz-Wielandt bound above the top eigenvalue
    margin = 8.0 * _EPS * scale
    # max(tol * max(1, |theta|), 5e-15 * scale) is max(tol * |theta|, least)
    least = np.maximum(tol, 5e-15 * scale)
    rows = np.arange(len(di))
    out = None  # (theta, x, residual, iterations) of every block, once one stops
    iterations = 0
    while True:
        ax = tridiagonal_matvec(lo, di, up, x)
        wx = weights * x
        # one BLAS dot per block, as for that operator alone
        theta = np.vecdot(wx, ax) / np.vecdot(wx, x)
        res = np.abs(ax - theta[:, None] * x).max(axis=1)
        # tested before any factorisation, so an exact eigenvector never
        # factors a singular sigma I - A.  The LDLᵀ solves take a solved
        # iterate's residual to a few eps * scale at any size, under
        # ``least``, so there is no separate rounding-floor stop: a loop that
        # stalls above ``least`` ends at ``max_iters``.
        done = res <= np.maximum(tol * np.abs(theta), least)
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
            rows, lo, di, up, s, off, weights, x, ax, margin, least = (
                a[going] for a in (rows, lo, di, up, s, off, weights, x, ax, margin, least)
            )
        if iterations == max_iters:
            raise EigenSolveError(
                "principal eigen iteration did not converge; the operator may "
                "have a clustered leading spectrum"
            )
        sigma = (ax / x).max(axis=1) + margin
        # sigma I - A is similar to sigma I - S A S⁻¹, positive definite
        # above the spectrum: one LDLᵀ factorisation and solve for the stack
        try:
            solve = factor_symmetrized(di, off, sigma[:, None])
        except np.linalg.LinAlgError:
            raise EigenSolveError(
                "shifted operator is not positive definite; the principal "
                "eigenpair is not isolated at this resolution; refine grid"
            ) from None
        x = solve(s * x)
        x /= s
        iterations += 1
        # sigma I - A is an M-matrix, so a solve from a positive iterate
        # stays positive unless the top eigenpair is not resolved
        if not x.min() > 0:
            raise EigenSolveError(
                "principal eigenpair not isolated at this resolution; refine grid"
            )
        x /= x.max(axis=1, keepdims=True)


def _stacked_solve(lo, di, up, start, tol: float, max_iters: int):
    """Noda's iteration on the (M, N) stack (zero corners), ``_STACK_DOFS``
    at a time, after the checks every block must pass: finite bands,
    positive couplings and a finite symmetrizing similarity.  Returns per
    block the eigenvalue, the reduced max-normalized eigenvector, the
    residual and the number of solves."""
    scale = np.maximum(1.0, np.max([np.abs(band).max(axis=1) for band in (di, up, lo)], axis=0))
    # NaN or inf in a band makes its block's scale non-finite
    if not np.isfinite(scale.max()):
        raise ValueError("operator bands must be finite")
    if min(up[:, :-1].min(), lo[:, 1:].min()) <= 0:
        raise EigenSolveError(
            "operator couplings are not all positive, so the principal "
            "eigenpair is not certified; refine grid"
        )
    try:
        s, weights, off = symmetrizing_similarity(lo, up)
    except ValueError as err:
        raise EigenSolveError(str(err)) from None
    step = max(1, _STACK_DOFS // di.shape[1])
    if len(di) <= step:
        return _noda(lo, di, up, s, weights, off, scale, start, tol, max_iters)
    parts = [
        _noda(lo[b], di[b], up[b], s[b], weights[b], off[b], scale[b], start[b], tol,
              max_iters)
        for b in (slice(j, j + step) for j in range(0, len(di), step))
    ]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _eigenpairs(layout: SpeciesLayout, theta, x, res, iterations) -> list[EigenPair]:
    """EigenPairs of solved blocks; ``layout`` is the stacked layout of the
    operators' species."""
    phi = layout.expand(x)
    phi /= phi.max(axis=1, keepdims=True)
    return [
        EigenPair(lambda1=float(t), phi=PiecewiseField(layout.grid, f), residual=float(r),
                  iterations=int(i))
        for t, f, r, i in zip(theta, phi, res, iterations)
    ]


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
    lo, di, up = (np.array([getattr(op, band) for op in ops]) for band in _BANDS)
    # the entries outside each matrix are zeroed once, here, where operators
    # built by hand enter: the stack is then one block-diagonal matrix
    lo[:, 0] = up[:, -1] = 0.0
    return _eigenpairs(
        layout, *_stacked_solve(lo, di, up, _start_vectors(layout), tol, max_iters)
    )


def principal_eigenpair(
    op: LinearOperator,
    tol: float = 1e-13,
    max_iters: int = 2000,
) -> EigenPair:
    """Top eigenvalue and positive eigenfunction of a reduced operator.

    Route: Noda's inverse iteration on ``A`` itself.  Starting from the
    jump-consistent constant (the kernel of the diffusion part), each pass
    takes the Rayleigh quotient of the iterate weighted by ``s²``, where
    ``S = diag(s)`` makes ``S A S⁻¹`` symmetric (``s[0] = 1``,
    ``s[i+1] = s[i] sqrt(up[i] / lo[i+1])``), and stops once the residual
    ``|A x - theta x|`` is at most ``max(tol max(1, |theta|), 5e-15 scale)``,
    ``scale`` the largest band entry (at least 1); the LDLᵀ solves bring a
    solved iterate's residual to a few ``eps * scale`` at every size, under
    that, and a loop that stalls above it raises EigenSolveError at
    ``max_iters``.  Otherwise it shifts to the Collatz-Wielandt
    bound ``max_i (A x)_i / x_i`` and solves once with ``sigma I - A``, as
    ``S⁻¹ (sigma I - S A S⁻¹)⁻¹ S``: one LDLᵀ factorisation (LAPACK pttrf)
    and solve (pttrs) of the symmetric positive definite shifted matrix.
    The shift is never below the top eigenvalue and closes on it
    quadratically, so a few O(N) tridiagonal solves suffice.

    Precondition: every coupling (off-diagonal entry) of ``A`` is positive.
    Then ``sigma I - A`` is an M-matrix, every iterate stays positive, and by
    Perron-Frobenius the positive eigenvector belongs to the top eigenvalue;
    an operator that breaks this raises EigenSolveError before any solve, as
    does one whose ``s²`` leaves the floating-point range (couplings far
    from symmetric over many rows), and a shifted matrix that LDLᵀ finds
    not positive definite raises it during the solve.
    The eigenfunction is positivity-checked and max-normalized;
    ``iterations`` counts the shifted solves (0 when the start is already an
    eigenvector, as for a constant potential).  This is the one-operator
    case of ``principal_eigenpairs``.
    """
    return principal_eigenpairs([op], tol, max_iters)[0]


def growth_potential(
    grid: Grid, env: PatchEnvironment, ustar, factor: float = 1.0
) -> np.ndarray:
    """Potential r (1 - factor * u* / k) on the full DOFs; ``ustar`` is a
    PiecewiseField, or full-DOF values with one row per state."""
    r_full, k_full = env_on_dofs(grid, env)
    values = ustar.values if isinstance(ustar, PiecewiseField) else ustar
    return r_full * (1.0 - factor * values / k_full)


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
        layout, lo, di, up = diffusion_bands(grid, mutants)
        return cls(layout, lo, di, up, _start_vectors(layout))

    @classmethod
    def chunks(cls, grid: Grid, mutants: Sequence[SpeciesTraits]) -> Iterator["MutantStack"]:
        """Stacks of consecutive mutants, each one stacked solve's worth, for
        scans too long to hold assembled at once."""
        step = max(1, _STACK_DOFS // grid.num_reduced)
        for s in range(0, len(mutants), step):
            yield cls.assemble(grid, mutants[s : s + step])


class ResidentContext:
    """Steady states and growth potentials of a stack of residents, solved once.

    ``residents`` is one SpeciesTraits (a stack of one) or a sequence of
    them.  Their steady states are solved in one stacked call, unless
    ``ustar`` gives the state of a single resident; ``potential`` holds each
    resident's ``r (1 - u*/k)`` as a row.  ``fitness`` gives the invasion
    fitness of every (resident, mutant) pair: the principal eigenpair of the
    mutant's diffusion operator plus the resident's potential.
    """

    def __init__(
        self,
        landscape,
        env: PatchEnvironment,
        residents,
        grid: Grid,
        steady_config: SteadyConfig | None = None,
        ustar: PiecewiseField | None = None,
    ):
        if isinstance(residents, SpeciesTraits):
            residents = [residents]
        if ustar is None:
            self.ustar = solve_resident_steady_states(
                landscape, env, residents, grid, steady_config
            )
        elif len(residents) == 1:
            self.ustar = [ustar]
        else:
            raise ValidationError("ustar gives the steady state of a single resident")
        self.grid = grid
        self.potential = growth_potential(grid, env, np.array([u.values for u in self.ustar]))

    def _solve(
        self, mutants: MutantStack, rows, cols, tol: float = 1e-13, max_iters: int = 2000
    ):
        """Solve the pairs (``rows[k]``, ``cols[k]``) of resident and mutant
        indices one stacked solve's worth at a time, in order; yields each
        chunk's layout and ``_stacked_solve`` arrays."""
        if mutants.layout.grid != self.grid:
            raise ValidationError("mutant stack lives on another grid")
        step = max(1, _STACK_DOFS // self.grid.num_reduced)
        for s in range(0, len(rows), step):
            i, j = rows[s : s + step], cols[s : s + step]
            layout = mutants.layout[j]
            lo, di, up, start = (
                a.take(j, axis=0) for a in (mutants.lo, mutants.di, mutants.up, mutants.start)
            )
            di += layout.restrict_diag(self.potential.take(i, axis=0))
            yield layout, _stacked_solve(lo, di, up, start, tol, max_iters)

    def fitness(
        self, mutants: MutantStack, tol: float = 1e-13, max_iters: int = 2000
    ) -> list[EigenPair]:
        """One EigenPair per (resident, mutant) pair, in row-major order (one
        per mutant, in stack order, for one resident).  Each is bit for bit
        ``principal_eigenpair(assemble_linearization(grid, mutant, potential))``."""
        rows, cols = np.divmod(np.arange(len(self.potential) * len(mutants.di)), len(mutants.di))
        return [
            pair
            for layout, solved in self._solve(mutants, rows, cols, tol, max_iters)
            for pair in _eigenpairs(layout, *solved)
        ]


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
    default); the others read NaN.  The residents with a pair to solve form
    one ``ResidentContext`` (one stacked steady solve), the mutants with a
    pair to solve are assembled once, one stacked solve's worth at a time,
    and each such chunk's pairs go, in row-major order, to one stacked
    eigen solve.  Every entry is bit for bit
    ``invasion_fitness(..., resident, mutant, ...).lambda1``.
    """
    table = np.full((len(residents), len(mutants)), np.nan)
    solve = np.ones(table.shape, bool) if solve is None else np.asarray(solve, bool)
    if solve.shape != table.shape:
        raise ValidationError(f"solve mask must have shape {table.shape}")
    rows = np.flatnonzero(solve.any(axis=1))
    cols = np.flatnonzero(solve.any(axis=0))
    if not rows.size:
        return table
    context = ResidentContext(landscape, env, [residents[i] for i in rows], grid, steady_config)
    done = 0
    for stack in MutantStack.chunks(grid, [mutants[j] for j in cols]):
        block = cols[done : done + len(stack.di)]
        done += block.size
        i, j = np.nonzero(solve[np.ix_(rows, block)])
        theta = [solved[0] for _, solved in context._solve(stack, i, j)]
        table[rows[i], block[j]] = np.concatenate(theta)
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
