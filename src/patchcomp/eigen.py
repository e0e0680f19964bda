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
(the similarity a ``SpeciesLayout`` writes beside its bands, or
``operators.checked_similarity``'s), and above the spectrum
``sigma I - S A S⁻¹`` is positive definite (B. Parlett, *The Symmetric
Eigenvalue Problem*, ch. 7).  So every shifted solve is one factorisation
and solve of that matrix by pttrf's and pttrs's arithmetic, and the Rayleigh
quotient is weighted by ``s²``, for operators symmetric in their weights or
not alike.  Its two sums run in numpy's pairwise order (``np.add.reduce``
along a row), on both routes.

The iteration runs on a stack of M same-size operators at once, held as
(M, N) bands in the stack convention of ``operators``: laid end to end they
form one block-diagonal tridiagonal matrix (zero corners part the last row
of a block from the first of the next; ``principal_eigenpairs`` zeroes those
of operators built by hand), so one kernel call, ``operators.noda_loop``,
runs the whole iteration on every block: it takes each block's band scale
from the bands, then per pass the product, the quotients, the residuals and
stop tests, and the shifted LDLᵀ factor and solve of every block still
going, side by side, until every block stops.  Where the kernel did not
load, ``_noda`` takes the same scale in numpy and one
``operators.noda_pass`` per pass does the rest in numpy and LAPACK, bit for
bit.  Each block's arithmetic is bit for bit that of its operator on its
own.  Every block keeps its own shift, stop test and iteration count; a
block that stops stays in the stack, unsolved, so it reads the same stop on
every later pass.  A single operator is the stack of one.

``ResidentContext`` is the one route from residents to invasion fitness: it
holds a stack of residents, solves their steady states in one stacked
Newton call and their growth potentials once, and evaluates every
(resident, mutant) pair of a sequence of mutants in stacked solves;
``invasion_fitness`` is its 1x1 case.  A scan pays per mutant for what
depends on the mutant alone, once: its ``SpeciesLayout``, one kernel call
that writes its diffusion operator and what Noda needs of its couplings
(the checks that they are positive and their similarity in range, and the
symmetrizing similarity), since a pair's couplings are its mutant's, and its
Noda start vector.  Per pair it pays only for restricting the resident's
potential onto the mutant's diagonal and for Noda's passes.
``principal_eigenpairs`` takes operators built by hand, whose bands no
layout checked, through ``operators.checked_similarity``, numpy's checks of
the same.

``fitness_table`` is the one route from a set of (resident, mutant) pairs to
their eigenvalues: one context for its residents, and every masked pair, in
row-major order, in stacked Noda solves whose bands
(``mutant.di + restrict_diag(potential)``) are built one chunk of pairs
(``operators.stack_chunks``) at a time.  ``signs`` is the one rule that
turns eigenvalues into invasion signs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EigenSolveError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import PatchEnvironment, SpeciesTraits
from .operators import (
    LinearOperator,
    SpeciesLayout,
    assemble_diffusion,
    checked_similarity,
    env_on_dofs,
    noda_loop,
    noda_pass,
    stack_chunks,
)
from .steady import SteadyConfig, solve_resident_steady, solve_resident_steady_states

SIGN_TOL = 1e-8
RESIDUAL_TOL = 1e-13  # relative residual at which Noda's iteration stops
MAX_ITERS = 2000      # shifted solves after which it gives up

_EPS = np.finfo(float).eps
_BANDS = ("lo", "di", "up")


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue with its positive max-normalized eigenfunction."""

    lambda1: float
    phi: PiecewiseField
    residual: float
    iterations: int

    def sign(self) -> int:
        """-1, 0 (within the neutral band of ``SIGN_TOL``) or +1."""
        return int(signs(self.lambda1))


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


def _noda(lo, di, up, s, weights, off, x):
    """Noda's inverse iteration on the stack of (M, N) bands (zero corners);
    see ``principal_eigenpair``.  ``s`` and ``off`` are the bands'
    ``symmetrizing_similarity`` and ``weights`` is ``s²`` (the Rayleigh
    quotient of ``S x`` for the symmetric ``S A S⁻¹``), from their layouts
    or ``operators.checked_similarity``; ``x``, the start, is overwritten.
    The whole loop is one kernel call, ``operators.noda_loop``, or, where
    the kernel did not load, one ``operators.noda_pass`` per pass, bit for
    bit the same.  A non-finite band raises ValueError, as a shift that is
    not finite, before any solve.  Returns per block the eigenvalue, the
    reduced max-normalized eigenvector, the residual and the number of
    solves."""
    bands, similarity = (lo, di, up), (s, weights, off)
    solved = noda_loop(bands, similarity, RESIDUAL_TOL, x, MAX_ITERS)
    if solved is None:  # without the kernel, one noda_pass per pass
        # the kernel's scale: each block's largest band entry, at least 1
        scale = np.maximum(1.0, np.abs(bands).max(axis=(0, 2)))
        # keeps the rounded Collatz-Wielandt bound above the top eigenvalue
        margin = 8.0 * _EPS * scale
        # max(RESIDUAL_TOL * max(1, |theta|), 5e-15 * scale) is
        # max(RESIDUAL_TOL * |theta|, least)
        least = np.maximum(RESIDUAL_TOL, 5e-15 * scale)
        counts = np.full(len(x), MAX_ITERS)  # each block's solves, once it has stopped
        # the stop test comes before any factorisation, so an exact
        # eigenvector never factors a singular sigma I - A.  The LDLᵀ solves
        # take a solved iterate's residual to a few eps * scale at any size,
        # under ``least``, so there is no separate rounding-floor stop: a
        # loop that stalls above ``least`` ends at ``MAX_ITERS``.  The pass
        # solves only the blocks still going and leaves the others' rows as
        # they were, so a stopped block reads the same theta, residual and
        # stop on every later pass.
        for iterations in range(MAX_ITERS + 1):
            last = iterations == MAX_ITERS
            theta, res, done = noda_pass(bands, similarity, margin, least, RESIDUAL_TOL, x,
                                         not last)
            np.minimum(counts, iterations, out=counts, where=done)
            if done.all():
                break
        solved = theta, res, done, counts
    theta, res, done, counts = solved
    if not done.all():
        raise EigenSolveError(
            "principal eigen iteration did not converge; the operator may "
            "have a clustered leading spectrum"
        )
    return theta, x, res, counts


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


def principal_eigenpairs(ops: Sequence[LinearOperator]) -> list[EigenPair]:
    """``principal_eigenpair`` of each operator, all in one stacked solve.

    The operators must share one grid.  Each pair is bit for bit the one
    ``principal_eigenpair`` returns for that operator alone; a non-finite
    band raises ValueError, and an operator without positive couplings
    raises EigenSolveError for the whole call, both before any solve.  An
    empty ``ops`` raises ValidationError.
    """
    if not len(ops):
        raise ValidationError("ops: must hold at least one operator")
    grid = ops[0].grid
    if any(op.grid != grid for op in ops):
        raise ValidationError("stacked operators must share one grid")
    layout = SpeciesLayout(grid, [op.traits for op in ops])
    lo, di, up = (np.array([getattr(op, band) for op in ops], dtype=float) for band in _BANDS)
    # the entries outside each matrix are zeroed once, here, where operators
    # built by hand enter: the stack is then one block-diagonal matrix
    lo[:, 0] = up[:, -1] = 0.0
    similarity = checked_similarity(lo, di, up)
    return _eigenpairs(layout, *_noda(lo, di, up, *similarity, _start_vectors(layout)))


def principal_eigenpair(op: LinearOperator) -> EigenPair:
    """Top eigenvalue and positive eigenfunction of a reduced operator.

    Route: Noda's inverse iteration on ``A`` itself.  Starting from the
    jump-consistent constant (the kernel of the diffusion part), each pass
    takes the Rayleigh quotient of the iterate weighted by ``s²``, where
    ``S = diag(s)`` makes ``S A S⁻¹`` symmetric (``s[0] = 1``,
    ``s[i+1] = s[i] sqrt(up[i] / lo[i+1])``), and stops once the residual
    ``|A x - theta x|`` is at most
    ``max(RESIDUAL_TOL max(1, |theta|), 5e-15 scale)``, ``scale`` the
    largest band entry (at least 1); the LDLᵀ solves bring a solved
    iterate's residual to a few ``eps * scale`` at every size, under that,
    and a loop that stalls above it raises EigenSolveError after
    ``MAX_ITERS`` solves.  Otherwise it shifts to the Collatz-Wielandt
    bound ``max_i (A x)_i / x_i`` and solves once with ``sigma I - A``, as
    ``S⁻¹ (sigma I - S A S⁻¹)⁻¹ S``: one LDLᵀ factorisation and solve of
    the symmetric positive definite shifted matrix (LAPACK's pttrf/pttrs
    arithmetic; a stack's blocks side by side in the kernel's pass).
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
    return principal_eigenpairs([op])[0]


def growth_potential(
    grid: Grid, env: PatchEnvironment, ustar, factor: float = 1.0
) -> np.ndarray:
    """Potential r (1 - factor * u* / k) on the full DOFs; ``ustar`` is a
    PiecewiseField, or full-DOF values with one row per state."""
    r_full, k_full = env_on_dofs(grid, env)
    values = ustar.values if isinstance(ustar, PiecewiseField) else ustar
    return r_full * (1.0 - factor * values / k_full)


class ResidentContext:
    """Steady states and growth potentials of a stack of residents, solved once.

    ``residents`` is one SpeciesTraits (a stack of one) or a nonempty
    sequence of them.  Their steady states are solved in one stacked call,
    unless ``ustar`` gives the state of a single resident; ``potential``
    holds each resident's ``r (1 - u*/k)`` as a row.  ``fitness`` gives the
    invasion fitness of every (resident, mutant) pair: the principal
    eigenpair of the mutant's diffusion operator plus the resident's
    potential.
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
        if not len(residents):
            raise ValidationError("residents: must hold at least one resident")
        if ustar is None:
            self.ustar = solve_resident_steady_states(
                landscape, env, residents, grid, steady_config
            )
        elif len(residents) > 1:
            raise ValidationError("ustar gives the steady state of a single resident")
        elif not np.isfinite(ustar.values).all():
            # the one way a non-finite potential could reach Noda
            raise ValidationError("ustar must be finite")
        else:
            self.ustar = [ustar]
        self.grid = grid
        self.potential = growth_potential(grid, env, np.array([u.values for u in self.ustar]))

    def _solve(self, mutants: Sequence[SpeciesTraits], solve: np.ndarray):
        """Solve the (resident, mutant) pairs that the ``(R, M)`` mask
        ``solve`` selects: the mutants are assembled one stacked solve's
        worth (``stack_chunks``) at a time, each chunk's pairs solved in
        row-major order, again one stacked solve's worth at a time.  Yields
        per solve the pairs' resident and mutant indices, their layout and
        the ``_noda`` arrays."""
        for part in stack_chunks(len(mutants), self.grid.num_reduced):
            layout = SpeciesLayout(self.grid, mutants[part])
            start = _start_vectors(layout)
            rows, cols = np.nonzero(solve[:, part])
            for chunk in stack_chunks(len(rows), self.grid.num_reduced):
                i, j = rows[chunk], cols[chunk]
                pairs = layout[j]  # a pair's couplings are its mutant's
                di = pairs.di + pairs.restrict_diag(self.potential.take(i, axis=0))
                yield i, part.start + j, pairs, _noda(
                    pairs.lo, di, pairs.up, pairs.s, pairs.s2, pairs.off, start.take(j, axis=0)
                )

    def fitness(self, mutants: Sequence[SpeciesTraits]) -> list[EigenPair]:
        """One EigenPair per (resident, mutant) pair, in row-major order (one
        per mutant, in order, for one resident).  Each is bit for bit
        ``principal_eigenpair(assemble_linearization(grid, mutant, potential))``."""
        if not len(mutants):
            raise ValidationError("mutants: must hold at least one mutant")
        shape = (len(self.potential), len(mutants))
        out = [None] * (shape[0] * shape[1])
        for i, j, layout, solved in self._solve(mutants, np.ones(shape, bool)):
            for k, pair in zip(np.ravel_multi_index((i, j), shape), _eigenpairs(layout, *solved)):
                out[k] = pair
        return out


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
    chosen = [mutants[j] for j in cols]
    for i, j, _, solved in context._solve(chosen, solve[np.ix_(rows, cols)]):
        table[rows[i], cols[j]] = solved[0]
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
    return context.fitness([mutant])[0]


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
