"""Single-species steady states: monotone Newton from above.

The steady state is the unique positive equilibrium of logistic growth plus
diffusion under the species' interface conditions.  It is solved on the
reduced DOFs in coefficient form, ``F(u) = A u + u (a - b u) = 0``, with the
eliminated right traces folded into the trace DOFs' logistic coefficients
once per solve (``SpeciesLayout.logistic_coefficients``, which the time
stepper's competition term shares); only the final state is expanded to the
full DOFs.

``F`` is concave (its Hessian is ``-2 b`` on the diagonal) and cooperative,
so Newton from a super-solution decreases monotonically to the state
(Ortega & Rheinboldt 1970, §13.3; Pao 1992).  Every start is lifted
entrywise to at least ``a / b``, the folded capacity, where
``a - 2 b u <= -a < 0``: minus the Jacobian is a positive definite M-matrix
there, so the first iterate is a super-solution at or above the state, and
so is every later one, where minus the Jacobian is at least its positive
definite value at the state.  So every step is one LDLᵀ of pttrf's and
pttrs's arithmetic on the couplings' similarity, which the species'
``SpeciesLayout`` writes beside its bands, and no step needs a line search,
a floor, a guard against the trivial root or a restart.

``newton`` is the package's one Newton loop, on a stack of R independent
iterates, each block with its own stop, the going blocks factored together.
``solve_resident_steady_states`` solves R residents that share a grid and an
environment as the stacks of ``operators.stack_chunks``, in one Newton run
per stack; ``solve_resident_steady`` is its R = 1 case, a stack of one.  On
the kernel's route a run is one call, ``operators.logistic_newton``, which
runs ``newton``'s arithmetic on ``_SteadyProblem.residual``'s, bit for bit;
where the kernel did not load, ``newton`` runs.  The continuous-form oracle
in ``transform`` drives its own discretization through ``newton``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SteadyConvergenceError, ValidationError, checked_number
from .grid import Grid, PiecewiseField, patch_derivative
from .landscape import (
    PatchEnvironment,
    SpeciesTraits,
    ifd_strategy,
    strict_dominates,
)
from .operators import (
    NOT_NEGATIVE_DEFINITE,
    SpeciesLayout,
    factor_symmetrized,
    logistic_newton,
    stack_chunks,
    tridiagonal_matvec,
)


@dataclass(frozen=True)
class SteadyConfig:
    """Newton's stop tolerance and its iteration cap."""

    newton_tol: float = 1e-10
    max_newton_iters: int = 50

    def __post_init__(self):
        # the messages name the field as ``section.field``, so a JSON
        # config's error needs no wrapper
        checked_number(self.newton_tol, "steady.newton_tol")
        checked_number(self.max_newton_iters, "steady.max_newton_iters", count=True)


def super_level(k, scales):
    """``max_i k_i / s_i``, per species of a stack (``scales`` (n,) or
    (R, n)): the least ``M`` for which ``M`` times the jump-consistent
    constant, ``s_i`` on patch i, is a super-solution of the logistic steady
    problem with capacities ``k``."""
    return (k / scales).max(axis=-1)


def _block_max(a: np.ndarray, initial=None):
    """``max|a|`` (and ``initial``) per block (row) of a stack."""
    return np.maximum.reduce(np.abs(a), axis=-1, initial=initial)


def newton(residual, u0, cap: float, row_scale, config: SteadyConfig):
    """Newton for ``F(u) = 0`` on a stack of R independent iterates ``u0``,
    shaped (R, N), for a tridiagonal Jacobian ``J`` whose negative is
    symmetric positive definite under a diagonal similarity ``S = diag(s)``.

    ``residual(u)`` returns ``F(u)`` and ``(slope, s, off)``: ``J``'s main
    diagonal, and ``s`` and the off-diagonal ``off`` of its couplings'
    ``symmetrizing_similarity``, each shaped as ``u`` in the stack
    convention of ``operators``, so each block's rows depend on that block's
    iterate alone.  Each step solves ``-J step = F`` as
    ``S⁻¹ (-S J S⁻¹)⁻¹ S F`` by one ``factor_symmetrized``; the going blocks
    are factored together, each bit for bit as on its own, and the blocks
    that have stopped stay in the stack with a zero step, their bands never
    factored.

    Every block keeps its own stop and step.  The stop is
    ``max|F| <= newton_tol + noise``, where the noise
    ``8 eps row_scale max(max|u|, cap)`` is the rounding level of one
    residual evaluation (``row_scale`` is one value, or one per block of a
    stack); a non-finite residual stops its block, unconverged.  Each step is
    the full one, and ``max_newton_iters`` caps the run.  Returns
    ``(u, max|F|, converged, steps)``, one norm, flag and step count per
    block.  A ``-S J S⁻¹`` that is not positive definite raises
    SteadyConvergenceError with the norm of the first block still going.
    """
    u = np.array(u0, dtype=float)
    noise = 8.0 * np.finfo(float).eps * np.asarray(row_scale, dtype=float)
    steps = np.zeros(len(u), np.intp)
    res, jacobian = residual(u)
    norm = _block_max(res)
    for iteration in range(config.max_newton_iters + 1):
        bound = config.newton_tol + noise * _block_max(u, cap)
        # NaN fails both tests, so a non-finite residual stops its block; a
        # stopped block's iterate and residual stay as they are, so it stops
        # again on every later pass
        going = (norm > bound) & (norm < np.inf)
        count = np.count_nonzero(going)
        if not count or iteration == config.max_newton_iters:
            return u, norm, norm <= bound, steps
        slope, s, off, f = (*jacobian, res)
        if count < going.size:
            slope, s, off, f = (a[going] for a in (slope, s, off, f))
        try:
            factor = factor_symmetrized(slope, off, 0.0)
        except np.linalg.LinAlgError:
            raise SteadyConvergenceError(
                NOT_NEGATIVE_DEFINITE, residual=float(norm[going][0])
            ) from None
        step = factor(s * f)
        step /= s
        if count < going.size:
            u[going] += step
        else:
            u += step
        steps += going
        res, jacobian = residual(u)
        norm = _block_max(res)
    raise AssertionError("unreachable: the last pass stops every block")


class _SteadyProblem:
    """The steady problem ``A u + u (a - b u) = 0`` of a stack of R species,
    on (R, N) arrays, on one grid and environment.  What stays fixed during
    the solve is built once: the ``SpeciesLayout``, with the diffusion bands
    and their couplings' similarity, and the logistic coefficients
    ``(a, b)`` of ``SpeciesLayout.logistic_coefficients`` (the eliminated
    right traces folded into the trace DOFs), so Newton never leaves the
    reduced DOFs.  The capacities ``k`` give the cap."""

    def __init__(self, grid: Grid, env: PatchEnvironment, traits):
        self.layout = SpeciesLayout(grid, traits)
        self.a, self.b = self.layout.logistic_coefficients(env, self.layout.p)
        self.k = env.k_array

    def residual(self, u: np.ndarray):
        """``A u + u (a - b u)`` and its Jacobian for ``newton``: the
        diagonal ``di + a - 2 b u`` and the couplings' similarity, by the
        operations of the kernel's ``newton``, bit for bit."""
        lo, di, up = self.layout.bands
        bu = self.b * u
        res = tridiagonal_matvec(lo, di, up, u)
        res += u * (self.a - bu)
        slope = self.a - 2.0 * bu
        slope += di
        return res, (slope, self.layout.s, self.layout.off)

    def run(self, u0: np.ndarray, config: SteadyConfig):
        """One Newton run from ``u0`` lifted entrywise to at least ``a / b``:
        ``(u, max|F|, converged, steps)`` per block, from one kernel call
        (``operators.logistic_newton``) or, where the kernel did not load,
        ``newton`` on ``residual``, bit for bit the same."""
        layout = self.layout
        u, cap = np.maximum(u0, self.a / self.b), self.k.max()
        out = logistic_newton(layout.bands, (layout.s, layout.off), self.a, self.b, u, cap,
                              config.newton_tol, config.max_newton_iters)
        if out is None:
            lo, di, up = layout.bands
            row_scale = (np.abs(di) + np.abs(lo) + np.abs(up)).max(axis=-1)
            out = newton(self.residual, u, cap, row_scale, config)
        return out

    def solve(self, u0: np.ndarray, config: SteadyConfig) -> np.ndarray:
        """The reduced states of ``run``; a block it leaves unconverged, or a
        state that is not positive, raises SteadyConvergenceError."""
        u, norm, converged, _ = self.run(u0, config)
        if not converged.all():
            raise SteadyConvergenceError(
                "steady Newton did not converge", residual=float(norm[~converged][0])
            )
        if u.min() <= 0:
            lost = u.min(axis=-1) <= 0
            raise SteadyConvergenceError(
                "steady state lost positivity", residual=float(norm[lost][0])
            )
        return u


def solve_resident_steady_states(
    landscape,
    env: PatchEnvironment,
    residents: Sequence[SpeciesTraits],
    grid: Grid,
    config: SteadyConfig | None = None,
    initial: np.ndarray | None = None,
) -> list[PiecewiseField]:
    """Positive steady states of R single-species problems on one grid and
    environment, solved as the stacks of ``operators.stack_chunks``.

    Each state is bit for bit the one ``solve_resident_steady`` returns for
    that resident alone.  Newton runs once on each stack, from the
    per-patch capacity profiles or from ``initial`` (one finite reduced row
    per resident, shaped (R, N), else ValidationError), each lifted
    entrywise to at least the folded capacity ``a / b``.  A block that does
    not converge, or a state that is not positive, raises
    SteadyConvergenceError for the call.
    """
    residents = list(residents)
    config = config or SteadyConfig()
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        shape = (len(residents), grid.num_reduced)
        if initial.shape != shape or not np.isfinite(initial).all():
            raise ValidationError(f"initial: must be finite and shaped {shape}")
    states = []
    for part in stack_chunks(len(residents), grid.num_reduced):
        problem = _SteadyProblem(grid, env, residents[part])
        u0 = problem.layout.fill(env.k_array) if initial is None else initial[part]
        u = problem.solve(u0, config)
        states.extend(PiecewiseField(grid, values) for values in problem.layout.expand(u))
    return states


def solve_resident_steady(
    landscape,
    env: PatchEnvironment,
    traits: SpeciesTraits,
    grid: Grid,
    config: SteadyConfig | None = None,
    initial: np.ndarray | None = None,
) -> PiecewiseField:
    """Positive steady state of the single-species problem on this grid.

    Deterministic: starts from the per-patch capacity profile unless an
    explicit reduced initial guess, shaped (N,), is given, either lifted
    entrywise to at least the folded capacity.  The R = 1 case of
    ``solve_resident_steady_states``.
    """
    if initial is not None:
        initial = np.asarray(initial, dtype=float)[None]
    return solve_resident_steady_states(landscape, env, [traits], grid, config, initial)[0]


_FLAT_FACTOR = 1e-8


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-patch derivative structure of a steady state."""

    patch_signs: tuple[str, ...]             # "decreasing" | "increasing" | "flat" | "mixed"
    boundary_left: str                        # value at 0 vs k_1: "below" | "above" | "equal"
    boundary_right: str                       # value at L vs k_n
    interface_derivatives: tuple[tuple[float, float], ...]  # (left trace, right trace)
    crossovers: tuple[tuple[int, float], ...]  # (patch, x) sign changes inside patches
    expected_pattern: str | None              # theory-backed expectation, if any
    tolerance: float

    @property
    def monotone(self) -> bool:
        kinds = set(self.patch_signs)
        return kinds == {"decreasing"} or kinds == {"increasing"}


def _compare(value: float, ref: float, tol: float) -> str:
    if value < ref - tol:
        return "below"
    if value > ref + tol:
        return "above"
    return "equal"


def monotonicity_report(
    ustar: PiecewiseField, env: PatchEnvironment, traits: SpeciesTraits
) -> MonotonicityReport:
    """Classify the steady state's slope patch by patch.

    Derivatives below ``1e-8 * max k`` in magnitude count as flat rather than
    being assigned a sign; the supporting theory only speaks about strict
    monotonicity.
    """
    grid = ustar.grid
    tol = _FLAT_FACTOR * env.k_array.max()
    signs: list[str] = []
    crossovers: list[tuple[int, float]] = []
    interface_derivs: list[tuple[float, float]] = []

    derivs = []
    for i in range(grid.n):
        dv = patch_derivative(ustar.patch_values(i), grid.spacing(i))
        derivs.append(dv)
        # the outer ends carry a forced-zero derivative (no flux); the strict
        # statements concern the open patch and the interface traces only
        lo = 1 if i == 0 else 0
        hi = dv.size - 1 if i == grid.n - 1 else dv.size
        inner = dv[lo:hi]
        if np.all(inner < -tol):
            signs.append("decreasing")
        elif np.all(inner > tol):
            signs.append("increasing")
        elif np.all(np.abs(inner) <= tol):
            signs.append("flat")
        else:
            signs.append("mixed")
            nodes = grid.patch_nodes(i)[lo:hi]
            signed = np.where(inner > tol, 1, np.where(inner < -tol, -1, 0))
            nz = np.flatnonzero(signed)
            for a, b in zip(nz[:-1], nz[1:]):
                if signed[a] != signed[b]:
                    crossovers.append((i, float(0.5 * (nodes[a] + nodes[b]))))

    for m in range(grid.n - 1):
        interface_derivs.append((float(derivs[m][-1]), float(derivs[m + 1][0])))

    expected = None
    if grid.n >= 2:
        kbar = ifd_strategy(env)
        p = traits.jump
        if strict_dominates(p, kbar):
            expected = "decreasing"
        elif strict_dominates(kbar, p):
            expected = "increasing"

    return MonotonicityReport(
        patch_signs=tuple(signs),
        boundary_left=_compare(float(ustar.values[0]), env.k[0], tol),
        boundary_right=_compare(float(ustar.values[-1]), env.k[-1], tol),
        interface_derivatives=tuple(interface_derivs),
        crossovers=tuple(crossovers),
        expected_pattern=expected,
        tolerance=tol,
    )
