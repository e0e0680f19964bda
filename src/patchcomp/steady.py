"""Single-species steady states: Newton, restarted from a super-solution.

The steady state is the unique positive equilibrium of logistic growth plus
diffusion under the species' interface conditions.  It is solved on the
reduced DOFs in coefficient form, ``A u + u (a - b u) = 0``, with the
eliminated right traces folded into the trace DOFs' logistic coefficients
once per solve (``SpeciesLayout.logistic_coefficients``, which the time
stepper's competition term shares); the Jacobian's diagonal is
``di + a - 2 b u``, and only the final state is expanded to the full DOFs.

``newton`` is the package's one Newton loop: full steps on a tridiagonal
Jacobian, stopped at the tolerance plus the rounding level of one residual
evaluation, and stalled by a step that does not lower the residual.  It runs
on one iterate or on a stack of R independent ones: each block keeps its own
norm, noise floor, stop and stall, and the going blocks' Jacobians are
factored together as one block-diagonal matrix, each bit for bit as on its
own.  A block that stops stays in the stack with a zero step, so its
iterate and residual stay as they were.

``solve_resident_steady_states`` solves R residents that share a grid and an
environment as the stacks of ``operators.stack_chunks``; when Newton leaves
blocks unconverged (stalled, exhausted, or at the trivial root), the whole
stack starts again, those blocks from the super-solution ``M c`` (``c`` the
jump-consistent constant, ``M = super_level``) and the others from their
states, where they stop at once.  The steady state is the one positive
equilibrium of a cooperative system with a concave residual, so every full
Newton iterate from a super-solution stays a super-solution at or above it,
where minus the Jacobian is a nonsingular M-matrix: the restart needs no
further fallback.
``solve_resident_steady`` is its R = 1 case, and a stack of one runs on its
own (N,) arrays, where it costs what a single solve does.  The
continuous-form oracle in ``transform`` drives its own discretization
through the same loop.
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
    diffusion_bands,
    factor_blocks,
    logistic_residual,
    stack_chunks,
)

ARMIJO = 1e-4            # the decrease factor a full Newton step must reach


@dataclass(frozen=True)
class SteadyConfig:
    """Newton's stop tolerance and its iteration cap, which bounds each Newton
    run: the first one and the restart from the super-solution alike."""

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
    """``max|a|`` (and ``initial``) per block (row) of a stack, or of one block."""
    return np.maximum.reduce(np.abs(a), axis=-1, initial=initial)


def newton(residual, u0, floor: float, cap: float, row_scale, config: SteadyConfig):
    """Newton for ``F(u) = 0`` with a tridiagonal Jacobian, on one iterate
    ``u0`` of shape (N,) or on a stack of R independent ones, (R, N).

    ``residual(u)`` returns ``F(u)`` and the Jacobian's (lo, di, up) bands in
    the stack convention of ``operators`` (each shaped as ``u``, ``lo[..., 0]``
    and ``up[..., -1]`` zero), so each block's rows depend on that block's
    iterate alone.  The going blocks' Jacobians are factored together
    (``factor_blocks``), each bit for bit as on its own; the blocks that have
    stopped stay in the stack with a zero step, and their bands, which may be
    singular or non-finite, are never factored.

    Every block keeps its own stop, step and stall.  Iterates are clipped
    below at ``floor``.  The stop is ``max|F| <= newton_tol + noise``, where
    the noise ``8 eps row_scale max(max|u|, cap)`` is the rounding level of one
    residual evaluation (``row_scale`` is one value, or one per block of a
    stack).  Each step is the full one; a step that does not lower ``max|F|``
    by the Armijo factor (or leaves it non-finite) stalls its block for the
    rest of the run, at its last iterate, and ``max_newton_iters`` caps the
    run (each run: a caller that starts Newton again gets the cap again).
    Returns ``(u, max|F|, converged)``, one norm and flag per block (scalars
    for one iterate); a stalled or exhausted block returns its last iterate
    unconverged.
    """
    u = np.maximum(np.asarray(u0, dtype=float), floor)
    noise = 8.0 * np.finfo(float).eps * np.asarray(row_scale, dtype=float)
    res, bands = residual(u)
    norm = _block_max(res)
    stalled = None  # the blocks whose full step has failed
    for iteration in range(config.max_newton_iters + 1):
        bound = config.newton_tol + noise * _block_max(u, cap)
        # NaN fails both tests, so a non-finite residual stops its block; a
        # stopped block's iterate and residual stay as they are, so it stops
        # again on every later pass
        going = (norm > bound) & (norm < np.inf)
        if stalled is not None:
            going &= ~stalled
        count = np.count_nonzero(going)
        if not count or iteration == config.max_newton_iters:
            return u, norm, norm <= bound
        if count == going.size:
            step = factor_blocks(*bands, -res)
        else:
            step = np.zeros_like(u)
            step[going] = factor_blocks(*(band[going] for band in bands), -res[going])
        trial = np.maximum(u + step, floor)
        res, bands = residual(trial)
        trial_norm = _block_max(res)
        accept = trial_norm <= (1.0 - ARMIJO) * norm
        if count < going.size:
            accept |= ~going  # a stopped block keeps its iterate
        if np.count_nonzero(accept) < accept.size:
            # a failed block keeps its last iterate and norm; its residual
            # and bands are never read again, since it never goes again
            stalled = ~accept if stalled is None else stalled | ~accept
            trial = np.where(accept[..., None], trial, u)
            trial_norm = np.where(accept, trial_norm, norm)
        u, norm = trial, trial_norm
    raise AssertionError("unreachable: the last pass stops every block")


class _SteadyProblem:
    """The steady problem ``A u + u (a - b u) = 0`` of one species, on (N,)
    arrays, or of a stack of R species, on (R, N) ones, on one grid and
    environment.  What stays fixed during the solve is built once: the
    diffusion bands and the logistic coefficients ``(a, b)`` of
    ``SpeciesLayout.logistic_coefficients`` (the eliminated right traces
    folded into the trace DOFs), so Newton never leaves the reduced DOFs.
    The capacities ``k`` give the floor and the cap."""

    def __init__(self, grid: Grid, env: PatchEnvironment, traits):
        self.layout, self.lo, self.di, self.up = diffusion_bands(grid, traits)
        self.a, self.b = self.layout.logistic_coefficients(env, self.layout.p)
        self.k = env.k_array

    def residual(self, u: np.ndarray):
        """``A u + u (a - b u)`` and the bands of its Jacobian, whose
        diagonal is ``di + a - 2 b u``."""
        res, slope = logistic_residual(self.lo, self.di, self.up, self.a, self.b, u)
        return res, (self.lo, slope, self.up)

    def newton(self, u0, config: SteadyConfig):
        """One Newton run.  A root with ``b u < a / 2`` everywhere counts as
        unconverged: it is the trivial one, since ``W A`` is symmetric and
        ``A c = 0``, so ``sum(c w u (a - b u)) = 0`` at a positive state,
        which therefore has ``b u >= a`` somewhere."""
        row_scale = (np.abs(self.di) + np.abs(self.lo) + np.abs(self.up)).max(axis=-1)
        u, norm, converged = newton(
            self.residual, u0, 1e-12 * self.k.min(), self.k.max(), row_scale, config
        )
        return u, norm, converged & np.any(self.b * u >= 0.5 * self.a, axis=-1)

    def solve(self, u0: np.ndarray, config: SteadyConfig) -> np.ndarray:
        """The reduced states: Newton from ``u0``; when it leaves blocks
        unconverged, Newton again on the whole stack, from the super-solution
        ``M c`` in those blocks and from their own iterates in the others,
        which stop again at once."""
        u, norm, converged = self.newton(u0, config)
        if np.count_nonzero(converged) < converged.size:
            scales = self.layout.scales
            top = self.layout.fill(super_level(self.k, scales)[..., None] * scales)
            u, norm, converged = self.newton(np.where(converged[..., None], u, top), config)
            if np.count_nonzero(converged) < converged.size:
                raise SteadyConvergenceError(
                    "steady solve failed after Newton and its restart from a super-solution",
                    residual=float(np.ravel(norm)[~np.ravel(converged)][0]),
                )
        if u.min() <= 0:
            lost = np.ravel(u.min(axis=-1) <= 0)
            raise SteadyConvergenceError(
                "steady state lost positivity", residual=float(np.ravel(norm)[lost][0])
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
    that resident alone.  Newton runs on each stack, from the
    per-patch capacity profiles or from ``initial`` (one finite reduced row
    per resident, shaped (R, N), else ValidationError); the blocks it leaves
    unconverged start again from the super-solution ``M c``.  A block that
    still fails, or a state that is not positive, raises
    SteadyConvergenceError for the call.  A stack of one is solved on its own
    (N,) arrays, where it costs what a single solve does.
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
        chunk = residents[part]
        problem = _SteadyProblem(grid, env, chunk[0] if len(chunk) == 1 else chunk)
        u0 = np.empty(problem.di.shape)
        u0[...] = problem.layout.fill(env.k_array) if initial is None else initial[part]
        u = problem.solve(u0, config)
        full = problem.layout.expand(u).reshape(-1, grid.num_dofs)
        states.extend(PiecewiseField(grid, values) for values in full)
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
    explicit reduced initial guess, shaped (N,), is given.  The R = 1 case of
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
