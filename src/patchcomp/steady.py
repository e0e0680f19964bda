"""Single-species steady states: damped Newton with a time-march fallback.

The steady state is the unique positive equilibrium of logistic growth plus
diffusion under the species' interface conditions.  It is solved on the
reduced DOFs in coefficient form, ``A u + u (a - b u) = 0``, with the
eliminated right traces folded into the trace DOFs' logistic coefficients
once per solve (``SpeciesLayout.logistic_coefficients``, which the time
stepper's competition term shares); the Jacobian's diagonal is
``di + a - 2 b u``, and only the final state is expanded to the full DOFs.

``damped_newton`` is the package's one Newton loop: an Armijo line search on
a tridiagonal Jacobian, stopped at the tolerance plus the rounding level of
one residual evaluation.  It runs on one iterate or on a stack of R
independent ones: each block keeps its own norm, noise floor, halving, stop
and stall, and the going blocks' Jacobians are factored together as one
block-diagonal matrix, each bit for bit as on its own; the stack is
re-indexed only when some blocks stop and others go on.

``solve_resident_steady_states`` solves R residents that share a grid and an
environment as stacks of at most ``_STACK_DOFS`` reduced DOFs; the blocks
Newton leaves stalled march into the basin as a sub-stack (implicit
diffusion), and Newton polishes them.  ``solve_resident_steady`` is its
R = 1 case, and a stack of one runs on its own (N,) arrays, where it costs
what a single solve does.  The continuous-form oracle in ``transform``
drives its own discretization through the same loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SteadyConvergenceError, checked_number
from .grid import Grid, PiecewiseField, patch_derivative
from .landscape import (
    PatchEnvironment,
    SpeciesTraits,
    ifd_strategy,
    strict_dominates,
)
from .operators import (
    _STACK_DOFS,
    diffusion_bands,
    factor_blocks,
    tridiagonal_matvec,
)

ARMIJO = 1e-4            # sufficient-decrease factor of the line search
MIN_STEP = 1e-4          # a line search that needs a shorter step has stalled
FALLBACK_DT = 0.1        # time step of the fallback march
FALLBACK_HORIZON = 2000.0  # time after which the fallback march gives up


@dataclass(frozen=True)
class SteadyConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50

    def __post_init__(self):
        # the messages name the field as ``section.field``, so a JSON
        # config's error needs no wrapper
        checked_number(self.newton_tol, "steady.newton_tol")
        checked_number(self.max_newton_iters, "steady.max_newton_iters", count=True)


def _block_max(a: np.ndarray, initial=None):
    """``max|a|`` (and ``initial``) per block (row) of a stack, or of one block."""
    return np.maximum.reduce(np.abs(a), axis=-1, initial=initial)


def damped_newton(residual, u0, floor: float, cap: float, row_scale, config: SteadyConfig):
    """Damped Newton for ``F(u) = 0`` with a tridiagonal Jacobian, on one
    iterate ``u0`` of shape (N,) or on a stack of R independent ones, (R, N).

    ``residual(u, rows)`` returns ``F(u)`` and the Jacobian's (lo, di, up)
    bands in the stack convention of ``operators`` (each shaped as ``u``,
    ``lo[..., 0]`` and ``up[..., -1]`` zero) for the blocks ``rows`` of the
    stack, whose iterates ``u`` holds: ``rows`` is None while every block
    goes on, and the index array of the blocks still going once some have
    stopped.  The going blocks' Jacobians are factored together
    (``factor_blocks``), each bit for bit as on its own.

    Every block keeps its own stop, step and stall.  Iterates are clipped
    below at ``floor``.  The stop is ``max|F| <= newton_tol + noise``, where
    the noise ``8 eps row_scale max(max|u|, cap)`` is the rounding level of one
    residual evaluation (``row_scale`` is one value, or one per block of a
    stack).  Each step is halved until ``max|F|`` falls by the Armijo factor;
    a step that would have to be shorter than ``MIN_STEP`` (or a non-finite
    residual) stalls the block.  Returns ``(u, max|F|, converged)``, one norm
    and flag per block (scalars for one iterate); a stalled or exhausted
    block returns its last iterate unconverged.
    """
    u = np.maximum(np.asarray(u0, dtype=float), floor)
    noise = 8.0 * np.finfo(float).eps * np.asarray(row_scale, dtype=float)
    res, bands = residual(u, None)
    rows = None  # the going blocks' indices into the stack, once some have stopped
    out = None  # (u, norm, converged) of every block, once one has stopped
    stalled = None  # the blocks whose last line search stalled
    for iteration in range(config.max_newton_iters + 1):
        norm = _block_max(res)
        bound = config.newton_tol + noise * _block_max(u, cap)
        # NaN fails both tests, so a non-finite residual stops its block
        going = (norm > bound) & (norm < np.inf)
        if stalled is not None:
            going &= ~stalled
        if iteration == config.max_newton_iters:
            going = np.zeros_like(going)
        count = np.count_nonzero(going)
        if count < going.size:
            converged = norm <= bound
            if out is None:
                if not count:  # every block stops on one pass (always, for one iterate)
                    return u, norm, converged
                out = (np.empty_like(u), np.empty_like(norm), np.empty_like(converged))
                rows = np.arange(len(u))
                noise = np.broadcast_to(noise, norm.shape)
            done = ~going
            at = rows[done]
            out[0][at], out[1][at], out[2][at] = u[done], norm[done], converged[done]
            if not count:
                return out
            # drop the stopped blocks from the stack
            rows, u, res, norm, noise = (a[going] for a in (rows, u, res, norm, noise))
            bands = tuple(band[going] for band in bands)
        step = factor_blocks(*bands)(-res)
        trial = np.maximum(u + step, floor)
        trial_res, trial_bands = residual(trial, rows)
        accept = _block_max(trial_res) <= (1.0 - ARMIJO) * norm
        stalled = None
        if np.count_nonzero(accept) < accept.size:
            alpha, stalled = np.ones_like(norm), np.zeros_like(accept)
            while not np.all(accept):
                # the blocks still searching halve their steps; the others
                # keep their accepted trial, and a stalled block its last iterate
                search = ~(accept | stalled)
                alpha = np.where(search, 0.5 * alpha, alpha)
                stalled = stalled | (search & (alpha < MIN_STEP))
                search &= ~stalled
                again = np.maximum(u + alpha[..., None] * step, floor)
                again_res, again_bands = residual(again, rows)
                now = search & (_block_max(again_res) <= (1.0 - ARMIJO * alpha) * norm)
                keep, now = (now | stalled)[..., None], now[..., None]
                trial = np.where(keep, np.where(now, again, u), trial)
                trial_res = np.where(keep, np.where(now, again_res, res), trial_res)
                trial_bands = tuple(
                    np.where(keep, np.where(now, a, b), t)
                    for a, b, t in zip(again_bands, bands, trial_bands)
                )
                accept = accept | keep[..., 0]
        u, res, bands = trial, trial_res, trial_bands
    raise AssertionError("unreachable: the last pass stops every block")


class _SteadyProblem:
    """The steady problem ``A u + u (a - b u) = 0`` of one species, on (N,)
    arrays, or of a stack of R species, on (R, N) ones, on one grid and
    environment.  What stays fixed during the solve is built once: the
    diffusion bands and the logistic coefficients ``(a, b)`` of
    ``SpeciesLayout.logistic_coefficients`` (the eliminated right traces
    folded into the trace DOFs), so Newton and the march never leave the
    reduced DOFs.  The capacities ``k`` give the floor and the cap.
    ``problem[rows]`` is a stack's sub-stack, with what Newton and the march
    read (the ``layout`` stays with the whole stack)."""

    _ROWS = ("lo", "di", "up", "a", "b")

    def __init__(self, grid: Grid, env: PatchEnvironment, traits):
        self.layout, self.lo, self.di, self.up = diffusion_bands(grid, traits)
        self.a, self.b = self.layout.logistic_coefficients(env, self.layout.p)
        self.k = env.k_array

    def __getitem__(self, rows) -> "_SteadyProblem":
        sub = object.__new__(_SteadyProblem)
        for name in self._ROWS:
            setattr(sub, name, getattr(self, name)[rows])
        sub.k = self.k
        return sub

    def residual(self, u: np.ndarray, rows=None):
        """``A u + u (a - b u)`` and the bands of its Jacobian, whose
        diagonal is ``di + a - 2 b u``, for the blocks ``rows`` of a stack
        (all of them when None)."""
        problem = self if rows is None else self[rows]
        bu = problem.b * u
        res = tridiagonal_matvec(problem.lo, problem.di, problem.up, u)
        res += u * (problem.a - bu)
        slope = problem.a - 2.0 * bu
        slope += problem.di
        return res, (problem.lo, slope, problem.up)

    def newton(self, u0, config: SteadyConfig):
        row_scale = (np.abs(self.di) + np.abs(self.lo) + np.abs(self.up)).max(axis=-1)
        return damped_newton(
            self.residual, u0, 1e-12 * self.k.min(), self.k.max(), row_scale, config
        )

    def march(self, u: np.ndarray) -> np.ndarray:
        """Implicit-diffusion march toward the attracting steady state: each
        block stops once its residual is below 1e-4 (checked every 20 steps),
        and every block at ``FALLBACK_HORIZON``."""
        dt, floor = FALLBACK_DT, 1e-12 * self.k.min()
        solve = factor_blocks(-dt * self.lo, 1.0 + -dt * self.di, -dt * self.up)
        going = np.ones(u.shape[:-1], bool)
        for step in range(1, int(np.ceil(FALLBACK_HORIZON / dt)) + 1):
            rhs = u + dt * (u * (self.a - self.b * u))
            u = np.where(going[..., None], np.maximum(solve(rhs), floor), u)
            if step % 20 == 0:
                going &= ~(np.abs(self.residual(u)[0]).max(axis=-1) < 1e-4)
                if not going.any():
                    break
        return u

    def solve(self, u0: np.ndarray, config: SteadyConfig) -> np.ndarray:
        """The reduced states: Newton from ``u0``; the blocks it leaves
        unconverged march (as a sub-stack, unless every block is one of
        them, as a single (N,) problem's one block always is) and Newton
        polishes them."""
        u, norm, converged = self.newton(u0, config)
        count = np.count_nonzero(converged)
        if count < converged.size:
            if count:
                rows = np.flatnonzero(~converged)
                stalled = self[rows]
                u[rows], norm[rows], converged[rows] = stalled.newton(
                    stalled.march(u[rows]), config
                )
            else:
                u, norm, converged = self.newton(self.march(u), config)
            if np.count_nonzero(converged) < converged.size:
                raise SteadyConvergenceError(
                    "steady solve failed after Newton and time-march fallback",
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
    environment, solved as stacks of at most ``_STACK_DOFS`` reduced DOFs.

    Each state is bit for bit the one ``solve_resident_steady`` returns for
    that resident alone.  Damped Newton runs on each stack, from the
    per-patch capacity profiles or from ``initial`` (one reduced row per
    resident); the blocks it leaves unconverged march into the basin, and
    Newton polishes them.  A block that still fails, or a state that is not
    positive, raises SteadyConvergenceError for the call.  A stack of one is
    solved on its own (N,) arrays, where it costs what a single solve does.
    """
    residents = list(residents)
    config = config or SteadyConfig()
    if initial is not None:
        initial = np.asarray(initial, dtype=float).reshape(len(residents), grid.num_reduced)
    step = max(1, _STACK_DOFS // grid.num_reduced)
    states = []
    for s in range(0, len(residents), step):
        chunk = residents[s : s + step]
        problem = _SteadyProblem(grid, env, chunk[0] if len(chunk) == 1 else chunk)
        u0 = np.empty(problem.di.shape)
        u0[...] = problem.layout.fill(env.k_array) if initial is None else initial[s : s + step]
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
    explicit reduced initial guess is given.  The R = 1 case of
    ``solve_resident_steady_states``.
    """
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
