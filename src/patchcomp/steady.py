"""Single-species steady state: damped Newton with a time-march fallback.

The steady state is the unique positive equilibrium of logistic growth plus
diffusion under the species' interface conditions.  ``damped_newton`` is the
package's one Newton loop: an Armijo line search on a tridiagonal Jacobian,
stopped at the tolerance plus the rounding level of one residual evaluation.
Here it runs on the reduced DOFs; if it stalls, an implicit-diffusion time
march pulls the iterate into the basin and Newton polishes.  The
continuous-form oracle in ``transform`` drives its own discretization
through the same loop.
"""

from __future__ import annotations

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
from .operators import SpeciesLayout, assemble_diffusion, env_on_dofs, factor_tridiagonal

ARMIJO = 1e-4            # sufficient-decrease factor of the line search
MIN_STEP = 1e-4          # a line search that needs a shorter step has stalled
FALLBACK_DT = 0.1        # time step of the fallback march
FALLBACK_HORIZON = 2000.0  # time after which the fallback march gives up


@dataclass(frozen=True)
class SteadyConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50

    def __post_init__(self):
        # the messages name the config section, so a JSON config's error
        # needs no wrapper (the two forms are the ones they have always had)
        checked_number(self.newton_tol, "steady.newton_tol")
        checked_number(self.max_newton_iters, "steady: max_newton_iters", count=True)


def damped_newton(residual, u0, floor: float, cap: float, row_scale: float,
                  config: SteadyConfig):
    """Damped Newton for ``F(u) = 0`` with a tridiagonal Jacobian.

    ``residual(u)`` returns ``F(u)`` and the Jacobian's (sub, main, super)
    bands, of lengths N-1, N, N-1.  Iterates are clipped below at ``floor``.
    The stop is ``max|F| <= newton_tol + noise``, where the noise
    ``8 eps row_scale max(max|u|, cap)`` is the rounding level of one residual
    evaluation.  Each step is halved until ``max|F|`` falls by the Armijo
    factor; a step that would have to be shorter than ``MIN_STEP`` (or a
    non-finite residual) stalls the loop.  Returns ``(u, max|F|, converged)``;
    a stalled or exhausted loop returns its last iterate unconverged.
    """

    def noise(u):
        return 8.0 * np.finfo(float).eps * row_scale * max(float(np.abs(u).max()), cap)

    u = np.maximum(np.asarray(u0, dtype=float).copy(), floor)
    res, bands = residual(u)
    for _ in range(config.max_newton_iters):
        norm = float(np.abs(res).max())
        if norm <= config.newton_tol + noise(u):
            return u, norm, True
        if not np.isfinite(norm):
            return u, norm, False
        step = factor_tridiagonal(*bands)(-res)
        alpha = 1.0
        while True:
            trial = np.maximum(u + alpha * step, floor)
            trial_res, trial_bands = residual(trial)
            if np.abs(trial_res).max() <= (1.0 - ARMIJO * alpha) * norm:
                u, res, bands = trial, trial_res, trial_bands
                break
            alpha *= 0.5
            if alpha < MIN_STEP:
                return u, norm, False
    norm = float(np.abs(res).max())
    return u, norm, norm <= config.newton_tol + noise(u)


class _SteadyProblem:
    """One species' steady problem on one grid, with everything that stays
    fixed during the solve (operator, masses and weights, rates, row scale)
    computed once."""

    def __init__(self, grid: Grid, env: PatchEnvironment, traits: SpeciesTraits):
        self.layout = SpeciesLayout(grid, traits)
        self.op = assemble_diffusion(grid, traits, self.layout)
        self.r_full, self.k_full = env_on_dofs(grid, env)
        op = self.op
        self.row_scale = float((np.abs(op.di) + np.abs(op.lo) + np.abs(op.up)).max())
        self.floor = 1e-12 * self.k_full.min()

    def growth(self, u_full: np.ndarray) -> np.ndarray:
        """Logistic growth of a full field, restricted to the reduced DOFs."""
        return self.layout.restrict_avg(self.r_full * u_full * (1.0 - u_full / self.k_full))

    def residual(self, u_red: np.ndarray):
        """``A u + growth(u)`` and the bands of its Jacobian."""
        u_full = self.layout.expand(u_red)
        res = self.op.matvec(u_red) + self.growth(u_full)
        fp = self.r_full * (1.0 - 2.0 * u_full / self.k_full)
        slope = self.layout.restrict_diag(fp)
        return res, (self.op.lo[1:], slope + self.op.di, self.op.up[:-1])

    def newton(self, u0, config: SteadyConfig):
        return damped_newton(
            self.residual, u0, self.floor, self.k_full.max(), self.row_scale, config
        )


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
    explicit reduced initial guess is given.
    """
    config = config or SteadyConfig()
    problem = _SteadyProblem(grid, env, traits)

    if initial is None:
        u0 = problem.layout.fill(env.k_array)
    else:
        u0 = np.asarray(initial, dtype=float)

    u, norm, converged = problem.newton(u0, config)
    if not converged:
        # implicit-diffusion march toward the attracting steady state
        march = problem.op.factor_shifted(1.0, -FALLBACK_DT)
        steps = int(np.ceil(FALLBACK_HORIZON / FALLBACK_DT))
        for step in range(1, steps + 1):
            rhs = u + FALLBACK_DT * problem.growth(problem.layout.expand(u))
            u = np.maximum(march(rhs), problem.floor)
            if step % 20 == 0 and np.abs(problem.residual(u)[0]).max() < 1e-4:
                break
        u, norm, converged = problem.newton(u, config)
        if not converged:
            raise SteadyConvergenceError(
                "steady solve failed after Newton and time-march fallback",
                residual=norm,
            )
    if u.min() <= 0:
        raise SteadyConvergenceError("steady state lost positivity", residual=norm)
    return PiecewiseField(grid, problem.layout.expand(u))


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
