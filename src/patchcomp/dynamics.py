"""Time integration of the two-species competition system and outcome calls.

The one scheme is IMEX Euler.  Diffusion is implicit: ``I - dt A`` is
symmetric positive definite in the operator's weighted inner product, so it is
LDLᵀ-factored once per species and a step makes one O(N) symmetric tridiagonal
solve per species.  The logistic competition term is explicit and computed on
the reduced DOFs.  The induced step map is monotone for the order "first
species up, second species down", which is what the order-preservation harness
checks, and it leaves the jump-consistent bounding boxes invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SimulationBlowUpError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import Landscape, PatchEnvironment, SpeciesTraits
from .operators import (
    assemble_diffusion,
    consistent_constant,
    env_on_dofs,
    expand_reduced,
    full_mass,
)
from .steady import SteadyConfig, solve_resident_steady

@dataclass(frozen=True)
class SimConfig:
    dt: float | None = None          # default: 0.01 / max growth rate
    t_max: float = 2000.0
    steady_tol: float = 1e-8
    extinction_eps: float | None = None   # default: 1e-6 * min capacity
    check_interval: int = 100
    snapshot_stride: int | None = None

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.extinction_eps is not None and self.extinction_eps <= 0:
            raise ValidationError("extinction_eps must be positive")
        if self.t_max <= 0:
            raise ValidationError("t_max must be positive")
        for name in ("check_interval", "snapshot_stride"):
            value = getattr(self, name)
            if value is None and name == "snapshot_stride":
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be an integer of at least 1")


@dataclass
class OutcomeRecord:
    verdict: str                      # ResidentWins | MutantWins | Coexistence | Undetermined
    u_final: PiecewiseField
    v_final: PiecewiseField
    t_final: float
    steps: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


class Stepper:
    """IMEX Euler stepping for one parameter point at the fixed ``self.dt``.

    ``I - dt A`` is LDLᵀ-factored once per species, in its weight-symmetrized
    form, on the first step (a stepper that only evaluates residuals factors
    nothing); a step is the reaction on the reduced DOFs, then one O(N)
    symmetric tridiagonal solve per species.
    """

    def __init__(
        self,
        landscape: Landscape,
        env: PatchEnvironment,
        resident: SpeciesTraits,
        mutant: SpeciesTraits,
        grid: Grid,
        config: SimConfig | None = None,
    ):
        self.landscape = landscape
        self.env = env
        self.resident = resident
        self.mutant = mutant
        self.grid = grid
        self.config = config or SimConfig()
        self.op_u = assemble_diffusion(grid, resident)
        self.op_v = assemble_diffusion(grid, mutant)
        kept = grid.kept_indices()
        self.r, self.k = (values[kept] for values in env_on_dofs(grid, env))
        # the trace DOF of interface m restricts two one-sided values, the left
        # patch's and the eliminated right trace's (density p * u in patch
        # m + 1); a_left and a_right are their mass-weighted fractions
        self.trace = grid.reduced_trace_indices()
        self.r_right, self.k_right = env.r_array[1:], env.k_array[1:]
        self.p_u, self.p_v = resident.p_array, mutant.p_array
        self.a_left_u, self.a_right_u = _trace_fractions(self.op_u)
        self.a_left_v, self.a_right_v = _trace_fractions(self.op_v)
        self.dt = self.config.dt if self.config.dt is not None else 0.01 / env.r_array.max()

    @cached_property
    def _solves(self):
        return (
            self.op_u.factor_symmetric(1.0, -self.dt),
            self.op_v.factor_symmetric(1.0, -self.dt),
        )

    def reaction(self, u_red: np.ndarray, v_red: np.ndarray):
        """Explicit competition terms for both species, on reduced DOFs.

        Away from the interfaces this is pointwise ``u * r (1 - (u + v) / k)``;
        at each trace DOF it is the weighted restriction of that field's two
        one-sided values, as ``restrict_cell_average`` of the expanded field.
        """
        crowd = self.r * (1.0 - (u_red + v_red) / self.k)
        f_u = u_red * crowd
        f_v = v_red * crowd
        u_tr, v_tr = u_red[self.trace], v_red[self.trace]
        crowd_left = crowd[self.trace]
        crowd_right = self.r_right * (1.0 - (self.p_u * u_tr + self.p_v * v_tr) / self.k_right)
        f_u[self.trace] = u_tr * (self.a_left_u * crowd_left + self.a_right_u * crowd_right)
        f_v[self.trace] = v_tr * (self.a_left_v * crowd_left + self.a_right_v * crowd_right)
        return f_u, f_v

    def step(
        self, u_red: np.ndarray, v_red: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One time step; returns the new state and the clipped negative mass."""
        dt = self.dt
        f_u, f_v = self.reaction(u_red, v_red)
        rhs_u = u_red + dt * f_u
        rhs_v = v_red + dt * f_v
        clipped = 0.0
        if rhs_u.min() < 0 or rhs_v.min() < 0:
            clipped = float(-np.minimum(rhs_u, 0.0).sum() - np.minimum(rhs_v, 0.0).sum())
            np.maximum(rhs_u, 0.0, out=rhs_u)
            np.maximum(rhs_v, 0.0, out=rhs_v)
        solve_u, solve_v = self._solves
        return solve_u(rhs_u), solve_v(rhs_v), clipped

    def steady_residuals(self, u_red: np.ndarray, v_red: np.ndarray) -> tuple[float, float]:
        f_u, f_v = self.reaction(u_red, v_red)
        res_u = self.op_u.matvec(u_red) + f_u
        res_v = self.op_v.matvec(v_red) + f_v
        return float(np.abs(res_u).max()), float(np.abs(res_v).max())


def _trace_fractions(op) -> tuple[np.ndarray, np.ndarray]:
    """Shares ``mass / weight`` of each trace DOF's left and right one-sided
    values, the right one's times p² (see ``restrict_cell_average``)."""
    grid = op.grid
    trace = grid.reduced_trace_indices()
    mass = full_mass(grid, op.traits)
    w = op.weights[trace]
    left = mass[grid.kept_indices()[trace]] / w
    return left, op.traits.p_array**2 * mass[grid.right_trace_indices()] / w


def default_initial(grid: Grid, env: PatchEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """Half the capacity profile per patch, for both species (reduced DOFs)."""
    u0 = np.empty(grid.num_reduced)
    for i in range(grid.n):
        u0[grid.reduced_patch_slice(i)] = env.k[i] / 2.0
    return u0, u0.copy()


def bounding_level(grid: Grid, traits: SpeciesTraits, env: PatchEnvironment,
                   w_red: np.ndarray) -> float:
    """Smallest constant M with M * (jump-consistent profile) a super-solution
    dominating the given state."""
    c_red = consistent_constant(grid, traits)
    scales = traits.cumulative_scales()
    m_data = float((np.asarray(w_red) / c_red).max())
    m_super = float((env.k_array / scales).max())
    return max(m_data, m_super)


def simulate(
    landscape: Landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    config: SimConfig | None = None,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
    steady_config: SteadyConfig | None = None,
) -> OutcomeRecord:
    """Integrate until the state stops moving or the horizon is hit, then classify."""
    config = config or SimConfig()
    stepper = Stepper(landscape, env, resident, mutant, grid, config)
    u, v = initial if initial is not None else default_initial(grid, env)
    u = np.asarray(u, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    if u.min() < 0 or v.min() < 0:
        raise ValidationError("initial data must be nonnegative")

    box_u = bounding_level(grid, resident, env, u) * consistent_constant(grid, resident)
    box_v = bounding_level(grid, mutant, env, v) * consistent_constant(grid, mutant)
    blow_up = 10.0 * max(box_u.max(), box_v.max())

    ustar = solve_resident_steady(landscape, env, resident, grid, steady_config)
    vstar = solve_resident_steady(landscape, env, mutant, grid, steady_config)

    dt = stepper.dt
    max_steps = int(np.ceil(config.t_max / dt))
    box_violations = 0
    clip_total = 0.0
    converged = False
    td_norm = np.inf
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []
    step_count = 0

    for step_count in range(1, max_steps + 1):
        u_new, v_new, clipped = stepper.step(u, v)
        clip_total += clipped
        td_norm = max(
            float(np.abs(u_new - u).max()), float(np.abs(v_new - v).max())
        ) / dt
        u, v = u_new, v_new

        if step_count % config.check_interval == 0 or step_count == max_steps:
            top = max(u.max(), v.max())
            if top > blow_up:
                raise SimulationBlowUpError(
                    f"state reached {top:.3g}, beyond the a-priori bound {blow_up:.3g}"
                )
            tol_box = 1e-12 * max(box_u.max(), box_v.max())
            if (u > box_u + tol_box).any() or (v > box_v + tol_box).any():
                box_violations += 1
        if config.snapshot_stride and step_count % config.snapshot_stride == 0:
            snapshots.append((step_count * dt, u.copy(), v.copy()))

        # a run only counts as resolved once the state both stops moving and
        # classifies; otherwise keep integrating toward the attractor
        if td_norm < config.steady_tol and step_count % 50 == 0:
            res_u, res_v = stepper.steady_residuals(u, v)
            if max(res_u, res_v) < config.steady_tol:
                verdict_now = classify_outcome(
                    PiecewiseField(grid, expand_reduced(grid, resident, u)),
                    PiecewiseField(grid, expand_reduced(grid, mutant, v)),
                    ustar,
                    vstar,
                    env,
                    config,
                    max(res_u, res_v),
                )
                if verdict_now != "Undetermined":
                    converged = True
                    break

    u_field = PiecewiseField(grid, expand_reduced(grid, resident, u))
    v_field = PiecewiseField(grid, expand_reduced(grid, mutant, v))
    res_u, res_v = stepper.steady_residuals(u, v)
    diagnostics = {
        "time_derivative_norm": td_norm,
        "steady_residual_u": res_u,
        "steady_residual_v": res_v,
        "clip_total": clip_total,
        "box_violations": box_violations,
        "dt": dt,
        "extinction_eps": _extinction_eps(config, env),
        "steady_tol": config.steady_tol,
    }
    verdict = classify_outcome(
        u_field, v_field, ustar, vstar, env, config, max(res_u, res_v)
    )
    if verdict == "Coexistence":
        source = "default" if initial is None else "supplied"
        diagnostics["note"] = (
            f"state reached from the {source} initial data; other coexistence "
            "states may exist"
        )
    record = OutcomeRecord(
        verdict=verdict,
        u_final=u_field,
        v_final=v_field,
        t_final=step_count * dt,
        steps=step_count,
        converged=converged,
        diagnostics=diagnostics,
    )
    if snapshots:
        record.diagnostics["snapshots"] = snapshots
    return record


def _extinction_eps(config: SimConfig, env: PatchEnvironment) -> float:
    return (
        config.extinction_eps
        if config.extinction_eps is not None
        else 1e-6 * env.k_array.min()
    )


def classify_outcome(
    u_final: PiecewiseField,
    v_final: PiecewiseField,
    ustar: PiecewiseField,
    vstar: PiecewiseField,
    env: PatchEnvironment,
    config: SimConfig,
    steady_residual: float,
) -> str:
    """Map a final state to a verdict; near-miss states stay Undetermined."""
    eps = _extinction_eps(config, env)
    scale = env.k_array.max()
    close = 10.0 * config.steady_tol * scale
    if v_final.max() < eps and np.abs(u_final.values - ustar.values).max() < close:
        return "ResidentWins"
    if u_final.max() < eps and np.abs(v_final.values - vstar.values).max() < close:
        return "MutantWins"
    if (
        u_final.min() > eps
        and v_final.min() > eps
        and steady_residual < config.steady_tol
    ):
        return "Coexistence"
    return "Undetermined"


def order_preservation_check(
    state_a: tuple[np.ndarray, np.ndarray],
    state_b: tuple[np.ndarray, np.ndarray],
    stepper: Stepper,
    steps: int,
) -> tuple[bool, float, int | None]:
    """March two ordered states and watch for order violations.

    State A must start above state B in the competitive order (first species
    componentwise larger, second smaller).  Returns (preserved, worst
    violation, first violating step).
    """
    env = stepper.env
    tol = 1e-10 * env.k_array.max()
    ua, va = (np.asarray(w, dtype=float).copy() for w in state_a)
    ub, vb = (np.asarray(w, dtype=float).copy() for w in state_b)
    if any(w.shape != (stepper.grid.num_reduced,) for w in (ua, va, ub, vb)):
        raise ValidationError("reduced vector has the wrong length")
    tr, p_u, p_v = stepper.trace, stepper.p_u, stepper.p_v

    def violation(ua, va, ub, vb) -> float:
        # the full fields' gaps: the reduced DOFs' and the eliminated right
        # traces', p * value with the arithmetic of expand_reduced
        gap_u = (ub - ua).max()
        gap_v = (va - vb).max()
        if tr.size:
            gap_u = max(gap_u, (p_u * ub[tr] - p_u * ua[tr]).max())
            gap_v = max(gap_v, (p_v * va[tr] - p_v * vb[tr]).max())
        return max(float(gap_u), float(gap_v))

    start = violation(ua, va, ub, vb)
    if start > tol:
        raise ValidationError("states are not ordered at t = 0")

    worst = 0.0
    first: int | None = None
    for s in range(1, steps + 1):
        ua, va, _ = stepper.step(ua, va)
        ub, vb, _ = stepper.step(ub, vb)
        gap = violation(ua, va, ub, vb)
        if gap > worst:
            worst = gap
        if gap > tol and first is None:
            first = s
    return first is None, worst, first


def pair_steady_residual(
    landscape: Landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    u: PiecewiseField,
    v: PiecewiseField,
) -> float:
    """Sup-norm residual of the coupled steady system at a given pair; the
    stepper it builds makes no step, so it factors nothing."""
    from .operators import restrict_values

    stepper = Stepper(landscape, env, resident, mutant, grid)
    res_u, res_v = stepper.steady_residuals(
        restrict_values(grid, u.values), restrict_values(grid, v.values)
    )
    return max(res_u, res_v)
