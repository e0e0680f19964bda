"""Time integration of the two-species competition system and outcome calls.

The one scheme is IMEX Euler.  The logistic competition term is explicit and
computed on the reduced DOFs in coefficient form, ``w (a - b w - c x)`` for
species ``w`` against its competitor ``x``, the eliminated right traces folded
into the trace DOFs' coefficients once per stepper.  Diffusion is implicit:
``I - dt A`` is symmetric positive definite in the operator's weighted inner
product, so it is LDLᵀ-factored once per species by the package's one LDLᵀ
(``operators.factor_symmetrized``, on the similarity its couplings give),
and the coefficients take in ``dt`` and that similarity.  A step maps
``(N,)`` states, or ``(M, N)`` stacks of rows, with one expression and one
O(N) symmetric tridiagonal solve (one pttrs call for all rows) per species;
the steady residuals use the package's one matrix-vector product.
The induced step map is monotone for the order "first species up, second
species down", which is what the order-preservation harness checks, and it
leaves the jump-consistent bounding boxes invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SimulationBlowUpError, ValidationError, checked_number
from .grid import Grid, PiecewiseField
from .landscape import Landscape, PatchEnvironment, SpeciesTraits
from .operators import (
    SpeciesLayout,
    assemble_diffusion,
    consistent_constant,
    env_on_dofs,
    factor_symmetrized,
    restrict_values,
    symmetrizing_similarity,
)
from .steady import SteadyConfig, solve_resident_steady_states

@dataclass(frozen=True)
class SimConfig:
    dt: float | None = None          # default: 0.01 / max growth rate
    t_max: float = 2000.0
    steady_tol: float = 1e-8
    extinction_eps: float | None = None   # default: 1e-6 * min capacity
    check_interval: int = 100
    snapshot_stride: int | None = None

    def __post_init__(self):
        # the messages name the field as ``section.field``, as in
        # ``SteadyConfig``; a field whose default is None may be None
        for name in ("dt", "t_max", "steady_tol", "extinction_eps"):
            value = getattr(self, name)
            if value is not None or name in ("t_max", "steady_tol"):
                checked_number(value, f"sim.{name}")
        checked_number(self.check_interval, "sim.check_interval", count=True)
        if self.snapshot_stride is not None:
            checked_number(self.snapshot_stride, "sim.snapshot_stride", count=True)


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

    The competition term of each species ``w`` against its competitor ``x``,
    restricted to the reduced DOFs, is ``w (a - b w - c x)`` row by row, with
    the coefficients of ``SpeciesLayout.logistic_coefficients``: ``b`` with
    the species' own jump ratios ``p_w``, ``c`` with the competitor's
    ``p_x``.  Off the traces ``a = r`` and ``b = c = r / k``.  The
    coefficients are built once.

    On the first step (a stepper that only evaluates residuals factors
    nothing) ``I - dt A`` is LDLᵀ-factored once per species in its
    symmetrized form ``S (I - dt A) S⁻¹``, ``S = diag(s)`` the operator's
    ``symmetrizing_similarity`` (``s`` is proportional to ``sqrt(weights)``),
    and the coefficients take in ``dt`` and ``s``: the step's right-hand side
    ``S (w + dt f)`` is then ``w (sa - sb w - sc x)``, one expression per
    species, and one pttrs call per species solves it for every row.
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
        self.layout_u = SpeciesLayout(grid, resident)
        self.layout_v = SpeciesLayout(grid, mutant)
        self.op_u = assemble_diffusion(grid, resident, self.layout_u)
        self.op_v = assemble_diffusion(grid, mutant, self.layout_v)
        self.dt = self.config.dt if self.config.dt is not None else 0.01 / env.r_array.max()
        self._coefficients = self._competition_coefficients()

    def _competition_coefficients(self):
        """``(a, b, c)`` of the reaction ``w (a - b w - c x)`` of each species."""
        lu, lv = self.layout_u, self.layout_v
        out = []
        for own, other in ((lu, lv), (lv, lu)):
            a, b = own.logistic_coefficients(self.env, own.p)
            out.append((a, b, own.logistic_coefficients(self.env, other.p)[1]))
        return tuple(out)

    @cached_property
    def _plan(self):
        """Per species ``(sa, sb, sc, s, solve)``: the coefficients times ``s``
        (``sa`` with the identity), ``sb`` and ``sc`` times ``dt`` too, ``s``,
        and the LDLᵀ solve of ``S (I - dt A) S⁻¹``."""
        plan = []
        for op, (a, b, c) in zip((self.op_u, self.op_v), self._coefficients):
            s, _, off = symmetrizing_similarity(op.lo, op.up)
            s_dt = s * self.dt
            plan.append((s + s_dt * a, s_dt * b, s_dt * c, s,
                         factor_symmetrized(op.di, off, 1.0, self.dt)))
        return tuple(plan)

    def reaction(self, u_red: np.ndarray, v_red: np.ndarray):
        """Explicit competition terms for both species, on reduced DOFs:
        ``w (a - b w - c x)`` (see the class docstring), which is the
        ``SpeciesLayout.restrict_avg`` of the pointwise ``w r (1 - (u + v) / k)``
        on the expanded fields."""
        (au, bu, cu), (av, bv, cv) = self._coefficients
        return (
            _coefficient_form(u_red, v_red, au, bu, cu),
            _coefficient_form(v_red, u_red, av, bv, cv),
        )

    def step(
        self, u_red: np.ndarray, v_red: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One time step of ``(N,)`` states or ``(M, N)`` stacks of rows;
        returns the new states and the clipped negative mass (summed over the
        rows).  Each row is bit for bit its own single step.  A non-finite
        right-hand side raises ValueError."""
        (sa_u, sb_u, sc_u, s_u, solve_u), (sa_v, sb_v, sc_v, s_v, solve_v) = self._plan
        rhs_u = _coefficient_form(u_red, v_red, sa_u, sb_u, sc_u)
        rhs_v = _coefficient_form(v_red, u_red, sa_v, sb_v, sc_v)
        clipped = 0.0
        for rhs, s in ((rhs_u, s_u), (rhs_v, s_v)):
            low = rhs.min()
            if not low >= 0:  # negative, or NaN
                if not np.isfinite(low):
                    raise ValueError("time step right-hand side is not finite")
                clipped -= float((np.minimum(rhs, 0.0) / s).sum())
                np.maximum(rhs, 0.0, out=rhs)
            if not rhs.max() < np.inf:
                raise ValueError("time step right-hand side is not finite")
        u_new = solve_u(rhs_u)
        u_new /= s_u
        v_new = solve_v(rhs_v)
        v_new /= s_v
        return u_new, v_new, clipped

    def steady_residuals(self, u_red: np.ndarray, v_red: np.ndarray) -> tuple[float, float]:
        f_u, f_v = self.reaction(u_red, v_red)
        res_u = self.op_u.matvec(u_red) + f_u
        res_v = self.op_v.matvec(v_red) + f_v
        return float(np.abs(res_u).max()), float(np.abs(res_v).max())


def _coefficient_form(w, x, a, b, c) -> np.ndarray:
    """``w (a - (b w + c x))`` in one fresh array, updated in place."""
    out = c * x
    out += b * w
    np.subtract(a, out, out=out)
    out *= w
    return out


def default_initial(grid: Grid, env: PatchEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """Half the capacity profile per patch, for both species (reduced DOFs)."""
    u0 = restrict_values(grid, env_on_dofs(grid, env)[1] / 2.0)
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

    layout_u, layout_v = stepper.layout_u, stepper.layout_v
    box_u = bounding_level(grid, resident, env, u) * layout_u.fill(layout_u.scales)
    box_v = bounding_level(grid, mutant, env, v) * layout_v.fill(layout_v.scales)
    blow_up = 10.0 * max(box_u.max(), box_v.max())

    ustar, vstar = solve_resident_steady_states(
        landscape, env, [resident, mutant], grid, steady_config
    )

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
        # read by the convergence test every 50th step and by the diagnostics
        # after the last
        if step_count % 50 == 0 or step_count == max_steps:
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
                    PiecewiseField(grid, layout_u.expand(u)),
                    PiecewiseField(grid, layout_v.expand(v)),
                    ustar,
                    vstar,
                    env,
                    config,
                    _relative_residual(res_u, u, res_v, v),
                )
                if verdict_now != "Undetermined":
                    converged = True
                    break

    u_field = PiecewiseField(grid, layout_u.expand(u))
    v_field = PiecewiseField(grid, layout_v.expand(v))
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
        u_field, v_field, ustar, vstar, env, config, _relative_residual(res_u, u, res_v, v)
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


def _relative_residual(res_u: float, u: np.ndarray, res_v: float, v: np.ndarray) -> float:
    """The larger of the two species' steady residuals, each over that
    species' own sup norm.  A species that decays at rate |λ| has a residual
    of about |λ| times its size, which an absolute test passes while the
    species is still above the extinction threshold; relative to its size
    the residual stays at |λ|."""
    return max(res / top if top > 0 else np.inf for res, top in ((res_u, u.max()), (res_v, v.max())))


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
    """Map a final state to a verdict; near-miss states stay Undetermined.

    Coexistence needs both species above the extinction threshold and
    ``steady_residual`` below ``steady_tol``; ``simulate`` passes the larger
    of the two species' residuals each relative to its own sup norm, so a
    species still decaying toward extinction does not count as coexisting.
    """
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
    componentwise larger, second smaller).  The two states march as one
    ``(2, N)`` stack, one ``Stepper.step`` per step, each row bit for bit its
    own march.  Returns (preserved, worst violation, first violating step).
    """
    env = stepper.env
    tol = 1e-10 * env.k_array.max()
    size = stepper.grid.num_reduced
    if any(np.shape(w) != (size,) for w in (*state_a, *state_b)):
        raise ValidationError("reduced vector has the wrong length")
    # row 0 is state A, row 1 state B: both march as one stack
    u = np.array([state_a[0], state_b[0]], dtype=float)
    v = np.array([state_a[1], state_b[1]], dtype=float)

    def excess(over, under, layout) -> float:
        # by how much ``over`` exceeds ``under`` anywhere on the full DOFs:
        # the reduced ones and the eliminated right traces
        right = layout.right_values(over) - layout.right_values(under)
        return float(max((over - under).max(), right.max(initial=-np.inf)))

    def violation(u, v) -> float:
        return max(excess(u[1], u[0], stepper.layout_u), excess(v[0], v[1], stepper.layout_v))

    start = violation(u, v)
    if start > tol:
        raise ValidationError("states are not ordered at t = 0")

    worst = 0.0
    first: int | None = None
    for s in range(1, steps + 1):
        u, v, _ = stepper.step(u, v)
        gap = violation(u, v)
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
    stepper = Stepper(landscape, env, resident, mutant, grid)
    res_u, res_v = stepper.steady_residuals(
        restrict_values(grid, u.values), restrict_values(grid, v.values)
    )
    return max(res_u, res_v)
