"""Time integration of the two-species competition system and outcome calls.

The resident ``u`` and the mutant ``v`` are one two-species stack in the
``operators`` convention: a state is ``(2, N)`` (row 0 ``u``, row 1 ``v``),
or ``(M, 2, N)`` for M runs.  The one scheme is IMEX Euler.  The logistic
competition term is explicit, in coefficient form on the reduced DOFs,
``w (a - b w - c x)`` for species ``w`` against its competitor ``x`` (the
other row), the eliminated right traces folded into the trace DOFs'
coefficients once per stepper.  Diffusion is implicit: the stack's
``I - dt A``, symmetric positive definite in the weighted inner product, is
LDLᵀ-factored once (``operators.factor_symmetrized``, on the similarity of
its couplings that the stack's ``SpeciesLayout`` writes), and the
coefficients take in ``dt`` and that similarity, so a step is one
expression and one LDLᵀ solve for both species and every run.
Where the interleaved kernel loaded, that whole step is one native call
(``SymmetrizedFactor.pair_step``), the two species side by side; a
right-hand side to be clipped or not finite, a state that is not a
C-contiguous float64 array, or a missing kernel sends the step through numpy
and the same solve, with the same numbers.  The steady residuals use the
package's one matrix-vector product.  The step map is monotone for the order
"first species up, second species down", which the order-preservation
harness checks, and it leaves the jump-consistent bounding boxes invariant.
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
    consistent_constant,
    env_on_dofs,
    factor_symmetrized,
    restrict_values,
    tridiagonal_matvec,
)
from .steady import SteadyConfig, solve_resident_steady_states, super_level

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
    """IMEX Euler stepping for one parameter point at the fixed ``self.dt``,
    on the pair as one stack (see the module docstring); ``layout`` is the
    stack's ``SpeciesLayout``.

    The competition term ``w (a - b w - c x)`` takes the coefficients of
    ``SpeciesLayout.logistic_coefficients``: ``b`` with the species' own jump
    ratios ``p_w``, ``c`` with the competitor's ``p_x``.  Off the traces
    ``a = r`` and ``b = c = r / k``.  The coefficients are built once.

    On the first step (a stepper that only evaluates residuals factors
    nothing) the stack's ``I - dt A`` is LDLᵀ-factored once in its
    symmetrized form ``S (I - dt A) S⁻¹``, ``S = diag(s)`` the layout's
    similarity (``s`` is proportional to ``sqrt(weights)`` per species),
    and the coefficients take in ``dt`` and ``s``: the step's
    right-hand side ``S (w + dt f)`` is then ``w (sa - sb w - sc x)``.  The
    stack's zero corners keep the species apart, so each species of each run
    is bit for bit its own single solve.  A step is one call of the kernel
    where it can be (see ``step``), and numpy and the solve otherwise.
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
        self.layout = SpeciesLayout(grid, [resident, mutant])
        self.dt = self.config.dt if self.config.dt is not None else 0.01 / env.r_array.max()
        # (a, b, c) of the reaction w (a - b w - c x): b crowded by the
        # species' own p, c by the competitor's
        p = self.layout.p
        self._coefficients = self.layout.logistic_coefficients(env, p, p[::-1])

    @cached_property
    def _plan(self):
        """``(coefficients, factor)``: the ``(4, 2, N)`` rows ``sa, sb, sc,
        s``, the coefficients times ``s`` (``sa`` with the identity), ``sb``
        and ``sc`` times ``dt`` too, and ``s``; and the LDLᵀ factor of the
        stack's ``S (I - dt A) S⁻¹``."""
        layout = self.layout
        a, b, c = self._coefficients
        s, s_dt = layout.s, layout.s * self.dt
        coefficients = np.array([s + s_dt * a, s_dt * b, s_dt * c, s])
        return coefficients, factor_symmetrized(layout.di, layout.off, 1.0, self.dt)

    def reaction(self, w: np.ndarray) -> np.ndarray:
        """Explicit competition terms of a ``(..., 2, N)`` state, on reduced
        DOFs: ``w (a - b w - c x)`` (see the class docstring), which is the
        ``SpeciesLayout.restrict_avg`` of the pointwise ``w r (1 - (u + v) / k)``
        on the expanded fields."""
        return _coefficient_form(w, *self._coefficients)

    def step(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """One time step of a ``(2, N)`` state or an ``(M, 2, N)`` stack of
        runs; returns the new state and the clipped negative mass (summed
        over the runs of species 0, then of species 1).  Each species of each
        run is bit for bit its own single step.  A non-finite right-hand side
        raises ValueError.

        The step is one kernel call (``SymmetrizedFactor.pair_step``) where
        the kernel loaded and the state is a C-contiguous float64 array.
        Where the kernel declines, because an entry of the right-hand side is
        negative (to be clipped), infinite or NaN, and where it is absent,
        the step forms the right-hand side with numpy from the untouched
        ``w``, clips it and solves it; the numbers are the same."""
        coefficients, factor = self._plan
        w_new = factor.pair_step(coefficients, w)
        if w_new is not None:
            return w_new, 0.0
        sa, sb, sc, s = coefficients
        rhs = _coefficient_form(w, sa, sb, sc)
        clipped = 0.0
        low = rhs.min()
        if not low >= 0:  # negative, or NaN
            if not np.isfinite(low):
                raise ValueError("time step right-hand side is not finite")
            lost = np.minimum(rhs, 0.0) / s
            clipped = -float(lost[..., 0, :].sum()) - float(lost[..., 1, :].sum())
            np.maximum(rhs, 0.0, out=rhs)
        if not rhs.max() < np.inf:
            raise ValueError("time step right-hand side is not finite")
        w_new = factor(rhs)
        w_new /= s
        return w_new, clipped

    def steady_residuals(self, w: np.ndarray) -> tuple[float, float]:
        """Sup norms of ``A w + f(w)`` per species (over all runs of a stack)."""
        bands = np.broadcast_arrays(*self.layout.bands, w)
        res = np.abs(tridiagonal_matvec(*bands) + self.reaction(w))
        res_u, res_v = res.max(axis=-1).reshape(-1, 2).max(axis=0)
        return float(res_u), float(res_v)


def _coefficient_form(w, a, b, c) -> np.ndarray:
    """``w (a - (b w + c x))``, ``x`` the competitor row of each species, in
    one fresh array, updated in place."""
    out = c * w[..., ::-1, :]
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
    m_super = float(super_level(env.k_array, scales))
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
    """Integrate until the state stops moving or the horizon is hit, then
    classify.  ``initial`` is ``(u, v)`` on the reduced DOFs, two finite,
    nonnegative ``(grid.num_reduced,)`` arrays; the march holds them as one
    ``(2, N)`` state."""
    config = config or SimConfig()
    stepper = Stepper(landscape, env, resident, mutant, grid, config)
    w = _initial_state(grid, env, initial)

    layout = stepper.layout
    levels = [bounding_level(grid, one, env, x) for one, x in zip((resident, mutant), w)]
    box = np.array(levels)[:, None] * layout.fill(layout.scales)
    blow_up = 10.0 * box.max()
    tol_box = 1e-12 * box.max()

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
        w_new, clipped = stepper.step(w)
        clip_total += clipped
        # read by the convergence test every 50th step and by the diagnostics
        # after the last
        if step_count % 50 == 0 or step_count == max_steps:
            td_norm = float(np.abs(w_new - w).max()) / dt
        w = w_new

        if step_count % config.check_interval == 0 or step_count == max_steps:
            top = w.max()
            if top > blow_up:
                raise SimulationBlowUpError(
                    f"state reached {top:.3g}, beyond the a-priori bound {blow_up:.3g}"
                )
            if (w > box + tol_box).any():
                box_violations += 1
        if config.snapshot_stride and step_count % config.snapshot_stride == 0:
            snapshots.append((step_count * dt, *w.copy()))

        # a run only counts as resolved once the state both stops moving and
        # classifies; otherwise keep integrating toward the attractor
        if td_norm < config.steady_tol and step_count % 50 == 0:
            res = stepper.steady_residuals(w)
            if max(res) < config.steady_tol:
                verdict_now = classify_outcome(
                    *_fields(grid, layout, w), ustar, vstar, env, config,
                    _relative_residual(res, w),
                )
                if verdict_now != "Undetermined":
                    converged = True
                    break

    u_field, v_field = _fields(grid, layout, w)
    res_u, res_v = res = stepper.steady_residuals(w)
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
        u_field, v_field, ustar, vstar, env, config, _relative_residual(res, w)
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


def _initial_state(grid: Grid, env: PatchEnvironment, initial) -> np.ndarray:
    """``initial`` (default: ``default_initial``) as a ``(2, N)`` state,
    checked to be two finite, nonnegative reduced vectors."""
    if initial is None:
        initial = default_initial(grid, env)
    try:
        w = np.array(initial, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        w = np.empty(0)
    if w.shape != (2, grid.num_reduced):
        raise ValidationError(f"initial data must be two vectors of length {grid.num_reduced}")
    if not (np.isfinite(w).all() and w.min() >= 0):
        raise ValidationError("initial data must be finite and nonnegative")
    return w


def _fields(grid: Grid, layout: SpeciesLayout, w: np.ndarray) -> list[PiecewiseField]:
    """The ``PiecewiseField`` of each species of a ``(2, N)`` state."""
    return [PiecewiseField(grid, full) for full in layout.expand(w)]


def _relative_residual(res: tuple[float, float], w: np.ndarray) -> float:
    """The larger of the two species' steady residuals, each over that
    species' own sup norm.  A species that decays at rate |λ| has a residual
    of about |λ| times its size, which an absolute test passes while the
    species is still above the extinction threshold; relative to its size
    the residual stays at |λ|."""
    return max(r / top if top > 0 else np.inf for r, top in zip(res, w.max(axis=-1)))


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
    ``(2, 2, N)`` stack (state, species, DOF), one ``Stepper.step`` per step,
    each state bit for bit its own march.  Returns (preserved, worst
    violation, first violating step); ``steps`` must be a positive integer,
    since no steps show nothing about the order (ValidationError).
    """
    checked_number(steps, "steps", count=True)
    tol = 1e-10 * stepper.env.k_array.max()
    size = stepper.grid.num_reduced
    if any(np.shape(x) != (size,) for x in (*state_a, *state_b)):
        raise ValidationError("reduced vector has the wrong length")
    w = np.array([state_a, state_b], dtype=float)
    layout = stepper.layout
    # the order, per species: B may not exceed A in u, nor A exceed B in v
    sign = np.array([[1.0], [-1.0]])

    def violation(w) -> float:
        # by how much state B exceeds state A in the order anywhere on the
        # full DOFs: the reduced ones and the eliminated right traces
        right = layout.right_values(w)
        return float(max((sign * (w[1] - w[0])).max(),
                         (sign * (right[1] - right[0])).max(initial=-np.inf)))

    if violation(w) > tol:
        raise ValidationError("states are not ordered at t = 0")

    worst = 0.0
    first: int | None = None
    for s in range(1, steps + 1):
        w, _ = stepper.step(w)
        gap = violation(w)
        worst = max(worst, gap)
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
    w = np.array([restrict_values(grid, field.values) for field in (u, v)])
    return max(stepper.steady_residuals(w))
