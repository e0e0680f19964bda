"""Built-in validation battery: identity residuals and structural properties.

Each check returns (name, passed, detail).  The battery is deterministic for
a given seed and runs at desk scale in seconds; it is wired to the CLI
``validate`` command.
"""

from __future__ import annotations

import numpy as np

from .dynamics import SimConfig, Stepper, order_preservation_check
from .eigen import (
    assemble_linearization,
    growth_potential,
    invasion_fitness,
    principal_eigenpair,
    resident_self_eigenpair,
)
from .grid import build_grid
from .identities import invasion_identity_residual
from .landscape import Landscape, PatchEnvironment, SpeciesTraits, StrategyVector
from .operators import (
    assemble_diffusion,
    consistent_constant,
    env_on_dofs,
    restrict_values,
    tridiagonal_matvec,
)
from .steady import solve_resident_steady, super_level
from .transform import solve_transformed_steady

_REFERENCE = {
    "landscape": Landscape([0.0, 1.0, 2.3]),
    "env": PatchEnvironment(r=[1.3, 0.8], k=[1.0, 2.5]),
    "resident": SpeciesTraits([1.0, 0.7], StrategyVector([3.1])),
    "mutant": SpeciesTraits([0.6, 1.1], StrategyVector([1.9])),
}


def _check_symmetry() -> tuple[str, bool, str]:
    landscape = Landscape([0.0, 1.0, 2.0, 3.5])
    traits = SpeciesTraits([1.0, 2.0, 0.5], StrategyVector([2.0, 0.7]))
    grid = build_grid(landscape, per_patch=37)
    defect = assemble_diffusion(grid, traits).symmetry_defect()
    return "weighted-symmetry", defect <= 1e-12, f"defect={defect:.2e}"


def _check_kernel() -> tuple[str, bool, str]:
    landscape = Landscape([0.0, 1.0, 2.0, 3.5])
    traits = SpeciesTraits([1.0, 2.0, 0.5], StrategyVector([2.0, 0.7]))
    grid = build_grid(landscape, per_patch=23)
    op = assemble_diffusion(grid, traits)
    c = consistent_constant(grid, traits)
    scale = np.abs(op.di).max()
    right = np.abs(op.matvec(c)).max() / scale
    # cᵀ W A is Aᵀ (W c): the transposed bands, whose zero corners the
    # rolls carry to the other ends
    transposed = tridiagonal_matvec(np.roll(op.up, 1), op.di, np.roll(op.lo, -1), op.weights * c)
    left = np.abs(transposed).max() / scale
    ok = right <= 1e-12 and left <= 1e-12
    return "kernel-and-conservation", ok, f"right={right:.2e} left={left:.2e}"


def _check_capacity_profile_fixed_point() -> tuple[str, bool, str]:
    landscape = Landscape([0.0, 1.0, 2.0, 3.0])
    env = PatchEnvironment(r=[1.0, 1.0, 1.0], k=[1.0, 2.0, 4.0])
    traits = SpeciesTraits([1.0, 1.0, 1.0], StrategyVector([2.0, 2.0]))
    grid = build_grid(landscape, per_patch=25)
    u = solve_resident_steady(landscape, env, traits, grid)
    k_dof = env.k_array[grid.patch_index_of_dofs()]
    err = np.abs(u.values / k_dof - 1.0).max()
    return "capacity-profile-fixed-point", err <= 1e-10, f"max rel err={err:.2e}"


def _check_neutrality(seed: int) -> tuple[str, bool, str]:
    rng = np.random.default_rng(seed)
    landscape = Landscape([0.0, 1.0, 2.0, 3.0])
    env = PatchEnvironment(r=[1.0, 1.0, 1.0], k=[1.0, 2.0, 4.0])
    resident = SpeciesTraits([1.0, 1.0, 1.0], StrategyVector([2.0, 2.0]))
    grid = build_grid(landscape, per_patch=30)
    worst = 0.0
    for _ in range(3):
        mutant = SpeciesTraits(
            rng.uniform(0.5, 2.0, size=3), StrategyVector(rng.uniform(0.4, 3.0, size=2))
        )
        pair = invasion_fitness(landscape, env, resident, mutant, grid)
        worst = max(worst, abs(pair.lambda1))
    return "capacity-profile-neutrality", worst <= 1e-10, f"max |lambda1|={worst:.2e}"


def _check_constant_potential() -> tuple[str, bool, str]:
    landscape = Landscape([0.0, 1.0])
    traits = SpeciesTraits([1.0], StrategyVector([]))
    grid = build_grid(landscape, per_patch=64)
    op = assemble_linearization(grid, traits, 0.7)
    pair = principal_eigenpair(op)
    lam_err = abs(pair.lambda1 - 0.7)
    phi_err = np.abs(pair.phi.values - 1.0).max()
    ok = lam_err <= 1e-12 and phi_err <= 1e-12
    return "constant-potential-eigenpair", ok, f"lam_err={lam_err:.2e} phi_err={phi_err:.2e}"


def _check_shift_covariance() -> tuple[str, bool, str]:
    landscape = _REFERENCE["landscape"]
    env = _REFERENCE["env"]
    resident = _REFERENCE["resident"]
    mutant = _REFERENCE["mutant"]
    grid = build_grid(landscape, per_patch=60)
    ustar = solve_resident_steady(landscape, env, resident, grid)
    potential = growth_potential(grid, env, ustar)
    base = principal_eigenpair(assemble_linearization(grid, mutant, potential))
    shift = 0.37
    moved = principal_eigenpair(assemble_linearization(grid, mutant, potential + shift))
    lam_err = abs(moved.lambda1 - base.lambda1 - shift)
    phi_err = np.abs(moved.phi.values - base.phi.values).max()
    ok = lam_err <= 1e-10 and phi_err <= 1e-9
    return "potential-shift-covariance", ok, f"lam_err={lam_err:.2e} phi_err={phi_err:.2e}"


def _check_identity_convergence() -> tuple[str, bool, str]:
    landscape = _REFERENCE["landscape"]
    env = _REFERENCE["env"]
    resident = _REFERENCE["resident"]
    mutant = _REFERENCE["mutant"]
    residuals = []
    for n_sub in (100, 200):
        grid = build_grid(landscape, per_patch=n_sub)
        ustar = solve_resident_steady(landscape, env, resident, grid)
        pair = invasion_fitness(landscape, env, resident, mutant, grid, ustar=ustar)
        residuals.append(
            invasion_identity_residual(ustar, pair, env, resident, mutant, grid)
        )
    ratio = residuals[0] / residuals[1]
    return (
        "identity-residual-convergence",
        2.5 <= ratio <= 6.0,
        f"residuals={residuals[0]:.2e},{residuals[1]:.2e} ratio={ratio:.2f}",
    )


def _check_transform_oracle() -> tuple[str, bool, str]:
    landscape = _REFERENCE["landscape"]
    env = _REFERENCE["env"]
    resident = _REFERENCE["resident"]
    grid = build_grid(landscape, per_patch=100)
    direct = solve_resident_steady(landscape, env, resident, grid)
    oracle = solve_transformed_steady(landscape, env, resident, grid)
    diff = np.abs(direct.values - oracle.values).max() / np.abs(direct.values).max()
    return "transform-oracle-agreement", diff <= 5e-3, f"rel diff={diff:.2e}"


def _check_self_linearization() -> tuple[str, bool, str]:
    landscape = _REFERENCE["landscape"]
    env = _REFERENCE["env"]
    grid = build_grid(landscape, per_patch=60)
    worst = -np.inf
    for traits in (_REFERENCE["resident"], _REFERENCE["mutant"]):
        pair = resident_self_eigenpair(landscape, env, traits, grid)
        worst = max(worst, pair.lambda1)
    return "steady-linearization-negative", worst < 0, f"max lambda1={worst:.3e}"


def _check_order_preservation(seed: int) -> tuple[str, bool, str]:
    rng = np.random.default_rng(seed)
    landscape = _REFERENCE["landscape"]
    env = _REFERENCE["env"]
    resident = _REFERENCE["resident"]
    mutant = _REFERENCE["mutant"]
    grid = build_grid(landscape, per_patch=40)
    stepper = Stepper(landscape, env, resident, mutant, grid, SimConfig())
    size = grid.num_reduced
    worst = 0.0
    for _ in range(5):
        ub = rng.uniform(0.0, 1.0, size)
        ua = ub + rng.uniform(0.0, 1.0, size)
        va = rng.uniform(0.0, 1.0, size)
        vb = va + rng.uniform(0.0, 1.0, size)
        ok, violation, _ = order_preservation_check((ua, va), (ub, vb), stepper, 200)
        worst = max(worst, violation)
        if not ok:
            return "order-preservation", False, f"violation={violation:.2e}"
    return "order-preservation", True, f"worst gap={worst:.2e}"


def _check_uniqueness_probe(seed: int) -> tuple[str, bool, str]:
    rng = np.random.default_rng(seed)
    landscape = _REFERENCE["landscape"]
    env = _REFERENCE["env"]
    resident = _REFERENCE["resident"]
    grid = build_grid(landscape, per_patch=60)
    reference = solve_resident_steady(landscape, env, resident, grid)
    k_red = restrict_values(grid, env_on_dofs(grid, env)[1])
    transformed = solve_transformed_steady(landscape, env, resident, grid)
    # every start is lifted to the folded capacity, where k / 2 meets the
    # default start; 2 M c keeps a second super-solution above the state
    level = super_level(env.k_array, resident.cumulative_scales())
    starts = [
        k_red / 2.0,
        2.0 * k_red,
        restrict_values(grid, transformed.values),
        k_red * rng.uniform(0.5, 1.5, grid.num_reduced),
        2.0 * level * consistent_constant(grid, resident),
    ]
    worst = 0.0
    for start in starts:
        u = solve_resident_steady(landscape, env, resident, grid, initial=start)
        worst = max(worst, float(np.abs(u.values - reference.values).max()))
    return "steady-uniqueness-probe", worst <= 1e-9, f"spread={worst:.2e}"


def run_validation(seed: int = 0) -> list[tuple[str, bool, str]]:
    return [
        _check_symmetry(),
        _check_kernel(),
        _check_capacity_profile_fixed_point(),
        _check_neutrality(seed),
        _check_constant_potential(),
        _check_shift_covariance(),
        _check_identity_convergence(),
        _check_transform_oracle(),
        _check_self_linearization(),
        _check_order_preservation(seed),
        _check_uniqueness_probe(seed),
    ]
