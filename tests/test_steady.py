import numpy as np
import pytest

import patchcomp as pc
from patchcomp.operators import LinearOperator, restrict_values


class TestSingleSpeciesSteady:
    def test_single_patch_is_flat_capacity(self):
        land = pc.Landscape([0.0, 1.7])
        env = pc.PatchEnvironment(r=[0.8], k=[2.4])
        traits = pc.SpeciesTraits([1.3], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=30)
        u = pc.solve_resident_steady(land, env, traits, grid)
        assert np.abs(u.values - 2.4).max() <= 1e-10

    def test_capacity_ratio_jumps_pin_the_capacity_profile(self):
        land = pc.Landscape([0.0, 1.0, 2.0, 3.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0, 1.0], k=[1.0, 2.0, 4.0])
        traits = pc.SpeciesTraits([1.0, 1.0, 1.0], pc.StrategyVector([2.0, 2.0]))
        for n_sub in (20, 55):
            grid = pc.build_grid(land, per_patch=n_sub)
            u = pc.solve_resident_steady(land, env, traits, grid)
            k_dof = env.k_array[grid.patch_index_of_dofs()]
            assert np.abs(u.values / k_dof - 1.0).max() <= 1e-10

    def test_two_patch_profile_against_fine_oracle(self):
        land = pc.Landscape([0.0, 1.0, 2.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 1.0])
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        grid = pc.build_grid(land, per_patch=100)
        u = pc.solve_resident_steady(land, env, traits, grid)
        assert u.values[0] < 1.0 < u.values[-1]
        report = pc.monotonicity_report(u, env, traits)
        assert report.patch_signs == ("decreasing", "decreasing")
        # fine-grid oracle through the rescaled continuous route
        fine = pc.build_grid(land, per_patch=4000)
        oracle = pc.solve_transformed_steady(land, env, traits, fine)
        coarse_on_fine = np.concatenate(
            [oracle.patch_values(i)[::40] for i in range(2)]
        )
        rel = np.abs(u.values - coarse_on_fine).max() / coarse_on_fine.max()
        assert rel <= 5e-3

    def test_positivity_and_consistency(self, two_patch):
        land, env, resident, _ = two_patch
        grid = pc.build_grid(land, per_patch=80)
        u = pc.solve_resident_steady(land, env, resident, grid)
        assert u.min() > 0
        assert u.is_jump_consistent(resident)

    def test_unique_limit_from_distinct_starts(self, two_patch):
        land, env, resident, _ = two_patch
        grid = pc.build_grid(land, per_patch=60)
        rng = np.random.default_rng(3)
        reference = pc.solve_resident_steady(land, env, resident, grid)
        k_red = np.empty(grid.num_reduced)
        for i in range(grid.n):
            k_red[grid.reduced_patch_slice(i)] = env.k[i]
        oracle = pc.solve_transformed_steady(land, env, resident, grid)
        starts = [
            k_red / 2.0,
            2.0 * k_red,
            restrict_values(grid, oracle.values),
            k_red * rng.uniform(0.5, 1.5, grid.num_reduced),
        ]
        for start in starts:
            u = pc.solve_resident_steady(land, env, resident, grid, initial=start)
            assert np.abs(u.values - reference.values).max() <= 10 * 1e-10 * 100

    def test_grid_convergence_second_order(self, two_patch):
        land, env, resident, _ = two_patch
        solutions = {}
        for n_sub in (50, 100, 200):
            grid = pc.build_grid(land, per_patch=n_sub)
            solutions[n_sub] = pc.solve_resident_steady(land, env, resident, grid)
        e1 = max(
            np.abs(
                solutions[50].patch_values(i) - solutions[100].patch_values(i)[::2]
            ).max()
            for i in range(2)
        )
        e2 = max(
            np.abs(
                solutions[100].patch_values(i) - solutions[200].patch_values(i)[::2]
            ).max()
            for i in range(2)
        )
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_time_march_fallback_matches_default_solve(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        grid = pc.build_grid(land, per_patch=100)
        reference = pc.solve_resident_steady(land, env, traits, grid)
        with pytest.raises(pc.SteadyConvergenceError):
            pc.solve_resident_steady(
                land, env, traits, grid, pc.SteadyConfig(max_newton_iters=1)
            )

        betas = []
        factor = LinearOperator.factor_shifted

        def spy(op, alpha, beta=1.0):
            betas.append(beta)
            return factor(op, alpha, beta)

        monkeypatch.setattr(LinearOperator, "factor_shifted", spy)
        config = pc.SteadyConfig(max_newton_iters=2)
        u = pc.solve_resident_steady(land, env, traits, grid, config)
        # Newton factors A + diag(slope) (beta = 1); only the march uses -dt
        assert betas.count(-config.fallback_dt) == 1
        assert np.abs(u.values - reference.values).max() <= 1e-9


class TestMonotonicityReport:
    def test_decreasing_regime(self):
        land = pc.Landscape([0.0, 1.0, 2.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        grid = pc.build_grid(land, per_patch=60)
        u = pc.solve_resident_steady(land, env, traits, grid)
        rep = pc.monotonicity_report(u, env, traits)
        assert rep.patch_signs == ("decreasing", "decreasing")
        assert rep.boundary_left == "below" and rep.boundary_right == "above"
        assert all(a < 0 and b < 0 for a, b in rep.interface_derivatives)
        assert rep.expected_pattern == "decreasing"
        assert rep.monotone

    def test_increasing_regime(self):
        land = pc.Landscape([0.0, 1.0, 2.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.2]))
        grid = pc.build_grid(land, per_patch=60)
        u = pc.solve_resident_steady(land, env, traits, grid)
        rep = pc.monotonicity_report(u, env, traits)
        assert rep.patch_signs == ("increasing", "increasing")
        assert rep.boundary_left == "above" and rep.boundary_right == "below"
        assert rep.expected_pattern == "increasing"

    def test_reciprocal_jump_pair_is_nonmonotone(self):
        # equal outer capacities with reciprocal jumps force an interior turn
        land = pc.Landscape([0.0, 1.0, 2.0, 3.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0, 1.0], k=[1.0, 2.0, 1.0])
        traits = pc.SpeciesTraits(
            [1.0, 1.0, 1.0], pc.StrategyVector([3.0, 1.0 / 3.0])
        )
        grid = pc.build_grid(land, per_patch=80)
        u = pc.solve_resident_steady(land, env, traits, grid)
        rep = pc.monotonicity_report(u, env, traits)
        assert not rep.monotone
        assert rep.patch_signs == ("decreasing", "mixed", "increasing")
        assert rep.expected_pattern is None
        assert len(rep.crossovers) == 1
        patch, x_turn = rep.crossovers[0]
        assert patch == 1
        # the instance is mirror-symmetric, so the turn sits mid-landscape;
        # cross-check against the rescaled-route solve on a finer grid
        fine = pc.build_grid(land, per_patch=320)
        u_fine = pc.solve_transformed_steady(land, env, traits, fine)
        rep_fine = pc.monotonicity_report(u_fine, env, traits)
        x_fine = rep_fine.crossovers[0][1]
        assert abs(x_turn - x_fine) <= 2.0 * grid.spacing(1)
        assert abs(x_fine - 1.5) <= 0.01

    def test_flat_state_reports_flat(self):
        land = pc.Landscape([0.0, 1.0, 2.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        grid = pc.build_grid(land, per_patch=20)
        u = pc.solve_resident_steady(land, env, traits, grid)
        rep = pc.monotonicity_report(u, env, traits)
        assert rep.patch_signs == ("flat", "flat")
        assert rep.boundary_left == "equal" and rep.boundary_right == "equal"
