import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcomp as pc
import patchcomp.steady
import patchcomp.transform
from patchcomp.operators import (
    assemble_diffusion,
    env_on_dofs,
    restrict_cell_average,
    restrict_diagonal,
    restrict_values,
)
from patchcomp.steady import FALLBACK_DT, damped_newton
from test_operators import (
    reference_expand_reduced,
    reference_factor_shifted,
    reference_trace_fractions,
)


def reference_logistic(grid, env, traits):
    """The coefficients ``(a, b)`` of the reduced logistic growth
    ``u (a - b u)``, written out per interface from the shares of the
    reference layout (``reference_trace_fractions``): the
    ``restrict_avg`` of ``r u (1 - u / k)`` on the expanded field, whose
    eliminated right trace is ``p`` times its left one."""
    r_full, k_full = env_on_dofs(grid, env)
    r = restrict_values(grid, r_full)
    k = restrict_values(grid, k_full)
    a, b = r.copy(), r / k
    left_share, right_share = reference_trace_fractions(grid, traits)
    p = traits.p_array
    for m in range(grid.n - 1):
        t = grid.reduced_trace_index(m)
        left = left_share[m] * env.r_array[m]
        right = right_share[m] * env.r_array[m + 1]
        a[t] = left + right
        b[t] = left / env.k_array[m] + right * p[m] / env.k_array[m + 1]
    return a, b


def reference_steady(grid, env, traits, config, initial=None):
    """The steady solve before the shared Newton driver: its own damped
    Newton (a ``reference_factor_shifted`` LU solve per step) and the
    time-march fallback, with the growth ``u (a - b u)`` and its slope
    ``a - 2 b u`` in coefficient form (``reference_logistic``).
    Returns the full field's values or raises SteadyConvergenceError."""
    op = assemble_diffusion(grid, traits)
    a, b = reference_logistic(grid, env, traits)
    k = env.k_array
    row_scale = float((np.abs(op.di) + np.abs(op.lo) + np.abs(op.up)).max())
    floor = 1e-12 * k.min()

    def growth(u):
        return u * (a - b * u)

    def residual_and_slope(u):
        return op.matvec(u) + growth(u), a - 2.0 * b * u

    def unconverged(u, norm):
        noise = 8.0 * np.finfo(float).eps * row_scale * max(float(np.abs(u).max()), k.max())
        return norm > config.newton_tol + noise

    def newton(u0):
        u = np.maximum(np.asarray(u0, dtype=float).copy(), floor)
        res, slope = residual_and_slope(u)
        for _ in range(config.max_newton_iters):
            norm = float(np.abs(res).max())
            if not unconverged(u, norm):
                return u, norm
            step = reference_factor_shifted(op, slope)(-res)
            alpha = 1.0
            while True:
                trial = np.maximum(u + alpha * step, floor)
                trial_res, trial_slope = residual_and_slope(trial)
                if np.abs(trial_res).max() <= (1.0 - 1e-4 * alpha) * norm:
                    u, res, slope = trial, trial_res, trial_slope
                    break
                alpha *= 0.5
                if alpha < 1e-4:
                    return u, norm
        return u, float(np.abs(res).max())

    if initial is None:
        initial = np.empty(grid.num_reduced)
        for i in range(grid.n):
            initial[grid.reduced_patch_slice(i)] = env.k[i]
    u, norm = newton(initial)
    if unconverged(u, norm):
        march = reference_factor_shifted(op, 1.0, -0.1)
        for step in range(1, int(np.ceil(2000.0 / 0.1)) + 1):
            u = np.maximum(march(u + 0.1 * growth(u)), floor)
            if step % 20 == 0 and np.abs(residual_and_slope(u)[0]).max() < 1e-4:
                break
        u, norm = newton(u)
        if unconverged(u, norm):
            raise pc.SteadyConvergenceError("reference solve failed", residual=norm)
    if u.min() <= 0:
        raise pc.SteadyConvergenceError("reference lost positivity", residual=norm)
    return reference_expand_reduced(grid, traits, u)


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

        mains = []
        factor = patchcomp.steady.factor_blocks

        def spy(lo, di, up):
            mains.append(di)
            return factor(lo, di, up)

        monkeypatch.setattr(patchcomp.steady, "factor_blocks", spy)
        config = pc.SteadyConfig(max_newton_iters=2)
        u = pc.solve_resident_steady(land, env, traits, grid, config)
        # Newton factors a Jacobian per step; the march factors I - dt A once
        march = 1.0 - FALLBACK_DT * assemble_diffusion(grid, traits).di
        assert sum(np.array_equal(np.ravel(di), march) for di in mains) == 1
        assert np.abs(u.values - reference.values).max() <= 1e-9

    @given(
        patches=st.lists(
            st.tuples(  # length, d, p (the last patch's unused), r, k
                st.floats(0.3, 3.0), st.floats(0.05, 10.0), st.floats(0.2, 5.0),
                st.floats(0.3, 3.0), st.floats(0.3, 3.0),
            ),
            min_size=1,
            max_size=6,
        ),
        per_patch=st.sampled_from([12, 40, 100]),
        max_iters=st.sampled_from([50, 1, 2, 3]),  # 1-3 force the fallback march
        start=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_solve(self, patches, per_patch, max_iters, start):
        length, d, p, r, k = (np.array(col) for col in zip(*patches))
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        env = pc.PatchEnvironment(r=r, k=k)
        traits = pc.SpeciesTraits(d, pc.StrategyVector(p[:-1]))
        grid = pc.build_grid(land, per_patch=per_patch)
        config = pc.SteadyConfig(max_newton_iters=max_iters)
        initial = None
        if start is not None:
            rng = np.random.default_rng(start)
            initial = rng.uniform(0.1, 2.0, grid.num_reduced) * k.max()
        try:
            expected = reference_steady(grid, env, traits, config, initial)
        except pc.SteadyConvergenceError as exc:
            with pytest.raises(pc.SteadyConvergenceError) as got:
                pc.solve_resident_steady(land, env, traits, grid, config, initial)
            assert got.value.residual == exc.residual
            return
        u = pc.solve_resident_steady(land, env, traits, grid, config, initial)
        assert np.array_equal(u.values, expected)


class TestCoefficientForm:
    @given(
        patches=st.lists(
            st.tuples(  # length, r, k
                st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0),
            ),
            min_size=1,
            max_size=6,
        ),
        per_patch=st.sampled_from([12, 40]),
        species=st.one_of(st.none(), st.integers(1, 4)),  # None: one (N,) problem
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_dof_restriction(self, patches, per_patch, species, seed):
        length, r, k = (np.array(col) for col in zip(*patches))
        n = len(length)
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        env = pc.PatchEnvironment(r=r, k=k)
        grid = pc.build_grid(land, per_patch=per_patch)
        rng = np.random.default_rng(seed)
        residents = [
            pc.SpeciesTraits(rng.uniform(0.05, 10.0, n),
                             pc.StrategyVector(rng.uniform(0.2, 5.0, n - 1)))
            for _ in range(species or 1)
        ]
        problem = patchcomp.steady._SteadyProblem(
            grid, env, residents[0] if species is None else residents
        )
        u = rng.uniform(0.0, 2.0, problem.di.shape) * k.max()
        res, (_, slope, _) = problem.residual(u)
        a, b = problem.a.reshape(-1, grid.num_reduced), problem.b.reshape(-1, grid.num_reduced)
        rows = zip(residents, u.reshape(a.shape), res.reshape(a.shape),
                   slope.reshape(a.shape), a, b)
        r_full, k_full = env_on_dofs(grid, env)
        for traits, w, res_w, slope_w, a_w, b_w in rows:
            # the coefficients are the reference's, bit for bit
            ref_a, ref_b = reference_logistic(grid, env, traits)
            assert np.array_equal(a_w, ref_a) and np.array_equal(b_w, ref_b)
            # reference: the reaction and its slope on the full DOFs, restricted back
            w_full = reference_expand_reduced(grid, traits, w)
            ref_growth = restrict_cell_average(
                grid, traits, r_full * w_full * (1.0 - w_full / k_full))
            ref_slope = restrict_diagonal(grid, traits, r_full * (1.0 - 2.0 * w_full / k_full))
            # the size of the summands bounds the rounding of either route
            growth_scale = (r_full * w_full * (1.0 + w_full / k_full)).max()
            slope_scale = (r_full * (1.0 + 2.0 * w_full / k_full)).max()
            assert np.abs(w * (a_w - b_w * w) - ref_growth).max() <= 1e-14 * growth_scale
            assert np.abs(a_w - 2.0 * b_w * w - ref_slope).max() <= 1e-14 * slope_scale
            # the residual and the Jacobian's diagonal add the diffusion
            op = assemble_diffusion(grid, traits)
            diffusion = op.matvec(w)
            assert np.abs(res_w - (diffusion + ref_growth)).max() <= 1e-14 * (
                growth_scale + np.abs(diffusion).max())
            assert np.abs(slope_w - (op.di + ref_slope)).max() <= 1e-14 * (
                slope_scale + np.abs(op.di).max())


class TestStackedSteady:
    @given(
        patches=st.lists(
            st.tuples(  # length, r, k
                st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0),
            ),
            min_size=2,
            max_size=4,
        ),
        per_patch=st.sampled_from([12, 40]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_a_loop_of_single_solves(self, patches, per_patch, data):
        length, r, k = (np.array(col) for col in zip(*patches))
        n = len(length)
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        env = pc.PatchEnvironment(r=r, k=k)
        grid = pc.build_grid(land, per_patch=per_patch)
        species = st.tuples(
            st.lists(st.floats(0.05, 10.0), min_size=n, max_size=n),
            st.lists(st.floats(0.2, 5.0), min_size=n - 1, max_size=n - 1),
        )
        residents = [
            pc.SpeciesTraits(d, pc.StrategyVector(p))
            for d, p in data.draw(st.lists(species, min_size=1, max_size=6))
        ]
        # 1 and 2 force some blocks through the fallback march
        config = pc.SteadyConfig(max_newton_iters=data.draw(st.sampled_from([50, 2, 1])))
        # starts far below the state make the line search halve some steps
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
        starts = [None] * len(residents)
        if seed is not None:
            rng = np.random.default_rng(seed)
            starts = k.max() * np.exp(rng.uniform(np.log(1e-6), np.log(2.0),
                                                  (len(residents), grid.num_reduced)))
        singles = []
        for resident, start in zip(residents, starts):
            try:
                singles.append(
                    pc.solve_resident_steady(land, env, resident, grid, config, start)
                )
            except pc.SteadyConvergenceError as exc:
                singles.append(exc)
        starts = None if seed is None else starts
        failed = [one for one in singles if isinstance(one, Exception)]
        if failed:
            with pytest.raises(pc.SteadyConvergenceError) as got:
                pc.solve_resident_steady_states(land, env, residents, grid, config, starts)
            assert got.value.residual == failed[0].residual
            return
        stack = pc.solve_resident_steady_states(land, env, residents, grid, config, starts)
        assert len(stack) == len(residents)
        for one, field in zip(singles, stack):
            assert np.array_equal(field.values, one.values)

    def test_mixed_stack_stops_and_marches_block_by_block(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=100)
        kbar = float(pc.ifd_strategy(env).values[0])
        # the capacity profile is p = kbar's exact steady state; p = 3 needs
        # more than two Newton steps from it
        residents = [pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])) for p in (kbar, 3.0)]
        config = pc.SteadyConfig(max_newton_iters=2)
        problem = patchcomp.steady._SteadyProblem
        rows, marched = [], []
        residual, march = problem.residual, problem.march

        def spy_residual(self, u, index=None):
            rows.append(None if index is None else list(index))
            return residual(self, u, index)

        def spy_march(self, u):
            marched.append(len(u))
            return march(self, u)

        monkeypatch.setattr(problem, "residual", spy_residual)
        monkeypatch.setattr(problem, "march", spy_march)
        stack = pc.solve_resident_steady_states(land, env, residents, grid, config)
        # p = kbar stops at iteration 0, so Newton goes on with p = 3 alone,
        # and only p = 3 marches
        assert rows[:2] == [None, [1]]
        assert marched == [1]
        monkeypatch.undo()
        for resident, field in zip(residents, stack):
            single = pc.solve_resident_steady(land, env, resident, grid, config)
            assert np.array_equal(field.values, single.values)
        assert np.abs(stack[0].values - env.k_array[grid.patch_index_of_dofs()]).max() == 0.0

    def test_line_search_halves_block_by_block(self, unit_two_patch, monkeypatch):
        # from far below its state a block halves its first steps, while a
        # block that starts from the capacity profile takes full ones
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        residents = [pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])) for p in (3.0, 1.5)]
        starts = np.array([np.full(grid.num_reduced, 1e-5),
                           np.repeat(env.k_array, [grid.counts[0] + 1, grid.counts[1]])])
        calls = {"residual": 0, "factor": 0}
        residual, factor = patchcomp.steady._SteadyProblem.residual, patchcomp.steady.factor_blocks

        def count_residual(self, u, rows=None):
            calls["residual"] += 1
            return residual(self, u, rows)

        def count_factor(*bands):
            calls["factor"] += 1
            return factor(*bands)

        monkeypatch.setattr(patchcomp.steady._SteadyProblem, "residual", count_residual)
        monkeypatch.setattr(patchcomp.steady, "factor_blocks", count_factor)
        stack = pc.solve_resident_steady_states(land, env, residents, grid, initial=starts)
        # one residual per start and per full step; a halving adds one more
        assert calls["residual"] > calls["factor"] + 1
        monkeypatch.undo()
        for resident, start, field in zip(residents, starts, stack):
            single = pc.solve_resident_steady(land, env, resident, grid, initial=start)
            assert np.array_equal(field.values, single.values)

    def test_residents_cut_into_chunks(self, unit_two_patch, monkeypatch):
        # at most two residents' DOFs per stack: stacks of 2, 2 and 1, with a
        # start per resident, equal to the one stack of 5
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        residents = [
            pc.SpeciesTraits([0.6, 1.1], pc.StrategyVector([p])) for p in (1.2, 1.9, 2.6, 3.3, 4.0)
        ]
        starts = np.linspace(0.5, 1.5, 5)[:, None] * np.ones(grid.num_reduced)
        config = pc.SteadyConfig(max_newton_iters=3)
        whole = pc.solve_resident_steady_states(land, env, residents, grid, config, starts)
        sizes = []
        problem = patchcomp.steady._SteadyProblem
        newton = problem.newton

        def spy_newton(self, u0, config):
            sizes.append(u0.shape[:-1])
            return newton(self, u0, config)

        monkeypatch.setattr(problem, "newton", spy_newton)
        monkeypatch.setattr(patchcomp.steady, "_STACK_DOFS", 2 * grid.num_reduced)
        chunked = pc.solve_resident_steady_states(land, env, residents, grid, config, starts)
        # per stack, Newton and then the polish after the march (three steps
        # from these starts leave every block unconverged); the last resident
        # is solved on its own (N,) arrays
        assert sizes == [(2,), (2,), (2,), (2,), (), ()]
        assert [a.values.tolist() for a in chunked] == [b.values.tolist() for b in whole]

    def test_empty_stack_solves_nothing(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        assert pc.solve_resident_steady_states(land, env, [], grid) == []


class TestDampedNewton:
    @staticmethod
    def shifted(sign):
        # F(u) = u - 2 with the Jacobian's bands scaled by sign (1: exact)
        def residual(u, rows):
            return u - 2.0, (np.zeros_like(u), np.full_like(u, sign), np.zeros_like(u))
        return residual

    def test_exact_jacobian_converges_in_one_step(self):
        u, norm, converged = damped_newton(
            self.shifted(1.0), np.ones(3), 0.0, 1.0, 1.0, pc.SteadyConfig()
        )
        assert converged and norm == 0.0 and np.array_equal(u, np.full(3, 2.0))

    def test_stalled_line_search_returns_unconverged(self):
        u, norm, converged = damped_newton(
            self.shifted(-1.0), np.ones(3), 0.0, 1.0, 1.0, pc.SteadyConfig()
        )
        assert not converged and norm == 1.0 and np.array_equal(u, np.ones(3))

    def test_stack_stops_each_block_on_its_own(self):
        # block 0 has the exact Jacobian, block 1 one of the wrong sign: the
        # first converges after one step, the second stalls in its first line
        # search, and both stop on that pass
        signs, calls = np.array([1.0, -1.0]), []

        def residual(u, rows):
            calls.append(rows)
            sign = signs if rows is None else signs[rows]
            return u - 2.0, (np.zeros_like(u), sign[:, None] * np.ones_like(u),
                             np.zeros_like(u))

        u, norm, converged = damped_newton(
            residual, np.ones((2, 3)), 0.0, 1.0, np.ones(2), pc.SteadyConfig()
        )
        assert np.array_equal(u, [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
        assert norm.tolist() == [0.0, 1.0] and converged.tolist() == [True, False]
        assert all(rows is None for rows in calls)

    def test_non_finite_residual_returns_unconverged(self, monkeypatch):
        def residual(u, rows):
            return np.full(3, np.nan), (np.zeros(3), np.ones(3), np.zeros(3))

        def refuse(*bands):
            raise AssertionError("a non-finite residual reached the factorisation")

        monkeypatch.setattr(patchcomp.steady, "factor_blocks", refuse)
        _, norm, converged = damped_newton(
            residual, np.ones(3), 0.0, 1.0, 1.0, pc.SteadyConfig()
        )
        assert not converged and np.isnan(norm)

    @pytest.mark.parametrize("value", [0, 2.5, True, "50"])
    def test_iteration_cap_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_newton_iters"):
            pc.SteadyConfig(max_newton_iters=value)

    @pytest.mark.parametrize("value", [0.0, -1e-10, float("nan"), float("inf"), True, "1e-10"])
    def test_tolerance_must_be_a_finite_positive_number(self, value):
        # a config built in Python is held to the JSON config's rule
        with pytest.raises(pc.ValidationError, match="steady.newton_tol: must be"):
            pc.SteadyConfig(newton_tol=value)


class TestTransformedOracle:
    def test_stall_raises(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        grid = pc.build_grid(land, per_patch=60)
        assert pc.solve_transformed_steady(land, env, traits, grid).min() > 0
        monkeypatch.setattr(
            patchcomp.transform, "ORACLE_CONFIG", pc.SteadyConfig(max_newton_iters=1)
        )
        with pytest.raises(pc.SteadyConvergenceError):
            pc.solve_transformed_steady(land, env, traits, grid)


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
