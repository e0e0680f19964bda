from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcomp as pc
import patchcomp.steady
import patchcomp.transform
from patchcomp.cli import run_command
from patchcomp.operators import (
    SpeciesLayout,
    assemble_diffusion,
    consistent_constant,
    env_on_dofs,
    factor_symmetrized,
    restrict_cell_average,
    restrict_diagonal,
    restrict_values,
)
from patchcomp.steady import newton, super_level
from scipy.linalg.lapack import dpttrf, dpttrs
from test_operators import reference_expand_reduced, reference_trace_fractions


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
    """The steady solve written out apart from the package's stacked Newton:
    one run of full Newton steps from the start (the capacity profile
    unless ``initial`` is given) lifted entrywise to at least ``a / b``,
    each step solving ``-J step = F`` as ``S⁻¹ (-S J S⁻¹)⁻¹ S F`` by
    LAPACK's pttrf and pttrs, with the growth ``u (a - b u)`` and its slope
    ``a - 2 b u`` in coefficient form (``reference_logistic``) and ``S``
    the similarity ``s[0] = 1``, ``s[i+1] = s[i] sqrt(up[i] / lo[i+1])`` of
    the diffusion couplings, ``off = sqrt(lo[i+1] up[i])``.  Returns the
    full field's values or raises SteadyConvergenceError."""
    op = assemble_diffusion(grid, traits)
    a, b = reference_logistic(grid, env, traits)
    k = env.k_array
    row_scale = float((np.abs(op.di) + np.abs(op.lo) + np.abs(op.up)).max())
    s = np.ones(op.size)
    s[1:] = np.cumprod(np.sqrt(op.up[:-1] / op.lo[1:]))
    off = np.sqrt(op.lo[1:] * op.up[:-1])

    def residual_and_slope(u):
        return op.matvec(u) + u * (a - b * u), a - 2.0 * b * u + op.di

    if initial is None:
        initial = np.empty(grid.num_reduced)
        for i in range(grid.n):
            initial[grid.reduced_patch_slice(i)] = env.k[i]
    u = np.maximum(initial, a / b)
    res, slope = residual_and_slope(u)
    for iteration in range(config.max_newton_iters + 1):
        norm = float(np.abs(res).max())
        noise = 8.0 * np.finfo(float).eps * row_scale * max(float(np.abs(u).max()), k.max())
        bound = config.newton_tol + noise
        if not (bound < norm < np.inf) or iteration == config.max_newton_iters:
            break
        d, e, info = dpttrf(-slope, -off)
        if info:
            raise pc.SteadyConvergenceError("reference Jacobian is indefinite", residual=norm)
        u = u + dpttrs(d, e, s * res)[0] / s
        res, slope = residual_and_slope(u)
    if not norm <= bound:
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

    @pytest.mark.parametrize("p", [3.0, 1.2])
    def test_super_solution_and_flat_starts_match_the_default_solve(self, unit_two_patch, p):
        # every start is lifted to the folded capacity, so Newton from 2 M c
        # (above the state) and from a flat 1e-6 (far below it) reaches the
        # default start's state within the stop, each in one run
        land, env = unit_two_patch
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p]))
        grid = pc.build_grid(land, per_patch=100)
        reference = pc.solve_resident_steady(land, env, traits, grid)
        level = super_level(env.k_array, traits.cumulative_scales())
        starts = [2.0 * level * consistent_constant(grid, traits),
                  np.full(grid.num_reduced, 1e-6)]
        for start in starts:
            u = pc.solve_resident_steady(land, env, traits, grid, initial=start)
            assert np.abs(u.values - reference.values).max() <= 1e-10 * reference.values.max()

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
        max_iters=st.sampled_from([50, 1, 2, 3]),  # 1-3 leave some runs unconverged
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
        u = rng.uniform(0.0, 2.0, problem.layout.di.shape) * k.max()
        res, (slope, _, _) = problem.residual(u)
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
        # 1 and 2 leave some blocks unconverged, and the stack raises
        config = pc.SteadyConfig(max_newton_iters=data.draw(st.sampled_from([50, 2, 1])))
        # starts far below the state, lifted to the folded capacity
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

    def test_mixed_stack_stops_block_by_block(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=100)
        kbar = float(pc.ifd_strategy(env).values[0])
        # the capacity profile is p = kbar's exact steady state, and its own
        # folded capacity; p = 3 starts from a flat start far below its state
        residents = [pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])) for p in (kbar, 3.0)]
        starts = np.array([np.repeat(env.k_array, [grid.counts[0] + 1, grid.counts[1]]),
                           np.full(grid.num_reduced, 0.05)])
        stack, runs = spied_solve(monkeypatch, lambda: pc.solve_resident_steady_states(
            land, env, residents, grid, initial=starts))
        # p = kbar stops at iteration 0, its own folded capacity, so only p =
        # 3 steps, in the one run
        whole = patchcomp.steady._SteadyProblem(grid, env, residents)
        (converged, steps), = runs
        assert converged == [True, True] and steps[0] == 0 < steps[1]
        assert np.array_equal(whole.layout.expand(np.maximum(starts, whole.a / whole.b))[0],
                              stack[0].values)
        for resident, start, field in zip(residents, starts, stack):
            single = pc.solve_resident_steady(land, env, resident, grid, initial=start)
            assert np.array_equal(field.values, single.values)
        assert np.abs(stack[0].values - env.k_array[grid.patch_index_of_dofs()]).max() == 0.0

    def test_far_below_block_converges_in_one_run(self, unit_two_patch, monkeypatch):
        # a block that starts far below its state and one that starts from
        # the capacity profile both converge in the stack's one Newton run,
        # each in the steps and with the bits of its own single run
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        residents = [pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])) for p in (3.0, 1.5)]
        starts = np.array([np.full(grid.num_reduced, 1e-5),
                           np.repeat(env.k_array, [grid.counts[0] + 1, grid.counts[1]])])
        stack, runs = spied_solve(monkeypatch, lambda: pc.solve_resident_steady_states(
            land, env, residents, grid, initial=starts))
        (converged, steps), = runs
        assert converged == [True, True] and min(steps) >= 1
        for resident, start, field, block_steps in zip(residents, starts, stack, steps):
            single, single_runs = spied_solve(monkeypatch, lambda: pc.solve_resident_steady(
                land, env, resident, grid, initial=start))
            assert single_runs == [([True], [block_steps])]
            assert np.array_equal(field.values, single.values)

    def test_residents_cut_into_chunks(self, unit_two_patch, monkeypatch):
        # at most two residents' DOFs per stack: stacks of 2, 2 and 1, with a
        # start per resident, equal to the one stack of 5
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        residents = [
            pc.SpeciesTraits([0.6, 1.1], pc.StrategyVector([p])) for p in (1.2, 1.9, 2.6, 3.3, 4.0)
        ]
        starts = np.linspace(0.1, 0.5, 5)[:, None] * np.ones(grid.num_reduced)
        config = pc.SteadyConfig()
        whole, whole_runs = spied_solve(monkeypatch, lambda: pc.solve_resident_steady_states(
            land, env, residents, grid, config, starts))
        monkeypatch.setattr(patchcomp.operators, "_STACK_DOFS", 2 * grid.num_reduced)
        chunked, runs = spied_solve(monkeypatch, lambda: pc.solve_resident_steady_states(
            land, env, residents, grid, config, starts))
        # one Newton run per stack, from these flat starts below the states
        # too, each block in the steps it takes in the one stack of 5
        assert [len(steps) for _, steps in runs] == [2, 2, 1]
        assert [s for _, steps in runs for s in steps] == whole_runs[0][1]
        assert [a.values.tolist() for a in chunked] == [b.values.tolist() for b in whole]

    def test_initial_must_be_finite_and_one_row_per_resident(self, unit_two_patch):
        # a NaN at a block's ends would cross the zero corners of the band
        # product into its neighbours' residuals; a flat array of the right
        # size is not one row per resident
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        residents = [pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])) for p in (1.5, 2.5, 3.5)]
        starts = np.ones((3, grid.num_reduced))
        starts[1, [0, -1]] = np.nan
        for initial in (starts, np.ones(3 * grid.num_reduced), np.ones((3, grid.num_reduced + 1))):
            with pytest.raises(pc.ValidationError, match="initial"):
                pc.solve_resident_steady_states(land, env, residents, grid, initial=initial)
        with pytest.raises(pc.ValidationError, match="initial"):
            pc.solve_resident_steady(land, env, residents[0], grid, initial=starts[1])
        with pytest.raises(pc.ValidationError, match="initial"):
            pc.solve_resident_steady(land, env, residents[0], grid, initial=starts[:1, :-1])

    def test_empty_stack_solves_nothing(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        assert pc.solve_resident_steady_states(land, env, [], grid) == []


# Landscapes on which Newton from the capacity profile, not lifted to the
# folded capacity and clipped at a floor, stalls at 9 subintervals per
# patch: (lengths, d, r, k, p), drawn log-uniformly over d 0.01-30, r and k
# 0.1-10 and p 0.05-20
STALLING_LANDSCAPES = {
    "three_patches": ([1.519, 1.308, 0.898], [0.388, 0.026, 15.799],
                      [0.116, 7.261, 2.038], [0.123, 3.786, 0.166], [2.331, 3.051]),
    "four_patches": ([1.286, 1.525, 1.644, 1.886], [0.655, 0.029, 0.037, 10.269],
                     [0.967, 0.684, 6.905, 8.53], [5.57, 0.255, 6.56, 1.965],
                     [0.282, 0.856, 0.649]),
    "six_patches": ([1.997, 1.489, 1.533, 1.645, 1.1, 0.591],
                    [2.643, 0.091, 0.037, 0.019, 0.197, 1.47],
                    [3.863, 0.608, 0.125, 4.46, 0.164, 5.572],
                    [0.17, 0.505, 0.128, 5.303, 8.899, 0.405],
                    [0.507, 0.237, 2.022, 0.063, 0.21]),
}


# A wide draw on which Newton from a flat start of 0.0103, far below the
# state (max 22.28), not lifted and clipped at a floor, ends at the trivial
# root: (boundaries, r, k, d, p)
TRIVIAL_ROOT_DRAW = (
    [0.0, 1.2477832752595082, 2.118012189372427, 3.2297652815886098, 4.690126856152936],
    [1.804698743869697, 16.209538008670044, 0.1106406343801893, 1.2778213796728894],
    [0.81729146875496, 7.849986611241803, 0.1318994888516424, 0.3455724374123231],
    [0.019571744540581165, 2.9876180222135673, 0.10454175734382103, 13.489529781338385],
    [10.574323344007286, 13.661684577037663, 0.23196995769544596],
)


def stalling_landscape(name):
    length, d, r, k, p = STALLING_LANDSCAPES[name]
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
    return land, pc.PatchEnvironment(r=r, k=k), pc.SpeciesTraits(d, pc.StrategyVector(p))


def spied_solve(monkeypatch, solve):
    """``solve()``'s result and, per Newton run it made, the run's own
    converged flags and step counts, one per block, as lists.  A run
    evaluates the residual once per pass: its most steps plus one times.
    ``solve`` runs on both routes, the kernel's where it loaded and numpy's,
    which must give the same states bit for bit and the same runs."""
    run = patchcomp.steady._SteadyProblem.run
    routes = []
    for kernel in dict.fromkeys([patchcomp.operators._ldlt, None]):
        runs = []

        def spy(self, u0, config):
            out = run(self, u0, config)
            runs.append((out[2].tolist(), out[3].tolist()))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(patchcomp.operators, "_ldlt", kernel)
            mp.setattr(patchcomp.steady._SteadyProblem, "run", spy)
            out = solve()
        fields = out if isinstance(out, list) else [out]
        routes.append((out, runs, np.array([field.values for field in fields])))
    (out, runs, values), *others = routes
    for _, other_runs, other_values in others:
        assert other_runs == runs and np.array_equal(other_values, values)
    return out, runs


class TestOneNewtonRun:
    """Landscapes and starts on which Newton from the unlifted start,
    clipped at a floor, stalls or ends at the trivial root converge in one
    run from the lifted start."""

    @pytest.mark.parametrize("name", sorted(STALLING_LANDSCAPES))
    def test_stalling_landscape_converges_in_one_run(self, name, monkeypatch):
        land, env, traits = stalling_landscape(name)
        grid = pc.build_grid(land, per_patch=9)
        u, runs = spied_solve(
            monkeypatch, lambda: pc.solve_resident_steady(land, env, traits, grid))
        (converged, steps), = runs
        assert converged == [True] and steps[0] + 1 <= 10
        assert u.min() > 0
        # stacked behind an easier resident, the stack's one run converges
        # both, each with the bits and steps of its single solve
        easy = pc.SpeciesTraits(np.ones(grid.n), pc.StrategyVector(np.ones(grid.n - 1)))
        stack, runs = spied_solve(
            monkeypatch, lambda: pc.solve_resident_steady_states(land, env, [easy, traits], grid))
        single, easy_runs = spied_solve(
            monkeypatch, lambda: pc.solve_resident_steady(land, env, easy, grid))
        assert runs == [([True, True], [easy_runs[0][1][0], steps[0]])]
        assert np.array_equal(stack[1].values, u.values)
        assert np.array_equal(stack[0].values, single.values)

    @pytest.mark.parametrize("level", [1e-12, 1e-9])
    def test_one_patch_flat_start_at_the_trivial_root_converges(self, level, monkeypatch):
        land = pc.Landscape([0.0, 1.0])
        env = pc.PatchEnvironment(r=[1.0], k=[1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=50)
        start = np.full(grid.num_reduced, level)
        u, runs = spied_solve(
            monkeypatch, lambda: pc.solve_resident_steady(land, env, traits, grid, initial=start))
        assert [converged for converged, _ in runs] == [[True]]
        assert np.abs(u.values - 1.0).max() <= 1e-10

    def test_two_patch_start_at_the_trivial_root_converges(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        traits = pc.SpeciesTraits([1.0, 1.0], pc.ifd_strategy(env))
        grid = pc.build_grid(land, per_patch=100)
        start = 1e-11 * consistent_constant(grid, traits)
        u, runs = spied_solve(
            monkeypatch, lambda: pc.solve_resident_steady(land, env, traits, grid, initial=start))
        assert [converged for converged, _ in runs] == [[True]]
        assert np.abs(u.values - env.k_array[grid.patch_index_of_dofs()]).max() <= 1e-10

    def test_wide_draw_flat_start_converges_in_one_run(self, monkeypatch):
        boundaries, r, k, d, p = TRIVIAL_ROOT_DRAW
        land = pc.Landscape(boundaries)
        env = pc.PatchEnvironment(r=r, k=k)
        traits = pc.SpeciesTraits(d, pc.StrategyVector(p))
        grid = pc.build_grid(land, per_patch=100)
        start = np.full(grid.num_reduced, 0.010318933431418275)
        u, runs = spied_solve(
            monkeypatch, lambda: pc.solve_resident_steady(land, env, traits, grid, initial=start))
        (converged, steps), = runs
        assert converged == [True] and steps[0] + 1 <= 11
        reference = pc.solve_resident_steady(land, env, traits, grid)
        assert np.abs(u.values - reference.values).max() <= 1e-10 * reference.values.max()


def log_uniform(low: float, high: float):
    """Floats log-uniform on ``[low, high]``."""
    return st.floats(np.log(low), np.log(high)).map(np.exp)


@st.composite
def residents(draw):
    """A landscape of 2-6 patches, its environment and a resident on it, in
    the tests' ranges (lengths 0.5-2, r and k 0.5-2, d 0.1-10 times 0.5-2, p
    0.2-5 times 0.5-2) or in the wide ones (d 0.01-30, p 0.05-20, r and k
    0.1-10, log-uniform)."""
    n = draw(st.integers(2, 6))

    def row(strategy, size):
        return np.array(draw(st.lists(strategy, min_size=size, max_size=size)))

    lengths = row(st.floats(0.5, 2.0), n)
    if draw(st.booleans()):
        r, k = row(st.floats(0.5, 2.0), n), row(st.floats(0.5, 2.0), n)
        d = row(st.floats(0.1, 10.0), n) * row(st.floats(0.5, 2.0), n)
        p = row(st.floats(0.2, 5.0), n - 1) * row(st.floats(0.5, 2.0), n - 1)
    else:
        r, k = row(log_uniform(0.1, 10.0), n), row(log_uniform(0.1, 10.0), n)
        d, p = row(log_uniform(0.01, 30.0), n), row(log_uniform(0.05, 20.0), n - 1)
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(lengths))))
    return land, pc.PatchEnvironment(r=r, k=k), pc.SpeciesTraits(d, pc.StrategyVector(p))


class TestMonotoneNewton:
    @given(
        drawn=residents(),
        per_patch=st.sampled_from([9, 40, 100]),
        start=st.sampled_from(["capacity", "twice M c", "flat"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_iterates_decrease_after_the_first_step(self, drawn, per_patch, start):
        # from the lifted start, the first iterate is a super-solution at or
        # above the state, and every later one lies at or below the one
        # before, up to rounding: 64 eps max u, plus the step the rounding
        # of the residual's summands alone makes, (-J)⁻¹ 4 eps (|A| u + a u
        # + b u²), which near the state is what a step is made of (rises
        # reach 18 times 64 eps max u on wide draws, and 0.6 % of this
        # bound); every factorisation is positive definite (a failed one
        # raises), and the one run converges.  The iterates are recorded on
        # numpy's route, whose ``newton`` calls the residual; the kernel's
        # run is the same arithmetic, bit for bit
        land, env, traits = drawn
        grid = pc.build_grid(land, per_patch=per_patch)
        problem = patchcomp.steady._SteadyProblem(grid, env, [traits])
        if start == "capacity":
            u0 = problem.layout.fill(env.k_array)
        elif start == "twice M c":
            level = super_level(env.k_array, traits.cumulative_scales())
            u0 = 2.0 * level * consistent_constant(grid, traits)
        else:
            u0 = np.full(grid.num_reduced, 1e-6)
        iterates, residual = [], problem.residual

        def record(u):
            res, (slope, s, off) = residual(u)
            iterates.append((u[0].copy(), (res[0], (slope, s, off))))
            return res, (slope, s, off)

        problem.residual = record
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(patchcomp.operators, "_ldlt", None)
            ustar = problem.solve(u0, pc.SteadyConfig())
        eps = np.finfo(float).eps
        lo, di, up = (band[0] for band in problem.layout.bands)
        a, b = problem.a[0], problem.b[0]
        row_scale = (np.abs(di) + np.abs(lo) + np.abs(up)).max()
        noise = 8.0 * eps * row_scale * max(iterates[0][0].max(), env.k_array.max())
        assert np.array_equal(iterates[0][0], np.maximum(u0, a / b))
        for (before, (_, (slope, s, off))), (after, _) in zip(iterates[1:], iterates[2:]):
            summands = (np.abs(di) + a + b * before) * before
            summands[1:] += lo[1:] * before[:-1]
            summands[:-1] += up[:-1] * before[1:]
            rounding = factor_symmetrized(slope, off, 0.0)(s * 4.0 * eps * summands) / s
            rounding = rounding[0]
            assert (after - before).max() <= rounding.max() + 64.0 * eps * before.max()
        for _, (res, _) in iterates[1:]:
            assert res.max() <= noise
        assert ustar.min() > 0


class TestTypedFailures:
    def test_indefinite_jacobian_raises_steady_convergence_error(
        self, unit_two_patch, monkeypatch, tmp_path
    ):
        # a reaction u (a - b u) with a and b negative, a 10^4 times the
        # logistic one: the start is lifted to a / b > 0, where the
        # Jacobian's diagonal, -a + di, is positive, so minus the Jacobian is
        # indefinite; on both routes the solve and the CLI report a
        # numerical failure, not a LinAlgError, with the same residual
        land, env = unit_two_patch
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        grid = pc.build_grid(land, per_patch=40)
        coefficients = SpeciesLayout.logistic_coefficients

        def inverted(self, *args):
            a, b = coefficients(self, *args)
            return -1e4 * a, -b

        monkeypatch.setattr(SpeciesLayout, "logistic_coefficients", inverted)
        config = Path(__file__).resolve().parents[1] / "configs" / "reference_two_patch.json"
        residuals = []
        for kernel in (patchcomp.operators._ldlt, None):
            monkeypatch.setattr(patchcomp.operators, "_ldlt", kernel)
            with pytest.raises(pc.SteadyConvergenceError, match="not negative definite") as got:
                pc.solve_resident_steady(land, env, traits, grid)
            residuals.append(got.value.residual)
            assert run_command(["steady", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert residuals[0] == residuals[1] > 0


class TestDampedNewton:
    @staticmethod
    def linear(slope):
        # F(u) = 2 - u, handed the Jacobian diagonal ``slope`` (-1: exact)
        def residual(u):
            return 2.0 - u, (np.full_like(u, slope), np.ones_like(u), np.zeros_like(u))
        return residual

    def test_exact_jacobian_converges_in_one_step(self):
        u, norm, converged, steps = newton(
            self.linear(-1.0), np.ones((1, 3)), 1.0, 1.0, pc.SteadyConfig()
        )
        assert converged.tolist() == [True] and norm.tolist() == [0.0]
        assert np.array_equal(u, np.full((1, 3), 2.0)) and steps.tolist() == [1]

    def test_indefinite_jacobian_raises(self):
        # minus a positive Jacobian is not positive definite
        with pytest.raises(pc.SteadyConvergenceError, match="not negative definite") as got:
            newton(self.linear(1.0), np.ones((1, 3)), 1.0, 1.0, pc.SteadyConfig())
        assert got.value.residual == 1.0

    def test_stack_stops_each_block_on_its_own(self, monkeypatch):
        # block 0 has the exact Jacobian and converges after one step; block
        # 1 has twice it, so each step halves its error, and it goes on
        # alone, factored on its own
        slopes, calls, factored = np.array([-1.0, -2.0]), [], []
        factor = patchcomp.steady.factor_symmetrized

        def residual(u):
            calls.append(u.shape)
            return 2.0 - u, (slopes[:, None] * np.ones_like(u), np.ones_like(u),
                             np.zeros_like(u))

        def spy_factor(slope, off, alpha):
            factored.append(slope.shape)
            return factor(slope, off, alpha)

        monkeypatch.setattr(patchcomp.steady, "factor_symmetrized", spy_factor)
        u, norm, converged, steps = newton(
            residual, np.ones((2, 3)), 1.0, np.ones(2), pc.SteadyConfig()
        )
        assert np.array_equal(u[0], [2.0, 2.0, 2.0]) and norm[0] == 0.0
        assert converged.tolist() == [True, True] and 0.0 < norm[1] <= 1e-10
        assert factored[0] == (2, 3) and set(factored[1:]) == {(1, 3)}
        assert steps[0] == 1 and steps[1] == len(factored)
        assert set(calls) == {(2, 3)}

    def test_non_finite_residual_returns_unconverged(self, monkeypatch):
        def residual(u):
            return np.full((1, 3), np.nan), (-np.ones((1, 3)), np.ones((1, 3)), np.zeros((1, 3)))

        def refuse(*args):
            raise AssertionError("a non-finite residual reached the factorisation")

        monkeypatch.setattr(patchcomp.steady, "factor_symmetrized", refuse)
        _, norm, converged, steps = newton(residual, np.ones((1, 3)), 1.0, 1.0, pc.SteadyConfig())
        assert converged.tolist() == [False] and np.isnan(norm[0]) and steps.tolist() == [0]

    def test_non_finite_block_is_never_factored(self, monkeypatch):
        # F(u) = t - u^2 per block, concave, from u = 1: the middle block's
        # residual and Jacobian turn NaN from the second evaluation on, so
        # it stops, unconverged, while its neighbours go on to their roots
        # with the bits of their own solves
        def squares(targets, poisoned=None):
            evaluated = []

            def residual(u):
                res, slope = targets - u * u, -2.0 * u
                if evaluated and poisoned is not None:
                    res[poisoned] = slope[poisoned] = np.nan
                evaluated.append(u)
                return res, (slope, np.ones_like(u), np.zeros_like(u))
            return residual

        factored, factor = [], patchcomp.steady.factor_symmetrized

        def spy_factor(slope, off, alpha):
            factored.append(len(slope))
            assert np.isfinite(slope).all()
            return factor(slope, off, alpha)

        monkeypatch.setattr(patchcomp.steady, "factor_symmetrized", spy_factor)
        targets = np.array([2.0, 3.0, 4.0])
        u, norm, converged, steps = newton(
            squares(targets[:, None], poisoned=1), np.ones((3, 4)), 1.0, np.ones(3),
            pc.SteadyConfig(),
        )
        monkeypatch.undo()
        assert factored[0] == 3 and max(factored[1:]) == 2
        assert converged.tolist() == [True, False, True] and np.isnan(norm[1])
        assert steps[1] == 1
        for block in (0, 2):
            w, w_norm, w_converged, w_steps = newton(
                squares(targets[block]), np.ones((1, 4)), 1.0, 1.0, pc.SteadyConfig()
            )
            assert w_converged.tolist() == [True] and np.array_equal(u[block], w[0])
            assert norm[block] == w_norm[0] and steps[block] == w_steps[0]

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


    def test_non_positive_couplings_raise(self, unit_two_patch, monkeypatch):
        # a reaction Jacobian that outweighs the diffusion couplings leaves
        # no symmetric similarity for the LDLᵀ
        land, env = unit_two_patch
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        grid = pc.build_grid(land, per_patch=60)
        reaction = patchcomp.transform._fv_reaction

        def heavy(*args):
            out, (jlo, jdi, jup) = reaction(*args)
            return out, (jlo - 1e9, jdi, jup - 1e9)

        monkeypatch.setattr(patchcomp.transform, "_fv_reaction", heavy)
        with pytest.raises(pc.SteadyConvergenceError, match="not positive"):
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
