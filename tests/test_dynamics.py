import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcomp as pc
from patchcomp.dynamics import (
    SimConfig,
    Stepper,
    bounding_level,
    default_initial,
    order_preservation_check,
    pair_steady_residual,
)
from patchcomp.operators import (
    LinearOperator,
    consistent_constant,
    expand_reduced,
    restrict_cell_average,
    restrict_values,
)


@pytest.fixture
def competition_pair(unit_two_patch):
    land, env = unit_two_patch
    resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
    mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
    grid = pc.build_grid(land, per_patch=40)
    stepper = Stepper(land, env, resident, mutant, grid, SimConfig())
    return land, env, resident, mutant, grid, stepper


class TestStep:
    def test_extinction_state_invariant(self, competition_pair):
        *_, grid, stepper = competition_pair
        z = np.zeros(grid.num_reduced)
        u, v, clipped = stepper.step(z, z)
        assert np.all(u == 0) and np.all(v == 0) and clipped == 0

    def test_single_species_capacity_fixed_point(self):
        land = pc.Landscape([0.0, 1.0])
        env = pc.PatchEnvironment(r=[1.0], k=[2.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=20)
        stepper = Stepper(land, env, traits, traits, grid, SimConfig())
        u = np.full(grid.num_reduced, 2.0)
        v = np.zeros(grid.num_reduced)
        for _ in range(10):
            u, v, _ = stepper.step(u, v)
        assert np.abs(u - 2.0).max() <= 1e-13

    def test_shared_capacity_split_fixed_point(self, unit_two_patch):
        # both species on capacity-ratio jumps, densities summing to capacity
        land, env = unit_two_patch
        ifd = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        ifd2 = pc.SpeciesTraits([0.7, 1.4], pc.StrategyVector([2.0]))
        grid = pc.build_grid(land, per_patch=20)
        stepper = Stepper(land, env, ifd, ifd2, grid, SimConfig())
        u0 = np.empty(grid.num_reduced)
        for i in range(grid.n):
            u0[grid.reduced_patch_slice(i)] = 0.4 * env.k[i]
        v0 = u0 / 0.4 * 0.6
        u, v = u0.copy(), v0.copy()
        for _ in range(20):
            u, v, _ = stepper.step(u, v)
        assert np.abs(u - u0).max() <= 1e-12
        assert np.abs(v - v0).max() <= 1e-12

    def test_nonnegativity_and_box(self, competition_pair):
        land, env, resident, mutant, grid, stepper = competition_pair
        rng = np.random.default_rng(0)
        u, v = (rng.uniform(0, 2.0, grid.num_reduced) for _ in range(2))
        box_u = bounding_level(grid, resident, env, u) * consistent_constant(grid, resident)
        box_v = bounding_level(grid, mutant, env, v) * consistent_constant(grid, mutant)
        for _ in range(500):
            u, v, _ = stepper.step(u, v)
            assert u.min() >= 0 and v.min() >= 0
        assert np.all(u <= box_u + 1e-12)
        assert np.all(v <= box_v + 1e-12)


class TestImplicitSolve:
    @pytest.mark.parametrize("per_patch", [100, 1300])  # 201 and 2,601 reduced DOFs
    def test_step_matches_dense_solve(self, unit_two_patch, per_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=per_patch)
        stepper = Stepper(land, env, resident, mutant, grid, SimConfig())
        rng = np.random.default_rng(5)
        u, v = (rng.uniform(0.0, 1.5, grid.num_reduced) for _ in range(2))
        dt = stepper.dt
        f_u, f_v = stepper.reaction(u, v)
        u_new, v_new, _ = stepper.step(u, v)
        for op, w, f, got in (
            (stepper.op_u, u, f_u, u_new), (stepper.op_v, v, f_v, v_new)
        ):
            rhs = np.maximum(w + dt * f, 0.0)
            ref = np.linalg.solve(np.eye(op.size) - dt * op.dense(), rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestReducedReaction:
    @given(
        patches=st.lists(
            st.tuples(  # length, d, p_u, p_v (the last patch's p unused), r, k
                st.floats(0.5, 2.0), st.floats(0.1, 10.0), st.floats(0.2, 5.0),
                st.floats(0.2, 5.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
            ),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_full_dof_restriction(self, patches, seed):
        length, d, p_u, p_v, r, k = (np.array(col) for col in zip(*patches))
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        env = pc.PatchEnvironment(r=r, k=k)
        resident = pc.SpeciesTraits(d, pc.StrategyVector(p_u[:-1]))
        mutant = pc.SpeciesTraits(d[::-1], pc.StrategyVector(p_v[:-1]))
        grid = pc.build_grid(land, per_patch=9)
        stepper = Stepper(land, env, resident, mutant, grid, SimConfig())
        rng = np.random.default_rng(seed)
        u, v = (rng.uniform(0.0, 2.0, grid.num_reduced) for _ in range(2))

        # reference: the reaction on the full DOFs, restricted back
        u_full = expand_reduced(grid, resident, u)
        v_full = expand_reduced(grid, mutant, v)
        patch_of = grid.patch_index_of_dofs()
        r_full, k_full = r[patch_of], k[patch_of]
        crowd = r_full * (1.0 - (u_full + v_full) / k_full)
        ref_u = restrict_cell_average(grid, resident, u_full * crowd)
        ref_v = restrict_cell_average(grid, mutant, v_full * crowd)
        # the size of the summands bounds the rounding of either route
        bound = r_full * (1.0 + (u_full + v_full) / k_full)
        scale_u = (u_full * bound).max()
        scale_v = (v_full * bound).max()

        f_u, f_v = stepper.reaction(u, v)
        assert np.abs(f_u - ref_u).max() <= 1e-14 * scale_u
        assert np.abs(f_v - ref_v).max() <= 1e-14 * scale_v

        res_u, res_v = stepper.steady_residuals(u, v)
        for res, op, w, ref, scale in (
            (res_u, stepper.op_u, u, ref_u, scale_u), (res_v, stepper.op_v, v, ref_v, scale_v)
        ):
            diffusion = op.matvec(w)
            ref_res = np.abs(diffusion + ref).max()
            assert abs(res - ref_res) <= 1e-14 * (scale + np.abs(diffusion).max())


def expand_based_order_check(state_a, state_b, stepper, steps):
    """The order-preservation harness on expanded full-DOF fields."""
    grid = stepper.grid
    tol = 1e-10 * stepper.env.k_array.max()
    (ua, va), (ub, vb) = state_a, state_b

    def violation(ua, va, ub, vb):
        ua_f = expand_reduced(grid, stepper.resident, ua)
        ub_f = expand_reduced(grid, stepper.resident, ub)
        va_f = expand_reduced(grid, stepper.mutant, va)
        vb_f = expand_reduced(grid, stepper.mutant, vb)
        return max(float((ub_f - ua_f).max()), float((va_f - vb_f).max()))

    assert violation(ua, va, ub, vb) <= tol
    worst, first = 0.0, None
    for s in range(1, steps + 1):
        ua, va, _ = stepper.step(ua, va)
        ub, vb, _ = stepper.step(ub, vb)
        gap = violation(ua, va, ub, vb)
        worst = max(worst, gap)
        if gap > tol and first is None:
            first = s
    return first is None, worst, first


class TestOrderPreservation:
    def test_identical_states_stay_ordered(self, competition_pair):
        *_, grid, stepper = competition_pair
        state = (np.full(grid.num_reduced, 0.5), np.full(grid.num_reduced, 0.25))
        ok, worst, first = order_preservation_check(state, state, stepper, 50)
        assert ok and first is None

    def test_box_dominates_everything(self, competition_pair):
        land, env, resident, mutant, grid, stepper = competition_pair
        rng = np.random.default_rng(1)
        ub = rng.uniform(0, 1.0, grid.num_reduced)
        vb = rng.uniform(0, 1.0, grid.num_reduced)
        level = bounding_level(grid, resident, env, ub)
        box = level * consistent_constant(grid, resident)
        ok, worst, _ = order_preservation_check(
            (box, np.zeros(grid.num_reduced)), (ub, vb), stepper, 300
        )
        assert ok, f"violation {worst}"

    def test_matches_expand_based_check(self, competition_pair):
        # p = 3 / 1.5: the eliminated right traces carry the largest gaps
        *_, grid, stepper = competition_pair
        rng = np.random.default_rng(4)
        tr = grid.reduced_trace_indices()
        ub = rng.uniform(0, 1.5, grid.num_reduced)
        ua = ub + rng.uniform(0, 1.5, grid.num_reduced)
        va = rng.uniform(0, 1.5, grid.num_reduced)
        vb = va + rng.uniform(0, 1.5, grid.num_reduced)
        # disordered below the tolerance, on the traces only: the gap seen
        # is p times the reduced one
        ud, vd = ub.copy(), vb.copy()
        ud[tr] -= 1e-11
        vd[tr] += 1e-11
        for state_a, state_b in (((ua, va), (ub, vb)), ((ud, vd), (ub, vb))):
            got = order_preservation_check(state_a, state_b, stepper, 30)
            assert got == expand_based_order_check(state_a, state_b, stepper, 30)
        assert got[1] > 0.0

    def test_wrong_length_rejected(self, competition_pair):
        *_, grid, stepper = competition_pair
        short = np.zeros(grid.num_reduced - 1)
        with pytest.raises(pc.ValidationError, match="wrong length"):
            order_preservation_check((short, short), (short, short), stepper, 5)

    def test_unordered_initial_rejected(self, competition_pair):
        *_, grid, stepper = competition_pair
        a = (np.zeros(grid.num_reduced), np.zeros(grid.num_reduced))
        b = (np.ones(grid.num_reduced), np.zeros(grid.num_reduced))
        with pytest.raises(pc.ValidationError, match="not ordered"):
            order_preservation_check(a, b, stepper, 5)

    def test_randomized_pairs_preserve_order(self, competition_pair):
        *_, grid, stepper = competition_pair
        rng = np.random.default_rng(11)
        tol = 1e-10 * 2.0
        for _ in range(10):
            ub = rng.uniform(0, 1.5, grid.num_reduced)
            ua = ub + rng.uniform(0, 1.5, grid.num_reduced)
            va = rng.uniform(0, 1.5, grid.num_reduced)
            vb = va + rng.uniform(0, 1.5, grid.num_reduced)
            ok, worst, _ = order_preservation_check((ua, va), (ub, vb), stepper, 200)
            assert ok, f"violation {worst} > {tol}"


class TestSimulateAndClassify:
    def test_single_species_subsystem_matches_steady_solver(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=40)
        u0, _ = default_initial(grid, env)
        record = pc.simulate(
            land, env, resident, mutant, grid,
            initial=(u0, np.zeros(grid.num_reduced)),
        )
        assert record.verdict == "ResidentWins"
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        assert np.abs(record.u_final.values - ustar.values).max() <= 10 * 1e-8 * 2.0

    @pytest.mark.parametrize(
        "field,value",
        [("dt", float("nan")), ("dt", True), ("dt", 0.0), ("t_max", float("inf")),
         ("t_max", None), ("steady_tol", True), ("steady_tol", -1e-8),
         ("extinction_eps", float("nan")), ("check_interval", 2.5),
         ("snapshot_stride", 0)],
    )
    def test_config_fields_are_checked_when_built_in_python(self, field, value):
        with pytest.raises(pc.ValidationError, match=f"sim\\.{field}: must be"):
            SimConfig(**{field: value})

    def test_exact_semi_trivial_states_classify(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=40)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        vstar = pc.solve_resident_steady(land, env, mutant, grid)
        zero = pc.PiecewiseField(grid, np.zeros(grid.num_dofs))
        cfg = SimConfig()
        assert (
            pc.classify_outcome(ustar, zero, ustar, vstar, env, cfg, 0.0)
            == "ResidentWins"
        )
        assert (
            pc.classify_outcome(zero, vstar, ustar, vstar, env, cfg, 0.0)
            == "MutantWins"
        )

    def test_opposite_side_pair_coexists(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=40)
        record = pc.simulate(land, env, resident, mutant, grid)
        assert record.verdict == "Coexistence"
        assert record.u_final.min() > 0 and record.v_final.min() > 0
        assert "note" in record.diagnostics
        # equal diffusion on opposite sides settles on the flat split profile
        k_dof = env.k_array[grid.patch_index_of_dofs()]
        total = record.u_final.values + record.v_final.values
        assert np.abs(total - k_dof).max() <= 1e-5

    def test_vanishing_species_is_not_coexistence(self):
        # region S2: the mutant's lambda1 at u* is -0.0039, so it decays
        # slowly; near t = 3,270 its absolute steady residual (about
        # |lambda1| v) is under steady_tol while v is still above the
        # extinction threshold.  Relative to v's own size it is not.
        land = pc.Landscape([0.0, 1.0965, 2.2316, 2.9347])
        env = pc.PatchEnvironment(r=[0.8088, 0.8375, 1.1493], k=[0.6902, 1.0528, 0.8506])
        kbar = np.array(pc.ifd_strategy(env).values)
        resident = pc.SpeciesTraits(
            [1.688, 0.667, 1.657], pc.StrategyVector(kbar * np.exp([-0.505, -0.303]))
        )
        mutant = pc.SpeciesTraits(
            [1.848, 0.819, 2.037], pc.StrategyVector(kbar * np.exp([-0.512, -0.305]))
        )
        prediction = pc.predict_outcome(resident.jump, mutant.jump, resident.d, mutant.d, env)
        assert prediction.global_verdict == "ResidentWins"
        grid = pc.build_grid(land, per_patch=40)
        record = pc.simulate(land, env, resident, mutant, grid, SimConfig(dt=0.1, t_max=5000.0))
        assert record.verdict == "ResidentWins"
        assert record.converged

    def test_negative_initial_rejected(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=20)
        bad = -np.ones(grid.num_reduced)
        with pytest.raises(pc.ValidationError):
            pc.simulate(land, env, resident, mutant, grid, initial=(bad, bad))

    def test_snapshots_recorded(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=20)
        cfg = SimConfig(t_max=1.0, snapshot_stride=20)
        record = pc.simulate(land, env, resident, mutant, grid, cfg)
        snaps = record.diagnostics["snapshots"]
        assert len(snaps) == 5
        assert snaps[0][0] == pytest.approx(0.2)

    def test_verdict_stable_under_dt_halving(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.3]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([0.7]))
        grid = pc.build_grid(land, per_patch=30)
        verdicts = set()
        for dt in (0.02, 0.01):
            record = pc.simulate(land, env, resident, mutant, grid, SimConfig(dt=dt))
            verdicts.add(record.verdict)
        assert verdicts == {"ResidentWins"}


class TestPairSteadyResidual:
    def test_equals_stepper_residuals_without_factoring(self, unit_two_patch, monkeypatch):
        # the states of the coexistence-identity tests: a semi-trivial pair,
        # and a pair far from steady
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        vstar = pc.solve_resident_steady(land, env, mutant, grid)
        zero = pc.PiecewiseField(grid, np.zeros(grid.num_dofs))
        k_dof = env.k_array[grid.patch_index_of_dofs()]
        states = [
            (zero, vstar),
            (pc.PiecewiseField(grid, 0.9 * k_dof), pc.PiecewiseField(grid, 0.8 * k_dof)),
        ]
        stepper = Stepper(land, env, resident, mutant, grid)
        want = [
            max(stepper.steady_residuals(restrict_values(grid, u.values),
                                         restrict_values(grid, v.values)))
            for u, v in states
        ]

        def no_factoring(*args):
            raise AssertionError("the residual must not factor anything")

        monkeypatch.setattr(LinearOperator, "factor_symmetric", no_factoring)
        monkeypatch.setattr(LinearOperator, "factor_shifted", no_factoring)
        got = [pair_steady_residual(land, env, resident, mutant, grid, u, v) for u, v in states]
        assert got == want
