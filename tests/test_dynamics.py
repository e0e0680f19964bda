from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcomp as pc
import patchcomp.dynamics
import patchcomp.steady
from patchcomp import operators
from patchcomp.config import RunConfig
from patchcomp.dynamics import (
    SimConfig,
    Stepper,
    bounding_level,
    default_initial,
    order_preservation_check,
    pair_steady_residual,
)
from patchcomp.operators import (
    SpeciesLayout,
    SymmetrizedFactor,
    assemble_diffusion,
    consistent_constant,
    expand_reduced,
    factor_symmetrized,
    restrict_cell_average,
    restrict_values,
    symmetrizing_similarity,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def competition_pair(unit_two_patch):
    land, env = unit_two_patch
    resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
    mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
    grid = pc.build_grid(land, per_patch=40)
    stepper = Stepper(land, env, resident, mutant, grid, SimConfig())
    return land, env, resident, mutant, grid, stepper


def species_operators(stepper) -> list:
    """Each species' own diffusion operator, assembled apart from the stepper."""
    return [assemble_diffusion(stepper.grid, one) for one in (stepper.resident, stepper.mutant)]


class TestStep:
    def test_extinction_state_invariant(self, competition_pair):
        *_, grid, stepper = competition_pair
        w, clipped = stepper.step(np.zeros((2, grid.num_reduced)))
        assert np.all(w == 0) and clipped == 0

    def test_single_species_capacity_fixed_point(self):
        land = pc.Landscape([0.0, 1.0])
        env = pc.PatchEnvironment(r=[1.0], k=[2.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=20)
        stepper = Stepper(land, env, traits, traits, grid, SimConfig())
        w = np.zeros((2, grid.num_reduced))
        w[0] = 2.0
        for _ in range(10):
            w, _ = stepper.step(w)
        assert np.abs(w[0] - 2.0).max() <= 1e-13

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
        w0 = np.array([u0, u0 / 0.4 * 0.6])
        w = w0.copy()
        for _ in range(20):
            w, _ = stepper.step(w)
        assert np.abs(w - w0).max() <= 1e-12

    def test_nonnegativity_and_box(self, competition_pair):
        land, env, resident, mutant, grid, stepper = competition_pair
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 2.0, (2, grid.num_reduced))
        box = np.array([
            bounding_level(grid, one, env, x) * consistent_constant(grid, one)
            for one, x in zip((resident, mutant), w)
        ])
        for _ in range(500):
            w, _ = stepper.step(w)
            assert w.min() >= 0
        assert np.all(w <= box + 1e-12)


class TestImplicitSolve:
    @pytest.mark.parametrize("per_patch", [100, 1300])  # 201 and 2,601 reduced DOFs
    def test_step_matches_dense_solve(self, unit_two_patch, per_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=per_patch)
        stepper = Stepper(land, env, resident, mutant, grid, SimConfig())
        rng = np.random.default_rng(5)
        w = rng.uniform(0.0, 1.5, (2, grid.num_reduced))
        dt = stepper.dt
        f = stepper.reaction(w)
        w_new, _ = stepper.step(w)
        for op, x, fx, got in zip(species_operators(stepper), w, f, w_new):
            rhs = np.maximum(x + dt * fx, 0.0)
            ref = np.linalg.solve(np.eye(op.size) - dt * op.dense(), rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# one patch: length, d, p_u, p_v (the last patch's p unused), r, k
PATCH = st.tuples(
    st.floats(0.5, 2.0), st.floats(0.1, 10.0), st.floats(0.2, 5.0),
    st.floats(0.2, 5.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
)
PATCHES = st.lists(PATCH, min_size=2, max_size=6)


def random_stepper(patches, per_patch: int = 9) -> Stepper:
    """The stepper of a ``PATCHES`` draw at the default dt."""
    length, d, p_u, p_v, r, k = (np.array(col) for col in zip(*patches))
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
    env = pc.PatchEnvironment(r=r, k=k)
    resident = pc.SpeciesTraits(d, pc.StrategyVector(p_u[:-1]))
    mutant = pc.SpeciesTraits(d[::-1], pc.StrategyVector(p_v[:-1]))
    grid = pc.build_grid(land, per_patch=per_patch)
    return Stepper(land, env, resident, mutant, grid, SimConfig())


class TestCoefficientStep:
    @given(
        patches=PATCHES,
        rows=st.integers(1, 4),
        top=st.sampled_from([2.0, 500.0]),  # 500: the crowding clips
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_rows_equal_single_steps(self, patches, rows, top, seed):
        stepper = random_stepper(patches)
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, top, (rows, 2, stepper.grid.num_reduced))
        got, clipped = stepper.step(w)
        assert got.shape == w.shape
        singles = [stepper.step(w[b]) for b in range(rows)]
        for b, (one, _) in enumerate(singles):
            assert np.array_equal(got[b], one)
        assert clipped == pytest.approx(sum(one[1] for one in singles), rel=1e-12, abs=0.0)

    @given(
        patches=PATCHES,
        rows=st.sampled_from([None, 1, 3]),  # None: one (2, N) state
        top=st.sampled_from([2.0, 500.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_species_route(self, patches, rows, top, seed):
        # the reference builds each species on its own: its operator, its
        # layout's coefficients, similarity and LDLᵀ, one solve per species
        # of its rows; the stack must match it bit for bit
        stepper = random_stepper(patches)
        grid, env, dt = stepper.grid, stepper.env, stepper.dt
        rng = np.random.default_rng(seed)
        shape = (2, grid.num_reduced) if rows is None else (rows, 2, grid.num_reduced)
        w = rng.uniform(0.0, top, shape)
        species = (stepper.resident, stepper.mutant)
        layouts = [SpeciesLayout(grid, one) for one in species]
        want, want_res, want_clipped = [], [], 0.0
        for k, (one, layout) in enumerate(zip(species, layouts)):
            op = assemble_diffusion(grid, one, layout)
            a, b = layout.logistic_coefficients(env, layout.p)
            c = layout.logistic_coefficients(env, layouts[1 - k].p)[1]
            own, other = w[..., k, :], w[..., 1 - k, :]
            diffusion = np.array([op.matvec(x) for x in own.reshape(-1, grid.num_reduced)])
            reaction = own * (a - (b * own + c * other))
            want_res.append(float(np.abs(diffusion.reshape(own.shape) + reaction).max()))
            s, _, off = symmetrizing_similarity(op.lo, op.up)
            s_dt = s * dt
            rhs = own * ((s + s_dt * a) - ((s_dt * b) * own + (s_dt * c) * other))
            if rhs.min() < 0:
                want_clipped -= float((np.minimum(rhs, 0.0) / s).sum())
                rhs = np.maximum(rhs, 0.0)
            want.append(factor_symmetrized(op.di, off, 1.0, dt)(rhs) / s)

        assert stepper.steady_residuals(w) == tuple(want_res)
        got, clipped = stepper.step(w)
        for k in range(2):
            assert np.array_equal(got[..., k, :], want[k])
        if rows is None:
            assert clipped == want_clipped
        else:  # the stack sums each species' rows in another order
            assert clipped == pytest.approx(want_clipped, rel=1e-12, abs=0.0)

    @given(patches=PATCHES, top=st.sampled_from([2.0, 500.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solve_of_clipped_rhs(self, patches, top, seed):
        stepper = random_stepper(patches)
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, top, (2, stepper.grid.num_reduced))
        dt = stepper.dt
        f = stepper.reaction(w)
        w_new, clipped = stepper.step(w)
        want_clipped = 0.0
        for op, x, fx, got in zip(species_operators(stepper), w, f, w_new):
            rhs = x + dt * fx
            want_clipped -= np.minimum(rhs, 0.0).sum()
            ref = np.linalg.solve(np.eye(op.size) - dt * op.dense(), np.maximum(rhs, 0.0))
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert clipped == pytest.approx(want_clipped, rel=1e-12, abs=1e-12 * top)

    def test_negative_rhs_is_clipped_and_counted(self, competition_pair):
        *_, grid, stepper = competition_pair
        w = np.full((2, grid.num_reduced), 0.5)
        w[1, 10:20] = 500.0  # crowds u's right-hand side below zero there
        rhs = w + stepper.dt * stepper.reaction(w)
        assert rhs[0].min() < 0
        want = -np.minimum(rhs[0], 0.0).sum() - np.minimum(rhs[1], 0.0).sum()
        w_new, clipped = stepper.step(w)
        assert clipped == pytest.approx(want, rel=1e-13)
        assert w_new.min() >= 0

    @pytest.mark.parametrize("species", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises(self, competition_pair, species, bad):
        *_, grid, stepper = competition_pair
        state = np.full((2, 2, grid.num_reduced), 0.5)
        state[1, species, 7] = bad
        with pytest.raises(ValueError, match="not finite"):
            stepper.step(state)

    def test_infinite_rhs_from_finite_state_raises(self, competition_pair):
        # in patch 2, off the traces, v's similarity scale s is sqrt(2) times
        # u's (p = 1.5 vs 3; s is proportional to sqrt(weights) and s[0] = 1
        # for both species).  With u = -1.05 x and v = x there, v's scaled
        # right-hand side is about 0.05 s_v dt (r / k) x² = 2e308, +inf, while
        # u's is about -1.05 / sqrt(2) of that and finite: no entry is NaN or
        # -inf, so only the test on the maximum sees it
        *_, grid, stepper = competition_pair
        w = np.full((2, grid.num_reduced), 0.5)
        i = grid.num_reduced - 10
        op_v = species_operators(stepper)[1]
        s_v = symmetrizing_similarity(op_v.lo, op_v.up)[0][i]
        x = 1e154 * np.sqrt(2.0 / (0.05 * s_v * stepper.dt * 0.5))
        w[:, i] = -1.05 * x, x
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            stepper.step(w)

    def test_factors_once_on_first_step(self, competition_pair, monkeypatch):
        *_, grid, stepper = competition_pair
        calls = []
        factor = patchcomp.dynamics.factor_symmetrized

        def counted(di, *args):
            calls.append(di)
            return factor(di, *args)

        monkeypatch.setattr(patchcomp.dynamics, "factor_symmetrized", counted)
        w = np.array(default_initial(grid, stepper.env))
        stepper.reaction(w)
        stepper.steady_residuals(w)
        assert calls == []
        for _ in range(3):
            w, _ = stepper.step(w)
        # one factorisation, of the two species' stack
        assert len(calls) == 1
        assert np.array_equal(calls[0], [op.di for op in species_operators(stepper)])


class TestFusedStep:
    """``Stepper.step`` in one kernel call (``SymmetrizedFactor.pair_step``)
    gives the numbers, the clipped mass and the errors of the numpy route,
    which forms the right-hand side with numpy and solves it on LAPACK
    (``operators._ldlt`` None); where the right-hand side must be clipped or
    is not finite, or the state is not C-contiguous, the kernel declines and
    the step runs the numpy route itself."""

    @given(
        patches=st.lists(PATCH, min_size=1, max_size=6),
        runs=st.sampled_from([None, 1, 2, 3, 5]),  # None: one (2, N) state
        top=st.sampled_from([2.0, 500.0]),  # 500: the crowding clips
        bad=st.sampled_from([None, np.nan, np.inf]),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_numpy_route(self, ldlt_kernel, patches, runs, top, bad, layout, seed):
        fused = random_stepper(patches)
        size = fused.grid.num_reduced
        rng = np.random.default_rng(seed)
        shape = (2, size) if runs is None else (runs, 2, size)
        w = rng.uniform(0.0, top, shape)
        if bad is not None:
            w.flat[rng.integers(w.size)] = bad
        if layout == "F":
            w = np.asfortranarray(w)
        elif layout == "strided":
            w = np.repeat(w, 2, axis=-1)[..., ::2]
        kept = w.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_ldlt", None)
            numpy_route = random_stepper(patches)
            want = _step_or_error(numpy_route, w)
        taken = []
        pair_step = SymmetrizedFactor.pair_step

        def spy(self, coefficients, state):
            out = pair_step(self, coefficients, state)
            taken.append(out is not None)
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SymmetrizedFactor, "pair_step", spy)
            got = _step_or_error(fused, w)
        assert np.array_equal(w, kept, equal_nan=True)
        if isinstance(want, str):
            assert got == want
            assert taken == [False]
            return
        (got_w, got_clipped), (want_w, want_clipped) = got, want
        assert got_w.shape == shape
        assert np.array_equal(got_w, want_w)
        assert got_clipped == want_clipped
        assert taken == [layout == "C" and want_clipped == 0.0]


def _step_or_error(stepper, w):
    """``stepper.step(w)``, or the message of the ValueError it raises."""
    try:
        return stepper.step(w)
    except ValueError as error:
        return str(error)


class TestReducedReaction:
    @given(patches=PATCHES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_dof_restriction(self, patches, seed):
        stepper = random_stepper(patches)
        env, grid = stepper.env, stepper.grid
        resident, mutant = stepper.resident, stepper.mutant
        r, k = env.r_array, env.k_array
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 2.0, (2, grid.num_reduced))

        # reference: the reaction on the full DOFs, restricted back
        u_full = expand_reduced(grid, resident, w[0])
        v_full = expand_reduced(grid, mutant, w[1])
        patch_of = grid.patch_index_of_dofs()
        r_full, k_full = r[patch_of], k[patch_of]
        crowd = r_full * (1.0 - (u_full + v_full) / k_full)
        ref_u = restrict_cell_average(grid, resident, u_full * crowd)
        ref_v = restrict_cell_average(grid, mutant, v_full * crowd)
        # the size of the summands bounds the rounding of either route
        bound = r_full * (1.0 + (u_full + v_full) / k_full)
        scale_u = (u_full * bound).max()
        scale_v = (v_full * bound).max()

        f_u, f_v = stepper.reaction(w)
        assert np.abs(f_u - ref_u).max() <= 1e-14 * scale_u
        assert np.abs(f_v - ref_v).max() <= 1e-14 * scale_v

        residuals = stepper.steady_residuals(w)
        for res, op, x, ref, scale in zip(
            residuals, species_operators(stepper), w, (ref_u, ref_v), (scale_u, scale_v)
        ):
            diffusion = op.matvec(x)
            ref_res = np.abs(diffusion + ref).max()
            assert abs(res - ref_res) <= 1e-14 * (scale + np.abs(diffusion).max())


def expand_based_order_check(state_a, state_b, stepper, steps):
    """The order-preservation harness on expanded full-DOF fields, each state
    marched on its own."""
    grid = stepper.grid
    tol = 1e-10 * stepper.env.k_array.max()
    wa, wb = np.array(state_a, dtype=float), np.array(state_b, dtype=float)

    def violation(wa, wb):
        ua_f = expand_reduced(grid, stepper.resident, wa[0])
        ub_f = expand_reduced(grid, stepper.resident, wb[0])
        va_f = expand_reduced(grid, stepper.mutant, wa[1])
        vb_f = expand_reduced(grid, stepper.mutant, wb[1])
        return max(float((ub_f - ua_f).max()), float((va_f - vb_f).max()))

    assert violation(wa, wb) <= tol
    worst, first = 0.0, None
    for s in range(1, steps + 1):
        wa, _ = stepper.step(wa)
        wb, _ = stepper.step(wb)
        gap = violation(wa, wb)
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

    @pytest.mark.parametrize("steps", [-1, 0])
    def test_no_steps_rejected(self, competition_pair, steps):
        # a march of no steps is no evidence that the order is preserved
        *_, grid, stepper = competition_pair
        state = (np.full(grid.num_reduced, 0.5), np.full(grid.num_reduced, 0.25))
        with pytest.raises(pc.ValidationError, match="steps"):
            order_preservation_check(state, state, stepper, steps)

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

    @pytest.mark.parametrize("species", [0, 1])
    def test_wrong_length_initial_rejected(self, unit_two_patch, species):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=20)
        initial = [np.ones(grid.num_reduced), np.ones(grid.num_reduced)]
        initial[species] = np.ones(grid.num_reduced + 1)
        with pytest.raises(pc.ValidationError, match="length"):
            pc.simulate(land, env, resident, mutant, grid, initial=tuple(initial))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_rejected(self, unit_two_patch, bad):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=20)
        u = np.ones(grid.num_reduced)
        v = np.ones(grid.num_reduced)
        v[3] = bad
        with pytest.raises(pc.ValidationError, match="finite"):
            pc.simulate(land, env, resident, mutant, grid, initial=(u, v))

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

    @pytest.mark.parametrize("row", [
        "below_resident_wins", "above_resident_wins", "below_mutant_wins", "above_mutant_wins",
    ])
    def test_loser_decays_at_its_invasion_rate(self, row):
        # near the winner's steady state the loser's equation is linear, so
        # the stepper's tail rate is the principal eigenvalue of the loser's
        # linearization there: the march and the eigen solver agree
        cfg = RunConfig.load(str(CONFIG_DIR / f"{row}.json"))
        land, env = cfg.landscape, cfg.environment
        grid = pc.build_grid(land, per_patch=20)
        record = pc.simulate(land, env, cfg.resident, cfg.mutant, grid,
                             SimConfig(dt=0.1, snapshot_stride=10))
        resident_wins = row.endswith("resident_wins")
        assert record.verdict == ("ResidentWins" if resident_wins else "MutantWins")
        winner, loser = (cfg.resident, cfg.mutant) if resident_wins else (cfg.mutant, cfg.resident)
        snapshots = record.diagnostics["snapshots"]
        times = np.array([t for t, *_ in snapshots])
        sup = np.array([(v if resident_wins else u).max() for _, u, v in snapshots])
        # the tail: the loser between 1e-3 and 1e-5 of the capacity
        tail = (sup <= 1e-3 * env.k_array.max()) & (sup >= 1e-5 * env.k_array.max())
        assert np.count_nonzero(tail) >= 20
        rate = np.polyfit(times[tail], np.log(sup[tail]), 1)[0]
        lam = pc.invasion_fitness(land, env, winner, loser, grid).lambda1
        assert lam < 0
        assert rate == pytest.approx(lam, rel=0.05)


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
            max(stepper.steady_residuals(
                np.array([restrict_values(grid, u.values), restrict_values(grid, v.values)])
            ))
            for u, v in states
        ]

        def no_factoring(*args):
            raise AssertionError("the residual must not factor anything")

        monkeypatch.setattr(patchcomp.dynamics, "factor_symmetrized", no_factoring)
        monkeypatch.setattr(patchcomp.steady, "factor_symmetrized", no_factoring)
        got = [pair_steady_residual(land, env, resident, mutant, grid, u, v) for u, v in states]
        assert got == want
