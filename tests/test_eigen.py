import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

import patchcomp as pc
import patchcomp.eigen
from patchcomp.eigen import (
    MutantStack,
    ResidentContext,
    assemble_linearization,
    growth_potential,
)
from patchcomp.identities import (
    coexistence_identity_residuals,
    invasion_identity_residual,
)
from patchcomp.operators import (
    LinearOperator,
    assemble_diffusion,
    consistent_constant,
    expand_reduced,
    symmetrizing_similarity,
)

# 2-6 patches: length, d, p (the last patch's p is unused), r, k
PATCHES = st.lists(
    st.tuples(
        st.floats(0.5, 2.0), st.floats(0.1, 10.0), st.floats(0.2, 5.0),
        st.floats(0.5, 2.0), st.floats(0.5, 2.0),
    ),
    min_size=2,
    max_size=6,
)


def drawn_species(patches, rng, count):
    """The landscape, environment and ``count`` species drawn around the
    patches' ``d`` and ``p``."""
    length, d, p, r, k = (np.array(col) for col in zip(*patches))
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
    species = [
        pc.SpeciesTraits(d * rng.uniform(0.5, 2.0, d.size),
                         pc.StrategyVector(p[:-1] * rng.uniform(0.5, 2.0, p.size - 1)))
        for _ in range(count)
    ]
    return land, pc.PatchEnvironment(r, k), species


def extended_rayleigh_quotient(di, off, y):
    """Rayleigh quotient of a symmetric tridiagonal matrix in long double."""
    y = y.astype(np.longdouble)
    ty = di * y
    ty[:-1] += off * y[1:]
    ty[1:] += off * y[:-1]
    return float(y @ ty / (y @ y))


def reference_eigenpair(op, tol=1e-13, max_iters=2000):
    """Noda's iteration on one operator, one pass at a time, each shifted
    solve by LDLᵀ on the symmetric similarity S A S⁻¹: the loop the stacked
    solve must equal, built here on its own."""
    if (op.up[:-1] <= 0).any() or (op.lo[1:] <= 0).any():
        raise pc.EigenSolveError("refine grid")
    s = np.concatenate(([1.0], np.cumprod(np.sqrt(op.up[:-1] / op.lo[1:]))))
    off = np.sqrt(op.lo[1:] * op.up[:-1])
    weights = s * s
    scale = max(1.0, float(np.abs(op.di).max()), float(np.abs(op.up).max()),
                float(np.abs(op.lo).max()))
    margin = 8.0 * np.finfo(float).eps * scale
    x = consistent_constant(op.grid, op.traits)
    x /= x.max()
    iterations = 0
    while True:
        ax = op.matvec(x)
        wx = weights * x
        # the two sums in numpy's pairwise order, as both routes take them
        theta = float(np.add.reduce(wx * ax) / np.add.reduce(wx * x))
        res = float(np.abs(ax - theta * x).max())
        if res <= max(tol * max(1.0, abs(theta)), 5e-15 * scale):
            break
        if iterations == max_iters:
            raise pc.EigenSolveError("did not converge")
        sigma = float((ax / x).max()) + margin
        d, e, info = dpttrf(sigma - op.di, -off)
        if info:
            raise pc.EigenSolveError("refine grid")
        x = dpttrs(d, e, s * x)[0] / s
        x /= x[np.abs(x).argmax()]
        iterations += 1
        if x.min() <= 0:
            raise pc.EigenSolveError("refine grid")
    phi = expand_reduced(op.grid, op.traits, x)
    phi /= phi.max()
    return theta, phi, res, iterations


def assert_same_pair(pair, ref):
    theta, phi, res, iterations = ref
    assert pair.lambda1 == theta
    assert np.array_equal(pair.phi.values, phi)
    assert pair.residual == res
    assert pair.iterations == iterations


def fitness(land, env, p, p_hat, d=None, d_hat=None, n_sub=100, ustar=None):
    d = d if d is not None else [1.0, 1.0]
    d_hat = d_hat if d_hat is not None else d
    grid = pc.build_grid(land, per_patch=n_sub)
    resident = pc.SpeciesTraits(d, pc.StrategyVector([p]))
    mutant = pc.SpeciesTraits(d_hat, pc.StrategyVector([p_hat]))
    return pc.invasion_fitness(land, env, resident, mutant, grid, ustar=ustar)


class TestLinearizationAssembly:
    def test_zero_potential_equals_pure_diffusion(self):
        land = pc.Landscape([0.0, 1.0, 2.0])
        traits = pc.SpeciesTraits([1.0, 2.0], pc.StrategyVector([0.7]))
        grid = pc.build_grid(land, per_patch=12)
        a = assemble_linearization(grid, traits, 0.0)
        b = assemble_diffusion(grid, traits)
        assert np.array_equal(a.di, b.di)
        assert np.array_equal(a.up, b.up)

    def test_constant_potential_shifts_diagonal(self):
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=12)
        a = assemble_linearization(grid, traits, 0.4)
        b = assemble_diffusion(grid, traits)
        assert np.allclose(a.di - b.di, 0.4)

    def test_capacity_profile_resident_gives_zero_potential(self):
        land = pc.Landscape([0.0, 1.0, 2.0])
        env = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        grid = pc.build_grid(land, per_patch=24)
        ustar = pc.solve_resident_steady(land, env, traits, grid)
        potential = growth_potential(grid, env, ustar)
        assert np.abs(potential).max() <= 1e-12


class TestPrincipalEigenpair:
    def test_constant_potential_single_patch(self):
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=64)
        pair = pc.principal_eigenpair(assemble_linearization(grid, traits, 0.7))
        assert abs(pair.lambda1 - 0.7) <= 1e-12
        assert np.abs(pair.phi.values - 1.0).max() <= 1e-12

    def test_zero_potential_kernel_pair(self):
        land = pc.Landscape([0.0, 1.0, 2.0, 3.0])
        traits = pc.SpeciesTraits([1.0, 2.0, 0.5], pc.StrategyVector([2.0, 0.7]))
        grid = pc.build_grid(land, per_patch=30)
        pair = pc.principal_eigenpair(assemble_linearization(grid, traits, 0.0))
        assert abs(pair.lambda1) <= 1e-11
        profile = np.concatenate(
            [np.full(31, s) for s in traits.cumulative_scales()]
        )
        profile /= profile.max()
        assert np.abs(pair.phi.values - profile).max() <= 1e-10

    def test_positivity_and_normalization(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=60)
        pair = pc.invasion_fitness(land, env, resident, mutant, grid)
        assert pair.phi.min() > 0
        assert pair.phi.max() == pytest.approx(1.0)
        assert pair.phi.is_jump_consistent(mutant)

    def test_eigen_residual_within_budget(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=60)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        op = assemble_linearization(grid, mutant, growth_potential(grid, env, ustar))
        pair = pc.principal_eigenpair(op)
        h2_scale = float(np.abs(op.di).max()) * max(
            grid.spacing(i) ** 2 for i in range(grid.n)
        )
        assert pair.residual <= 1e-9 * (abs(pair.lambda1) + h2_scale)

    def test_dominance_against_dense_cross_check(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=90)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        op = assemble_linearization(grid, mutant, growth_potential(grid, env, ustar))
        pair = pc.principal_eigenpair(op)
        di, off = op.symmetrized_bands()
        dense = np.diag(di) + np.diag(off, 1) + np.diag(off, -1)
        spectrum = np.linalg.eigvalsh(dense)
        assert pair.lambda1 == pytest.approx(spectrum[-1], rel=1e-9, abs=1e-12)
        assert spectrum[-1] - spectrum[-2] > 0

    def test_sign_changing_top_mode_is_rejected(self):
        # negating the couplings keeps the weighted symmetry but makes the top
        # eigenvector oscillate, which the positivity gate must catch
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=16)
        op = assemble_diffusion(grid, traits)
        op.up = -op.up
        op.lo = -op.lo
        with pytest.raises(pc.EigenSolveError, match="refine grid"):
            pc.principal_eigenpair(op)

    def test_nonsymmetric_fallback_route(self):
        # an externally modified operator that breaks the weight structure
        # still resolves: its own couplings, not its weights, give the
        # symmetric similarity the shifted solves factor
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=24)
        op = assemble_linearization(grid, traits, 0.3)
        op.up = op.up * 1.08  # asymmetric perturbation
        assert op.symmetry_defect() > 1e-10
        pair = pc.principal_eigenpair(op)
        spectrum = np.linalg.eigvals(op.dense())
        top = np.max(spectrum.real)
        assert pair.lambda1 == pytest.approx(top, rel=1e-8)
        assert pair.phi.min() > 0

    def test_potential_shift_covariance(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=60)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        potential = growth_potential(grid, env, ustar)
        base = pc.principal_eigenpair(assemble_linearization(grid, mutant, potential))
        shifted = pc.principal_eigenpair(
            assemble_linearization(grid, mutant, potential + 0.43)
        )
        assert shifted.lambda1 - base.lambda1 == pytest.approx(0.43, abs=1e-10)
        assert np.abs(shifted.phi.values - base.phi.values).max() <= 1e-9


class TestNodaIteration:
    @given(
        patches=PATCHES,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_landscapes_match_dense_spectrum(self, patches, seed):
        length, d, p, r, k = (np.array(col) for col in zip(*patches))
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        traits = pc.SpeciesTraits(d, pc.StrategyVector(p[:-1]))
        grid = pc.build_grid(land, per_patch=12)
        rng = np.random.default_rng(seed)
        patch_of = grid.patch_index_of_dofs()
        potential = r[patch_of] * (1.0 - rng.uniform(0.0, 2.0, grid.num_dofs) / k[patch_of])
        op = assemble_linearization(grid, traits, potential)
        scale = float(np.abs(op.di).max())

        pair = pc.principal_eigenpair(op)
        di, off = op.symmetrized_bands()
        top = np.linalg.eigvalsh(np.diag(di) + np.diag(off, 1) + np.diag(off, -1))[-1]
        assert pair.lambda1 == pytest.approx(top, rel=1e-9, abs=1e-12 * scale)
        assert pair.phi.min() > 0
        assert pair.phi.is_jump_consistent(traits)

        op.up = op.up * rng.uniform(1.05, 1.3, op.size)  # breaks the weighted symmetry
        pair = pc.principal_eigenpair(op)
        top = np.linalg.eigvals(op.dense()).real.max()
        assert pair.lambda1 == pytest.approx(top, rel=1e-9, abs=1e-12 * scale)
        assert pair.phi.min() > 0

    @pytest.mark.parametrize("n_sub", [100, 1000, 4000])
    def test_reference_pair_against_bisection(self, two_patch, n_sub):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=n_sub)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        op = assemble_linearization(grid, mutant, growth_potential(grid, env, ustar))
        pair = pc.principal_eigenpair(op)

        di, off = op.symmetrized_bands()
        top = op.size - 1
        value, vector = eigh_tridiagonal(di, off, select="i", select_range=(top, top))
        # the bisection value is itself only good to eps * ||T||_1 (LAPACK
        # stebz at its default tolerance): 3.5e-9 at 4,000 per patch.  The
        # Rayleigh quotient of its vector in extended precision is not.
        norm = float(np.abs(di).max() + 2.0 * np.abs(off).max())
        assert abs(pair.lambda1 - value[0]) <= 1e-10 + np.finfo(float).eps * norm
        assert abs(pair.lambda1 - extended_rayleigh_quotient(di, off, vector[:, 0])) <= 1e-10

        assert pair.iterations <= 8
        # the budget of test_eigen_residual_within_budget, or the rounding
        # floor of a max-normalized residual where that is larger (from
        # 1,000 per patch on, as eps * |di| outgrows the h^2 term)
        h2_scale = float(np.abs(op.di).max()) * max(
            grid.spacing(i) ** 2 for i in range(grid.n)
        )
        budget = 1e-9 * (abs(pair.lambda1) + h2_scale)
        assert pair.residual <= max(budget, 5e-15 * float(np.abs(op.di).max()))

        op.up = op.up.copy()
        op.up[op.size // 2] = 0.0
        with pytest.raises(pc.EigenSolveError, match="refine grid"):
            pc.principal_eigenpair(op)

    def test_stops_at_the_rounding_floor(self, two_patch):
        # at 16,000 per patch the LDLᵀ solves take this pair's residual to
        # 1.4e-7 (about 2 eps * scale), under 5e-15 * scale = 1.7e-6, so the
        # ordinary stop ends the loop
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=16000)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        op = assemble_linearization(grid, mutant, growth_potential(grid, env, ustar))
        pair = pc.principal_eigenpair(op)
        scale = max(1.0, float(np.abs(np.concatenate((op.di, op.up, op.lo))).max()))
        assert pair.residual <= 5e-15 * scale
        assert pair.iterations <= 8

        di, off = op.symmetrized_bands()
        top = op.size - 1
        _, vector = eigh_tridiagonal(di, off, select="i", select_range=(top, top))
        assert abs(pair.lambda1 - extended_rayleigh_quotient(di, off, vector[:, 0])) <= 1e-10

    def test_loop_whose_residual_rises_converges(self):
        # on this four-patch landscape at 16,000 per patch the first solve
        # raises the residual (5.55e4 to 5.97e4 eps * scale), under
        # size * eps * scale: a stop on a residual that no longer falls would
        # end the loop there, at lambda 0.618.  The tolerance alone must carry
        # it on to the top eigenvalue, 0.6703 by bisection.
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum([1.82, 0.865, 0.813, 1.769]))))
        traits = pc.SpeciesTraits([1.492, 3.123, 1.471, 5.313],
                                  pc.StrategyVector([4.64, 2.765, 1.496]))
        r = np.array([1.926, 1.133, 0.891, 1.34])
        k = np.array([1.914, 1.827, 1.175, 0.81])
        grid = pc.build_grid(land, per_patch=16000)
        op = assemble_linearization(grid, traits, (r * (1.0 - 0.5 / k))[grid.patch_index_of_dofs()])
        pair = pc.principal_eigenpair(op)
        eps = np.finfo(float).eps
        scale = max(1.0, float(np.abs(np.concatenate((op.di, op.up, op.lo))).max()))
        assert pair.residual <= max(1e-13 * abs(pair.lambda1), 5e-15 * scale)
        assert pair.iterations <= 8
        di, off = op.symmetrized_bands()
        top = op.size - 1
        value = eigh_tridiagonal(di, off, eigvals_only=True, select="i",
                                 select_range=(top, top))
        assert abs(pair.lambda1 - value[0]) <= 10 * eps * scale


class TestStackedNoda:
    @given(
        patches=PATCHES,
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_block_equals_its_operator_alone(self, patches, blocks, seed):
        length, d, p, r, k = (np.array(col) for col in zip(*patches))
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        grid = pc.build_grid(land, per_patch=12)
        rng = np.random.default_rng(seed)
        patch_of = grid.patch_index_of_dofs()
        ops = []
        for _ in range(blocks):
            traits = pc.SpeciesTraits(
                d * rng.uniform(0.5, 2.0, d.size),
                pc.StrategyVector(p[:-1] * rng.uniform(0.5, 2.0, p.size - 1)),
            )
            potential = r[patch_of] * (1.0 - rng.uniform(0.0, 2.0, grid.num_dofs) / k[patch_of])
            ops.append(assemble_linearization(grid, traits, potential))
        asym = ops[0]
        up = asym.up * rng.uniform(1.05, 1.3, asym.size)  # breaks the weighted symmetry
        lo = asym.lo.copy()
        # entries outside the matrix, which no block may pass to its neighbour
        lo[0], up[-1] = rng.uniform(0.1, 1.0, 2)
        ops.append(LinearOperator(grid, asym.traits, lo, asym.di, up, asym.weights))
        # a constant potential: the start is already the eigenvector
        ops.append(assemble_linearization(grid, asym.traits, float(rng.uniform(-1.0, 1.0))))
        order = rng.permutation(len(ops))
        ops = [ops[i] for i in order]

        pairs = pc.principal_eigenpairs(ops)
        for op, pair in zip(ops, pairs):
            ref = reference_eigenpair(op)
            assert_same_pair(pair, ref)
            assert_same_pair(pc.principal_eigenpair(op), ref)
        assert pairs[list(order).index(len(ops) - 1)].iterations == 0

    @given(
        patches=PATCHES,
        asymmetric=st.lists(st.booleans(), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_asymmetric_blocks_match_dense_spectrum(self, patches, asymmetric, seed):
        # blocks that are not symmetric in their weights are scaled to a
        # symmetric matrix by their own couplings, not by the weights
        length, d, p, r, k = (np.array(col) for col in zip(*patches))
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        grid = pc.build_grid(land, per_patch=12)
        rng = np.random.default_rng(seed)
        patch_of = grid.patch_index_of_dofs()
        ops = []
        for skewed in asymmetric:
            traits = pc.SpeciesTraits(
                d * rng.uniform(0.5, 2.0, d.size),
                pc.StrategyVector(p[:-1] * rng.uniform(0.5, 2.0, p.size - 1)),
            )
            potential = r[patch_of] * (1.0 - rng.uniform(0.0, 2.0, grid.num_dofs) / k[patch_of])
            op = assemble_linearization(grid, traits, potential)
            if skewed:
                op.up = op.up * 1.08
                assert op.symmetry_defect() > 1e-10
            ops.append(op)

        for op, pair in zip(ops, pc.principal_eigenpairs(ops)):
            scale = float(np.abs(op.di).max())
            top = np.linalg.eigvals(op.dense()).real.max()
            assert pair.lambda1 == pytest.approx(top, rel=1e-8, abs=1e-12 * scale)
            assert pair.phi.min() > 0
            alone = pc.principal_eigenpair(op)
            assert_same_pair(pair, (alone.lambda1, alone.phi.values, alone.residual,
                                    alone.iterations))

    @pytest.mark.parametrize("band", ["up", "lo"])
    def test_similarity_out_of_range_fails_before_any_solve(self, band, monkeypatch):
        # couplings 10 times apart on every row: the diagonal similarity
        # grows (or shrinks) by sqrt(10) a row and leaves the floating-point
        # range within 700 rows
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=800)
        op = assemble_linearization(grid, traits, 0.3)
        setattr(op, band, getattr(op, band) * 10.0)
        calls = []
        monkeypatch.setattr(patchcomp.eigen, "noda_pass", lambda *a, **kw: calls.append(a))
        with pytest.raises(pc.EigenSolveError, match="symmetric"):
            pc.principal_eigenpairs([assemble_linearization(grid, traits, 0.1), op])
        assert calls == []

    def test_integer_bands_solve_as_float_ones(self):
        # operators built by hand may hold integer bands; the kernel takes
        # float64 only, so the stack is built as float64
        grid = pc.build_grid(pc.Landscape([0.0, 1.0]), per_patch=6)
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        n = grid.num_reduced
        bands = (np.r_[0, np.ones(n - 1, int)], np.full(n, -2), np.r_[np.ones(n - 1, int), 0])
        whole = LinearOperator(grid, traits, *bands, np.ones(n))
        real = LinearOperator(grid, traits, *(band.astype(float) for band in bands), np.ones(n))
        got, want = pc.principal_eigenpair(whole), pc.principal_eigenpair(real)
        assert_same_pair(got, (want.lambda1, want.phi.values, want.residual, want.iterations))

    def test_one_uncoupled_block_fails_the_call(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=40)
        ops = [assemble_linearization(grid, t, 0.2) for t in (resident, mutant, resident)]
        ops[1].up = ops[1].up.copy()
        ops[1].up[ops[1].size // 2] = 0.0
        with pytest.raises(pc.EigenSolveError, match="refine grid"):
            pc.principal_eigenpairs(ops)

    def test_non_finite_band_fails_before_any_solve(self, two_patch, monkeypatch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=40)
        op = assemble_diffusion(grid, mutant)
        poisoned = op.di.copy()
        poisoned[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LinearOperator(grid, mutant, op.lo, poisoned, op.up, op.weights)

        calls = []
        monkeypatch.setattr(patchcomp.eigen, "noda_pass", lambda *a, **kw: calls.append(a))
        ops = [assemble_linearization(grid, t, 0.2) for t in (resident, mutant, resident)]
        ops[2].di = poisoned  # set after construction, so only the stack sees it
        with pytest.raises(ValueError, match="finite"):
            pc.principal_eigenpairs(ops)
        context = ResidentContext(land, env, resident, grid)
        context.potential = context.potential.copy()
        context.potential[0, -1] = np.inf  # one DOF of the one resident's row
        with pytest.raises(ValueError, match="finite"):
            context.fitness(MutantStack.assemble(grid, [resident, mutant]))
        assert calls == []

    @pytest.mark.parametrize("per_patch", [100, 400])
    def test_resident_context_matches_per_pair_route(self, per_patch):
        land = pc.Landscape([0.0, 0.8, 1.9, 2.6])
        env = pc.PatchEnvironment(r=[1.2, 0.7, 1.5], k=[1.0, 2.2, 1.4])
        resident = pc.SpeciesTraits([1.0, 0.6, 1.4], pc.StrategyVector([2.4, 0.5]))
        grid = pc.build_grid(land, per_patch=per_patch)
        rng = np.random.default_rng(per_patch)
        mutants = [
            pc.SpeciesTraits(rng.uniform(0.3, 3.0, 3), pc.StrategyVector(rng.uniform(0.3, 4.0, 2)))
            for _ in range(12)
        ]
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        potential = growth_potential(grid, env, ustar)
        context = ResidentContext(land, env, resident, grid)
        stack = MutantStack.assemble(grid, mutants)
        pairs = context.fitness(stack)
        assert len(pairs) == len(mutants)
        for mutant, pair in zip(mutants, pairs):
            op = assemble_linearization(grid, mutant, potential)
            assert_same_pair(pair, reference_eigenpair(op))
        # sub-stacks, and stacks cut into solve-sized chunks, change nothing
        index = [7, 2, 11]
        chosen = MutantStack.assemble(grid, [mutants[j] for j in index])
        for j, pair in zip(index, context.fitness(chosen)):
            assert_same_pair(pair, reference_eigenpair(
                assemble_linearization(grid, mutants[j], potential)))
        chunked = [pair for s in MutantStack.chunks(grid, mutants) for pair in context.fitness(s)]
        assert [p.lambda1 for p in chunked] == [p.lambda1 for p in pairs]

    def test_resident_stack_matches_per_pair_route(self):
        land = pc.Landscape([0.0, 0.8, 1.9, 2.6])
        env = pc.PatchEnvironment(r=[1.2, 0.7, 1.5], k=[1.0, 2.2, 1.4])
        grid = pc.build_grid(land, per_patch=60)
        rng = np.random.default_rng(7)

        def draw(count):
            return [
                pc.SpeciesTraits(rng.uniform(0.3, 3.0, 3),
                                 pc.StrategyVector(rng.uniform(0.3, 4.0, 2)))
                for _ in range(count)
            ]

        residents, mutants = draw(3), draw(4)
        context = ResidentContext(land, env, residents, grid)
        stack = MutantStack.assemble(grid, mutants)
        potentials = [
            growth_potential(grid, env, pc.solve_resident_steady(land, env, r, grid))
            for r in residents
        ]
        assert np.array_equal(context.potential, np.array(potentials))
        # every pair, row-major; a masked table reads the same eigenvalues
        pairs = context.fitness(stack)
        assert len(pairs) == 12
        for (i, j), pair in zip(np.ndindex(3, 4), pairs):
            op = assemble_linearization(grid, mutants[j], potentials[i])
            assert_same_pair(pair, reference_eigenpair(op))
        mask = np.zeros((3, 4), bool)
        mask[[2, 0, 2], [1, 3, 0]] = True
        table = pc.fitness_table(land, env, grid, residents, mutants, solve=mask)
        expected = np.where(mask, np.reshape([p.lambda1 for p in pairs], (3, 4)), np.nan)
        assert np.array_equal(table, expected, equal_nan=True)

    def test_given_state_is_for_a_single_resident(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=20)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        context = ResidentContext(land, env, resident, grid, ustar=ustar)
        assert np.array_equal(context.potential, [growth_potential(grid, env, ustar)])
        with pytest.raises(pc.ValidationError, match="single resident"):
            ResidentContext(land, env, [resident, mutant], grid, ustar=ustar)

    def test_solves_in_chunks_of_bounded_size(self, two_patch, monkeypatch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=40)
        monkeypatch.setattr(patchcomp.operators, "_STACK_DOFS", 2 * grid.num_reduced)
        sizes = []
        one_pass = patchcomp.eigen.noda_pass

        def recording(bands, *args):
            sizes.append(bands[1].size // grid.num_reduced)
            return one_pass(bands, *args)

        monkeypatch.setattr(patchcomp.eigen, "noda_pass", recording)
        mutants = [
            pc.SpeciesTraits([0.6, 1.1], pc.StrategyVector([p])) for p in (1.2, 1.9, 2.6, 3.3, 4.0)
        ]
        context = ResidentContext(land, env, resident, grid)
        pairs = context.fitness(MutantStack.assemble(grid, mutants))
        assert max(sizes) == 2
        assert [len(s.di) for s in MutantStack.chunks(grid, mutants)] == [2, 2, 1]
        for mutant, pair in zip(mutants, pairs):
            assert pair.lambda1 == pc.invasion_fitness(land, env, resident, mutant, grid).lambda1


    @given(patches=PATCHES, shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fitness_table_equals_per_pair_route(self, patches, shape, seed):
        rng = np.random.default_rng(seed)
        land, env, species = drawn_species(patches, rng, sum(shape))
        residents, mutants = species[: shape[0]], species[shape[0] :]
        grid = pc.build_grid(land, per_patch=12)
        solve = rng.uniform(size=shape) < 0.7
        table = pc.fitness_table(land, env, grid, residents, mutants, solve=solve)
        for i, resident in enumerate(residents):
            potential = growth_potential(
                grid, env, pc.solve_resident_steady(land, env, resident, grid)
            )
            for j, mutant in enumerate(mutants):
                if solve[i, j]:
                    op = assemble_linearization(grid, mutant, potential)
                    assert table[i, j] == pc.principal_eigenpair(op).lambda1
                else:
                    assert np.isnan(table[i, j])

    @given(patches=PATCHES, count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stack_couplings_are_each_mutants_own(self, patches, count, seed):
        land, env, mutants = drawn_species(patches, np.random.default_rng(seed), count)
        grid = pc.build_grid(land, per_patch=12)
        s, weights, off, scale = MutantStack.assemble(grid, mutants).couplings
        for b, mutant in enumerate(mutants):
            op = assemble_diffusion(grid, mutant)
            for row, alone in zip((s, weights, off), symmetrizing_similarity(op.lo, op.up)):
                assert np.array_equal(row[b], alone)
            assert scale[b] == max(1.0, np.abs(op.lo).max(), np.abs(op.up).max())


class TestEmptyInputs:
    """An empty stack of operators, mutants or residents is refused by name;
    the table and steady-state routes answer an empty scan with an empty
    result."""

    def test_no_operators(self):
        with pytest.raises(pc.ValidationError, match="ops"):
            pc.principal_eigenpairs([])

    def test_no_mutants(self, unit_two_patch):
        grid = pc.build_grid(unit_two_patch[0], per_patch=10)
        with pytest.raises(pc.ValidationError, match="mutants"):
            MutantStack.assemble(grid, [])

    def test_no_residents(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=10)
        with pytest.raises(pc.ValidationError, match="residents"):
            ResidentContext(land, env, [], grid)

    def test_empty_scans_give_empty_results(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=10)
        one = [pc.SpeciesTraits([1.0, 1.0], [2.5])]
        assert pc.fitness_table(land, env, grid, [], one).shape == (0, 1)
        assert pc.fitness_table(land, env, grid, one, []).shape == (1, 0)
        assert pc.solve_resident_steady_states(land, env, [], grid) == []


class TestInvasionFitness:
    def test_same_side_sign_pattern(self, unit_two_patch):
        land, env = unit_two_patch
        assert fitness(land, env, 3.0, 2.5).lambda1 > 1e-8
        assert fitness(land, env, 3.0, 4.0).lambda1 < -1e-8
        assert fitness(land, env, 3.0, 1.5).lambda1 > 1e-8

    def test_capacity_ratio_resident_is_neutral(self, unit_two_patch):
        land, env = unit_two_patch
        assert abs(fitness(land, env, 2.0, 3.7).lambda1) <= 1e-10

    def test_sign_flips_once_across_the_resident(self, unit_two_patch):
        # same-side scan with equal diffusion: win below, lose above
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=100)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        potential = growth_potential(grid, env, ustar)
        scan = np.linspace(2.2, 4.2, 11)
        signs = []
        for ph in scan:
            mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([ph]))
            lam = pc.principal_eigenpair(
                assemble_linearization(grid, mutant, potential)
            ).lambda1
            if abs(lam) > 1e-8:
                signs.append(1 if lam > 0 else -1)
        flips = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)
        assert flips == 1
        assert signs[0] == 1 and signs[-1] == -1

    def test_self_linearization_is_negative(self, two_patch):
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=60)
        for traits in (resident, mutant):
            pair = pc.resident_self_eigenpair(land, env, traits, grid)
            assert pair.lambda1 < 0


class TestInvasionIdentity:
    def test_identical_traits_vanish(self, two_patch):
        land, env, resident, _ = two_patch
        grid = pc.build_grid(land, per_patch=80)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        pair = pc.invasion_fitness(land, env, resident, resident, grid, ustar=ustar)
        res = invasion_identity_residual(ustar, pair, env, resident, resident, grid)
        assert res <= 1e-11

    def test_capacity_ratio_resident_vanishes(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=80)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        mutant = pc.SpeciesTraits([0.6, 1.1], pc.StrategyVector([1.3]))
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        pair = pc.invasion_fitness(land, env, resident, mutant, grid, ustar=ustar)
        res = invasion_identity_residual(ustar, pair, env, resident, mutant, grid)
        assert res <= 1e-11

    def test_grids_compare_by_value(self, two_patch):
        # an equal grid built again is the same grid; another resolution is not
        land, env, resident, mutant = two_patch
        grid = pc.build_grid(land, per_patch=40)
        ustar = pc.solve_resident_steady(land, env, resident, grid)
        pair = pc.invasion_fitness(land, env, resident, mutant, grid, ustar=ustar)
        res = invasion_identity_residual(ustar, pair, env, resident, mutant, grid)
        again = pc.build_grid(land, per_patch=40)
        assert again is not grid
        assert invasion_identity_residual(ustar, pair, env, resident, mutant, again) == res
        with pytest.raises(pc.ValidationError, match="provided grid"):
            invasion_identity_residual(
                ustar, pair, env, resident, mutant, pc.build_grid(land, per_patch=50)
            )

    def test_residual_converges_second_order(self, two_patch):
        land, env, resident, mutant = two_patch
        residuals = []
        for n_sub in (100, 200):
            grid = pc.build_grid(land, per_patch=n_sub)
            ustar = pc.solve_resident_steady(land, env, resident, grid)
            pair = pc.invasion_fitness(land, env, resident, mutant, grid, ustar=ustar)
            residuals.append(
                invasion_identity_residual(ustar, pair, env, resident, mutant, grid)
            )
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.25)


class TestCoexistenceIdentity:
    def test_degenerate_window_is_zero(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        vstar = pc.solve_resident_steady(land, env, mutant, grid)
        zero = pc.PiecewiseField(grid, np.zeros(grid.num_dofs))
        out = coexistence_identity_residuals(
            zero, vstar, env, resident, mutant, grid, 0.5, 0.5
        )
        assert out.first == 0.0 and out.second == 0.0

    def test_semi_trivial_reduces_to_single_species_form(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        residuals = []
        for n_sub in (100, 200):
            grid = pc.build_grid(land, per_patch=n_sub)
            vstar = pc.solve_resident_steady(land, env, mutant, grid)
            zero = pc.PiecewiseField(grid, np.zeros(grid.num_dofs))
            out = coexistence_identity_residuals(
                zero, vstar, env, resident, mutant, grid, 1.0, 2.0
            )
            assert np.isnan(out.first)  # vanished-species form is undefined
            residuals.append(out.second)
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)

    def test_rejects_fields_of_another_grid(self, unit_two_patch):
        land, env = unit_two_patch
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        grid = pc.build_grid(land, per_patch=30)
        vstar = pc.solve_resident_steady(land, env, mutant, grid)
        zero = pc.PiecewiseField(grid, np.zeros(grid.num_dofs))
        with pytest.raises(pc.ValidationError, match="provided grid"):
            coexistence_identity_residuals(
                zero, vstar, env, resident, mutant, pc.build_grid(land, per_patch=40), 1.0, 2.0
            )

    def test_rejects_non_steady_state(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=30)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        k_dof = env.k_array[grid.patch_index_of_dofs()]
        u = pc.PiecewiseField(grid, 0.9 * k_dof)
        v = pc.PiecewiseField(grid, 0.8 * k_dof)
        with pytest.raises(pc.ValidationError, match="not near-steady"):
            coexistence_identity_residuals(u, v, env, resident, mutant, grid, 0.0, 2.0)
