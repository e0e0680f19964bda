import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgttrf, dgttrs

import patchcomp as pc
from patchcomp.operators import (
    SpeciesLayout,
    assemble_diffusion,
    consistent_constant,
    diffusion_bands,
    expand_reduced,
    factor_blocks,
    factor_symmetrized,
    restrict_cell_average,
    restrict_diagonal,
    restrict_values,
    symmetrizing_similarity,
    tridiagonal_matvec,
)
from patchcomp.transform import push_forward, shared_node_offsets, to_transformed, _fv_operator

# The reduced-DOF format as it was written out per patch and per interface
# before ``SpeciesLayout`` owned it: the reference for the layout's arrays.


def reference_full_mass(grid, traits):
    """Weighted trapezoid mass per full DOF: (1 / prod of jump ratios) * quad weight."""
    omega = 1.0 / traits.cumulative_scales()
    mass = np.empty(grid.num_dofs)
    for i in range(grid.n):
        h = grid.spacing(i)
        sl = grid.patch_slice(i)
        mass[sl] = omega[i] * h
        mass[sl.start] = omega[i] * h / 2.0
        mass[sl.stop - 1] = omega[i] * h / 2.0
    return mass


def reference_reduced_weights(grid, traits, mass=None):
    """Symmetrization weights on the reduced DOFs (eliminated mass folded in)."""
    if mass is None:
        mass = reference_full_mass(grid, traits)
    p = traits.p_array
    w = mass[grid.kept_indices()]
    for m in range(grid.n - 1):
        w[grid.reduced_trace_index(m)] += p[m] ** 2 * mass[grid.right_trace_index(m)]
    return w


def reference_restrict_weighted(grid, traits, full_values, trace_power, weights=None):
    """Mass-weighted restriction: trace power 1 for cell averages, 2 for coefficients."""
    mass = reference_full_mass(grid, traits)
    if weights is None:
        weights = reference_reduced_weights(grid, traits, mass)
    p = traits.p_array
    num = mass * np.asarray(full_values, dtype=float)
    red = num[grid.kept_indices()]
    for m in range(grid.n - 1):
        red[grid.reduced_trace_index(m)] += p[m] ** trace_power * num[grid.right_trace_index(m)]
    return red / weights


def reference_expand_reduced(grid, traits, reduced):
    """Scatter a reduced vector to the full DOF layout (right traces filled in)."""
    full = np.empty(grid.num_dofs)
    full[grid.kept_indices()] = reduced
    full[grid.right_trace_indices()] = traits.p_array * reduced[grid.reduced_trace_indices()]
    return full


def reference_trace_fractions(grid, traits):
    """Shares ``mass / weight`` of each trace DOF's left and right one-sided
    values, the right one's times p².

    This was the one place that squared p as an array (``p**2``, that is
    ``p * p``); the layout squares each ratio by ``pow`` as the weights always
    have, which rounds differently in the last bit for about one ratio in a
    thousand (``test_jump_ratios_square_as_the_weights_do``).  So this copy
    squares as the weights do.
    """
    trace = grid.reduced_trace_indices()
    mass = reference_full_mass(grid, traits)
    w = reference_reduced_weights(grid, traits, mass)[trace]
    left = mass[grid.kept_indices()[trace]] / w
    p2 = np.array([v**2 for v in traits.p_array])
    return left, p2 * mass[grid.right_trace_indices()] / w


def reference_factor_shifted(op, alpha, beta: float = 1.0):
    """LU-factor ``diag(alpha) + beta * A`` of one operator (LAPACK gttrf) and
    return its O(N) solve (gttrs), checking ``alpha`` and every right-hand
    side for finite values: the shifted solve the steady references use,
    written out apart from the package's stacked LU."""
    alpha = np.asarray_chkfinite(alpha, dtype=float)
    dl, d, du, du2, ipiv, info = dgttrf(beta * op.lo[1:], alpha + beta * op.di, beta * op.up[:-1])
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lambda rhs: dgttrs(dl, d, du, du2, ipiv, np.asarray_chkfinite(rhs, dtype=float))[0]


@st.composite
def layouts(draw):
    """A grid of 1-6 patches with random lengths and counts, and 1-4 species
    with random jump ratios on it."""
    n = draw(st.integers(1, 6))
    ratio = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)
    lengths = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(2, 13), min_size=n, max_size=n))
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(lengths))))
    grid = pc.build_grid(land, per_patch=counts, min_subintervals=2)
    species = [
        pc.SpeciesTraits(np.ones(n), pc.StrategyVector(
            draw(st.lists(ratio, min_size=n - 1, max_size=n - 1))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return grid, species, draw(st.integers(0, 2**32 - 1))


TRAIT_SETS = [
    ([1.0, 1.0], [2.0]),
    ([1.0, 2.0, 0.5], [2.0, 0.7]),
    ([0.3, 1.7, 2.4, 0.9], [0.4, 1.0, 3.2]),
]


def make(d, p, lengths=None):
    n = len(d)
    lengths = lengths or [1.0 + 0.3 * i for i in range(n)]
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(lengths))))
    traits = pc.SpeciesTraits(d, pc.StrategyVector(p))
    grid = pc.build_grid(land, per_patch=17)
    return land, traits, grid


class TestSymmetryAndKernel:
    @pytest.mark.parametrize("d,p", TRAIT_SETS)
    def test_weighted_symmetry_exact(self, d, p):
        _, traits, grid = make(d, p)
        op = assemble_diffusion(grid, traits)
        assert op.symmetry_defect() <= 1e-12

    @pytest.mark.parametrize("d,p", TRAIT_SETS)
    def test_consistent_constant_spans_kernel(self, d, p):
        _, traits, grid = make(d, p)
        op = assemble_diffusion(grid, traits)
        c = consistent_constant(grid, traits)
        scale = np.abs(op.di).max()
        assert np.abs(op.matvec(c)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("d,p", TRAIT_SETS)
    def test_weighted_conservation(self, d, p):
        # the weighted constant is a left null vector: discrete integration
        # by parts with no-flux ends
        _, traits, grid = make(d, p)
        op = assemble_diffusion(grid, traits)
        c = consistent_constant(grid, traits)
        scale = np.abs(op.di).max()
        assert np.abs((op.weights * c) @ op.dense()).max() <= 1e-13 * scale

    def test_interior_rows_exact_on_quadratic(self):
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=8)
        op = assemble_diffusion(grid, traits)
        x = grid.patch_nodes(0)
        out = op.matvec(0.5 * x**2)
        assert np.allclose(out[1:-1], 1.0, atol=1e-12)

    def test_jump_consistent_constant_maps_to_zero_vector(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        c = 3.7 * consistent_constant(grid, traits)
        assert np.abs(op.matvec(c)).max() <= 1e-12 * np.abs(op.di).max()


class TestFactorShifted:
    # the package's one LU (``factor_blocks``) on shifted operators
    def test_no_flux_operator_is_singular(self):
        # the jump-consistent constants span the bare operator's kernel
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        with pytest.raises(np.linalg.LinAlgError):
            factor_blocks(op.lo, op.di, op.up)
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_shifted(0.0, np.ones(op.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        poisoned = np.ones(op.size)
        poisoned[3] = bad
        with pytest.raises(ValueError):
            op.solve_shifted(poisoned, np.ones(op.size))
        with pytest.raises(ValueError):
            op.solve_shifted(10.0, poisoned)


def symmetric_solve(op, alpha, beta):
    """The solve ``rhs -> (alpha - beta A)⁻¹ rhs`` by the package's one
    LDLᵀ, on the similarity that the operator's couplings give."""
    s, _, off = symmetrizing_similarity(op.lo, op.up)
    solve = factor_symmetrized(op.di, off, alpha, beta)
    return lambda rhs: solve(s * rhs) / s


class TestFactorSymmetric:
    # the package's one LDLᵀ (``factor_symmetrized`` on the
    # ``symmetrizing_similarity`` of the couplings)
    @pytest.mark.parametrize("theta", [1.0, 0.5])  # IMEX Euler, Crank-Nicolson
    @pytest.mark.parametrize("per_patch", [100, 1300])  # 201 and 2,601 reduced DOFs
    def test_matches_dense_solve(self, theta, per_patch):
        land = pc.Landscape([0.0, 1.0, 2.0])
        grid = pc.build_grid(land, per_patch=per_patch)
        dt = 0.01
        rng = np.random.default_rng(3)
        for p in (3.0, 1.5):
            op = assemble_diffusion(grid, pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])))
            rhs = rng.uniform(0.0, 1.5, op.size)
            got = symmetric_solve(op, 1.0, theta * dt)(rhs)
            ref = np.linalg.solve(np.eye(op.size) - theta * dt * op.dense(), rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_scaled_solve_maps_rows_as_their_own_solves(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        s, _, off = symmetrizing_similarity(op.lo, op.up)
        # for an operator symmetric in its weights, s² is proportional to them
        ratio = s / np.sqrt(op.weights)
        assert (ratio.max() - ratio.min()) / ratio.min() <= 4.0 * np.finfo(float).eps
        solve = factor_symmetrized(op.di, off, 1.0, 0.1)
        rows = np.random.default_rng(8).uniform(0.0, 1.5, (3, op.size))
        got = solve(s * rows)
        assert got.shape == rows.shape
        for row, one in zip(rows, got):
            assert np.array_equal(one, solve(s * row))

    def test_negative_definite_raises(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        with pytest.raises(np.linalg.LinAlgError):
            symmetric_solve(op, -1.0, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        poisoned = np.ones(op.size)
        poisoned[3] = bad
        with pytest.raises(ValueError):
            symmetric_solve(op, poisoned, 0.1)
        with pytest.raises(ValueError):
            symmetric_solve(op, 1.0, bad)
        with pytest.raises(ValueError):
            symmetrizing_similarity(op.lo, op.up * poisoned)

    def test_asymmetric_operator_raises(self):
        # couplings 10 times apart on every row: the similarity grows by
        # sqrt(10) a row and leaves the floating-point range within 700 rows
        land = pc.Landscape([0.0, 1.0])
        grid = pc.build_grid(land, per_patch=800)
        op = assemble_diffusion(grid, pc.SpeciesTraits([1.0], pc.StrategyVector([])))
        with pytest.raises(ValueError, match="symmetric"):
            symmetrizing_similarity(op.lo, 10.0 * op.up)


def stack_of_operators(grid, count: int = 4):
    """The diffusion bands of ``count`` different species on ``grid``,
    shifted by a different potential each: an ``(M, N)`` stack in the one
    convention, and its operators one by one."""
    rng = np.random.default_rng(11)
    n = grid.n
    species = [
        pc.SpeciesTraits(rng.uniform(0.5, 2.0, n), pc.StrategyVector(rng.uniform(0.3, 3.0, n - 1)))
        for _ in range(count)
    ]
    _, lo, di, up = diffusion_bands(grid, species)
    di = di + rng.uniform(-1.0, 1.0, di.shape)
    return lo, di, up


class TestOneConvention:
    """A stack of ``(M, N)`` bands with zero unused corners is one
    block-diagonal matrix laid end to end: its product, its LU and its LDLᵀ
    treat every block bit for bit as that operator on its own, and an
    operator with M right-hand-side rows as M single solves."""

    GRID = pc.build_grid(pc.Landscape([0.0, 0.7, 1.9, 2.6]), per_patch=[6, 11, 5])

    def test_stack_has_zero_corners(self):
        lo, _, up = stack_of_operators(self.GRID)
        assert not lo[:, 0].any() and not up[:, -1].any()

    def test_raveled_matvec_equals_per_row_product(self):
        lo, di, up = stack_of_operators(self.GRID)
        x = np.random.default_rng(2).uniform(-1.0, 2.0, di.shape)
        got = tridiagonal_matvec(lo, di, up, x)
        assert got.shape == x.shape
        for b in range(len(di)):
            one = tridiagonal_matvec(lo[b], di[b], up[b], x[b])
            assert np.array_equal(got[b], one)
            row = di[b] * x[b]
            row[:-1] += up[b, :-1] * x[b, 1:]
            row[1:] += lo[b, 1:] * x[b, :-1]
            assert np.array_equal(one, row)

    def test_lu_stack_solves_each_operator_on_its_own(self):
        lo, di, up = stack_of_operators(self.GRID)
        dt = 0.3
        rhs = np.random.default_rng(4).uniform(0.0, 1.5, di.shape)
        got = factor_blocks(-dt * lo, 1.0 - dt * di, -dt * up)(rhs)
        for b in range(len(di)):
            one = factor_blocks(-dt * lo[b], 1.0 - dt * di[b], -dt * up[b])(rhs[b])
            assert np.array_equal(got[b], one)

    def test_ldlt_stack_solves_each_operator_on_its_own(self):
        lo, di, up = stack_of_operators(self.GRID)
        s, _, off = symmetrizing_similarity(lo, up)
        # a shift per block, above each block's spectrum
        alpha = 1.0 + (np.abs(di) + np.abs(lo) + np.abs(up)).max(axis=1, keepdims=True)
        rhs = np.random.default_rng(5).uniform(0.0, 1.5, di.shape)
        got = factor_symmetrized(di, off, alpha)(s * rhs)
        for b in range(len(di)):
            s_b, _, off_b = symmetrizing_similarity(lo[b], up[b])
            assert np.array_equal(s_b, s[b])
            one = factor_symmetrized(di[b], off_b, alpha[b])(s_b * rhs[b])
            assert np.array_equal(got[b], one)

    def test_rows_of_one_operator_are_single_solves(self):
        lo, di, up = (band[1] for band in stack_of_operators(self.GRID))
        rows = np.random.default_rng(6).uniform(0.0, 1.5, (5, di.size))
        lu = factor_blocks(-0.3 * lo, 1.0 - 0.3 * di, -0.3 * up)
        s, _, off = symmetrizing_similarity(lo, up)
        ldlt = factor_symmetrized(di, off, 1.0, 0.3)
        got_lu, got_ldlt = lu(rows), ldlt(s * rows)
        for row, one_lu, one_ldlt in zip(rows, got_lu, got_ldlt):
            assert np.array_equal(one_lu, lu(row))
            assert np.array_equal(one_ldlt, ldlt(s * row))


class TestReductionMaps:
    def test_expand_restrict_roundtrip(self):
        _, traits, grid = make([1.0, 2.0], [0.6])
        red = np.linspace(1.0, 2.0, grid.num_reduced)
        full = expand_reduced(grid, traits, red)
        assert np.array_equal(restrict_values(grid, full), red)
        field = pc.PiecewiseField(grid, full)
        assert field.is_jump_consistent(traits)

    def test_restrict_diagonal_preserves_constants(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        c = np.full(grid.num_dofs, 0.37)
        assert np.allclose(restrict_diagonal(grid, traits, c), 0.37, rtol=1e-14)

    def test_cell_average_matches_weak_load(self):
        # trace entry must be the jump-weighted dual-cell load
        _, traits, grid = make([1.0, 1.0], [2.0])
        g = np.arange(grid.num_dofs, dtype=float)
        red = restrict_cell_average(grid, traits, g)
        m = reference_full_mass(grid, traits)
        w = reference_reduced_weights(grid, traits)
        tr = grid.reduced_trace_index(0)
        left = grid.left_trace_index(0)
        right = grid.right_trace_index(0)
        expected = (m[left] * g[left] + 2.0 * m[right] * g[right]) / w[tr]
        assert red[tr] == pytest.approx(expected, rel=1e-14)

    def test_layout_matches_plain_functions(self):
        _, traits, grid = make([0.3, 1.7, 2.4], [0.4, 3.2])
        layout = SpeciesLayout(grid, traits)
        red = np.linspace(0.5, 1.5, grid.num_reduced)
        assert np.array_equal(layout.expand(red), expand_reduced(grid, traits, red))
        g = np.cos(np.linspace(0, 3, grid.num_dofs))
        assert np.allclose(
            layout.restrict_avg(g), restrict_cell_average(grid, traits, g), rtol=1e-15
        )


    def test_layout_matches_plain_functions_exactly(self):
        land = pc.Landscape([0.0, 0.6, 2.1, 2.9, 4.4])
        grid = pc.build_grid(land, per_patch=[5, 11, 4, 8])
        traits = pc.SpeciesTraits([0.3, 1.7, 2.4, 0.9], pc.StrategyVector([0.4, 1.3, 3.2]))
        layout = SpeciesLayout(grid, traits)
        red = np.linspace(0.5, 1.5, grid.num_reduced)
        assert np.array_equal(layout.expand(red), expand_reduced(grid, traits, red))
        g = np.cos(np.linspace(0, 3, grid.num_dofs))
        assert np.array_equal(layout.restrict_avg(g), restrict_cell_average(grid, traits, g))
        assert np.array_equal(layout.restrict_diag(g), restrict_diagonal(grid, traits, g))
        # an assembled operator carries the layout's weights
        assert np.array_equal(assemble_diffusion(grid, traits).weights, layout.weights)

    @settings(max_examples=80, deadline=None)
    @given(layouts())
    def test_layout_matches_reference(self, drawn):
        grid, species, seed = drawn
        rng = np.random.default_rng(seed)
        reduced = rng.uniform(0.0, 2.0, (len(species), grid.num_reduced))
        full = rng.uniform(-1.0, 3.0, grid.num_dofs)

        def arrays(layout, reduced):
            return {
                "mass": layout.mass, "weights": layout.weights,
                "expand": layout.expand(reduced),
                "avg": layout.restrict_avg(full), "diag": layout.restrict_diag(full),
                "a_left": layout.a_left, "a_right": layout.a_right,
            }

        stacked = SpeciesLayout(grid, species)
        whole = arrays(stacked, reduced)
        for b, traits in enumerate(species):
            mass = reference_full_mass(grid, traits)
            a_left, a_right = reference_trace_fractions(grid, traits)
            ref = {
                "mass": mass, "weights": reference_reduced_weights(grid, traits, mass),
                "expand": reference_expand_reduced(grid, traits, reduced[b]),
                "avg": reference_restrict_weighted(grid, traits, full, 1),
                "diag": reference_restrict_weighted(grid, traits, full, 2),
                "a_left": a_left, "a_right": a_right,
            }
            for got in (
                arrays(SpeciesLayout(grid, traits), reduced[b]),
                arrays(stacked[b], reduced[b]),
                {key: value[b] for key, value in whole.items()},
            ):
                for key, value in ref.items():
                    assert np.array_equal(got[key], value), key
            assert np.array_equal(assemble_diffusion(grid, traits).weights, ref["weights"])
            constant = np.empty(grid.num_reduced)
            for i in range(grid.n):
                constant[grid.reduced_patch_slice(i)] = traits.cumulative_scales()[i]
            assert np.array_equal(consistent_constant(grid, traits), constant)
            assert np.array_equal(stacked.fill(stacked.scales)[b], constant)

    @pytest.mark.parametrize("rows", [2, 5])  # 2 = n - 1 interfaces
    def test_single_layout_maps_stacked_rows(self, rows):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        layout = SpeciesLayout(grid, traits)
        rng = np.random.default_rng(rows)
        reduced = rng.uniform(0.0, 2.0, (rows, grid.num_reduced))
        full = rng.uniform(-1.0, 3.0, (rows, grid.num_dofs))
        for method, stack in (
            (layout.right_values, reduced), (layout.expand, reduced),
            (layout.restrict_avg, full), (layout.restrict_diag, full),
        ):
            got = method(stack)
            assert np.array_equal(got, np.array([method(row) for row in stack]))

    def test_jump_ratios_square_as_the_weights_do(self):
        # a ratio whose pow square and whose product square differ in the last bit
        p = 0.3808171146238585
        assert p**2 == 0.14502167479044095 and p * p == 0.14502167479044098
        _, traits, grid = make([1.0, 1.0], [p])
        layout = SpeciesLayout(grid, traits)
        assert layout.p2[0] == p**2
        assert np.array_equal(layout.weights, reference_reduced_weights(grid, traits))

class TestTransformConsistency:
    def test_rescaled_operator_is_exact_conjugate(self):
        # applying the physical operator to a jump-consistent field equals the
        # per-patch rescaling of the continuous-form flux operator applied to
        # the rescaled field
        land, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        env = pc.PatchEnvironment(r=np.ones(3), k=np.ones(3))
        problem = to_transformed(land, env, traits)
        op = assemble_diffusion(grid, traits)

        xs = grid.full_x()
        w_smooth = np.cos(np.pi * xs / land.length)
        scales = traits.cumulative_scales()
        u_full = w_smooth.copy()
        for i in range(grid.n):
            u_full[grid.patch_slice(i)] *= scales[i]
        field = pc.PiecewiseField(grid, u_full)

        w = push_forward(field, problem)
        lo, di, up, _, _ = _fv_operator(problem, grid)
        aw = di * w
        aw[:-1] += up[:-1] * w[1:]
        aw[1:] += lo[1:] * w[:-1]

        direct = op.matvec(restrict_values(grid, field.values))
        off = shared_node_offsets(grid)
        pulled = np.empty_like(direct)
        for i in range(grid.n):
            seg = scales[i] * aw[off[i] : off[i + 1] + 1]
            sl = grid.reduced_patch_slice(i)
            if i == 0:
                pulled[sl] = seg
            else:
                pulled[sl] = seg[1:]
        scale = np.abs(direct).max()
        assert np.abs(direct - pulled).max() <= 1e-11 * scale
