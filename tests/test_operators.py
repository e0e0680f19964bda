import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcomp as pc
from patchcomp.operators import (
    SpeciesLayout,
    assemble_diffusion,
    consistent_constant,
    expand_reduced,
    restrict_cell_average,
    restrict_diagonal,
    restrict_values,
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
    def test_no_flux_operator_is_singular(self):
        # the jump-consistent constants span the bare operator's kernel
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        with pytest.raises(np.linalg.LinAlgError):
            op.factor_shifted(0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        poisoned = np.ones(op.size)
        poisoned[3] = bad
        with pytest.raises(ValueError):
            op.factor_shifted(poisoned, -0.1)
        with pytest.raises(ValueError):
            op.factor_shifted(1.0, -0.1)(poisoned)


class TestFactorSymmetric:
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
            got = op.factor_symmetric(1.0, -theta * dt)(rhs)
            ref = np.linalg.solve(np.eye(op.size) - theta * dt * op.dense(), rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_negative_definite_raises(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        with pytest.raises(np.linalg.LinAlgError):
            op.factor_symmetric(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        poisoned = np.ones(op.size)
        poisoned[3] = bad
        with pytest.raises(ValueError):
            op.factor_symmetric(poisoned, -0.1)
        with pytest.raises(ValueError):
            op.factor_symmetric(1.0, -0.1)(poisoned)

    def test_asymmetric_operator_raises(self):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        op.up = op.up.copy()
        op.up[3] *= 1.01
        with pytest.raises(ValueError, match="symmetric"):
            op.factor_symmetric(1.0, -0.1)


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
