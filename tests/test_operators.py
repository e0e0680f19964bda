import numpy as np
import pytest

import patchcomp as pc
from patchcomp.operators import (
    SpeciesLayout,
    assemble_diffusion,
    consistent_constant,
    expand_reduced,
    full_mass,
    reduced_weights,
    restrict_cell_average,
    restrict_diagonal,
    restrict_values,
)
from patchcomp.transform import push_forward, shared_node_offsets, to_transformed, _fv_operator

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
        m = full_mass(grid, traits)
        w = reduced_weights(grid, traits)
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
        # an operator's stored weights stand in for recomputed ones
        weights = assemble_diffusion(grid, traits).weights
        assert np.array_equal(
            restrict_diagonal(grid, traits, g, weights=weights),
            restrict_diagonal(grid, traits, g),
        )

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
