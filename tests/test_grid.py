import pickle

import numpy as np
import pytest

import patchcomp as pc
from patchcomp.grid import one_sided_from_left, one_sided_from_right, patch_derivative


class TestBuildGrid:
    def test_single_patch_quarter_spacing(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0]), target_h=0.25)
        assert grid.counts == (4,)
        assert np.allclose(grid.patch_nodes(0), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.num_dofs == 5

    def test_two_patches_coarse(self):
        grid = pc.build_grid(
            pc.Landscape([0.0, 1.0, 2.0]), target_h=0.5, min_subintervals=2
        )
        assert grid.counts == (2, 2)
        assert grid.num_dofs == 6  # 3 + 3 with the node at x=1 duplicated
        assert grid.left_trace_index(0) == 2
        assert grid.right_trace_index(0) == 3

    def test_three_patches_mixed_lengths(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0, 3.0, 4.0]), target_h=0.1)
        assert grid.counts == (10, 20, 10)

    def test_too_coarse_raises(self):
        with pytest.raises(pc.GridResolutionError, match="finer resolution"):
            pc.build_grid(pc.Landscape([0.0, 1.0, 2.0]), target_h=0.5)

    def test_per_patch_counts(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0, 2.0]), per_patch=[8, 10])
        assert grid.counts == (8, 10)
        assert grid.num_reduced == grid.num_dofs - 1

    def test_deterministic(self):
        land = pc.Landscape([0.0, 1.3, 2.9])
        a = pc.build_grid(land, target_h=0.01)
        b = pc.build_grid(land, target_h=0.01)
        assert a.counts == b.counts


def uneven_grid():
    return pc.build_grid(pc.Landscape([0.0, 0.6, 2.1, 2.9, 4.4]), per_patch=[5, 11, 4, 8])


class TestLayoutCache:
    def test_cached_indices_match_formulas(self):
        grid = uneven_grid()
        sizes = [c + 1 for c in grid.counts]
        off = np.concatenate(([0], np.cumsum(sizes)))
        assert np.array_equal(grid.offsets(), off)
        for i in range(grid.n):
            assert grid.patch_slice(i) == slice(int(off[i]), int(off[i + 1]))
            start = int(off[i] - i + (1 if i > 0 else 0))
            assert grid.reduced_patch_slice(i) == slice(start, int(off[i + 1] - i))
        rights = []
        for m in range(grid.n - 1):
            assert grid.left_trace_index(m) == int(off[m] + grid.counts[m])
            assert grid.right_trace_index(m) == int(off[m + 1])
            assert grid.reduced_trace_index(m) == int(off[m] + grid.counts[m] - m)
            for index in (grid.left_trace_index(m), grid.right_trace_index(m),
                          grid.reduced_trace_index(m)):
                assert type(index) is int
            rights.append(int(off[m + 1]))
        assert grid.right_trace_indices().tolist() == rights
        assert grid.reduced_trace_indices().tolist() == [
            grid.reduced_trace_index(m) for m in range(grid.n - 1)
        ]
        mask = np.ones(grid.num_dofs, dtype=bool)
        mask[rights] = False
        assert np.array_equal(grid.kept_indices(), np.flatnonzero(mask))
        assert grid.kept_indices().size == grid.num_reduced
        patch_of = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
        assert np.array_equal(grid.patch_index_of_dofs(), patch_of)

    def test_cached_arrays_are_read_only(self):
        grid = uneven_grid()
        for array in (grid.kept_indices(), grid.offsets(), grid.right_trace_indices(),
                      grid.reduced_trace_indices(), grid.patch_index_of_dofs()):
            with pytest.raises(ValueError):
                array[0] = 99
        assert grid.kept_indices()[0] == 0

    def test_warm_cache_keeps_equality_hash_and_pickle(self):
        warm = uneven_grid()
        kept = warm.kept_indices().copy()
        fresh = uneven_grid()
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert pickle.dumps(warm) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(warm))
        assert back == warm and hash(back) == hash(warm)
        assert np.array_equal(back.kept_indices(), kept)
        assert back.reduced_patch_slice(2) == warm.reduced_patch_slice(2)


class TestPiecewiseField:
    def test_traces_and_views(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0, 2.0]), per_patch=4)
        values = np.arange(grid.num_dofs, dtype=float)
        field = pc.PiecewiseField(grid, values)
        assert field.left_trace(0) == 4.0
        assert field.right_trace(0) == 5.0
        assert field.patch_values(0).size == 5
        assert field.patch_values(1)[0] == 5.0

    def test_jump_consistency(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0, 2.0]), per_patch=4)
        traits = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        values = np.ones(grid.num_dofs)
        values[grid.patch_slice(1)] = 2.0
        field = pc.PiecewiseField(grid, values)
        assert field.is_jump_consistent(traits)
        values[grid.right_trace_index(0)] = 2.0 + 1e-6
        field = pc.PiecewiseField(grid, values)
        assert not field.is_jump_consistent(traits)
        assert field.jump_consistency_error(traits) == pytest.approx(5e-7, rel=1e-3)

    def test_wrong_length_rejected(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0]), per_patch=4)
        with pytest.raises(pc.ValidationError):
            pc.PiecewiseField(grid, np.ones(3))

    def test_csv_format(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0, 2.0]), per_patch=2, min_subintervals=2)
        field = pc.PiecewiseField(grid, np.linspace(0, 1, grid.num_dofs))
        lines = field.to_csv().strip().split("\n")
        assert lines[0] == "patch_index,x,value"
        assert len(lines) == grid.num_dofs + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        # duplicated interface coordinate appears once per patch
        xs = [line.split(",")[1] for line in lines[1:]]
        assert xs.count("1") == 2


class TestIntegration:
    def test_constant_over_two_units(self):
        grid = pc.build_grid(pc.Landscape([0.0, 2.0]), per_patch=10)
        assert pc.integrate_field(pc.PiecewiseField(grid, np.ones(grid.num_dofs))) == 2.0

    def test_piecewise_capacities(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0, 2.0]), per_patch=6)
        values = np.empty(grid.num_dofs)
        values[grid.patch_slice(0)] = 1.0
        values[grid.patch_slice(1)] = 3.0
        assert pc.integrate_field(pc.PiecewiseField(grid, values)) == pytest.approx(4.0)

    def test_linear_ramp(self):
        grid = pc.build_grid(pc.Landscape([0.0, 1.0]), per_patch=16)
        field = pc.PiecewiseField(grid, grid.patch_nodes(0))
        assert pc.integrate_field(field) == pytest.approx(0.5, abs=1e-14)


class TestDerivativeStencils:
    def test_exact_on_quadratics(self):
        h = 0.1
        x = np.arange(7) * h
        v = 0.5 * x**2 - x + 2.0
        dv = patch_derivative(v, h)
        assert np.allclose(dv, x - 1.0, atol=1e-12)
        assert one_sided_from_left(v, h) == pytest.approx(x[-1] - 1.0, abs=1e-12)
        assert one_sided_from_right(v, h) == pytest.approx(-1.0, abs=1e-12)

    def test_needs_three_nodes(self):
        with pytest.raises(pc.ValidationError):
            patch_derivative(np.array([1.0, 2.0]), 0.1)
