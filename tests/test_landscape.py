import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchcomp as pc
from patchcomp import RegionLabel, StrategyVector


def vec(*values):
    return StrategyVector(values)


class TestDomainTypes:
    def test_landscape_basic(self):
        land = pc.Landscape([0.0, 1.0, 2.5])
        assert land.n == 2
        assert land.length == 2.5
        assert np.allclose(land.patch_lengths, [1.0, 1.5])
        assert land.interfaces == (1.0,)

    def test_landscape_rejects_offset_origin(self):
        with pytest.raises(pc.ValidationError):
            pc.Landscape([0.5, 1.0])

    def test_landscape_rejects_nonincreasing(self):
        with pytest.raises(pc.ValidationError):
            pc.Landscape([0.0, 1.0, 1.0])

    def test_environment_rejects_nonpositive(self):
        with pytest.raises(pc.ValidationError):
            pc.PatchEnvironment(r=[1.0, -1.0], k=[1.0, 1.0])
        with pytest.raises(pc.ValidationError):
            pc.PatchEnvironment(r=[1.0, 1.0], k=[0.0, 1.0])

    def test_traits_dimension_check(self):
        with pytest.raises(pc.ValidationError):
            pc.SpeciesTraits([1.0, 1.0], StrategyVector([1.0, 2.0]))

    def test_strategy_vector_positive(self):
        with pytest.raises(pc.ValidationError):
            StrategyVector([1.0, 0.0])

    def test_cumulative_scales_computed_once_read_only(self):
        traits = pc.SpeciesTraits([1.0, 2.0, 0.5], StrategyVector([3.0, 0.7]))
        scales = traits.cumulative_scales()
        assert scales is traits.cumulative_scales()
        assert not scales.flags.writeable
        assert np.array_equal(scales, np.concatenate(([1.0], np.cumprod([3.0, 0.7]))))
        single = pc.SpeciesTraits([1.0], StrategyVector([]))
        assert np.array_equal(single.cumulative_scales(), [1.0])
        assert traits == pc.SpeciesTraits([1.0, 2.0, 0.5], [3.0, 0.7])


class TestIfdStrategy:
    def test_two_patches(self):
        env = pc.PatchEnvironment(r=[1, 1], k=[1, 2])
        assert pc.ifd_strategy(env).values == (2.0,)

    def test_three_patches(self):
        env = pc.PatchEnvironment(r=[1, 1, 1], k=[1, 2, 4])
        assert pc.ifd_strategy(env).values == (2.0, 2.0)

    def test_homogeneous(self):
        env = pc.PatchEnvironment(r=[1, 1, 1], k=[3, 3, 3])
        assert pc.ifd_strategy(env).values == (1.0, 1.0)

    def test_single_patch_has_no_interfaces(self):
        env = pc.PatchEnvironment(r=[1], k=[1])
        with pytest.raises(pc.ValidationError, match="no interfaces"):
            pc.ifd_strategy(env)

    @given(
        ratio=st.floats(0.2, 5.0),
        scale=st.floats(0.1, 10.0),
        n=st.integers(2, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_geometric_capacities_give_constant_vector(self, ratio, scale, n):
        k = scale * ratio ** np.arange(n)
        env = pc.PatchEnvironment(r=np.ones(n), k=k)
        values = pc.ifd_strategy(env).as_array()
        assert np.allclose(values, ratio, rtol=1e-12)


class TestJumpRatios:
    @pytest.mark.parametrize(
        "alpha,d,expected",
        [
            ([0.5], [1.0, 1.0], [1.0]),
            ([2.0 / 3.0], [1.0, 2.0], [1.0]),
            ([0.8], [2.0, 1.0], [8.0]),
        ],
    )
    def test_examples(self, alpha, d, expected):
        assert np.allclose(pc.derive_jump_ratios(alpha, d).as_array(), expected)

    def test_rejects_preference_outside_unit_interval(self):
        with pytest.raises(pc.ValidationError):
            pc.derive_jump_ratios([1.0], [1.0, 1.0])
        with pytest.raises(pc.ValidationError):
            pc.derive_jump_ratios([-0.1], [1.0, 1.0])

    @given(
        data=st.lists(
            st.tuples(st.floats(0.01, 0.99), st.floats(0.05, 20.0)),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_through_ratios(self, data):
        alpha = np.array([a for a, _ in data[:-1]])
        d = np.array([dd for _, dd in data])
        p = pc.derive_jump_ratios(alpha, d)
        back = pc.recover_preferences(p, d)
        assert np.allclose(back, alpha, rtol=1e-13, atol=0)

    def test_traits_from_preferences(self):
        tr = pc.SpeciesTraits.from_preferences([2.0, 1.0], [0.8])
        assert np.allclose(tr.p_array, [8.0])
        assert np.allclose(tr.preferences(), [0.8])


class TestOrderings:
    def test_strict_dominates(self):
        assert pc.strict_dominates(vec(3, 3), vec(2, 2))
        assert not pc.strict_dominates(vec(3, 1), vec(2, 2))
        assert not pc.strict_dominates(vec(2, 2), vec(2, 2))

    def test_weak_and_opposite(self):
        assert pc.weakly_dominates(vec(2, 2), vec(2, 2))
        assert not pc.weakly_dominates(vec(2, 1), vec(2, 2))
        assert pc.opposite_sides(vec(3, 3), vec(1, 1), vec(2, 2))
        assert pc.opposite_sides(vec(1, 1), vec(3, 3), vec(2, 2))
        assert not pc.opposite_sides(vec(3, 3), vec(2.5, 2.5), vec(2, 2))

    def test_length_mismatch(self):
        with pytest.raises(pc.ValidationError):
            pc.strict_dominates(vec(1, 2), vec(1, 2, 3))


class TestClassifyRegion:
    def test_spec_examples(self):
        kbar = vec(2, 2)
        d = np.ones(3)
        assert (
            pc.classify_region(vec(3, 3), vec(2.5, 2.5), d, d, kbar)
            is RegionLabel.L1STAR
        )
        # the opposite-side set wins regardless of the diffusion vectors
        for dh in (d, 2 * d, 0.5 * d):
            assert (
                pc.classify_region(vec(3, 3), vec(1.5, 1.5), d, dh, kbar)
                is RegionLabel.L3
            )
        assert (
            pc.classify_region(vec(2, 2), vec(1, 1), d, d, kbar)
            is RegionLabel.IFD_RESIDENT
        )

    def test_plain_same_side_without_ifd_separation(self):
        kbar = vec(2, 2)
        d = np.ones(3)
        # mutant straddles the capacity ratios: not L1star, not L3
        label = pc.classify_region(vec(3, 3), vec(2.5, 1.5), d, d, kbar)
        assert label is RegionLabel.L1

    def test_s_side_labels(self):
        kbar = vec(2, 2)
        d = np.ones(3)
        assert pc.classify_region(vec(1, 1), vec(1.5, 1.5), d, d, kbar) is RegionLabel.S1STAR
        assert pc.classify_region(vec(1, 1), vec(0.5, 0.5), d, d, kbar) is RegionLabel.S2
        assert pc.classify_region(vec(1, 1), vec(3, 3), d, 2 * d, kbar) is RegionLabel.S3
        assert pc.classify_region(vec(1, 1), vec(2.5, 1.5), d, d, kbar) is RegionLabel.S1

    def test_boundary_ties_unclassified(self):
        kbar = vec(2, 2)
        d = np.ones(3)
        # resident sits on the boundary in one component: no strict ordering
        assert (
            pc.classify_region(vec(2, 3), vec(1, 1), d, d, kbar)
            is RegionLabel.UNCLASSIFIED
        )

    @given(
        p=st.tuples(st.floats(0.3, 4.0), st.floats(0.3, 4.0)),
        ph=st.tuples(st.floats(0.3, 4.0), st.floats(0.3, 4.0)),
        dd=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
        dh=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_and_consistent(self, p, ph, dd, dh):
        kbar = vec(1.5, 1.5)
        label = pc.classify_region(vec(*p), vec(*ph), dd, dh, kbar)
        assert isinstance(label, RegionLabel)
        if label in (RegionLabel.L1, RegionLabel.L1STAR, RegionLabel.L2, RegionLabel.L3):
            assert pc.strict_dominates(vec(*p), kbar)
        if label in (RegionLabel.S1, RegionLabel.S1STAR, RegionLabel.S2, RegionLabel.S3):
            assert pc.strict_dominates(kbar, vec(*p))
