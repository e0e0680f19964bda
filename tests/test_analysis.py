import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import patchcomp as pc
import patchcomp.eigen
from patchcomp import RegionLabel
from patchcomp.eigen import assemble_linearization, growth_potential
from patchcomp.landscape import StrategyVector


def vec(*values):
    return StrategyVector(values)


@pytest.fixture
def env2():
    return pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])


class TestPredictOutcome:
    def test_table_examples(self, env2):
        d = np.ones(2)
        pred = pc.predict_outcome(vec(3), vec(2.5), d, d, env2)
        assert pred.global_verdict == "MutantWins"
        pred = pc.predict_outcome(vec(3), vec(4), d, d, env2)
        assert pred.global_verdict == "ResidentWins"
        pred = pc.predict_outcome(vec(3), vec(1), d, d, env2)
        assert pred.global_verdict == "Coexistence"

    def test_neutral_resident(self, env2):
        d = np.ones(2)
        pred = pc.predict_outcome(vec(2), vec(3), d, d, env2)
        assert pred.invade_when_rare == "Neutral"
        assert pred.global_verdict == "OutsideTheory"
        assert pred.region is RegionLabel.IFD_RESIDENT

    def test_plain_same_side_region_stays_open(self, env2):
        # invasion resolved, global dynamics not claimed
        d = np.ones(2)
        pred = pc.predict_outcome(vec(4), vec(3), d, d, env2)
        assert pred.region is RegionLabel.L1STAR
        pred = pc.predict_outcome(vec(4), vec(1.9), d, d, env2)
        assert pred.region is RegionLabel.L3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verdict_only_inside_resolved_regions(self, env2, seed):
        rng = np.random.default_rng(seed)
        allowed = {
            RegionLabel.L1STAR, RegionLabel.L2, RegionLabel.L3,
            RegionLabel.S1STAR, RegionLabel.S2, RegionLabel.S3,
            RegionLabel.IFD_RESIDENT,
        }
        for _ in range(100):
            p = vec(rng.uniform(0.3, 4.0))
            ph = vec(rng.uniform(0.3, 4.0))
            d = rng.uniform(0.3, 3.0, 2)
            dh = rng.uniform(0.3, 3.0, 2)
            pred = pc.predict_outcome(p, ph, d, dh, env2)
            if pred.global_verdict != "OutsideTheory":
                assert pred.region in allowed

    def test_truth_table_fidelity(self, env2):
        # every resolved table cell, one representative instance per row
        d = np.ones(2)
        up = 2.0 * np.ones(2)
        cells = [
            # resident above the ratio
            (vec(3), vec(4), d, up, "No", "ResidentWins"),        # farther, faster
            (vec(3), vec(2.5), up, d, "Yes", "MutantWins"),       # closer, slower
            (vec(3), vec(1.2), d, up, "Yes", "Coexistence"),      # opposite side
            # resident below the ratio
            (vec(1.2), vec(1.6), up, d, "Yes", "MutantWins"),     # closer, slower
            (vec(1.2), vec(0.8), d, up, "No", "ResidentWins"),    # farther, faster
            (vec(1.2), vec(3.0), d, up, "Yes", "Coexistence"),    # opposite side
        ]
        for p, ph, dd, dh, invade, verdict in cells:
            pred = pc.predict_outcome(p, ph, dd, dh, env2)
            assert pred.invade_when_rare == invade
            assert pred.global_verdict == verdict

    def test_role_swap_symmetry(self, env2):
        rng = np.random.default_rng(5)
        swap = {"ResidentWins": "MutantWins", "MutantWins": "ResidentWins"}
        for _ in range(60):
            p = vec(rng.uniform(0.3, 4.0))
            ph = vec(rng.uniform(0.3, 4.0))
            d = rng.uniform(0.3, 3.0, 2)
            dh = rng.uniform(0.3, 3.0, 2)
            a = pc.predict_outcome(p, ph, d, dh, env2)
            b = pc.predict_outcome(ph, p, dh, d, env2)
            if a.global_verdict in swap:
                assert b.global_verdict == swap[a.global_verdict]
            if a.global_verdict == "Coexistence":
                assert b.global_verdict == "Coexistence"


class TestStabilityTable:
    def test_exclusion_instance(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=80)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([5.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        table = pc.stability_table(land, env, resident, mutant, grid)
        assert table.resident_state == "unstable"
        assert table.mutant_state == "stable"

    def test_coexistence_instance(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=80)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.5]))
        table = pc.stability_table(land, env, resident, mutant, grid)
        assert table.resident_state == "unstable"
        assert table.mutant_state == "unstable"

    def test_neutral_resident(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        table = pc.stability_table(land, env, resident, mutant, grid)
        assert table.resident_state == "neutral"


class TestPip:
    def test_matrix_structure(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=60)
        residents = np.array([2.0, 2.6, 3.0])
        mutants = np.array([1.0, 2.3, 2.6, 3.0, 3.8])
        result = pc.pip(residents, mutants, [1.0, 1.0], land, env, grid)
        # the capacity-ratio resident row is entirely neutral
        assert np.all(result.signs[0] == 0)
        # diagonal entries (matching strategies) are neutral
        assert result.signs[1, 2] == 0
        assert result.signs[2, 3] == 0
        # resident 3.0: opposite side and closer-same-side invade, farther loses
        assert result.signs[2, 0] == 1
        assert result.signs[2, 1] == 1
        assert result.signs[2, 4] == -1

    def test_sign_antisymmetry_on_same_side_pairs(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=60)
        scan = np.array([2.4, 2.9, 3.5])
        result = pc.pip(scan, scan, [1.0, 1.0], land, env, grid)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert result.signs[i, j] == -result.signs[j, i]

    def test_needs_two_patches(self):
        land = pc.Landscape([0.0, 1.0, 2.0, 3.0])
        env = pc.PatchEnvironment(r=[1, 1, 1], k=[1, 2, 4])
        grid = pc.build_grid(land, per_patch=20)
        with pytest.raises(pc.ValidationError, match="two patches"):
            pc.pip([2.0], [2.0], [1.0, 1.0, 1.0], land, env, grid)

    def test_csv_shape(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        result = pc.pip([2.5, 3.0], [1.5, 2.0], [1.0, 1.0], land, env, grid)
        lines = result.to_csv().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("resident_p\\mutant_p,")


class TestStrategyChecks:
    def test_ifd_is_convergent_and_invading(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=60)
        css = pc.css_check(2.0, 0.8, 4, land, env, [1.0, 1.0], grid)
        assert css.passed and css.margin > 1e-8
        nis = pc.nis_check(2.0, 0.8, 4, land, env, [1.0, 1.0], grid)
        assert nis.passed and nis.margin > 1e-8

    def test_off_ratio_strategy_is_not_ess(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=60)
        ess = pc.ess_check(3.0, 1.0, 4, land, env, [1.0, 1.0], grid)
        assert not ess.passed
        witnesses = [w[0] for w in ess.witnesses]
        assert any(2.0 < w < 3.0 for w in witnesses)

    def test_guard_band_excludes_degenerate_samples(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        ess = pc.ess_check(3.0, 1.0, 5, land, env, [1.0, 1.0], grid)
        # the sample landing exactly on the capacity ratio is dropped
        assert ess.samples == 9
        sampled = [w[0] for w in ess.witnesses]
        assert 2.0 not in sampled

    def test_sample_count_validation(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        with pytest.raises(pc.ValidationError):
            pc.ess_check(3.0, 1.0, 2, land, env, [1.0, 1.0], grid)

    @pytest.mark.parametrize("check", [pc.ess_check, pc.nis_check, pc.css_check])
    @pytest.mark.parametrize("samples", [3.5, True, "4", 2])
    def test_samples_must_be_an_integer_of_at_least_three(self, unit_two_patch, check,
                                                          samples):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        with pytest.raises(pc.ValidationError, match="samples"):
            check(3.0, 1.0, samples, land, env, [1.0, 1.0], grid)

    @pytest.mark.parametrize("check", [pc.ess_check, pc.nis_check, pc.css_check])
    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_delta_must_be_finite_and_positive(self, unit_two_patch, check, delta):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        with pytest.raises(pc.ValidationError, match="delta"):
            check(3.0, delta, 4, land, env, [1.0, 1.0], grid)

    @pytest.mark.parametrize("check", [pc.ess_check, pc.nis_check, pc.css_check])
    def test_no_surviving_sample_raises(self, unit_two_patch, check):
        # every point lies within the guard band of the focal strategy
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        with pytest.raises(pc.ValidationError, match="guard band"):
            check(2.0, 1e-7, 3, land, env, [1.0, 1.0], grid)

    def test_css_skips_a_side_with_no_sample(self, unit_two_patch):
        # below 0.1 every point is negative: only the upper side is scanned
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        css = pc.css_check(0.1, 0.5, 3, land, env, [1.0, 1.0], grid)
        assert css.samples == 3 * 2
        route = PerPairRoute(land, env, grid)
        upper = 0.1 + 0.5 * np.arange(1, 4) / 3
        lams = [route(pr, pm) for pr in upper for pm in upper if pr != pm]
        assert css.margin == min(abs(lam) for lam in lams)


class PerPairRoute:
    """Fitness one (resident, mutant) pair at a time, each resident's steady
    state solved once: the route the stacked scans replaced.  Strategies are
    scalars (two patches) or sequences, for species with diffusion ``d``."""

    def __init__(self, land, env, grid, d=(1.0, 1.0)):
        self.land, self.env, self.grid, self.d = land, env, grid, list(d)
        self.potentials = {}

    def __call__(self, p_resident, p_mutant):
        grid = self.grid
        key = tuple(np.atleast_1d(p_resident))
        if key not in self.potentials:
            resident = pc.SpeciesTraits(self.d, StrategyVector(key))
            ustar = pc.solve_resident_steady(self.land, self.env, resident, grid)
            self.potentials[key] = growth_potential(grid, self.env, ustar)
        mutant = pc.SpeciesTraits(self.d, StrategyVector(np.atleast_1d(p_mutant)))
        op = assemble_linearization(grid, mutant, self.potentials[key])
        return pc.principal_eigenpair(op).lambda1


class TestStackedScansMatchPerPairRoute:
    def test_pip_lambdas(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=50)
        residents = np.array([1.4, 2.0, 2.6, 3.3])
        mutants = np.array([1.0, 1.7, 2.0, 2.6, 3.1, 3.9])
        result = pc.pip(residents, mutants, [1.0, 1.0], land, env, grid)
        route = PerPairRoute(land, env, grid)
        want = [[route(pr, pm) for pm in mutants] for pr in residents]
        assert np.array_equal(result.lambdas, np.array(want))

    @pytest.mark.parametrize("focal,delta", [(2.0, 0.8), (2.6, 1.0)])
    def test_strategy_checks(self, unit_two_patch, focal, delta):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=40)
        route = PerPairRoute(land, env, grid)
        guard = 1e-6
        samples = 4
        offsets = delta * np.arange(1, samples + 1) / samples
        side_pts = np.concatenate((focal - offsets[::-1], focal + offsets))
        side_pts = side_pts[(np.abs(side_pts - 2.0) > guard) & (np.abs(side_pts - focal) > guard)]

        ess = pc.ess_check(focal, delta, samples, land, env, [1.0, 1.0], grid)
        lams = [route(focal, pm) for pm in side_pts]
        assert ess.samples == side_pts.size
        assert ess.margin == min(abs(lam) for lam in lams)
        assert ess.witnesses == tuple(
            (float(pm), float(lam)) for pm, lam in zip(side_pts, lams) if not lam < -pc.SIGN_TOL
        )

        nis = pc.nis_check(focal, delta, samples, land, env, [1.0, 1.0], grid)
        lams = [route(pr, focal) for pr in side_pts]
        assert nis.samples == side_pts.size
        assert nis.margin == min(abs(lam) for lam in lams)
        assert nis.witnesses == tuple(
            (float(pr), float(lam)) for pr, lam in zip(side_pts, lams) if not lam > pc.SIGN_TOL
        )

        css = pc.css_check(focal, delta, samples, land, env, [1.0, 1.0], grid)
        witnesses, lams = [], []
        for side in (+1, -1):
            pts = focal + side * offsets
            pts = pts[(np.abs(pts - 2.0) > guard) & (np.abs(pts - focal) > guard)]
            for pr in pts:
                for pm in pts:
                    if abs(pr - pm) <= guard:
                        continue
                    lam = route(float(pr), float(pm))
                    lams.append(lam)
                    closer = abs(pm - focal) < abs(pr - focal)
                    if not (lam > pc.SIGN_TOL if closer else lam < -pc.SIGN_TOL):
                        witnesses.append((float(pr), float(pm), float(lam)))
        assert css.samples == len(lams)
        assert css.margin == min(abs(lam) for lam in lams)
        assert css.witnesses == tuple(witnesses)

    def test_stability_table(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=60)
        route = PerPairRoute(land, env, grid)
        for p, p_hat in ((3.0, 1.5), (5.0, 3.0)):
            resident = pc.SpeciesTraits([1.0, 1.0], StrategyVector([p]))
            mutant = pc.SpeciesTraits([1.0, 1.0], StrategyVector([p_hat]))
            table = pc.stability_table(land, env, resident, mutant, grid)
            assert table.lambda_resident_state == route(p, p_hat)
            assert table.lambda_mutant_state == route(p_hat, p)


class TestFitnessTable:
    @given(
        patches=st.lists(
            st.tuples(  # length, d, r, k
                st.floats(0.5, 2.0), st.floats(0.2, 5.0), st.floats(0.5, 2.0),
                st.floats(0.5, 3.0),
            ),
            min_size=2,
            max_size=3,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_solved_entry_matches_the_per_pair_route(self, patches, data):
        length, d, r, k = (np.array(col) for col in zip(*patches))
        land = pc.Landscape(np.concatenate(([0.0], np.cumsum(length))))
        env = pc.PatchEnvironment(r, k)
        grid = pc.build_grid(land, per_patch=12)
        strategy = st.lists(st.floats(0.3, 4.0), min_size=len(d) - 1, max_size=len(d) - 1)
        residents = data.draw(st.lists(strategy, min_size=1, max_size=5))
        mutants = data.draw(st.lists(strategy, min_size=0, max_size=6))
        shape = (len(residents), len(mutants))
        solve = data.draw(st.none() | arrays(bool, shape))

        def traits(ps):
            return [pc.SpeciesTraits(d, StrategyVector(p)) for p in ps]

        table = pc.fitness_table(land, env, grid, traits(residents), traits(mutants),
                                 solve=solve)
        assert table.shape == shape
        route = PerPairRoute(land, env, grid, d)
        for (i, j), lam in np.ndenumerate(table):
            if solve is None or solve[i, j]:
                assert lam == route(residents[i], mutants[j])
            else:
                assert np.isnan(lam)

    def test_builds_only_what_the_mask_needs(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        species = [pc.SpeciesTraits([1.0, 1.0], StrategyVector([p])) for p in (1.5, 2.5, 3.5)]
        # residents handed to the steady solve, mutants assembled, pairs solved
        counts = {"residents": 0, "mutants": 0, "pairs": 0}
        steady, layout = patchcomp.eigen.solve_resident_steady_states, patchcomp.eigen.SpeciesLayout
        solve_stack = patchcomp.eigen._noda

        def counting_steady(landscape, env, residents, *args, **kwargs):
            counts["residents"] += len(residents)
            return steady(landscape, env, residents, *args, **kwargs)

        def counting_layout(grid, mutants):
            counts["mutants"] += len(mutants)
            return layout(grid, mutants)

        def counting_solve(lo, *args):
            counts["pairs"] += len(lo)
            return solve_stack(lo, *args)

        monkeypatch.setattr(patchcomp.eigen, "solve_resident_steady_states", counting_steady)
        monkeypatch.setattr(patchcomp.eigen, "SpeciesLayout", counting_layout)
        monkeypatch.setattr(patchcomp.eigen, "_noda", counting_solve)
        pc.fitness_table(land, env, grid, species, species)
        assert counts == {"residents": 3, "mutants": 3, "pairs": 9}
        solve = np.array([[False, True, True], [False, False, False], [False, True, False]])
        table = pc.fitness_table(land, env, grid, species, species, solve=solve)
        # no steady state for the empty row, no operator for the empty column,
        # and only the masked pairs solved
        assert counts == {"residents": 5, "mutants": 5, "pairs": 12}
        assert np.array_equal(np.isnan(table), ~solve)

    def test_mutants_cut_into_chunks(self, unit_two_patch, monkeypatch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        species = [pc.SpeciesTraits([1.0, 1.0], StrategyVector([p]))
                   for p in (1.2, 1.7, 2.4, 2.9, 3.5)]
        solve = np.random.default_rng(4).uniform(size=(3, 5)) < 0.7
        whole = pc.fitness_table(land, env, grid, species[:3], species, solve=solve)
        monkeypatch.setattr(patchcomp.operators, "_STACK_DOFS", 2 * grid.num_reduced)
        chunked = pc.fitness_table(land, env, grid, species[:3], species, solve=solve)
        assert np.array_equal(chunked, whole, equal_nan=True)
        assert np.array_equal(np.isnan(whole), ~solve)

    def test_pairs_cut_into_chunks(self, unit_two_patch, monkeypatch):
        # every mutant fits one chunk, but the pairs do not: 4 x 3 pairs
        # through stacked solves of at most 3 blocks
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        residents = [pc.SpeciesTraits([1.0, 1.0], StrategyVector([p]))
                     for p in (1.3, 1.8, 2.7, 3.6)]
        mutants = [pc.SpeciesTraits([1.0, 1.0], StrategyVector([p])) for p in (1.1, 2.4, 3.1)]
        solve = np.ones((4, 3), bool)
        solve[1, 2] = False
        whole = pc.fitness_table(land, env, grid, residents, mutants, solve=solve)
        sizes = []
        solve_stack = patchcomp.eigen._noda

        def recording(lo, *args):
            sizes.append(len(lo))
            return solve_stack(lo, *args)

        monkeypatch.setattr(patchcomp.operators, "_STACK_DOFS", 3 * grid.num_reduced)
        monkeypatch.setattr(patchcomp.eigen, "_noda", recording)
        chunked = pc.fitness_table(land, env, grid, residents, mutants, solve=solve)
        assert sizes == [3, 3, 3, 2]
        assert np.array_equal(chunked, whole, equal_nan=True)
        assert np.array_equal(np.isnan(whole), ~solve)

    @pytest.mark.parametrize("residents,mutants", [(0, 0), (0, 3), (2, 0), (2, 3)])
    def test_empty_tables_build_nothing(self, unit_two_patch, monkeypatch, residents,
                                        mutants):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        species = pc.SpeciesTraits([1.0, 1.0], StrategyVector([2.5]))

        def refuse(*args, **kwargs):
            raise AssertionError("an empty table built or solved something")

        monkeypatch.setattr(patchcomp.eigen, "solve_resident_steady_states", refuse)
        monkeypatch.setattr(patchcomp.eigen, "SpeciesLayout", refuse)
        nothing = np.zeros((residents, mutants), bool)
        table = pc.fitness_table(land, env, grid, [species] * residents,
                                 [species] * mutants, solve=nothing)
        assert table.shape == (residents, mutants) and np.isnan(table).all()
        if not residents * mutants:
            table = pc.fitness_table(land, env, grid, [species] * residents,
                                     [species] * mutants)
            assert table.shape == (residents, mutants)

    def test_mask_shape_is_checked(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=20)
        species = [pc.SpeciesTraits([1.0, 1.0], StrategyVector([2.5]))]
        with pytest.raises(pc.ValidationError, match="shape"):
            pc.fitness_table(land, env, grid, species, species, solve=np.ones((2, 1), bool))


class TestSigns:
    def test_one_rule_for_pairs_tables_and_verdicts(self):
        lambdas = np.array([[2e-8, -2e-8, 1e-8], [-1e-8, 0.0, np.nan]])
        assert np.array_equal(pc.signs(lambdas), [[1, -1, 0], [0, 0, 0]])
        assert np.array_equal(pc.signs(lambdas, tol=0.0), [[1, -1, 1], [-1, 0, 0]])
        grid = pc.build_grid(pc.Landscape([0.0, 1.0]), per_patch=4)
        phi = pc.PiecewiseField(grid, np.ones(grid.num_dofs))
        for lam in lambdas.ravel()[:5]:
            assert pc.EigenPair(lam, phi, 0.0, 0).sign() == pc.signs(lam)


class TestCrossValidate:
    def test_matching_exclusion_row(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=50)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.3]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([0.7]))
        report = pc.cross_validate(land, env, resident, mutant, grid)
        assert report.status == "match"
        assert report.ok

    def test_undetermined_simulation_is_not_ok(self, unit_two_patch):
        # the matching exclusion row, stopped long before it settles
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=50)
        resident = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([1.3]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([0.7]))
        report = pc.cross_validate(land, env, resident, mutant, grid, pc.SimConfig(t_max=1.0))
        assert report.simulated_verdict == "Undetermined"
        assert report.status == "inconclusive"
        assert not report.ok

    def test_outside_theory_skipped(self, unit_two_patch):
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=30)
        ifd = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0]))
        mutant = pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([3.0]))
        report = pc.cross_validate(land, env, ifd, mutant, grid)
        assert report.status == "skipped"
        assert report.simulated_verdict is None

    def test_randomized_faster_farther_mutants_always_lose(self, unit_two_patch):
        # resident-above instances with the mutant farther out and faster:
        # theory says resident wins; the simulation must agree every time
        land, env = unit_two_patch
        grid = pc.build_grid(land, per_patch=50)
        rng = np.random.default_rng(23)
        for _ in range(5):
            p = 2.0 * rng.uniform(1.4, 1.9)
            ph = p * rng.uniform(1.5, 2.0)
            d = rng.uniform(0.8, 1.2, 2)
            dh = d * rng.uniform(1.0, 1.3, 2)
            resident = pc.SpeciesTraits(d, pc.StrategyVector([p]))
            mutant = pc.SpeciesTraits(dh, pc.StrategyVector([ph]))
            report = pc.cross_validate(land, env, resident, mutant, grid)
            assert report.prediction.region is RegionLabel.L2
            assert report.status == "match", (p, ph, report.simulated_verdict)
