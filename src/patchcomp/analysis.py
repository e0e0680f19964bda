"""Classification layer: theory predictions, invasibility scans, strategy tests.

Everything here reduces to signs of the invasion fitness eigenvalue.  Signs
inside the neutral band are never called; scans keep a guard band around the
provably degenerate strategies (the resident's own, and the capacity-ratio
vector where the fitness vanishes identically).

Every scan evaluates its (resident, mutant) pairs as one ``fitness_table``
and reads their signs through ``signs``: ``pip`` the whole table, the ESS
and invader tests one row or one column of sample points around the focal
strategy, and the convergence-stability test one table per side of it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_number
from .dynamics import SimConfig, simulate
from .eigen import SIGN_TOL, fitness_table, signs
from .grid import Grid
from .landscape import (
    Landscape,
    PatchEnvironment,
    RegionLabel,
    SpeciesTraits,
    StrategyVector,
    classify_region,
    ifd_strategy,
)
from .steady import SteadyConfig

_REGION_MAP: dict[RegionLabel, tuple[str, str]] = {
    RegionLabel.L1: ("Yes", "OutsideTheory"),
    RegionLabel.L1STAR: ("Yes", "MutantWins"),
    RegionLabel.L2: ("No", "ResidentWins"),
    RegionLabel.L3: ("Yes", "Coexistence"),
    RegionLabel.S1: ("Yes", "OutsideTheory"),
    RegionLabel.S1STAR: ("Yes", "MutantWins"),
    RegionLabel.S2: ("No", "ResidentWins"),
    RegionLabel.S3: ("Yes", "Coexistence"),
    RegionLabel.IFD_RESIDENT: ("Neutral", "OutsideTheory"),
    RegionLabel.UNCLASSIFIED: ("OutsideTheory", "OutsideTheory"),
}


@dataclass(frozen=True)
class Prediction:
    invade_when_rare: str    # Yes | No | Neutral | OutsideTheory
    global_verdict: str      # ResidentWins | MutantWins | Coexistence | OutsideTheory
    region: RegionLabel

    def to_csv(self) -> str:
        return (
            "region,invade,verdict\n"
            f"{self.region.value},{self.invade_when_rare},{self.global_verdict}\n"
        )


def predict_outcome(
    p: StrategyVector,
    p_hat: StrategyVector,
    d,
    d_hat,
    env: PatchEnvironment,
) -> Prediction:
    """Pure-theory prediction from the region of the trait pair."""
    region = classify_region(p, p_hat, d, d_hat, ifd_strategy(env))
    invade, verdict = _REGION_MAP[region]
    return Prediction(invade_when_rare=invade, global_verdict=verdict, region=region)


@dataclass(frozen=True)
class StabilityVerdicts:
    lambda_resident_state: float   # fitness of the mutant at (resident alone)
    lambda_mutant_state: float     # fitness of the resident at (mutant alone)
    resident_state: str            # stable | unstable | neutral
    mutant_state: str


_VERDICTS = {1: "unstable", -1: "stable", 0: "neutral"}


def stability_table(
    landscape: Landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
) -> StabilityVerdicts:
    """Stability of both single-species states against the other species.

    The competition term is symmetric in the two species, so the second
    verdict is the first with the roles swapped: one 2x2 ``fitness_table``
    over both species, less its diagonal.
    """
    species = [resident, mutant]
    table = fitness_table(landscape, env, grid, species, species, steady_config,
                          solve=~np.eye(2, dtype=bool))
    lam_res, lam_mut = float(table[0, 1]), float(table[1, 0])
    resident_state, mutant_state = (_VERDICTS[s] for s in signs([lam_res, lam_mut]))
    return StabilityVerdicts(lam_res, lam_mut, resident_state, mutant_state)


@dataclass
class PIPGrid:
    """Sign matrix of the invasion fitness over a strategy scan (two patches)."""

    resident_values: np.ndarray
    mutant_values: np.ndarray
    signs: np.ndarray        # +1 / -1 / 0 (neutral band), residents as rows
    lambdas: np.ndarray
    sign_tol: float

    def to_csv(self) -> str:
        buf = io.StringIO()
        header = ",".join(f"{v:.17g}" for v in self.mutant_values)
        buf.write("resident_p\\mutant_p," + header + "\n")
        for i, pv in enumerate(self.resident_values):
            row = ",".join(str(int(s)) for s in self.signs[i])
            buf.write(f"{pv:.17g}," + row + "\n")
        return buf.getvalue()


def _scalar_table(landscape, env, grid, diffusion, residents, mutants, steady_config,
                  solve=None) -> np.ndarray:
    """``fitness_table`` over two-patch species with scalar strategies and the
    diffusion vector ``diffusion``."""
    if landscape.n != 2:
        raise ValidationError("strategy scans are defined for two patches")
    residents, mutants = (
        [SpeciesTraits(diffusion, StrategyVector([p])) for p in scan]
        for scan in (residents, mutants)
    )
    return fitness_table(landscape, env, grid, residents, mutants, steady_config, solve)


def pip(
    resident_scan,
    mutant_scan,
    diffusion,
    landscape: Landscape,
    env: PatchEnvironment,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    sign_tol: float = SIGN_TOL,
) -> PIPGrid:
    """Pairwise invasibility: fitness signs over resident x mutant scans.

    Defined for the two-patch landscape with a scalar strategy per species and
    equal diffusion vectors.
    """
    resident_scan = np.asarray(resident_scan, dtype=float)
    mutant_scan = np.asarray(mutant_scan, dtype=float)
    if np.any(resident_scan <= 0) or np.any(mutant_scan <= 0):
        raise ValidationError("scans must be positive")
    lambdas = _scalar_table(
        landscape, env, grid, diffusion, resident_scan, mutant_scan, steady_config
    )
    return PIPGrid(resident_scan, mutant_scan, signs(lambdas, sign_tol), lambdas, sign_tol)


@dataclass(frozen=True)
class StrategyTestResult:
    passed: bool
    witnesses: tuple[tuple[float, ...], ...]   # violating sample points with fitness
    samples: int
    margin: float                              # smallest |fitness| over valid samples

    def __bool__(self) -> bool:
        return self.passed


def _sides(focal, delta, samples, env, guard) -> tuple[np.ndarray, np.ndarray]:
    """The upper and the lower side's sample points, nearest ``focal`` first:
    ``samples`` steps out to ``delta``, less any point within ``guard`` of 0,
    of ``focal`` or of the capacity ratio."""
    checked_number(delta, "delta")
    if checked_number(samples, "samples", count=True) < 3:
        raise ValidationError("samples: need at least 3 samples per side")
    kbar = ifd_strategy(env).values[0]
    offsets = delta * np.arange(1, samples + 1) / samples
    return tuple(
        pts[(pts > guard) & (np.abs(pts - focal) > guard) & (np.abs(pts - kbar) > guard)]
        for pts in (focal + offsets, focal - offsets)
    )


def _result(points, lambdas, want) -> StrategyTestResult:
    """The test's verdict on the evaluated pairs, in witness order: each
    ``points`` row names a pair, which fails unless its fitness sign is
    ``want``."""
    if lambdas.size == 0:
        raise ValidationError("no sample point survives the guard band; widen delta")
    bad = signs(lambdas) != want
    witnesses = tuple(
        tuple(float(v) for v in (*pair, lam)) for pair, lam in zip(points[bad], lambdas[bad])
    )
    return StrategyTestResult(
        passed=not witnesses, witnesses=witnesses, samples=lambdas.size,
        margin=float(np.abs(lambdas).min()),
    )


def ess_check(
    p_star: float,
    delta: float,
    samples: int,
    landscape: Landscape,
    env: PatchEnvironment,
    diffusion,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    guard: float = 1e-6,
) -> StrategyTestResult:
    """No nearby mutant invades: fitness < -SIGN_TOL for all sampled invaders."""
    upper, lower = _sides(p_star, delta, samples, env, guard)
    pts = np.concatenate((lower[::-1], upper))
    (lambdas,) = _scalar_table(landscape, env, grid, diffusion, [p_star], pts, steady_config)
    return _result(pts[:, None], lambdas, -1)


def nis_check(
    p_hat_star: float,
    delta: float,
    samples: int,
    landscape: Landscape,
    env: PatchEnvironment,
    diffusion,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    guard: float = 1e-6,
) -> StrategyTestResult:
    """Invades every nearby resident: fitness > SIGN_TOL against all of them."""
    upper, lower = _sides(p_hat_star, delta, samples, env, guard)
    pts = np.concatenate((lower[::-1], upper))
    lambdas = _scalar_table(landscape, env, grid, diffusion, pts, [p_hat_star], steady_config)
    return _result(pts[:, None], lambdas[:, 0], 1)


def css_check(
    p_star: float,
    delta: float,
    samples: int,
    landscape: Landscape,
    env: PatchEnvironment,
    diffusion,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    guard: float = 1e-6,
) -> StrategyTestResult:
    """Strategies between the resident and the focal point always invade.

    Sampled sign pattern on ordered same-side pairs: moving toward the focal
    strategy succeeds (fitness > SIGN_TOL), moving away fails (fitness < -SIGN_TOL).
    """
    upper, lower = _sides(p_star, delta, samples, env, guard)
    pts = np.concatenate((upper, lower))
    side = np.repeat([1, -1], (upper.size, lower.size))
    pr, pm = np.meshgrid(pts, pts, indexing="ij")
    # one table per side, less each resident's own strategy
    solve = (side[:, None] == side) & (np.abs(pr - pm) > guard)
    lambdas = _scalar_table(landscape, env, grid, diffusion, pts, pts, steady_config, solve)
    want = np.where(np.abs(pm - p_star) < np.abs(pr - p_star), 1, -1)
    return _result(np.stack((pr, pm), axis=-1)[solve], lambdas[solve], want[solve])


@dataclass(frozen=True)
class CrossValidationReport:
    prediction: Prediction
    simulated_verdict: str | None
    status: str    # match | mismatch | inconclusive | skipped

    @property
    def ok(self) -> bool:
        """True for a match, or a pair outside the theory; an Undetermined
        simulation ("inconclusive") confirms nothing, so it is not ok."""
        return self.status in ("match", "skipped")


def cross_validate(
    landscape: Landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    sim_config: SimConfig | None = None,
    steady_config: SteadyConfig | None = None,
) -> CrossValidationReport:
    """Check the theory prediction against a full simulation of the pair."""
    prediction = predict_outcome(
        resident.jump, mutant.jump, resident.d_array, mutant.d_array, env
    )
    if prediction.global_verdict == "OutsideTheory":
        return CrossValidationReport(prediction, None, "skipped")
    record = simulate(
        landscape, env, resident, mutant, grid, sim_config, steady_config=steady_config
    )
    if record.verdict == "Undetermined":
        return CrossValidationReport(prediction, record.verdict, "inconclusive")
    status = "match" if record.verdict == prediction.global_verdict else "mismatch"
    return CrossValidationReport(prediction, record.verdict, status)
