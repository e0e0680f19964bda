"""Classification layer: theory predictions, invasibility scans, strategy tests.

Everything here reduces to signs of the invasion fitness eigenvalue.  Signs
inside the neutral band are never called; scans keep a guard band around the
provably degenerate strategies (the resident's own, and the capacity-ratio
vector where the fitness vanishes identically).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .dynamics import SimConfig, simulate
from .eigen import SIGN_TOL, MutantStack, ResidentContext, invasion_fitness
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


def _verdict(lam: float, tol: float) -> str:
    if lam > tol:
        return "unstable"
    if lam < -tol:
        return "stable"
    return "neutral"


def stability_table(
    landscape: Landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    sign_tol: float = SIGN_TOL,
) -> StabilityVerdicts:
    """Stability of both single-species states against the other species.

    The competition term is symmetric in the two species, so the second
    verdict is the first with the roles swapped.
    """
    lam_res = invasion_fitness(landscape, env, resident, mutant, grid, steady_config).lambda1
    lam_mut = invasion_fitness(landscape, env, mutant, resident, grid, steady_config).lambda1
    return StabilityVerdicts(
        lambda_resident_state=lam_res,
        lambda_mutant_state=lam_mut,
        resident_state=_verdict(lam_res, sign_tol),
        mutant_state=_verdict(lam_mut, sign_tol),
    )


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


def _two_patch_traits(base: SpeciesTraits, p1: float) -> SpeciesTraits:
    return SpeciesTraits(base.d, StrategyVector([p1]))


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
    if landscape.n != 2:
        raise ValidationError("invasibility scans are defined for two patches")
    resident_scan = np.asarray(resident_scan, dtype=float)
    mutant_scan = np.asarray(mutant_scan, dtype=float)
    if np.any(resident_scan <= 0) or np.any(mutant_scan <= 0):
        raise ValidationError("scans must be positive")
    base = SpeciesTraits(diffusion, StrategyVector([1.0]))
    mutants = MutantStack.assemble(grid, [_two_patch_traits(base, pm) for pm in mutant_scan])

    lambdas = np.empty((resident_scan.size, mutant_scan.size))
    for i, pr in enumerate(resident_scan):
        context = ResidentContext(
            landscape, env, _two_patch_traits(base, pr), grid, steady_config
        )
        lambdas[i] = [pair.lambda1 for pair in context.fitness(mutants)]
    signs = np.where(lambdas > sign_tol, 1, np.where(lambdas < -sign_tol, -1, 0))
    return PIPGrid(
        resident_values=resident_scan,
        mutant_values=mutant_scan,
        signs=signs,
        lambdas=lambdas,
        sign_tol=sign_tol,
    )


@dataclass(frozen=True)
class StrategyTestResult:
    passed: bool
    witnesses: tuple[tuple[float, ...], ...]   # violating sample points with fitness
    samples: int
    margin: float                              # smallest |fitness| over valid samples

    def __bool__(self) -> bool:
        return self.passed


def _side_samples(center: float, delta: float, samples: int, guard: float,
                  *, avoid: tuple[float, ...]) -> np.ndarray:
    offsets = delta * np.arange(1, samples + 1) / samples
    pts = np.concatenate((center - offsets[::-1], center + offsets))
    pts = pts[pts > guard]
    keep = np.ones(pts.size, dtype=bool)
    for a in avoid:
        keep &= np.abs(pts - a) > guard
    return pts[keep]


class _Scan:
    """Fitness of two-patch mutants at two-patch residents; mutant operators
    are assembled once per set of strategies."""

    def __init__(self, landscape, env, diffusion, grid, steady_config):
        if landscape.n != 2:
            raise ValidationError("strategy tests are defined for two patches")
        self.landscape = landscape
        self.env = env
        self.grid = grid
        self.steady_config = steady_config
        self.base = SpeciesTraits(diffusion, StrategyVector([1.0]))

    def mutants(self, strategies) -> MutantStack:
        return MutantStack.assemble(
            self.grid, [_two_patch_traits(self.base, p) for p in strategies]
        )

    def fitness(self, p_resident: float, mutants: MutantStack) -> list[float]:
        resident = _two_patch_traits(self.base, p_resident)
        context = ResidentContext(
            self.landscape, self.env, resident, self.grid, self.steady_config
        )
        return [pair.lambda1 for pair in context.fitness(mutants)]


def ess_check(
    p_star: float,
    delta: float,
    samples: int,
    landscape: Landscape,
    env: PatchEnvironment,
    diffusion,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    sign_tol: float = SIGN_TOL,
    guard: float = 1e-6,
) -> StrategyTestResult:
    """No nearby mutant invades: fitness < -tol for all sampled invaders."""
    if samples < 3:
        raise ValidationError("need at least 3 samples per side")
    scan = _Scan(landscape, env, diffusion, grid, steady_config)
    kbar = ifd_strategy(env).values[0]
    pts = _side_samples(p_star, delta, samples, guard, avoid=(p_star, kbar))
    lambdas = scan.fitness(p_star, scan.mutants(pts)) if pts.size else []
    witnesses = []
    margin = np.inf
    for pm, lam in zip(pts, lambdas):
        margin = min(margin, abs(lam))
        if not lam < -sign_tol:
            witnesses.append((float(pm), float(lam)))
    return StrategyTestResult(
        passed=not witnesses, witnesses=tuple(witnesses), samples=pts.size, margin=float(margin)
    )


def nis_check(
    p_hat_star: float,
    delta: float,
    samples: int,
    landscape: Landscape,
    env: PatchEnvironment,
    diffusion,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    sign_tol: float = SIGN_TOL,
    guard: float = 1e-6,
) -> StrategyTestResult:
    """Invades every nearby resident: fitness > tol against all of them."""
    if samples < 3:
        raise ValidationError("need at least 3 samples per side")
    scan = _Scan(landscape, env, diffusion, grid, steady_config)
    kbar = ifd_strategy(env).values[0]
    pts = _side_samples(p_hat_star, delta, samples, guard, avoid=(p_hat_star, kbar))
    mutant = scan.mutants([p_hat_star])
    witnesses = []
    margin = np.inf
    for pr in pts:
        (lam,) = scan.fitness(pr, mutant)
        margin = min(margin, abs(lam))
        if not lam > sign_tol:
            witnesses.append((float(pr), float(lam)))
    return StrategyTestResult(
        passed=not witnesses, witnesses=tuple(witnesses), samples=pts.size, margin=float(margin)
    )


def css_check(
    p_star: float,
    delta: float,
    samples: int,
    landscape: Landscape,
    env: PatchEnvironment,
    diffusion,
    grid: Grid,
    steady_config: SteadyConfig | None = None,
    sign_tol: float = SIGN_TOL,
    guard: float = 1e-6,
) -> StrategyTestResult:
    """Strategies between the resident and the focal point always invade.

    Sampled sign pattern on ordered same-side pairs: moving toward the focal
    strategy succeeds (fitness > tol), moving away fails (fitness < -tol).
    """
    if samples < 3:
        raise ValidationError("need at least 3 samples per side")
    scan = _Scan(landscape, env, diffusion, grid, steady_config)
    kbar = ifd_strategy(env).values[0]
    offsets = delta * np.arange(1, samples + 1) / samples
    witnesses = []
    margin = np.inf
    count = 0
    for side in (+1, -1):
        pts = p_star + side * offsets
        pts = pts[pts > guard]
        pts = pts[np.abs(pts - kbar) > guard]
        pts = pts[np.abs(pts - p_star) > guard]
        mutants = scan.mutants(pts)
        for pr in pts:
            index = [j for j, pm in enumerate(pts) if abs(pr - pm) > guard]
            if not index:
                continue
            count += len(index)
            for pm, lam in zip(pts[index], scan.fitness(pr, mutants.take(index))):
                margin = min(margin, abs(lam))
                closer = abs(pm - p_star) < abs(pr - p_star)
                ok = lam > sign_tol if closer else lam < -sign_tol
                if not ok:
                    witnesses.append((float(pr), float(pm), float(lam)))
    return StrategyTestResult(
        passed=not witnesses, witnesses=tuple(witnesses), samples=count, margin=float(margin)
    )


@dataclass(frozen=True)
class CrossValidationReport:
    prediction: Prediction
    simulated_verdict: str | None
    status: str    # match | mismatch | inconclusive | skipped

    @property
    def ok(self) -> bool:
        return self.status in ("match", "skipped", "inconclusive")


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
