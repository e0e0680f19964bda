"""The benchmark's four workloads: seeded inputs, one pass of timed work, checks.

A workload is built once per process (its set-up: configs parsed, grids
built), then ``run_pass`` repeats a fixed unit of work drawn from the seeded
stream and returns one ``Op`` per timed call into the package.  ``check``
judges the outputs afterwards, outside the timed region, and sets
``Op.failed``.  Calls are made through module attributes (``pc.simulate``,
``patchcomp.cli.run_command``) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg

import patchcomp as pc
import patchcomp.cli
import patchcomp.config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Two equal patches with capacity ratio 2: the acceptance suite's workhorse.
LAND2 = pc.Landscape([0.0, 1.0, 2.0])
ENV2 = pc.PatchEnvironment(r=[1.0, 1.0], k=[1.0, 2.0])
ONES = (1.0, 1.0)

# The analysis module's guard band around the degenerate strategies.
GUARD = inspect.signature(pc.css_check).parameters["guard"].default


@dataclass
class Op:
    """One timed call: its latency, the operations it performed, its output."""

    kind: str
    latency: float
    evals: int
    data: object
    failed: int = 0


def warm_lapack() -> None:
    """Pay the lazy LAPACK/BLAS initialisation before anything is timed."""
    a = np.eye(8) + 0.1
    np.linalg.inv(a)
    a @ a
    ab = np.zeros((3, 8))
    ab[1] = 2.0
    scipy.linalg.solve_banded((1, 1), ab, np.ones(8))
    scipy.linalg.solveh_banded(ab[:2], np.ones(8))
    scipy.linalg.eigh_tridiagonal(
        np.full(8, 2.0), np.full(7, -1.0), eigvals_only=True, select="i",
        select_range=(7, 7),
    )


def _traits(d, p) -> pc.SpeciesTraits:
    return pc.SpeciesTraits(d, pc.StrategyVector(p))


def _outside_guard(*pairs: tuple[float, float]) -> bool:
    return all(abs(a - b) > GUARD for a, b in pairs)


def _expected_sign(resident_p: float, mutant_p: float, kbar: float) -> int | None:
    """+1/-1 from the theory's invade-when-rare call; None off the tables."""
    if not _outside_guard((resident_p, mutant_p), (mutant_p, kbar), (resident_p, kbar)):
        return None
    invade = pc.predict_outcome(
        pc.StrategyVector([resident_p]), pc.StrategyVector([mutant_p]), ONES, ONES, ENV2
    ).invade_when_rare
    return {"Yes": 1, "No": -1}.get(invade)


class TableRows:
    """``simulate`` to a verdict on the six global-dynamics configs.

    Not listed in BENCHMARK.json: one verdict takes 1.6-5.2 s, longer than the
    host's speed changes last, so its timings do not repeat within the bounds.
    Its traced run gives exact step and verdict counts.
    """

    name = "table_rows"
    select_by_pass = False
    tail_percentile = 100.0
    VERDICTS = {
        "above_resident_wins": "ResidentWins",
        "above_mutant_wins": "MutantWins",
        "above_coexistence": "Coexistence",
        "below_mutant_wins": "MutantWins",
        "below_resident_wins": "ResidentWins",
        "below_coexistence": "Coexistence",
    }

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        rows = ["below_resident_wins"] if small else list(self.VERDICTS)
        order = np.random.default_rng(seed).permutation(len(rows))
        self.order = [rows[i] for i in order]
        self.expected = {row: self.VERDICTS[row] for row in rows}
        self.rows = {}
        for row in rows:
            cfg = patchcomp.config.RunConfig.load(str(CONFIGS / f"{row}.json"))
            self.rows[row] = (cfg, cfg.build_grid())
        self.notes: Counter = Counter()

    def run_pass(self) -> list[Op]:
        ops = []
        for row in self.order:
            cfg, grid = self.rows[row]
            t0 = perf_counter()
            try:
                record = pc.simulate(
                    cfg.landscape, cfg.environment, cfg.resident, cfg.mutant, grid,
                    cfg.sim, steady_config=cfg.steady,
                )
            except pc.NumericalError as exc:
                record = exc
            ops.append(Op(row, perf_counter() - t0, 1, (row, record)))
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            row, record = op.data
            ok = (
                isinstance(record, pc.OutcomeRecord)
                and record.verdict == self.expected[row]
                and record.converged
                and record.diagnostics["box_violations"] == 0
            )
            op.failed = 0 if ok else 1


class FineMarch:
    """Order-preservation harness on fresh steppers, step count held fixed.

    One pass is one call at 801 reduced DOFs (Stepper's dense-inverse branch)
    and three at 8,001 (banded branch), so the median op is an 8,001-DOF call
    and the slowest is the 801-DOF one with its factorisation.
    """

    name = "fine_march"
    select_by_pass = False
    tail_percentile = 100.0
    STEPS = 20

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        self.rng = np.random.default_rng(seed)
        self.per_patch = (50, 1300, 1300, 1300) if small else (400, 4000, 4000, 4000)
        self.resident = _traits(ONES, [3.0])
        self.mutant = _traits(ONES, [1.5])
        self.grids = {n: pc.build_grid(LAND2, per_patch=n) for n in set(self.per_patch)}
        self.notes: Counter = Counter()

    def _ordered_pair(self, size: int):
        """State A above state B: first species larger, second smaller."""
        ub = self.rng.uniform(0.0, 1.5, size)
        ua = ub + self.rng.uniform(0.0, 1.5, size)
        va = self.rng.uniform(0.0, 1.5, size)
        vb = va + self.rng.uniform(0.0, 1.5, size)
        return (ua, va), (ub, vb)

    def run_pass(self) -> list[Op]:
        ops = []
        for n in self.per_patch:
            grid = self.grids[n]
            state_a, state_b = self._ordered_pair(grid.num_reduced)
            t0 = perf_counter()
            stepper = pc.Stepper(LAND2, ENV2, self.resident, self.mutant, grid, pc.SimConfig())
            result = pc.order_preservation_check(state_a, state_b, stepper, self.STEPS)
            ops.append(Op(f"dofs_{grid.num_reduced}", perf_counter() - t0, 1, result))
            del stepper
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            preserved, _, _ = op.data
            op.failed = 0 if preserved else 1


class InvasionScan:
    """Many fitness evaluations against few residents: pip, strategy tests, sweep."""

    name = "invasion_scan"
    select_by_pass = False
    # latencies are amortized per evaluation inside each call, so they come in
    # blocks of one value per call kind: the pip block holds over half the
    # evaluations and carries the median, p95 lies inside the slower sweep
    tail_percentile = 95.0

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        self.rng = np.random.default_rng(seed)
        self.pip_shape = (3, 3) if small else (10, 10)
        self.sweep_points = 8 if small else 16
        self.sweep_per_patch = 50 if small else 400
        self.grid = pc.build_grid(LAND2, per_patch=100)
        self.kbar = float(pc.ifd_strategy(ENV2).values[0])
        self.out_dir = Path(out_dir if out_dir is not None else ROOT / ".perfbench_out")
        self.cpus = os.sched_getaffinity(0)
        self.notes: Counter = Counter()

    @staticmethod
    def _timed(ops: list[Op], kind: str, evals, call, *args, context=None) -> None:
        t0 = perf_counter()
        result = call(*args)
        latency = perf_counter() - t0
        n = evals(result) if callable(evals) else evals
        ops.append(Op(kind, latency, n, (result, context)))

    def _sweep(self, config_path: Path, workers: int) -> tuple[int, str | None]:
        dest = self.out_dir / f"sweep_w{workers}"
        argv = ["sweep", "--config", str(config_path), "--out", str(dest),
                "--workers", str(workers)]
        # pool workers inherit this process's CPU mask, which the benchmark may
        # have narrowed to one CPU; they get every CPU the run started with
        pinned = os.sched_getaffinity(0)
        if workers > 1:
            os.sched_setaffinity(0, self.cpus)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = patchcomp.cli.run_command(argv)
        finally:
            os.sched_setaffinity(0, pinned)
        csv = dest / "sweep.csv"
        return code, csv.read_text() if code == 0 and csv.exists() else None

    def run_pass(self) -> list[Op]:
        rows, cols = self.pip_shape
        residents = np.sort(self.rng.uniform(2.2, 4.0, rows))
        # the capacity ratio and a resident's own value sit in the mutant scan on
        # purpose: those pairs fall in the guard band and must be skipped
        mutants = np.sort(np.concatenate(
            (self.rng.uniform(1.0, 4.0, cols - 2), [self.kbar, residents[0]])
        ))
        points = self.rng.uniform(1.0, 4.0, self.sweep_points)
        config = {
            "resident": {"d": list(ONES), "p": [3.0]},
            "mutant": {"d": list(ONES), "p": [2.5]},
            "grid": {"per_patch": self.sweep_per_patch},
            "sweep": {"mutant_p": [[float(p)] for p in points], "fitness": True},
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        config_path = self.out_dir / "sweep_config.json"
        config_path.write_text(json.dumps(config))

        ops: list[Op] = []
        self._timed(ops, "pip", rows * cols, pc.pip, residents, mutants, ONES, LAND2,
                    ENV2, self.grid)
        for kind, call, focal in (("css", pc.css_check, 2.0), ("nis", pc.nis_check, 2.0),
                                  ("ess", pc.ess_check, 3.0)):
            self._timed(ops, kind, attrgetter("samples"), call, focal, 1.0, 5, LAND2, ENV2,
                        list(ONES), self.grid)
        for workers in (1, 2):
            self._timed(ops, f"sweep_w{workers}", len(points), self._sweep, config_path,
                        workers, context=points)
        return ops

    def check(self, ops: list[Op]) -> None:
        sweeps = []
        for op in ops:
            result, points = op.data
            if op.kind == "pip":
                op.failed = self._check_pip(result)
            elif op.kind in ("css", "nis"):
                op.failed = 0 if result.passed and result.margin > pc.SIGN_TOL else 1
            elif op.kind == "ess":
                witnesses = [w[0] for w in result.witnesses]
                op.failed = 0 if not result.passed and any(2.0 < w < 3.0 for w in witnesses) else 1
            else:
                op.failed = self._check_sweep(result, points)
                sweeps.append((op, result[1]))
        (_, text_1), (op_2, text_2) = sweeps
        if text_1 is not None and text_2 is not None and text_1 != text_2:
            differ = sum(a != b for a, b in zip(text_1.splitlines(), text_2.splitlines()))
            op_2.failed = max(op_2.failed, differ)

    def _check_pip(self, grid) -> int:
        failed = 0
        for i, pr in enumerate(grid.resident_values):
            for j, pm in enumerate(grid.mutant_values):
                want = _expected_sign(float(pr), float(pm), self.kbar)
                if want is None:
                    self.notes["neutral_skipped"] += 1
                elif grid.signs[i, j] != want:
                    failed += 1
        return failed

    def _check_sweep(self, outcome, points) -> int:
        code, text = outcome
        if code != 0 or text is None:
            return len(points)
        lines = text.splitlines()
        header, body = lines[0], lines[1:]
        if header != "index,mutant_p,region,invade,verdict,lambda1" or len(body) != len(points):
            return len(points)
        failed = 0
        for k, (line, p) in enumerate(zip(body, points)):
            index, mutant_p, _, _, _, lam = line.split(",")
            if int(index) != k or float(mutant_p) != p:
                failed += 1
                continue
            want = _expected_sign(3.0, float(p), self.kbar)
            if want is None:
                self.notes["neutral_skipped"] += 1
                continue
            lam = float(lam)
            got = 1 if lam > pc.SIGN_TOL else -1 if lam < -pc.SIGN_TOL else 0
            failed += got != want
        return failed


class SignDraws:
    """``invasion_fitness`` on one random point of each invasion-table row.

    Every draw is a new landscape, environment and resident, so no resident
    state can be reused.  Draws inside the neutral band are redrawn and
    counted, as the acceptance test does.
    """

    name = "sign_draws"
    # draws differ in cost, so only whole passes of draws are compared
    select_by_pass = True
    tail_percentile = 95.0
    SIGNS = {
        "above_farther_loses": -1,
        "above_closer_wins": 1,
        "above_opposite_wins": 1,
        "below_closer_wins": 1,
        "below_farther_loses": -1,
        "below_opposite_wins": 1,
    }
    MAX_REDRAWS = 60

    def __init__(self, seed: int, small: bool = False, out_dir: Path | None = None):
        self.rng = np.random.default_rng(seed)
        self.per_patch = 100 if small else 800
        self.expected = dict(self.SIGNS)
        self.notes: Counter = Counter()

    def _draw(self, row: str):
        """A random parameter point inside one invasion-table row."""
        rng = self.rng
        x1 = rng.uniform(0.7, 1.3)
        land = pc.Landscape([0.0, x1, x1 + rng.uniform(0.7, 1.3)])
        env = pc.PatchEnvironment(r=rng.uniform(0.5, 2.0, 2), k=rng.uniform(0.5, 2.0, 2))
        kbar = pc.ifd_strategy(env).values[0]
        d_base = rng.uniform(0.5, 1.5, 2)
        shrink = rng.uniform(0.55, 1.0, 2)
        side, kind = row.split("_", 1)
        p = kbar * (rng.uniform(1.3, 2.2) if side == "above" else rng.uniform(0.45, 0.8))
        if kind == "farther_loses":
            ph = p * (rng.uniform(1.15, 1.8) if side == "above" else rng.uniform(0.45, 0.85))
            d, dh = d_base * shrink, d_base
        elif kind == "closer_wins":
            ph = p * (rng.uniform(0.45, 0.85) if side == "above" else rng.uniform(1.15, 1.8))
            d, dh = d_base, d_base * shrink
        else:
            ph = kbar * (rng.uniform(0.4, 0.8) if side == "above" else rng.uniform(1.25, 2.0))
            d, dh = d_base, rng.uniform(0.5, 1.5, 2)
        return land, env, _traits(d, [p]), _traits(dh, [ph])

    def run_pass(self) -> list[Op]:
        ops = []
        redraws = 0
        for row in self.SIGNS:
            while True:
                land, env, resident, mutant = self._draw(row)
                grid = pc.build_grid(land, per_patch=self.per_patch)
                t0 = perf_counter()
                try:
                    lam = pc.invasion_fitness(land, env, resident, mutant, grid).lambda1
                except pc.NumericalError:
                    lam = None
                latency = perf_counter() - t0
                if lam is not None and abs(lam) <= pc.SIGN_TOL and redraws < self.MAX_REDRAWS:
                    redraws += 1
                    ops.append(Op(row, latency, 1, (row, "neutral")))
                    continue
                ops.append(Op(row, latency, 1, (row, lam)))
                break
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            row, lam = op.data
            if lam == "neutral":
                self.notes["redraws"] += 1
                continue
            op.failed = 0 if lam is not None and np.sign(lam) == self.expected[row] else 1


WORKLOADS = {w.name: w for w in (TableRows, FineMarch, InvasionScan, SignDraws)}
