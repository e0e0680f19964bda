"""Run one patchcomp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead.  Lines before it, starting with ``#``, record
the environment, the tail percentile with its sample counts, and the counts
behind every ratio.  Trace spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread: the box has 2 cores, the sweep runs 2 worker processes, and
# the thread count alone moves a table row by a quarter of its time.
BLAS_THREADS = "1"
SETUP_PROBES = 10
# Timings are read from the fastest twentieth (at least one) of each kind of
# timed unit in a run.  On the shared 2-vCPU host each vCPU switches, many
# times a second and for stretches of up to tens of seconds, between two speeds
# 1.4-1.8x apart; a median over all units follows the share of slow time in the
# run, which varies from run to run, while the fastest units sample the
# undisturbed speed.
FASTEST = 0.05
# The vCPUs change speed independently, so the run takes turns on each of them
# (a quarter second of passes at a time) and a stretch of slow time on one does
# not leave the run without fast units.
CPU_TURN_S = 0.25
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def pin_environment() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_program():
    """Import patchcomp from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import patchcomp
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import patchcomp from {src}: {exc}")
    if not Path(patchcomp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: patchcomp was imported from {patchcomp.__file__}")


def environment() -> dict:
    import numpy
    import scipy

    import patchcomp

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        # a checkout that is not a repository may sit inside another one
        commit = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "patchcomp": patchcomp.__version__,
        "commit": commit,
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from process start until a fresh process is ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
    return elapsed


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def fastest(untraced: list[tuple[float, list]], by_pass: bool):
    """The fastest twentieth (at least one) of each kind of timed unit, and the
    number of units of each kind.

    A unit is one call, grouped by ``Op.kind`` so that only equal work is
    compared; with ``by_pass`` it is a whole pass of calls on varied inputs.
    Each unit is ``(seconds, ops)``.
    """
    units: dict[str, list] = {}
    for wall, ops in untraced:
        if by_pass:
            units.setdefault("pass", []).append((wall, ops))
        else:
            for op in ops:
                units.setdefault(op.kind, []).append((op.latency, [op]))
    chosen = {
        kind: sorted(group, key=lambda unit: unit[0])[: max(1, int(len(group) * FASTEST))]
        for kind, group in units.items()
    }
    return chosen, {kind: len(group) for kind, group in units.items()}


def timing_metrics(untraced: list[tuple[float, list]], by_pass: bool, q: float,
                   info: dict) -> dict:
    """End-to-end timings of one run, read from its fastest units."""
    chosen, counts = fastest(untraced, by_pass)
    passes = len(untraced)
    latencies = [op.latency / op.evals for group in chosen.values()
                 for _, ops in group for op in ops for _ in range(op.evals)]
    fast_unit = {kind: statistics.median(t for t, _ in group) for kind, group in chosen.items()}
    # one pass at the fast speed: each kind's fast time, as often as a pass runs it
    wall = sum(fast_unit[kind] * counts[kind] / passes for kind in chosen)
    evals = sum(op.evals for _, ops in untraced for op in ops) / passes
    cut = percentile(latencies, q)
    info.update(
        timed_units={kind: [len(chosen[kind]), counts[kind]] for kind in chosen},
        fast_unit_s=fast_unit,
        tail_percentile=q,
        samples=len(latencies),
        samples_beyond_tail=sum(v > cut for v in latencies),
    )
    return {
        "wall_s": wall,
        "ops_per_s": evals / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * cut,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run passes of one workload for ``seconds``; return the result object.

    An untraced run spreads its set-up probes over the run.  A traced run
    alternates untraced and traced passes (at least one of each) so the
    tracing overhead is measured in the same process.
    """
    from tracer import Tracer
    from workloads import WORKLOADS, warm_lapack

    run_dir = OUT / f"{workload}-{os.getpid()}"
    wl = WORKLOADS[workload](seed, small=small, out_dir=run_dir)
    warm_lapack()
    tracer = Tracer() if trace else None
    probes = 0 if trace else SETUP_PROBES
    setup: list[float] = []

    passes: list[tuple[bool, float, list]] = []
    measured = 0.0
    traced = False
    cpus = sorted(os.sched_getaffinity(0))
    turn, next_turn = 0, 0.0
    try:
        while True:
            if len(cpus) > 1 and measured >= next_turn:
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
                turn += 1
                next_turn = measured + CPU_TURN_S
            if len(setup) < probes and measured >= len(setup) * seconds / probes:
                setup.append(probe_setup(workload, seed))
            if traced:
                tracer.install()
            t0 = perf_counter()
            try:
                ops = wl.run_pass()
            finally:
                wall = perf_counter() - t0
                if traced:
                    tracer.uninstall()
            wl.check(ops)
            measured += wall
            passes.append((traced, wall, ops))
            if measured >= seconds and len(setup) == probes and (tracer is None or traced):
                break
            traced = tracer is not None and not traced
    finally:
        os.sched_setaffinity(0, cpus)

    attempted = sum(op.evals for _, _, ops in passes for op in ops)
    failed = sum(min(op.failed, op.evals) for _, _, ops in passes for op in ops)
    info = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        **dict(wl.notes),
    }
    untraced = [(wall, ops) for traced, wall, ops in passes if not traced]
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace_{workload}.npz")
        traced_walls = [wall for traced, wall, _ in passes if traced]
        metrics = tracer.metrics(
            len(traced_walls), statistics.fmean(traced_walls),
            statistics.fmean(wall for wall, _ in untraced),
        )
    else:
        info["setup_probes_s"] = setup
        fast_setup = sorted(setup)[: max(1, int(len(setup) * FASTEST))]
        metrics = {
            "setup_s": statistics.median(fast_setup),
            **timing_metrics(untraced, wl.select_by_pass, wl.tail_percentile, info),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "info": info,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or per_layer_unit(k)}
                    for k, v in metrics.items()},
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_p50"):
        return "us"
    if name.endswith(("_ratio", "_frac", "per_fitness")):
        return "ratio"
    if name in ("dynamics.clip_total", "eigen.residual_max"):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment()
    import_program()
    from workloads import WORKLOADS, warm_lapack

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, out_dir=OUT)
        warm_lapack()
        print("ready", flush=True)
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print("# run " + json.dumps(result.pop("info"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
