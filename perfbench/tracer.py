"""Span tracing of patchcomp from the outside.

The tracer wraps the package's public callables at every site where they are
bound: the defining module, every module that imported the name, and the
package namespace; methods are wrapped once on their class.  Each call becomes
a span (name, start, end, parent) kept in compact in-memory arrays; self time
is a span's duration minus the time its child spans cover.  A few hooks read
counts off the results (eigen iterations, simulate steps, verdicts).

Nothing in ``src/`` is edited: ``install`` swaps the bindings and
``uninstall`` restores the originals, so untraced and traced passes can
alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

# Measured layers and the public callables timed in each.  ``identities``,
# ``transform`` and ``validate`` are diagnostics that no timed user path runs;
# ``landscape`` and ``errors`` are too thin to time.
TARGETS: dict[str, tuple[str, ...]] = {
    "config": (
        "RunConfig.from_dict", "RunConfig.load", "RunConfig.build_grid",
        "apply_env_overrides",
    ),
    "grid": ("build_grid", "integrate_field"),
    "operators": (
        "assemble_diffusion", "expand_reduced", "restrict_values",
        "restrict_cell_average", "restrict_diagonal", "env_on_dofs",
        "consistent_constant", "SpeciesLayout.__init__", "SpeciesLayout.expand",
        "SpeciesLayout.restrict_avg", "LinearOperator.matvec",
        "LinearOperator.add_diagonal", "LinearOperator.banded",
        "LinearOperator.dense", "LinearOperator.solve_shifted",
        "LinearOperator.symmetrized_bands", "LinearOperator.symmetry_defect",
    ),
    "steady": ("solve_resident_steady", "monotonicity_report"),
    "eigen": (
        "principal_eigenpair", "assemble_linearization", "growth_potential",
        "invasion_fitness", "resident_self_eigenpair",
    ),
    "dynamics": (
        "simulate", "classify_outcome", "order_preservation_check",
        "default_initial", "bounding_level", "Stepper.__init__", "Stepper.step",
        "Stepper.steady_residuals",
    ),
    "analysis": (
        "pip", "css_check", "nis_check", "ess_check", "predict_outcome",
        "stability_table", "cross_validate",
    ),
    "cli": ("run_command",),
}

LAYERS = tuple(TARGETS)


class Tracer:
    """Records spans for the wrapped callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.first_steps: list[float] = []
        self._stepped = weakref.WeakSet()
        self._stack = [-1]
        self._child = [0.0]
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_id, parent, start, end, self_time = (
            self.name_id, self.parent, self.start, self.end, self.self_time
        )
        stack, child = self._stack, self._child

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            self_time.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                end[idx] = t1
                self_time[idx] = dur - child.pop()
                child[-1] += dur
            if hook is not None:
                hook(args, result, dur)
            return result

        return functools.wraps(fn)(traced)

    def _build(self) -> None:
        hooks = {
            "eigen.principal_eigenpair": self._on_eigen,
            "dynamics.simulate": self._on_simulate,
            "dynamics.classify_outcome": self._on_classify,
            "dynamics.Stepper.step": self._on_step,
        }
        package = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "patchcomp" or name.startswith("patchcomp."))
        ]
        for layer, targets in TARGETS.items():
            module = importlib.import_module(f"patchcomp.{layer}")
            for target in targets:
                span = f"{layer}.{target}"
                hook = hooks.get(span)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(span, raw.__func__, hook))
                    else:
                        wrapped = self._wrap(span, raw, hook)
                    self._patches.append((cls, attr, raw, wrapped))
                    continue
                fn = getattr(module, target)
                wrapped = self._wrap(span, fn, hook)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- result hooks -----------------------------------------------------
    def _on_eigen(self, args, pair, dur) -> None:
        self.counts["eigen.iterations"] += pair.iterations
        self.counts["eigen.residual_max"] = max(
            self.counts["eigen.residual_max"], pair.residual
        )

    def _on_simulate(self, args, record, dur) -> None:
        self.counts["dynamics.steps_to_verdict"] += record.steps
        self.counts["dynamics.box_violations"] += record.diagnostics["box_violations"]
        self.counts["dynamics.clip_total"] += record.diagnostics["clip_total"]

    def _on_classify(self, args, verdict, dur) -> None:
        if verdict != "Undetermined":
            self.counts["dynamics.classify_outcome.decisive"] += 1

    def _on_step(self, args, result, dur) -> None:
        stepper = args[0]
        if stepper not in self._stepped:
            self._stepped.add(stepper)
            self.first_steps.append(dur)

    # -- results ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "self": np.frombuffer(self.self_time, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self, passes: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics, per traced pass; ``*_wall_s`` are per-pass means."""
        a = self.arrays()
        ids, selfs = a["name_id"], a["self"]
        durs = a["end"] - a["start"]
        index = {name: i for i, name in enumerate(self.names)}

        def pick(*spans):
            mask = np.isin(ids, [index[s] for s in spans])
            return selfs[mask], durs[mask]

        def calls(*spans):
            return int(pick(*spans)[0].size) / passes

        def self_s(*spans):
            return float(pick(*spans)[0].sum()) / passes

        def p50(values, scale):
            return float(np.median(values)) * scale if values.size else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        step_self, _ = pick("dynamics.Stepper.step")
        steady = "steady.solve_resident_steady"
        eigen = "eigen.principal_eigenpair"
        classify = calls("dynamics.classify_outcome")
        m = {
            "dynamics.step.calls": calls("dynamics.Stepper.step"),
            "dynamics.step.self_us_p50": p50(step_self, 1e6),
            "dynamics.step.self_s": self_s("dynamics.Stepper.step"),
            "dynamics.first_step_ms": (
                1e3 * float(np.mean(self.first_steps)) if self.first_steps else 0.0
            ),
            "dynamics.steps_to_verdict": self.counts["dynamics.steps_to_verdict"] / passes,
            "dynamics.simulate.self_s": self_s("dynamics.simulate"),
            "dynamics.steady_residuals.calls": calls("dynamics.Stepper.steady_residuals"),
            "dynamics.classify_outcome.calls": classify,
            "dynamics.classify_outcome.decisive_ratio": ratio(
                self.counts["dynamics.classify_outcome.decisive"] / passes, classify
            ),
            "dynamics.box_violations": self.counts["dynamics.box_violations"] / passes,
            "dynamics.clip_total": self.counts["dynamics.clip_total"] / passes,
            "operators.layout.self_s": self_s(
                "operators.SpeciesLayout.expand", "operators.SpeciesLayout.restrict_avg"
            ),
            "operators.expand_reduced.calls": calls("operators.expand_reduced"),
            "operators.expand_reduced.self_s": self_s("operators.expand_reduced"),
            "operators.assemble_diffusion.calls": calls("operators.assemble_diffusion"),
            "operators.assemble_diffusion.self_s": self_s("operators.assemble_diffusion"),
            "steady.solve.calls": calls(steady),
            "steady.solve.self_s": self_s(steady),
            "steady.solve.p50_ms": p50(pick(steady)[1], 1e3),
            "steady.solves_per_fitness": ratio(calls(steady), calls(eigen)),
            "eigen.principal.calls": calls(eigen),
            "eigen.principal.self_s": self_s(eigen),
            "eigen.principal.p50_ms": p50(pick(eigen)[1], 1e3),
            "eigen.iterations": self.counts["eigen.iterations"] / passes,
            "eigen.residual_max": self.counts["eigen.residual_max"],
            "analysis.pip.self_s": self_s("analysis.pip"),
            "analysis.strategy_checks.self_s": self_s(
                "analysis.css_check", "analysis.nis_check", "analysis.ess_check"
            ),
            "config.from_dict.calls": calls("config.RunConfig.from_dict"),
            "config.from_dict.self_s": self_s("config.RunConfig.from_dict"),
            "grid.build_grid.calls": calls("grid.build_grid"),
            "cli.run_command.self_s": self_s("cli.run_command"),
        }
        layer_of = np.array([name.split(".", 1)[0] for name in self.names])
        layer_ids = layer_of[ids] if ids.size else np.array([], dtype=str)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(selfs[layer_ids == layer].sum()) / passes
        spans_s = float(selfs.sum()) / passes
        m["bench.self_s"] = traced_wall_s - spans_s
        m["trace.traced_wall_s"] = traced_wall_s
        m["trace.untraced_wall_s"] = untraced_wall_s
        m["trace.overhead_frac"] = ratio(traced_wall_s - untraced_wall_s, untraced_wall_s)
        return m
