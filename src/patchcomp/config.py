"""Run configuration: JSON parsing with field-path errors, defaults, overrides."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Any

from .dynamics import SimConfig
from .errors import ValidationError
from .grid import Grid, build_grid
from .landscape import Landscape, PatchEnvironment, SpeciesTraits, StrategyVector
from .steady import SteadyConfig

ENV_PREFIX = "PATCHCOMP_"

DEFAULTS: dict[str, Any] = {
    "landscape": {"boundaries": [0.0, 1.0, 2.0]},
    "environment": {"r": [1.0, 1.0], "k": [1.0, 2.0]},
    "resident": {"d": [1.0, 1.0], "p": [3.0], "alpha": None},
    "mutant": {"d": [1.0, 1.0], "p": [2.5], "alpha": None},
    "grid": {"per_patch": 100, "target_h": None},
    "steady": {"newton_tol": 1e-10, "max_newton_iters": 50},
    "eigen": {"sign_tol": 1e-8, "potential": "invasion"},
    "sim": {
        "dt": None,
        "t_max": 2000.0,
        "steady_tol": 1e-8,
        "extinction_eps": None,
        "check_interval": 100,
        "snapshot_stride": None,
    },
    "pip": {
        "resident_min": 2.2,
        "resident_max": 4.0,
        "resident_count": 7,
        "mutant_min": 1.0,
        "mutant_max": 4.0,
        "mutant_count": 7,
    },
    "sweep": {"mutant_p": [], "mutant_d": None, "fitness": False},
    "output_dir": "out",
    "seed": 0,
    "workers": 1,
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown configuration field: {where}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class RunConfig:
    """Validated bundle of every object a command might need."""

    raw: dict[str, Any]
    landscape: Landscape
    environment: PatchEnvironment
    resident: SpeciesTraits
    mutant: SpeciesTraits
    steady: SteadyConfig
    sim: SimConfig
    sign_tol: float
    eigen_potential: str
    output_dir: str
    seed: int
    workers: int

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        merged = _merge(DEFAULTS, data)
        try:
            landscape = Landscape(merged["landscape"]["boundaries"])
        except (ValidationError, ValueError) as exc:
            raise ValidationError(f"landscape.boundaries: {exc}") from exc
        try:
            environment = PatchEnvironment(
                merged["environment"]["r"], merged["environment"]["k"]
            )
        except (ValidationError, ValueError) as exc:
            raise ValidationError(f"environment: {exc}") from exc
        if environment.n != landscape.n:
            raise ValidationError(
                "environment: r and k must have one entry per patch"
            )
        resident = cls._traits(merged["resident"], landscape.n, "resident")
        mutant = cls._traits(merged["mutant"], landscape.n, "mutant")
        try:
            steady = SteadyConfig(**merged["steady"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"steady: {exc}") from exc
        try:
            sim = SimConfig(**merged["sim"])
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"sim: {exc}") from exc
        eigen = merged["eigen"]
        if eigen["potential"] not in ("invasion", "steady-linearization", "zero"):
            raise ValidationError(
                "eigen.potential: must be invasion, steady-linearization or zero"
            )
        if not isinstance(merged["seed"], int):
            raise ValidationError("seed: must be an integer")
        if not isinstance(merged["workers"], int) or merged["workers"] < 1:
            raise ValidationError("workers: must be an integer of at least 1")
        return cls(
            raw=merged,
            landscape=landscape,
            environment=environment,
            resident=resident,
            mutant=mutant,
            steady=steady,
            sim=sim,
            sign_tol=float(eigen["sign_tol"]),
            eigen_potential=eigen["potential"],
            output_dir=str(merged["output_dir"]),
            seed=int(merged["seed"]),
            workers=merged["workers"],
        )

    @staticmethod
    def _traits(spec: dict, n: int, path: str) -> SpeciesTraits:
        if "d" not in spec:
            raise ValidationError(f"{path}.d: missing diffusion vector")
        d = spec["d"]
        if len(d) != n:
            raise ValidationError(f"{path}.d: need one diffusion rate per patch")
        try:
            if spec.get("alpha") is not None:
                return SpeciesTraits.from_preferences(d, spec["alpha"])
            if spec.get("p") is not None:
                return SpeciesTraits(d, StrategyVector(spec["p"]))
        except (ValidationError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        if n == 1:
            return SpeciesTraits(d, StrategyVector([]))
        raise ValidationError(f"{path}: provide jump ratios 'p' or preferences 'alpha'")

    def build_grid(self, resolution: float | None = None) -> Grid:
        spec = self.raw["grid"]
        if resolution is not None:
            return build_grid(self.landscape, target_h=resolution)
        if spec.get("target_h") is not None:
            return build_grid(self.landscape, target_h=spec["target_h"])
        return build_grid(self.landscape, per_patch=spec.get("per_patch", 100))

    def to_dict(self) -> dict[str, Any]:
        return copy.deepcopy(self.raw)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_config(path))


def read_config(path: str) -> dict[str, Any]:
    """The JSON object of a config file, not yet merged or validated."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    return data


def apply_env_overrides(args: dict[str, Any]) -> dict[str, Any]:
    """Environment variables mirror the CLI flags with a fixed prefix."""
    mapping = {
        "OUT": ("out", str),
        "SEED": ("seed", int),
        "RESOLUTION": ("resolution", float),
        "WORKERS": ("workers", int),
        "CONFIG": ("config", str),
    }
    out = dict(args)
    for env_key, (name, cast) in mapping.items():
        value = os.environ.get(ENV_PREFIX + env_key)
        if value is not None and out.get(name) is None:
            try:
                out[name] = cast(value)
            except ValueError as exc:
                raise ValidationError(f"{ENV_PREFIX + env_key}: {exc}") from exc
    return out
