"""Run configuration: JSON parsing with field-path errors, defaults, overrides."""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Any

from .dynamics import SimConfig
from .errors import ValidationError, checked_number
from .grid import Grid, build_grid
from .landscape import (
    Landscape, PatchEnvironment, SpeciesTraits, StrategyVector, _float_tuple,
)
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


# Numeric fields that no section object checks, checked by ``checked_number``
# before any object is built (``SteadyConfig`` and ``SimConfig`` check their
# own); a field whose default is None may also be None.
_POSITIVE = (
    "eigen.sign_tol", "grid.target_h", "pip.resident_min", "pip.resident_max",
    "pip.mutant_min", "pip.mutant_max",
)
_COUNTS = ("pip.resident_count", "pip.mutant_count")


def _check_fields(merged: dict) -> None:
    for path in _POSITIVE + _COUNTS:
        section, key = path.split(".")
        value = merged[section][key]
        if value is not None or DEFAULTS[section][key] is not None:
            checked_number(value, path, count=path in _COUNTS)
    per_patch = merged["grid"]["per_patch"]
    if isinstance(per_patch, list):
        for i, value in enumerate(per_patch):
            checked_number(value, f"grid.per_patch[{i}]", count=True)
    elif per_patch is not None:
        checked_number(per_patch, "grid.per_patch", count=True)
    checked_number(merged["seed"], "seed", count=True, zero=True)
    checked_number(merged["workers"], "workers", count=True)
    if not isinstance(merged["sweep"]["fitness"], bool):
        raise ValidationError(
            f"sweep.fitness: must be true or false, got {merged['sweep']['fitness']!r}"
        )


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown configuration field: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValidationError(f"{where}: must be an object, got {value!r}")
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
        _check_fields(merged)
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
        eigen = merged["eigen"]
        if eigen["potential"] not in ("invasion", "steady-linearization", "zero"):
            raise ValidationError(
                "eigen.potential: must be invasion, steady-linearization or zero"
            )
        return cls(
            raw=merged,
            landscape=landscape,
            environment=environment,
            resident=resident,
            mutant=mutant,
            steady=SteadyConfig(**merged["steady"]),
            sim=SimConfig(**merged["sim"]),
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
        if not isinstance(d, (list, tuple)) or len(d) != n:
            raise ValidationError(
                f"{path}.d: must be a list of one diffusion rate per patch, got {d!r}"
            )
        try:
            if spec.get("alpha") is not None:
                return SpeciesTraits.from_preferences(d, spec["alpha"])
            if spec.get("p") is not None:
                # checked here so that its errors name ``p``
                return SpeciesTraits(d, StrategyVector(_float_tuple(spec["p"], "p")))
        except (ValidationError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        if n == 1:
            return SpeciesTraits(d, StrategyVector([]))
        raise ValidationError(f"{path}: provide jump ratios 'p' or preferences 'alpha'")

    def build_grid(self, resolution: float | None = None) -> Grid:
        """The grid of ``resolution``, else of ``grid.target_h``, else of
        ``grid.per_patch``; a grid error names the field it came from."""
        spec = self.raw["grid"]
        if resolution is not None:
            path, source = "resolution", {"target_h": checked_number(resolution, "resolution")}
        elif spec.get("target_h") is not None:
            path, source = "grid.target_h", {"target_h": spec["target_h"]}
        else:
            path, source = "grid.per_patch", {"per_patch": spec.get("per_patch", 100)}
        try:
            return build_grid(self.landscape, **source)
        except ValidationError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

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
