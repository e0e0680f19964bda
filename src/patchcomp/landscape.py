"""Landscape geometry, per-patch environment, species traits and strategy orderings.

The landscape is a chain of n adjacent one-dimensional patches.  A species is
described by a per-patch diffusion vector and a vector of interface jump
ratios: crossing the interface between patch i and patch i+1 multiplies the
density trace by the ratio p_i.  Jump ratios may be given directly or derived
from interface preferences (the probability of stepping into the right-hand
patch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import ValidationError


def _refuse_non_numbers(values, name: str) -> None:
    """A ValidationError naming ``name`` and the index for a bool or string
    entry of the one-dimensional ``values``, which numpy would read as a
    number (``True`` as 1.0, ``"1"`` as 1.0)."""
    for i, v in enumerate(values):
        if isinstance(v, (bool, np.bool_, str, bytes)):
            raise ValidationError(f"{name}[{i}] must be a number, got {v!r}")


def _float_tuple(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats: one conversion, with a
    ValidationError naming ``name`` for anything but a one-dimensional
    sequence of finite numbers."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    _refuse_non_numbers(values, name)
    out = tuple(arr.tolist())
    if not all(map(math.isfinite, out)):
        raise ValidationError(f"{name} must contain only finite values")
    return out


@dataclass(frozen=True)
class Landscape:
    """Patch boundaries x_0 < x_1 < ... < x_n with x_0 = 0."""

    boundaries: tuple[float, ...]

    def __init__(self, boundaries):
        object.__setattr__(self, "boundaries", _float_tuple(boundaries, "boundaries"))
        b = np.asarray(self.boundaries)
        if b.size < 2:
            raise ValidationError("a landscape needs at least one patch (two boundaries)")
        if b[0] != 0.0:
            raise ValidationError("the left boundary must sit at 0")
        if not np.all(np.diff(b) > 0):
            raise ValidationError("boundaries must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.boundaries) - 1

    @property
    def length(self) -> float:
        return self.boundaries[-1]

    @property
    def patch_lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.boundaries))

    def patch_bounds(self, i: int) -> tuple[float, float]:
        return self.boundaries[i], self.boundaries[i + 1]

    @property
    def interfaces(self) -> tuple[float, ...]:
        return self.boundaries[1:-1]


@dataclass(frozen=True)
class PatchEnvironment:
    """Per-patch intrinsic growth rates and carrying capacities."""

    r: tuple[float, ...]
    k: tuple[float, ...]

    def __init__(self, r, k):
        object.__setattr__(self, "r", _float_tuple(r, "r"))
        object.__setattr__(self, "k", _float_tuple(k, "k"))
        if len(self.r) != len(self.k):
            raise ValidationError("r and k must have the same length")
        if any(v <= 0 for v in self.r):
            raise ValidationError("all growth rates must be positive")
        if any(v <= 0 for v in self.k):
            raise ValidationError("all carrying capacities must be positive")

    @property
    def n(self) -> int:
        return len(self.r)

    @property
    def r_array(self) -> np.ndarray:
        return np.asarray(self.r)

    @property
    def k_array(self) -> np.ndarray:
        return np.asarray(self.k)


@dataclass(frozen=True)
class StrategyVector:
    """A positive vector of interface quantities (one entry per interface)."""

    values: tuple[float, ...]

    def __init__(self, values):
        object.__setattr__(self, "values", _float_tuple(values, "strategy values"))
        if any(v <= 0 for v in self.values):
            raise ValidationError("strategy entries must be positive")

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


@dataclass(frozen=True)
class SpeciesTraits:
    """Diffusion rates per patch plus interface jump ratios.

    ``jump.values[i]`` is the ratio between the right and left density traces
    at interface i.  For an n-patch landscape ``d`` has length n and ``jump``
    length n-1 (length 0 when n == 1).
    """

    d: tuple[float, ...]
    jump: StrategyVector

    def __init__(self, d, jump):
        object.__setattr__(self, "d", _float_tuple(d, "d"))
        if any(v <= 0 for v in self.d):
            raise ValidationError("all diffusion rates must be positive")
        if not isinstance(jump, StrategyVector):
            jump = StrategyVector(jump)
        object.__setattr__(self, "jump", jump)
        if len(jump) != len(self.d) - 1:
            raise ValidationError("jump vector must have one entry per interface")
        # left to right, as np.cumprod multiplies
        scales = np.array(list(accumulate(jump.values, mul, initial=1.0)))
        scales.flags.writeable = False
        object.__setattr__(self, "_scales", scales)

    @classmethod
    def from_preferences(cls, d, alpha) -> "SpeciesTraits":
        return cls(d, derive_jump_ratios(alpha, d))

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def d_array(self) -> np.ndarray:
        return np.asarray(self.d)

    @property
    def p_array(self) -> np.ndarray:
        return self.jump.as_array()

    def preferences(self) -> np.ndarray:
        """Invert the jump ratios back to interface preferences."""
        return recover_preferences(self.jump, self.d_array)

    def cumulative_scales(self) -> np.ndarray:
        """Per-patch products of the jump ratios left of the patch (first = 1),
        computed once per traits object; the array is read-only."""
        return self._scales


class RegionLabel(str, Enum):
    L1 = "L1"
    L1STAR = "L1star"
    L2 = "L2"
    L3 = "L3"
    S1 = "S1"
    S1STAR = "S1star"
    S2 = "S2"
    S3 = "S3"
    IFD_RESIDENT = "IFDResident"
    UNCLASSIFIED = "Unclassified"


def ifd_strategy(env: PatchEnvironment) -> StrategyVector:
    """Capacity-ratio jump vector (k_2/k_1, ..., k_n/k_{n-1}).

    A resident adopting it sits exactly on the carrying-capacity profile, so
    no rare competitor gains any growth advantage.
    """
    if env.n < 2:
        raise ValidationError("no interfaces: the landscape has a single patch")
    k = env.k
    return StrategyVector([right / left for left, right in zip(k, k[1:])])


def derive_jump_ratios(alpha, d) -> StrategyVector:
    """Jump ratios from interface preferences: p_i = alpha_i/(1-alpha_i) * d_i/d_{i+1}."""
    given, alpha = alpha, np.asarray(alpha, dtype=float)
    d = np.asarray(d, dtype=float)
    if alpha.ndim != 1 or d.ndim != 1 or alpha.size != d.size - 1:
        raise ValidationError("need one preference per interface (len(alpha) == len(d) - 1)")
    _refuse_non_numbers(given, "alpha")
    if not np.isfinite(alpha).all():  # NaN passes the range test below
        raise ValidationError("alpha must contain only finite values")
    if np.any(alpha <= 0) or np.any(alpha >= 1):
        raise ValidationError("preferences must lie strictly inside (0, 1)")
    if np.any(d <= 0):
        raise ValidationError("diffusion rates must be positive")
    return StrategyVector(alpha / (1.0 - alpha) * d[:-1] / d[1:])


def recover_preferences(p: StrategyVector, d) -> np.ndarray:
    """Inverse of :func:`derive_jump_ratios`: alpha_i = p_i d_{i+1} / (d_i + p_i d_{i+1})."""
    d = np.asarray(d, dtype=float)
    pv = p.as_array()
    if pv.size != d.size - 1:
        raise ValidationError("dimension mismatch between jump vector and diffusion vector")
    return pv * d[1:] / (d[:-1] + pv * d[1:])


def _pair(a: StrategyVector, b: StrategyVector) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if len(a.values) != len(b.values):
        raise ValidationError("strategy vectors must have equal length")
    return a.values, b.values


# The orderings compare the value tuples: Python floats order exactly as
# float64 arrays do, without an array round trip per comparison.
def strict_dominates(a: StrategyVector, b: StrategyVector) -> bool:
    """Componentwise strict order: a_i > b_i for every i.  Exact, no tolerance."""
    av, bv = _pair(a, b)
    return all(x > y for x, y in zip(av, bv))


def weakly_dominates(a: StrategyVector, b: StrategyVector) -> bool:
    """Componentwise order: a_i >= b_i for every i."""
    av, bv = _pair(a, b)
    return all(x >= y for x, y in zip(av, bv))


def opposite_sides(a: StrategyVector, b: StrategyVector, ref: StrategyVector) -> bool:
    """True iff one vector strictly dominates ref and ref strictly dominates the other."""
    return (strict_dominates(a, ref) and strict_dominates(ref, b)) or (
        strict_dominates(b, ref) and strict_dominates(ref, a)
    )


def _weak_d(a, b) -> bool:
    a, b = (np.asarray(v, dtype=float).ravel().tolist() for v in (a, b))
    if len(a) != len(b):
        raise ValidationError("diffusion vectors must have equal length")
    return all(x >= y for x, y in zip(a, b))


def classify_region(
    p: StrategyVector,
    p_hat: StrategyVector,
    d,
    d_hat,
    kbar: StrategyVector,
) -> RegionLabel:
    """Place a (resident, mutant) trait pair into one of the theory regions.

    Region boundaries (any tie in the strict orderings) fall through to
    ``Unclassified``: the supporting theory covers strict componentwise
    orderings only, so nothing is guessed there.  The opposite-side regions
    take precedence over the plain same-side ones because they carry the
    stronger (diffusion-free) conclusion.
    """
    pv, kv = _pair(p, kbar)
    if not pv:
        raise ValidationError("region classification needs at least two patches")
    if pv == kv:
        return RegionLabel.IFD_RESIDENT

    p_gg_phat = strict_dominates(p, p_hat)
    phat_gg_p = strict_dominates(p_hat, p)
    d_ge_dhat = _weak_d(d, d_hat)
    dhat_ge_d = _weak_d(d_hat, d)

    if strict_dominates(p, kbar):
        if p_gg_phat and d_ge_dhat and strict_dominates(p_hat, kbar):
            return RegionLabel.L1STAR
        if phat_gg_p and dhat_ge_d:
            return RegionLabel.L2
        if strict_dominates(kbar, p_hat):
            return RegionLabel.L3
        if p_gg_phat and d_ge_dhat:
            return RegionLabel.L1
        return RegionLabel.UNCLASSIFIED

    if strict_dominates(kbar, p):
        if phat_gg_p and d_ge_dhat and strict_dominates(kbar, p_hat):
            return RegionLabel.S1STAR
        if p_gg_phat and dhat_ge_d:
            return RegionLabel.S2
        if strict_dominates(p_hat, kbar):
            return RegionLabel.S3
        if phat_gg_p and d_ge_dhat:
            return RegionLabel.S1
        return RegionLabel.UNCLASSIFIED

    return RegionLabel.UNCLASSIFIED
