"""Change of variables that removes the density jumps.

Rescaling each patch's coordinate by the running product of jump ratios and
dividing the density by the same product turns the jump-interface problem into
one with continuous density and flux and piecewise-constant coefficients.
This module implements the rescaling both ways and a finite-volume steady
solver on the rescaled problem, used as an independent oracle for the direct
jump-aware route.  Only the discretization is its own: the Newton loop is
``steady.newton`` and the product ``operators.tridiagonal_matvec``,
the ones the direct route uses; its Jacobian's couplings move with the
iterate, so each step builds their ``symmetrizing_similarity`` afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SteadyConvergenceError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import Landscape, PatchEnvironment, SpeciesTraits
from .operators import symmetrizing_similarity, tridiagonal_matvec
from .steady import SteadyConfig, newton

# tighter than the direct route's default: the oracle is compared against it
ORACLE_CONFIG = SteadyConfig(newton_tol=1e-11, max_newton_iters=80)


@dataclass(frozen=True)
class TransformedProblem:
    """Continuous-density equivalent of a single-species jump problem."""

    xi_boundaries: tuple[float, ...]
    diffusion: tuple[float, ...]
    ktilde: tuple[float, ...]
    growth: tuple[float, ...]
    scale: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.diffusion)


def to_transformed(
    landscape: Landscape, env: PatchEnvironment, traits: SpeciesTraits
) -> TransformedProblem:
    """Rescaled boundaries, diffusivities and capacities of the continuous form."""
    if env.n != landscape.n or traits.n != landscape.n:
        raise ValidationError("landscape, environment and traits must agree in size")
    s = traits.cumulative_scales()
    lengths = landscape.patch_lengths
    xi = np.concatenate(([0.0], np.cumsum(s * lengths)))
    d_t = traits.d_array * s**2
    k_t = env.k_array / s
    return TransformedProblem(
        xi_boundaries=tuple(float(v) for v in xi),
        diffusion=tuple(float(v) for v in d_t),
        ktilde=tuple(float(v) for v in k_t),
        growth=env.r,
        scale=tuple(float(v) for v in s),
    )


def shared_node_count(grid: Grid) -> int:
    return sum(grid.counts) + 1


def shared_node_offsets(grid: Grid) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(np.asarray(grid.counts))))


def pull_back(w: np.ndarray, problem: TransformedProblem, grid: Grid) -> PiecewiseField:
    """Map a continuous-form solution back to the physical dual-trace layout."""
    w = np.asarray(w, dtype=float)
    if w.shape != (shared_node_count(grid),):
        raise ValidationError(
            f"transformed field needs {shared_node_count(grid)} shared-node values, got {w.shape}"
        )
    off = shared_node_offsets(grid)
    full = np.empty(grid.num_dofs)
    for i in range(grid.n):
        full[grid.patch_slice(i)] = problem.scale[i] * w[off[i] : off[i + 1] + 1]
    return PiecewiseField(grid, full)


def push_forward(field: PiecewiseField, problem: TransformedProblem) -> np.ndarray:
    """Inverse of :func:`pull_back`; left traces win at the shared nodes."""
    grid = field.grid
    off = shared_node_offsets(grid)
    w = np.empty(shared_node_count(grid))
    for i in range(grid.n):
        w[off[i] : off[i + 1] + 1] = field.patch_values(i) / problem.scale[i]
    return w


def _fv_operator(problem: TransformedProblem, grid: Grid):
    """Flux-form tridiagonal Laplacian on the shared-node rescaled grid.

    Returns bands (lo, di, up), dual-cell volumes, and per-node reaction
    weights (left-cell, right-cell, patch-left, patch-right).
    """
    n = grid.n
    off = shared_node_offsets(grid)
    size = shared_node_count(grid)
    s = np.asarray(problem.scale)
    h = np.asarray([grid.spacing(i) for i in range(n)]) * s
    d_t = np.asarray(problem.diffusion)

    lo = np.zeros(size)
    di = np.zeros(size)
    up = np.zeros(size)
    vol = np.zeros(size)
    for i in range(n):
        a, b = off[i], off[i + 1]
        c = d_t[i] / h[i]
        di[a:b] -= c
        up[a:b] += c
        di[a + 1 : b + 1] -= c
        lo[a + 1 : b + 1] += c
        vol[a:b] += h[i] / 2.0
        vol[a + 1 : b + 1] += h[i] / 2.0
    return lo / vol, di / vol, up / vol, vol, h


def _fv_reaction(problem: TransformedProblem, grid: Grid, w: np.ndarray, vol, h):
    """Element-integrated logistic reaction r w (1 - w/ktilde).

    Uses the consistent (non-lumped) load of the linear interpolant, which
    keeps this route's discretization genuinely distinct from the direct one
    while staying second order.  Returns the load and its Jacobian bands.
    """
    off = shared_node_offsets(grid)
    r = np.asarray(problem.growth)
    kt = np.asarray(problem.ktilde)
    out = np.zeros_like(w)
    jlo = np.zeros_like(w)
    jdi = np.zeros_like(w)
    jup = np.zeros_like(w)
    for i in range(grid.n):
        a, b = off[i], off[i + 1]
        f = r[i] * w[a : b + 1] * (1.0 - w[a : b + 1] / kt[i])
        fp = r[i] * (1.0 - 2.0 * w[a : b + 1] / kt[i])
        sixth = h[i] / 6.0
        out[a:b] += sixth * (2.0 * f[:-1] + f[1:])
        out[a + 1 : b + 1] += sixth * (f[:-1] + 2.0 * f[1:])
        jdi[a:b] += 2.0 * sixth * fp[:-1]
        jup[a:b] += sixth * fp[1:]
        jdi[a + 1 : b + 1] += 2.0 * sixth * fp[1:]
        jlo[a + 1 : b + 1] += sixth * fp[:-1]
    return out / vol, (jlo / vol, jdi / vol, jup / vol)


def solve_transformed_steady(
    landscape: Landscape,
    env: PatchEnvironment,
    traits: SpeciesTraits,
    grid: Grid,
) -> PiecewiseField:
    """Steady state through the continuous-form route (the oracle path).

    Newton runs on this module's own discretization from the rescaled
    capacities (its ``a / b``), with no fallback: an exhausted Newton,
    or a Jacobian whose couplings are not positive, raises
    SteadyConvergenceError.
    """
    problem = to_transformed(landscape, env, traits)
    lo, di, up, vol, h = _fv_operator(problem, grid)
    kt = np.asarray(problem.ktilde)
    offsets = shared_node_offsets(grid)

    w = np.empty(shared_node_count(grid))
    for i in range(grid.n):
        w[offsets[i] : offsets[i + 1] + 1] = kt[i]

    def residual(stack):
        wv = stack[0]  # newton's stack of one
        react, (jlo, jdi, jup) = _fv_reaction(problem, grid, wv, vol, h)
        y = tridiagonal_matvec(lo, di, up, wv)
        y += react
        jlo += lo
        jup += up
        try:
            # two negative couplings would pass the similarity's range check
            if not (jlo[1:].min() > 0 and jup[:-1].min() > 0):
                raise ValueError("Jacobian couplings are not positive")
            s, _, off = symmetrizing_similarity(jlo, jup)
        except ValueError as err:
            raise SteadyConvergenceError(
                f"continuous-form Newton: {err}", residual=float(np.abs(y).max())
            ) from None
        return y[None], ((di + jdi)[None], s[None], off[None])

    row_scale = float((np.abs(di) + np.abs(lo) + np.abs(up)).max())
    w, norm, converged, _ = newton(residual, w[None], kt.max(), row_scale, ORACLE_CONFIG)
    if not converged[0]:
        raise SteadyConvergenceError(
            "continuous-form Newton did not converge", residual=float(norm[0])
        )
    return pull_back(w[0], problem, grid)
