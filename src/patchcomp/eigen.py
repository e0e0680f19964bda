"""Principal eigenvalue and eigenfunction of the linearized invasion operator.

The invader's linearization is its diffusion operator (with its own interface
conditions) plus the growth potential left over by the resident's steady
state.  The principal eigenvalue is the top of the spectrum; it is simple and
carries a positive eigenfunction, and its sign decides invasion when rare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import EigenSolveError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import PatchEnvironment, SpeciesTraits
from .operators import (
    LinearOperator,
    assemble_diffusion,
    env_on_dofs,
    expand_reduced,
    restrict_diagonal,
)
from .steady import SteadyConfig, solve_resident_steady

SIGN_TOL = 1e-8


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue with its positive max-normalized eigenfunction."""

    lambda1: float
    phi: PiecewiseField
    residual: float
    iterations: int

    def sign(self, tol: float = SIGN_TOL) -> int:
        """-1, 0 (within the neutral band) or +1."""
        if self.lambda1 > tol:
            return 1
        if self.lambda1 < -tol:
            return -1
        return 0


def assemble_linearization(
    grid: Grid, traits_hat: SpeciesTraits, potential
) -> LinearOperator:
    """Invader diffusion plus a multiplicative growth potential.

    ``potential`` may be a PiecewiseField, a full DOF vector, or a scalar.
    """
    op = assemble_diffusion(grid, traits_hat)
    if np.isscalar(potential):
        c = np.full(grid.num_reduced, float(potential))
    else:
        values = potential.values if isinstance(potential, PiecewiseField) else potential
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.num_dofs,):
            raise ValidationError("potential must be sampled on the grid's full DOFs")
        c = restrict_diagonal(grid, traits_hat, values)
    return op.add_diagonal(c)


def _gershgorin_upper(di: np.ndarray, off: np.ndarray) -> float:
    radius = np.zeros_like(di)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return float((di + radius).max())


def _tridiag_matvec(di, off, x):
    y = di * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _solve_shifted_sym(sigma, di, off, rhs):
    from scipy.linalg import solveh_banded

    ab = np.zeros((2, di.size))
    ab[0, 1:] = -off
    ab[1, :] = sigma - di
    return solveh_banded(ab, rhs)


def principal_eigenpair(
    op: LinearOperator,
    tol: float = 1e-13,
    max_iters: int = 2000,
) -> EigenPair:
    """Top eigenvalue and positive eigenfunction of a reduced operator.

    Route: similarity transform by the square roots of the symmetrization
    weights, then inverse iteration shifted just above the Gershgorin upper
    bound.  If the iteration stalls, the exact tridiagonal eigensolver takes
    over.  The eigenfunction is positivity-checked and max-normalized.
    """
    symmetric = op.symmetry_defect() <= 1e-10
    size = op.size

    if symmetric:
        di, off = op.symmetrized_bands()
        scale = max(1.0, float(np.abs(di).max()), float(np.abs(off).max()) if off.size else 0.0)
        # extreme eigenvalue by bisection, eigenfunction by shifted inverse
        # iteration; shifting right at the eigenvalue makes each sweep contract
        # by the (tiny) shift gap over the spectral gap
        lam = float(
            eigh_tridiagonal(
                di, off, eigvals_only=True, select="i", select_range=(size - 1, size - 1)
            )[0]
        )
        delta = max(1e-10 * scale, 1e-10)
        x = np.ones(size) / np.sqrt(size)
        theta = lam
        converged = False
        iterations = 0
        while not converged and iterations < max_iters:
            sigma = lam + delta
            try:
                for _ in range(12):
                    iterations += 1
                    x = _solve_shifted_sym(sigma, di, off, x)
                    x /= np.linalg.norm(x)
                    ax = _tridiag_matvec(di, off, x)
                    theta = float(x @ ax)
                    res = float(np.abs(ax - theta * x).max())
                    if res <= max(tol * max(1.0, abs(theta)), 5e-15 * scale):
                        converged = True
                        break
                else:
                    delta *= 100.0  # slow contraction: λ2 within δ of λ1; widen
            except np.linalg.LinAlgError:
                delta *= 100.0
            if delta > max(1.0, abs(lam)) * 1e6:
                break
        if not converged:
            # robust fallback: Gershgorin-shifted fixed-point iteration
            sigma = _gershgorin_upper(di, off) + 1e-6 * scale
            x = np.ones(size) / np.sqrt(size)
            for iterations in range(iterations + 1, max_iters + 1):
                x = _solve_shifted_sym(sigma, di, off, x)
                x /= np.linalg.norm(x)
                ax = _tridiag_matvec(di, off, x)
                theta = float(x @ ax)
                res = float(np.abs(ax - theta * x).max())
                if res <= max(tol * max(1.0, abs(theta)), 5e-15 * scale):
                    break
        sqrt_w = np.sqrt(op.weights)
        phi_red = x / sqrt_w
    else:
        # potentials that break the weight structure: inverse power on A itself
        scale = max(1.0, float(np.abs(op.di).max()))
        sigma = (
            float((op.di + np.abs(op.lo) + np.abs(op.up)).max()) + 1e-6 * scale
        )
        x = np.ones(size) / np.sqrt(size)
        theta = 0.0
        res = np.inf
        iterations = 0
        solve = op.factor_shifted(sigma, -1.0)
        for iterations in range(1, max_iters + 1):
            x = solve(x)
            x /= np.linalg.norm(x)
            ax = op.matvec(x)
            theta = float(x @ ax)
            res = float(np.abs(ax - theta * x).max())
            if res <= max(tol * max(1.0, abs(theta)), 5e-15 * scale):
                break
        if res > 1e-6 * scale:
            raise EigenSolveError(
                "inverse-power fallback did not converge; the operator may "
                "have complex or clustered leading spectrum"
            )
        phi_red = x

    if phi_red[np.abs(phi_red).argmax()] < 0:
        phi_red = -phi_red
    if phi_red.min() <= 0:
        raise EigenSolveError(
            "principal eigenpair not isolated at this resolution; refine grid"
        )

    phi_full = expand_reduced(op.grid, op.traits, phi_red)
    phi_full /= phi_full.max()
    phi = PiecewiseField(op.grid, phi_full)
    res_a = float(np.abs(op.matvec(phi_red) - theta * phi_red).max() / np.abs(phi_red).max())
    return EigenPair(lambda1=theta, phi=phi, residual=res_a, iterations=iterations)


def growth_potential(
    grid: Grid, env: PatchEnvironment, ustar: PiecewiseField, factor: float = 1.0
) -> np.ndarray:
    """Potential r (1 - factor * u* / k) on the full DOFs."""
    r_full, k_full = env_on_dofs(grid, env)
    return r_full * (1.0 - factor * ustar.values / k_full)


def invasion_fitness(
    landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    config: SteadyConfig | None = None,
    ustar: PiecewiseField | None = None,
) -> EigenPair:
    """Principal eigenvalue of the mutant's linearization at the resident state.

    Positive: the mutant invades when rare (the resident-only state is
    unstable).  Negative: it cannot.  Within the neutral band the sign is not
    called.  A precomputed resident steady state can be passed to amortize
    scans over many mutants.
    """
    if ustar is None:
        ustar = solve_resident_steady(landscape, env, resident, grid, config)
    potential = growth_potential(grid, env, ustar)
    op = assemble_linearization(grid, mutant, potential)
    return principal_eigenpair(op)


def resident_self_eigenpair(
    landscape,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    grid: Grid,
    config: SteadyConfig | None = None,
    ustar: PiecewiseField | None = None,
) -> EigenPair:
    """Eigenpair of the resident's own linearization around its steady state.

    Uses the potential r (1 - 2 u*/k) with the resident's interface
    conditions; its principal eigenvalue is negative whenever u* is the
    attracting single-species state.
    """
    if ustar is None:
        ustar = solve_resident_steady(landscape, env, resident, grid, config)
    potential = growth_potential(grid, env, ustar, factor=2.0)
    op = assemble_linearization(grid, resident, potential)
    return principal_eigenpair(op)
