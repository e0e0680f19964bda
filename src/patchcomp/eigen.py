"""Principal eigenvalue and eigenfunction of the linearized invasion operator.

The invader's linearization is its diffusion operator (with its own interface
conditions) plus the growth potential left over by the resident's steady
state.  The principal eigenvalue is the top of the spectrum; it is simple and
carries a positive eigenfunction, and its sign decides invasion when rare.

It is computed by Noda's inverse iteration (T. Noda, Numer. Math. 17, 1971;
L. Elsner, Linear Algebra Appl. 15, 1976): shifts from the Collatz-Wielandt
upper bound, one tridiagonal solve per pass, quadratic convergence.  This
needs the operator's couplings to be positive, as the assembled linearization's
always are; an operator without them is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenSolveError, ValidationError
from .grid import Grid, PiecewiseField
from .landscape import PatchEnvironment, SpeciesTraits
from .operators import (
    LinearOperator,
    assemble_diffusion,
    consistent_constant,
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
        c = restrict_diagonal(grid, traits_hat, values, weights=op.weights)
    return op.add_diagonal(c)


def principal_eigenpair(
    op: LinearOperator,
    tol: float = 1e-13,
    max_iters: int = 2000,
) -> EigenPair:
    """Top eigenvalue and positive eigenfunction of a reduced operator.

    Route: Noda's inverse iteration on ``A`` itself.  Starting from the
    jump-consistent constant (the kernel of the diffusion part), each pass
    takes the Rayleigh quotient of the iterate (weighted by ``op.weights``
    when the weighted matrix is symmetric, plain otherwise) and stops once the
    residual ``|A x - theta x|`` is at the tolerance, or has stopped falling
    at its rounding floor.  Otherwise it shifts to the Collatz-Wielandt bound
    ``max_i (A x)_i / x_i`` and solves once with ``sigma I - A``.  The shift
    is never below the top eigenvalue and closes on it quadratically, so a
    few O(N) tridiagonal solves suffice.

    Precondition: every coupling (off-diagonal entry) of ``A`` is positive.
    Then ``sigma I - A`` is an M-matrix, every iterate stays positive, and by
    Perron-Frobenius the positive eigenvector belongs to the top eigenvalue;
    an operator that breaks this raises EigenSolveError before any solve.
    The eigenfunction is positivity-checked and max-normalized;
    ``iterations`` counts the shifted solves (0 when the start is already an
    eigenvector, as for a constant potential).
    """
    if (op.up[:-1] <= 0).any() or (op.lo[1:] <= 0).any():
        raise EigenSolveError(
            "operator couplings are not all positive, so the principal "
            "eigenpair is not certified; refine grid"
        )
    weights = op.weights if op.symmetry_defect() <= 1e-10 else np.ones(op.size)
    scale = max(
        1.0, float(np.abs(op.di).max()), float(np.abs(op.up).max()),
        float(np.abs(op.lo).max()),
    )
    # keeps the rounded Collatz-Wielandt bound above the top eigenvalue
    margin = 8.0 * np.finfo(float).eps * scale
    floor = op.size * np.finfo(float).eps * scale
    x = consistent_constant(op.grid, op.traits)
    x /= x.max()
    iterations = 0
    previous = np.inf
    while True:
        ax = op.matvec(x)
        wx = weights * x
        theta = float(wx @ ax / (wx @ x))
        res = float(np.abs(ax - theta * x).max())
        # tested before any factorisation, so an exact eigenvector never
        # factors a singular sigma I - A.  The residual of a solved iterate
        # bottoms out at a rounding floor that grows with the size (measured
        # up to 0.13 * size * eps * scale, above the threshold from about
        # 2,000 DOFs on), so a pass that no longer lowers it, once under
        # size * eps * scale, also ends the loop.
        if res <= max(tol * max(1.0, abs(theta)), 5e-15 * scale) or (
            previous <= res <= floor
        ):
            break
        previous = res
        if iterations == max_iters:
            raise EigenSolveError(
                "principal eigen iteration did not converge; the operator may "
                "have a clustered leading spectrum"
            )
        sigma = float((ax / x).max()) + margin
        x = op.factor_shifted(sigma, -1.0)(x)
        x /= x[np.abs(x).argmax()]
        iterations += 1
        if x.min() <= 0:
            raise EigenSolveError(
                "principal eigenpair not isolated at this resolution; refine grid"
            )

    phi_full = expand_reduced(op.grid, op.traits, x)
    phi_full /= phi_full.max()
    phi = PiecewiseField(op.grid, phi_full)
    return EigenPair(lambda1=theta, phi=phi, residual=res, iterations=iterations)


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
