"""Integral identities used as residual diagnostics.

Both identities come from multiplying the governing equations by weighted
partner functions and integrating by parts across the interfaces; the jump
products telescope so only interface mismatch terms and diffusion-contrast
integrals survive.  Evaluated discretely they vanish to second order, which
makes them sharp consistency checks on solver output.  The trailing jump
ratio is taken as 1, matching the telescoping convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import (
    Grid,
    PiecewiseField,
    one_sided_from_left,
    one_sided_from_right,
    patch_derivative,
)
from .landscape import PatchEnvironment, SpeciesTraits
from .eigen import EigenPair

_EPS = 1e-30
_STEADY_TOL = 1e-5  # largest pair residual a near-steady state may have


def _suffix_products(p: np.ndarray, n: int) -> np.ndarray:
    """suffix[j] = product of jump ratios from interface j through the end."""
    out = np.ones(n)
    for j in range(n - 2, -1, -1):
        out[j] = p[j] * out[j + 1]
    return out


def invasion_identity_residual(
    ustar: PiecewiseField,
    eig: EigenPair,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
) -> float:
    """Relative defect of the fitness balance identity.

    The eigenvalue times the weighted overlap of eigenfunction and resident
    state must equal the interface terms carrying the jump-ratio contrast plus
    the gradient integrals carrying the diffusion contrast.  One-sided
    derivatives use three-point stencils, integrals the composite trapezoid.
    """
    if ustar.grid != grid or eig.phi.grid != grid:
        raise ValidationError("fields must live on the provided grid")
    n = grid.n
    p = resident.p_array
    p_hat = mutant.p_array
    d = resident.d_array
    d_hat = mutant.d_array
    suffix = _suffix_products(p, n)

    overlap = 0.0
    rhs = 0.0
    for j in range(n):
        h = grid.spacing(j)
        u_j = ustar.patch_values(j)
        phi_j = eig.phi.patch_values(j)
        overlap += suffix[j] * np.trapezoid(phi_j * u_j, dx=h)
        du = patch_derivative(u_j, h)
        dphi = patch_derivative(phi_j, h)
        rhs += suffix[j] * (d[j] - d_hat[j]) * np.trapezoid(dphi * du, dx=h)
    lhs = eig.lambda1 * overlap

    for m in range(n - 1):
        h = grid.spacing(m)
        u_m = ustar.patch_values(m)
        tail = suffix[m + 1]
        rhs += (
            tail
            * d[m]
            * (p_hat[m] - p[m])
            * one_sided_from_left(u_m, h)
            * eig.phi.left_trace(m)
        )

    # the overlap mass anchors the denominator, so identities whose two sides
    # both vanish (identical traits, capacity-ratio resident) read as zero
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + abs(overlap) + _EPS)


@dataclass(frozen=True)
class CoexistenceResiduals:
    """Relative identity defects for a (near-)steady coexistence pair."""

    kind: str                      # "within-patch" | "cross-patch"
    first: float                   # first-species form (nan if that species vanishes)
    second: float                  # second-species form, or the cross-patch defect again


def _locate_node(grid: Grid, pos: float, side: str) -> tuple[int, int]:
    """Patch and node index of a position, resolved to the requested side."""
    tol = 1e-12 * max(1.0, grid.landscape.length)
    candidates = []
    for i in range(grid.n):
        a, b = grid.landscape.patch_bounds(i)
        if pos < a - tol or pos > b + tol:
            continue
        h = grid.spacing(i)
        j = int(round((pos - a) / h))
        if 0 <= j <= grid.counts[i] and abs(a + j * h - pos) <= tol:
            candidates.append((i, j))
    if not candidates:
        raise ValidationError(f"position {pos} does not coincide with a grid node")
    if side == "right":
        # start of a window: prefer the patch that begins here
        return max(candidates, key=lambda c: c[0])
    return min(candidates, key=lambda c: c[0])


def coexistence_identity_residuals(
    u: PiecewiseField,
    v: PiecewiseField,
    env: PatchEnvironment,
    resident: SpeciesTraits,
    mutant: SpeciesTraits,
    grid: Grid,
    a: float,
    b: float,
) -> CoexistenceResiduals:
    """Identity defects over a window [a, b] of node-aligned positions.

    Within one patch the growth deficit of the pair is checked against both
    species' flux/gradient forms.  Across patches the telescoped interface
    identity is checked instead.  The state must be near-steady (pair
    residual at most ``_STEADY_TOL``); otherwise the measured residual norm
    is reported in the raised error.
    """
    if u.grid != grid or v.grid != grid:
        raise ValidationError("fields must live on the provided grid")
    if b < a:
        raise ValidationError("window must satisfy a <= b")
    from .dynamics import pair_steady_residual

    res = pair_steady_residual(grid.landscape, env, resident, mutant, grid, u, v)
    if res > _STEADY_TOL:
        raise ValidationError(
            f"state is not near-steady: residual {res:.3e} > {_STEADY_TOL:.3e}"
        )

    if abs(b - a) <= 1e-12 * max(1.0, grid.landscape.length):
        return CoexistenceResiduals(kind="within-patch", first=0.0, second=0.0)

    la, ja = _locate_node(grid, a, side="right")
    lb, jb = _locate_node(grid, b, side="left")
    if grid.counts[la] + 1 - ja < 3 or jb + 1 < 3:
        if la != lb:
            raise ValidationError("end windows need at least 3 nodes for the stencils")

    if la == lb:
        i = la
        sl_u = u.patch_values(i)[ja : jb + 1]
        sl_v = v.patch_values(i)[ja : jb + 1]
        h = grid.spacing(i)
        r_i, k_i = env.r[i], env.k[i]
        total = sl_u + sl_v
        e0 = r_i * np.trapezoid(k_i - total, dx=h)
        mass = r_i * k_i * (b - a)

        def form(values, diffusion):
            if np.abs(values).min() <= 1e-14 * max(np.abs(values).max(), 1.0):
                return float("nan")
            dv = patch_derivative(values, h)
            e = (
                -diffusion * k_i * one_sided_from_left(values, h) / values[-1]
                + diffusion * k_i * one_sided_from_right(values, h) / values[0]
                - diffusion * k_i * np.trapezoid(dv**2 / values**2, dx=h)
            )
            return abs(e0 - e) / (abs(e0) + abs(e) + mass + _EPS)

        return CoexistenceResiduals(
            kind="within-patch",
            first=form(sl_u, resident.d[i]),
            second=form(sl_v, mutant.d[i]),
        )

    # cross-patch telescoped identity
    p = np.concatenate((resident.p_array, [1.0]))
    p_hat = mutant.p_array
    d = resident.d_array
    d_hat = mutant.d_array

    def prod(lo: int, hi: int) -> float:
        return float(np.prod(p[lo : hi + 1])) if hi >= lo else 1.0

    terms: list[float] = []
    for m in range(la, lb):
        h = grid.spacing(m)
        start = ja if m == la else 0
        window_u = u.patch_values(m)[start:]
        ux_left = one_sided_from_left(window_u, h)
        terms.append(
            prod(m + 1, lb) * d[m] * (p_hat[m] - p[m]) * ux_left * v.left_trace(m)
        )

    h_b = grid.spacing(lb)
    u_b = u.patch_values(lb)[: jb + 1]
    v_b = v.patch_values(lb)[: jb + 1]
    terms.append(p[lb] * d_hat[lb] * one_sided_from_left(v_b, h_b) * u_b[-1])
    terms.append(-p[lb] * d[lb] * one_sided_from_left(u_b, h_b) * v_b[-1])

    h_a = grid.spacing(la)
    u_a = u.patch_values(la)[ja:]
    v_a = v.patch_values(la)[ja:]
    head = prod(la, lb)
    terms.append(-head * d_hat[la] * one_sided_from_right(v_a, h_a) * u_a[0])
    terms.append(head * d[la] * one_sided_from_right(u_a, h_a) * v_a[0])

    for j in range(la, lb + 1):
        h = grid.spacing(j)
        start = ja if j == la else 0
        stop = jb + 1 if j == lb else grid.counts[j] + 1
        wu = u.patch_values(j)[start:stop]
        wv = v.patch_values(j)[start:stop]
        if wu.size < 3:
            raise ValidationError("window slice too short for derivative stencils")
        du = patch_derivative(wu, h)
        dv = patch_derivative(wv, h)
        terms.append(
            prod(j, lb) * (d[j] - d_hat[j]) * np.trapezoid(dv * du, dx=h)
        )

    total = float(np.sum(terms))
    magnitude = float(np.sum(np.abs(terms)))
    k_max = env.k_array.max()
    d_all = max(resident.d_array.max(), mutant.d_array.max())
    mass = d_all * k_max**2 / grid.landscape.length
    defect = abs(total) / (magnitude + mass + _EPS)
    return CoexistenceResiduals(kind="cross-patch", first=defect, second=defect)
