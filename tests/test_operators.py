import ast
from pathlib import Path

import numpy as np
import pytest
import warnings

from hypothesis import given, seed, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

import patchcomp as pc
from patchcomp import operators
from patchcomp.operators import (
    SpeciesLayout,
    assemble_diffusion,
    consistent_constant,
    expand_reduced,
    factor_symmetrized,
    restrict_cell_average,
    restrict_diagonal,
    restrict_values,
    stack_chunks,
    symmetrizing_similarity,
    tridiagonal_matvec,
)
from patchcomp.transform import push_forward, shared_node_offsets, to_transformed, _fv_operator

# The reduced-DOF format as it was written out per patch and per interface
# before ``SpeciesLayout`` owned it: the reference for the layout's arrays.


def reference_full_mass(grid, traits):
    """Weighted trapezoid mass per full DOF: (1 / prod of jump ratios) * quad weight."""
    omega = 1.0 / traits.cumulative_scales()
    mass = np.empty(grid.num_dofs)
    for i in range(grid.n):
        h = grid.spacing(i)
        sl = grid.patch_slice(i)
        mass[sl] = omega[i] * h
        mass[sl.start] = omega[i] * h / 2.0
        mass[sl.stop - 1] = omega[i] * h / 2.0
    return mass


def reference_reduced_weights(grid, traits, mass=None):
    """Symmetrization weights on the reduced DOFs (eliminated mass folded in)."""
    if mass is None:
        mass = reference_full_mass(grid, traits)
    p = traits.p_array
    w = mass[grid.kept_indices()]
    for m in range(grid.n - 1):
        w[grid.reduced_trace_index(m)] += p[m] ** 2 * mass[grid.right_trace_index(m)]
    return w


def reference_restrict_weighted(grid, traits, full_values, trace_power, weights=None):
    """Mass-weighted restriction: trace power 1 for cell averages, 2 for coefficients."""
    mass = reference_full_mass(grid, traits)
    if weights is None:
        weights = reference_reduced_weights(grid, traits, mass)
    p = traits.p_array
    num = mass * np.asarray(full_values, dtype=float)
    red = num[grid.kept_indices()]
    for m in range(grid.n - 1):
        red[grid.reduced_trace_index(m)] += p[m] ** trace_power * num[grid.right_trace_index(m)]
    return red / weights


def reference_expand_reduced(grid, traits, reduced):
    """Scatter a reduced vector to the full DOF layout (right traces filled in)."""
    full = np.empty(grid.num_dofs)
    full[grid.kept_indices()] = reduced
    full[grid.right_trace_indices()] = traits.p_array * reduced[grid.reduced_trace_indices()]
    return full


def reference_trace_fractions(grid, traits):
    """Shares ``mass / weight`` of each trace DOF's left and right one-sided
    values, the right one's times p².

    This was the one place that squared p as an array (``p**2``, that is
    ``p * p``); the layout squares each ratio by ``pow`` as the weights always
    have, which rounds differently in the last bit for about one ratio in a
    thousand (``test_jump_ratios_square_as_the_weights_do``).  So this copy
    squares as the weights do.
    """
    trace = grid.reduced_trace_indices()
    mass = reference_full_mass(grid, traits)
    w = reference_reduced_weights(grid, traits, mass)[trace]
    left = mass[grid.kept_indices()[trace]] / w
    p2 = np.array([v**2 for v in traits.p_array])
    return left, p2 * mass[grid.right_trace_indices()] / w


@st.composite
def layouts(draw):
    """A grid of 1-6 patches with random lengths and counts, and 1-4 species
    with random jump ratios on it."""
    n = draw(st.integers(1, 6))
    ratio = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)
    lengths = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(2, 13), min_size=n, max_size=n))
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(lengths))))
    grid = pc.build_grid(land, per_patch=counts, min_subintervals=2)
    species = [
        pc.SpeciesTraits(np.ones(n), pc.StrategyVector(
            draw(st.lists(ratio, min_size=n - 1, max_size=n - 1))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return grid, species, draw(st.integers(0, 2**32 - 1))


TRAIT_SETS = [
    ([1.0, 1.0], [2.0]),
    ([1.0, 2.0, 0.5], [2.0, 0.7]),
    ([0.3, 1.7, 2.4, 0.9], [0.4, 1.0, 3.2]),
]


def make(d, p, lengths=None):
    n = len(d)
    lengths = lengths or [1.0 + 0.3 * i for i in range(n)]
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(lengths))))
    traits = pc.SpeciesTraits(d, pc.StrategyVector(p))
    grid = pc.build_grid(land, per_patch=17)
    return land, traits, grid


class TestSymmetryAndKernel:
    @pytest.mark.parametrize("d,p", TRAIT_SETS)
    def test_weighted_symmetry_exact(self, d, p):
        _, traits, grid = make(d, p)
        op = assemble_diffusion(grid, traits)
        assert op.symmetry_defect() <= 1e-12

    @pytest.mark.parametrize("d,p", TRAIT_SETS)
    def test_consistent_constant_spans_kernel(self, d, p):
        _, traits, grid = make(d, p)
        op = assemble_diffusion(grid, traits)
        c = consistent_constant(grid, traits)
        scale = np.abs(op.di).max()
        assert np.abs(op.matvec(c)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("d,p", TRAIT_SETS)
    def test_weighted_conservation(self, d, p):
        # the weighted constant is a left null vector: discrete integration
        # by parts with no-flux ends
        _, traits, grid = make(d, p)
        op = assemble_diffusion(grid, traits)
        c = consistent_constant(grid, traits)
        scale = np.abs(op.di).max()
        assert np.abs((op.weights * c) @ op.dense()).max() <= 1e-13 * scale

    def test_interior_rows_exact_on_quadratic(self):
        land = pc.Landscape([0.0, 1.0])
        traits = pc.SpeciesTraits([1.0], pc.StrategyVector([]))
        grid = pc.build_grid(land, per_patch=8)
        op = assemble_diffusion(grid, traits)
        x = grid.patch_nodes(0)
        out = op.matvec(0.5 * x**2)
        assert np.allclose(out[1:-1], 1.0, atol=1e-12)

    def test_jump_consistent_constant_maps_to_zero_vector(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        c = 3.7 * consistent_constant(grid, traits)
        assert np.abs(op.matvec(c)).max() <= 1e-12 * np.abs(op.di).max()


class TestFactorShifted:
    # ``solve_shifted``: the package's one LDLᵀ on a shifted operator
    def test_no_flux_operator_is_singular(self):
        # the jump-consistent constants span the bare operator's kernel
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_shifted(0.0, np.ones(op.size))

    @pytest.mark.parametrize("negated", [("up",), ("up", "lo")], ids=["one", "matching"])
    def test_couplings_not_all_positive_raise(self, negated):
        # one coupling of the wrong sign, or the two of one row pair, whose
        # product and ratio are positive: the similarity's square roots
        # would take both as positive and solve another matrix
        land = pc.Landscape([0.0, 1.0, 2.0])
        grid = pc.build_grid(land, per_patch=6)
        op = assemble_diffusion(grid, pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([2.0])))
        for band, row in zip(negated, (4, 5)):
            flipped = getattr(op, band).copy()
            flipped[row] = -flipped[row]
            setattr(op, band, flipped)
        sigma = 1.0 + (np.abs(op.di) + np.abs(op.lo) + np.abs(op.up)).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not all positive"):
                op.solve_shifted(sigma, np.linspace(1.0, 2.0, op.size))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        poisoned = np.ones(op.size)
        poisoned[3] = bad
        with pytest.raises(ValueError):
            op.solve_shifted(poisoned, np.ones(op.size))
        with pytest.raises(ValueError):
            op.solve_shifted(10.0, poisoned)


def symmetric_solve(op, alpha, beta):
    """The solve ``rhs -> (alpha - beta A)⁻¹ rhs`` by the package's one
    LDLᵀ, on the similarity that the operator's couplings give."""
    s, _, off = symmetrizing_similarity(op.lo, op.up)
    solve = factor_symmetrized(op.di, off, alpha, beta)
    return lambda rhs: solve(s * rhs) / s


class TestFactorSymmetric:
    # the package's one LDLᵀ (``factor_symmetrized`` on the
    # ``symmetrizing_similarity`` of the couplings)
    @pytest.mark.parametrize("theta", [1.0, 0.5])  # IMEX Euler, Crank-Nicolson
    @pytest.mark.parametrize("per_patch", [100, 1300])  # 201 and 2,601 reduced DOFs
    def test_matches_dense_solve(self, theta, per_patch):
        land = pc.Landscape([0.0, 1.0, 2.0])
        grid = pc.build_grid(land, per_patch=per_patch)
        dt = 0.01
        rng = np.random.default_rng(3)
        for p in (3.0, 1.5):
            op = assemble_diffusion(grid, pc.SpeciesTraits([1.0, 1.0], pc.StrategyVector([p])))
            rhs = rng.uniform(0.0, 1.5, op.size)
            got = symmetric_solve(op, 1.0, theta * dt)(rhs)
            ref = np.linalg.solve(np.eye(op.size) - theta * dt * op.dense(), rhs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_scaled_solve_maps_rows_as_their_own_solves(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        s, _, off = symmetrizing_similarity(op.lo, op.up)
        # for an operator symmetric in its weights, s² is proportional to them
        ratio = s / np.sqrt(op.weights)
        assert (ratio.max() - ratio.min()) / ratio.min() <= 4.0 * np.finfo(float).eps
        solve = factor_symmetrized(op.di, off, 1.0, 0.1)
        rows = np.random.default_rng(8).uniform(0.0, 1.5, (3, op.size))
        got = solve(s * rows)
        assert got.shape == rows.shape
        for row, one in zip(rows, got):
            assert np.array_equal(one, solve(s * row))

    def test_negative_definite_raises(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        op = assemble_diffusion(grid, traits)
        with pytest.raises(np.linalg.LinAlgError):
            symmetric_solve(op, -1.0, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        _, traits, grid = make([1.0, 1.0], [2.0])
        op = assemble_diffusion(grid, traits)
        poisoned = np.ones(op.size)
        poisoned[3] = bad
        with pytest.raises(ValueError):
            symmetric_solve(op, poisoned, 0.1)
        with pytest.raises(ValueError):
            symmetric_solve(op, 1.0, bad)
        with pytest.raises(ValueError):
            symmetrizing_similarity(op.lo, op.up * poisoned)

    def test_asymmetric_operator_raises(self):
        # couplings 10 times apart on every row: the similarity grows by
        # sqrt(10) a row and leaves the floating-point range within 700 rows
        land = pc.Landscape([0.0, 1.0])
        grid = pc.build_grid(land, per_patch=800)
        op = assemble_diffusion(grid, pc.SpeciesTraits([1.0], pc.StrategyVector([])))
        with pytest.raises(ValueError, match="symmetric"):
            symmetrizing_similarity(op.lo, 10.0 * op.up)


def stack_of_operators(grid, count: int = 4):
    """The diffusion bands of ``count`` different species on ``grid``,
    shifted by a different potential each: an ``(M, N)`` stack in the one
    convention, and its operators one by one."""
    rng = np.random.default_rng(11)
    n = grid.n
    species = [
        pc.SpeciesTraits(rng.uniform(0.5, 2.0, n), pc.StrategyVector(rng.uniform(0.3, 3.0, n - 1)))
        for _ in range(count)
    ]
    lo, di, up = SpeciesLayout(grid, species).bands
    di = di + rng.uniform(-1.0, 1.0, di.shape)
    return lo, di, up


class TestOneConvention:
    """A stack of ``(M, N)`` bands with zero unused corners is one
    block-diagonal matrix laid end to end: its product and its LDLᵀ treat
    every block bit for bit as that operator on its own, and an
    operator with M right-hand-side rows as M single solves."""

    GRID = pc.build_grid(pc.Landscape([0.0, 0.7, 1.9, 2.6]), per_patch=[6, 11, 5])

    def test_stack_has_zero_corners(self):
        lo, _, up = stack_of_operators(self.GRID)
        assert not lo[:, 0].any() and not up[:, -1].any()

    def test_raveled_matvec_equals_per_row_product(self):
        lo, di, up = stack_of_operators(self.GRID)
        x = np.random.default_rng(2).uniform(-1.0, 2.0, di.shape)
        got = tridiagonal_matvec(lo, di, up, x)
        assert got.shape == x.shape
        for b in range(len(di)):
            one = tridiagonal_matvec(lo[b], di[b], up[b], x[b])
            assert np.array_equal(got[b], one)
            row = di[b] * x[b]
            row[:-1] += up[b, :-1] * x[b, 1:]
            row[1:] += lo[b, 1:] * x[b, :-1]
            assert np.array_equal(one, row)

    def test_ldlt_stack_solves_each_operator_on_its_own(self):
        lo, di, up = stack_of_operators(self.GRID)
        s, _, off = symmetrizing_similarity(lo, up)
        # a shift per block, above each block's spectrum
        alpha = 1.0 + (np.abs(di) + np.abs(lo) + np.abs(up)).max(axis=1, keepdims=True)
        rhs = np.random.default_rng(5).uniform(0.0, 1.5, di.shape)
        got = factor_symmetrized(di, off, alpha)(s * rhs)
        for b in range(len(di)):
            s_b, _, off_b = symmetrizing_similarity(lo[b], up[b])
            assert np.array_equal(s_b, s[b])
            one = factor_symmetrized(di[b], off_b, alpha[b])(s_b * rhs[b])
            assert np.array_equal(got[b], one)

    def test_rows_of_one_operator_are_single_solves(self):
        lo, di, up = (band[1] for band in stack_of_operators(self.GRID))
        rows = np.random.default_rng(6).uniform(0.0, 1.5, (5, di.size))
        s, _, off = symmetrizing_similarity(lo, up)
        ldlt = factor_symmetrized(di, off, 1.0, 0.3)
        for row, one in zip(rows, ldlt(s * rows)):
            assert np.array_equal(one, ldlt(s * row))
        # and through solve_shifted, the rows as their own solves
        op = assemble_diffusion(self.GRID, pc.SpeciesTraits([1.0, 1.0, 1.0], [2.0, 0.5]))
        sigma = 1.0 + np.abs(op.di).max() + np.abs(op.lo).max() + np.abs(op.up).max()
        got = op.solve_shifted(sigma, rows)
        for row, one in zip(rows, got):
            assert np.array_equal(one, op.solve_shifted(sigma, row))
        dense = sigma * np.eye(op.size) - op.dense()
        assert np.abs(dense @ got.T - rows.T).max() <= 1e-12 * sigma


    def test_stack_chunks_cut_at_the_stack_cap(self, monkeypatch):
        monkeypatch.setattr(operators, "_STACK_DOFS", 2 * 50 + 1)
        assert list(stack_chunks(5, 50)) == [slice(0, 2), slice(2, 4), slice(4, 6)]
        assert list(stack_chunks(4, 50)) == [slice(0, 2), slice(2, 4)]
        # a block larger than the cap is a solve of its own
        assert list(stack_chunks(2, 200)) == [slice(0, 1), slice(1, 2)]
        assert list(stack_chunks(0, 50)) == []


def _reaches_lapack_or_kernel(path: Path) -> set[str]:
    """What a module reaches of LAPACK and the LDLᵀ kernel: ``"scipy.linalg"``
    for an import from it, ``"_native"`` for an import of the kernel's
    builder, and ``"_ldlt"`` for an import, a name or an attribute
    ``_ldlt``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            if module.lstrip(".").startswith("scipy.linalg"):
                found.add("scipy.linalg")
            if module.rsplit(".", 1)[-1] in ("_native", "_ldlt"):
                found.add(module.rsplit(".", 1)[-1])
        if isinstance(node, ast.Name) and node.id == "_ldlt" or (
            isinstance(node, ast.Attribute) and node.attr == "_ldlt"
        ):
            found.add("_ldlt")
    return found


def test_only_operators_calls_lapack_or_the_kernel():
    # ``__init__`` reads ``operators._ldlt`` for ``_LDLT_KERNEL`` only
    package = Path(operators.__file__).parent
    reached = {path.stem: _reaches_lapack_or_kernel(path) for path in package.glob("*.py")}
    assert reached.pop("operators") == {"scipy.linalg", "_native", "_ldlt"}
    assert reached.pop("__init__") == {"_ldlt"}
    assert {name: uses for name, uses in reached.items() if uses} == {}


def symmetric_stack(rng, blocks: int, rows: int):
    """``(di, off)`` of a random stack of symmetrized operators in the one
    convention (positive couplings, zero corners) and each block's top
    eigenvalue."""
    di = rng.uniform(-4.0, 1.0, (blocks, rows))
    off = rng.uniform(0.05, 2.0, (blocks, rows))
    off[:, -1] = 0.0
    top = np.array([
        eigh_tridiagonal(d, e[:-1], eigvals_only=True, select="i",
                         select_range=(rows - 1, rows - 1))[0]
        for d, e in zip(di, off)
    ])
    return di, off, top


class TestInterleavedKernel:
    """The interleaved LDLᵀ kernel (``_ldlt.c``) that ``factor_symmetrized``
    runs on stacks of two or more blocks does LAPACK pttrf's and pttrs's
    arithmetic: the same factor, the same solves and the same refusals."""

    @settings(max_examples=150, deadline=None)
    @given(
        blocks=st.integers(2, 6),
        rows=st.integers(2, 400),
        rhs=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_factor_and_solve_are_lapacks(self, ldlt_kernel, blocks, rows, rhs, seed, data):
        rng = np.random.default_rng(seed)
        di, off, top = symmetric_stack(rng, blocks, rows)
        # each block's shift within 1e-14 relative of its top eigenvalue,
        # above or below, so pivots near zero decide refusals
        rel = data.draw(st.lists(st.floats(-1e-14, 1e-14), min_size=blocks, max_size=blocks))
        alpha = (top + np.abs(top) * np.array(rel))[:, None]
        d = (alpha - di).ravel()
        e = (-off).ravel()
        d_ref, e_ref, info = dpttrf(d, e[:-1])
        positive = ldlt_kernel.factor(d, e, rows)
        assert positive == (info == 0)
        b = rng.normal(size=(rhs, blocks * rows))
        lapack_b = b.reshape(rhs, blocks, rows) if rhs > 1 else b.reshape(blocks, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_ldlt", None)
            try:
                want = factor_symmetrized(di, off, alpha)(lapack_b.copy())
            except np.linalg.LinAlgError:
                want = None
        if not positive:
            assert want is None
            with pytest.raises(np.linalg.LinAlgError):
                factor_symmetrized(di, off, alpha)
            return
        assert np.array_equal(d, d_ref) and np.array_equal(e[:-1], e_ref)
        x = b.copy()
        ldlt_kernel.solve(d, e, rows, x)
        assert np.array_equal(x, dpttrs(d_ref, e_ref, b.T)[0].T)
        got = factor_symmetrized(di, off, alpha)(lapack_b.copy())
        assert np.array_equal(got, want) and np.array_equal(got.reshape(x.shape), x)

    def test_the_pivot_test_is_pttrfs(self, ldlt_kernel):
        # d <= 0 refuses; a NaN pivot passes, as in pttrf
        for pivot, positive in ((0.0, False), (-1.0, False), (np.nan, True), (1e-300, True)):
            d = np.array([2.0, 3.0, pivot, 2.0])
            e = np.array([0.5, 0.0, 0.0, 0.0])
            _, _, info = dpttrf(d.copy(), e[:-1].copy())
            assert (info == 0) == positive
            assert ldlt_kernel.factor(d, e, 2) is positive

    def test_wrapper_refuses_wrong_buffers(self, ldlt_kernel):
        d, e = np.full(6, 2.0), np.full(6, 0.5)
        e[2::3] = 0.0
        assert ldlt_kernel.factor(d, e, 3)
        b = np.ones(12)
        bad_factors = [
            (d[:5], e[:5], 3),              # not whole blocks
            (d, e[:5], 3),                  # lengths differ
            (d.astype(np.float32), e, 3),   # dtype
            (d.astype(np.int64), e, 3),
            (np.repeat(d, 2)[::2], e, 3),   # layout
            (d, e, 0),                      # block size
        ]
        for args in bad_factors:
            with pytest.raises(ValueError):
                ldlt_kernel.factor(*args)
            with pytest.raises(ValueError):
                ldlt_kernel.solve(*args, b.copy())
        read_only = b.copy()
        read_only.flags.writeable = False
        for bad_b in (b[:11].copy(), b.astype(np.float32), np.repeat(b, 2)[::2], read_only):
            with pytest.raises(ValueError):
                ldlt_kernel.solve(d, e, 3, bad_b)
        # a view one right-hand side long of a longer array: nothing past it
        # is read or written
        longer = np.arange(1.0, 19.0)
        ldlt_kernel.solve(d, e, 3, longer[:6])
        assert np.array_equal(longer[6:], np.arange(7.0, 19.0))

    def test_step_wrapper_refuses_wrong_buffers(self, ldlt_kernel):
        # two blocks of 3 rows: d, e, coef (sa, sb, sc, s) and two runs
        d, e = np.full(6, 2.0), np.full(6, 0.5)
        e[2::3] = 0.0
        assert ldlt_kernel.factor(d, e, 3)
        coef = np.ones(24)
        w = np.full(12, 0.25)
        assert ldlt_kernel.step(d, e, 3, coef, w, np.empty(12))
        read_only = np.empty(12)
        read_only.flags.writeable = False
        bad_calls = [
            (d, e, 3, coef, w[:11].copy(), np.empty(11)),   # not whole runs
            (d, e, 3, coef, w, np.empty(6)),                # out's length
            (d, e, 3, coef[:18], w, np.empty(12)),          # coef's length
            (d, e[:5], 3, coef, w, np.empty(12)),           # lengths differ
            (d, e, 2, coef, w, np.empty(12)),               # three blocks
            (d, e, 6, coef, w, np.empty(12)),               # one block
            (d, e, 3, coef, w.astype(np.float32), np.empty(12)),  # dtype
            (d, e, 3, coef.astype(np.int64), w, np.empty(12)),
            (d, e, 3, coef, np.repeat(w, 2)[::2], np.empty(12)),  # layout
            (d, e, 3, coef, w, read_only),
            (d, e, 3, coef, w, w),                          # out overlaps w
        ]
        for args in bad_calls:
            with pytest.raises(ValueError):
                ldlt_kernel.step(*args)
        with pytest.raises(TypeError):
            ldlt_kernel.step(d, e, 3, coef, w)
        # a right-hand side that fails the check: False, w untouched
        negative = w.copy()
        negative[4] = -1.0
        assert not ldlt_kernel.step(d, e, 3, coef, negative, np.empty(12))
        assert negative[4] == -1.0 and np.all(np.delete(negative, 4) == 0.25)

    def test_non_contiguous_rhs_is_solved_on_a_copy(self, ldlt_kernel):
        rng = np.random.default_rng(8)
        di, off, top = symmetric_stack(rng, 3, 40)
        solve = factor_symmetrized(di, off, (top + 1.0)[:, None])
        b = np.asfortranarray(rng.normal(size=(3, 40)))
        kept = b.copy()
        got = solve(b)
        assert np.array_equal(b, kept)
        assert np.array_equal(got, solve(np.ascontiguousarray(b)))

    def test_a_single_block_runs_on_the_kernel(self, ldlt_kernel, monkeypatch):
        calls = []

        class Spy:
            def factor(self, *args):
                calls.append("factor")
                return ldlt_kernel.factor(*args)

            def solve(self, *args):
                calls.append("solve")
                return ldlt_kernel.solve(*args)

        rng = np.random.default_rng(9)
        di, off, top = symmetric_stack(rng, 2, 30)
        b = rng.normal(size=30)
        d_ref, e_ref, _ = dpttrf(top[0] + 1.0 - di[0], -off[0, :-1])
        want = dpttrs(d_ref, e_ref, b)[0]
        monkeypatch.setattr(operators, "_ldlt", Spy())
        for one_di, one_off in ((di[0], off[0]), (di[:1], off[:1])):
            factor = factor_symmetrized(one_di, one_off, top[0] + 1.0)
            assert np.array_equal(factor.d, d_ref) and np.array_equal(factor.e[:-1], e_ref)
            assert np.array_equal(factor(b.reshape(one_di.shape).copy()).ravel(), want)
        assert calls == ["factor", "solve"] * 2
        factor_symmetrized(di, off, (top + 1.0)[:, None])(np.ones(di.shape))
        assert calls == ["factor", "solve"] * 3


def noda_buffers(rng, blocks: int, rows: int):
    """The arguments of the kernel's ``noda`` for a random stack, up to
    ``n`` and its outputs: bands, similarity and a positive iterate."""
    lo, up = (rng.uniform(0.5, 2.0, (blocks, rows)) for _ in range(2))
    lo[:, 0] = up[:, -1] = 0.0
    di = rng.uniform(-4.0, 0.0, (blocks, rows))
    s, weights, off = symmetrizing_similarity(lo, up)
    x = rng.uniform(0.1, 1.0, (blocks, rows))
    return lo, di, up, s, weights, off, x


class TestKernelNodaAndResidual:
    def test_theta_sums_in_numpys_pairwise_order(self, ldlt_kernel):
        rng = np.random.default_rng(11)
        for rows in [*range(1, 301), 1601, 2001, 8001]:
            lo, di, up, s, weights, off, x = noda_buffers(rng, 1, rows)
            weights = rng.uniform(0.5, 2.0, x.shape) * 10.0 ** rng.integers(-3, 3, x.shape)
            theta, res, done = np.empty(1), np.empty(1), np.empty(1, bool)
            counts = np.empty(1, np.intp)
            kept = x.copy()
            # a cap of 0 solves: one pass that only tests
            stopped = ldlt_kernel.noda(lo, di, up, s, weights, off, x, rows, theta, res, done,
                                       counts, 1e-13, 0)
            ax = tridiagonal_matvec(lo, di, up, x)
            wx = weights * x
            want = np.add.reduce(wx * ax, axis=-1) / np.add.reduce(wx * x, axis=-1)
            assert theta[0] == want[0], rows
            assert res[0] == np.abs(ax - want[:, None] * x).max()
            assert stopped == int(done[0]) and np.array_equal(x, kept)


def log_uniform(low: float, high: float):
    """Floats log-uniform on ``[low, high]``."""
    return st.floats(np.log(low), np.log(high)).map(np.exp)


@st.composite
def assemblies(draw):
    """A grid of 1-6 patches of 4-60 cells each and one species (``(N,)``
    arrays) or a stack of 1-4, ``d`` in [0.01, 30] and ``p`` in [0.05, 20]
    log-uniform."""
    n = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(4, 60), min_size=n, max_size=n))
    land = pc.Landscape(np.concatenate(([0.0], np.cumsum(lengths))))
    grid = pc.build_grid(land, per_patch=counts)

    def one():
        d = draw(st.lists(log_uniform(0.01, 30.0), min_size=n, max_size=n))
        p = draw(st.lists(log_uniform(0.05, 20.0), min_size=n - 1, max_size=n - 1))
        return pc.SpeciesTraits(d, pc.StrategyVector(p))

    count = draw(st.integers(0, 4))  # 0: a single species
    return grid, one() if count == 0 else [one() for _ in range(count)]


def both_routes(compute):
    """``compute()`` on the kernel and on numpy: per route a dict of arrays,
    or the type and message of what it raised."""
    out = []
    for kernel in (operators._ldlt, None):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            mp.setattr(operators, "_ldlt", kernel)
            warnings.simplefilter("ignore")  # numpy's twin may warn where it raises
            try:
                out.append(compute())
            except Exception as err:  # compared, type and message
                out.append((type(err), str(err)))
    return out


def assert_same_outcome(kernel, numpy):
    """The two routes' ``both_routes`` outcomes are one: the same error, or
    the same arrays bit for bit, signs of zeros and NaN included."""
    if isinstance(kernel, tuple) or isinstance(numpy, tuple):
        assert kernel == numpy
        return
    assert kernel.keys() == numpy.keys()
    for key, value in kernel.items():
        assert value.shape == numpy[key].shape, key
        assert np.array_equal(value, numpy[key], equal_nan=True), key
        assert np.array_equal(np.signbit(value), np.signbit(numpy[key])), key


class TestKernelAssembly:
    """The kernel's ``species`` is its numpy twin bit for bit: the layout's
    masses and weights, the bands and their similarity, and the same
    refusals."""

    @pytest.mark.parametrize("hypothesis_seed", [1, 2, 3])
    def test_kernel_route_is_numpys(self, ldlt_kernel, hypothesis_seed):
        @seed(hypothesis_seed)
        @settings(max_examples=60, deadline=None, database=None)
        @given(assemblies())
        def check(drawn):
            grid, traits = drawn

            def layout():
                built = SpeciesLayout(grid, traits)
                return {name: getattr(built, name) for name in _ASSEMBLED}

            assert_same_outcome(*both_routes(layout))

        check()


_BANDS = ("lo", "di", "up")
# what the assembly writes, compared bit for bit between the routes
_ASSEMBLED = ("mass", "weights", *_BANDS, "s", "s2", "off")
# The reference pair's landscape with one jump ratio whose square overflows,
# and one of four patches whose cumulative scale does: every p² is finite,
# but the last patch's weights are 0 and its bands are not finite.  Then
# three patches, the first 1e-3 long, with ratios of 1e-153: weights and
# bands are finite, but weights from about 2.5e-5 to 2.5e304 make the square
# of the similarity, their ratio, overflow.
OVERFLOWS = [
    ([0.0, 1.0, 2.3], [1.0, 0.7], [1e160]),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.7, 1.2, 0.9], [1e120, 1e120, 1e120]),
    ([0.0, 1e-3, 1.001, 2.001], [1.0, 1.0, 1.0], [1e-153, 1e-153]),
]


class TestAssemblyRefusesOverflow:
    """Jump ratios whose weights, bands or couplings' similarity overflow are
    refused by the assembly, as ValidationError naming ``p`` and with no
    RuntimeWarning, on both routes, for a single species (the resident) and a
    stack (the mutant), before any solve."""

    @pytest.mark.parametrize("kernel", ["kernel", "numpy"])
    @pytest.mark.parametrize("bounds,d,p", OVERFLOWS,
                             ids=["p_squared", "four_patches", "similarity"])
    def test_layouts_and_bands_refuse(self, request, monkeypatch, kernel, bounds, d, p):
        # the numpy route runs with or without a compiler
        route = request.getfixturevalue("ldlt_kernel") if kernel == "kernel" else None
        monkeypatch.setattr(operators, "_ldlt", route)
        land = pc.Landscape(bounds)
        grid = pc.build_grid(land, per_patch=40)
        bad = pc.SpeciesTraits(d, pc.StrategyVector(p))
        good = pc.SpeciesTraits(d, pc.StrategyVector([1.5] * len(p)))
        env = pc.PatchEnvironment(r=[1.0] * land.n, k=[1.0 + i for i in range(land.n)])
        calls = [
            lambda: SpeciesLayout(grid, bad),
            lambda: SpeciesLayout(grid, [good, bad]),
            lambda: assemble_diffusion(grid, bad),
            lambda: pc.solve_resident_steady(land, env, bad, grid),
            lambda: pc.invasion_fitness(land, env, good, bad, grid),
            lambda: pc.invasion_fitness(land, env, bad, good, grid),
            lambda: pc.Stepper(land, env, good, bad, grid),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(pc.ValidationError, match="^p: "):
                    call()

    def test_weights_fail_before_bands(self, ldlt_kernel, monkeypatch):
        # the four-patch case fails both checks; both routes name the weights
        land = pc.Landscape(OVERFLOWS[1][0])
        grid = pc.build_grid(land, per_patch=40)
        bad = pc.SpeciesTraits(OVERFLOWS[1][1], pc.StrategyVector(OVERFLOWS[1][2]))
        kernel, numpy = both_routes(lambda: SpeciesLayout(grid, bad))
        assert kernel == numpy and "weights" in kernel[1]

    @pytest.mark.parametrize("bounds,d,p,named", [
        (*OVERFLOWS[2], "symmetric"),
        # 4 cells of 2.5e5 and d = 5e-324: c = d / h underflows to 0 in the
        # first patch, whose couplings are then 0, with finite bands
        ([0.0, 1e6, 2e6], [5e-324, 1.0], [1.0], "positive"),
    ], ids=["similarity", "couplings"])
    def test_couplings_fail_after_the_bands(self, ldlt_kernel, bounds, d, p, named):
        grid = pc.build_grid(pc.Landscape(bounds), per_patch=4)
        bad = pc.SpeciesTraits(d, pc.StrategyVector(p))
        kernel, numpy = both_routes(lambda: SpeciesLayout(grid, bad))
        assert kernel == numpy and kernel[0] is pc.ValidationError and named in kernel[1]


class TestReductionMaps:
    def test_expand_restrict_roundtrip(self):
        _, traits, grid = make([1.0, 2.0], [0.6])
        red = np.linspace(1.0, 2.0, grid.num_reduced)
        full = expand_reduced(grid, traits, red)
        assert np.array_equal(restrict_values(grid, full), red)
        field = pc.PiecewiseField(grid, full)
        assert field.is_jump_consistent(traits)

    def test_restrict_diagonal_preserves_constants(self):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        c = np.full(grid.num_dofs, 0.37)
        assert np.allclose(restrict_diagonal(grid, traits, c), 0.37, rtol=1e-14)

    def test_cell_average_matches_weak_load(self):
        # trace entry must be the jump-weighted dual-cell load
        _, traits, grid = make([1.0, 1.0], [2.0])
        g = np.arange(grid.num_dofs, dtype=float)
        red = restrict_cell_average(grid, traits, g)
        m = reference_full_mass(grid, traits)
        w = reference_reduced_weights(grid, traits)
        tr = grid.reduced_trace_index(0)
        left = grid.left_trace_index(0)
        right = grid.right_trace_index(0)
        expected = (m[left] * g[left] + 2.0 * m[right] * g[right]) / w[tr]
        assert red[tr] == pytest.approx(expected, rel=1e-14)

    def test_layout_matches_plain_functions(self):
        _, traits, grid = make([0.3, 1.7, 2.4], [0.4, 3.2])
        layout = SpeciesLayout(grid, traits)
        red = np.linspace(0.5, 1.5, grid.num_reduced)
        assert np.array_equal(layout.expand(red), expand_reduced(grid, traits, red))
        g = np.cos(np.linspace(0, 3, grid.num_dofs))
        assert np.allclose(
            layout.restrict_avg(g), restrict_cell_average(grid, traits, g), rtol=1e-15
        )


    def test_layout_matches_plain_functions_exactly(self):
        land = pc.Landscape([0.0, 0.6, 2.1, 2.9, 4.4])
        grid = pc.build_grid(land, per_patch=[5, 11, 4, 8])
        traits = pc.SpeciesTraits([0.3, 1.7, 2.4, 0.9], pc.StrategyVector([0.4, 1.3, 3.2]))
        layout = SpeciesLayout(grid, traits)
        red = np.linspace(0.5, 1.5, grid.num_reduced)
        assert np.array_equal(layout.expand(red), expand_reduced(grid, traits, red))
        g = np.cos(np.linspace(0, 3, grid.num_dofs))
        assert np.array_equal(layout.restrict_avg(g), restrict_cell_average(grid, traits, g))
        assert np.array_equal(layout.restrict_diag(g), restrict_diagonal(grid, traits, g))
        # an assembled operator carries the layout's weights
        assert np.array_equal(assemble_diffusion(grid, traits).weights, layout.weights)

    @settings(max_examples=80, deadline=None)
    @given(layouts())
    def test_layout_matches_reference(self, drawn):
        grid, species, seed = drawn
        rng = np.random.default_rng(seed)
        reduced = rng.uniform(0.0, 2.0, (len(species), grid.num_reduced))
        full = rng.uniform(-1.0, 3.0, grid.num_dofs)

        def arrays(layout, reduced):
            return {
                "mass": layout.mass, "weights": layout.weights,
                "expand": layout.expand(reduced),
                "avg": layout.restrict_avg(full), "diag": layout.restrict_diag(full),
                "a_left": layout.a_left, "a_right": layout.a_right,
            }

        stacked = SpeciesLayout(grid, species)
        whole = arrays(stacked, reduced)
        for b, traits in enumerate(species):
            mass = reference_full_mass(grid, traits)
            a_left, a_right = reference_trace_fractions(grid, traits)
            ref = {
                "mass": mass, "weights": reference_reduced_weights(grid, traits, mass),
                "expand": reference_expand_reduced(grid, traits, reduced[b]),
                "avg": reference_restrict_weighted(grid, traits, full, 1),
                "diag": reference_restrict_weighted(grid, traits, full, 2),
                "a_left": a_left, "a_right": a_right,
            }
            for got in (
                arrays(SpeciesLayout(grid, traits), reduced[b]),
                arrays(stacked[b], reduced[b]),
                {key: value[b] for key, value in whole.items()},
            ):
                for key, value in ref.items():
                    assert np.array_equal(got[key], value), key
            assert np.array_equal(assemble_diffusion(grid, traits).weights, ref["weights"])
            constant = np.empty(grid.num_reduced)
            for i in range(grid.n):
                constant[grid.reduced_patch_slice(i)] = traits.cumulative_scales()[i]
            assert np.array_equal(consistent_constant(grid, traits), constant)
            assert np.array_equal(stacked.fill(stacked.scales)[b], constant)

    @pytest.mark.parametrize("rows", [2, 5])  # 2 = n - 1 interfaces
    def test_single_layout_maps_stacked_rows(self, rows):
        _, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        layout = SpeciesLayout(grid, traits)
        rng = np.random.default_rng(rows)
        reduced = rng.uniform(0.0, 2.0, (rows, grid.num_reduced))
        full = rng.uniform(-1.0, 3.0, (rows, grid.num_dofs))
        for method, stack in (
            (layout.right_values, reduced), (layout.expand, reduced),
            (layout.restrict_avg, full), (layout.restrict_diag, full),
        ):
            got = method(stack)
            assert np.array_equal(got, np.array([method(row) for row in stack]))

    def test_jump_ratios_square_as_the_weights_do(self):
        # a ratio whose pow square and whose product square differ in the last bit
        p = 0.3808171146238585
        assert p**2 == 0.14502167479044095 and p * p == 0.14502167479044098
        _, traits, grid = make([1.0, 1.0], [p])
        layout = SpeciesLayout(grid, traits)
        assert layout.p2[0] == p**2
        assert np.array_equal(layout.weights, reference_reduced_weights(grid, traits))

class TestTransformConsistency:
    def test_rescaled_operator_is_exact_conjugate(self):
        # applying the physical operator to a jump-consistent field equals the
        # per-patch rescaling of the continuous-form flux operator applied to
        # the rescaled field
        land, traits, grid = make([1.0, 2.0, 0.5], [2.0, 0.7])
        env = pc.PatchEnvironment(r=np.ones(3), k=np.ones(3))
        problem = to_transformed(land, env, traits)
        op = assemble_diffusion(grid, traits)

        xs = grid.full_x()
        w_smooth = np.cos(np.pi * xs / land.length)
        scales = traits.cumulative_scales()
        u_full = w_smooth.copy()
        for i in range(grid.n):
            u_full[grid.patch_slice(i)] *= scales[i]
        field = pc.PiecewiseField(grid, u_full)

        w = push_forward(field, problem)
        lo, di, up, _, _ = _fv_operator(problem, grid)
        aw = di * w
        aw[:-1] += up[:-1] * w[1:]
        aw[1:] += lo[1:] * w[:-1]

        direct = op.matvec(restrict_values(grid, field.values))
        off = shared_node_offsets(grid)
        pulled = np.empty_like(direct)
        for i in range(grid.n):
            seg = scales[i] * aw[off[i] : off[i + 1] + 1]
            sl = grid.reduced_patch_slice(i)
            if i == 0:
                pulled[sl] = seg
            else:
                pulled[sl] = seg[1:]
        scale = np.abs(direct).max()
        assert np.abs(direct - pulled).max() <= 1e-11 * scale
