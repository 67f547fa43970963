"""Mode sets, synthesis, projection and the symmetry properties."""

import numpy as np
import pytest

from equinn import mhdkernel as mk
from equinn.mhdkernel import CollocationGrid
from equinn.spectral import (
    SurfaceCoefficients,
    build_mode_set,
    mode_set_pair,
    pair_tables,
    project,
    spectral_width,
    synthesize,
)


def coeffs_for(mode_set, pairs):
    values = np.zeros(mode_set.size)
    for (m, n), v in pairs.items():
        values[mode_set.index_of(m, n)] = v
    return SurfaceCoefficients(mode_set, values)


# -- mode sets ------------------------------------------------------------


def test_axisymmetric_cosine_set():
    ms = build_mode_set(11, 0, 1, "cos")
    assert ms.size == 11
    assert list(ms.m) == list(range(11))
    assert set(ms.n) == {0}


def test_sine_set_with_toroidal_modes():
    ms = build_mode_set(2, 1, 5, "sin")
    assert ms.size == 5
    assert list(zip(ms.m, ms.n)) == [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
    assert ms.fixed_mask.tolist() == [True, False, False, False, False]


def test_large_set_count():
    assert build_mode_set(12, 12, 5, "cos").size == 288


def test_mode_set_ordering_is_m_then_n():
    ms = build_mode_set(3, 2, 1, "cos")
    pairs = list(zip(ms.m.tolist(), ms.n.tolist()))
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("bad", [dict(M=0, N=1, n_fp=1), dict(M=2, N=1, n_fp=0), dict(M=1, N=-1, n_fp=1)])
def test_mode_set_rejects_degenerate(bad):
    with pytest.raises(ValueError):
        build_mode_set(parity="cos", **bad)


# -- synthesis -------------------------------------------------------------


def test_single_cosine_mode():
    ms = build_mode_set(2, 0, 1, "cos")
    field = synthesize(coeffs_for(ms, {(1, 0): 2.0}), np.array([0.0]), np.array([0.0]))
    assert np.isclose(field.value[0, 0], 2.0)
    assert np.isclose(field.d_theta[0, 0], 0.0)


def test_single_sine_mode_derivatives():
    ms = build_mode_set(2, 0, 1, "sin")
    field = synthesize(coeffs_for(ms, {(1, 0): 1.0}), np.array([np.pi / 2]), np.array([0.0]))
    assert np.isclose(field.value[0, 0], 1.0)
    assert np.isclose(field.d_theta[0, 0], 0.0, atol=1e-15)
    assert np.isclose(field.d_theta_theta[0, 0], -1.0)


def test_zero_coefficients_give_zero_fields():
    ms = build_mode_set(3, 2, 4, "cos")
    theta = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    zeta = np.linspace(0, 2 * np.pi / 4, 5, endpoint=False)
    field = synthesize(SurfaceCoefficients(ms, np.zeros(ms.size)), theta, zeta)
    for name in ("value", "d_theta", "d_zeta", "d_theta_theta", "d_theta_zeta", "d_zeta_zeta"):
        assert np.all(getattr(field, name) == 0.0)


def test_synthesize_rejects_empty_grid():
    ms = build_mode_set(2, 0, 1, "cos")
    with pytest.raises(ValueError):
        synthesize(coeffs_for(ms, {}), np.array([]), np.array([0.0]))


def test_synthesis_is_linear():
    rng = np.random.default_rng(0)
    ms = build_mode_set(4, 2, 3, "sin")
    c1 = rng.normal(size=ms.size)
    c2 = rng.normal(size=ms.size)
    c1[ms.fixed_mask] = 0.0
    c2[ms.fixed_mask] = 0.0
    grid = CollocationGrid.build(1, 4, 2, 3)
    theta, zeta = grid.theta, grid.zeta
    a, b = 1.7, -0.4
    combo = synthesize(SurfaceCoefficients(ms, a * c1 + b * c2), theta, zeta)
    f1 = synthesize(SurfaceCoefficients(ms, c1), theta, zeta)
    f2 = synthesize(SurfaceCoefficients(ms, c2), theta, zeta)
    ref = a * f1.value + b * f2.value
    scale = np.max(np.abs(ref)) + 1e-300
    assert np.max(np.abs(combo.value - ref)) / scale < 1e-13


@pytest.mark.parametrize("parity", ["cos", "sin"])
def test_angular_derivatives_match_finite_differences(parity):
    rng = np.random.default_rng(42)
    ms = build_mode_set(5, 3, 2, parity)
    c = rng.normal(size=ms.size)
    c[ms.fixed_mask] = 0.0
    coeffs = SurfaceCoefficients(ms, c)
    theta = np.array([0.3, 1.1, 4.0])
    zeta = np.array([0.1, 0.9])
    h = 1e-5
    field = synthesize(coeffs, theta, zeta)

    def val(th, ze):
        return synthesize(coeffs, th, ze).value

    fd_t = (val(theta + h, zeta) - val(theta - h, zeta)) / (2 * h)
    fd_z = (val(theta, zeta + h) - val(theta, zeta - h)) / (2 * h)
    scale = np.max(np.abs(fd_t)) + np.max(np.abs(fd_z))
    assert np.max(np.abs(field.d_theta - fd_t)) / scale < 1e-7
    assert np.max(np.abs(field.d_zeta - fd_z)) / scale < 1e-7
    fd_tt = (val(theta + h, zeta) - 2 * val(theta, zeta) + val(theta - h, zeta)) / h**2
    assert np.max(np.abs(field.d_theta_theta - fd_tt)) / (np.max(np.abs(fd_tt)) + 1) < 1e-5


@pytest.mark.parametrize("parity", ["cos", "sin"])
def test_projection_roundtrip(parity):
    rng = np.random.default_rng(7)
    M, N, n_fp = 4, 2, 3
    ms = build_mode_set(M, N, n_fp, parity)
    c = rng.normal(size=ms.size)
    c[ms.fixed_mask] = 0.0
    n_theta = 2 * (2 * M + 1)
    n_zeta = 2 * (2 * N + 1)
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    zeta = 2 * np.pi * np.arange(n_zeta) / (n_fp * n_zeta)
    field = synthesize(SurfaceCoefficients(ms, c), theta, zeta)
    rec = project(field.value, ms, theta, zeta)
    assert np.max(np.abs(rec - c)) < 1e-10


def test_stellarator_symmetry_of_synthesized_pair():
    rng = np.random.default_rng(1)
    cos_set = build_mode_set(4, 2, 3, "cos")
    sin_set = build_mode_set(4, 2, 3, "sin")
    rc = rng.normal(size=cos_set.size)
    zc = rng.normal(size=sin_set.size)
    zc[sin_set.fixed_mask] = 0.0
    theta = rng.uniform(0, 2 * np.pi, size=5)
    zeta = rng.uniform(0, 2 * np.pi, size=4)
    r_plus = synthesize(SurfaceCoefficients(cos_set, rc), theta, zeta).value
    r_minus = synthesize(SurfaceCoefficients(cos_set, rc), -theta, -zeta).value
    z_plus = synthesize(SurfaceCoefficients(sin_set, zc), theta, zeta).value
    z_minus = synthesize(SurfaceCoefficients(sin_set, zc), -theta, -zeta).value
    assert np.allclose(r_plus, r_minus, rtol=1e-13, atol=1e-13)
    assert np.allclose(z_plus, -z_minus, rtol=1e-13, atol=1e-13)


def test_sine_zero_mode_has_no_effect_and_is_pinned():
    ms = build_mode_set(2, 1, 1, "sin")
    with pytest.raises(ValueError):
        SurfaceCoefficients(ms, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))


# -- spectral width ------------------------------------------------------------


def test_spectral_width_single_mode():
    cos_set = build_mode_set(3, 0, 1, "cos")
    sin_set = build_mode_set(3, 0, 1, "sin")
    r = coeffs_for(cos_set, {(1, 0): 2.0})
    z = coeffs_for(sin_set, {})
    assert spectral_width(cos_set, sin_set, r.values, z.values) == 4.0


def test_spectral_width_ignores_m0():
    cos_set = build_mode_set(3, 1, 1, "cos")
    sin_set = build_mode_set(3, 1, 1, "sin")
    r = coeffs_for(cos_set, {(0, 0): 5.0, (0, 1): -2.0})
    z = coeffs_for(sin_set, {(0, 1): 3.0})
    assert spectral_width(cos_set, sin_set, r.values, z.values) == 0.0


def test_spectral_width_sums_r_and_z():
    cos_set = build_mode_set(3, 0, 1, "cos")
    sin_set = build_mode_set(3, 0, 1, "sin")
    r = coeffs_for(cos_set, {(2, 0): 1.0})
    z = coeffs_for(sin_set, {(2, 0): 1.0})
    assert spectral_width(cos_set, sin_set, r.values, z.values) == 8.0


def test_spectral_width_rejects_mismatched_sets():
    r = coeffs_for(build_mode_set(3, 0, 1, "cos"), {})
    z = coeffs_for(build_mode_set(4, 0, 1, "sin"), {})
    with pytest.raises(ValueError):
        spectral_width(r.mode_set, z.mode_set, r.values, z.values)


# -- the kernel's synthesis against the table contraction ---------------------------


def _synthesis_case(M, N, n_fp, n_theta, n_zeta, half):
    """The kernel's synthesis on a grid or on its mirror half, and its
    reference: forward and adjoint written row by row against the
    ``pair_tables`` of the same grid."""
    from equinn.solver import _mirror_half

    grid = CollocationGrid.build(3, M, N, n_fp, n_theta, n_zeta)
    if half:
        grid = _mirror_half(grid)[0]
    cos_set, sin_set = mode_set_pair(M, N, n_fp)
    pair = pair_tables(cos_set, sin_set, grid.theta, grid.zeta)
    ein = lambda spec, a, b: np.einsum(spec, a, b, optimize=False)  # noqa: E731
    alpha = 1.0 / (2.0 * grid.rho)
    # s-order -> (jet order, weight per radius) terms: d/ds = alpha d/drho,
    # d^2/ds^2 = alpha^2 d^2/drho^2 - alpha^2 / rho d/drho
    weights = {0: [(0, None)], 1: [(1, alpha)], 2: [(1, -alpha * alpha / grid.rho), (2, alpha * alpha)]}
    deriv = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4, (0, 2): 5}
    # (field, s-order, table row) of each output row, None for the pad
    rows = [None if r is None else (r[0], r[1].count(0), deriv[r[1].count(1), r[1].count(2)]) for r in mk._ROWS]

    def table(row):
        return pair[int(row[0] != 0), row[2]]

    def coefficients(jets, f, order):
        out = None
        for o, w in weights[order]:
            term = jets[o, f] if w is None else w[:, None] * jets[o, f]
            out = term if out is None else out + term
        return out

    def forward(jets):
        out = np.zeros((len(rows), grid.n_rho, grid.n_angular), dtype=jets.dtype)
        for i, row in enumerate(rows):
            if row is not None:
                out[i] = ein("rk,ka->ra", coefficients(jets, row[0], row[1]), table(row))
        return out.reshape(17, 2, grid.n_rho, -1)

    def adjoint(grad):
        # the gradients of equal rows summed first, then each jet's row
        # adjoints summed in row order
        grad = grad.reshape(len(rows), grid.n_rho, -1)
        out = np.zeros((3, 3, grid.n_rho, cos_set.size), dtype=grad.dtype)
        started = np.zeros((3, 3), dtype=bool)
        for i, row in enumerate(rows):
            if row is None or rows.index(row) != i:
                continue
            g = grad[i]
            for j in range(i + 1, len(rows)):
                if rows[j] == row:
                    g = g + grad[j]
            c = ein("ra,ka->rk", g, table(row))
            f = row[0]
            for o, w in weights[row[1]]:
                term = c if w is None else w[:, None] * c
                if started[o, f]:
                    out[o, f] += term
                else:
                    out[o, f], started[o, f] = term, True
        return out

    return mk.KernelTables(cos_set, sin_set, grid), forward, adjoint, grid, cos_set


def _operands(grid, k, seed, dtype=float):
    rng = np.random.default_rng(seed)
    jets = rng.normal(size=(3, 3, grid.n_rho, k)).astype(dtype)
    grad = rng.normal(size=(17, 2, grid.n_rho, grid.n_angular)).astype(dtype)
    return jets, grad


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("n_theta", [0, 21, 22])
def test_axisymmetric_synthesis_is_the_table_contraction_bit_for_bit(n_theta, half):
    # the dshape modes (M = 11, N = 0) on its grid and on odd and even theta counts
    tables, forward, adjoint, grid, modes = _synthesis_case(11, 0, 1, n_theta, 0, half)
    for seed in range(3):
        jets, grad = _operands(grid, modes.size, seed)
        assert np.array_equal(tables.forward(jets), forward(jets))
        assert np.array_equal(tables.adjoint(grad), adjoint(grad))


def test_axisymmetric_zeta_rows_are_exact_zeros():
    tables, _, _, grid, modes = _synthesis_case(11, 0, 1, 0, 0, True)
    zeta_rows = np.array([r is None or 2 in r[1] for r in mk._ROWS]).reshape(17, 2)
    assert zeta_rows.sum() == 18  # 17 rows (12 distinct) with a zeta derivative, and the pad
    rows = tables.forward(_operands(grid, modes.size, 0)[0])
    assert np.all(rows[zeta_rows] == 0.0)
    assert np.all(np.any(rows[~zeta_rows] != 0.0, axis=(-2, -1)))


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("n_theta, n_zeta", [(0, 0), (21, 7), (20, 9), (25, 6)])
def test_3d_synthesis_matches_the_table_contraction(n_theta, n_zeta, half):
    # the small ellipse's modes (M = 5, N = 2, n_fp = 2), grids as in the half-grid loss tests
    tables, forward, adjoint, grid, modes = _synthesis_case(5, 2, 2, n_theta, n_zeta, half)
    for seed in range(3):
        jets, grad = _operands(grid, modes.size, seed)
        for got, want in ((tables.forward(jets), forward(jets)), (tables.adjoint(grad), adjoint(grad))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("M, N, n_fp", [(11, 0, 1), (5, 2, 2)])
def test_synthesis_keeps_long_double_precision(M, N, n_fp):
    # a change of 1e-12 relative in the jets must come through to long-double
    # accuracy (float64 arithmetic would leave ~1e-4 of it)
    tables, _, _, grid, modes = _synthesis_case(M, N, n_fp, 0, 0, True)
    jets, grad = _operands(grid, modes.size, 0, np.longdouble)
    for apply, x in ((tables.forward, jets), (tables.adjoint, grad)):
        dx = x * np.longdouble(1e-12)
        diff = apply(x + dx) - apply(x)
        want = apply(dx)
        assert diff.dtype == np.longdouble
        assert np.max(np.abs(diff - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("M, N, n_fp", [(11, 0, 1), (5, 2, 2)])
def test_synthesis_adjoint_is_the_transpose(M, N, n_fp):
    # <G, S J> = <S^T G, J>
    tables, _, _, grid, modes = _synthesis_case(M, N, n_fp, 0, 0, False)
    jets, grad = _operands(grid, modes.size, 0)
    rows = tables.forward(jets)
    lhs = np.sum(grad * rows)
    rhs = np.sum(tables.adjoint(grad) * jets)
    assert abs(lhs - rhs) <= 1e-13 * np.sqrt(np.sum(grad**2) * np.sum(rows**2))
