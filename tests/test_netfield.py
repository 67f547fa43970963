"""Network-parametrized mode profiles: composition, init and boundaries."""

import numpy as np
import pytest
import sympy

from equinn import _geom, netfield as nf
from equinn.netfield import (
    EquilibriumInput,
    MLPCoefficients,
    NetParams,
    init_params,
    input_map,
    mode_profiles,
    params_to_vector,
    vector_to_params,
)
from equinn.spectral import SurfaceCoefficients, build_mode_set, mode_set_pair, synthesize
from support import mlp_forward


def make_input(M=5, N=0, r_pairs=None, z_pairs=None, axis_r=None, axis_z=None, psi_b=1.0, mb=3):
    cos_set = build_mode_set(mb, N, 1, "cos")
    sin_set = build_mode_set(mb, N, 1, "sin")
    rv = np.zeros(cos_set.size)
    zv = np.zeros(sin_set.size)
    for (m, n), v in (r_pairs or {(0, 0): 3.0, (1, 0): 1.0}).items():
        rv[cos_set.index_of(m, n)] = v
    for (m, n), v in (z_pairs or {(1, 0): 1.0}).items():
        zv[sin_set.index_of(m, n)] = v
    return EquilibriumInput(
        boundary_r=SurfaceCoefficients(cos_set, rv),
        boundary_z=SurfaceCoefficients(sin_set, zv),
        pressure=np.array([0.0]),
        iota=np.array([1.0]),
        psi_b=psi_b,
        n_fp=1,
        M=M,
        N=N,
        axis_r=axis_r,
        axis_z=axis_z,
    )


def dshape_input():
    from equinn.cli_io import parse_case

    return parse_case("dshape")[0]


def zero_net(width, k, b2=None):
    """One network (a field axis of length 1) with zero weights."""
    return MLPCoefficients(
        np.zeros((1, 1, width)), np.zeros((1, 1, width)), np.zeros((1, width, width)),
        np.zeros((1, 1, width)), np.zeros((1, k, width)),
        np.zeros((1, 1, k)) if b2 is None else np.asarray(b2, dtype=float).reshape(1, 1, k),
    )


def zero_params(input, width=2):
    return NetParams.zeros(width, *mode_set_pair(input.M, input.N, input.n_fp))


# -- input map and raw network ------------------------------------------------


def test_input_map_values():
    assert np.isclose(input_map(np.sqrt(0.5)), 0.0)
    assert np.isclose(input_map(1e-9), -1.0)
    assert input_map(0.5) == -0.5


def test_input_map_limit_to_minus_one():
    assert input_map(0.0) == -1.0


def test_mlp_zero_network():
    net = zero_net(3, 4)
    out, d1, d2 = mlp_forward(net, 0.37)
    assert np.all(out == 0) and np.all(d1 == 0) and np.all(d2 == 0)


def test_mlp_constant_network():
    net = zero_net(3, 4, b2=[1.0, -2.0, 3.5, 0.0])
    out, d1, d2 = mlp_forward(net, -0.8)
    assert np.allclose(out, [1.0, -2.0, 3.5, 0.0])
    assert np.all(d1 == 0) and np.all(d2 == 0)


def test_mlp_width_one_identity_chain():
    net = MLPCoefficients(
        np.ones((1, 1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1, 1)),
        np.ones((1, 1, 1)), np.zeros((1, 1, 1)),
    )
    out, d1, d2 = mlp_forward(net, 0.0)
    assert np.isclose(out[0], 0.0)
    assert np.isclose(d1[0], 1.0)
    assert np.isclose(d2[0], 0.0, atol=1e-15)


def test_mlp_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    net = MLPCoefficients(
        rng.normal(size=(1, 1, 4)), rng.normal(size=(1, 1, 4)), rng.normal(size=(1, 4, 4)),
        rng.normal(size=(1, 1, 4)), rng.normal(size=(1, 6, 4)), rng.normal(size=(1, 1, 6)),
    )
    f0 = 0.3
    out, d1, d2 = mlp_forward(net, f0)
    h = 1e-6
    op, _, _ = mlp_forward(net, f0 + h)
    om, _, _ = mlp_forward(net, f0 - h)
    assert np.allclose(d1, (op - om) / (2 * h), rtol=1e-8, atol=1e-9)
    h = 1e-4  # second difference loses ~eps/h^2 to rounding
    op, _, _ = mlp_forward(net, f0 + h)
    om, _, _ = mlp_forward(net, f0 - h)
    assert np.allclose(d2, (op - 2 * out + om) / h**2, rtol=1e-6, atol=1e-7)


# -- initialization -------------------------------------------------------------


def test_init_axis_anchor_is_exact():
    input = make_input(r_pairs={(0, 0): 0.2, (1, 0): 1.0}, axis_r=np.array([3.0]))
    cos_set, sin_set = mode_set_pair(input.M, input.N, input.n_fp)
    params = init_params((cos_set, sin_set), 4, 0, input)
    raw, _, _ = mlp_forward(params.r, input_map(0.0))
    composed = 0.2 + raw[cos_set.index_of(0, 0)]
    assert abs(composed - 3.0) < 1e-14


def test_init_same_seed_is_bit_identical():
    input = make_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    a = params_to_vector(init_params(sets, 5, 123, input))
    b = params_to_vector(init_params(sets, 5, 123, input))
    assert np.array_equal(a, b)
    c = params_to_vector(init_params(sets, 5, 124, input))
    assert not np.array_equal(a, c)


def test_init_weights_have_expected_scale():
    input = make_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = init_params(sets, 64, 9, input)
    for net in (params.r, params.lam, params.z):
        assert abs(float(np.std(net.w1)) - 0.01) < 0.002
        assert np.all(net.b0 == 0.0) and np.all(net.b1 == 0.0)


def test_init_missing_axis_with_no_major_radius_rejected():
    input = make_input(r_pairs={(1, 0): 1.0})
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    with pytest.raises(ValueError):
        init_params(sets, 2, 0, input)


def test_dshape_init_profiles_and_nesting():
    input = dshape_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = init_params(sets, 8, 0, input)
    cos_set = sets[0]
    rho_grid = np.linspace(0.05, 0.95, 10)
    for rho in rho_grid:
        prof = mode_profiles(params, input, float(rho))
        # m = 0 profile stays at the axis guess (= boundary m=0 fallback)
        assert abs(prof.r.values[cos_set.index_of(0, 0)] - 3.51) < 1e-4
        # m >= 1 deviations from the rho^m boundary interpolation are tiny
        # (raw network outputs at init are O(weight_scale^2) ~ 1e-4)
        for m, want in ((1, -1.0), (2, 0.106)):
            got = prof.r.values[cos_set.index_of(m, 0)]
            assert abs(got - rho**m * want) < 1e-4
        assert np.max(np.abs(prof.lam.values)) < 1e-4

    theta = 2 * np.pi * np.arange(64) / 64
    curves = []
    for rho in np.linspace(0.1, 1.0, 10):
        rho_eval = min(rho, 1 - 1e-9)
        prof = mode_profiles(params, input, rho_eval)
        r = synthesize(prof.r, theta, np.zeros(1)).value[:, 0]
        z = synthesize(prof.z, theta, np.zeros(1)).value[:, 0]
        curves.append(np.column_stack([np.append(r, r[0]), np.append(z, z[0])]))
    axis_point = (3.51, 0.0)
    for inner, outer in zip(curves, curves[1:]):
        assert not _geom.polylines_cross(inner, outer)
    for curve in curves:
        assert abs(_geom.winding_number(curve[:-1], axis_point)) == 1


# -- composed profiles ------------------------------------------------------------


def test_zero_network_keeps_boundary_m0_profile_flat():
    input = make_input(r_pairs={(0, 0): 3.0, (1, 0): 1.0})
    params = zero_params(input)
    for rho in (0.05, 0.4, 0.9):
        prof = mode_profiles(params, input, rho)
        assert prof.r.values[params.modes_cos.index_of(0, 0)] == 3.0


def test_profiles_hit_boundary_at_rho_one():
    input = dshape_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    rng = np.random.default_rng(17)
    params = init_params(sets, 4, 3, input)
    vec = params_to_vector(params) + 0.5 * rng.normal(size=params_to_vector(params).size)
    params = vector_to_params(vec, params)
    prof = mode_profiles(params, input, 1.0 - 1e-12)
    rb = nf.padded_boundary(input.boundary_r, sets[0])
    zb = nf.padded_boundary(input.boundary_z, sets[1])
    assert np.all(np.abs(prof.r.values - rb) <= 1e-9 * (1.0 + np.abs(rb)))
    assert np.all(np.abs(prof.z.values - zb) <= 1e-9 * (1.0 + np.abs(zb)))


def test_m2_constant_network_profile_matches_symbolic():
    input = make_input(r_pairs={(0, 0): 3.0})
    cos_set, _ = mode_set_pair(input.M, input.N, input.n_fp)
    c = 1.3
    b2 = np.zeros(cos_set.size)
    b2[cos_set.index_of(2, 0)] = c
    params = zero_params(input)
    params.vector.reshape(3, -1)[0, -b2.size :] = b2  # b2 closes the R network's block

    rho_s, c_s = sympy.symbols("rho c")
    expr = rho_s**2 * (1 - rho_s**2) * c_s
    for rho in (0.25, 0.5, 0.75):
        prof = mode_profiles(params, input, rho)
        idx = cos_set.index_of(2, 0)
        subs = {rho_s: rho, c_s: c}
        assert np.isclose(prof.r.values[idx], float(expr.subs(subs)), rtol=1e-14)
        assert np.isclose(prof.r.d_rho[idx], float(sympy.diff(expr, rho_s).subs(subs)), rtol=1e-14)
        assert np.isclose(prof.r.d_rho2[idx], float(sympy.diff(expr, rho_s, 2).subs(subs)), rtol=1e-14)
    prof = mode_profiles(params, input, 0.5)
    assert np.isclose(prof.r.d_rho[cos_set.index_of(2, 0)], 0.5 * c)


def test_profile_radial_derivatives_match_finite_differences():
    input = dshape_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = init_params(sets, 3, 11, input)
    vec = params_to_vector(params)
    vec += 0.3 * np.random.default_rng(5).normal(size=vec.size)
    params = vector_to_params(vec, params)
    h = 1e-6
    for rho in (0.2, 0.5, 0.8):
        prof = mode_profiles(params, input, rho)
        plus = mode_profiles(params, input, rho + h)
        minus = mode_profiles(params, input, rho - h)
        for field in ("r", "lam", "z"):
            d1 = getattr(prof, field).d_rho
            fd1 = (getattr(plus, field).values - getattr(minus, field).values) / (2 * h)
            scale = np.maximum(np.abs(fd1), 1e-3)
            assert np.max(np.abs(d1 - fd1) / scale) < 1e-6
            d2 = getattr(prof, field).d_rho2
            fd2 = (
                getattr(plus, field).values
                - 2 * getattr(prof, field).values
                + getattr(minus, field).values
            ) / h**2
            assert np.max(np.abs(d2 - fd2) / np.maximum(np.abs(fd2), 1.0)) < 2e-3


def test_analyticity_ratio_bounded_near_axis():
    input = dshape_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = init_params(sets, 6, 2, input)
    rb = nf.padded_boundary(input.boundary_r, sets[0])
    for rho in (1e-3, 1e-2, 0.1):
        prof = mode_profiles(params, input, rho)
        nn_out, _, _ = mlp_forward(params.r, input_map(rho))
        bound = 10.0 * (np.abs(rb) + np.max(np.abs(nn_out)) + 1e-12)
        ratio = np.abs(prof.r.values / rho ** sets[0].m)
        assert np.all(ratio < bound)


def test_sine_zero_zero_profile_is_pinned_for_any_params():
    input = make_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    rng = np.random.default_rng(23)
    params = init_params(sets, 3, 1, input)
    vec = params_to_vector(params) + rng.normal(size=params_to_vector(params).size)
    params = vector_to_params(vec, params)
    idx = sets[1].index_of(0, 0)
    for rho in (0.1, 0.6, 0.99):
        prof = mode_profiles(params, input, rho)
        for coeffs in (prof.lam, prof.z):
            assert coeffs.values[idx] == 0.0
            assert coeffs.d_rho[idx] == 0.0
            assert coeffs.d_rho2[idx] == 0.0


def test_mode_profiles_rejects_exterior_rho():
    input = make_input()
    params = zero_params(input)
    for rho in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            mode_profiles(params, input, rho)


def test_vector_roundtrip():
    input = make_input()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = init_params(sets, 4, 8, input)
    vec = params_to_vector(params)
    again = params_to_vector(vector_to_params(vec, params))
    assert np.array_equal(vec, again)


# -- input validation ----------------------------------------------------------


def test_validate_accepts_dshape():
    dshape_input().validate()


def test_validate_rejects_boundary_exceeding_resolution():
    input = make_input(M=2, mb=3)
    with pytest.raises(ValueError):
        input.validate()


def test_validate_rejects_zero_flux():
    input = make_input(psi_b=0.0)
    with pytest.raises(ValueError):
        input.validate()


def test_validate_rejects_self_intersecting_boundary():
    input = make_input(
        r_pairs={(0, 0): 3.0, (1, 0): 1.0},
        z_pairs={(2, 0): 1.0},
    )
    with pytest.raises(ValueError):
        input.validate()


def test_profile_polynomials_have_exact_derivatives():
    input = dshape_input()
    s = np.linspace(0, 1, 11)
    assert np.allclose(input.pressure_prime(s), -3200.0 * (1 - s))
