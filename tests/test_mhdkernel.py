"""Field kernel: geometry, magnetic field, current, force and averages."""

import numpy as np
import pytest
import sympy
from support import contravariant_basis, torus_stack, volume

from equinn import mhdkernel as mk
from equinn.mhdkernel import CollocationGrid, JacobianSignError
from equinn.netfield import MU0


def torus_state(n_rho=8, R0=3.0, a=1.0, n_theta=16, iota=(1.0,), psi_b=1.0, with_force=True):
    grid = CollocationGrid.build(n_rho, 2, 0, 1, n_theta=n_theta)
    state = mk.geometry(torus_stack(grid.rho, R0, a), grid)
    mk.magnetic_field(state, np.asarray(iota), psi_b)
    if with_force:
        mk.current(state)
        mk.force(state, np.zeros(n_rho))
    return grid, state


def metric(state):
    """g_ij = e_i . e_j; the phi component R of e_zeta adds R^2 to g_zz."""
    g = np.einsum("icra,jcra->ijra", state.e, state.e)
    g[2, 2] += state.R**2
    return g


def covariant_field(state):
    """B_i = e_i . B from the (R, Z) basis, R and the field components."""
    bsub = np.einsum("icra,cra->ira", state.e, state.b_plane)
    bsub[2] += state.R * state.b_phi
    return bsub


# -- geometry -----------------------------------------------------------------


def test_torus_jacobian_matches_symbolic():
    rho_s, th, R0_s, a_s = sympy.symbols("rho theta R0 a", positive=True)
    s = sympy.Symbol("s", positive=True)
    R = R0_s + a_s * sympy.sqrt(s) * sympy.cos(th)
    Z = a_s * sympy.sqrt(s) * sympy.sin(th)
    sqrtg_sym = R * (sympy.diff(R, th) * sympy.diff(Z, s) - sympy.diff(R, s) * sympy.diff(Z, th))
    sqrtg_sym = sympy.simplify(sqrtg_sym.subs(s, rho_s**2))
    # the closed form is -a^2 R / 2
    assert sympy.simplify(sqrtg_sym + a_s**2 * R.subs(s, rho_s**2) / 2) == 0

    grid, state = torus_state(n_rho=6, n_theta=12, with_force=False)
    want = -1.0 * state.R / 2.0
    assert np.max(np.abs(state.sqrtg - want) / np.abs(want)) < 1e-10


def test_torus_jacobian_value_at_example_node():
    grid = CollocationGrid(np.array([0.5]), np.array([0.0]), np.array([0.0]), 1)
    state = mk.geometry(torus_stack(grid.rho), grid)
    g = metric(state)
    assert np.isclose(state.sqrtg[0, 0], -1.75, rtol=1e-12)
    assert np.isclose(g[1, 1, 0, 0], 0.25, rtol=1e-12)
    assert np.isclose(g[2, 2, 0, 0], 12.25, rtol=1e-12)


def test_lambda_zero_leaves_geometry_unaffected():
    grid = CollocationGrid.build(4, 2, 0, 1, n_theta=8)
    state = mk.geometry(torus_stack(grid.rho), grid)
    assert np.all(state.dlam == 0.0) and np.all(state.ddlam == 0.0)


def test_overlapping_surfaces_raise_jacobian_error():
    grid = CollocationGrid.build(6, 2, 0, 1, n_theta=16)
    stack = torus_stack(grid.rho, axis_shift=-8.0)
    with pytest.raises(JacobianSignError):
        mk.geometry(stack, grid)


def test_jacobian_matches_reciprocal_of_contravariant_triple_product():
    grid, state = torus_state(n_rho=5, n_theta=12, with_force=False)
    es, et, ez = contravariant_basis(state)
    triple = (
        es[0] * (et[1] * ez[2] - et[2] * ez[1])
        + es[1] * (et[2] * ez[0] - et[0] * ez[2])
        + es[2] * (et[0] * ez[1] - et[1] * ez[0])
    )
    assert np.max(np.abs(triple - 1.0 / state.sqrtg) * np.abs(state.sqrtg)) < 1e-10


def test_metric_inverse_is_consistent():
    grid, state = torus_state(n_rho=4, n_theta=10, with_force=False)
    lower = metric(state)
    upper = np.einsum("icra,jcra->ijra", state.dual, state.dual) / state.sqrtg**2  # e^i . e^j
    prod = np.einsum("ik...,kj...->ij...", upper, lower)
    eye = np.eye(3)[:, :, None, None]
    assert np.max(np.abs(prod - eye)) < 1e-10


# -- magnetic field ----------------------------------------------------------------


def test_field_ratio_equals_iota_for_zero_lambda():
    grid, state = torus_state(iota=(0.83, -0.21), with_force=False)
    iota = state.iota
    assert np.max(np.abs(state.b[0] / state.b[1] - iota)) < 1e-13


def test_field_example_value_on_circular_torus():
    grid = CollocationGrid(np.array([0.5]), np.array([0.0]), np.array([0.0]), 1)
    state = mk.geometry(torus_stack(grid.rho), grid)
    mk.magnetic_field(state, np.array([1.0]), 1.0)
    assert np.isclose(state.b[0, 0, 0], 1.0 / -1.75, rtol=1e-12)
    assert np.isclose(state.b[1, 0, 0], 1.0 / -1.75, rtol=1e-12)


def test_zero_flux_means_zero_field_and_current():
    grid, state = torus_state(psi_b=0.0)
    for name, value in (("B^i", state.b), ("B_i", covariant_field(state)), ("J^i", state.jsup)):
        assert np.all(value == 0.0), name


def test_field_is_tangent_to_flux_surfaces():
    grid, state = torus_state(n_rho=6, n_theta=14, iota=(1.0, -0.4))
    es, _, _ = contravariant_basis(state)
    bt, bz = state.b
    e_t, e_z = state.e[1], state.e[2]
    b_cyl = np.stack(
        [
            bt * e_t[0] + bz * e_z[0],
            bz * state.R,
            bt * e_t[1] + bz * e_z[1],
        ]
    )
    bdots = np.sum(b_cyl * es, axis=0)
    bscale = np.sqrt(np.sum(b_cyl**2, axis=0)) * np.sqrt(np.sum(es**2, axis=0))
    assert np.max(np.abs(bdots) / bscale) < 1e-12


# -- current -----------------------------------------------------------------------


def test_axisymmetric_radial_current_reduces_to_theta_derivative():
    grid, state = torus_state(n_rho=5, n_theta=12, iota=(0.9, -0.3))
    # d_theta B_zeta = d_theta e_zeta . B + e_zeta . d_theta B, phi part d_theta (R B_phi)
    dbz_t = (
        np.einsum("cra,cra->ra", state.de[1, 2], state.b_plane)
        + np.einsum("cra,cra->ra", state.e[2], state.db_plane[1])
        + state.dR[1] * state.b_phi
        + state.R * state.db_phi[1]
    )
    want = dbz_t / (MU0 * state.sqrtg)
    assert np.allclose(state.jsup[0], want, rtol=1e-13)


def test_current_matches_finite_differences_of_covariant_field():
    """J^i against the curl of B_i = e_i . B from step-halving differences."""
    from equinn import cli_io, netfield as nf, solver as sv

    input, _ = cli_io.parse_case("dshape")
    input = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, input.pressure, input.iota,
        input.psi_b, input.n_fp, 5, 0,
    )
    grid = CollocationGrid.build(6, 5, 0, 1)
    asm = sv.LossAssembler(input, 2, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), 2, 0, input)

    def state_at(rho_nodes, theta):
        g = CollocationGrid(np.asarray(rho_nodes), theta, grid.zeta, 1)
        stack = nf.profile_stack(params, input, np.asarray(rho_nodes))
        st = mk.geometry(stack, g)
        mk.magnetic_field(st, input.iota, input.psi_b)
        return st

    state = state_at(grid.rho, grid.theta)
    mk.current(state)

    def richardson(fn, h):
        return (4.0 * fn(h / 2) - fn(h)) / 3.0

    h = 1e-4
    s = grid.rho**2

    # d/ds via rho perturbations at fixed theta, d/dtheta via rotated angular grids
    def d_ds(h):
        plus, minus = state_at(np.sqrt(s + h), grid.theta), state_at(np.sqrt(s - h), grid.theta)
        return (covariant_field(plus) - covariant_field(minus)) / (2 * h)

    def d_dt(h):
        plus, minus = state_at(grid.rho, grid.theta + h), state_at(grid.rho, grid.theta - h)
        return (covariant_field(plus) - covariant_field(minus)) / (2 * h)

    db_s, db_t = richardson(d_ds, h), richardson(d_dt, h)
    # cyclic curl; the zeta derivatives vanish by axisymmetry
    mu_g = MU0 * state.sqrtg
    fd = (db_t[2] / mu_g, -db_s[2] / mu_g, (db_s[1] - db_t[0]) / mu_g)
    # J^s needs only angular derivatives, analytic trig differentiation: much tighter
    for i, tol in ((0, 1e-6), (1, 1e-4), (2, 1e-4)):
        scale = np.maximum(np.abs(fd[i]), 1e-6 * np.max(np.abs(fd[i])) + 1e-300)
        assert np.max(np.abs(state.jsup[i] - fd[i]) / scale) < tol, i


# -- force --------------------------------------------------------------------------


def test_zero_field_zero_pressure_zero_force():
    grid, state = torus_state(psi_b=0.0)
    assert np.all(state.F_mag == 0.0)


def test_pure_pressure_force_magnitude():
    grid = CollocationGrid.build(5, 2, 0, 1, n_theta=12)
    state = mk.geometry(torus_stack(grid.rho), grid)
    mk.magnetic_field(state, np.array([1.0]), 0.0)
    mk.current(state)
    pp = np.full(grid.n_rho, -3200.0)
    mk.force(state, pp)
    # |grad s| = 2 rho / a on concentric circles of minor radius a = 1
    want = MU0 * np.abs(pp)[:, None] * 2.0 * grid.rho[:, None]
    assert np.allclose(state.F_mag, want, rtol=1e-12)


def test_force_scale_covariance_in_flux_and_pressure():
    c = 2.0
    grid = CollocationGrid.build(4, 2, 0, 1, n_theta=10)
    pp = np.full(grid.n_rho, -120.0)

    def assemble(psi_b, pressure_scale):
        state = mk.geometry(torus_stack(grid.rho), grid)
        mk.magnetic_field(state, np.array([1.0, -0.4]), psi_b)
        mk.current(state)
        mk.force(state, pp * pressure_scale)
        return state

    base = assemble(1.0, 1.0)
    scaled = assemble(c, c**2)
    assert np.allclose(scaled.b[0], c * base.b[0], rtol=1e-13)
    assert np.allclose(scaled.jsup[2], c * base.jsup[2], rtol=1e-13)
    assert np.allclose(scaled.F_s, c**2 * base.F_s, rtol=1e-13)
    assert np.allclose(scaled.F_mag, c**2 * base.F_mag, rtol=1e-13)


def test_equilibrium_limit_has_vanishing_force():
    grid, state = torus_state(psi_b=0.0)
    assert np.all(state.F_mag == 0.0)
    assert np.all(state.F_s == 0.0) and np.all(state.F_h == 0.0)


# -- gradient magnitudes -------------------------------------------------------------


def test_gradient_magnitude_of_flux_label():
    grid, state = torus_state(n_rho=5, n_theta=12, with_force=False)
    one = np.ones_like(state.sqrtg)
    zero = np.zeros_like(state.sqrtg)
    got = mk.gradient_magnitude(state, one, zero, zero)
    # |grad s| = 2 rho / a on concentric circles of minor radius a = 1
    assert np.allclose(got, 2.0 * grid.rho[:, None] * one, rtol=1e-13)


def test_gradient_magnitude_of_constant_is_zero():
    grid, state = torus_state(with_force=False)
    zero = np.zeros_like(state.sqrtg)
    assert np.all(mk.gradient_magnitude(state, zero, zero, zero) == 0.0)


def test_grad_b2_magnitude_positive_on_torus():
    grid, state = torus_state(n_rho=6, n_theta=16, iota=(0.8,))
    mk.current(state)
    gb = mk.grad_B2_magnitude(state)
    assert np.all(np.isfinite(gb)) and np.all(gb > 0.0)


# -- averages ------------------------------------------------------------------------


def test_volume_average_of_one_is_exact():
    grid, state = torus_state(n_rho=7, n_theta=16, with_force=False)
    assert abs(mk.volume_average(np.ones_like(state.sqrtg), state, grid) - 1.0) < 1e-12


def test_volume_average_is_linear_in_constant():
    grid, state = torus_state(n_rho=7, n_theta=16, with_force=False)
    c = -4.2
    got = mk.volume_average(np.full_like(state.sqrtg, c), state, grid)
    assert abs(got - c) < 1e-12


def test_torus_volume_matches_analytic():
    grid = CollocationGrid.build(64, 2, 0, 1, n_theta=32)
    state = mk.geometry(torus_stack(grid.rho), grid)
    want = 2.0 * np.pi**2 * 3.0 * 1.0**2
    got = volume(state, grid)
    assert abs(got - want) / want < 1e-3


def test_surface_average_of_one_and_flux_functions():
    grid, state = torus_state(n_rho=5, n_theta=12, with_force=False)
    ones = np.ones_like(state.sqrtg)
    assert abs(mk.surface_average_profile(ones, state, grid)[2] - 1.0) < 1e-13
    f_of_rho = (grid.rho**2)[:, None] * np.ones_like(state.sqrtg)
    profile = mk.surface_average_profile(f_of_rho, state, grid)
    for i in (0, 3):
        assert abs(profile[i] - grid.rho[i] ** 2) < 1e-13


# -- normalized residual ---------------------------------------------------------------


def test_f_norm_zero_force():
    grid, state = torus_state(psi_b=0.0)
    fn, fvol = mk.f_norm(state, grid, normalizer=123.0)
    assert np.all(fn == 0.0) and fvol == 0.0


def test_f_norm_unit_ratio():
    grid, state = torus_state(iota=(0.7,), psi_b=1.3)
    normalizer = mk.volume_average(state.F_mag, state, grid) / MU0
    fn, fvol = mk.f_norm(state, grid, normalizer)
    assert abs(fvol - 1.0) < 1e-12


def test_f_norm_rejects_degenerate_normalizer():
    grid, state = torus_state()
    with pytest.raises(ValueError):
        mk.f_norm(state, grid, 0.0)


def test_f_vol_norm_invariant_under_flux_scaling_force_free():
    grid = CollocationGrid.build(5, 2, 0, 1, n_theta=12)

    def fvol(psi_b):
        state = mk.geometry(torus_stack(grid.rho), grid)
        mk.magnetic_field(state, np.array([0.9, -0.2]), psi_b)
        mk.current(state)
        mk.force(state, np.zeros(grid.n_rho))
        normalizer = mk.volume_average(mk.grad_B2_magnitude(state), state, grid)
        return mk.f_norm(state, grid, normalizer)[1]

    assert abs(fvol(1.0) - fvol(2.0)) < 1e-13 * fvol(1.0)


# -- grid ---------------------------------------------------------------------------


def test_grid_rejects_exterior_rho_nodes():
    with pytest.raises(ValueError):
        CollocationGrid(np.array([0.0, 0.5]), np.array([0.0]), np.array([0.0]), 1)
    with pytest.raises(ValueError):
        CollocationGrid(np.array([0.5, 0.4]), np.array([0.0]), np.array([0.0]), 1)


def test_grid_weights_partition_unity():
    grid = CollocationGrid.build(13, 3, 2, 4)
    assert abs(grid.rho_weights.sum() - 1.0) < 1e-14
    assert grid.theta.size == 12 and grid.zeta.size == 8
    assert grid.zeta[-1] < 2 * np.pi / 4
