"""Independent brute-force evaluation of the axisymmetric field quantities.

Everything is recomputed from the raw network parameters with plain loops:
its own network forward pass, its own profile composition and mode sum.
All derivatives come from Richardson-extrapolated central differences of
value-only evaluations: the map derivatives feeding the basis vectors, the
covariant-field derivatives feeding the current, and the |B|^2 derivatives
feeding the magnetic-pressure gradient.  The force is assembled as a
cylindrical vector mu0 (J x B - grad p) and projected onto the surface
normal and helical directions.  Nothing from the package's derivative
machinery (jets, trig-table differentiation, chain rules of the kernel) is
reused, so agreement checks both derivative paths against each other.
"""

import numpy as np

MU0 = 4e-7 * np.pi


def _tanh(x):
    return np.tanh(x)


def brute_mlp(net, f):
    """Two-layer tanh network, value only (a field axis of length 1)."""
    h = _tanh(net.w0[0, 0] * f + net.b0[0, 0])
    h = _tanh(net.w1[0] @ h + net.b1[0, 0])
    return net.w2[0] @ h + net.b2[0, 0]


def brute_coefficients(params, input, rho):
    """Composed mode coefficients at one radius, straight from definitions."""
    f = 2.0 * rho * rho - 1.0
    cos_set, sin_set = params.modes_cos, params.modes_sin

    def boundary(coeffs, target):
        out = np.zeros(target.size)
        src = coeffs.mode_set
        for i in range(src.size):
            sel = (target.m == src.m[i]) & (target.n == src.n[i])
            out[np.nonzero(sel)[0][0]] = coeffs.values[i]
        return out

    rb = boundary(input.boundary_r, cos_set)
    zb = boundary(input.boundary_z, sin_set)
    phi = 1.0 - rho * rho
    r = rho**cos_set.m * (rb + phi * brute_mlp(params.r, f))
    lam = rho**sin_set.m * brute_mlp(params.lam, f)
    z = rho**sin_set.m * (zb + phi * brute_mlp(params.z, f))
    pin = (sin_set.m == 0) & (sin_set.n == 0)
    lam[pin] = 0.0
    z[pin] = 0.0
    return r, lam, z


def brute_map(params, input, s, theta):
    """(R, lambda, Z) values at one (s, theta) point, zeta = 0, N = 0."""
    rho = np.sqrt(s)
    r_c, l_c, z_c = brute_coefficients(params, input, rho)
    m_cos = params.modes_cos.m
    m_sin = params.modes_sin.m
    r = float(np.sum(r_c * np.cos(m_cos * theta)))
    lam = float(np.sum(l_c * np.sin(m_sin * theta)))
    z = float(np.sum(z_c * np.sin(m_sin * theta)))
    return np.array([r, lam, z])


def _richardson(fn, x, h):
    def central(hh):
        return (fn(x + hh) - fn(x - hh)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def brute_point(params, input, s, theta, h_r=1e-3, h_t=1e-3):
    """All field quantities at one interior node of an axisymmetric case.

    The map is entire in rho but only Hoelder-smooth in s = rho^2 near the
    axis (odd-m harmonics carry half-integer powers of s), so all radial
    differences run in rho and convert through d/ds = d/drho / (2 rho).
    The current and |B|^2 gradients difference quantities that already carry
    inner finite-difference noise of ~1e-12; the 1e-3 steps keep that noise
    amplification near 1e-9 while Richardson extrapolation holds the
    truncation error at a comparable level.
    """
    assert input.N == 0, "oracle is written for axisymmetric configurations"

    def map_at(rv, tv):
        return brute_map(params, input, rv * rv, tv)

    def d_drho(fn, rv):
        return _richardson(fn, rv, min(h_r, 0.25 * rv, 0.25 * (1.0 - rv)))

    rho = np.sqrt(s)
    val = map_at(rho, theta)
    dmap_ds = d_drho(lambda rv: map_at(rv, theta), rho) / (2.0 * rho)
    dmap_dt = _richardson(lambda tv: map_at(rho, tv), theta, h_t)

    r = val[0]
    e_s = np.array([dmap_ds[0], 0.0, dmap_ds[2]])
    e_t = np.array([dmap_dt[0], 0.0, dmap_dt[2]])
    e_z = np.array([0.0, r, 0.0])  # axisymmetric: d(R,Z)/d zeta = 0

    sqrtg = float(np.dot(e_s, np.cross(e_t, e_z)))
    lower = np.array(
        [
            [np.dot(e_s, e_s), np.dot(e_s, e_t), np.dot(e_s, e_z)],
            [np.dot(e_t, e_s), np.dot(e_t, e_t), np.dot(e_t, e_z)],
            [np.dot(e_z, e_s), np.dot(e_z, e_t), np.dot(e_z, e_z)],
        ]
    )
    upper = np.linalg.inv(lower)

    psi_b = input.psi_b

    def b_pieces(rv, tv):
        mv = map_at(rv, tv)
        ds = d_drho(lambda x: map_at(x, tv), rv) / (2.0 * rv)
        dt = _richardson(lambda x: map_at(rv, x), tv, h_t)
        es = np.array([ds[0], 0.0, ds[2]])
        et = np.array([dt[0], 0.0, dt[2]])
        ez = np.array([0.0, mv[0], 0.0])
        sg = float(np.dot(es, np.cross(et, ez)))
        it = float(np.polynomial.polynomial.polyval(rv * rv, input.iota))
        bsup_t = psi_b * it / sg  # d lambda / d zeta = 0
        bsup_z = psi_b * (1.0 + dt[1]) / sg
        bvec = bsup_t * et + bsup_z * ez
        b_cov = np.array(
            [np.dot(bvec, es), np.dot(bvec, et), np.dot(bvec, ez)]
        )
        return b_cov, bsup_t, bsup_z, bvec, es, et, ez, sg

    b_cov, bsup_t, bsup_z, b_vec, *_ = b_pieces(rho, theta)

    db_ds = d_drho(lambda rv: b_pieces(rv, theta)[0], rho) / (2.0 * rho)
    db_dt = _richardson(lambda tv: b_pieces(rho, tv)[0], theta, h_t)

    # cyclic curl; all zeta derivatives vanish by axisymmetry
    jsup_s = db_dt[2] / (MU0 * sqrtg)
    jsup_t = -db_ds[2] / (MU0 * sqrtg)
    jsup_z = (db_ds[1] - db_dt[0]) / (MU0 * sqrtg)

    j_vec = jsup_s * e_s + jsup_t * e_t + jsup_z * e_z
    p_prime = float(
        np.polynomial.polynomial.polyval(
            s, np.polynomial.polynomial.polyder(input.pressure)
        )
    )
    e_sup_s = np.cross(e_t, e_z) / sqrtg
    e_sup_t = np.cross(e_z, e_s) / sqrtg
    e_sup_z = np.cross(e_s, e_t) / sqrtg
    f_vec = MU0 * (np.cross(j_vec, b_vec) - p_prime * e_sup_s)

    f_s = float(np.dot(f_vec, e_s))
    f_h = float(np.dot(f_vec, e_t) / (sqrtg * bsup_z))
    e_h = sqrtg * (bsup_z * e_sup_t - bsup_t * e_sup_z)
    f_mag = np.sqrt(f_s**2 * np.dot(e_sup_s, e_sup_s) + f_h**2 * np.dot(e_h, e_h))

    def b2_at(rv, tv):
        return float(np.sum(b_pieces(rv, tv)[3] ** 2))

    db2_ds = d_drho(lambda rv: b2_at(rv, theta), rho) / (2.0 * rho)
    db2_dt = _richardson(lambda tv: b2_at(rho, tv), theta, h_t)
    grad = np.array([db2_ds, db2_dt, 0.0])
    grad_b2 = np.sqrt(float(grad @ upper @ grad)) / (2.0 * MU0)

    return {
        "R": r,
        "sqrtg": sqrtg,
        "bsup_t": bsup_t,
        "bsup_z": bsup_z,
        "b_cov": b_cov,
        "jsup_s": jsup_s,
        "jsup_t": jsup_t,
        "jsup_z": jsup_z,
        "F_s": f_s,
        "F_h": f_h,
        "F_mag": float(f_mag),
        "grad_b2": float(grad_b2),
        "f_vec": f_vec,
    }
