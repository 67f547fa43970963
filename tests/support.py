"""Shared fixtures-in-code for the tests."""

import numpy as np

from equinn import _geom, autodiff as ad, mhdkernel as mk, netfield as nf
from equinn.autodiff import Jet2
from equinn.netfield import ProfileStack
from equinn.solver import _strong_wolfe
from equinn.spectral import COSINE, SINE, _tables, build_mode_set

# A small stellarator-symmetric 3D case (n_fp=2, M=5, N=2) that exercises
# every zeta-derivative path.
ELLIPSE_CASE = """
[global]
psi_b = 1.0
n_fp = 2
M = 5
N = 2

[boundary]
0  0  4.0  0.0
1  0  1.0  1.0
1  1  0.3  -0.3

[profiles]
pressure = 1000.0 -2000.0 1000.0
iota = 0.5 0.2
"""


def mlp_jets(nets, f):
    """The networks taped through :class:`Jet2` on Var or plain weights:
    outputs without the last bias, shape (3, F, n_rho, K), as jets in the
    seed variable of ``f`` (components shaped (n_rho, 1)).  The reference
    for the network node of :func:`netfield.profile_stack`."""
    h = Jet2(f.value * nets.w0 + nets.b0, f.d1 * nets.w0, f.d2 * nets.w0).tanh()
    h = Jet2(*(np.einsum("frh,fkh->frk", x, nets.w1) for x in (h.value, h.d1, h.d2)))
    h = Jet2(h.value + nets.b1, h.d1, h.d2).tanh()
    return np.einsum("jfrh,fkh->jfrk", np.stack([h.value, h.d1, h.d2]), nets.w2)


def taped_profile_jets(params, constants):
    """The composed jets of :func:`netfield.profile_stack`, taped op by op
    through :func:`mlp_jets` instead of as one node."""
    nets = params.fields()
    raw = mlp_jets(nets, constants.f)
    return np.einsum("jifrk,ifrk->jfrk", constants.compose, raw) + constants.P * nets.b2 + constants.C


def mlp_forward(net, f):
    """Output vector of one network (a field axis of length 1, such as
    ``params.r``) and its first/second derivatives with respect to f, from
    the taped reference :func:`mlp_jets`."""
    seed = Jet2(np.array([[float(f)]]), np.array([[1.0]]), np.array([[0.0]]))
    raw = ad.value_of(mlp_jets(net, seed))[:, 0, 0]
    return raw[0] + ad.value_of(net.b2)[0, 0], raw[1].copy(), raw[2].copy()


def torus_stack(rho, R0=3.0, a=1.0, M=2, axis_shift=None):
    """Concentric circular surfaces R = R0 + a rho cos(theta), Z = a rho sin(theta).

    ``axis_shift`` adds an m=0 radial profile shift * rho^2 to R, used to
    construct deliberately overlapping surfaces.
    """
    rho = np.asarray(rho, dtype=float)
    cos_set = build_mode_set(M, 0, 1, "cos")
    sin_set = build_mode_set(M, 0, 1, "sin")
    n = rho.size
    k = cos_set.size

    rv, r1, r2 = np.zeros((3, n, k))
    rv[:, cos_set.index_of(0, 0)] = R0
    rv[:, cos_set.index_of(1, 0)] = a * rho
    r1[:, cos_set.index_of(1, 0)] = a
    if axis_shift is not None:
        rv[:, cos_set.index_of(0, 0)] += axis_shift * rho**2
        r1[:, cos_set.index_of(0, 0)] = 2 * axis_shift * rho
        r2[:, cos_set.index_of(0, 0)] = 2 * axis_shift

    zv, z1, z2 = np.zeros((3, n, k))
    zv[:, sin_set.index_of(1, 0)] = a * rho
    z1[:, sin_set.index_of(1, 0)] = a

    lam = np.zeros((3, n, k))
    jets = np.stack([[rv, r1, r2], lam, [zv, z1, z2]], axis=1)  # (jet order, field, radius, mode)
    return ProfileStack(rho, cos_set, sin_set, jets)


def contravariant_basis(state):
    """e^s, e^theta, e^zeta of a field state as cylindrical component triples
    (plain arrays)."""
    dual = ad.value_of(state.dual) / ad.value_of(state.sqrtg)
    return dual[0], dual[1], dual[2]


def full_grid_metrics(asm, x):
    """The diagnostics of ``LossAssembler.metrics`` as unweighted quadratures
    over the full-grid ``field_state``: the reference for the half grid."""
    state = asm.field_state(nf.vector_to_params(np.asarray(x, dtype=float), asm.template))
    normalizer = mk.volume_average(mk.grad_B2_magnitude(state), state, asm.grid)
    fnorm, fvol = mk.f_norm(state, asm.grid, normalizer)
    return {
        "f_vol_norm": fvol,
        "f_norm_profile": mk.surface_average_profile(fnorm, state, asm.grid),
        "normalizer": normalizer,
        "loss": float(ad.mean_all(state.F_mag)),
    }


def textbook_bfgs(x0, value_and_grad, iterations):
    """Iterates of textbook BFGS with the strong-Wolfe search of
    ``solver.bfgs_stage``: the direction from an explicit H g, the update
    H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, rho = 1 / y.s, with
    H = (y.s / y.y) I before the first, and the secant condition H y = s
    checked on an explicit H y after each.  For smooth losses on which
    the stage neither resets H nor skips a pair."""
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)
    eye = np.eye(x.size)
    h, first, iterates = eye, True, []
    for _ in range(iterations):
        p = -(h @ g)

        def evaluate(alpha):
            xt = x + alpha * p
            ft, gt = value_and_grad(xt)
            return ft, float(gt @ p), (xt, ft, gt)

        x_new, f, g_new = _strong_wolfe(evaluate, f, float(g @ p))
        s, y = x_new - x, g_new - g
        x, g = x_new, g_new
        iterates.append(x)
        ys = float(y @ s)
        assert ys > 0.0
        if first:
            h, first = eye * (ys / float(y @ y)), False
        rho = 1.0 / ys
        left = eye - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
        assert np.allclose(h @ y, s, rtol=1e-8, atol=0.0)  # secant condition
    return iterates


def polylines_cross(a: np.ndarray, b: np.ndarray) -> bool:
    """True if any segment of polyline ``a`` properly crosses one of ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1 = a[:-1], a[1:]
    b0, b1 = b[:-1], b[1:]
    hits = _geom.segments_cross(
        a0[:, None, :], a1[:, None, :], b0[None, :, :], b1[None, :, :]
    )
    return bool(hits.any())


def winding_number(polygon: np.ndarray, point) -> int:
    """Winding count of a closed polygon around ``point``."""
    pts = np.asarray(polygon, dtype=float)
    rel = pts - np.asarray(point, dtype=float)
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.round(dang.sum() / (2.0 * np.pi)))


def volume(state, grid) -> float:
    """Plasma volume of the full torus, the |sqrt(g)| quadrature of
    ``mhdkernel.volume_average``."""
    w = mk._node_weights(state, grid)
    dtheta = 2.0 * np.pi / grid.theta.size
    dzeta = 2.0 * np.pi / grid.zeta.size
    return float(w.sum() * dtheta * dzeta)


def pair_tables(modes_cos, modes_sin, theta, zeta) -> np.ndarray:
    """Cosine and sine tables of one (m, n) set, shape (2, 6, n_modes,
    n_theta * n_zeta), second axis as in ``spectral._tables``: the reference
    of the kernel's synthesis and of the exports' rows."""
    if not (np.array_equal(modes_cos.m, modes_sin.m) and np.array_equal(modes_cos.n, modes_sin.n)):
        raise ValueError("cosine and sine mode sets must share their (m, n)")
    return _tables(modes_cos, theta, zeta, (COSINE, SINE))
