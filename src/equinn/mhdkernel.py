"""Geometry, magnetic field, current and force residual on a collocation grid.

Works in the inverse map from magnetic coordinates (s, theta, zeta) to
cylindrical coordinates, with s = rho^2 the normalized toroidal flux.  The
covariant basis vectors in the cylindrical frame are

    e_s = (ds R, 0, ds Z),  e_theta = (dt R, 0, dt Z),  e_zeta = (dz R, R, dz Z)

giving the Jacobian sqrt(g) = e_s . (e_theta x e_zeta) = R (dt R ds Z - ds R dt Z)
and the metric g_ij = di R dj R + R^2 di phi dj phi + di Z dj Z.

With nested flux surfaces the field has no contravariant s component:

    B^theta = psi_b (iota - dz lambda) / sqrt(g)
    B^zeta  = psi_b (1 + dt lambda) / sqrt(g)
    B_i     = B^theta g_{i theta} + B^zeta g_{i zeta}

The current follows from Ampere's law, J^i = (dj B_k - dk B_j) / (mu0 sqrt(g))
for cyclic (i, j, k), which needs second derivatives of (R, lambda, Z); the
radial ones enter through the profile jets, the angular ones through the
trigonometric basis.  Nothing in this module is finite-differenced.

The force residual F = (curl B) x B - mu0 grad p splits into a flux-surface
normal and a helical part,

    F = F_s e^s + F_h e^h,      e^h = sqrt(g) (B^zeta e^theta - B^theta e^zeta)
    F_s = mu0 [ sqrt(g) (J^theta B^zeta - J^zeta B^theta) - p'(s) ]
    F_h = -mu0 J^s

and the reported magnitude is ||F|| = sqrt(F_s^2 (e^s.e^s) + F_h^2 (e^h.e^h)).

All field arrays are shaped (n_rho, n_theta * n_zeta) and may be plain numpy
arrays or autodiff variables; the same code path produces the training loss
and the diagnostics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import autodiff as ad
from . import spectral
from .netfield import MU0, ProfileStack

__all__ = [
    "CollocationGrid",
    "FieldState",
    "JacobianSignError",
    "geometry",
    "magnetic_field",
    "current",
    "force",
    "grad_B2_magnitude",
    "gradient_magnitude",
    "volume",
    "volume_average",
    "surface_average",
    "surface_average_profile",
    "f_norm",
]


class JacobianSignError(RuntimeError):
    """sqrt(g) vanished, changed sign or went non-finite: surfaces overlap."""

    def __init__(self, message: str, node: Optional[tuple] = None):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class CollocationGrid:
    """Interior radial nodes and uniform endpoint-exclusive angular nodes."""

    rho: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray
    n_fp: int

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.rho.size == 0 or self.theta.size == 0 or self.zeta.size == 0:
            raise ValueError("grid must have at least one node per direction")
        if np.any(self.rho <= 0.0) or np.any(self.rho >= 1.0):
            raise ValueError("rho nodes must lie strictly inside (0, 1)")
        if np.any(np.diff(self.rho) <= 0.0):
            raise ValueError("rho nodes must be strictly increasing")
        if self.n_fp < 1:
            raise ValueError("n_fp must be a positive integer")

    @classmethod
    def build(
        cls,
        n_rho: int,
        M: int,
        N: int,
        n_fp: int,
        n_theta: int = 0,
        n_zeta: int = 0,
    ) -> "CollocationGrid":
        """Midpoint radial nodes with 4x oversampled angular grids."""
        rho = (np.arange(n_rho) + 0.5) / n_rho
        if n_theta <= 0:
            n_theta = 4 * M
        if n_zeta <= 0:
            n_zeta = max(1, 4 * N)
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        zeta = 2.0 * np.pi * np.arange(n_zeta) / (n_fp * n_zeta)
        return cls(rho, theta, zeta, n_fp)

    @property
    def n_rho(self) -> int:
        return self.rho.size

    @property
    def n_angular(self) -> int:
        return self.theta.size * self.zeta.size

    @property
    def n_nodes(self) -> int:
        return self.n_rho * self.n_angular

    @property
    def rho_weights(self) -> np.ndarray:
        """Midpoint-rule cell widths, with edge cells reaching 0 and 1."""
        edges = np.concatenate(
            [[0.0], 0.5 * (self.rho[1:] + self.rho[:-1]), [1.0]]
        )
        return np.diff(edges)

    def node_index(self, flat: int) -> tuple[int, int, int]:
        per_surface = self.n_angular
        i = flat // per_surface
        rem = flat % per_surface
        return (i, rem // self.zeta.size, rem % self.zeta.size)


@dataclass
class FieldState:
    """Per-node geometric and magnetic tensors, filled stage by stage.

    :func:`geometry`, :func:`magnetic_field`, :func:`current` and
    :func:`force` each fill their block.  Tensors end in the node axes
    (n_rho, n_theta * n_zeta); leading axes index coordinates (s, theta,
    zeta) or cylindrical components (R, phi, Z), a derivative index first:
    ``e[i]`` = d_i (R, Z) is the (R, Z) part of the covariant basis e_i,
    whose phi component is R for e_zeta only, ``de[k, i]`` = d_k e[i], and
    ``dual[i]`` = sqrt(g) e^i; so ``e[1, 0]`` is d R / d theta, ``b[0]`` is
    B^theta and ``jsup[0]`` is J^s.
    """

    grid: CollocationGrid
    R: object = None
    e: object = None  # (3 axes, 2 components, ...): d_i (R, Z)
    dR: object = None  # (3 axes, ...): d_i R = e[:, 0]
    de: object = None  # (3, 3 axes, 2 components, ...): d_k d_i (R, Z), symmetric
    dlam: object = None  # (2, ...): d_theta lambda, d_zeta lambda
    ddlam: object = None  # (3 axes k, 2, ...): d_k dlam
    sqrtg: object = None
    dsqrtg: object = None  # (3 axes, ...)
    dual: object = None  # (3 axes, 3 components, ...)
    iota: object = None
    gbsup: object = None  # (2, ...): sqrt(g) (B^theta, B^zeta)
    b: object = None  # (2, ...): (B^theta, B^zeta)
    db: object = None  # (3 axes, 2, ...)
    b_plane: object = None  # (2 components, ...): (B_R, B_Z)
    b_phi: object = None
    db_plane: object = None  # (3 axes, 2 components, ...)
    db_phi: object = None  # (3 axes, ...)
    jsup: object = None  # (3, ...): J^i
    F_s: object = None
    F_h: object = None
    F_mag: object = None


def _check_jacobian(sqrtg, grid: CollocationGrid) -> None:
    vals = ad.value_of(sqrtg)
    bad = ~np.isfinite(vals)
    if bad.any():
        flat = int(np.argmax(bad))
        raise JacobianSignError(
            f"non-finite Jacobian at node {grid.node_index(flat)}",
            node=grid.node_index(flat),
        )
    ref = np.sign(vals.flat[0])
    offending = (np.sign(vals) != ref) | (vals == 0.0)
    if offending.any():
        flat = int(np.argmax(offending))
        raise JacobianSignError(
            "Jacobian vanished or changed sign at node "
            f"{grid.node_index(flat)}: flux surfaces overlap",
            node=grid.node_index(flat),
        )


# cross2(a, b) = a_R b_Z - a_Z b_R = a . rot(b) for in-plane (R, Z) vectors,
# rot(b) = (b_Z, -b_R) = sum_c b_c _ROT[c]
_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
# in-plane part of sqrt(g) e^i is R * sum_j _PLANE[i, j] rot(e_j)
_PLANE = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
# sqrt(g) (B^theta, B^zeta) -> h = sqrt(g) (0, B^zeta, -B^theta)
_H = np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i in range(3):
    _LEVI_CIVITA[_i, (_i + 1) % 3, (_i + 2) % 3] = 1.0
    _LEVI_CIVITA[_i, (_i + 2) % 3, (_i + 1) % 3] = -1.0


def _jet_rows(rho: np.ndarray):
    """Weights taking the profile jets (rho-order, field, radius) to the
    s-derivative rows of each synthesis: R; d_i (R, Z) for i = s, t, z;
    d_q (R, Z) for the pairs q of _PAIRS; lambda and d_s lambda."""
    alpha = 1.0 / (2.0 * rho)
    to_s = np.zeros((3, 3, rho.size))  # (s-order, rho-order, radius)
    to_s[0, 0], to_s[1, 1], to_s[2, 1], to_s[2, 2] = 1.0, alpha, -alpha * alpha / rho, alpha * alpha
    # (s-order, output field, rho-order, field, radius)
    w = to_s[:, None, :, None, :] * np.eye(3)[None, :, None, :, None]
    return w[0, 0], w[[1, 0, 0], ::2], w[[2, 1, 1, 0, 0, 0], ::2], w[:2, 1]


# the second derivatives d_q (R, Z), q = ss, st, sz, tt, tz, zz, pair the
# tables (value, t, z, tt, tz, zz) with jets of s-order (2, 1, 1, 0, 0, 0);
# _PAIRS spreads them over the symmetric 3 x 3 (k, i)
_PAIRS = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


@dataclass(frozen=True)
class KernelTables:
    """The grid constants of :func:`geometry`.

    One synthesis (:class:`spectral.RowSynthesis`) per row set: R; e, the
    (value, d_theta, d_zeta) rows of (R, Z); d2, the six second-derivative
    rows of (R, Z); lam, the five angular derivative rows of lambda; lam_s,
    the (d_theta, d_zeta) rows of d_s lambda.  ``jet_rows`` are the weights
    of :func:`_jet_rows` for the grid's radii.
    """

    R: spectral.RowSynthesis
    e: spectral.RowSynthesis
    d2: spectral.RowSynthesis
    lam: spectral.RowSynthesis
    lam_s: spectral.RowSynthesis
    jet_rows: tuple

    @classmethod
    def build(cls, modes_cos: spectral.ModeSet, modes_sin: spectral.ModeSet, grid: CollocationGrid):
        if not (np.array_equal(modes_cos.m, modes_sin.m) and np.array_equal(modes_cos.n, modes_sin.n)):
            raise ValueError("cosine and sine mode sets must share their (m, n)")
        tables = spectral.TensorTables(modes_cos, grid.theta, grid.zeta)
        rows = functools.partial(spectral.RowSynthesis, tables)
        pair = np.arange(2)  # parity of (R, Z)
        return cls(
            rows(0, 0),
            rows(pair, np.arange(3)[:, None]),
            rows(pair, np.arange(6)[:, None]),
            rows(1, np.arange(1, 6), shared=True),
            rows(1, np.arange(1, 3), shared=True),
            _jet_rows(grid.rho),
        )


def _synthesize(rows: spectral.RowSynthesis, coeffs):
    return ad.linear(coeffs, rows.forward, rows.adjoint)


def geometry(profiles: ProfileStack, grid: CollocationGrid, tables: Optional[KernelTables] = None) -> FieldState:
    """Synthesize the map, its derivatives, the Jacobian and the dual basis.

    Radial derivatives arrive as d/d rho in the profile jets and convert to
    flux derivatives through d/ds = d/drho / (2 rho).  ``tables`` are the
    grid constants (:class:`KernelTables`); they depend only on (mode sets,
    grid) and may be passed in precomputed.  Each synthesis runs only on
    the rows it needs: lambda enters the field only through its theta and
    zeta derivatives.

    The covariant basis e_i = (d_i R, R delta_i_zeta, d_i Z) has its (R, Z)
    part in ``e``; with the in-plane cross product cross2 the Jacobian is
    sqrt(g) = R cross2(e_theta, e_s).
    """
    if tables is None:
        tables = KernelTables.build(profiles.modes_cos, profiles.modes_sin, grid)
    jets = profiles.jets
    to_r, to_e, to_de, to_lam = tables.jet_rows
    st = FieldState(grid=grid)
    st.R = _synthesize(tables.R, ad.einsum("ofr,ofrk->rk", to_r, jets))
    st.e = _synthesize(tables.e, ad.einsum("ipofr,ofrk->iprk", to_e, jets))
    d2 = _synthesize(tables.d2, ad.einsum("qpofr,ofrk->qprk", to_de, jets))
    st.de = ad.reshape(d2[_PAIRS], (3, 3) + st.e.shape[1:])
    lam = ad.einsum("jofr,ofrk->jrk", to_lam, jets)
    l0 = _synthesize(tables.lam, lam[0])  # t, z, tt, tz, zz
    st.dlam = l0[:2]
    st.ddlam = ad.stack([_synthesize(tables.lam_s, lam[1]), l0[2:4], l0[3:]])

    R, plane = st.R, st.e
    st.dR = plane[:, 0]
    rot = ad.einsum("icra,cd->idra", plane, _ROT)
    cross = ad.einsum("jcra,kcra->jkra", plane, rot)  # cross2(e_j, e_k)
    w = cross[1, 0]
    st.sqrtg = R * w
    _check_jacobian(st.sqrtg, grid)
    tilt = ad.einsum("ij,jcra->icra", _PLANE, rot)
    w_k = ad.einsum("kicra,icra->kra", st.de, tilt)
    st.dsqrtg = st.dR * w + R * w_k
    inplane = R * tilt
    # phi part cross2(e_{i+2}, e_{i+1}) = -eps_ijk cross2(e_j, e_k) / 2
    phi = ad.einsum("ijk,jkra->ira", _LEVI_CIVITA * -0.5, cross)
    st.dual = ad.stack([inplane[:, 0], phi, inplane[:, 1]], axis=1)
    return st


def magnetic_field(state: FieldState, iota_coeffs, psi_b: float) -> FieldState:
    """Fill the field components and their partials.

    ``iota_coeffs`` are the rotational-transform polynomial coefficients in
    s (ascending); the flux normalization makes d psi / ds = psi_b, and
    sqrt(g) (B^theta, B^zeta) = psi_b (iota - dz lambda, 1 + dt lambda).
    """
    st = state
    s = (st.grid.rho**2)[:, None]
    iota_coeffs = np.atleast_1d(np.asarray(iota_coeffs, dtype=float))
    st.iota = npoly.polyval(s, iota_coeffs)
    psi = float(psi_b)

    offset = np.zeros((2,) + s.shape)
    offset[0], offset[1] = psi * st.iota, psi
    d_offset = np.zeros((3, 2) + s.shape)
    d_offset[0, 0] = psi * npoly.polyval(s, npoly.polyder(iota_coeffs))
    # psi (-dz lambda, dt lambda) + (psi iota, psi), linear in dlam
    st.gbsup = ad.einsum("lm,mra->lra", psi * _ROT, st.dlam) + offset
    d_gbsup = ad.einsum("lm,kmra->klra", psi * _ROT, st.ddlam) + d_offset
    st.b = st.gbsup / st.sqrtg
    st.db = (d_gbsup - ad.einsum("lra,kra->klra", st.b, st.dsqrtg)) / st.sqrtg

    R, plane = st.R, st.e[1:]
    st.b_plane = ad.einsum("lcra,lra->cra", plane, st.b)
    st.b_phi = R * st.b[1]
    st.db_plane = ad.einsum("klcra,lra->kcra", st.de[:, 1:], st.b) + ad.einsum(
        "lcra,klra->kcra", plane, st.db
    )
    st.db_phi = st.dR * st.b[1] + R * st.db[:, 1]
    return st


def current(state: FieldState) -> FieldState:
    """Contravariant current J^i = eps_ijk d_j B_k / (mu0 sqrt(g)).

    d_j B_k = d_j e_k . B + e_k . d_j B.  The first term is symmetric in
    (j, k) in the (R, Z) plane and drops from the curl; the phi component
    adds d_j (R B_phi) to d_j B_zeta.
    """
    st = state
    edb = ad.einsum("icra,kcra->kira", st.e, st.db_plane)  # e_i . d_k B, (R, Z) part
    d_rbphi = st.dR * st.b_phi + st.R * st.db_phi
    curl = ad.einsum("ijk,jkra->ira", _LEVI_CIVITA / MU0, edb) + ad.einsum(
        "ij,jra->ira", _LEVI_CIVITA[:, :, 2] / MU0, d_rbphi
    )
    st.jsup = curl / st.sqrtg
    return st


def force(state: FieldState, p_prime) -> FieldState:
    """Force residual components and the per-node magnitude.

    ``p_prime`` is dp/ds in pascals per unit s, one value per surface (or a
    scalar).  The residual keeps the single mu0 factor of the momentum
    balance written in terms of curl B.
    """
    st = state
    pp = np.asarray(p_prime, dtype=float)
    if pp.ndim == 1:
        pp = pp[:, None]
    # h = sqrt(g) (0, B^zeta, -B^theta), so e^h = h_i e^i = (h_i dual_i) / sqrt(g)
    h = ad.einsum("il,lra->ira", _H, st.gbsup)
    st.F_s = (ad.einsum("ira,ira->ra", h, st.jsup) - pp) * MU0
    st.F_h = st.jsup[0] * (-MU0)
    det = st.sqrtg * st.sqrtg
    e_h = ad.einsum("ira,icra->cra", h, st.dual)
    ehh = ad.einsum("cra,cra->ra", e_h, e_h) / det
    e_s = st.dual[0]
    gu_ss = ad.einsum("cra,cra->ra", e_s, e_s) / det
    st.F_mag = ad.sqrt(st.F_s * st.F_s * gu_ss + st.F_h * st.F_h * ehh)
    return st


def gradient_magnitude(state: FieldState, dq_s, dq_t, dq_z):
    """|grad q| = |sum_k d_k q sqrt(g) e^k| / |sqrt(g)|, given the partials
    of q (arrays over the nodes or scalars)."""
    dual = state.dual
    grad = dq_s * dual[0] + dq_t * dual[1] + dq_z * dual[2]
    return ad.sqrt(ad.einsum("cra,cra->ra", grad, grad)) / abs(state.sqrtg)


def grad_B2_magnitude(state: FieldState):
    """Magnetic-pressure gradient magnitude |grad |B|^2| / (2 mu0) per node,
    from d_k |B|^2 = 2 (B_R d_k B_R + B_phi d_k B_phi + B_Z d_k B_Z)."""
    st = state
    db2 = 2.0 * (ad.einsum("cra,kcra->kra", st.b_plane, st.db_plane) + st.b_phi * st.db_phi)
    return gradient_magnitude(st, *db2) / (2.0 * MU0)


# -- quadrature ----------------------------------------------------------------


def _node_weights(state: FieldState, grid: CollocationGrid, weights=None) -> np.ndarray:
    """|sqrt(g)| times the s-measure 2 rho d rho, per node (uniform angles),
    times the per-node ``weights`` when given (e.g. mirror multiplicities)."""
    absg = np.abs(ad.value_of(state.sqrtg))
    radial = (2.0 * grid.rho * grid.rho_weights)[:, None]
    w = absg * radial
    return w if weights is None else w * weights


def volume(state: FieldState, grid: CollocationGrid) -> float:
    """Plasma volume of the full torus."""
    w = _node_weights(state, grid)
    dtheta = 2.0 * np.pi / grid.theta.size
    dzeta = 2.0 * np.pi / grid.zeta.size
    return float(w.sum() * dtheta * dzeta)


def volume_average(q, state: FieldState, grid: CollocationGrid, weights=None) -> float:
    """Volume average with |sqrt(g)| weights; exact 1 for q = 1.  ``weights``
    (per node, optional) multiply the quadrature weight of each node."""
    w = _node_weights(state, grid, weights)
    q = ad.value_of(q)
    return float((q * w).sum() / w.sum())


def surface_average(q, state: FieldState, grid: CollocationGrid, index: int) -> float:
    """Flux-surface average of q on the surface at grid.rho[index]."""
    absg = np.abs(ad.value_of(state.sqrtg)[index])
    q = ad.value_of(q)[index]
    return float((q * absg).sum() / absg.sum())


def surface_average_profile(q, state: FieldState, grid: CollocationGrid, weights=None) -> np.ndarray:
    """Flux-surface average of q on every surface, optionally with per-node
    ``weights`` as in :func:`volume_average`."""
    absg = np.abs(ad.value_of(state.sqrtg))
    if weights is not None:
        absg = absg * weights
    q = ad.value_of(q)
    return (q * absg).sum(axis=1) / absg.sum(axis=1)


def f_norm(state: FieldState, grid: CollocationGrid, normalizer: float, weights=None):
    """Normalized force residual per node and its volume average.

    ``normalizer`` is the volume-averaged magnetic-pressure-gradient
    magnitude <|grad |B|^2| / (2 mu0)>.  The extra mu0 carried by F_mag is
    divided out so the ratio compares (J x B - grad p) against the
    normalizer directly.  ``weights`` go to :func:`volume_average`.
    """
    if normalizer <= 0.0:
        raise ValueError("normalizer must be positive (degenerate field)")
    fn = ad.value_of(state.F_mag) / (MU0 * normalizer)
    return fn, volume_average(fn, state, grid, weights)
