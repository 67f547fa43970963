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

All field arrays are shaped (n_rho, n_theta * n_zeta).  The training loss and
the diagnostics run the same four stage functions on plain arrays: the loss
tapes them as one node from the profile jets to ||F|| (:func:`force_magnitude`),
whose reverse pass is a hand-written adjoint.  Nothing in that node, nor in
the arrays the diagnostics read (:func:`residual_fields`), sums over radii,
so on a large grid both run as radial blocks on two threads and round
exactly as on one.  The stages call numpy
directly; on jets that are an :class:`autodiff.Var`, numpy records each call,
so the stages tape themselves node by node, which gives the reference
gradient for that adjoint.  The quadratures take plain arrays only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

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
    "field_state",
    "force_magnitude",
    "residual_fields",
    "grad_B2_magnitude",
    "gradient_magnitude",
    "volume_average",
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


# The rows the kernel reads, as (field, derivative axes) with field 0 R, 1
# lambda, 2 Z and axes 0 s, 1 theta, 2 zeta, in pairs: d_k d_i (R, Z) (de),
# d_j lambda for j = theta, zeta (dlam), d_k d_j lambda (ddlam), R and a zero
# pad, d_i (R, Z) (e).  The adjoint sums the rows of a coefficient in this
# order.
_ROWS = (
    [(p, (k, i)) for k in range(3) for i in range(3) for p in (0, 2)]
    + [(1, (j,)) for j in (1, 2)]
    + [(1, (k, j)) for k in range(3) for j in (1, 2)]
    + [(0, ()), None]
    + [(p, (i,)) for i in range(3) for p in (0, 2)]
)
# the coefficient sets (field, s-order), in the order of KernelTables._sets
_SETS = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (2, 2)]
# the theta orders a unit (coefficient set, zeta order) is synthesized with,
# in unit order: each theta order then takes a contiguous range of units
_THETA_ORDERS = [(1,), (1, 2), (0, 1, 2), (0, 1), (0,)]


class _RowPlan(NamedTuple):
    """Index tables of the synthesis, the same for every grid of one kind.

    A row is (field, s-order, theta order a, zeta order b).  Its coefficient
    set is (field, s-order), one of :data:`_SETS`, and its unit is (set, b):
    the rows of a unit share one toroidal sum.  ``units``, ``b``, ``form``
    and ``sign`` give each unit's set, b, poloidal form (parity + b) mod 2
    and sign (-1 where parity + b >= 2); for each a, the synthesized rows
    ``rows[a]`` are taken of the units ``units[ranges[a]]``, in order.
    ``src`` places the synthesized rows (and a zero row after them) on the
    output rows; ``first`` and ``dups`` gather their adjoints back.
    ``slots`` list, per jet (order, field), the (term, weight) products the
    adjoint sums, in order: a term is a synthesized row when no zeta
    derivative is live, else a unit.
    """

    units: np.ndarray
    b: np.ndarray
    form: np.ndarray
    sign: np.ndarray
    ranges: list
    rows: list
    src: np.ndarray
    first: np.ndarray
    dups: tuple
    slots: list

    @classmethod
    def build(cls, zeta_rows: bool) -> "_RowPlan":
        keys = [None if r is None else (r[0],) + tuple(r[1].count(x) for x in range(3)) for r in _ROWS]
        live = [k for k in dict.fromkeys(keys) if k is not None and (zeta_rows or k[3] == 0)]
        unit_of = {k: (_SETS.index(k[:2]), k[3]) for k in live}
        orders = {}
        for k, u in unit_of.items():
            orders.setdefault(u, set()).add(k[2])
        units = sorted(orders, key=lambda u: _THETA_ORDERS.index(tuple(sorted(orders[u]))))
        ranges, rows, index = [], [], {}
        for a in range(3):
            taken = [i for i, u in enumerate(units) if a in orders[u]]
            assert taken == list(range(taken[0], taken[-1] + 1))
            ranges.append(slice(taken[0], taken[-1] + 1))
            rows.append(slice(len(index), len(index) + len(taken)))
            index.update({(units[i], a): rows[-1].start + j for j, i in enumerate(taken)})
        row_of = {k: index[unit_of[k], k[2]] for k in live}
        src = np.array([row_of.get(k, len(index)) for k in keys]).reshape(17, 2)
        first = np.array([keys.index(k) for k in sorted(row_of, key=row_of.get)])
        dups = [(row_of[k], p) for p, k in enumerate(keys) if k in row_of and p != keys.index(k)]
        if zeta_rows:
            terms = [(i, _SETS[c]) for i, (c, _) in enumerate(units)]
        else:
            terms = [(row_of[k], k[:2]) for k in live]
        by_order = {0: [(0, None)], 1: [(1, 0)], 2: [(1, 1), (2, 2)]}  # s-order -> (jet order, weight)
        slots = [(o, f, [(t, w) for t, (g, s) in terms if g == f for o2, w in by_order[s] if o2 == o])
                 for o in range(3) for f in range(3)]
        parity = np.array([int(_SETS[c][0] != 0) for c, _ in units])  # cosine for R
        b = np.array([b for _, b in units])
        return cls(
            np.array([c for c, _ in units]), b, (parity + b) % 2, np.where(parity + b >= 2, -1.0, 1.0),
            ranges, rows, src, first, tuple(np.array(x, dtype=int) for x in zip(*dups)),
            [slot for slot in slots if slot[2]],
        )


_PLANS = (_RowPlan.build(False), _RowPlan.build(True))


class KernelTables:
    """The synthesis of :func:`geometry` on one grid, as one linear map.

    :meth:`forward` takes the profile jets (jet order, field, radius, mode)
    to every row the kernel reads, shape (17, 2, n_rho, n_nodes): the pairs
    ``[:9]`` are ``de`` (3, 3 axes), ``[9]`` is ``dlam``, ``[10:13]``
    ``ddlam``, ``[13, 0]`` is R and ``[14:]`` is ``e`` (:data:`_ROWS`).
    The three jet orders become the 8 coefficient sets the rows use (R and
    Z at s-order 0, 1, 2; lambda at 0, 1) through alpha = 1 / (2 rho),
    alpha^2 and -alpha^2 / rho per radius.  With N = 0 only the 14 rows
    without a zeta derivative are contracted against the d_theta^a rows
    of :class:`spectral.TensorTables`; the other 12 are exact zeros.
    With N > 0 each (set, zeta order) unit is summed over n once, 17 sums
    for 26 rows, and each theta order's poloidal sum reads a contiguous
    range of them.  :meth:`adjoint` is the transpose.
    """

    def __init__(self, modes_cos: spectral.ModeSet, modes_sin: spectral.ModeSet, grid: CollocationGrid):
        if not (np.array_equal(modes_cos.m, modes_sin.m) and np.array_equal(modes_cos.n, modes_sin.n)):
            raise ValueError("cosine and sine mode sets must share their (m, n)")
        tables = spectral.TensorTables(modes_cos, grid.theta, grid.zeta)
        self.N, self.M, self.n_theta, self.n_zeta = modes_cos.N, modes_cos.M, tables.n_theta, tables.n_zeta
        self.plan = plan = _PLANS[self.N > 0]
        alpha = 1.0 / (2.0 * grid.rho)
        # d/ds = alpha d/drho; d^2/ds^2 = alpha^2 d^2/drho^2 - alpha^2 / rho d/drho
        self.weights = np.array([alpha, -alpha * alpha / grid.rho, alpha * alpha])[:, :, None]
        if self.N == 0:
            # the cosine half of each form, constant along zeta
            self.tables = [tables.poloidal[plan.form[r], a, : self.M] for a, r in enumerate(plan.ranges)]
            if self.n_zeta > 1:
                self.tables = [np.repeat(t, self.n_zeta, axis=-1) for t in self.tables]
            return
        nf = (modes_cos.n * modes_cos.n_fp).astype(float)
        self.factor = plan.sign[:, None] * nf ** plan.b[:, None]
        self.tables = [tables.poloidal[plan.form[r], a] for a, r in enumerate(plan.ranges)]  # (unit, q, theta)
        self.tables_t = [np.ascontiguousarray(t.transpose(0, 2, 1)) for t in self.tables]
        self.toroidal = tables.toroidal

    def _sets(self, jets):
        """The coefficient sets: s-order 0 (R, lambda, Z), 1 (R, lambda, Z)
        and 2 (R, Z), from the jets (rho order, field, radius, mode)."""
        c = np.empty((8,) + jets.shape[2:], dtype=np.result_type(jets, 1.0))
        c[:3] = jets[0]
        np.multiply(self.weights[0], jets[1], out=c[3:6])
        np.multiply(self.weights[1], jets[1, ::2], out=c[6:])
        c[6:] += self.weights[2] * jets[2, ::2]
        return c

    def forward(self, jets):
        """Every row the kernel reads, shape (17, 2, n_rho, n_nodes), from
        the jets (numpy, any float dtype)."""
        jets = np.asarray(jets)
        plan, n_rho, n_theta, n_zeta = self.plan, jets.shape[2], self.n_theta, self.n_zeta
        units = self._sets(jets)[plan.units]
        n_rows = plan.rows[-1].stop
        if self.N == 0:
            rows = np.empty((n_rows + 1, n_rho, n_theta * n_zeta), dtype=units.dtype)
            rows[-1] = 0.0
            for r, out, table in zip(plan.ranges, plan.rows, self.tables):
                np.einsum("xrk,xka->xra", units[r], table, out=rows[out], optimize=False)
            return rows[plan.src]
        M, N, n = self.M, self.N, len(units)
        pad = np.zeros((n, n_rho, M * (2 * N + 1)), dtype=units.dtype)
        np.multiply(units, self.factor[:, None, :], out=pad[..., N:])
        # sums over n: (n, unit m radius) -> (cos/sin v, zeta, unit m radius)
        pad = pad.reshape(n, n_rho, M, -1).transpose(3, 0, 2, 1).reshape(2 * N + 1, -1)
        e = np.einsum("hjz,jy->hzy", self.toroidal, pad, optimize=False)
        # sums over m: (unit, q, radius zeta) -> (row, theta, radius zeta)
        e = e.reshape(2, n_zeta, n, M, n_rho).transpose(2, 0, 3, 4, 1).reshape(n, 2 * M, -1)
        rows = np.empty((n_rows + 1, n_theta, n_rho * n_zeta), dtype=units.dtype)
        rows[-1] = 0.0
        for r, out, table in zip(plan.ranges, plan.rows, self.tables_t):
            np.einsum("xtq,xqy->xty", table, e[r], out=rows[out], optimize=False)
        # to (row, radius, theta zeta), then onto the output rows
        rows = np.ascontiguousarray(rows.reshape(-1, n_theta, n_rho, n_zeta).transpose(0, 2, 1, 3))
        return rows.reshape(len(rows), n_rho, -1)[plan.src]

    def adjoint(self, grad):
        """The jets' gradient from the rows' gradient: the transpose of
        :meth:`forward`.  With N = 0 each jet's row adjoints are summed in
        :data:`_ROWS` order."""
        plan, g = self.plan, np.asarray(grad)
        M, N, n_rho, n_theta, n_zeta = self.M, self.N, g.shape[2], self.n_theta, self.n_zeta
        g = g.reshape(-1, n_rho, n_theta * n_zeta)
        if N == 0:
            rows = g[plan.first]
            rows[plan.dups[0]] += g[plan.dups[1]]
            terms = np.empty(rows.shape[:2] + (M,), dtype=rows.dtype)
            for out, table in zip(plan.rows, self.tables):
                np.einsum("xra,xka->xrk", rows[out], table, out=terms[out], optimize=False)
        else:
            n = len(plan.units)
            g = g.reshape(-1, n_rho, n_theta, n_zeta).transpose(0, 2, 1, 3)  # (row, theta, radius, zeta)
            e = np.zeros((n, 2 * M, n_rho * n_zeta), dtype=g.dtype)
            for a, (r, out, table) in enumerate(zip(plan.ranges, plan.rows, self.tables)):
                # the gradients of one theta order's rows, copied one at a time
                rows = np.empty((out.stop - out.start,) + g.shape[1:], dtype=g.dtype)
                for i, p in enumerate(plan.first[out]):
                    rows[i] = g[p]
                for i, p in zip(*plan.dups):
                    if out.start <= i < out.stop:
                        rows[i - out.start] += g[p]
                rows = rows.reshape(len(rows), n_theta, -1)
                if a:
                    e[r] += np.einsum("xqt,xty->xqy", table, rows, optimize=False)
                else:  # the first range, the largest, is written in place
                    np.einsum("xqt,xty->xqy", table, rows, out=e[r], optimize=False)
            e = e.reshape(n, 2, M, n_rho, n_zeta).transpose(1, 4, 0, 2, 3).reshape(2, n_zeta, -1)
            d = np.einsum("hjz,hzy->jy", self.toroidal, e, optimize=False)
            d = d.reshape(-1, n, M, n_rho).transpose(1, 3, 2, 0).reshape(n, n_rho, -1)
            terms = d[..., N:] * self.factor[:, None, :]
        out = np.zeros((3, 3) + terms.shape[1:], dtype=terms.dtype)
        for o, f, items in plan.slots:
            for i, (t, w) in enumerate(items):
                x = terms[t] if w is None else self.weights[w] * terms[t]
                if i:
                    out[o, f] += x
                else:
                    out[o, f] = x
        return out

    def block(self, rows: slice) -> "KernelTables":
        """These tables on the radii ``rows`` of their grid: only the radial
        weights are sliced."""
        out = copy.copy(self)
        out.weights = self.weights[:, rows]
        return out


def geometry(profiles: ProfileStack, grid: CollocationGrid, tables: Optional[KernelTables] = None,
             check: bool = True) -> FieldState:
    """Synthesize the map, its derivatives, the Jacobian and the dual basis.

    Radial derivatives arrive as d/d rho in the profile jets and convert to
    flux derivatives through d/ds = d/drho / (2 rho).  ``tables`` is the
    grid's synthesis (:class:`KernelTables`); it depends only on (mode
    sets, grid) and may be passed in precomputed.  The synthesis is one
    linear map (one tape node on autodiff jets), and it runs only on the
    rows the kernel reads: lambda enters the field only through its theta
    and zeta derivatives.

    The covariant basis e_i = (d_i R, R delta_i_zeta, d_i Z) has its (R, Z)
    part in ``e``; with the in-plane cross product cross2 the Jacobian is
    sqrt(g) = R cross2(e_theta, e_s).  Unless ``check`` is false, a Jacobian
    that is non-finite, vanishes or changes sign raises
    :class:`JacobianSignError` naming the first such node.
    """
    if tables is None:
        tables = KernelTables(profiles.modes_cos, profiles.modes_sin, grid)
    st = FieldState(grid=grid)
    rows = ad.linear(profiles.jets, tables.forward, tables.adjoint)
    st.de = np.reshape(rows[:9], (3, 3) + rows.shape[1:])
    st.dlam, st.ddlam, st.R, st.e = rows[9], rows[10:13], rows[13, 0], rows[14:]

    R, plane = st.R, st.e
    st.dR = plane[:, 0]
    rot = np.einsum("icra,cd->idra", plane, _ROT)
    cross = np.einsum("jcra,kcra->jkra", plane, rot)  # cross2(e_j, e_k)
    w = cross[1, 0]
    st.sqrtg = R * w
    if check:
        _check_jacobian(st.sqrtg, grid)
    tilt = np.einsum("ij,jcra->icra", _PLANE, rot)
    w_k = np.einsum("kicra,icra->kra", st.de, tilt)
    st.dsqrtg = st.dR * w + R * w_k
    inplane = R * tilt
    # phi part cross2(e_{i+2}, e_{i+1}) = -eps_ijk cross2(e_j, e_k) / 2
    phi = np.einsum("ijk,jkra->ira", _LEVI_CIVITA * -0.5, cross)
    st.dual = np.stack([inplane[:, 0], phi, inplane[:, 1]], axis=1)
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
    st.gbsup = np.einsum("lm,mra->lra", psi * _ROT, st.dlam) + offset
    d_gbsup = np.einsum("lm,kmra->klra", psi * _ROT, st.ddlam) + d_offset
    st.b = st.gbsup / st.sqrtg
    st.db = (d_gbsup - np.einsum("lra,kra->klra", st.b, st.dsqrtg)) / st.sqrtg

    R, plane = st.R, st.e[1:]
    st.b_plane = np.einsum("lcra,lra->cra", plane, st.b)
    st.b_phi = R * st.b[1]
    st.db_plane = np.einsum("klcra,lra->kcra", st.de[:, 1:], st.b) + np.einsum(
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
    edb = np.einsum("icra,kcra->kira", st.e, st.db_plane)  # e_i . d_k B, (R, Z) part
    d_rbphi = st.dR * st.b_phi + st.R * st.db_phi
    curl = np.einsum("ijk,jkra->ira", _LEVI_CIVITA / MU0, edb) + np.einsum(
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
    h = np.einsum("il,lra->ira", _H, st.gbsup)
    st.F_s = (np.einsum("ira,ira->ra", h, st.jsup) - pp) * MU0
    st.F_h = st.jsup[0] * (-MU0)
    det = st.sqrtg * st.sqrtg
    e_h = np.einsum("ira,icra->cra", h, st.dual)
    ehh = np.einsum("cra,cra->ra", e_h, e_h) / det
    e_s = st.dual[0]
    gu_ss = np.einsum("cra,cra->ra", e_s, e_s) / det
    st.F_mag = np.sqrt(st.F_s * st.F_s * gu_ss + st.F_h * st.F_h * ehh)
    return st


def field_state(profiles: ProfileStack, grid: CollocationGrid, tables: Optional[KernelTables],
                iota_coeffs, psi_b: float, p_prime) -> FieldState:
    """:func:`geometry`, :func:`magnetic_field`, :func:`current` and
    :func:`force` in turn."""
    st = geometry(profiles, grid, tables)
    magnetic_field(st, iota_coeffs, psi_b)
    current(st)
    force(st, p_prime)
    return st


# A grid splits into radial blocks only when each keeps at least
# _MIN_BLOCK_NODES nodes; past two, the blocks of residual_fields halve again
# while they hold more than _MAX_BLOCK_NODES (see :func:`_radial_blocks`).
_MIN_BLOCK_NODES = 4000
_MAX_BLOCK_NODES = 6400

# The worker thread runs its radial blocks through the stages bound here, at
# import: a tracer that patches the module's stage functions
# (``bench/spans.py``) keeps one span stack for all threads, so only the
# calling thread may enter them.
_BOUND_STAGES = (geometry, magnetic_field, current, force)
_WORKER = None  # made by the first split, see _worker


def _worker():
    """The pool of the worker thread, made by the first split: importing
    ``concurrent.futures`` adds 0.65 MB to the peak RSS of a process whose
    grids never split."""
    global _WORKER
    if _WORKER is None:
        from concurrent.futures import ThreadPoolExecutor

        _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="equinn-kernel")
    return _WORKER


def _radial_blocks(grid: CollocationGrid, max_nodes=None) -> list:
    """The radius ranges the kernel runs as separate blocks, in order.  The
    count depends on the grid and ``max_nodes`` only: the two halves of the
    radii when each keeps at least ``_MIN_BLOCK_NODES`` nodes, else all of
    them; with ``max_nodes``, the blocks then halve again while they hold
    more than ``max_nodes`` nodes and their halves keep at least
    ``_MIN_BLOCK_NODES``.

    ``value_and_grad`` per half grid, whole and as two blocks on two threads
    (medians of 30-40 alternated calls, 2-core Xeon VM): dshape, 1,150
    nodes, 3.0 and 7.0 ms; ellipse3d at 12 to 32 surfaces, 4,800 nodes 9.1
    and 11.0 ms, 6,400 nodes 11.7 and 13.2, 8,000 nodes 19.1-19.7 and
    15.1-16.9, 12,800 nodes 24.2-31.3 and 18.6-23.8.  Blocks of 3,200 nodes
    lose, blocks of 4,000 win.  The loss node takes no ``max_nodes``: it
    keeps every block's state until its reverse pass, and more blocks only
    add overhead.  ``value_and_grad`` on an ellipse3d grid of 40 surfaces
    (16,000 half-grid nodes; 2-core Xeon VM, medians of 36 alternated rounds
    of 5 calls) took 27.0 ms as 2 blocks and 33.5 ms as 4 blocks of 4,000
    nodes."""
    n_rho, n_angular = grid.n_rho, grid.n_angular
    n = 1  # blocks of n_rho // n or one more radii
    while (n_rho // (2 * n) * n_angular >= _MIN_BLOCK_NODES
           and (n == 1 or max_nodes is not None and -(-n_rho // n) * n_angular > max_nodes)):
        n *= 2
    edges = [i * n_rho // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _run_blocks(block, n: int) -> list:
    """``[block(i, stages) for i in range(n)]``: the first half of the blocks
    in the calling thread through the module's stage names, the second half
    one after another as one task on the worker through ``_BOUND_STAGES``.
    The worker is waited for before an error of the calling thread's blocks
    propagates, so no block outlives the call."""
    here = (geometry, magnetic_field, current, force)  # looked up per call, so a tracer sees these blocks
    k = (n + 1) // 2
    future = _worker().submit(lambda: [block(i, _BOUND_STAGES) for i in range(k, n)])
    try:
        first = [block(i, here) for i in range(k)]
    finally:
        future.exception()  # returns once the worker's blocks have run
    return first + future.result()


def _block_state(stages, profiles, grid, tables, iota_coeffs, psi_b, p_prime) -> FieldState:
    """:func:`field_state` on one radial block through ``stages``, without
    the Jacobian check: the caller checks the joined sqrt(g).  A block whose
    own check fails stops after :func:`geometry`."""
    geometry_, magnetic_field_, current_, force_ = stages
    st = geometry_(profiles, grid, tables, check=False)
    try:
        _check_jacobian(st.sqrtg, grid)
    except JacobianSignError:
        return st
    magnetic_field_(st, iota_coeffs, psi_b)
    current_(st)
    return force_(st, p_prime)


def _map_blocks(fn, blocks, profiles, grid, tables, iota_coeffs, psi_b, p_prime) -> tuple:
    """``fn(state, rows)`` of the :func:`_block_state` of each radial block
    in ``blocks`` (on :func:`_run_blocks`' threads), and each block's (rows,
    tables)."""
    pp = np.asarray(p_prime, dtype=float)
    parts = [(rows, tables.block(rows)) for rows in blocks]
    # sliced here, in the calling thread: slicing on the worker, while the
    # caller runs Python too, cost the ellipse3d value_and_grad about 2%
    args = [(replace(profiles, rho=profiles.rho[rows], jets=profiles.jets[:, :, rows]),
             replace(grid, rho=grid.rho[rows]), block_tables, iota_coeffs, psi_b, pp[rows] if pp.ndim else pp)
            for rows, block_tables in parts]

    def block(i, stages):
        return fn(_block_state(stages, *args[i]), parts[i][0])

    return _run_blocks(block, len(parts)), parts


def force_magnitude(profiles: ProfileStack, grid: CollocationGrid, tables: KernelTables,
                    iota_coeffs, psi_b: float, p_prime):
    """``F_mag`` of :func:`field_state` as one tape node of the profile jets.

    The forward runs the four stages on the jets' plain value; the reverse
    pass maps the gradient of ``F_mag`` to the synthesized rows
    (:func:`_kernel_adjoint`) and on through ``tables.adjoint``.  Both run
    over the radial blocks of :func:`_radial_blocks`, the first half in the
    calling thread and the second half on a worker thread.  Every sum in the
    node runs within one radius, so ``F_mag`` and the jets' gradient, joined
    along the radius, equal those of the whole grid bit for bit; the Jacobian
    check runs on the joined sqrt(g) and raises what the whole grid raises.
    """
    blocks = _radial_blocks(grid)
    if len(blocks) == 1:
        def forward(jets):
            st = field_state(replace(profiles, jets=jets), grid, tables, iota_coeffs, psi_b, p_prime)
            return st.F_mag, lambda g: tables.adjoint(_kernel_adjoint(st, g, psi_b))

        return ad.elemental(profiles.jets, forward)

    def forward(jets):
        states, parts = _map_blocks(lambda st, rows: st, blocks, replace(profiles, jets=jets), grid, tables,
                                    iota_coeffs, psi_b, p_prime)
        _check_jacobian(np.concatenate([st.sqrtg for st in states]), grid)

        def vjp(g):
            out = np.empty_like(jets)

            def adjoint(i, stages):
                (rows, block_tables), st = parts[i], states[i]
                out[:, :, rows] = block_tables.adjoint(_kernel_adjoint(st, g[rows], psi_b))

            _run_blocks(adjoint, len(parts))
            return out

        return np.concatenate([st.F_mag for st in states]), vjp

    return ad.elemental(profiles.jets, forward)


def residual_fields(profiles: ProfileStack, grid: CollocationGrid, tables: KernelTables,
                    iota_coeffs, psi_b: float, p_prime) -> tuple:
    """What the residual quadratures read of :func:`field_state`: a state
    that holds ``sqrtg`` and ``F_mag``, and :func:`grad_B2_magnitude`, on
    plain jets.

    On a grid of several radial blocks (:func:`_radial_blocks`) each block
    computes the three arrays on :func:`_run_blocks`' threads, writes them
    into its radii of the joined arrays and drops its state; the Jacobian
    check runs on the joined sqrt(g).  Nothing in them sums over radii, so
    they equal the whole grid's bit for bit.

    Fine-grid ``metrics`` of the ellipse3d bench (50,176 half-grid nodes;
    2-core Xeon VM, medians of 8-12 alternated in-process calls): whole
    58.8-60.8 ms, as 2, 4 and 8 blocks 35.0-35.4, 34.3-35.4 and 39.7 ms.
    ``_MAX_BLOCK_NODES`` bounds the blocks because the worker's heap grows
    by the largest block it holds: in 40 s bench runs, 4 blocks of 12,544
    nodes raised ``peak_rss_mb`` by 0.7 and 4.2 MB.  The bound keeps the
    worker's blocks within the heap its 6,400-node block of the ellipse3d
    training grid has already grown.
    """
    blocks = _radial_blocks(grid, _MAX_BLOCK_NODES)
    if len(blocks) == 1:
        st = field_state(profiles, grid, tables, iota_coeffs, psi_b, p_prime)
        return st, grad_B2_magnitude(st)

    # sqrt(g), F_mag and |grad |B|^2| / (2 mu0), allocated here so that the
    # worker's heap holds no block's arrays past its block
    out = np.empty((3, grid.n_rho, grid.n_angular), dtype=profiles.jets.dtype)

    def fill(st, rows):
        out[0, rows] = st.sqrtg
        if st.F_mag is not None:  # else the check below raises
            out[1, rows] = st.F_mag
            out[2, rows] = grad_B2_magnitude(st)

    _map_blocks(fill, blocks, profiles, grid, tables, iota_coeffs, psi_b, p_prime)
    _check_jacobian(out[0], grid)
    return FieldState(grid, sqrtg=out[0], F_mag=out[1]), out[2]


def _rot(v):
    """rot(v) = (v_Z, -v_R) of in-plane vectors on axis -3, so that
    cross2(a, b) = a . rot(b)."""
    return np.stack([v[..., 1, :, :], -v[..., 0, :, :]], axis=-3)


def _kernel_adjoint(st: FieldState, g, psi_b: float) -> np.ndarray:
    """The gradient of the rows :meth:`KernelTables.forward` yields, shape
    (17, 2, n_rho, n_nodes) in the jets' dtype, from the gradient ``g`` of
    ``st.F_mag``: the reverse of :func:`force`, :func:`current`,
    :func:`magnetic_field` and :func:`geometry` on the plain arrays of a
    state that :func:`field_state` filled.  The intermediates the state does
    not keep (w, tilt, w_k, det, e_h) are recomputed.  Where F_mag = 0 the
    subgradient 0 is taken, as ``np.sqrt`` on an :class:`autodiff.Var` does.
    """
    R, e, de, sqrtg, dual, b, db, jsup = st.R, st.e, st.de, st.sqrtg, st.dual, st.b, st.db, st.jsup
    out = np.zeros((17, 2) + R.shape, dtype=R.dtype)
    g_de, g_dlam, g_ddlam, g_R, g_e = out[:9].reshape(de.shape), out[9], out[10:13], out[13, 0], out[14:]

    # force: F_mag^2 det = X = F_s^2 |e_s|^2 + F_h^2 |e_h|^2 with det = sqrt(g)^2,
    # F_s = mu0 (h . J - p'), F_h = -mu0 J^s and h = (0, h_theta, h_zeta)
    h = np.stack([st.gbsup[1], -st.gbsup[0]])
    e_s, e_h = dual[0], h[0] * dual[1] + h[1] * dual[2]
    F, F_s, F_h = st.F_mag, st.F_s, st.F_h
    u = np.divide(g, F * (sqrtg * sqrtg), out=np.zeros_like(F), where=F != 0.0)  # 2 g dF/dX
    g_dual = np.empty_like(dual)
    g_dual[0] = (u * F_s * F_s) * e_s
    g_eh = (u * F_h * F_h) * e_h
    g_dual[1:] = h[:, None] * g_eh
    g_hJ = MU0 * u * F_s * np.einsum("cra,cra->ra", e_s, e_s)  # the gradient of h . J
    g_h = g_hJ * jsup[1:] + np.einsum("cra,icra->ira", g_eh, dual[1:])
    g_gbsup = np.stack([-g_h[1], g_h[0]])
    g_sqrtg = -g * F / sqrtg  # through det
    g_jsup = np.empty_like(jsup)
    g_jsup[0] = -MU0 * u * F_h * np.einsum("cra,cra->ra", e_h, e_h)
    g_jsup[1:] = g_hJ * h

    # current: J^i = curl_i / sqrt(g), curl_i = (edb[j, k] - edb[k, j] + eps_ij2 d_j (R B_phi)) / mu0
    g_curl = g_jsup / sqrtg
    g_sqrtg -= np.einsum("ira,ira->ra", g_curl, jsup)
    g_curl /= MU0
    g_edb = np.einsum("ijk,ira->jkra", _LEVI_CIVITA, g_curl)
    g_drb = np.stack([-g_curl[1], g_curl[0]])  # d_s and d_theta of R B_phi
    g_e += np.einsum("kira,kcra->icra", g_edb, st.db_plane)
    g_dbp = np.einsum("kira,icra->kcra", g_edb, e)
    g_e[:2, 0] += g_drb * (st.b_phi + R * b[1])
    g_R += np.einsum("kra,kra->ra", g_drb, st.db_phi[:2] + R * db[:2, 1])
    g_b_phi = np.einsum("kra,kra->ra", g_drb, st.dR[:2])

    # field: db_plane = de[:, 1:] . b + e[1:] . db, d_k B_phi = d_k R b^zeta + R d_k b^zeta
    g_db = np.einsum("kcra,lcra->klra", g_dbp, e[1:])
    g_db[:2, 1] += (R * R) * g_drb
    g_de[:, 1:] += np.einsum("kcra,lra->klcra", g_dbp, b)
    g_e[1:] += np.einsum("kcra,klra->lcra", g_dbp, db)
    g_b = np.einsum("kcra,klcra->lra", g_dbp, de[:, 1:])
    g_b[1] += (2.0 * R) * g_b_phi  # through B_phi = R b^zeta and through d_k B_phi
    g_R += b[1] * g_b_phi
    # db = (d gbsup - b dsqrtg) / sqrt(g), b = gbsup / sqrt(g)
    g_dgb = g_db / sqrtg
    g_b -= np.einsum("klra,kra->lra", g_dgb, st.dsqrtg)
    g_dsqrtg = -np.einsum("klra,lra->kra", g_dgb, b)
    g_sqrtg -= np.einsum("klra,klra->ra", g_dgb, db) + np.einsum("lra,lra->ra", g_b, b) / sqrtg
    g_gbsup += g_b / sqrtg
    g_dlam[0], g_dlam[1] = psi_b * g_gbsup[1], -psi_b * g_gbsup[0]
    g_ddlam[:, 0], g_ddlam[:, 1] = psi_b * g_dgb[:, 1], -psi_b * g_dgb[:, 0]

    # geometry: sqrt(g) = R w, dsqrtg = dR w + R w_k, w_k = de . tilt,
    # dual = (R tilt[:, 0], phi, R tilt[:, 1]) with phi_i = cross2(e_{i+2}, e_{i+1})
    rot = _rot(e)
    tilt = np.stack([-rot[1], rot[0]])
    w = dual[2, 1]
    w_k = np.einsum("kicra,icra->kra", de[:, :2], tilt)
    g_e[:, 0] += g_dsqrtg * w
    g_w = np.einsum("kra,kra->ra", g_dsqrtg, st.dR) + g_sqrtg * R
    g_R += np.einsum("kra,kra->ra", g_dsqrtg, w_k) + g_sqrtg * w
    g_inplane = g_dual[:2, ::2]
    g_R += np.einsum("icra,icra->ra", g_inplane, tilt)
    g_wk = R * g_dsqrtg
    g_de[:, :2] += np.einsum("kra,icra->kicra", g_wk, tilt)
    g_tilt = R * g_inplane + np.einsum("kra,kicra->icra", g_wk, de[:, :2])
    gp = g_dual[:, 1]
    gp[2] += g_w
    g_e[0] += gp[1] * rot[2] - gp[2] * rot[1] - _rot(g_tilt[1])
    g_e[1] += gp[2] * rot[0] - gp[0] * rot[2] + _rot(g_tilt[0])
    g_e[2] += gp[0] * rot[1] - gp[1] * rot[0]
    return out


def gradient_magnitude(state: FieldState, dq_s, dq_t, dq_z):
    """|grad q| = |sum_k d_k q sqrt(g) e^k| / |sqrt(g)|, given the partials
    of q (arrays over the nodes or scalars)."""
    dual = state.dual
    grad = dq_s * dual[0] + dq_t * dual[1] + dq_z * dual[2]
    return np.sqrt(np.einsum("cra,cra->ra", grad, grad)) / abs(state.sqrtg)


def grad_B2_magnitude(state: FieldState):
    """Magnetic-pressure gradient magnitude |grad |B|^2| / (2 mu0) per node,
    from d_k |B|^2 = 2 (B_R d_k B_R + B_phi d_k B_phi + B_Z d_k B_Z)."""
    st = state
    db2 = 2.0 * (np.einsum("cra,kcra->kra", st.b_plane, st.db_plane) + st.b_phi * st.db_phi)
    return gradient_magnitude(st, *db2) / (2.0 * MU0)


# -- quadrature ----------------------------------------------------------------


def _node_weights(state: FieldState, grid: CollocationGrid, weights=None) -> np.ndarray:
    """|sqrt(g)| times the s-measure 2 rho d rho, per node (uniform angles),
    times the per-node ``weights`` when given (e.g. mirror multiplicities)."""
    absg = np.abs(state.sqrtg)
    radial = (2.0 * grid.rho * grid.rho_weights)[:, None]
    w = absg * radial
    return w if weights is None else w * weights


def volume_average(q, state: FieldState, grid: CollocationGrid, weights=None) -> float:
    """Volume average with |sqrt(g)| weights; exact 1 for q = 1.  ``weights``
    (per node, optional) multiply the quadrature weight of each node."""
    w = _node_weights(state, grid, weights)
    return float((q * w).sum() / w.sum())


def surface_average_profile(q, state: FieldState, grid: CollocationGrid, weights=None) -> np.ndarray:
    """Flux-surface average of q on every surface, optionally with per-node
    ``weights`` as in :func:`volume_average`."""
    absg = np.abs(state.sqrtg)
    if weights is not None:
        absg = absg * weights
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
    fn = state.F_mag / (MU0 * normalizer)
    return fn, volume_average(fn, state, grid, weights)
