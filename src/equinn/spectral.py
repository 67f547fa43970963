"""Double Fourier series on nested toroidal surfaces.

Fields on a flux surface are expanded in the combined angle
``m*theta - n*n_fp*zeta`` with poloidal modes ``m = 0..M-1`` and toroidal
modes ``n = -N..N``.  Under stellarator symmetry R keeps only cosine terms
while lambda and Z keep only sine terms, and at ``m = 0`` the negative-n
entries are linearly dependent on the positive-n ones and are dropped,
leaving ``M*(2N+1) - N`` coefficients per field.

Synthesis and all angular derivatives are evaluated by direct summation
against precomputed trigonometric tables; the mode counts of interest are
far too small for FFTs to pay off.  :func:`synthesize`, :func:`project` and
the point-list exports contract against the full (mode, node) tables
(:func:`pair_tables`).  The field kernel works on tensor grids, where the
basis factors into poloidal and toroidal tables (:class:`TensorTables`):
its synthesis (``mhdkernel.KernelTables``) sums over n for each (m, zeta),
then over m for each theta, about 3x fewer multiply-adds than the full
contraction at M = 12, N = 4.  All contractions are ``np.einsum`` without
BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ModeSet",
    "SurfaceCoefficients",
    "SynthesizedField",
    "build_mode_set",
    "mode_set_pair",
    "pair_tables",
    "synthesize",
    "project",
    "spectral_width",
    "TensorTables",
]

COSINE = "cos"
SINE = "sin"


@dataclass(frozen=True)
class ModeSet:
    """Ordered index set of stellarator-symmetric Fourier modes."""

    M: int
    N: int
    n_fp: int
    parity: str
    m: np.ndarray
    n: np.ndarray

    @property
    def size(self) -> int:
        return int(self.m.size)

    @property
    def fixed_mask(self) -> np.ndarray:
        """True where the coefficient is pinned to zero (sine (0,0))."""
        if self.parity == SINE:
            return (self.m == 0) & (self.n == 0)
        return np.zeros(self.size, dtype=bool)

    def index_of(self, m: int, n: int) -> int:
        hits = np.nonzero((self.m == m) & (self.n == n))[0]
        if hits.size == 0:
            raise KeyError(f"mode (m={m}, n={n}) not in set")
        return int(hits[0])


def build_mode_set(M: int, N: int, n_fp: int, parity: str) -> ModeSet:
    """All (m, n) with m ascending then n ascending; m=0 keeps only n >= 0."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if N < 0:
        raise ValueError("N must be non-negative")
    if n_fp < 1:
        raise ValueError("n_fp must be a positive integer")
    if parity not in (COSINE, SINE):
        raise ValueError(f"parity must be '{COSINE}' or '{SINE}'")
    ms, ns = [], []
    for m in range(M):
        lo = 0 if m == 0 else -N
        for n in range(lo, N + 1):
            ms.append(m)
            ns.append(n)
    mode_set = ModeSet(M, N, n_fp, parity, np.asarray(ms), np.asarray(ns))
    assert mode_set.size == M * (2 * N + 1) - N
    return mode_set


def mode_set_pair(M: int, N: int, n_fp: int) -> tuple[ModeSet, ModeSet]:
    """(cosine, sine) mode sets sharing one resolution, for (R) and (lambda, Z)."""
    return build_mode_set(M, N, n_fp, COSINE), build_mode_set(M, N, n_fp, SINE)


@dataclass
class SurfaceCoefficients:
    """Coefficients of one field on one surface, optionally with radial slopes."""

    mode_set: ModeSet
    values: np.ndarray
    d_rho: Optional[np.ndarray] = None
    d_rho2: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mode_set.size,):
            raise ValueError(
                f"expected {self.mode_set.size} coefficients, got {self.values.shape}"
            )
        for name in ("d_rho", "d_rho2"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != self.values.shape:
                    raise ValueError(f"{name} shape {arr.shape} does not match values")
                setattr(self, name, arr)
        fixed = self.mode_set.fixed_mask
        if fixed.any() and not np.all(self.values[fixed] == 0.0):
            raise ValueError("sine-parity (0,0) coefficient must be exactly 0")


def _tables(mode_set: ModeSet, theta, zeta, parities) -> np.ndarray:
    """Basis functions of ``mode_set``'s (m, n) for each parity and their
    angular derivatives on the flattened grid, shape (parities, 6, n_modes,
    n_theta * n_zeta); the second axis is (value, d_theta, d_zeta,
    d_theta^2, d_theta d_zeta, d_zeta^2).  Synthesis of any field or
    derivative is one contraction against these constants."""
    theta = np.asarray(theta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if theta.size == 0 or zeta.size == 0:
        raise ValueError("angular grid must have at least one node")
    angle = (
        mode_set.m[:, None, None] * theta[None, :, None]
        - (mode_set.n * mode_set.n_fp)[:, None, None] * zeta[None, None, :]
    ).reshape(mode_set.size, theta.size * zeta.size)
    m = mode_set.m.astype(float)[:, None]
    nf = (mode_set.n * mode_set.n_fp).astype(float)[:, None]
    c, s = np.cos(angle), np.sin(angle)
    tables = np.empty((len(parities), 6) + angle.shape)
    for t, parity in zip(tables, parities):
        # the basis function and its derivative along the angle
        t[0], w = (c, -s) if parity == COSINE else (s, c)
        for row, factor in zip(t[1:], (m, -nf)):
            np.multiply(factor, w, out=row)
        for row, factor in zip(t[3:], (-m * m, m * nf, -nf * nf)):
            np.multiply(factor, t[0], out=row)
    return tables


def pair_tables(modes_cos: ModeSet, modes_sin: ModeSet, theta, zeta) -> np.ndarray:
    """Cosine and sine tables of one (m, n) set, shape (2, 6, n_modes,
    n_theta * n_zeta), second axis as in :func:`_tables`."""
    if not (np.array_equal(modes_cos.m, modes_sin.m) and np.array_equal(modes_cos.n, modes_sin.n)):
        raise ValueError("cosine and sine mode sets must share their (m, n)")
    return _tables(modes_cos, theta, zeta, (COSINE, SINE))


class TensorTables:
    """The basis of a mode set on a tensor grid theta x zeta, factored.

    With u = m theta and v = n' zeta (n' = n n_fp), cos(u - v) = cos u cos v
    + sin u sin v and sin(u - v) = sin u cos v - cos u sin v, so a series is
    a sum over n for each (m, zeta) followed by a sum over m for each theta
    (VMEC sums its transforms the same way).  ``poloidal[f, a]`` (shape
    (2 M, n_theta)) holds the theta factors of a d_theta^a row on the two
    halves q = (cos v, sin v) x m: form 0 is (m^a cos^(a) u, m^a sin^(a) u),
    form 1 is (m^a sin^(a) u, -m^a cos^(a) u), with the products rounded as
    :func:`_tables` rounds them.  ``toroidal`` (shape (2, 2N + 1, n_zeta))
    holds cos v and sin v.  With N = 0 the toroidal sum is the identity and
    ``toroidal`` is None: the cosine half of form f, ``poloidal[f, a, :M]``,
    is the d_theta^a row of :func:`_tables` of parity f (cosine 0, sine 1).
    Nodes are theta-major, as in :func:`_tables`.
    """

    def __init__(self, mode_set: ModeSet, theta, zeta):
        theta = np.asarray(theta, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        if theta.size == 0 or zeta.size == 0:
            raise ValueError("angular grid must have at least one node")
        M, N = mode_set.M, mode_set.N
        # m-major, n ascending, m = 0 without n < 0: mode k sits at k + N of
        # the padded (m, n) square
        if not np.array_equal(mode_set.m * (2 * N + 1) + mode_set.n, np.arange(mode_set.size)):
            raise ValueError("mode set is not in build_mode_set order")
        self.mode_set, self.n_theta, self.n_zeta = mode_set, theta.size, zeta.size
        mf = np.arange(M, dtype=float)[:, None]
        pol = np.empty((2, 3, 2, M, theta.size))  # (form, a, cos/sin v, m, theta)
        trig = pol[0].transpose(1, 0, 2, 3)  # (m^a cos^(a) u, m^a sin^(a) u), a = 0, 1, 2
        angle = mf * theta
        c, s = np.cos(angle, out=trig[0, 0]), np.sin(angle, out=trig[1, 0])
        np.multiply(mf, -s, out=trig[0, 1])
        np.multiply(mf, c, out=trig[1, 1])
        np.multiply(-mf * mf, trig[:, 0], out=trig[:, 2])
        pol[1, :, 0] = trig[1]
        np.negative(trig[0], out=pol[1, :, 1])
        self.poloidal = pol.reshape(2, 3, 2 * M, theta.size)
        self.toroidal = None
        if N > 0:
            v = (np.arange(-N, N + 1) * mode_set.n_fp)[:, None] * zeta
            self.toroidal = np.stack([np.cos(v), np.sin(v)])


@dataclass
class SynthesizedField:
    """Real-space field with its angular derivatives on a (theta, zeta) grid."""

    value: np.ndarray
    d_theta: np.ndarray
    d_zeta: np.ndarray
    d_theta_theta: np.ndarray
    d_theta_zeta: np.ndarray
    d_zeta_zeta: np.ndarray


def synthesize(coeffs: SurfaceCoefficients, theta, zeta) -> SynthesizedField:
    """Direct evaluation of the series and its exact angular derivatives,
    from differentiating the trigonometric basis analytically."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    tables = _tables(coeffs.mode_set, theta, zeta, (coeffs.mode_set.parity,))[0]
    rows = np.einsum("k,dka->da", coeffs.values, tables, optimize=False)
    return SynthesizedField(*rows.reshape(6, theta.size, zeta.size))


def project(values: np.ndarray, mode_set: ModeSet, theta, zeta) -> np.ndarray:
    """Recover coefficients from grid values by trapezoid quadrature.

    On uniform endpoint-exclusive angular grids the trapezoid rule reduces to
    the plain mean; resolving modes up to (M-1, N) without aliasing of the
    quadratic products needs at least 2(2M+1) poloidal and 2(2N+1) toroidal
    nodes.
    """
    table = _tables(mode_set, theta, zeta, (mode_set.parity,))[0, 0]
    flat = np.asarray(values, dtype=float).reshape(-1)
    means = np.einsum("ka,a->k", table, flat, optimize=False) / flat.size
    weight = np.where((mode_set.m == 0) & (mode_set.n == 0), 1.0, 2.0)
    if mode_set.parity == SINE:
        weight = np.where(mode_set.fixed_mask, 0.0, weight)
    return weight * means


def spectral_width(r_modes: ModeSet, z_modes: ModeSet, r: np.ndarray, z: np.ndarray):
    """Poloidal power spectrum sum m^2 (R_mn^2 + Z_mn^2) over the last axis of
    the R and Z coefficient arrays (one width per leading index); diagnostic
    only."""
    if r_modes.size != z_modes.size or not np.array_equal(r_modes.m, z_modes.m):
        raise ValueError("R and Z coefficient sets must share (m, n) layout")
    return ((r**2 + z**2) * r_modes.m.astype(float) ** 2).sum(axis=-1)

