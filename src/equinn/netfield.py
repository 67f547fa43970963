"""Radial mode profiles from small multilayer perceptrons.

Each cylindrical coordinate (R, lambda, Z) gets one two-layer tanh MLP that
maps the radial coordinate rho in (0, 1), through the rescaled input
``f(rho) = 2 rho^2 - 1``, to the full vector of Fourier coefficients.  The
three networks are evaluated as one batched network on a leading field axis
in the order (R, lambda, Z), which is also the order of the flat parameter
vector, so the batch is a reshape of that vector.  The
raw network output is composed with

* the prescribed boundary coefficients, imposed exactly through the
  distance factor ``(1 - rho^2)`` which vanishes at the boundary, and
* the factor ``rho^m`` which keeps ``X_mn / rho^m`` bounded at the axis,
  as required of poloidal harmonics of smooth fields on the unit disc.

R and Z carry the boundary term; the poloidal renormalization stream
function lambda is unconstrained apart from its pinned (0,0) sine mode.
First and second radial derivatives of every profile are propagated
exactly with second-order jets, never by finite differences.  On the tape,
networks and composition are one node with a hand-written adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import autodiff as ad
from . import spectral
from ._geom import polygon_self_intersects
from .autodiff import Jet2
from .spectral import ModeSet, SurfaceCoefficients

__all__ = [
    "MU0",
    "MLPCoefficients",
    "NetParams",
    "EquilibriumInput",
    "ModeProfiles",
    "ProfileStack",
    "ProfileConstants",
    "input_map",
    "init_params",
    "mode_profiles",
    "profile_stack",
    "padded_boundary",
    "params_to_vector",
    "vector_to_params",
]

MU0 = 4.0e-7 * math.pi


@dataclass(frozen=True)
class MLPCoefficients:
    """Weights and biases of two-layer tanh networks on a leading field axis.

    With F networks of width n and K outputs: W0 (F, 1, n), b0 (F, 1, n),
    W1 (F, n, n), b1 (F, 1, n), W2 (F, K, n), b2 (F, 1, K); the vectors
    broadcast over a radius axis.
    """

    w0: np.ndarray
    b0: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _net_layout(n: int, k: int) -> tuple:
    """Shapes of W0, b0, W1, b1, W2, b2 of one network of width n and k
    outputs, and their offsets in its block of the vector (7, the last one
    the block size)."""
    shapes = [(1, n), (1, n), (n, n), (1, n), (k, n), (1, k)]
    return shapes, np.cumsum([0] + [math.prod(s) for s in shapes])


class NetParams:
    """The flat parameter vector of the three networks and its layout.

    ``vector`` (numpy array or :class:`autodiff.Var`) holds the networks of
    R, lambda and Z back to back, each as W0, b0, W1, b1, W2, b2 in
    row-major order, so its (3, P) reshape has one network per row.
    :meth:`fields` and the single networks ``r``, ``lam``, ``z`` are views
    of it, read-only where it is an array; on a Var, numpy records the
    reshapes and slices on the tape.
    """

    def __init__(self, vector, width: int, modes_cos: ModeSet, modes_sin: ModeSet):
        self.vector, self.width, self.modes_cos, self.modes_sin = vector, width, modes_cos, modes_sin
        if modes_cos.size != modes_sin.size:
            raise ValueError("cosine and sine mode sets must have equal size")
        if ad.value_of(vector).shape != (self.n_parameters,):
            raise ValueError(f"expected {self.n_parameters} parameters, got shape {ad.value_of(vector).shape}")

    @classmethod
    def zeros(cls, width: int, modes_cos: ModeSet, modes_sin: ModeSet) -> "NetParams":
        """All-zero networks, e.g. as the layout template of :func:`vector_to_params`."""
        return cls(np.zeros(3 * _net_layout(width, modes_cos.size)[1][-1]), width, modes_cos, modes_sin)

    @property
    def n_modes(self) -> int:
        return self.modes_cos.size

    @property
    def n_parameters(self) -> int:
        return 3 * int(_net_layout(self.width, self.n_modes)[1][-1])

    def fields(self, f: slice = slice(None)) -> MLPCoefficients:
        """The networks ``f`` of (R, lambda, Z) on one leading field axis:
        six column blocks of the vector's (3, P) reshape."""
        shapes, bounds = _net_layout(self.width, self.n_modes)
        rows = np.reshape(self.vector, (3, int(bounds[-1])))
        if not isinstance(rows, ad.Var):
            rows.flags.writeable = False  # a fresh view; the vector stays writeable
        return MLPCoefficients(*(
            np.reshape(rows[f, lo:hi], (-1,) + shape) for shape, lo, hi in zip(shapes, bounds, bounds[1:])
        ))

    r = property(lambda self: self.fields(slice(0, 1)))
    lam = property(lambda self: self.fields(slice(1, 2)))
    z = property(lambda self: self.fields(slice(2, 3)))


def params_to_vector(params: NetParams) -> np.ndarray:
    """The flat vector: per network (R, lambda, Z), arrays W0, b0, W1, b1,
    W2, b2 in row-major order."""
    return params.vector


def vector_to_params(vec, template: NetParams) -> NetParams:
    """NetParams over a flat vector (or Var) in the layout of ``template``."""
    return NetParams(vec, template.width, template.modes_cos, template.modes_sin)


def input_map(rho):
    """Network input f(rho) = 2 rho^2 - 1, mapping (0,1) into (-1,1)."""
    return 2.0 * rho * rho - 1.0


def _tanh_jet(u0, u1, u2):
    """tanh of the jet (u0, u1, u2), rounded as :meth:`autodiff.Jet2.tanh`."""
    t = np.tanh(u0)
    sech2 = 1.0 - t * t
    d1 = sech2 * u1
    return np.stack([t, d1, sech2 * u2 - 2.0 * ((t * u1) * d1)])


def _tanh_jet_adjoint(u, t, g):
    """The gradient of the pre-activation jet ``u`` from the gradient ``g``
    of its tanh jet (t, s u1, s (u2 - 2 t u1^2)), s = 1 - t^2."""
    s, u1sq = 1.0 - t * t, u[1] * u[1]
    return s * np.stack([g[0] - 2.0 * t * (u[1] * g[1] + (u[2] - 2.0 * t * u1sq) * g[2]) - 2.0 * s * u1sq * g[2],
                         g[1] - 4.0 * t * u[1] * g[2], g[2]])


def _network_jets(nets: MLPCoefficients, f: Jet2) -> tuple:
    """Field-stacked network outputs without the last bias, as jets in the
    seed variable of ``f`` (plain arrays, components shaped (n_rho, 1)):
    (3, F, n_rho, K), jet order (value, first, second derivative); and per
    tanh layer its pre-activation and output jets, (3, F, n_rho, width)."""
    u1 = np.stack([f.value * nets.w0 + nets.b0, f.d1 * nets.w0, f.d2 * nets.w0])
    h1 = _tanh_jet(*u1)
    a = [np.einsum("frh,fkh->frk", x, nets.w1, optimize=False) for x in h1]
    u2 = np.stack([a[0] + nets.b1, a[1], a[2]])
    h2 = _tanh_jet(*u2)
    return np.einsum("jfrh,fkh->jfrk", h2, nets.w2, optimize=False), ((u1, h1), (u2, h2))


def _network_adjoint(nets: MLPCoefficients, c: "ProfileConstants", layers, g) -> np.ndarray:
    """The gradient of the flat parameter vector from the gradient ``g`` of
    the composed jets: the reverse of :func:`profile_stack`'s forward.  It
    works with the radius last, (jet, field, unit, radius), so that every
    contraction runs over radii or adds whole rows of them."""
    (u1, h1), (u2, h2) = ([np.ascontiguousarray(x.swapaxes(2, 3)) for x in layer] for layer in layers)
    g_raw = np.einsum("jfrk,jifrk->ifkr", g, c.compose, optimize=False)
    g_u2 = _tanh_jet_adjoint(u2, h2[0], np.einsum("fkh,jfkr->jfhr", nets.w2, g_raw, optimize=False))
    g_u1 = _tanh_jet_adjoint(u1, h1[0], np.einsum("fkh,jfkr->jfhr", nets.w1, g_u2, optimize=False))
    f = np.stack([c.f.value, c.f.d1, c.f.d2])[..., 0]
    blocks = (
        np.einsum("jfhr,jr->fh", g_u1, f, optimize=False), g_u1[0].sum(axis=2),
        np.einsum("jfkr,jfhr->fkh", g_u2, h1, optimize=False), g_u2[0].sum(axis=2),
        np.einsum("jfkr,jfhr->fkh", g_raw, h2, optimize=False), np.einsum("jfrk,jfrk->fkr", g, c.P, optimize=False).sum(axis=2),
    )
    return np.concatenate([b.reshape(3, -1) for b in blocks], axis=1).ravel()


# -- equilibrium problem definition ------------------------------------------


@dataclass
class EquilibriumInput:
    """Fixed-boundary equilibrium problem: boundary harmonics, profiles, flux.

    ``pressure`` and ``iota`` are polynomial coefficients in the normalized
    flux s = rho^2 (ascending powers); pressure in pascals, iota
    dimensionless.  ``psi_b`` is the enclosed toroidal flux divided by 2 pi,
    in webers.
    """

    boundary_r: SurfaceCoefficients
    boundary_z: SurfaceCoefficients
    pressure: np.ndarray
    iota: np.ndarray
    psi_b: float
    n_fp: int
    M: int
    N: int
    axis_r: Optional[np.ndarray] = None
    axis_z: Optional[np.ndarray] = None

    def __post_init__(self):
        self.pressure = np.atleast_1d(np.asarray(self.pressure, dtype=float))
        self.iota = np.atleast_1d(np.asarray(self.iota, dtype=float))
        for name in ("axis_r", "axis_z"):
            arr = getattr(self, name)
            if arr is not None:
                setattr(self, name, np.atleast_1d(np.asarray(arr, dtype=float)))

    def pressure_prime(self, s):
        """dp/ds of the pressure polynomial, exactly."""
        return npoly.polyval(s, npoly.polyder(self.pressure))

    @property
    def boundary_M(self) -> int:
        return self.boundary_r.mode_set.M

    @property
    def boundary_N(self) -> int:
        return self.boundary_r.mode_set.N

    def validate(self) -> None:
        if self.boundary_r.mode_set.parity != spectral.COSINE:
            raise ValueError("boundary R coefficients must have cosine parity")
        if self.boundary_z.mode_set.parity != spectral.SINE:
            raise ValueError("boundary Z coefficients must have sine parity")
        if self.boundary_M > self.M or self.boundary_N > self.N:
            raise ValueError(
                f"boundary harmonics ({self.boundary_M}, {self.boundary_N}) exceed "
                f"the spectral resolution ({self.M}, {self.N})"
            )
        if self.boundary_z.mode_set.M > self.M or self.boundary_z.mode_set.N > self.N:
            raise ValueError("boundary Z harmonics exceed the spectral resolution")
        if self.n_fp < 1:
            raise ValueError("n_fp must be a positive integer")
        if self.psi_b == 0.0:
            raise ValueError("psi_b must be nonzero")
        for name in ("axis_r", "axis_z"):
            arr = getattr(self, name)
            if arr is not None and arr.size > self.N + 1:
                raise ValueError(f"{name} has more entries than toroidal modes")
        theta = 2.0 * np.pi * np.arange(4 * self.M) / (4 * self.M)
        rb = spectral.synthesize(self.boundary_r, theta, np.zeros(1)).value[:, 0]
        zb = spectral.synthesize(self.boundary_z, theta, np.zeros(1)).value[:, 0]
        if polygon_self_intersects(np.column_stack([rb, zb])):
            raise ValueError("boundary cross-section at zeta=0 is self-intersecting")


def padded_boundary(coeffs: SurfaceCoefficients, target: ModeSet) -> np.ndarray:
    """Boundary coefficients embedded in a (possibly larger) mode set."""
    src = coeffs.mode_set
    if src.M > target.M or src.N > target.N:
        raise ValueError("boundary mode set exceeds the target resolution")
    out = np.zeros(target.size)
    for i in range(src.size):
        out[target.index_of(int(src.m[i]), int(src.n[i]))] = coeffs.values[i]
    return out


def _axis_targets(input: EquilibriumInput, mode_set: ModeSet, boundary_vec: np.ndarray, axis: Optional[np.ndarray]) -> np.ndarray:
    """Per-mode shift X_a0n - X_b0n applied to the m=0 entries."""
    target = np.zeros(mode_set.size)
    m0 = mode_set.m == 0
    if axis is None:
        return target
    for i in np.nonzero(m0)[0]:
        n = int(mode_set.n[i])
        if n < axis.size:
            target[i] = axis[n] - boundary_vec[i]
    if mode_set.parity == spectral.SINE:
        target[mode_set.fixed_mask] = 0.0
    return target


def init_params(
    mode_sets: tuple[ModeSet, ModeSet],
    width: int,
    seed: int,
    input: EquilibriumInput,
) -> NetParams:
    """Draw fresh network parameters and anchor the initial surfaces.

    Weights are sampled from N(0, 0.01^2) with a seeded generator (one
    spawned stream per coordinate network, draw order W0, W1, W2); hidden
    biases start at zero.  The last bias is then corrected so that at rho=0
    the m=0 profiles hit the axis guess exactly and every other raw network
    output vanishes, which makes the initial surfaces the linear-in-s
    interpolation between axis guess and boundary.

    Without an axis guess the m=0 boundary coefficients stand in for it,
    which is safe for convex boundaries.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    modes_cos, modes_sin = mode_sets
    k = modes_cos.size

    rb = padded_boundary(input.boundary_r, modes_cos)
    zb = padded_boundary(input.boundary_z, modes_sin)
    if input.axis_r is None and rb[modes_cos.index_of(0, 0)] == 0.0:
        raise ValueError("no axis guess and the boundary has no (0,0) R mode")

    params = NetParams.zeros(width, modes_cos, modes_sin)
    rows = params.vector.reshape(3, -1)
    bounds = _net_layout(width, k)[1]
    for row, stream in zip(rows, np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(stream)
        for lo, hi in zip(bounds[0:6:2], bounds[1:6:2]):  # W0, W1, W2
            row[lo:hi] = rng.normal(0.0, 0.01, size=hi - lo)
    targets = np.stack([
        _axis_targets(input, modes_cos, rb, input.axis_r),
        np.zeros(k),
        _axis_targets(input, modes_sin, zb, input.axis_z),
    ])
    axis = Jet2(np.array([[input_map(0.0)]]), np.array([[1.0]]), np.array([[0.0]]))
    rows[:, bounds[5] :] = targets - _network_jets(params.fields(), axis)[0][0, :, 0]
    return params


# -- composed profiles ---------------------------------------------------------


@dataclass
class ModeProfiles:
    """Profiles of every Fourier coefficient at one radius."""

    rho: float
    r: SurfaceCoefficients
    lam: SurfaceCoefficients
    z: SurfaceCoefficients


@dataclass
class ProfileStack:
    """Profile values and radial derivatives for a whole radius batch.

    ``jets`` (numpy array, or the tape node :func:`profile_stack` makes of
    an autodiff vector; the kernel's input) has shape (3, 3, n_rho,
    n_modes): jet order (value, d/drho, d2/drho2), field, radius, mode.
    """

    rho: np.ndarray
    modes_cos: ModeSet
    modes_sin: ModeSet
    jets: object


@dataclass
class ProfileConstants:
    """Radius- and boundary-dependent constants of the profile composition.

    Per field X = rho^m (phi N + X_b) with the raw network output N,
    phi = 1 - rho^2 (1 for lambda) and boundary coefficients X_b (0 for
    lambda; the pinned sine (0,0) mode is zeroed in rho^m).  As a jet,
    X_j = sum_i binom(j, i) P_{j-i} N_i + C_j with P = rho^m phi and
    C = rho^m X_b; ``compose`` holds the binomial operator.  All of it is
    parameter-independent, so the solver builds it once per grid.
    """

    rho: np.ndarray
    f: Jet2
    P: np.ndarray
    C: np.ndarray
    compose: np.ndarray

    @classmethod
    def build(
        cls,
        input: "EquilibriumInput",
        modes_cos: ModeSet,
        modes_sin: ModeSet,
        rho: np.ndarray,
    ) -> "ProfileConstants":
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        if np.any(rho <= 0.0) or np.any(rho >= 1.0):
            raise ValueError("rho must lie strictly inside (0, 1)")
        col = rho[:, None]
        m = np.stack([modes_cos.m, modes_sin.m, modes_sin.m])[:, None, :]  # (field, 1, mode)
        live = np.stack([np.ones(modes_cos.size), *[np.where(modes_sin.fixed_mask, 0.0, 1.0)] * 2])[:, None, :]
        # jets of rho^m, exact for all m >= 0 (rho > 0)
        pw = np.stack([col**m, m * col ** np.maximum(m - 1, 0), m * (m - 1.0) * col ** np.maximum(m - 2, 0)]) * live
        phi = np.zeros((3, 3) + col.shape)
        phi[0] = 1.0
        phi[:, ::2] = np.stack([1.0 - col * col, -2.0 * col, np.full_like(col, -2.0)])[:, None]
        P = np.stack([pw[0] * phi[0], pw[1] * phi[0] + pw[0] * phi[1],
                      pw[2] * phi[0] + 2.0 * (pw[1] * phi[1]) + pw[0] * phi[2]])
        boundary = np.stack([padded_boundary(input.boundary_r, modes_cos), np.zeros(modes_cos.size),
                             padded_boundary(input.boundary_z, modes_sin)])[:, None, :]
        compose = np.zeros((3,) + P.shape)
        for j in range(3):
            for i in range(j + 1):
                compose[j, i] = math.comb(j, i) * P[j - i]
        return cls(rho, Jet2(input_map(col), 4.0 * col, np.full_like(col, 4.0)), P, pw * boundary, compose)


def profile_stack(
    params: NetParams,
    input: EquilibriumInput,
    rho,
    constants: Optional[ProfileConstants] = None,
) -> ProfileStack:
    """Composed mode profiles with exact first/second rho-derivatives.

    Accepts network parameters whose vector is a numpy array or an
    :class:`autodiff.Var`; the radial grid must lie strictly inside (0, 1).
    The last network bias is constant in rho, so it enters the composition
    as ``P b2``.  On a Var the jets are one tape node in its dtype
    (:func:`autodiff.elemental`): the plain-array forward and
    :func:`_network_adjoint`, ``np.einsum(..., optimize=False)``, no BLAS.
    """
    c = constants or ProfileConstants.build(input, params.modes_cos, params.modes_sin, rho)

    def forward(vec):
        nets = vector_to_params(vec, params).fields()
        raw, layers = _network_jets(nets, c.f)
        jets = np.einsum("jifrk,ifrk->jfrk", c.compose, raw, optimize=False) + c.P * nets.b2 + c.C
        return jets, lambda g: _network_adjoint(nets, c, layers, g)

    return ProfileStack(c.rho, params.modes_cos, params.modes_sin, ad.elemental(params.vector, forward))


def mode_profiles(params: NetParams, input: EquilibriumInput, rho: float) -> ModeProfiles:
    """Profiles and radial derivatives of every coefficient at one radius."""
    jets = profile_stack(params, input, [float(rho)]).jets[:, :, 0]
    modes = (params.modes_cos, params.modes_sin, params.modes_sin)
    r, lam, z = (SurfaceCoefficients(modes[f], *jets[:, f]) for f in range(3))
    return ModeProfiles(rho=float(rho), r=r, lam=lam, z=z)
