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
exactly with second-order jets, never by finite differences.
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
    "net_shapes",
    "mlp_forward",
    "init_params",
    "mode_profiles",
    "profile_stack",
    "padded_boundary",
    "params_to_vector",
    "vector_to_params",
]

MU0 = 4.0e-7 * math.pi


@dataclass
class MLPCoefficients:
    """Weights and biases of one two-layer tanh network."""

    w0: np.ndarray  # (n, 1)
    b0: np.ndarray  # (n,)
    w1: np.ndarray  # (n, n)
    b1: np.ndarray  # (n,)
    w2: np.ndarray  # (K, n)
    b2: np.ndarray  # (K,)

    def arrays(self) -> tuple:
        return (self.w0, self.b0, self.w1, self.b1, self.w2, self.b2)

    @property
    def width(self) -> int:
        return int(ad.value_of(self.b0).shape[0])

    @property
    def n_out(self) -> int:
        return int(ad.value_of(self.b2).shape[0])


def net_shapes(n: int, k: int, batch: bool = False) -> list:
    """Shapes of W0, b0, W1, b1, W2, b2 of one network of width n and K = k
    outputs; in the batch layout the vectors broadcast over a radius axis."""
    if batch:
        return [(1, n), (1, n), (n, n), (1, n), (k, n), (1, k)]
    return [(n, 1), (n,), (n, n), (n,), (k, n), (k,)]


def _stack_nets(nets) -> MLPCoefficients:
    """Stack networks of one shape on a leading field axis (batch layout)."""
    shapes = net_shapes(nets[0].width, nets[0].n_out, batch=True)
    columns = zip(*(net.arrays() for net in nets))
    return MLPCoefficients(*(ad.reshape(ad.stack(a), (len(nets),) + s) for a, s in zip(columns, shapes)))


class NetParams:
    """The three coordinate networks plus their shared mode layout.

    Built from the networks one by one (``r``, ``lam``, ``z``) or stacked on
    the field axis in the batch layout (:meth:`from_fields`, as
    :func:`vector_to_params` does).  :meth:`fields` gives the stacked form
    that :func:`profile_stack` evaluates; the per-network objects are built
    on first access and are authoritative from then on.
    """

    def __init__(self, r: MLPCoefficients, lam: MLPCoefficients, z: MLPCoefficients,
                 modes_cos: ModeSet, modes_sin: ModeSet):
        if len({r.width, lam.width, z.width}) != 1 or len({r.n_out, lam.n_out, z.n_out}) != 1:
            raise ValueError("all three networks must share width and mode count")
        self._nets, self._fields = (r, lam, z), None
        self._layout(r.width, r.n_out, modes_cos, modes_sin)

    @classmethod
    def from_fields(cls, fields: MLPCoefficients, modes_cos: ModeSet, modes_sin: ModeSet) -> "NetParams":
        self = cls.__new__(cls)
        self._nets, self._fields = None, fields
        _, k, n = ad.value_of(fields.w2).shape
        self._layout(n, k, modes_cos, modes_sin)
        return self

    @classmethod
    def zeros(cls, width: int, modes_cos: ModeSet, modes_sin: ModeSet) -> "NetParams":
        """All-zero networks, e.g. as the layout template of :func:`vector_to_params`."""
        nets = [MLPCoefficients(*(np.zeros(s) for s in net_shapes(width, modes_cos.size))) for _ in range(3)]
        return cls(*nets, modes_cos, modes_sin)

    def _layout(self, width, n_modes, modes_cos, modes_sin):
        if n_modes != modes_cos.size:
            raise ValueError("network output size does not match the mode set")
        self.width, self.n_modes, self.modes_cos, self.modes_sin = width, n_modes, modes_cos, modes_sin

    def _net(self, f: int) -> MLPCoefficients:
        if self._nets is None:
            arrays, shapes = self._fields.arrays(), net_shapes(self.width, self.n_modes)
            self._nets = tuple(
                MLPCoefficients(*(ad.reshape(a[i], s) for a, s in zip(arrays, shapes))) for i in range(3)
            )
            self._fields = None
        return self._nets[f]

    r = property(lambda self: self._net(0))
    lam = property(lambda self: self._net(1))
    z = property(lambda self: self._net(2))

    def fields(self) -> MLPCoefficients:
        """The three networks on one leading field axis (R, lambda, Z)."""
        return self._fields if self._fields is not None else _stack_nets(self._nets)

    @property
    def n_parameters(self) -> int:
        return 3 * sum(math.prod(s) for s in net_shapes(self.width, self.n_modes))


def params_to_vector(params: NetParams) -> np.ndarray:
    """Flatten into the canonical layout: per net (R, lambda, Z), arrays
    W0, b0, W1, b1, W2, b2 in row-major order."""
    chunks = []
    for net in (params.r, params.lam, params.z):
        for arr in net.arrays():
            chunks.append(np.asarray(arr, dtype=float).ravel())
    return np.concatenate(chunks)


def vector_to_params(vec, template: NetParams) -> NetParams:
    """Rebuild NetParams from a flat vector (or Var) in the canonical layout.

    The vector holds the three networks back to back with equal sizes, so
    its (3, P) reshape has one network per row and each array is a column
    block of it: six slices give the field-stacked arrays directly.
    """
    rows = ad.reshape(vec, (3, template.n_parameters // 3))
    arrays, offset = [], 0
    for shape in net_shapes(template.width, template.n_modes, batch=True):
        size = math.prod(shape)
        arrays.append(ad.reshape(rows[:, offset : offset + size], (3,) + shape))
        offset += size
    return NetParams.from_fields(MLPCoefficients(*arrays), template.modes_cos, template.modes_sin)


def input_map(rho):
    """Network input f(rho) = 2 rho^2 - 1, mapping (0,1) into (-1,1)."""
    return 2.0 * rho * rho - 1.0


def _mlp_jets(nets: MLPCoefficients, f: Jet2):
    """Field-stacked network outputs without the last bias, as jets in the
    seed variable of ``f`` (components shaped (n_rho, 1)).

    Returns one array of shape (3, F, n_rho, K): jet order (value, first,
    second derivative), field, radius, mode.
    """
    h = Jet2(f.value * nets.w0 + nets.b0, f.d1 * nets.w0, f.d2 * nets.w0).tanh()
    h = Jet2(*(ad.einsum("frh,fkh->frk", x, nets.w1) for x in (h.value, h.d1, h.d2)))
    h = Jet2(h.value + nets.b1, h.d1, h.d2).tanh()
    return ad.einsum("jfrh,fkh->jfrk", ad.stack([h.value, h.d1, h.d2]), nets.w2)


def mlp_forward(net: MLPCoefficients, f: float):
    """Output vector and its first/second derivatives with respect to f."""
    nets = _stack_nets([net])
    seed = Jet2(np.array([[float(f)]]), np.array([[1.0]]), np.array([[0.0]]))
    raw = ad.value_of(_mlp_jets(nets, seed))[:, 0, 0]
    return raw[0] + ad.value_of(net.b2), raw[1].copy(), raw[2].copy()


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

    # profile evaluation, exact polynomial derivatives
    def pressure_at(self, s):
        return npoly.polyval(s, self.pressure)

    def pressure_prime(self, s):
        return npoly.polyval(s, npoly.polyder(self.pressure))

    def iota_at(self, s):
        return npoly.polyval(s, self.iota)

    def iota_prime(self, s):
        return npoly.polyval(s, npoly.polyder(self.iota))

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
    if modes_cos.size != modes_sin.size:
        raise ValueError("cosine and sine mode sets must have equal size")
    k = modes_cos.size

    rb = padded_boundary(input.boundary_r, modes_cos)
    zb = padded_boundary(input.boundary_z, modes_sin)
    if input.axis_r is None and rb[modes_cos.index_of(0, 0)] == 0.0:
        raise ValueError("no axis guess and the boundary has no (0,0) R mode")

    nets = []
    for stream in np.random.SeedSequence(seed).spawn(3):
        rng = np.random.default_rng(stream)
        w0 = rng.normal(0.0, 0.01, size=(width, 1))
        w1 = rng.normal(0.0, 0.01, size=(width, width))
        w2 = rng.normal(0.0, 0.01, size=(k, width))
        nets.append(MLPCoefficients(w0, np.zeros(width), w1, np.zeros(width), w2, np.zeros(k)))
    targets = [
        _axis_targets(input, modes_cos, rb, input.axis_r),
        np.zeros(k),
        _axis_targets(input, modes_sin, zb, input.axis_z),
    ]
    axis = Jet2(np.array([[input_map(0.0)]]), np.array([[1.0]]), np.array([[0.0]]))
    for net, target, raw in zip(nets, targets, _mlp_jets(_stack_nets(nets), axis)[0, :, 0]):
        net.b2 = target - raw
    return NetParams(nets[0], nets[1], nets[2], modes_cos, modes_sin)


# -- composed profiles ---------------------------------------------------------


@dataclass
class ModeProfiles:
    """Profiles of every Fourier coefficient at one radius."""

    rho: float
    r: SurfaceCoefficients
    lam: SurfaceCoefficients
    z: SurfaceCoefficients


class ProfileStack:
    """Profile values and radial derivatives for a whole radius batch.

    ``jets`` (numpy array or autodiff variable, the kernel's input) has
    shape (3, 3, n_rho, n_modes): jet order (value, d/drho, d2/drho2),
    field (R, lambda, Z), radius, mode.  Per-field jets ``r``, ``lam``,
    ``z`` may be given instead and are available as properties.
    """

    def __init__(self, rho, modes_cos: ModeSet, modes_sin: ModeSet,
                 r: Optional[Jet2] = None, lam: Optional[Jet2] = None, z: Optional[Jet2] = None,
                 jets=None):
        if jets is None:
            jets = ad.stack([ad.stack([getattr(x, c) for x in (r, lam, z)]) for c in ("value", "d1", "d2")])
        self.rho, self.modes_cos, self.modes_sin, self.jets = rho, modes_cos, modes_sin, jets

    def field(self, f: int) -> Jet2:
        return Jet2(self.jets[0, f], self.jets[1, f], self.jets[2, f])

    r = property(lambda self: self.field(0))
    lam = property(lambda self: self.field(1))
    z = property(lambda self: self.field(2))


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

    Accepts network parameters holding numpy arrays or autodiff variables;
    the radial grid must lie strictly inside (0, 1).  The last network bias
    is constant in rho, so it enters the composition as ``P b2``.
    """
    c = constants or ProfileConstants.build(
        input, params.modes_cos, params.modes_sin, rho
    )
    nets = params.fields()
    raw = _mlp_jets(nets, c.f)
    jets = ad.einsum("jifrk,ifrk->jfrk", c.compose, raw) + c.P * nets.b2 + c.C
    return ProfileStack(c.rho, params.modes_cos, params.modes_sin, jets=jets)


def mode_profiles(params: NetParams, input: EquilibriumInput, rho: float) -> ModeProfiles:
    """Profiles and radial derivatives of every coefficient at one radius."""
    jets = ad.value_of(profile_stack(params, input, [float(rho)]).jets)[:, :, 0]
    modes = (params.modes_cos, params.modes_sin, params.modes_sin)
    r, lam, z = (SurfaceCoefficients(modes[f], *jets[:, f]) for f in range(3))
    return ModeProfiles(rho=float(rho), r=r, lam=lam, z=z)
