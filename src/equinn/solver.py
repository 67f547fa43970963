"""Loss assembly and the two-stage minimization of the force residual.

The loss is the plain mean over all collocation nodes of the per-node force
magnitude from the field kernel; nodes are not volume-weighted.  By
stellarator symmetry it and its gradient run on the rows theta <= pi only,
each node weighted by the number of nodes it stands for (:func:`_mirror_half`),
and equal the full-grid mean up to last-bit differences between mirror
nodes.  The residual diagnostics are the same weighted sums on that half
grid; only :meth:`LossAssembler.field_state` runs on the full grid.
Training runs an adaptive-moment stage (decoupled weight decay,
bias-corrected moments), then full-memory BFGS with a strong-Wolfe line
search and, where a search stalls at a kink of the loss, a least-norm bundle
step.  Both stages are deterministic given the seed, and all reductions are
thread-count independent, so reruns reproduce checkpoints bit for bit.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import mhdkernel as mk
from . import netfield as nf
from . import spectral
from .autodiff import NonFiniteLossError
from .mhdkernel import CollocationGrid, JacobianSignError
from .netfield import EquilibriumInput, NetParams

__all__ = [
    "AdamWConfig",
    "BFGSConfig",
    "SolverConfig",
    "LossRecord",
    "Solution",
    "LossAssembler",
    "adamw_stage",
    "bfgs_stage",
    "solve",
]


@dataclass(frozen=True)
class AdamWConfig:
    step: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    max_iter: int = 5000


@dataclass(frozen=True)
class BFGSConfig:
    max_iter: int = 2000
    param_tol: float = 1e-12
    grad_tol: float = 1e-14


_ADAM_EPS = 1e-8
_C1, _C2 = 1e-4, 0.9  # strong-Wolfe sufficient-decrease and curvature constants
_MAX_LINE_SEARCH = 30  # trials in the bracket phase and in the zoom
_TARGET_CHECK_EVERY = 25  # iterations between F_vol_norm checks against target_fvol


@dataclass(frozen=True)
class SolverConfig:
    width: int = 8
    n_rho: int = 50
    n_theta: int = 0  # 0 -> 4 M
    n_zeta: int = 0  # 0 -> max(1, 4 N)
    seed: int = 0
    adamw: AdamWConfig = field(default_factory=AdamWConfig)
    bfgs: BFGSConfig = field(default_factory=BFGSConfig)
    target_fvol: Optional[float] = None
    target_rel_tol: float = 5e-3
    checkpoint_every: int = 1000

    def validated(self) -> "SolverConfig":
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.n_rho < 1:
            raise ValueError("need at least one flux surface")
        if self.adamw.max_iter < 0 or self.bfgs.max_iter < 0:
            raise ValueError("iteration limits must be non-negative")
        for name, val in (
            ("adamw.step", self.adamw.step),
            ("bfgs.param_tol", self.bfgs.param_tol),
            ("bfgs.grad_tol", self.bfgs.grad_tol),
            ("target_rel_tol", self.target_rel_tol),
        ):
            if val <= 0:
                raise ValueError(f"{name} must be positive")
        return self


@dataclass(frozen=True)
class LossRecord:
    iteration: int
    stage: str
    loss: float
    wall_time: float


@dataclass
class Solution:
    params: NetParams
    input: EquilibriumInput
    config: SolverConfig
    history: list
    f_vol_norm: float
    f_norm_profile: np.ndarray
    rho: np.ndarray
    termination_reason: str
    termination_detail: str = ""  # the divergence message: stage, iteration, node
    termination_error: Optional[str] = None  # type name of the exception a divergence wraps
    termination_node: Optional[list] = None  # [rho, theta, zeta] of the node a divergence names

    @property
    def n_parameters(self) -> int:
        return self.params.n_parameters


class Diverged(RuntimeError):
    """Wraps a non-finite / overlapping-surface event during a stage."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


def _mirror_half(grid: CollocationGrid) -> tuple[CollocationGrid, np.ndarray]:
    """The rows theta <= pi of ``grid`` and the weight of each of their nodes.

    (theta, zeta) -> (-theta, -zeta) maps row i to row n_theta - i (mod
    n_theta) and a row's zeta nodes onto each other; a row that is its own
    mirror image gets weight 1, every other kept row 2.  The kept rows are a
    prefix of the node order, so node indices stay full-grid indices, and
    since sqrt(g) is even too, the first overlapping node in that order is
    a kept one: the Jacobian check on the half grid names the same node.
    """
    n_t, n_z = grid.theta.size, grid.zeta.size
    off = np.concatenate([
        grid.theta - 2.0 * np.pi * np.arange(n_t) / n_t,
        grid.zeta - 2.0 * np.pi * np.arange(n_z) / (grid.n_fp * n_z),
    ])
    if not np.max(np.abs(off)) <= 1e-12:
        raise ValueError(
            "the loss needs uniform endpoint-exclusive angular grids on "
            "theta in [0, 2 pi) and zeta in [0, 2 pi / n_fp)"
        )
    rows = np.arange(n_t // 2 + 1)
    weights = np.repeat(np.where((2 * rows) % n_t == 0, 1.0, 2.0), n_z)
    return CollocationGrid(grid.rho, grid.theta[: rows.size], grid.zeta, grid.n_fp), weights


class LossAssembler:
    """Caches grid constants and evaluates loss, gradient and diagnostics.

    The loss and :meth:`metrics` run on the mirror half of ``grid``
    (:func:`_mirror_half`), each node weighted by its multiplicity;
    :meth:`field_state` runs on all of ``grid``.
    """

    def __init__(self, input: EquilibriumInput, width: int, grid: CollocationGrid):
        self.input = input
        self.grid = grid
        self.half_grid, self.half_weights = _mirror_half(grid)
        self.modes_cos, self.modes_sin = spectral.mode_set_pair(
            input.M, input.N, input.n_fp
        )
        self.width = width
        self.half_tables = mk.KernelTables(self.modes_cos, self.modes_sin, self.half_grid)
        self.constants = nf.ProfileConstants.build(
            input, self.modes_cos, self.modes_sin, grid.rho
        )
        s = grid.rho**2
        self.p_prime = input.pressure_prime(s)
        self.template = NetParams.zeros(width, self.modes_cos, self.modes_sin)
        mk._retain_freed_heap(self.half_grid.n_nodes)

    # -- evaluation ------------------------------------------------------

    def _kernel_args(self, params: NetParams, grid: CollocationGrid, tables) -> tuple:
        stack = nf.profile_stack(params, self.input, grid.rho, self.constants)
        return stack, grid, tables, self.input.iota, self.input.psi_b, self.p_prime

    @functools.cached_property
    def tables(self) -> mk.KernelTables:
        """The kernel tables of the full grid, which only :meth:`field_state`
        uses: built on its first call."""
        return mk.KernelTables(self.modes_cos, self.modes_sin, self.grid)

    def field_state(self, params: NetParams) -> mk.FieldState:
        return mk.field_state(*self._kernel_args(params, self.grid, self.tables))

    def _mean(self, f_mag):
        """The full-grid node mean of ``f_mag`` given on the half grid."""
        return ad.sum_all(f_mag * self.half_weights) / self.grid.n_nodes

    def _force(self, vec):
        params = nf.vector_to_params(vec, self.template)
        return mk.force_magnitude(*self._kernel_args(params, self.half_grid, self.half_tables))

    def _loss_expr(self, vec):
        """The loss on the tape: the networks as one node
        (:func:`netfield.profile_stack`), the kernel as one node
        (:func:`mhdkernel.force_magnitude`) and the weighted mean."""
        return self._mean(self._force(vec))

    def _located(self, exc: NonFiniteLossError, vec) -> NonFiniteLossError:
        """``exc`` naming the first non-finite F_mag node of the half grid, in
        node order, if there is one.  The forward runs again for it, so only
        a failing evaluation pays."""
        bad = ~np.isfinite(ad.value_of(self._force(np.asarray(vec, dtype=float))))
        if not bad.any():
            return exc
        node = self.half_grid.node_index(int(np.argmax(bad)))
        return NonFiniteLossError(f"{exc}; first non-finite |F| at node {node}", node=node)

    def loss_value(self, vec: np.ndarray) -> float:
        out = self._loss_expr(np.asarray(vec))
        val = float(out)
        if not np.isfinite(val):
            raise self._located(NonFiniteLossError(f"loss evaluated to {val}"), vec)
        return val

    def loss_value_precise(self, vec):
        """Loss in extended precision, for finite-difference gradient oracles.

        The trigonometric tables stay in float64 (identical constants on both
        sides of a difference quotient); the arithmetic promotes to long
        double, pushing evaluation noise well below the float64 rounding
        floor that otherwise limits central differences.
        """
        out = self._loss_expr(np.asarray(vec, dtype=np.longdouble))
        if not np.isfinite(float(out)):
            raise NonFiniteLossError("loss evaluated to a non-finite value")
        return out

    def value_and_grad(self, vec: np.ndarray):
        try:
            return ad.loss_gradient(self._loss_expr, vec)
        except NonFiniteLossError as exc:
            raise self._located(exc, vec) from None

    def metrics(self, vec: np.ndarray) -> dict:
        """Normalized residual diagnostics of the training grid, as quadratures
        over its mirror half with the multiplicity of each node.  The kernel
        runs over the radial blocks of the loss node
        (:func:`mhdkernel.residual_fields`); the quadratures sum the joined
        arrays."""
        params = nf.vector_to_params(np.asarray(vec, dtype=float), self.template)
        grid, w = self.half_grid, self.half_weights
        state, grad_b2 = mk.residual_fields(*self._kernel_args(params, grid, self.half_tables))
        normalizer = mk.volume_average(grad_b2, state, grid, w)
        fnorm, fvol = mk.f_norm(state, grid, normalizer, w)
        return {
            "f_vol_norm": fvol,
            "f_norm_profile": mk.surface_average_profile(fnorm, state, grid, w),
            "normalizer": normalizer,
            "loss": float(self._mean(state.F_mag)),
        }

    def f_vol_norm(self, vec: np.ndarray) -> float:
        return self.metrics(vec)["f_vol_norm"]


# -- stage 1: adaptive moments -------------------------------------------------


def adamw_stage(
    x0: np.ndarray,
    value_and_grad: Callable,
    config: AdamWConfig,
    on_iteration: Optional[Callable] = None,
    stop_check: Optional[Callable] = None,
):
    """Decoupled-weight-decay adaptive-moment descent.

    Returns ``(x, records, status)`` with status 'max-iter' or
    'target-reached'.  A non-finite loss or an overlapping-surface event
    raises :class:`Diverged`; the last finite iterate is the last one passed
    to ``on_iteration``.
    """
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    records = []
    status = "max-iter"
    for it in range(1, config.max_iter + 1):
        try:
            val, g = value_and_grad(x)
        except (NonFiniteLossError, JacobianSignError) as exc:
            raise Diverged(f"stage 1 diverged at iteration {it}: {exc}", it) from exc
        records.append((it, val))
        if on_iteration is not None:
            on_iteration(it, x, val)
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * (g * g)
        m_hat = m / (1.0 - config.beta1**it)
        v_hat = v / (1.0 - config.beta2**it)
        x = x - config.step * (
            m_hat / (np.sqrt(v_hat) + _ADAM_EPS) + config.weight_decay * x
        )
        if stop_check is not None and stop_check(it, x):
            status = "target-reached"
            break
    return x, records, status


# -- stage 2: quasi-Newton -------------------------------------------------------


def _strong_wolfe(evaluate, f0, g0_dot_p):
    """Strong-Wolfe step search (bracket and zoom, bisection fallback).

    ``evaluate(alpha)`` returns (f, dphi, payload); non-finite trials are
    treated as too-far and bracketed down.  The first trial that meets both
    conditions is accepted; if curvature is unattainable within the budget,
    the best sufficient-decrease point is (the update guards on y.s anyway).
    Returns the payload of the accepted trial, or None.
    """
    lo = (0.0, f0, g0_dot_p, None)
    alpha = 1.0
    for i in range(_MAX_LINE_SEARCH):
        f, dphi, payload = evaluate(alpha)
        trial = (alpha, f, dphi, payload)
        if not np.isfinite(f) or f > f0 + _C1 * alpha * g0_dot_p or (i > 0 and f >= lo[1]):
            return _zoom(evaluate, f0, g0_dot_p, lo, trial)
        if abs(dphi) <= -_C2 * g0_dot_p:
            return payload
        if dphi >= 0.0:
            return _zoom(evaluate, f0, g0_dot_p, trial, lo)
        lo = trial
        alpha = 2.0 * alpha
    return lo[3]


def _zoom(evaluate, f0, g0_dot_p, lo, hi):
    """Shrink [lo, hi] until the strong conditions hold at an interior point.

    lo always satisfies sufficient decrease (or is the origin); hi may carry
    a non-finite value from an overlapping-surface trial, in which case the
    interval is bisected rather than interpolated.
    """
    a_lo, f_lo, d_lo, p_lo = lo
    a_hi, f_hi, _, _ = hi
    for _ in range(_MAX_LINE_SEARCH):
        if np.isfinite(f_hi) and np.isfinite(d_lo) and d_lo != 0.0:
            # quadratic through (lo value, lo slope, hi value)
            denom = 2.0 * (f_hi - f_lo - d_lo * (a_hi - a_lo))
            a = a_lo - d_lo * (a_hi - a_lo) ** 2 / denom if denom != 0.0 else 0.5 * (a_lo + a_hi)
        else:
            a = 0.5 * (a_lo + a_hi)
        span = abs(a_hi - a_lo)
        low, high = min(a_lo, a_hi), max(a_lo, a_hi)
        if not np.isfinite(a) or a <= low + 0.1 * span or a >= high - 0.1 * span:
            a = 0.5 * (a_lo + a_hi)
        f, dphi, payload = evaluate(a)
        if not np.isfinite(f) or f > f0 + _C1 * a * g0_dot_p or f >= f_lo:
            a_hi, f_hi = a, f
        else:
            if abs(dphi) <= -_C2 * g0_dot_p:
                return payload
            if dphi * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, d_lo, p_lo = a, f, dphi, payload
        if abs(a_hi - a_lo) < 1e-16:
            break
    return p_lo  # sufficient decrease holds at lo, if not the origin


def bfgs_stage(
    x0: np.ndarray,
    value_and_grad: Callable,
    config: BFGSConfig,
    on_iteration: Optional[Callable] = None,
    stop_check: Optional[Callable] = None,
):
    """Full-memory quasi-Newton minimization with strong-Wolfe steps.

    Curvature pairs with non-positive y.s are skipped.  Where a search fails
    or moves x by less than ``param_tol``, as at a kink of the loss, at most
    two bundle steps follow along minus the least-norm point of the hull of
    g and the gradient beyond the kink, the nearest trial gradient where the
    loss rose (each failed search adds its own); one that moves resets the
    inverse Hessian H (:class:`_InverseHessian`).  Until n / 12 updates
    follow the start or a reset, H is a multiple of I plus its curvature
    pairs, and H y and H g each read the pairs, O(k n) for k pairs.  Then H
    becomes exactly symmetric blocks of its lower triangle, about n^2 / 2
    doubles: each iteration reads H once for H y and writes it once, taking
    the next H g from each block as it is updated.  Every dot of two
    parameter vectors is a fixed-order ``einsum`` (:func:`_dot`).
    Returns ``(x, records, status)``, status in {'param-stall', 'grad-tol',
    'target-reached', 'max-iter'}.
    """

    def search(x, f, g, p):
        """(x, f, g) at the accepted step along p, None if it does not move x;
        and the gradient at the nearest trial where the loss rises, or None."""
        trials = []

        def evaluate(alpha):
            xt = x + alpha * p
            try:
                ft, gt = value_and_grad(xt)
            except (NonFiniteLossError, JacobianSignError):
                return np.inf, np.inf, None
            trials.append((alpha, gt, _dot(gt, p)))
            return ft, trials[-1][2], (xt, ft, gt)

        step = _strong_wolfe(evaluate, f, _dot(g, p))
        if step is not None and np.max(np.abs(step[0] - x)) < config.param_tol:
            step = None
        rising = [(alpha, gt) for alpha, gt, dphi in trials if dphi > 0.0]
        return step, (min(rising, key=lambda t: t[0])[1] if rising else None)

    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    try:
        f, g = value_and_grad(x)
    except (NonFiniteLossError, JacobianSignError) as exc:
        raise Diverged(f"stage 2 start point is invalid: {exc}", 0) from exc
    h = _InverseHessian(n)  # H = I
    hg = g  # H g
    records = []
    first_update = True

    for it in range(1, config.max_iter + 1):
        if np.max(np.abs(g)) <= config.grad_tol:
            return x, records, "grad-tol"
        p = -hg
        if _dot(g, p) >= 0.0:
            # stale curvature turned the direction uphill; restart from I
            h.scale, p = 1.0, -g

        step, far = search(x, f, g, p)
        bundle = [g] if far is None else [g, far]
        for _ in range(2 if step is None else 0):
            p = -_least_norm(np.array(bundle))
            if not _dot(g, p) < 0.0:
                break  # 0 lies in the bundle's hull: no descent direction left
            step, far = search(x, f, g, p)
            if step is not None:
                h.scale = 1.0
                break
            if far is None:
                break
            bundle.append(far)
        if step is None:
            return x, records, "param-stall"

        s, y = step[0] - x, step[2] - g
        x, f, g = step
        records.append((it, f))
        if on_iteration is not None:
            on_iteration(it, x, f)

        if stop_check is not None and stop_check(it, x):
            return x, records, "target-reached"

        ys = _dot(y, s)
        if not ys > 0.0:  # the pair is skipped and H stays as it is
            hg = h.times(g)
            continue
        if first_update:
            h.scale, first_update = ys / _dot(y, y), False
        hg = h.update(s, y, g)
    return x, records, "max-iter"


def _least_norm(points: np.ndarray) -> np.ndarray:
    """The point of the convex hull of the rows of ``points`` (at most three)
    nearest to 0: Wolfe's nearest-point method (Math. Prog. 11, 1976) on the
    Gram matrix, with the corral as the points of positive weight w."""
    gram = np.einsum("ik,jk->ij", points, points, optimize=False)
    w = np.zeros(len(points))
    w[np.argmin(np.diag(gram))] = 1.0
    for _ in range(3 * len(points)):
        gw = np.einsum("ij,j->i", gram, w, optimize=False)
        j = int(np.argmin(gw))
        if w[j] > 0.0 or gw[j] >= _dot(w, gw) - 1e-12 * np.max(np.diag(gram)):
            break  # no point is nearer to 0 along x = sum w_i P_i beyond rounding
        corral = [*np.flatnonzero(w), j]
        v = _affine_weights(gram, corral)
        if v is None or not v[-1] > 0.0:
            break  # no progress beyond rounding
        while not np.all(v > 0.0):
            # move from w towards v until a weight reaches 0; drop that point
            u = w[corral]
            i = min((k for k in range(len(v)) if v[k] <= 0.0), key=lambda k: u[k] / (u[k] - v[k]))
            w[corral] = np.maximum(u + u[i] / (u[i] - v[i]) * (v - u), 0.0)
            w[corral[i]] = 0.0
            corral = [c for c in corral if w[c] > 0.0]
            v = _affine_weights(gram, corral)
        w[corral] = v
    return np.einsum("i,ik->k", w, points, optimize=False)


def _affine_weights(gram, corral):
    """Weights of the point P_0 + sum_i t_i (P_i - P_0) of the corral's affine
    hull nearest to 0, its 1 x 1 or 2 x 2 normal equations for t padded to
    2 x 2 and solved by Cramer's rule; None for affinely dependent points."""
    g, m = gram[np.ix_(corral, corral)], len(corral) - 1
    a, b = np.eye(2), np.zeros(2)
    a[:m, :m] = g[1:, 1:] - g[1:, :1] - g[:1, 1:] + g[0, 0]
    b[:m] = g[0, 0] - g[1:, 0]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if not det > 0.0:
        return None
    t = np.array([b[0] * a[1, 1] - a[0, 1] * b[1], a[0, 0] * b[1] - a[1, 0] * b[0]])[:m] / det
    return np.concatenate([[1.0 - np.sum(t)], t])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b as a fixed-order ``einsum``: BLAS ddot (``np.dot``) rounds
    differently with 1 and 4 threads from about 20,000 entries."""
    return float(np.einsum("i,i->", a, b, optimize=False))


_BLOCK_BYTES = 512 * 1024  # a full-width block of rows of H; with its scratch it stays in L2
# Curvature pairs per parameter that H holds before it becomes blocks.  In
# an ellipse3d stage (n = 3,072, 2-core Xeon VM) H took at most 5.8 ms per
# iteration on 256 pairs and 21.6 ms on the blocks, and the switch 4.2 ms per
# pair once, so a later switch would be faster; but during it the pairs,
# n^2 / 6 doubles at 1 / 12, sit beside the blocks' n^2 / 2.
_PAIRS_PER_PARAMETER = 1 / 12


class _InverseHessian:
    """The inverse Hessian H of :func:`bfgs_stage`, exactly symmetric.

    Setting ``scale`` resets H to scale I.  While ``scale`` is not None, H is
    scale I + sum_i (s_i w_i^T + w_i s_i^T) over the k curvature pairs since
    the reset, pair i held as ``pairs[:, i]`` = [s_i w_i], n x 2: a product
    reads the pairs twice, O(k n), and no n x n storage exists.  When an
    update finds ``capacity`` pairs held, n / 12 of them
    (``_PAIRS_PER_PARAMETER``), they are materialized into the lower block
    triangle ``blocks`` and ``scale`` becomes None: contiguous row blocks of
    equal height (the last may be lower), block [lo, hi) holding
    H[lo:hi, :hi] with its diagonal block whole.  The height is the rows of n
    doubles that fit ``_BLOCK_BYTES``.  Separate arrays, not the lower part
    of one n x n array, so that the upper part takes neither memory nor a
    pass.  The switch drops the pairs, and the first pair after a reset
    drops the blocks.  No product goes through BLAS.
    """

    def __init__(self, n: int):
        self.n = n
        self.capacity = int(_PAIRS_PER_PARAMETER * n)
        self.pairs = self.blocks = self.scratch = None
        self.scale = 1.0

    @property
    def scale(self):
        return self._scale

    @scale.setter
    def scale(self, gamma):
        self._scale, self.k = gamma, 0

    def times(self, v: np.ndarray) -> np.ndarray:
        """H v: scale v plus the pairs' sum, both a fixed-order ``einsum``
        over the pairs, or each block read once and in order, so that every
        entry sums in a fixed order."""
        if self.scale is None:
            out = np.empty_like(v)
            for blk in self.blocks:
                _block_product(blk, v, out)
            return out
        if not self.k:
            return self.scale * v
        held = self.pairs[:, : self.k]
        dots = np.einsum("jka,j->ka", held, v, optimize=False)  # [s_i.v w_i.v]
        # swapped and contiguous, so that the inner loop is one dot per row
        # (on the reversed view it took 3.6 ms instead of 0.6 at 256 pairs)
        return self.scale * v + np.einsum("jka,ka->j", held, dots[:, ::-1].copy(), optimize=False)

    def update(self, s: np.ndarray, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Update with the curvature pair (s, y), y.s > 0; returns the updated
        H times ``g``.

        (I - rho s y^T) H (I - rho y s^T) + rho s s^T with rho = 1 / y.s
        equals H + s w^T + w s^T, w = rho (1 + rho y.Hy) s / 2 - rho Hy.
        While H is pairs, (s, w) is one more.  On the blocks, each block's
        share of the rank-2 term is one ``einsum`` of [s w] by [w s] into
        ``scratch`` and one add, so entry (i, j) gains s_i w_j + w_i s_j and
        its mirror s_j w_i + w_j s_i, equal bit for bit.  Each updated block
        is multiplied by g while it is in cache, so the update and the next
        H g take one pass over H, after the one that reads H y.
        """
        if self.scale is not None and self.k == self.capacity:
            self._materialize()
        hy = self.times(y)
        rho = 1.0 / _dot(y, s)
        w = (0.5 * rho * (1.0 + rho * _dot(y, hy))) * s - rho * hy
        if self.scale is not None:
            if self.pairs is None:
                self.pairs = np.empty((self.n, self.capacity, 2))
                self.blocks = self.scratch = None
            self.pairs[:, self.k, 0], self.pairs[:, self.k, 1] = s, w
            self.k += 1
            return self.times(g)
        if self.scratch is None:
            self.scratch = np.empty(max(blk.size for blk in self.blocks))
        left, right = np.stack([s, w], axis=1), np.stack([w, s])
        hg = np.empty_like(g)
        for blk in self.blocks:
            rows, hi = blk.shape
            lo = hi - rows
            term = self.scratch[: blk.size].reshape(rows, hi)
            blk += np.einsum("ik,kj->ij", left[lo:hi], right[:, :hi], out=term, optimize=False)
            _block_product(blk, g, hg)
        return hg

    def _materialize(self) -> None:
        """Write scale I plus the held pairs into the blocks and drop the
        pairs.  Each block is one ``einsum`` over the pairs, of its rows of
        [w_i s_i] by [s_i w_i], with the pairs of a row contiguous, as the
        inner loop.  Entry and mirror of a diagonal block sum the same terms,
        pairwise swapped; einsum's inner loop need not add them in the same
        order, so the block's lower triangle is copied onto its upper."""
        n = self.n
        if self.blocks is None:
            rows = min(n, max(1, _BLOCK_BYTES // (8 * n)))
            self.blocks = [np.empty((min(n, lo + rows) - lo, min(n, lo + rows))) for lo in range(0, n, rows)]
        held = self.pairs[:, : self.k] if self.k else np.zeros((n, 0, 2))
        for blk in self.blocks:
            rows, hi = blk.shape
            lo = hi - rows
            np.einsum("ika,jka->ij", held[lo:hi, :, ::-1].copy(), held[:hi], out=blk, optimize=False)
            blk.reshape(-1)[lo :: hi + 1] += self.scale
            diag, upper = blk[:, lo:], np.triu_indices(rows, 1)
            diag[upper] = diag.T[upper]
        self.pairs, self.scale = None, None


def _block_product(blk: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    """The part of H v that the block [lo, hi) of an :class:`_InverseHessian`
    holds: sets ``out[lo:hi]`` to its rows times v[:hi] and adds the
    transpose of its columns [0, lo) times v[lo:hi] into ``out[:lo]``."""
    rows, hi = blk.shape
    lo = hi - rows
    np.einsum("ij,j->i", blk, v[:hi], out=out[lo:hi], optimize=False)
    if lo:
        out[:lo] += np.einsum("i,ij->j", v[lo:hi], blk[:, :lo], optimize=False)


# -- full solve ---------------------------------------------------------------


def solve(
    input: EquilibriumInput,
    config: SolverConfig,
    on_checkpoint: Optional[Callable] = None,
) -> Solution:
    """Initialize, run both stages and attach residual diagnostics.

    ``on_checkpoint(iteration, vector)`` is invoked at every multiple of
    ``checkpoint_every`` (never when it is 0); the final state is the
    returned ``Solution``, and checkpoint serialization lives with the CLI
    layer.
    """
    config = config.validated()
    input.validate()
    grid = CollocationGrid.build(
        config.n_rho, input.M, input.N, input.n_fp, config.n_theta, config.n_zeta
    )
    assembler = LossAssembler(input, config.width, grid)
    params0 = nf.init_params(
        (assembler.modes_cos, assembler.modes_sin), config.width, config.seed, input
    )
    x = nf.params_to_vector(params0)

    history: list[LossRecord] = []
    last = x  # the last recorded iterate, which a divergence reports
    t0 = time.perf_counter()
    offset = 0

    def recorder(stage):
        def record(it, vec, val):
            nonlocal last
            last = vec
            history.append(
                LossRecord(offset + it, stage, float(val), time.perf_counter() - t0)
            )
            if (
                on_checkpoint is not None
                and config.checkpoint_every > 0
                and (offset + it) % config.checkpoint_every == 0
            ):
                on_checkpoint(offset + it, vec)

        return record

    try:
        history.append(
            LossRecord(0, "init", assembler.loss_value(x), time.perf_counter() - t0)
        )
    except (NonFiniteLossError, JacobianSignError) as exc:
        return _finalize(assembler, input, config, x, history, "diverged",
                         f"initial point is invalid: {exc}", exc)

    stop_check = None
    if config.target_fvol is not None:
        bound = config.target_fvol * (1.0 + config.target_rel_tol)

        def stop_check(it, vec):
            if it % _TARGET_CHECK_EVERY != 0:
                return False
            return assembler.f_vol_norm(vec) <= bound

        if assembler.f_vol_norm(x) <= bound:
            return _finalize(assembler, input, config, x, history, "target-reached")

    try:
        x, _, status = adamw_stage(
            x,
            assembler.value_and_grad,
            config.adamw,
            on_iteration=recorder("adamw"),
            stop_check=stop_check,
        )
        offset += config.adamw.max_iter
        if status == "target-reached":
            reason = status
        else:
            x, _, reason = bfgs_stage(
                x,
                assembler.value_and_grad,
                config.bfgs,
                on_iteration=recorder("bfgs"),
                stop_check=stop_check,
            )
    except Diverged as exc:
        return _finalize(assembler, input, config, last, history, "diverged",
                         str(exc), exc.__cause__)

    return _finalize(assembler, input, config, x, history, reason)


def _finalize(assembler, input, config, x, history, reason, detail="", error=None):
    try:
        metrics = assembler.metrics(x)
        fvol = metrics["f_vol_norm"]
        profile = metrics["f_norm_profile"]
    except (JacobianSignError, NonFiniteLossError):
        fvol = float("nan")
        profile = np.full(assembler.grid.n_rho, np.nan)
    params = nf.vector_to_params(np.asarray(x, dtype=float), assembler.template)
    node = getattr(error, "node", None)
    if node is not None:
        grid = assembler.grid
        node = [float(grid.rho[node[0]]), float(grid.theta[node[1]]), float(grid.zeta[node[2]])]
    return Solution(
        params=params,
        input=input,
        config=config,
        history=history,
        f_vol_norm=fvol,
        f_norm_profile=np.asarray(profile),
        rho=assembler.grid.rho.copy(),
        termination_reason=reason,
        termination_detail=detail,
        termination_error=None if error is None else type(error).__name__,
        termination_node=node,
    )
