"""Exact derivatives for the equilibrium solver.

Two mechanisms live here:

* :class:`Jet2` -- truncated second-order Taylor jets with respect to one
  scalar seed variable (the radial coordinate).  The radial profiles are
  scalar-input functions, so forward propagation of ``(value, d1, d2)``
  through the networks is cheap and exact.

* :class:`Var` -- reverse-mode accumulation over the evaluation trace, used
  to obtain the gradient of the scalar loss with respect to every network
  parameter.  The loss tapes the networks and the force kernel as one
  :func:`elemental` node each, with hand-written adjoints; the other
  operators, and :class:`Jet2` on Vars, tape their test references.

All array work is plain numpy.  Contractions go through ``np.einsum`` with
``optimize=False`` (no BLAS), and the final loss reduction uses exactly
rounded summation, so results are bit-reproducible regardless of worker
thread count and of collocation-node ordering.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Var",
    "Jet2",
    "NonFiniteLossError",
    "loss_gradient",
    "grad_check",
    "tanh",
    "sqrt",
    "matmul",
    "einsum",
    "elemental",
    "linear",
    "stack",
    "transpose",
    "reshape",
    "mean_all",
    "sum_all",
    "value_of",
]


class NonFiniteLossError(RuntimeError):
    """Loss evaluated to NaN/inf, typically from overlapping flux surfaces."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape``, undoing numpy broadcasting."""
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _exact_sum(a: np.ndarray):
    """Exactly rounded sum for float64; plain sum otherwise.

    math.fsum is correctly rounded and therefore invariant under any
    permutation of the summands.
    """
    if a.dtype == np.float64:
        return np.float64(math.fsum(a.ravel().tolist()))
    return a.sum(dtype=a.dtype)


class Var:
    """One node of the reverse-mode evaluation trace.

    Holds the forward value, the parent nodes and a vector-Jacobian-product
    closure.  Gradients are accumulated by :meth:`backward` in reverse
    topological (construction) order.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")

    # defer mixed ndarray-Var arithmetic to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape}, leaf={self._vjp is None})"

    # -- elementwise arithmetic (broadcasting, constants allowed) ---------

    def __add__(self, other):
        if isinstance(other, Var):
            out = Var(self.value + other.value, (self, other))
            out._vjp = lambda g: (
                _unbroadcast(g, self.shape),
                _unbroadcast(g, other.shape),
            )
            return out
        c = np.asarray(other)
        out = Var(self.value + c, (self,))
        out._vjp = lambda g: (_unbroadcast(g, self.shape),)
        return out

    def __neg__(self):
        out = Var(-self.value, (self,))
        out._vjp = lambda g: (-g,)
        return out

    def __sub__(self, other):
        if isinstance(other, Var):
            out = Var(self.value - other.value, (self, other))
            out._vjp = lambda g: (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))
            return out
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        out = Var(np.asarray(other) - self.value, (self,))
        out._vjp = lambda g: (_unbroadcast(-g, self.shape),)
        return out

    def __mul__(self, other):
        if isinstance(other, Var):
            av, bv = self.value, other.value
            out = Var(av * bv, (self, other))
            out._vjp = lambda g: (
                _unbroadcast(g * bv, self.shape),
                _unbroadcast(g * av, other.shape),
            )
            return out
        c = np.asarray(other)
        out = Var(self.value * c, (self,))
        out._vjp = lambda g: (_unbroadcast(g * c, self.shape),)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            av, bv = self.value, other.value
            val = av / bv
            out = Var(val, (self, other))
            out._vjp = lambda g: (
                _unbroadcast(g / bv, self.shape),
                _unbroadcast(-g * val / bv, other.shape),
            )
            return out
        c = np.asarray(other)
        out = Var(self.value / c, (self,))
        out._vjp = lambda g: (_unbroadcast(g / c, self.shape),)
        return out

    def __rtruediv__(self, other):
        c = np.asarray(other)
        val = c / self.value
        out = Var(val, (self,))
        sv = self.value
        out._vjp = lambda g: (_unbroadcast(-g * val / sv, self.shape),)
        return out

    def __pow__(self, p):
        if not np.isscalar(p):
            raise TypeError("Var ** expects a scalar exponent")
        sv = self.value
        out = Var(sv**p, (self,))
        out._vjp = lambda g: (g * (p * sv ** (p - 1)),)
        return out

    def __abs__(self):
        sv = self.value
        out = Var(np.abs(sv), (self,))
        out._vjp = lambda g: (g * np.sign(sv),)
        return out

    # -- structural ops ----------------------------------------------------

    def __getitem__(self, idx):
        out = Var(self.value[idx], (self,))
        out._vjp = lambda g: (_Slice(idx, g),)
        return out

    @property
    def T(self):
        out = Var(self.value.T, (self,))
        out._vjp = lambda g: (np.asarray(g).T,)
        return out

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out = Var(self.value.reshape(shape), (self,))
        out._vjp = lambda g: (np.asarray(g).reshape(old),)
        return out

    # -- reverse pass --------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this (scalar) node into the trace.

        A node's first gradient is stored as is (other products may share
        it), the second is added out of place and later ones in place;
        slice gradients (:class:`_Slice`) go in place into a zero buffer.
        """
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        owned = set()
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(node.grad)):
                if type(pg) is _Slice:
                    if id(parent) not in owned:
                        zero = np.zeros(parent.shape, dtype=parent.value.dtype)
                        parent.grad = zero if parent.grad is None else zero + parent.grad
                        owned.add(id(parent))
                    pg.add_to(parent.grad)
                elif parent.grad is None:
                    parent.grad = pg
                elif id(parent) in owned:
                    parent.grad += pg
                else:
                    parent.grad = parent.grad + pg
                    owned.add(id(parent))


class _Slice(NamedTuple):
    """Gradient of ``x[idx]``: ``g`` at ``idx`` and zero elsewhere."""

    idx: object
    g: np.ndarray

    def add_to(self, full: np.ndarray) -> None:
        idx = self.idx if isinstance(self.idx, tuple) else (self.idx,)
        if len(idx) == 1 and np.ndim(idx[0]) == 1 and np.asarray(idx[0]).dtype.kind in "iu":
            # rows of the leading axis, maybe repeated: one slab add per row
            for j, row in enumerate(idx[0]):
                full[row] += self.g[j]
        elif any(isinstance(i, (np.ndarray, list)) for i in idx):  # may repeat an index
            np.add.at(full, self.idx, self.g)
        else:
            full[self.idx] += self.g


def _toposort(root: Var) -> list:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# -- generic ops: work on Var and plain ndarrays ----------------------------


def value_of(x):
    """Plain numpy value of ``x`` whether it is a Var or an array."""
    return x.value if isinstance(x, Var) else np.asarray(x)


def tanh(x):
    if isinstance(x, Var):
        y = np.tanh(x.value)
        out = Var(y, (x,))
        out._vjp = lambda g: (g * (1.0 - y * y),)
        return out
    return np.tanh(x)


def sqrt(x):
    """Square root; at 0 the reverse pass uses the subgradient 0, not 1/0."""
    if isinstance(x, Var):
        y = np.sqrt(x.value)
        out = Var(y, (x,))
        slope = np.divide(0.5, y, out=np.zeros_like(y), where=y != 0.0)
        out._vjp = lambda g: (g * slope,)
        return out
    return np.sqrt(x)


def matmul(a, b):
    """2D matrix product, BLAS-free, differentiable in both operands."""
    return einsum("ij,jk->ik", a, b)


@functools.lru_cache(maxsize=None)
def _einsum_vjp_specs(subscripts: str) -> tuple:
    ins, out = subscripts.replace(" ", "").split("->")
    ia, ib = ins.split(",")
    for own, other in ((ia, ib), (ib, ia)):
        if len(set(own)) != len(own) or not set(own) <= set(other + out):
            raise ValueError(f"einsum {subscripts!r}: unsupported index pattern")
    return f"{out},{ib}->{ia}", f"{out},{ia}->{ib}"


def einsum(subscripts: str, a, b):
    """Two-operand ``np.einsum`` (explicit ``->`` form) differentiable in
    every :class:`Var` operand; ``optimize=False`` never calls BLAS, so the
    summation order is fixed for any thread count.  Each index of an operand
    must appear in the other or in the output, without repeats.
    """
    parents = tuple(x for x in (a, b) if isinstance(x, Var))
    if not parents:
        return np.einsum(subscripts, a, b, optimize=False)
    spec_a, spec_b = _einsum_vjp_specs(subscripts)
    av, bv = value_of(a), value_of(b)
    out = Var(np.einsum(subscripts, av, bv, optimize=False), parents)
    out._vjp = lambda g: tuple(
        np.einsum(spec, g, other, optimize=False)
        for x, spec, other in ((a, spec_a, bv), (b, spec_b, av)) if isinstance(x, Var)
    )
    return out


def elemental(x, forward: Callable):
    """A function of ``x`` as one tape node.  ``forward`` takes the plain
    numpy value of ``x`` and returns ``(y, vjp)``: the value and the map of
    the reverse pass from the gradient of ``y`` to that of ``x``, which may
    close over the forward's intermediates.  On a plain array the result is
    ``y``."""
    if not isinstance(x, Var):
        return forward(np.asarray(x))[0]
    y, vjp = forward(x.value)
    return Var(y, (x,), lambda g: (vjp(g),))


def linear(x, forward: Callable, adjoint: Callable):
    """``forward(x)`` as one tape node, for a linear map ``forward`` on numpy
    arrays whose transpose is ``adjoint`` (the map of the reverse pass)."""
    return elemental(x, lambda v: (forward(v), adjoint))


def stack(xs, axis: int = 0):
    """``np.stack`` of Vars and plain arrays of one shape along a new axis."""
    val = np.stack([value_of(x) for x in xs], axis=axis)
    parents = tuple(x for x in xs if isinstance(x, Var))
    if not parents:
        return val
    out = Var(val, parents)
    lead = (slice(None),) * (axis % val.ndim)
    slots = [i for i, x in enumerate(xs) if isinstance(x, Var)]
    out._vjp = lambda g: tuple(g[lead + (i,)] for i in slots)
    return out


def transpose(x):
    return x.T if isinstance(x, Var) else np.asarray(x).T


def reshape(x, shape):
    if isinstance(x, Var):
        return x.reshape(shape)
    return np.asarray(x).reshape(shape)


def sum_all(x):
    if isinstance(x, Var):
        val = _exact_sum(x.value)
        out = Var(val, (x,))
        shape, dtype = x.shape, x.value.dtype
        out._vjp = lambda g: (np.full(shape, g, dtype=dtype),)
        return out
    return _exact_sum(np.asarray(x))


def mean_all(x):
    n = value_of(x).size
    return sum_all(x) / n


# -- second-order forward jets ----------------------------------------------


class Jet2:
    """Value and first/second derivative with respect to one seed scalar.

    Components may be floats, numpy arrays or :class:`Var` nodes (a taped
    reference of the networks).  The networks need only the activation, ``(tanh u).d2 = sech^2 u (u.d2 -
    2 tanh u u.d1^2)``; their affine layers act on the components directly.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1, d2):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet2({self.value!r}, {self.d1!r}, {self.d2!r})"

    def tanh(self):
        t = tanh(self.value)
        sech2 = 1.0 - t * t
        d1 = sech2 * self.d1
        return Jet2(t, d1, sech2 * self.d2 - 2.0 * ((t * self.d1) * d1))


# -- gradient of a scalar loss over a flat parameter vector ------------------


def loss_gradient(loss: Callable, params: np.ndarray):
    """Evaluate ``loss`` at ``params`` and return ``(value, gradient)``.

    ``loss`` must accept a 1D Var and combine it through Var/Jet2 arithmetic
    into a scalar Var.  The gradient comes from one reverse sweep over the
    evaluation trace and is deterministic: identical params give bit-identical
    gradients.
    """
    leaf = Var(np.asarray(params, dtype=float))
    out = loss(leaf)
    if not isinstance(out, Var):
        raise TypeError("loss must return a Var scalar")
    val = float(out.value)
    if not np.isfinite(val):
        raise NonFiniteLossError(f"loss evaluated to {val}")
    out.backward()
    grad = leaf.grad
    if grad is None:
        grad = np.zeros_like(leaf.value)
    grad = np.asarray(grad, dtype=float)
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise NonFiniteLossError(f"gradient has {bad.size} non-finite entries, first at index {bad[0]}")
    return val, grad


def grad_check(
    loss: Callable,
    params: np.ndarray,
    step: float = 1e-4,
    samples: int = 50,
    seed: int = 0,
    fd_loss: Callable | None = None,
) -> float:
    """Worst relative error of analytic vs central-difference gradients.

    A random subset of parameter entries is probed.  The finite-difference
    side may be supplied separately (``fd_loss``), e.g. an extended-precision
    evaluation of the same loss; float64 rounding in the loss value floors
    central differences near 1e-13 absolute, too coarse to certify small
    gradient entries.  The step-halving (Richardson) extrapolation
    ``(4 D(h/2) - D(h)) / 3`` removes the leading truncation term.

    Relative errors use ``max(|analytic|, |fd|, 1e-8)`` denominators.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=float)
    _, analytic = loss_gradient(loss, params)

    if fd_loss is None:
        def fd_loss(v, _loss=loss):
            out = _loss(Var(np.asarray(v, dtype=float)))
            return float(out.value) if isinstance(out, Var) else float(out)

        work = params.copy()
    else:
        # caller-supplied evaluator, typically extended precision
        work = params.astype(np.longdouble)

    rng = np.random.default_rng(seed)
    n = params.size
    k = min(samples, n)
    idx = rng.choice(n, size=k, replace=False)

    def central(i: int, h: float):
        xp = work.copy()
        xm = work.copy()
        xp[i] += h
        xm[i] -= h
        return (fd_loss(xp) - fd_loss(xm)) / (2.0 * h)

    worst = 0.0
    for i in idx:
        fd = (4.0 * central(int(i), step / 2.0) - central(int(i), step)) / 3.0
        a = float(analytic[i])
        err = abs(a - float(fd)) / max(abs(a), abs(float(fd)), 1e-8)
        worst = max(worst, err)
    return worst
