"""Exact derivatives for the equilibrium solver.

Two mechanisms live here:

* :class:`Jet2` -- truncated second-order Taylor jets ``(value, d1, d2)``
  with respect to one scalar seed variable (the radial coordinate).  It
  carries the input jets of the networks (``ProfileConstants.f`` and the
  axis jet of ``init_params``); the networks themselves propagate the jets
  on stacked arrays (``netfield._network_jets``, whose activation
  ``netfield._tanh_jet`` rounds as :meth:`Jet2.tanh`).  :meth:`Jet2.tanh`
  is the reference implementation, which the tests tape through.

* :class:`Var` -- reverse-mode accumulation over the evaluation trace, used
  to obtain the gradient of the scalar loss with respect to every network
  parameter.  numpy records a Var's calls through ``__array_ufunc__`` and
  ``__array_function__`` (NEP 13 and NEP 18): the ufuncs add, subtract,
  multiply, true_divide, negative, absolute, power (constant scalar
  exponent), sqrt and tanh, the operators that call them, indexing, and
  ``np.einsum`` (two operands, explicit ``->``, ``optimize=False``),
  ``np.stack`` and ``np.reshape``.  Any other numpy call on a Var, any
  ufunc method and any ``out=`` or ``where=`` raises ``TypeError``.  The
  loss tapes the networks and the force kernel as one :func:`elemental`
  node each, with hand-written adjoints; the stage functions, called on a
  Var, tape their test references node by node.

All array work is plain numpy.  Contractions go through ``np.einsum`` with
``optimize=False`` (no BLAS), and the final loss reduction uses exactly
rounded summation, so results are bit-reproducible regardless of worker
thread count and of collocation-node ordering.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

__all__ = [
    "Var",
    "Jet2",
    "NonFiniteLossError",
    "loss_gradient",
    "grad_check",
    "elemental",
    "linear",
    "mean_all",
    "sum_all",
    "value_of",
]


class NonFiniteLossError(RuntimeError):
    """Loss evaluated to NaN/inf, typically from overlapping flux surfaces.
    ``node`` is the (rho, theta, zeta) index of the first non-finite node,
    where the caller knows it."""

    def __init__(self, message: str, node: Optional[tuple] = None):
        super().__init__(message)
        self.node = node


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


class Var(NDArrayOperatorsMixin):
    """One node of the reverse-mode evaluation trace.

    Holds the forward value, the parent nodes and a vector-Jacobian-product
    closure.  numpy records a node for every call of the ufuncs in
    ``_UFUNC_RULES`` and the functions in ``_FUNCTION_RULES`` on a Var, the
    operators included; any other numpy call on a Var raises ``TypeError``.
    Gradients are accumulated by :meth:`backward` in reverse topological
    (construction) order.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp")

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

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rules = _UFUNC_RULES.get(ufunc)
        if method != "__call__" or kwargs or rules is None:
            raise TypeError(f"a Var records no np.{ufunc.__name__}.{method} with arguments {sorted(kwargs)}")
        if ufunc is np.power and not np.isscalar(inputs[1]):
            raise TypeError("a Var records np.power only with a constant scalar exponent")
        values = [x.value if isinstance(x, Var) else x for x in inputs]
        y = ufunc(*values)
        slots = [i for i, x in enumerate(inputs) if isinstance(x, Var)]
        return Var(y, tuple(inputs[i] for i in slots), lambda g: tuple(
            _unbroadcast(rules[i](g, values, y), inputs[i].shape) for i in slots
        ))

    def __array_function__(self, func, types, args, kwargs):
        rule = _FUNCTION_RULES.get(func)
        if rule is None:
            raise TypeError(f"a Var records no np.{func.__name__}")
        return rule(*args, **kwargs)

    def __getitem__(self, idx):
        def vjp(g):
            full = np.zeros(self.shape, dtype=self.value.dtype)
            np.add.at(full, idx, g)
            return (full,)

        return Var(self.value[idx], (self,), vjp)

    def backward(self):
        """Accumulate gradients of this (scalar) node into the trace; a node's
        gradients are summed out of place, in reverse tape order."""
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(node.grad)):
                parent.grad = pg if parent.grad is None else parent.grad + pg


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


# -- the numpy calls a Var records ------------------------------------------


def value_of(x):
    """Plain numpy value of ``x`` whether it is a Var or an array."""
    return x.value if isinstance(x, Var) else np.asarray(x)


def _sqrt_slope(y):
    """d sqrt(x) / dx = 0.5 / y, and the subgradient 0 where y = 0."""
    return np.divide(0.5, y, out=np.zeros_like(y), where=y != 0.0)


# per ufunc and operand: the gradient of that operand (before unbroadcasting)
# from the output's gradient g, the operand values x and the output y
_UFUNC_RULES = {
    np.add: (lambda g, x, y: g, lambda g, x, y: g),
    np.subtract: (lambda g, x, y: g, lambda g, x, y: -g),
    np.multiply: (lambda g, x, y: g * x[1], lambda g, x, y: g * x[0]),
    np.true_divide: (lambda g, x, y: g / x[1], lambda g, x, y: -g * y / x[1]),
    np.negative: (lambda g, x, y: -g,),
    np.absolute: (lambda g, x, y: g * np.sign(x[0]),),
    np.power: (lambda g, x, y: g * (x[1] * x[0] ** (x[1] - 1)),),
    np.sqrt: (lambda g, x, y: g * _sqrt_slope(y),),
    np.tanh: (lambda g, x, y: g * (1.0 - y * y),),
}


@functools.lru_cache(maxsize=None)
def _einsum_vjp_specs(subscripts: str) -> tuple:
    ins, out = subscripts.replace(" ", "").split("->")
    ia, ib = ins.split(",")
    for own, other in ((ia, ib), (ib, ia)):
        if len(set(own)) != len(own) or not set(own) <= set(other + out):
            raise ValueError(f"einsum {subscripts!r}: unsupported index pattern")
    return f"{out},{ib}->{ia}", f"{out},{ia}->{ib}"


def _einsum(subscripts, *operands, optimize=False):
    """Two operands, explicit ``->`` form, ``optimize=False`` (no BLAS, so the
    summation order is fixed for any thread count).  Each index of an
    operand must appear in the other or in the output, without repeats."""
    if len(operands) != 2 or "->" not in subscripts or optimize is not False:
        raise TypeError("a Var records np.einsum of two operands with '->' and optimize=False only")
    specs = _einsum_vjp_specs(subscripts)
    values = [value_of(x) for x in operands]
    slots = [i for i, x in enumerate(operands) if isinstance(x, Var)]
    return Var(np.einsum(subscripts, *values, optimize=False), tuple(operands[i] for i in slots),
               lambda g: tuple(np.einsum(specs[i], g, values[1 - i], optimize=False) for i in slots))


def _stack(arrays, axis=0):
    val = np.stack([value_of(x) for x in arrays], axis=axis)
    lead = (slice(None),) * (axis % val.ndim)
    slots = [i for i, x in enumerate(arrays) if isinstance(x, Var)]
    return Var(val, tuple(arrays[i] for i in slots), lambda g: tuple(g[lead + (i,)] for i in slots))


def _reshape(a, shape):
    return Var(a.value.reshape(shape), (a,), lambda g: (np.asarray(g).reshape(a.shape),))


_FUNCTION_RULES = {np.einsum: _einsum, np.stack: _stack, np.reshape: _reshape}


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


def sum_all(x):
    if not isinstance(x, Var):
        return _exact_sum(np.asarray(x))
    return Var(_exact_sum(x.value), (x,), lambda g: (np.full(x.shape, g, dtype=x.value.dtype),))


def mean_all(x):
    n = value_of(x).size
    return sum_all(x) / n


# -- second-order forward jets ----------------------------------------------


class Jet2:
    """Value and first/second derivative with respect to one seed scalar.

    Components may be floats, numpy arrays or :class:`Var` nodes (the tests'
    taped reference of the networks).  The networks need only the
    activation, ``(tanh u).d2 = sech^2 u (u.d2 - 2 tanh u u.d1^2)``; their
    affine layers act on the components directly.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1, d2):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    def __repr__(self):
        return f"Jet2({self.value!r}, {self.d1!r}, {self.d2!r})"

    def tanh(self):
        t = np.tanh(self.value)
        sech2 = 1.0 - t * t
        d1 = sech2 * self.d1
        return Jet2(t, d1, sech2 * self.d2 - 2.0 * ((t * self.d1) * d1))


# -- gradient of a scalar loss over a flat parameter vector ------------------


def loss_gradient(loss: Callable, params: np.ndarray):
    """Evaluate ``loss`` at ``params`` and return ``(value, gradient)``.

    ``loss`` must accept a 1D Var and combine it, through the numpy calls a
    Var records and the functions of this module, into a scalar Var.  The
    gradient comes from one reverse sweep over the evaluation trace and is
    deterministic: identical params give bit-identical gradients.
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
