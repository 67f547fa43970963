"""Jet algebra, reverse-mode correctness and the gradient check harness."""

import numpy as np
import pytest
import sympy

from equinn import autodiff as ad
from equinn.autodiff import Jet2, Var, grad_check, loss_gradient


def fd_gradient(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


# -- jets -----------------------------------------------------------------


def test_jet_tanh_at_zero():
    j = Jet2(0.0, 1.0, 0.0).tanh()
    assert (j.value, j.d1, j.d2) == (0.0, 1.0, 0.0)


def test_jet_input_map_at_half():
    from equinn.cli_io import parse_case
    from equinn.netfield import ProfileConstants
    from equinn.spectral import mode_set_pair

    input = parse_case("dshape")[0]
    f = ProfileConstants.build(input, *mode_set_pair(input.M, input.N, input.n_fp), [0.5]).f
    assert np.isclose(f.value, -0.5)
    assert np.isclose(f.d1, 2.0)
    assert np.isclose(f.d2, 4.0)


@pytest.mark.parametrize("x0", [0.3, 0.75, 1.7])
def test_jet_composites_match_symbolic(x0):
    """tanh layers on the input map, composed as the networks compose them."""
    x = sympy.Symbol("x")
    a, b = 0.8, -0.3
    expr = sympy.tanh(2 * x**2 - 1)
    jet = Jet2(2.0 * x0 * x0 - 1.0, 4.0 * x0, 4.0).tanh()
    for _ in range(3):
        for order, got in enumerate((jet.value, jet.d1, jet.d2)):
            want = float(sympy.diff(expr, x, order).subs(x, x0))
            assert np.isclose(float(got), want, rtol=1e-12, atol=1e-12)
        # the next layer acts affinely on the components, then applies tanh
        expr = sympy.tanh(a * expr + b)
        jet = Jet2(a * jet.value + b, a * jet.d1, a * jet.d2).tanh()


# -- reverse mode: per-op gradients against finite differences -------------


OPS = {
    "add_broadcast": lambda a, b: a + b[0:1, :],
    "sub": lambda a, b: a - b,
    "mul_broadcast": lambda a, b: a * b[:, 0:1],
    "div": lambda a, b: a / (b + 3.0),
    "rdiv": lambda a, b: 2.0 / (a + 3.0) + b,
    "pow": lambda a, b: (a + 2.0) ** 3 + b,
    "neg_abs": lambda a, b: abs(-a) + b,
    "reflected_array": lambda a, b: np.arange(12.0).reshape(3, 4) - a + 1.5 * b,
    "tanh": lambda a, b: np.tanh(a * b),
    "sqrt": lambda a, b: np.sqrt(a * a + b * b + 0.1),
    "matmul": lambda a, b: np.einsum("ij,kj->ik", a, b),
    "slice_reshape": lambda a, b: np.reshape(a[1:3], (8,)) * 2.0 + ad.sum_all(b),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_fd(name):
    op = OPS[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(3, 4))

    def loss_of(vec):
        a = vec[: a0.size]
        b = vec[a0.size :]
        av = np.reshape(a, a0.shape)
        bv = np.reshape(b, b0.shape)
        return ad.mean_all(op(av, bv) * 1.0)

    x0 = np.concatenate([a0.ravel(), b0.ravel()])
    val, grad = loss_gradient(loss_of, x0)
    fd = fd_gradient(lambda v: float(ad.value_of(loss_of(Var(v)))), x0)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9), name


def test_loss_gradient_quadratic_example():
    val, grad = loss_gradient(lambda p: ad.sum_all(p * p), np.array([1.0, 2.0]))
    assert val == 5.0
    assert np.array_equal(grad, np.array([2.0, 4.0]))


def test_loss_gradient_unused_parameter_entry_is_zero():
    def loss(p):
        return ad.sum_all(p[:2] * p[:2])

    _, grad = loss_gradient(loss, np.array([1.0, 2.0, 7.0]))
    assert grad[2] == 0.0


def test_loss_gradient_rejects_nonfinite():
    with np.errstate(divide="ignore"):
        with pytest.raises(ad.NonFiniteLossError):
            loss_gradient(lambda p: ad.sum_all(p / 0.0), np.array([1.0]))


def test_gradient_is_deterministic():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(6, 6))

    def loss(p):
        m = np.reshape(p, (6, 6))
        return ad.mean_all(np.tanh(np.einsum("ij,jk->ik", m, w)) ** 2)

    x = rng.normal(size=36)
    g1 = loss_gradient(loss, x)[1]
    g2 = loss_gradient(loss, x)[1]
    assert np.array_equal(g1, g2)


def test_mean_is_permutation_invariant():
    rng = np.random.default_rng(5)
    x = rng.normal(size=977) * 10.0 ** rng.integers(-6, 6, size=977)
    perm = rng.permutation(977)
    assert ad.mean_all(x) == ad.mean_all(x[perm])


# -- grad_check ------------------------------------------------------------


def test_grad_check_quadratic_is_tiny():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(8, 8))
    q = q @ q.T + 8 * np.eye(8)

    def loss(p):
        return ad.sum_all(p * np.einsum("ij,jk->ik", np.reshape(p, (1, 8)), q)[0]) * 0.5

    err = grad_check(loss, rng.normal(size=8), step=1e-4, samples=8)
    assert err <= 1e-10


def test_grad_check_constant_loss():
    err = grad_check(lambda p: ad.sum_all(p * 0.0), np.ones(4), step=1e-4, samples=4)
    assert err == 0.0


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        grad_check(lambda p: ad.sum_all(p), np.ones(3), step=0.0)


# -- field-axis primitives ------------------------------------------------------------

NEW_OPS = {
    "einsum_contract_columns": lambda a, b: np.einsum("ij,kj->ik", a, b * b),
    "einsum_contract_rows": lambda a, b: np.einsum("ij,ik->jk", a, np.tanh(b)),
    "einsum_outer": lambda a, b: np.einsum("ij,kj->ikj", a, b),
    "einsum_constant": lambda a, b: np.einsum("ij,jk->ik", a, np.arange(12.0).reshape(4, 3)) + b[:, :3],
    "stack_mixed": lambda a, b: np.stack([a, np.ones((3, 4)), a * b], axis=1),
    "permuted_rows": lambda a, b: a[np.ix_([2, 0, 1], [3, 1, 2, 0])] * b,
    "repeated_rows": lambda a, b: a[np.array([0, 0, 2])] * b,
}


@pytest.mark.parametrize("name", sorted(NEW_OPS))
def test_field_axis_op_gradients_match_fd(name):
    op = NEW_OPS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(3, 4))

    def loss_of(vec):
        a = np.reshape(vec[: a0.size], a0.shape)
        b = np.reshape(vec[a0.size :], b0.shape)
        out = op(a, b)
        return ad.mean_all(out * out)

    x0 = np.concatenate([a0.ravel(), b0.ravel()])
    _, grad = loss_gradient(loss_of, x0)
    fd = fd_gradient(lambda v: float(ad.value_of(loss_of(Var(v)))), x0)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9), name


def test_einsum_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3, 5, 7))
    b = rng.normal(size=(3, 5, 7))
    for spec in ("ijra,jra->ira", "ijra,kra->ijkra", "ijra,ira->jra", "ijra,jra->i"):
        want = np.einsum(spec, a, b)
        for got in (np.einsum(spec, Var(a), b), np.einsum(spec, a, Var(b)), np.einsum(spec, Var(a), Var(b))):
            assert np.array_equal(got.value, want), spec
    with pytest.raises(ValueError):
        np.einsum("ii,i->i", Var(np.eye(2)), np.ones(2))


def test_sqrt_gradient_is_zero_at_zero():
    val, grad = loss_gradient(lambda p: ad.sum_all(np.sqrt(p * p)), np.array([0.0, -2.0]))
    assert val == 2.0
    assert np.array_equal(grad, [0.0, -1.0])


def test_loss_gradient_rejects_nonfinite_gradient():
    # finite value 0, but the power rule evaluates 0.5 * 0 ** -0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ad.NonFiniteLossError, match="gradient"):
            loss_gradient(lambda p: ad.sum_all((p * p) ** 0.5), np.array([0.0, 1.0]))


# -- numpy calls a Var does not record ---------------------------------------------


def test_power_with_a_var_exponent_raises():
    # a rule that treated the base as the only operand would give d/dp sum 2^p
    # = [1, 4] at p = (1, 2), against the true 2^p ln 2 = [1.386, 2.773]
    with pytest.raises(TypeError):
        loss_gradient(lambda p: ad.sum_all(2.0**p), np.array([1.0, 2.0]))
    with pytest.raises(TypeError):
        Var(np.ones(2)) ** Var(np.ones(2))
    with pytest.raises(TypeError):
        Var(np.ones(2)) ** np.ones(2)


@pytest.mark.parametrize("call", [
    lambda v: np.cos(v),
    lambda v: np.concatenate([v, np.ones(2)]),
    lambda v: np.add(v, 1.0, out=np.empty(2)),
    lambda v: np.add.reduce(v),
    lambda v: v @ v,
    lambda v: np.einsum("i,i->", v, np.ones(2), optimize=True),
    lambda v: np.einsum("i->", v),
    lambda v: v < 1.0,
], ids=["cos", "concatenate", "out", "ufunc_method", "matmul", "einsum_optimize", "einsum_one_operand",
        "compare"])
def test_unrecorded_numpy_calls_raise(call):
    with pytest.raises(TypeError):
        call(Var(np.ones(2)))
