"""Optimizer stages, loss assembly and the end-to-end solve contract."""

import itertools
import tracemalloc

import numpy as np
import pytest

from equinn import cli_io, netfield as nf, solver as sv
from equinn.mhdkernel import CollocationGrid
from equinn.solver import AdamWConfig, BFGSConfig, SolverConfig, adamw_stage, bfgs_stage
from support import ELLIPSE_CASE, full_grid_metrics, taped_profile_jets, textbook_bfgs


def quadratic(center, scale=None):
    center = np.asarray(center, dtype=float)
    scale = np.ones_like(center) if scale is None else np.asarray(scale, dtype=float)

    def value_and_grad(x):
        d = (x - center) * scale
        return float(np.dot(d, d / scale)), 2.0 * d

    return value_and_grad


def small_problem(width=2, M=5, n_rho=6, n_theta=0):
    input, _ = cli_io.parse_case("dshape")
    input = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, input.pressure, input.iota,
        input.psi_b, input.n_fp, M, 0,
    )
    grid = CollocationGrid.build(n_rho, M, 0, 1, n_theta)
    asm = sv.LossAssembler(input, width, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), width, 0, input)
    return input, grid, asm, nf.params_to_vector(params)


# -- stage 1 -----------------------------------------------------------------


def test_adamw_first_step_moves_by_step_size():
    vg = quadratic([0.0])
    x, records, _ = adamw_stage(np.array([1.0]), vg, AdamWConfig(step=0.1, max_iter=1))
    assert abs(x[0] - 0.9) < 1e-7


def test_adamw_zero_gradient_leaves_params_unchanged():
    def vg(x):
        return 0.0, np.zeros_like(x)

    x0 = np.array([1.0, -2.0, 3.0])
    x, _, _ = adamw_stage(x0, vg, AdamWConfig(max_iter=50, weight_decay=0.0))
    assert np.array_equal(x, x0)


def test_adamw_is_deterministic():
    vg = quadratic([1.0, -1.0, 2.0], [1.0, 10.0, 0.1])
    x1, r1, _ = adamw_stage(np.zeros(3), vg, AdamWConfig(max_iter=200))
    x2, r2, _ = adamw_stage(np.zeros(3), vg, AdamWConfig(max_iter=200))
    assert np.array_equal(x1, x2)
    assert r1 == r2


def test_adamw_aborts_on_nonfinite_loss():
    calls = {"n": 0}

    def vg(x):
        calls["n"] += 1
        if calls["n"] > 3:
            raise sv.NonFiniteLossError("boom")
        return float(x[0] ** 2), 2.0 * x

    with pytest.raises(sv.Diverged) as excinfo:
        adamw_stage(np.array([1.0]), vg, AdamWConfig(step=1.0, max_iter=100))
    assert excinfo.value.iteration == 4


# -- stage 2 -----------------------------------------------------------------


def test_bfgs_exact_on_quadratic():
    # the first strong-Wolfe point is not the line minimum, so there is no
    # finite termination in d steps; superlinear convergence still reaches
    # the centre to rounding well within 2 d + 2 iterations
    rng = np.random.default_rng(0)
    d = 5
    a = rng.normal(size=(d, d))
    q = a @ a.T + d * np.eye(d)
    center = rng.normal(size=d)

    def vg(x):
        r = x - center
        return 0.5 * float(r @ q @ r), q @ r

    x, records, status = bfgs_stage(rng.normal(size=d), vg, BFGSConfig(max_iter=2 * d + 2))
    assert np.max(np.abs(x - center)) < 1e-10


def test_bfgs_scalar_parabola():
    x, _, status = bfgs_stage(np.array([0.0]), quadratic([3.0]), BFGSConfig(max_iter=50))
    assert abs(x[0] - 3.0) < 1e-10
    assert status in ("grad-tol", "param-stall", "max-iter")


def test_bfgs_accepted_iterations_never_increase_loss():
    input, grid, asm, x0 = small_problem()
    x1, _, _ = adamw_stage(x0, asm.value_and_grad, AdamWConfig(max_iter=100))
    losses = []
    bfgs_stage(
        x1, asm.value_and_grad, BFGSConfig(max_iter=40),
        on_iteration=lambda it, x, val: losses.append(val),
    )
    assert len(losses) > 3
    assert np.all(np.diff(losses) <= 0.0)


def test_bfgs_skips_nonpositive_curvature_pairs():
    # non-convex scalar function with a descent path through a concave patch
    def vg(x):
        t = x[0]
        return float(t**4 - 2 * t**2), np.array([4 * t**3 - 4 * t])

    x, _, _ = bfgs_stage(np.array([0.4]), vg, BFGSConfig(max_iter=60))
    assert abs(abs(x[0]) - 1.0) < 1e-8


# -- loss --------------------------------------------------------------------


def test_loss_zero_for_zero_flux_and_flat_pressure():
    input, grid, asm, x0 = small_problem()
    degenerate = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, np.array([0.0]), input.iota,
        0.0, input.n_fp, input.M, input.N,
    )
    asm0 = sv.LossAssembler(degenerate, 2, grid)
    assert asm0.loss_value(x0) == 0.0


def test_loss_positive_and_frozen_at_dshape_init():
    input, config = cli_io.parse_case("dshape")
    grid = CollocationGrid.build(50, 11, 0, 1)
    asm = sv.LossAssembler(input, 8, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), 8, 0, input)
    val = asm.loss_value(nf.params_to_vector(params))
    assert val > 0.0 and np.isfinite(val)
    # regression guard, not ground truth
    assert abs(val - 0.5179853741208138) < 1e-12


def test_loss_reduction_is_plain_node_mean():
    from equinn import autodiff as ad

    c = 0.731
    values = np.full((7, 13), c)
    assert ad.mean_all(values) == pytest.approx(c, abs=0)


def test_loss_gradient_matches_across_dtypes():
    input, grid, asm, x0 = small_problem()
    f64 = asm.loss_value(x0)
    f80 = float(asm.loss_value_precise(x0))
    assert abs(f64 - f80) < 1e-13 * abs(f64)


# -- solve -------------------------------------------------------------------


def tiny_config(**overrides):
    base = dict(
        width=2,
        n_rho=6,
        seed=0,
        adamw=AdamWConfig(max_iter=40),
        bfgs=BFGSConfig(max_iter=15),
        checkpoint_every=0,
    )
    base.update(overrides)
    return SolverConfig(**base)


def tiny_input(M=5):
    input, _ = cli_io.parse_case("dshape")
    return nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, input.pressure, input.iota,
        input.psi_b, input.n_fp, M, 0,
    )


def test_solve_runs_and_reports():
    sol = sv.solve(tiny_input(), tiny_config())
    assert sol.termination_reason in ("param-stall", "grad-tol", "target-reached", "max-iter")
    assert len(sol.history) > 0
    assert np.isfinite(sol.f_vol_norm)
    assert sol.f_norm_profile.shape == (6,)
    stages = {r.stage for r in sol.history}
    assert stages == {"init", "adamw", "bfgs"}


def test_solve_is_deterministic():
    a = sv.solve(tiny_input(), tiny_config(seed=3))
    b = sv.solve(tiny_input(), tiny_config(seed=3))
    assert np.array_equal(nf.params_to_vector(a.params), nf.params_to_vector(b.params))
    assert [r.loss for r in a.history] == [r.loss for r in b.history]
    assert a.f_vol_norm == b.f_vol_norm


def test_solve_boundary_modes_never_move():
    from equinn.spectral import synthesize

    input = tiny_input()
    sol = sv.solve(input, tiny_config())
    prof = nf.mode_profiles(sol.params, input, 1.0 - 1e-12)
    theta = np.linspace(0.0, 2 * np.pi, 33)
    r_sol = synthesize(prof.r, theta, np.zeros(1)).value
    r_b = synthesize(
        input.boundary_r, theta, np.zeros(1)
    ).value
    assert np.max(np.abs(r_sol - r_b)) < 1e-9


def test_solve_immediate_target():
    sol = sv.solve(tiny_input(), tiny_config(target_fvol=1e9))
    assert sol.termination_reason == "target-reached"
    # only the initial evaluation is recorded; no optimizer iterations ran
    assert [r.stage for r in sol.history] == ["init"]


def test_solve_target_stops_stage_one():
    config = tiny_config(target_fvol=0.5, adamw=AdamWConfig(max_iter=4000))
    sol = sv.solve(tiny_input(), config)
    assert sol.termination_reason == "target-reached"
    assert sol.f_vol_norm <= 0.5 * (1 + config.target_rel_tol)
    assert len(sol.history) < 4000


def test_solve_divergence_is_reported_not_raised():
    config = tiny_config(adamw=AdamWConfig(step=1e3, max_iter=200))
    sol = sv.solve(tiny_input(), config)
    assert sol.termination_reason == "diverged"
    # the failing iteration is the one after the last recorded one
    failed = sol.history[-1].iteration + 1
    assert sol.termination_detail.startswith(f"stage 1 diverged at iteration {failed}: ")


def test_diverged_solve_keeps_its_last_recorded_state():
    config = tiny_config(adamw=AdamWConfig(step=1e3, max_iter=200))
    sol = sv.solve(tiny_input(), config)
    assert sol.termination_reason == "diverged"
    grid = CollocationGrid.build(config.n_rho, 5, 0, 1)
    asm = sv.LossAssembler(sol.input, config.width, grid)
    assert asm.loss_value(sol.params.vector) == sol.history[-1].loss
    assert np.isfinite(sol.f_vol_norm)


def test_stage_one_jacobian_divergence_names_error_and_node():
    import re

    config = tiny_config(adamw=AdamWConfig(step=1e3, max_iter=200))
    sol = sv.solve(tiny_input(), config)
    assert sol.termination_detail.startswith("stage 1 diverged")
    assert sol.termination_error == "JacobianSignError"
    i, j, k = map(int, re.search(r"at node \((\d+), (\d+), (\d+)\)", sol.termination_detail).groups())
    grid = CollocationGrid.build(config.n_rho, 5, 0, 1)
    assert sol.termination_node == [grid.rho[i], grid.theta[j], grid.zeta[k]]


def test_nonfinite_loss_divergence_names_error_without_node():
    # a pressure gradient near the float64 limit overflows F_s^2 at every node
    input = tiny_input()
    input = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, np.array([1e308, -1e308]), input.iota,
        input.psi_b, input.n_fp, input.M, input.N,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        sol = sv.solve(input, tiny_config())
    assert sol.termination_reason == "diverged"
    assert sol.termination_detail == "initial point is invalid: loss evaluated to inf"
    assert sol.termination_error == "NonFiniteLossError"
    assert sol.termination_node is None


def test_finished_solve_has_no_termination_error():
    sol = sv.solve(tiny_input(), tiny_config(target_fvol=1e9))
    assert (sol.termination_detail, sol.termination_error, sol.termination_node) == ("", None, None)


def test_stage_one_smoothed_loss_descends_on_dshape():
    # windowed means may oscillate at the fixed-step plateau but must stay
    # near the running best and descend overall
    input, grid, asm, x0 = small_problem(width=4, M=5, n_rho=8)
    _, records, _ = adamw_stage(x0, asm.value_and_grad, AdamWConfig(max_iter=300))
    losses = np.array([r[1] for r in records])
    means = losses.reshape(-1, 50).mean(axis=1)
    best = np.minimum.accumulate(means)
    assert np.all(means[1:] <= 1.5 * best[:-1])
    assert means[-1] < 0.5 * means[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(width=0).validated()
    with pytest.raises(ValueError):
        SolverConfig(adamw=AdamWConfig(step=-1.0)).validated()


# -- 3D guards: every zeta-derivative path, at n_fp=2, N=2 -------------------------

def ellipse_problem(n_theta=0, n_zeta=0):
    input, _ = cli_io.parse_case_text(ELLIPSE_CASE, "ellipse")
    grid = CollocationGrid.build(4, input.M, input.N, input.n_fp, n_theta, n_zeta)
    asm = sv.LossAssembler(input, 3, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), 3, 0, input)
    return asm, nf.params_to_vector(params)


def test_gradient_oracle_on_3d_case():
    from equinn.autodiff import grad_check

    asm, x0 = ellipse_problem()
    x = x0 + 0.02 * np.random.default_rng(1).normal(size=x0.size)
    err = grad_check(
        asm._loss_expr, x, step=1e-4, samples=64, seed=0, fd_loss=asm.loss_value_precise
    )
    assert err <= 1e-6


def test_loss_frozen_at_3d_init():
    asm, x0 = ellipse_problem()
    # regression guard, not ground truth
    assert abs(asm.loss_value(x0) - 1.299587595795432) <= 1e-12 * 1.299587595795432
    x = x0 + 0.02 * np.random.default_rng(1).normal(size=x0.size)
    assert abs(asm.loss_value(x) - 2.186466439593671) <= 1e-12 * 2.186466439593671


_DIGEST_3D = """
import hashlib, sys
import numpy as np
from equinn import cli_io, netfield as nf, solver as sv
from equinn.mhdkernel import CollocationGrid
sys.path.insert(0, sys.argv[1])
from support import ELLIPSE_CASE
small, _ = cli_io.parse_case_text(ELLIPSE_CASE, "ellipse")
input = nf.EquilibriumInput(small.boundary_r, small.boundary_z, small.pressure, small.iota,
                            small.psi_b, small.n_fp, 12, 4)
asm = sv.LossAssembler(input, 3, CollocationGrid.build(16, input.M, input.N, input.n_fp))
x0 = nf.params_to_vector(nf.init_params((asm.modes_cos, asm.modes_sin), 3, 0, input))
val, grad = asm.value_and_grad(x0 + 0.02 * np.random.default_rng(1).normal(size=x0.size))
print(hashlib.sha256(np.float64(val).tobytes() + grad.tobytes()).hexdigest())
"""


def test_3d_gradient_is_independent_of_the_thread_count():
    # The small ellipse at the bench's 3D resolution (M = 12, N = 4, 16 x 48 x
    # 16 nodes).  OpenBLAS rounds a GEMM differently with 1 and with 2 or
    # more threads once it is large enough to split: a synthesis adjoint
    # written as one matmul per row, (16 x 400) (400 x 104), changes this
    # digest; at the small ellipse's own resolution (M = 5, N = 2) it did not.
    import os
    import subprocess
    import sys
    from pathlib import Path

    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _DIGEST_3D, str(Path(__file__).parent)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_dshape_tape_stays_within_node_budget():
    from equinn.autodiff import Var

    input, config = cli_io.parse_case("dshape")
    grid = CollocationGrid.build(config.n_rho, input.M, input.N, input.n_fp)
    asm = sv.LossAssembler(input, config.width, grid)
    root = asm._loss_expr(Var(nf.params_to_vector(asm.template)))
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert len(seen) <= 11


def test_dshape_gradient_digest_is_frozen():
    # SHA-256 of the gradient and the loss at a seeded perturbed dshape point,
    # -0.0 counted as +0.0: a change that reorders their rounding changes it
    import hashlib

    input, config = cli_io.parse_case("dshape")
    grid = CollocationGrid.build(config.n_rho, input.M, input.N, input.n_fp)
    asm = sv.LossAssembler(input, config.width, grid)
    x = nf.params_to_vector(nf.init_params((asm.modes_cos, asm.modes_sin), config.width, 0, input))
    val, grad = asm.value_and_grad(x + 0.01 * np.random.default_rng(3).normal(size=x.size))
    digest = hashlib.sha256((np.append(grad, val) + 0.0).tobytes()).hexdigest()
    assert digest == "d4e0fb378c198da5a9fe9cd70c18b138fb1cb50bbb2c1b5f961937245117ce41"


# -- the loss on the mirror half of the grid ---------------------------------------------


HALF_GRID_CASES = pytest.mark.parametrize(
    "case, n_theta, n_zeta",
    [("dshape", 0, 0), ("small", 21, 0), ("small", 22, 0),
     ("ellipse", 0, 0), ("ellipse", 21, 7), ("ellipse", 20, 9), ("ellipse", 25, 6)],
)


def half_grid_case(case, n_theta, n_zeta):
    """An assembler and a perturbed initial vector on one of HALF_GRID_CASES."""
    if case == "dshape":
        input, config = cli_io.parse_case("dshape")
        grid = CollocationGrid.build(config.n_rho, input.M, input.N, input.n_fp)
        asm = sv.LossAssembler(input, config.width, grid)
        x = nf.params_to_vector(nf.init_params((asm.modes_cos, asm.modes_sin), config.width, 0, input))
    elif case == "small":
        _, _, asm, x = small_problem(n_theta=n_theta)
    else:
        asm, x = ellipse_problem(n_theta, n_zeta)
    return asm, x + 0.01 * np.random.default_rng(2).normal(size=x.size)


@HALF_GRID_CASES
def test_half_grid_loss_matches_full_grid_mean(case, n_theta, n_zeta):
    from equinn import autodiff as ad

    asm, x = half_grid_case(case, n_theta, n_zeta)
    want, want_grad = ad.loss_gradient(
        lambda v: ad.mean_all(asm.field_state(nf.vector_to_params(v, asm.template)).F_mag), x
    )
    val, grad = asm.value_and_grad(x)
    assert abs(asm.loss_value(x) - want) <= 1e-14 * want
    assert abs(val - want) <= 1e-14 * want
    assert np.max(np.abs(grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))


@HALF_GRID_CASES
def test_half_grid_metrics_match_full_grid_quadrature(case, n_theta, n_zeta):
    asm, x = half_grid_case(case, n_theta, n_zeta)
    want = full_grid_metrics(asm, x)
    got = asm.metrics(x)
    for key in ("f_vol_norm", "normalizer", "loss"):
        assert abs(got[key] - want[key]) <= 1e-14 * abs(want[key]), key
    assert got["f_norm_profile"].shape == (asm.grid.n_rho,)
    assert np.all(np.abs(got["f_norm_profile"] - want["f_norm_profile"]) <= 1e-14 * want["f_norm_profile"])
    assert got["loss"] == asm.loss_value(x)


def node_and_tape_gradients(stack, grid, tables, iota, psi_b, p_prime, dtype=float):
    """F_mag and the jets' gradient at a random cotangent, from the kernel node
    (:func:`mhdkernel.force_magnitude`) and from the tape through the four
    kernel functions on Var jets: ``[(F_mag, grad) of the node, (F_mag,
    grad) of the tape]``."""
    from dataclasses import replace

    from equinn import autodiff as ad, mhdkernel as mk

    out = []
    for kernel in (mk.force_magnitude, lambda *args: mk.field_state(*args).F_mag):
        jets = ad.Var(np.asarray(stack.jets, dtype=dtype))
        f_mag = kernel(replace(stack, jets=jets), grid, tables, iota, psi_b, p_prime)
        cotangent = np.random.default_rng(4).normal(size=f_mag.shape)
        ad.sum_all(f_mag * cotangent).backward()
        out.append((f_mag.value, jets.grad))
    return out


@HALF_GRID_CASES
def test_kernel_node_adjoint_matches_the_tape(case, n_theta, n_zeta):
    asm, x = half_grid_case(case, n_theta, n_zeta)
    args = asm._kernel_args(nf.vector_to_params(x, asm.template), asm.half_grid, asm.half_tables)
    (f_mag, grad), (want_f_mag, want) = node_and_tape_gradients(*args)
    assert np.array_equal(f_mag, want_f_mag)
    assert grad.shape == want.shape == args[0].jets.shape
    assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))


def test_kernel_node_keeps_long_double():
    asm, x = half_grid_case("ellipse", 21, 7)
    args = asm._kernel_args(nf.vector_to_params(x, asm.template), asm.half_grid, asm.half_tables)
    (f_mag, grad), (_, want) = node_and_tape_gradients(*args, dtype=np.longdouble)
    assert f_mag.dtype == grad.dtype == want.dtype == np.longdouble
    assert np.max(np.abs(grad - want)) <= 1e-16 * np.max(np.abs(want))


def network_node_and_tape(asm, x, dtype=float):
    """The composed jets and the vector's gradient at a random cotangent, from
    the network node (:func:`netfield.profile_stack`) and from the networks
    taped op by op (``support.taped_profile_jets``): ``[(jets, grad) of the
    node, (jets, grad) of the tape]``."""
    from equinn import autodiff as ad

    out = []
    for jets_of in (lambda p: nf.profile_stack(p, asm.input, asm.grid.rho, asm.constants).jets,
                    lambda p: taped_profile_jets(p, asm.constants)):
        vec = ad.Var(np.asarray(x, dtype=dtype))
        jets = jets_of(nf.vector_to_params(vec, asm.template))
        cotangent = np.random.default_rng(5).normal(size=jets.shape)
        ad.sum_all(jets * cotangent).backward()
        out.append((jets.value, vec.grad))
    return out


@HALF_GRID_CASES
def test_network_node_adjoint_matches_the_tape(case, n_theta, n_zeta):
    asm, x = half_grid_case(case, n_theta, n_zeta)
    (jets, grad), (want_jets, want) = network_node_and_tape(asm, x)
    assert np.array_equal(jets, want_jets)
    assert grad.shape == want.shape == x.shape
    assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))


def test_network_node_keeps_long_double():
    asm, x = half_grid_case("ellipse", 21, 7)
    (jets, grad), (want_jets, want) = network_node_and_tape(asm, x, dtype=np.longdouble)
    assert jets.dtype == grad.dtype == want.dtype == np.longdouble
    assert np.array_equal(jets, want_jets)
    assert np.max(np.abs(grad - want)) <= 1e-16 * np.max(np.abs(want))


def test_kernel_node_takes_the_subgradient_zero_where_the_force_vanishes():
    # no field (psi_b = 0) and no pressure gradient on the first surface:
    # F_mag is exactly 0 there and mu0 |p'| |grad s| elsewhere
    asm, x = half_grid_case("small", 21, 0)
    stack, grid, tables, iota, _, p_prime = asm._kernel_args(
        nf.vector_to_params(x, asm.template), asm.half_grid, asm.half_tables
    )
    p_prime = np.where(np.arange(grid.n_rho) == 0, 0.0, p_prime)
    (f_mag, grad), (_, want) = node_and_tape_gradients(stack, grid, tables, iota, 0.0, p_prime)
    assert np.all(f_mag[0] == 0.0) and np.all(f_mag[1:] > 0.0)
    assert np.all(np.isfinite(grad))
    assert np.max(np.abs(grad - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_theta, n_zeta", [(20, 8), (21, 7)])
def test_loss_tapes_only_the_rows_theta_up_to_pi(monkeypatch, n_theta, n_zeta):
    from equinn import mhdkernel as mk

    shapes = []
    force = mk.force

    def recording_force(state, p_prime):
        shapes.append(force(state, p_prime).F_mag.shape)
        return state

    asm, x = ellipse_problem(n_theta, n_zeta)
    monkeypatch.setattr(mk, "force", recording_force)
    asm.value_and_grad(x)
    asm.metrics(x)
    asm.field_state(nf.vector_to_params(x, asm.template))
    half = (4, (n_theta // 2 + 1) * n_zeta)
    assert shapes == [half, half, (4, n_theta * n_zeta)]


def test_half_grid_loss_names_the_same_overlapping_node_as_the_full_grid(monkeypatch):
    # once as one block and once as two radial blocks of two surfaces
    from equinn import mhdkernel as mk
    from equinn.mhdkernel import JacobianSignError

    asm, x0 = ellipse_problem()
    for threshold in (mk._MIN_BLOCK_NODES, 1):
        monkeypatch.setattr(mk, "_MIN_BLOCK_NODES", threshold)
        nodes = set()
        for seed in range(4):
            x = x0 + 0.2 * np.random.default_rng(seed).normal(size=x0.size)
            with pytest.raises(JacobianSignError) as full:
                asm.field_state(nf.vector_to_params(x, asm.template))
            for half_grid_eval in (asm.value_and_grad, asm.loss_value, asm.metrics):
                with pytest.raises(JacobianSignError) as half:
                    half_grid_eval(x)
                assert half.value.node == full.value.node
                assert str(half.value) == str(full.value)
            nodes.add(full.value.node)
        # offenders off the first row and zeta plane are covered too
        assert any(i_theta > 0 and i_zeta > 0 for _, i_theta, i_zeta in nodes)
    # and in the second block
    assert any(i_rho >= asm.grid.n_rho // 2 for i_rho, _, _ in nodes)


# -- the kernel node over radial blocks --------------------------------------------------


def _digest(value, grad):
    import hashlib

    return hashlib.sha256(np.float64(value).tobytes() + grad.tobytes()).hexdigest()


@pytest.mark.parametrize("case, n_theta, n_zeta", [("dshape", 0, 0), ("ellipse", 0, 0), ("ellipse", 21, 7)])
def test_two_radial_blocks_round_as_one(monkeypatch, case, n_theta, n_zeta):
    from equinn import mhdkernel as mk

    asm, x = half_grid_case(case, n_theta, n_zeta)
    assert len(mk._radial_blocks(asm.half_grid)) == 1
    got = {}
    for threshold in (mk._MIN_BLOCK_NODES, 1):
        monkeypatch.setattr(mk, "_MIN_BLOCK_NODES", threshold)
        val, grad = asm.value_and_grad(x)
        got[threshold] = (val, _digest(val, grad), asm.loss_value(x), asm.loss_value_precise(x))
    assert len(mk._radial_blocks(asm.half_grid)) == 2
    one, two = got.values()
    assert one == two


def test_radial_blocks_split_the_3d_bench_grid_only():
    from equinn import mhdkernel as mk

    dshape, config = cli_io.parse_case("dshape")
    dshape_half, _ = sv._mirror_half(CollocationGrid.build(config.n_rho, dshape.M, dshape.N, dshape.n_fp))
    ellipse3d_half, _ = sv._mirror_half(CollocationGrid.build(32, 12, 4, 5))
    assert (dshape_half.n_nodes, ellipse3d_half.n_nodes) == (1150, 12800)
    assert mk._radial_blocks(dshape_half) == [slice(0, 50)]
    assert mk._radial_blocks(ellipse3d_half) == [slice(0, 16), slice(16, 32)]


def test_only_the_calling_thread_enters_the_module_stage_functions(monkeypatch):
    # A tracer that patches the module's stage functions keeps one span stack
    # for all threads: the worker's block must not reach it.
    import threading

    from equinn import mhdkernel as mk

    asm, x = ellipse_problem()
    monkeypatch.setattr(mk, "_MIN_BLOCK_NODES", 1)
    threads = []
    for name in ("geometry", "magnetic_field", "current", "force"):
        def recording(*args, _stage=getattr(mk, name), **kwargs):
            threads.append(threading.get_ident())
            return _stage(*args, **kwargs)

        monkeypatch.setattr(mk, name, recording)
    asm.value_and_grad(x)
    asm.metrics(x)
    assert threads == [threading.get_ident()] * 8
    # metrics as four blocks: the calling thread runs two of them; the loss
    # node keeps its two
    monkeypatch.setattr(mk, "_MAX_BLOCK_NODES", 1)
    threads.clear()
    asm.value_and_grad(x)
    asm.metrics(x)
    assert len(mk._radial_blocks(asm.half_grid, mk._MAX_BLOCK_NODES)) == 4
    assert threads == [threading.get_ident()] * 12


class _RecordingWorker:
    """The kernel's worker, keeping every future it hands out."""

    def __init__(self, worker):
        self.worker, self.futures = worker, []

    def submit(self, fn):
        self.futures.append(self.worker.submit(fn))
        return self.futures[-1]


def test_an_error_in_either_block_reaches_the_caller_after_both_finish(monkeypatch):
    import threading
    import time

    from equinn import mhdkernel as mk

    asm, x = ellipse_problem()
    monkeypatch.setattr(mk, "_MIN_BLOCK_NODES", 1)
    worker = _RecordingWorker(mk._worker())
    monkeypatch.setattr(mk, "_WORKER", worker)
    geometry, *rest = mk._BOUND_STAGES

    def failing(*args, **kwargs):
        raise RuntimeError(f"block failed in {threading.current_thread().name}")

    monkeypatch.setattr(mk, "_BOUND_STAGES", (failing, *rest))
    with pytest.raises(RuntimeError, match="block failed in equinn-kernel"):
        asm.value_and_grad(x)
    assert worker.futures and all(f.done() for f in worker.futures)

    # the calling thread's block fails while the worker's is still running
    def slow(*args, **kwargs):
        time.sleep(0.2)
        return geometry(*args, **kwargs)

    monkeypatch.setattr(mk, "_BOUND_STAGES", (slow, *rest))
    monkeypatch.setattr(mk, "geometry", failing)
    worker.futures.clear()
    with pytest.raises(RuntimeError, match="block failed in MainThread"):
        asm.loss_value(x)
    assert worker.futures and all(f.done() for f in worker.futures)


def test_a_second_block_of_the_other_jacobian_sign_names_its_first_node(monkeypatch):
    # each block alone has one sign; the whole half grid does not
    from equinn import mhdkernel as mk
    from equinn.mhdkernel import JacobianSignError

    asm, x = ellipse_problem()
    monkeypatch.setattr(mk, "_MIN_BLOCK_NODES", 1)
    geometry, *rest = mk._BOUND_STAGES

    def flipped(*args, **kwargs):
        st = geometry(*args, **kwargs)
        st.sqrtg = -st.sqrtg
        return st

    monkeypatch.setattr(mk, "_BOUND_STAGES", (flipped, *rest))
    with pytest.raises(JacobianSignError) as err:
        asm.value_and_grad(x)
    assert err.value.node == (asm.grid.n_rho // 2, 0, 0)
    assert str(err.value) == f"Jacobian vanished or changed sign at node {err.value.node}: flux surfaces overlap"


def _metrics_bytes(metrics):
    return [np.asarray(metrics[k]).tobytes() for k in sorted(metrics)]


def _split(monkeypatch, max_block_nodes):
    """Split every grid of two or more surfaces into radial blocks of at most
    ``max_block_nodes`` nodes."""
    from equinn import mhdkernel as mk

    monkeypatch.setattr(mk, "_MIN_BLOCK_NODES", 1)
    monkeypatch.setattr(mk, "_MAX_BLOCK_NODES", max_block_nodes)


@pytest.mark.parametrize("case, n_theta, n_zeta", [("dshape", 0, 0), ("ellipse", 0, 0), ("ellipse", 21, 7)])
def test_split_metrics_round_as_whole(monkeypatch, case, n_theta, n_zeta):
    from equinn import mhdkernel as mk

    asm, x = half_grid_case(case, n_theta, n_zeta)
    assert len(mk._radial_blocks(asm.half_grid)) == 1
    whole = _metrics_bytes(asm.metrics(x))
    counts = []
    for max_block_nodes in (10**9, 1):  # two blocks, then one or two surfaces per block
        _split(monkeypatch, max_block_nodes)
        counts.append(len(mk._radial_blocks(asm.half_grid, mk._MAX_BLOCK_NODES)))
        assert _metrics_bytes(asm.metrics(x)) == whole
    assert counts[0] == 2 and counts[1] == (32 if case == "dshape" else 4)


def test_radial_blocks_keep_the_worker_within_the_training_block():
    # the bench's fine grids: twice the surfaces and theta nodes of the case
    from equinn import mhdkernel as mk

    dshape, config = cli_io.parse_case("dshape")
    dshape_fine, _ = sv._mirror_half(CollocationGrid.build(2 * config.n_rho, dshape.M, dshape.N, dshape.n_fp,
                                                           8 * dshape.M))
    ellipse3d_fine, _ = sv._mirror_half(CollocationGrid.build(64, 12, 4, 5, 96))
    assert (dshape_fine.n_nodes, ellipse3d_fine.n_nodes) == (4500, 50176)
    assert mk._radial_blocks(dshape_fine, mk._MAX_BLOCK_NODES) == [slice(0, 100)]
    assert mk._radial_blocks(ellipse3d_fine, mk._MAX_BLOCK_NODES) == [slice(i, i + 8) for i in range(0, 64, 8)]
    # the loss node, which holds every block's state until its reverse pass, keeps two
    assert mk._radial_blocks(ellipse3d_fine) == [slice(0, 32), slice(32, 64)]


def test_the_worker_runs_the_second_half_of_the_blocks_as_one_task(monkeypatch):
    import threading

    from equinn import mhdkernel as mk

    worker = _RecordingWorker(mk._worker())
    monkeypatch.setattr(mk, "_WORKER", worker)
    here = (mk.geometry, mk.magnetic_field, mk.current, mk.force)
    ran = mk._run_blocks(lambda i, stages: (i, threading.current_thread().name, stages), 5)
    assert [i for i, _, _ in ran] == list(range(5))
    assert [name for _, name, _ in ran] == ["MainThread"] * 3 + ["equinn-kernel_0"] * 2
    assert [stages for _, _, stages in ran] == [here] * 3 + [mk._BOUND_STAGES] * 2
    assert len(worker.futures) == 1


def test_split_metrics_name_the_same_overlapping_node_as_the_whole_grid(monkeypatch):
    from equinn import mhdkernel as mk
    from equinn.mhdkernel import JacobianSignError

    asm, x0 = ellipse_problem()
    _split(monkeypatch, 1)
    first_rows = mk._radial_blocks(asm.half_grid, mk._MAX_BLOCK_NODES)[0]
    nodes = set()
    for seed in range(4):
        x = x0 + 0.2 * np.random.default_rng(seed).normal(size=x0.size)
        with pytest.raises(JacobianSignError) as full:
            asm.field_state(nf.vector_to_params(x, asm.template))
        with pytest.raises(JacobianSignError) as half:
            asm.metrics(x)
        assert half.value.node == full.value.node
        assert str(half.value) == str(full.value)
        nodes.add(full.value.node)
    # offenders past the first block: there, the check of the joined sqrt(g) names them
    assert any(i_rho >= first_rows.stop for i_rho, _, _ in nodes)

    # the worker's blocks alone have the other sign, each consistently
    geometry, *rest = mk._BOUND_STAGES

    def flipped(*args, **kwargs):
        st = geometry(*args, **kwargs)
        st.sqrtg = -st.sqrtg
        return st

    monkeypatch.setattr(mk, "_BOUND_STAGES", (flipped, *rest))
    with pytest.raises(JacobianSignError) as err:
        asm.metrics(x0)
    assert err.value.node == (asm.grid.n_rho // 2, 0, 0)
    assert str(err.value) == f"Jacobian vanished or changed sign at node {err.value.node}: flux surfaces overlap"


def test_an_error_in_the_workers_metrics_blocks_reaches_the_caller(monkeypatch):
    import threading

    from equinn import mhdkernel as mk

    asm, x = ellipse_problem()
    _split(monkeypatch, 1)
    worker = _RecordingWorker(mk._worker())
    monkeypatch.setattr(mk, "_WORKER", worker)
    geometry, magnetic_field, *rest = mk._BOUND_STAGES

    def failing(*args, **kwargs):
        raise RuntimeError(f"block failed in {threading.current_thread().name}")

    monkeypatch.setattr(mk, "_BOUND_STAGES", (geometry, failing, *rest))
    with pytest.raises(RuntimeError, match="block failed in equinn-kernel"):
        asm.metrics(x)
    assert len(worker.futures) == 1 and worker.futures[0].done()


def test_loss_rejects_grids_without_the_mirror_symmetry():
    input, _ = cli_io.parse_case_text(ELLIPSE_CASE, "ellipse")
    grid = CollocationGrid.build(4, input.M, input.N, input.n_fp)
    shifted = CollocationGrid(grid.rho, grid.theta + 0.1, grid.zeta, grid.n_fp)
    whole_turn = CollocationGrid(grid.rho, grid.theta, grid.zeta * grid.n_fp, grid.n_fp)
    for bad in (shifted, whole_turn):
        with pytest.raises(ValueError, match="uniform"):
            sv.LossAssembler(input, 3, bad)


# -- optimizer details -----------------------------------------------------------------


def _packed(h):
    """An :class:`solver._InverseHessian` holding the symmetric matrix ``h``."""
    packed = sv._InverseHessian(len(h))
    for blk in packed.blocks:
        rows, hi = blk.shape
        blk[...] = h[hi - rows : hi, :hi]
    packed.scale = None
    return packed


def _unpacked(packed):
    """The full matrix of an :class:`solver._InverseHessian`'s blocks, the
    upper part mirrored."""
    n = packed.blocks[-1].shape[1]
    h = np.empty((n, n))
    for blk in packed.blocks:
        rows, hi = blk.shape
        h[hi - rows : hi, :hi] = blk
        h[: hi - rows, hi - rows : hi] = blk[:, : hi - rows].T
    return h


def _textbook_update(h, s, y):
    rho = 1.0 / (y @ s)
    left = np.eye(len(s)) - rho * np.outer(s, y)
    return left @ h @ left.T + rho * np.outer(s, s)


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_inplace_bfgs_update_matches_textbook_formula(monkeypatch):
    monkeypatch.setattr(sv, "_BLOCK_BYTES", 4 * 9 * 8)  # blocks of 4, 4 and 1 rows
    rng = np.random.default_rng(4)
    n = 9
    a = rng.normal(size=(n, n))
    h = a @ a.T + n * np.eye(n)
    s = rng.normal(size=n)
    y = s + 0.3 * rng.normal(size=n)
    assert y @ s > 0.0
    want = _textbook_update(h, s, y)
    got = _packed(h)
    assert [blk.shape for blk in got.blocks] == [(4, 4), (4, 8), (1, 9)]
    hs = got.update(s, y, s)
    # measured agreement: 8.9e-16 relative
    assert _close(_unpacked(got), want)
    assert _close(hs, want @ s)


def test_packed_inverse_hessian_follows_the_textbook_recursion(monkeypatch):
    # the stage's sequence: scaled identity, updates, a skipped pair (only
    # H g is read), a reset to I, more updates; pairs y = A s of a fixed
    # A of condition 10, so that rounding does not grow along the recursion
    n = 40
    monkeypatch.setattr(sv, "_BLOCK_BYTES", 7 * n * 8)  # blocks of 7 rows, the last of 5
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = (q * np.geomspace(1.0, 10.0, n)) @ q.T
    h = sv._InverseHessian(n)
    assert len(h.blocks) == 6
    h.scale, dense = 0.3, 0.3 * np.eye(n)
    for step in ["update"] * 8 + ["skip", "reset"] + ["update"] * 8:
        g, v = rng.normal(size=(2, n))
        if step == "skip":
            before = _unpacked(h)
            assert _close(h.times(g), dense @ g)
            assert np.array_equal(_unpacked(h), before)
            continue
        if step == "reset":
            h.scale, dense = 1.0, np.eye(n)
            continue
        s = rng.normal(size=n)
        y = a @ s
        dense = _textbook_update(dense, s, y)
        # measured agreement: at most 2.1e-15 relative
        assert _close(h.update(s, y, g), dense @ g)
        full = _unpacked(h)
        assert np.array_equal(full, full.T)
        assert _close(h.times(v), dense @ v)


def _capped_well(n):
    # -t^2 for |t| <= 1/2 and 4 |t| - 9/4 beyond, plus a quadratic: a search
    # that runs into the cap from the concave side ends without curvature
    # (y.s < 0, the pair is skipped), and the bundle steps off the cap reset H
    c = np.geomspace(0.1, 1.0, n - 1)

    def vg(x):
        t, d = x[0], x[1:] - 1.0
        q = float(np.einsum("i,i->", d, c * d))
        if abs(t) <= 0.5:
            return q - t * t, np.concatenate([[-2.0 * t], 2.0 * c * d])
        return q - 0.25 + 4.0 * (abs(t) - 0.5), np.concatenate([[4.0 * np.sign(t)], 2.0 * c * d])

    x0 = 1.0 + np.random.default_rng(8).normal(size=n)
    x0[0] = 1e-4
    return vg, x0


def test_bfgs_stage_keeps_h_symmetric_through_skips_and_resets(monkeypatch):
    n = 40
    monkeypatch.setattr(sv, "_BLOCK_BYTES", 7 * n * 8)

    # np.dot is BLAS ddot, which rounds differently with 1 and 4 threads from
    # about 20,000 entries; the stage's dots, bundle steps included, are einsum
    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot called")

    bundles = []
    least_norm = sv._least_norm
    monkeypatch.setattr(sv, "_least_norm", lambda points: bundles.append(1) or least_norm(points))
    monkeypatch.setattr(np, "dot", no_dot)
    vg, x0 = _capped_well(n)
    update = sv._InverseHessian.update
    events, kept = [], None  # | per iteration, then u or R where it updates

    def checked_update(h, s, y, g):
        nonlocal kept
        if h.scale is not None:  # a reset: the update starts from scale I
            fresh = sv._InverseHessian(n)
            fresh.scale = h.scale
            update(fresh, s, y, g)
            events[-1] = "R"
        else:  # only an update writes H: a skipped pair leaves it as it was
            assert np.array_equal(_unpacked(h), kept)
            events[-1] = "u"
        hg = update(h, s, y, g)
        kept = _unpacked(h)
        assert np.array_equal(kept, kept.T)
        if events[-1] == "R":
            assert np.array_equal(kept, _unpacked(fresh))
        return hg

    monkeypatch.setattr(sv._InverseHessian, "update", checked_update)
    bfgs_stage(x0, vg, BFGSConfig(max_iter=40), on_iteration=lambda it, x, f: events.append("|"))
    events = "".join(events)
    assert len(events) == 40
    assert "u||u" in events  # pairs skipped between updates
    assert "uR" in events  # a reset after updates
    assert bundles


def test_bfgs_follows_the_textbook_iterates():
    # log-sum-exp plus a quadratic of condition 100: smooth, strictly convex
    # and not quadratic, so no pair is skipped and H is never reset
    rng = np.random.default_rng(7)
    d = 30
    a = rng.normal(size=(40, d)) / np.sqrt(d)
    c = np.geomspace(0.1, 10.0, d)
    b = rng.normal(size=d)

    def vg(x):
        z = a @ x
        e = np.exp(z - z.max())
        return float(z.max() + np.log(e.sum()) + 0.5 * x @ (c * x) + b @ x), a.T @ (e / e.sum()) + c * x + b

    x0 = rng.normal(size=d)
    want = textbook_bfgs(x0, vg, 30)
    got = []
    bfgs_stage(x0, vg, BFGSConfig(max_iter=30), on_iteration=lambda it, x, f: got.append(x.copy()))
    assert len(got) == len(want) == 30
    # measured agreement: 3.1e-15 relative
    for x, ref in zip(got, want):
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def _kinked_quadratic(n):
    # |x0| plus a weak quadratic: the first searches stall at the kink and a
    # bundle step resets H
    scale = 1e-3 * np.geomspace(1.0, 10.0, n - 1)

    def vg(x):
        d = x[1:] - 1.0
        return abs(x[0]) + float(np.dot(d, scale * d)), np.concatenate([[np.sign(x[0])], 2.0 * scale * d])

    return vg


@pytest.mark.parametrize("kinked", [False, True], ids=["quadratic", "kinked"])
def test_bfgs_stage_holds_one_inverse_hessian(monkeypatch, kinked):
    n = 400
    bundles = []
    least_norm = sv._least_norm
    monkeypatch.setattr(sv, "_least_norm", lambda points: bundles.append(1) or least_norm(points))
    if kinked:
        vg, x0 = _kinked_quadratic(n), np.full(n, -2.0)
        x0[0] = 1.0
    else:
        vg, x0 = quadratic(np.ones(n), np.geomspace(1.0, 100.0, n)), np.zeros(n)
    tracemalloc.start()
    try:
        _, records, _ = bfgs_stage(x0, vg, BFGSConfig(max_iter=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a bundle step that does not move ends the stage, so on the kinked
    # loss one moved and reset H
    assert len(records) == 20
    assert bool(bundles) == kinked
    # H itself is n^2 doubles; a reset that allocated a new n x n array,
    # such as the scaled identity before the first update, would add as much
    assert peak < 1.5 * n * n * 8


def test_bfgs_stage_stores_half_of_the_inverse_hessian():
    # the lower block triangle and its scratch block: a full n x n H alone
    # would take n^2 doubles
    n = 1000
    vg, x0 = _kinked_quadratic(n), np.full(n, -2.0)
    x0[0] = 1.0
    tracemalloc.start()
    try:
        _, records, _ = bfgs_stage(x0, vg, BFGSConfig(max_iter=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 20
    assert peak < 0.75 * n * n * 8


def test_final_checkpoint_is_numbered_with_the_last_iteration():
    # the callback sees the cadence only; the final state is the returned
    # Solution, which `equinn solve` saves with the last recorded iteration
    seen = []
    sol = sv.solve(
        tiny_input(), tiny_config(checkpoint_every=10),
        on_checkpoint=lambda it, vec: seen.append(it),
    )
    last = sol.history[-1].iteration
    assert last == sum(1 for r in sol.history if r.stage != "init") == 55
    assert seen == list(range(10, last + 1, 10))


def test_zero_force_gradient_is_finite():
    input, grid, asm, x0 = small_problem()
    degenerate = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, np.array([0.0]), input.iota,
        0.0, input.n_fp, input.M, input.N,
    )
    val, grad = sv.LossAssembler(degenerate, 2, grid).value_and_grad(x0)
    assert val == 0.0
    assert np.all(np.isfinite(grad))



def test_bfgs_steps_off_a_kink():
    # |x0| + 0.1 (x1 - 1)^2: the line minimum of the first step lies on the
    # kink x0 = 0, from where both the quasi-Newton and the steepest-descent
    # directions go uphill at once
    def vg(x):
        return abs(x[0]) + 0.1 * (x[1] - 1.0) ** 2, np.array([np.sign(x[0]), 0.2 * (x[1] - 1.0)])

    x, records, status = bfgs_stage(np.array([1.0, -2.0]), vg, BFGSConfig(max_iter=60))
    assert abs(x[1] - 1.0) < 1e-3 and abs(x[0]) < 1e-3


def _cone_losses():
    def hypot(x):
        r = np.hypot(x[0], x[1])
        return r, (x[:2] / r if r > 0.0 else np.zeros(2))

    def l1(x):
        return abs(x[0]) + abs(x[1]), np.sign(x[:2])

    def max_abs(x):
        a, b = x[0] + x[1], x[0] - x[1]
        if abs(a) >= abs(b):
            return abs(a), np.sign(a) * np.array([1.0, 1.0])
        return abs(b), np.sign(b) * np.array([1.0, -1.0])

    for cone in (hypot, l1, max_abs):
        def vg(x, cone=cone):
            c, dc = cone(x)
            return c + 0.1 * (x[2] - 1.0) ** 2, np.array([dc[0], dc[1], 0.2 * (x[2] - 1.0)])

        yield cone.__name__, vg


@pytest.mark.parametrize(
    "x0",
    [(1.0, 0.5, -2.0), (1.0, 0.0, -2.0), (0.3, -0.7, 3.0), (2.0, 1.0, -5.0)],
    ids=lambda x0: ",".join(f"{v:g}" for v in x0),
)
def test_bfgs_reaches_the_apex_of_a_cone(x0):
    # at the apex of sqrt(x0^2 + x1^2), |x0| + |x1| or max(|x0 + x1|, |x0 - x1|)
    # more than two smooth pieces meet, and every search from a one-sided
    # gradient stalls; the bundle step's least-norm direction gets past them
    for name, vg in _cone_losses():
        x, _, _ = bfgs_stage(np.array(x0), vg, BFGSConfig(max_iter=200))
        assert vg(x)[0] <= 1e-8, name


def _nearest_by_brute_force(points):
    """Nearest point to 0 among the hull's vertices, the nearest points of
    its edges and, for three points, the interior affine minimizer."""
    cands = list(points)
    for a, b in itertools.combinations(points, 2):
        d = b - a
        if d.any():
            cands.append(a + np.clip(-(a @ d) / (d @ d), 0.0, 1.0) * d)
    if len(points) == 3:
        bordered = np.ones((4, 4))
        bordered[:3, :3] = points @ points.T
        bordered[3, 3] = 0.0
        w = np.linalg.lstsq(bordered, [0.0, 0.0, 0.0, 1.0], rcond=None)[0][:3]
        if np.all(w >= 0.0):
            cands.append(w @ points)
    return min(cands, key=lambda c: float(c @ c))


@pytest.mark.parametrize("points", [
    [[3.0, 4.0]],
    [[1.0, 2.0], [1.0, 2.0]],
    [[1.0, 1.0], [-1.0, 1.0]],
    [[1.0, 2.0], [1.0, 2.0], [-1.0, 2.0]],
    [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
    [[-1.0, 1.0], [1.0, 1.0], [3.0, 1.0]],
    [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]],
], ids=[
    "one-point", "duplicate", "edge-interior", "duplicate-in-triangle",
    "collinear-vertex", "collinear-interior", "origin-inside", "triangle-interior",
])
def test_least_norm_special_bundles(points):
    points = np.array(points)
    assert np.max(np.abs(sv._least_norm(points) - _nearest_by_brute_force(points))) <= 1e-12


def test_least_norm_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(300):
        points = rng.normal(size=(rng.integers(1, 4), rng.integers(1, 5)))
        assert np.max(np.abs(sv._least_norm(points) - _nearest_by_brute_force(points))) <= 1e-12
