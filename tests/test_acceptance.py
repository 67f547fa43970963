"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

1. D-shape end-to-end solve reaches F_vol_norm <= 1e-2 in under 30 minutes
   with a single-signed Jacobian throughout (stretch, logged: <= 1e-3).
2. Boundary exactness of the solved surfaces at rho -> 1.
3. Gradient oracle: analytic loss gradient vs central differences, <= 1e-6.
4. Field-kernel oracle: J^i, ||F||, |grad |B|^2| vs an independent
   brute-force finite-difference evaluation, <= 1e-4 at interior nodes.
5. Geometry oracles on the concentric circular torus.
6. Construction invariants on random inputs (under 10 seconds).
7. Bit-identical reruns, independent of worker-thread count.
8. Straight-field-line contours: residual <= 1e-10, eight-target default.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from bruteforce import brute_point
from support import contravariant_basis, mlp_forward, torus_stack

from equinn import cli_io, mhdkernel as mk, netfield as nf, solver as sv
from equinn.autodiff import grad_check
from equinn.mhdkernel import CollocationGrid
from equinn.spectral import SurfaceCoefficients, mode_set_pair, synthesize


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def dshape_run():
    input, config = cli_io.parse_case("dshape")
    assert (config.width, config.n_rho, input.M, input.N) == (8, 50, 11, 0)
    t0 = time.perf_counter()
    solution = sv.solve(input, config)
    wall = time.perf_counter() - t0
    return {"input": input, "config": config, "solution": solution, "wall": wall}


def test_criterion_1_dshape_end_to_end(dshape_run):
    sol = dshape_run["solution"]
    wall = dshape_run["wall"]
    ok_target = np.isfinite(sol.f_vol_norm) and sol.f_vol_norm <= 1e-2
    ok_jacobian = sol.termination_reason != "diverged"
    ok_time = wall <= 30 * 60

    # the Jacobian is checked at every evaluated iterate inside geometry();
    # re-affirm single-signedness of the final state explicitly
    asm = sv.LossAssembler(
        dshape_run["input"], sol.params.width,
        CollocationGrid.build(50, 11, 0, 1),
    )
    state = asm.field_state(sol.params)
    signs = np.sign(state.sqrtg)
    ok_jacobian = ok_jacobian and bool(np.all(signs == signs.flat[0]))

    # stage-1 loss smoothed over 50-iteration windows: descent guard against
    # step-size misconfiguration.  A fixed-step first-order stage bounces at
    # its plateau (the objective is a mean of norms, with conical kinks), so
    # windowed means are allowed bounded oscillation above the running best
    # but must never blow up and must end well below the start.
    stage1 = np.array([r.loss for r in sol.history if r.stage == "adamw"])
    means = stage1[: 50 * (stage1.size // 50)].reshape(-1, 50).mean(axis=1)
    best = np.minimum.accumulate(means)
    ok_smooth = bool(np.all(means[1:] <= 1.5 * best[:-1])) and means[-1] < 0.1 * means[0]

    ok = ok_target and ok_jacobian and ok_time and ok_smooth
    report(
        1,
        ok,
        f"F_vol_norm={sol.f_vol_norm:.3e} (gate 1e-2), runtime {wall:.0f}s "
        f"(limit 1800s), termination={sol.termination_reason}, "
        f"stage-1 smoothed-loss descent guard={ok_smooth}",
    )
    stretch = sol.f_vol_norm <= 1e-3
    print(
        f"ACCEPTANCE 1 (stretch, non-gating): "
        f"{'PASS' if stretch else 'not reached'} - F_vol_norm={sol.f_vol_norm:.3e} vs 1e-3"
    )
    assert ok


def test_criterion_2_boundary_exactness(dshape_run):
    sol = dshape_run["solution"]
    input = dshape_run["input"]
    theta = 2 * np.pi * np.arange(256) / 256
    prof = nf.mode_profiles(sol.params, input, 1.0 - 1e-12)
    zeta = np.zeros(1)
    r_err = np.max(
        np.abs(
            synthesize(prof.r, theta, zeta).value
            - synthesize(input.boundary_r, theta, zeta).value
        )
    )
    z_err = np.max(
        np.abs(
            synthesize(prof.z, theta, zeta).value
            - synthesize(input.boundary_z, theta, zeta).value
        )
    )
    ok = r_err <= 1e-9 and z_err <= 1e-9
    report(2, ok, f"max|R-R_b|={r_err:.2e}, max|Z-Z_b|={z_err:.2e} (tol 1e-9)")
    assert ok


def test_criterion_3_gradient_oracle(capsys):
    input, _ = cli_io.parse_case("dshape")
    input = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, input.pressure, input.iota,
        input.psi_b, input.n_fp, 5, 0,
    )
    grid = CollocationGrid.build(8, 5, 0, 1)
    asm = sv.LossAssembler(input, 2, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), 2, 0, input)
    vec = nf.params_to_vector(params)
    t0 = time.perf_counter()
    err = grad_check(
        asm._loss_expr, vec, step=1e-4, samples=64, seed=0,
        fd_loss=asm.loss_value_precise,
    )
    wall = time.perf_counter() - t0
    rc = cli_io.cli(["gradcheck", "dshape", "--width", "2"])
    capsys.readouterr()
    ok = err <= 1e-6 and wall <= 60 and rc == 0
    report(
        3,
        ok,
        f"max rel gradient error {err:.2e} over 64 entries (tol 1e-6), "
        f"{wall:.1f}s (limit 60s), CLI exit {rc}",
    )
    assert ok


def test_criterion_4_field_kernel_oracle():
    input, _ = cli_io.parse_case("dshape")
    input = nf.EquilibriumInput(
        input.boundary_r, input.boundary_z, input.pressure, input.iota,
        input.psi_b, input.n_fp, 5, 0,
    )
    grid = CollocationGrid.build(8, 5, 0, 1)
    asm = sv.LossAssembler(input, 2, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), 2, 123, input)
    vec = nf.params_to_vector(params)
    vec = vec + 0.01 * np.random.default_rng(7).normal(size=vec.size)
    params = nf.vector_to_params(vec, asm.template)

    t0 = time.perf_counter()
    state = asm.field_state(params)
    grad_b2 = mk.grad_B2_magnitude(state)
    kernel = {"jsup_s": state.jsup[0], "jsup_t": state.jsup[1], "jsup_z": state.jsup[2],
              "F_mag": state.F_mag, "grad_b2": grad_b2}
    names = tuple(kernel)
    kernel_vals = {k: [] for k in names}
    oracle_vals = {k: [] for k in names}
    for i, rho in enumerate(grid.rho):
        for j, th in enumerate(grid.theta):
            oracle = brute_point(params, input, rho**2, th)
            for k in names:
                kernel_vals[k].append(kernel[k][i, j])
                oracle_vals[k].append(oracle[k])
    wall = time.perf_counter() - t0

    worst = {}
    for k in names:
        a = np.array(kernel_vals[k])
        b = np.array(oracle_vals[k])
        scale = np.max(np.abs(b))
        worst[k] = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-6 * scale)))
    ok = all(w <= 1e-4 for w in worst.values()) and wall <= 60
    detail = ", ".join(f"{k}={w:.1e}" for k, w in worst.items())
    report(4, ok, f"worst rel errors vs brute force: {detail} (tol 1e-4), {wall:.0f}s")
    assert ok


def test_criterion_5_geometry_oracles():
    grid = CollocationGrid.build(64, 2, 0, 1, n_theta=32)
    state = mk.geometry(torus_stack(grid.rho, R0=3.0, a=1.0), grid)

    want_sqrtg = -(1.0**2) * state.R / 2.0
    sqrtg_err = float(np.max(np.abs(state.sqrtg - want_sqrtg) / np.abs(want_sqrtg)))

    vol = mk.volume(state, grid)
    vol_want = 2.0 * np.pi**2 * 3.0
    vol_err = abs(vol - vol_want) / vol_want

    avg = mk.volume_average(np.ones_like(state.sqrtg), state, grid)
    avg_err = abs(avg - 1.0)

    ok = sqrtg_err <= 1e-10 and vol_err <= 1e-3 and avg_err <= 1e-12
    report(
        5,
        ok,
        f"sqrt(g) rel err {sqrtg_err:.1e} (tol 1e-10), volume rel err "
        f"{vol_err:.1e} (tol 1e-3), <1>={avg_err:.1e} from unity (tol 1e-12)",
    )
    assert ok


def test_criterion_6_construction_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    checks = []

    for M, N, n_fp in ((3, 0, 1), (3, 2, 3), (4, 1, 2)):
        cos_set, sin_set = mode_set_pair(M, N, n_fp)
        rv = np.zeros(cos_set.size)
        rv[cos_set.index_of(0, 0)] = 10.0
        rv[cos_set.index_of(1, 0)] = 1.0
        rv += 0.03 * rng.normal(size=cos_set.size)
        zv = np.zeros(sin_set.size)
        zv[sin_set.index_of(1, 0)] = 1.0
        zv += 0.03 * rng.normal(size=sin_set.size)
        zv[sin_set.fixed_mask] = 0.0
        input = nf.EquilibriumInput(
            SurfaceCoefficients(cos_set, rv), SurfaceCoefficients(sin_set, zv),
            np.array([100.0, -100.0]), np.array([0.9, -0.3]),
            1.0, n_fp, M + 1, N,
        )
        sets = mode_set_pair(M + 1, N, n_fp)
        params = nf.init_params(sets, 3, int(rng.integers(1 << 30)), input)
        vec = nf.params_to_vector(params) + 0.02 * rng.normal(size=params.n_parameters)
        params = nf.vector_to_params(vec, params)

        grid = CollocationGrid.build(5, M + 1, N, n_fp)
        asm = sv.LossAssembler(input, 3, grid)
        state = asm.field_state(params)

        # B . grad s = 0: assemble B in cylindrical components
        es, _, _ = contravariant_basis(state)
        (bsup_t, bsup_z), e_t, e_z = state.b, state.e[1], state.e[2]
        b_cyl = np.stack(
            [
                bsup_t * e_t[0] + bsup_z * e_z[0],
                bsup_z * state.R,
                bsup_t * e_t[1] + bsup_z * e_z[1],
            ]
        )
        bdots = np.abs(np.sum(b_cyl * es, axis=0))
        scale = np.sqrt(np.sum(b_cyl**2, axis=0) * np.sum(es**2, axis=0))
        checks.append(("B.grad_s", float(np.max(bdots / scale)), 1e-12))

        # B^theta / B^zeta = iota when lambda == 0
        zero_lam = vec.copy()
        zero_lam.reshape(3, -1)[1] = 0.0  # the lambda network's block
        state0 = asm.field_state(nf.vector_to_params(zero_lam, params))
        ratio_err = np.max(np.abs(state0.b[0] / state0.b[1] - state0.iota))
        checks.append(("iota_ratio", float(ratio_err), 1e-12))

        # sine-parity (0,0) profile pinned at zero
        prof = nf.mode_profiles(params, input, 0.37)
        pin = sets[1].index_of(0, 0)
        checks.append(("sine00", abs(prof.lam.values[pin]) + abs(prof.z.values[pin]), 0.0))

        # analyticity: X_mn / rho^m bounded near the axis
        rb = nf.padded_boundary(input.boundary_r, sets[0])
        for rho in (1e-3, 1e-2, 0.1):
            prof = nf.mode_profiles(params, input, rho)
            nn_out, _, _ = mlp_forward(params.r, nf.input_map(rho))
            bound = 10.0 * (np.abs(rb) + np.max(np.abs(nn_out)) + 1e-9)
            ratio = np.abs(prof.r.values / rho ** sets[0].m)
            checks.append(("analyticity", float(np.max(ratio / bound)), 1.0))

        # stellarator symmetry of synthesized surfaces
        theta = rng.uniform(0, 2 * np.pi, 4)
        zeta = rng.uniform(0, 2 * np.pi, 3)
        prof = nf.mode_profiles(params, input, 0.61)
        r_p = synthesize(prof.r, theta, zeta).value
        r_m = synthesize(prof.r, -theta, -zeta).value
        z_p = synthesize(prof.z, theta, zeta).value
        z_m = synthesize(prof.z, -theta, -zeta).value
        sym = max(np.max(np.abs(r_p - r_m)), np.max(np.abs(z_p + z_m)))
        checks.append(("stell_sym", float(sym), 1e-12))

    wall = time.perf_counter() - t0
    bad = [(n, v, tol) for n, v, tol in checks if v > tol]
    ok = not bad and wall <= 10.0
    worst = {}
    for n, v, tol in checks:
        worst[n] = max(worst.get(n, 0.0), v)
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(6, ok, f"{detail}; {wall:.1f}s (limit 10s)")
    assert ok


def _run_solve_subprocess(out_dir, threads):
    env = os.environ.copy()
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(threads)
    result = subprocess.run(
        [sys.executable, "-m", "equinn", "solve", "dshape", "--seed", "7",
         "--out", str(out_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert result.returncode == 0, result.stderr
    return out_dir


def test_criterion_7_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    run1 = _run_solve_subprocess(base / "run1", threads=1)
    run2 = _run_solve_subprocess(base / "run2", threads=4)

    names = sorted(p.name for p in run1.glob("checkpoint*.bin"))
    assert names, "no checkpoints written"
    assert names == sorted(p.name for p in run2.glob("checkpoint*.bin"))
    identical = all(
        (run1 / n).read_bytes() == (run2 / n).read_bytes() for n in names
    )
    history_same = (run1 / "loss_history.csv").read_bytes() == (
        run2 / "loss_history.csv"
    ).read_bytes()
    fvol = json.loads((run1 / "summary.json").read_text())["f_vol_norm"]
    ok = identical and history_same
    report(
        7,
        ok,
        f"{len(names)} checkpoint files and loss history bit-identical across "
        f"reruns with 1 vs 4 worker threads (seed 7, F_vol_norm={fvol:.2e})",
    )
    assert ok


def test_criterion_8_theta_star(dshape_run):
    lam = lambda t: 0.1 * np.sin(t)
    dlam = lambda t: 0.1 * np.cos(t)
    residuals = []
    for target in 2 * np.pi * np.arange(8) / 8:
        theta = cli_io.invert_theta_star(lam, dlam, float(target))
        residuals.append(abs(theta + lam(theta) - target))
    synthetic_ok = max(residuals) <= 1e-10

    sol = dshape_run["solution"]
    rows = cli_io.theta_star_contours(sol.params, sol.input)
    targets = sorted({row[0] for row in rows})
    default_ok = len(rows) == 8 * 32 and np.allclose(
        targets, 2 * np.pi * np.arange(8) / 8
    )
    ok = synthetic_ok and default_ok
    report(
        8,
        ok,
        f"synthetic lambda=0.1 sin(theta): max residual {max(residuals):.1e} "
        f"(tol 1e-10); eight-target default on the solved case: {len(rows)} points",
    )
    assert ok
