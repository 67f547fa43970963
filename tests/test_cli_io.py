"""Case files, checkpoints, section exports and the command-line surface."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from equinn import cli_io, netfield as nf, solver as sv
from equinn.cli_io import (
    CaseFileError,
    ThetaStarError,
    case_digest,
    cli,
    invert_theta_star,
    load_checkpoint,
    parse_case,
    parse_case_text,
    poincare_section,
    save_checkpoint,
    theta_star_contours,
)
from equinn.mhdkernel import CollocationGrid
from equinn.solver import AdamWConfig, BFGSConfig, SolverConfig
from equinn.spectral import mode_set_pair, synthesize
from support import ELLIPSE_CASE, full_grid_metrics, polylines_cross


def dshape():
    return parse_case("dshape")


def zero_net_solution(input, width=2, lam_b2=None):
    cos_set, sin_set = mode_set_pair(input.M, input.N, input.n_fp)
    params = nf.NetParams.zeros(width, cos_set, sin_set)
    lam_block = params.vector.reshape(3, -1)[1]
    for (m, n), v in (lam_b2 or {}).items():
        lam_block[-sin_set.size + sin_set.index_of(m, n)] = v  # b2 closes the block
    return sv.Solution(
        params=params,
        input=input,
        config=SolverConfig(width=width),
        history=[],
        f_vol_norm=0.0,
        f_norm_profile=np.zeros(4),
        rho=np.array([0.125, 0.375, 0.625, 0.875]),
        termination_reason="max-iter",
    )


# -- case parsing -------------------------------------------------------------


def test_dshape_builtin_values():
    input, config = dshape()
    cs = input.boundary_r.mode_set
    ss = input.boundary_z.mode_set
    assert input.boundary_r.values[cs.index_of(0, 0)] == 3.51
    assert input.boundary_r.values[cs.index_of(1, 0)] == -1.0
    assert input.boundary_r.values[cs.index_of(2, 0)] == 0.106
    assert input.boundary_z.values[ss.index_of(1, 0)] == 1.47
    assert input.boundary_z.values[ss.index_of(2, 0)] == 0.16
    assert input.psi_b == 1.0 and input.n_fp == 1
    assert (input.M, input.N) == (11, 0)
    assert config.width == 8 and config.n_rho == 50


def roundtrip_config():
    return SolverConfig(
        width=5, n_rho=12, seed=9,
        adamw=AdamWConfig(step=2e-3, max_iter=77),
        bfgs=BFGSConfig(max_iter=13),
        target_fvol=1e-3,
    )


def test_case_roundtrip(tmp_path):
    input, _ = dshape()
    config = roundtrip_config()
    path = tmp_path / "case.txt"
    cli_io.write_case(input, config, path)
    input2, config2 = parse_case(str(path))
    assert np.array_equal(input2.boundary_r.values, input.boundary_r.values)
    assert np.array_equal(input2.pressure, input.pressure)
    assert config2 == config
    assert case_digest(input2, config2) == case_digest(input, config)


def test_case_text_digest_is_frozen():
    # checkpoints carry this digest, so case_text may not change a byte
    input, config = dshape()
    for cfg, sha in (
        (config, "308892d9c445ae9582101fc3c181b54776577f302a586ed61556973c523828d9"),
        (roundtrip_config(), "9285779637e38c2b72542c72c04306e5694f54b7d888d758b04c9e0eee3fb626"),
    ):
        assert hashlib.sha256(cli_io.case_text(input, cfg).encode()).hexdigest() == sha


def test_parse_rejects_mode_above_resolution():
    text = """
[global]
psi_b = 1.0
n_fp = 1
M = 2
N = 0
[boundary]
0 0 3.0 0.0
2 0 0.1 0.0
[profiles]
pressure = 0.0
iota = 1.0
"""
    with pytest.raises(CaseFileError, match="line 9.*m=2"):
        parse_case_text(text)


def test_parse_rejects_unknown_key_with_line():
    text = """
[global]
psi_b = 1.0
n_fp = 1
M = 2
N = 0
frobnicate = 3
[boundary]
0 0 3.0 0.0
1 0 1.0 1.0
[profiles]
pressure = 0.0
iota = 1.0
"""
    with pytest.raises(CaseFileError, match="line 7"):
        parse_case_text(text)


def test_parse_rejects_missing_global():
    with pytest.raises(CaseFileError, match="missing"):
        parse_case_text("[boundary]\n0 0 3.0 0.0\n[profiles]\npressure = 0\niota = 1\n")


#  1 [global] · 2-5 keys · 6 [boundary] · 7-8 rows · 9 [axis] · 10 row
# 11 [profiles] · 12-13 keys · 14 [solver] · 15 key
REJECT_BASE = """\
[global]
psi_b = 1.0
n_fp = 1
M = 3
N = 1
[boundary]
0 0 3.0 0.0
1 0 1.0 1.0
[axis]
0 3.1 0.0
[profiles]
pressure = 0.0
iota = 1.0
[solver]
width = 2
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("[solver]", "[solvers]", r"^line 14: .*\[solvers\]", id="unknown-section"),
        pytest.param("[global]", "width = 2\n[global]", r"^line 1: content before any section header", id="before-header"),
        pytest.param("M = 3", "M 3", r"^line 4: .*'M 3'", id="global-no-equals"),
        pytest.param("width = 2", "width 2", r"^line 15: .*'width 2'", id="solver-no-equals"),
        pytest.param("N = 1", "N = 1\nK = 2", r"^line 6: .*\[global\].*'K'", id="global-unknown-key"),
        pytest.param("iota = 1.0", "iota = 1.0\ncurrent = 0.0", r"^line 14: .*\[profiles\].*'current'", id="profiles-unknown-key"),
        pytest.param("width = 2", "widht = 2", r"^line 15: .*\[solver\].*'widht'", id="solver-unknown-key"),
        pytest.param("M = 3", "M = 3.5", r"^line 4: .*'M'", id="bad-int"),
        pytest.param("psi_b = 1.0", "psi_b = one", r"^line 2: .*'psi_b'", id="bad-float"),
        pytest.param("width = 2", "width = two", r"^line 15: .*'width'", id="solver-bad-int"),
        pytest.param("pressure = 0.0", "pressure =", r"^line 12: .*'pressure'", id="empty-coefficients"),
        pytest.param("iota = 1.0", "iota = 1.0 x", r"^line 13: .*'iota'", id="bad-coefficients"),
        pytest.param("1 0 1.0 1.0", "1 0 1.0", r"^line 8: .*'1 0 1.0'", id="boundary-short-row"),
        pytest.param("1 0 1.0 1.0", "1 0 1.0 one", r"^line 8: .*'1 0 1.0 one'", id="boundary-bad-row"),
        pytest.param("0 3.1 0.0", "0 3.1", r"^line 10: .*'0 3.1'", id="axis-short-row"),
        pytest.param("0 3.1 0.0", "0 3.1 zero", r"^line 10: .*'0 3.1 zero'", id="axis-bad-row"),
        pytest.param("1 0 1.0 1.0", "1 0 1.0 1.0\n-1 0 0.1 0.1", r"^line 9: .*m=-1", id="boundary-m-negative"),
        pytest.param("1 0 1.0 1.0", "1 0 1.0 1.0\n3 0 0.1 0.1", r"^line 9: .*m=3", id="boundary-m-above-M"),
        pytest.param("1 0 1.0 1.0", "1 0 1.0 1.0\n1 2 0.1 0.1", r"^line 9: .*n=2", id="boundary-n-above-N"),
        pytest.param("1 0 1.0 1.0", "1 0 1.0 1.0\n0 -1 0.1 0.0", r"^line 9: .*n=-1", id="boundary-m0-n-negative"),
        pytest.param("0 0 3.0 0.0", "0 0 3.0 0.5", r"^line 7: .*\(0,0\) Z", id="boundary-00-Z"),
        pytest.param("0 3.1 0.0", "0 3.1 0.0\n-1 0.1 0.0", r"^line 11: .*n=-1", id="axis-n-negative"),
        pytest.param("0 3.1 0.0", "0 3.1 0.0\n2 0.1 0.0", r"^line 11: .*n=2", id="axis-n-above-N"),
        pytest.param("0 3.1 0.0", "2 3.0 0.0\n0 3.1 0.0", r"^line 10: .*n=2", id="axis-n-above-N-not-last"),
        pytest.param("N = 1\n", "", r"^t\.case: missing \[global\] key 'N'", id="missing-global-key"),
        pytest.param("iota = 1.0\n", "", r"^t\.case: missing \[profiles\] key 'iota'", id="missing-profiles-key"),
        pytest.param("0 0 3.0 0.0\n1 0 1.0 1.0\n", "", r"^t\.case: no \[boundary\] rows", id="no-boundary-rows"),
    ],
)
def test_parse_rejects_with_location(old, new, message):
    parse_case_text(REJECT_BASE, "t.case")
    assert old in REJECT_BASE
    with pytest.raises(CaseFileError, match=message):
        parse_case_text(REJECT_BASE.replace(old, new, 1), "t.case")


def test_parse_unknown_builtin():
    with pytest.raises(CaseFileError):
        parse_case("definitely-not-a-case")


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    input, config = dshape()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = nf.init_params(sets, 3, 5, input)
    digest = case_digest(input, config)
    path = tmp_path / "c.bin"
    save_checkpoint(path, params, digest, 42)
    loaded, digest2, iteration = load_checkpoint(path)
    assert digest2 == digest and iteration == 42
    assert np.array_equal(nf.params_to_vector(loaded), nf.params_to_vector(params))


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    input, config = dshape()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, nf.init_params(sets, 3, 5, input), b"\x01" * 32, 1)
    before = path.read_bytes()
    write_bytes = Path.write_bytes

    def half_write(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_write)
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, nf.init_params(sets, 3, 6, input), b"\x02" * 32, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def _write(kind, out: Path, seed: int) -> Path:
    """Write the file ``kind`` into ``out`` for a state of ``seed``; returns its path."""
    input, config = dshape()
    config = replace(config, seed=seed)
    if kind == "case.txt":
        cli_io.write_case(input, config, out / kind)
    elif kind == "eval_summary.json":
        sets = mode_set_pair(input.M, input.N, input.n_fp)
        save_checkpoint(out / "c.bin", nf.init_params(sets, 2, seed, input), case_digest(input, config), seed)
        (out / "case.txt").write_text(cli_io.case_text(input, config))
        if cli_io.cli(["eval", str(out / "c.bin"), "--case", str(out / "case.txt"), "--grid", "8"]) != 0:
            raise OSError("eval failed")
    else:  # a table and the summary of export_metrics
        sol = zero_net_solution(input)
        cli_io.export_metrics(replace(sol, termination_reason=f"seed-{seed}", f_norm_profile=sol.f_norm_profile + seed),
                              out)
    return out / kind


@pytest.mark.parametrize("kind", ["case.txt", "fnorm_profile.csv", "summary.json", "eval_summary.json"])
def test_a_failed_export_keeps_the_previous_file(tmp_path, monkeypatch, kind):
    path = _write(kind, tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_bytes = Path.write_bytes

    def half_write(self, data):
        if not self.name.startswith(kind + "."):
            return write_bytes(self, data)
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_write)
    with pytest.raises(OSError):
        _write(kind, tmp_path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before[kind]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert _write(kind, tmp_path, 2).read_bytes() != before[kind]


def test_checkpoint_rejects_a_flipped_payload_byte(tmp_path):
    input, config = dshape()
    path = tmp_path / "c.bin"
    save_checkpoint(path, nf.init_params(mode_set_pair(input.M, input.N, input.n_fp), 3, 5, input),
                    case_digest(input, config), 7)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"{path}: .*SHA-256"):
        load_checkpoint(path)


def test_checkpoint_loads_version_1(tmp_path):
    # version 1: magic, version, case digest, iteration, width, mode count,
    # M, N, n_fp, then the little-endian float64 vector, without a hash
    import struct

    input, config = dshape()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = nf.init_params(sets, 3, 5, input)
    digest = case_digest(input, config)
    header = struct.pack("<8sI32sQIIIII", b"EQNNCKPT", 1, digest, 42, 3, sets[0].size, input.M, input.N, input.n_fp)
    path = tmp_path / "v1.bin"
    path.write_bytes(header + nf.params_to_vector(params).astype("<f8").tobytes())
    loaded, digest2, iteration = load_checkpoint(path)
    assert digest2 == digest and iteration == 42
    assert np.array_equal(nf.params_to_vector(loaded), nf.params_to_vector(params))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"this is not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _version_1(path, width, k, M, N, n_fp, payload: bytes):
    import struct

    header = struct.pack("<8sI32sQIIIII", b"EQNNCKPT", 1, bytes(32), 0, width, k, M, N, n_fp)
    path.write_bytes(header + payload)
    return path


def test_checkpoint_rejects_a_payload_that_stops_mid_float(tmp_path):
    input, _ = dshape()
    params = nf.init_params(mode_set_pair(input.M, input.N, input.n_fp), 3, 5, input)
    payload = nf.params_to_vector(params).astype("<f8").tobytes()
    path = _version_1(tmp_path / "short.bin", 3, params.n_modes, input.M, input.N, input.n_fp, payload[:-3])
    with pytest.raises(ValueError, match=f"{path}: parameter payload has wrong length"):
        load_checkpoint(path)


@pytest.mark.parametrize("k, M, message", [
    (5, 2**32 - 1, "inconsistent mode count"),  # a corrupted M
    (10**6, 10**6, "parameter payload has wrong length"),  # a mode count the payload does not hold
])
def test_checkpoint_checks_its_header_before_building_the_mode_sets(tmp_path, monkeypatch, k, M, message):
    from equinn import spectral

    def unreachable(*args):
        raise AssertionError("mode sets built from an unchecked header")

    monkeypatch.setattr(spectral, "mode_set_pair", unreachable)
    payload = bytes(8 * 3 * (9 + 9 + 4 * 5))  # width 3 and 5 modes
    path = _version_1(tmp_path / "header.bin", 3, k, M, 0, 1, payload)
    with pytest.raises(ValueError, match=f"{path}: {message}"):
        load_checkpoint(path)


# -- poincare -----------------------------------------------------------------------


def test_poincare_boundary_points_match_dshape_values():
    input, _ = dshape()
    sol = zero_net_solution(input)
    export = poincare_section(sol.params, sol.input, zeta=0.0, surfaces=[1.0], n_theta=4)
    index, rho, theta, r, z = export.surfaces[0]
    assert rho == 1.0
    assert np.isclose(r[0], 2.616) and np.isclose(z[0], 0.0)  # theta = 0
    assert np.isclose(r[1], 3.404) and np.isclose(z[1], 1.47)  # theta = pi/2


def test_poincare_polylines_closed_and_sorted():
    input, _ = dshape()
    sol = zero_net_solution(input)
    export = poincare_section(sol.params, sol.input, surfaces=[0.9, 0.3, 0.6])
    rhos = [s[1] for s in export.surfaces]
    assert rhos == sorted(rhos)
    for _, _, theta, r, z in export.surfaces:
        assert r[0] == r[-1] and z[0] == z[-1]
    rows = list(export.rows())
    assert all(len(row) == 5 for row in rows)


def test_poincare_zero_network_gives_scaled_copies():
    text = """
[global]
psi_b = 1.0
n_fp = 1
M = 2
N = 0
[boundary]
0 0 3.0 0.0
1 0 1.1 1.3
[profiles]
pressure = 0.0
iota = 1.0
"""
    input, _ = parse_case_text(text)
    sol = zero_net_solution(input)
    theta = 2 * np.pi * np.arange(16) / 16
    export = poincare_section(sol.params, sol.input, surfaces=[0.25, 0.5, 1.0], n_theta=16)
    b_r, b_z = export.surfaces[-1][3], export.surfaces[-1][4]
    axis_r = 3.0
    for _, rho, _, r, z in export.surfaces[:-1]:
        assert np.allclose(r, axis_r + rho * (b_r - axis_r), atol=1e-12)
        assert np.allclose(z, rho * b_z, atol=1e-12)


def test_poincare_surfaces_do_not_intersect():
    input, _ = dshape()
    sol = zero_net_solution(input)
    export = poincare_section(sol.params, sol.input)
    curves = [np.column_stack([s[3], s[4]]) for s in export.surfaces]
    for a, b in zip(curves, curves[1:]):
        assert not polylines_cross(a, b)


def test_poincare_rejects_empty_and_exterior_surfaces():
    input, _ = dshape()
    sol = zero_net_solution(input)
    with pytest.raises(ValueError):
        poincare_section(sol.params, sol.input, surfaces=[])
    with pytest.raises(ValueError):
        poincare_section(sol.params, sol.input, surfaces=[1.5])


# -- straight-field-line contours ------------------------------------------------------


def test_invert_theta_star_identity_for_zero_lambda():
    for target in (0.0, 1.0, 4.5):
        theta = invert_theta_star(lambda t: 0.0, lambda t: 0.0, target)
        assert abs(theta - target) < 1e-12


def test_invert_theta_star_synthetic_surface():
    lam = lambda t: 0.1 * np.sin(t)
    dlam = lambda t: 0.1 * np.cos(t)
    assert abs(invert_theta_star(lam, dlam, 0.0)) < 1e-12
    theta = invert_theta_star(lam, dlam, np.pi / 2)
    oracle = brentq(lambda t: t + 0.1 * np.sin(t) - np.pi / 2, 0.0, np.pi, xtol=1e-14)
    assert abs(theta - oracle) < 1e-10
    assert abs(theta - 1.4712909841) < 1e-9  # frozen from the root-finding oracle
    assert abs(theta + lam(theta) - np.pi / 2) <= 1e-10


@pytest.mark.parametrize("coeffs", [(0.1,), (0.3, 0.1)], ids=["one-mode", "two-mode"])
def test_invert_theta_star_array_matches_scalar_calls(coeffs):
    m = np.arange(1, len(coeffs) + 1)
    lam = lambda t: sum(c * np.sin(k * t) for c, k in zip(coeffs, m))
    dlam = lambda t: sum(c * k * np.cos(k * t) for c, k in zip(coeffs, m))
    targets = np.linspace(-7.0, 13.0, 40).reshape(5, 8)
    batch = invert_theta_star(lam, dlam, targets)
    scalar = [invert_theta_star(lam, dlam, float(t)) for t in targets.ravel()]
    assert batch.shape == targets.shape
    assert np.array_equal(batch.ravel(), scalar)


def test_invert_theta_star_batch_fails_if_one_entry_cannot_be_bracketed():
    offset = np.array([0.0, 100.0, 0.0])  # theta + 100 = target has no root within 9 pi
    with pytest.raises(ThetaStarError, match="could not bracket"):
        invert_theta_star(lambda t: offset, lambda t: np.zeros(3), np.array([0.0, 1.0, 2.0]))


def test_theta_star_contours_evaluate_profiles_once(monkeypatch):
    input, _ = dshape()
    sol = zero_net_solution(input, lam_b2={(1, 0): 0.12})
    calls = []
    profile_stack = nf.profile_stack
    monkeypatch.setattr(nf, "profile_stack", lambda *a, **k: calls.append(1) or profile_stack(*a, **k))
    assert len(theta_star_contours(sol.params, sol.input)) == 8 * 32
    assert len(calls) == 1


def test_theta_star_contours_match_brentq_on_3d_case():
    # n_fp = 2, N = 2 at zeta = 0.3: lambda, R and Z all carry helical modes
    input, _ = parse_case_text(ELLIPSE_CASE, "ellipse")
    sol = zero_net_solution(input, width=3, lam_b2={(1, 0): 0.2, (1, 1): 0.1, (2, -1): 0.05})
    modes = (sol.params.modes_cos, sol.params.modes_sin)
    sol.params.vector[:] += nf.params_to_vector(nf.init_params(modes, 3, 0, input))
    zeta = 0.3
    rows = theta_star_contours(sol.params, sol.input, zeta=zeta)
    assert len(rows) == 8 * 32
    shift = 0.0
    for target, rho, r, z in rows:
        prof = nf.mode_profiles(sol.params, input, min(rho, 1 - 1e-12))
        lam = lambda t: synthesize(prof.lam, [t], [zeta]).value[0, 0]
        theta = brentq(lambda t: t + lam(t) - target, target - np.pi, target + np.pi, xtol=1e-14)
        shift = max(shift, abs(theta - target))
        assert abs(r - synthesize(prof.r, [theta], [zeta]).value[0, 0]) <= 1e-10
        assert abs(z - synthesize(prof.z, [theta], [zeta]).value[0, 0]) <= 1e-10
    assert shift > 0.05  # lambda moves the contours


def test_theta_star_contours_on_zero_lambda_solution():
    input, _ = dshape()
    sol = zero_net_solution(input)
    rows = theta_star_contours(sol.params, sol.input, targets=[0.0, np.pi / 2], rho_samples=[0.5, 1.0])
    assert len(rows) == 4
    for target, rho, r, z in rows:
        prof = nf.mode_profiles(sol.params, input, min(rho, 1 - 1e-12))
        prof_r, prof_z = (synthesize(c, [target], [0.0]).value[0, 0] for c in (prof.r, prof.z))
        assert np.isclose(r, prof_r) and np.isclose(z, prof_z)


def test_theta_star_contours_emission_tolerance():
    input, _ = dshape()
    sol = zero_net_solution(input, lam_b2={(1, 0): 0.12})
    rows = theta_star_contours(sol.params, sol.input, rho_samples=[0.4, 0.8])
    # the solver enforces |theta + lambda - theta*| <= 1e-10 at emission and
    # raises otherwise, so reaching here certifies every row
    assert len(rows) == 16
    targets = sorted({row[0] for row in rows})
    assert np.allclose(targets, 2 * np.pi * np.arange(8) / 8)


def test_theta_star_rejects_non_monotone_angle_map():
    input, _ = dshape()
    sol = zero_net_solution(input, lam_b2={(1, 0): 1.8})
    with pytest.raises(ThetaStarError, match="non-monotone"):
        theta_star_contours(sol.params, sol.input, rho_samples=[0.95])


# -- export -----------------------------------------------------------------------------


def test_export_metrics_schema(tmp_path):
    input, _ = dshape()
    sol = zero_net_solution(input)
    files = cli_io.export_metrics(sol, tmp_path)
    prof = (tmp_path / "fnorm_profile.csv").read_text().splitlines()
    assert prof[0] == "rho,f_norm_avg,spectral_width"
    assert len(prof) == 1 + sol.rho.size
    assert all(line.split(",")[1] == "0.0" for line in prof[1:])
    poinc = (tmp_path / "poincare.csv").read_text().splitlines()
    assert poinc[0] == "surface_index,rho,theta,R,Z"
    assert all(len(line.split(",")) == 5 for line in poinc[1:])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["termination_reason"] == "max-iter"
    assert summary["termination_error"] is None and summary["termination_node"] is None
    assert summary["n_parameters"] == sol.params.n_parameters
    node = [0.25, 1.5, 0.0]
    cli_io.export_metrics(replace(sol, termination_error="JacobianSignError", termination_node=node), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["termination_error"], summary["termination_node"]) == ("JacobianSignError", node)


# export_metrics at dshape's initial state (seed 0, no solve) with the full-grid
# profile; the digests were taken with the row-wise writer these tables had before
FROZEN_EXPORT_SHA256 = {
    "poincare.csv": "20b14c854265bd0ea7664f8abad915d5b340d5558865826d62a1953bf6dc2491",
    "theta_star.csv": "e1f574f68322e697f7a3808dbdd8ae424595b9fff9067c90aaf84a1a6edf2e1c",
    "fnorm_profile.csv": "ca0a83ffcb445d8d5ecfa5ef754d89c1bf36466c56509f403c2a7dfd2884cc88",
}


def test_exports_are_byte_identical_and_frozen(tmp_path):
    input, config = dshape()
    grid = CollocationGrid.build(config.n_rho, input.M, input.N, input.n_fp)
    asm = sv.LossAssembler(input, config.width, grid)
    params = nf.init_params((asm.modes_cos, asm.modes_sin), config.width, 0, input)
    x = nf.params_to_vector(params)
    ref = full_grid_metrics(asm, x)
    sol = sv.Solution(
        params=params, input=input, config=config,
        history=[sv.LossRecord(0, "init", asm.loss_value(x), 0.0)],
        f_vol_norm=ref["f_vol_norm"], f_norm_profile=ref["f_norm_profile"],
        rho=grid.rho.copy(), termination_reason="loaded",
    )
    first, second = tmp_path / "a", tmp_path / "b"
    files = cli_io.export_metrics(sol, first)
    cli_io.export_metrics(sol, second)
    for path in files.values():
        assert path.read_bytes() == (second / path.name).read_bytes(), path.name
    for name, digest in FROZEN_EXPORT_SHA256.items():
        assert hashlib.sha256((first / name).read_bytes()).hexdigest() == digest, name


def test_tables_format_each_float_as_its_repr(tmp_path):
    # repeated values, -0.0 beside 0.0, nan and inf, and an integer column:
    # one repr per distinct float must write what one repr per entry writes
    rng = np.random.default_rng(3)
    theta = np.tile(rng.normal(size=7), 5)
    rho = np.repeat([0.0, -0.0, 0.25, np.nan, np.inf], 7)
    index = np.repeat(np.arange(5), 7)
    columns = [index, rho, theta, -theta, rho * theta]
    path = tmp_path / "t.csv"
    cli_io._write_table(path, "i,a,b,c,d", columns)
    rows = zip(*([str(v) if c.dtype.kind == "i" else repr(v) for v in c.tolist()] for c in columns))
    want = "i,a,b,c,d\n" + "".join(",".join(row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()
    assert "-0.0" in want and ",0.0," in want


@pytest.mark.parametrize("target, reason, iterations", [(None, "max-iter", 12), (1e9, "target-reached", 0)])
def test_summary_counts_the_iterations_run(tmp_path, target, reason, iterations):
    input, _ = dshape()
    config = SolverConfig(
        width=2, n_rho=6, adamw=AdamWConfig(max_iter=10), bfgs=BFGSConfig(max_iter=2),
        checkpoint_every=0, target_fvol=target,
    )
    sol = sv.solve(replace(input, M=5), config)
    assert sol.termination_reason == reason
    cli_io.export_metrics(sol, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["iterations"] == iterations == sol.history[-1].iteration


# -- command line ------------------------------------------------------------------------


def test_cli_missing_case_exits_one(capsys):
    assert cli(["solve", "missing.case"]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_unknown_flag_lists_usage(capsys):
    assert cli(["solve", "dshape", "--frobnicate", "3"]) == 1
    err = capsys.readouterr().err
    assert "--seed" in err or "usage" in err.lower()


def test_cli_solve_eval_poincare_roundtrip(tmp_path):
    case = tmp_path / "small.case"
    case.write_text(
        """
[global]
psi_b = 1.0
n_fp = 1
M = 5
N = 0
[boundary]
0 0 3.51 0.0
1 0 -1.0 1.47
2 0 0.106 0.16
[profiles]
pressure = 1600.0 -3200.0 1600.0
iota = 1.0 -0.67
[solver]
width = 2
surfaces = 5
adam_iters = 25
bfgs_iters = 5
"""
    )
    out = tmp_path / "run"
    assert cli(["solve", str(case), "--out", str(out), "--seed", "1"]) == 0
    for name in (
        "case.txt", "checkpoint.bin", "fnorm_profile.csv", "loss_history.csv",
        "poincare.csv", "theta_star.csv", "summary.json",
    ):
        assert (out / name).exists(), name
    history = (out / "loss_history.csv").read_text().splitlines()
    assert history[0] == "iteration,stage,loss"
    assert len(history) == 1 + 1 + 25 + 5  # header, init record, both stages

    assert cli(["eval", str(out / "checkpoint.bin"), "--grid", "7,24", "--out", str(out)]) == 0
    eval_summary = json.loads((out / "eval_summary.json").read_text())
    assert eval_summary["grid"] == [7, 24, 1]

    assert cli(["poincare", str(out / "checkpoint.bin"), "--zeta", "0.0", "--out", str(out)]) == 0


def test_cli_solve_writes_the_final_state_once(tmp_path):
    case = tmp_path / "small.case"
    case.write_text(
        """
[global]
psi_b = 1.0
n_fp = 1
M = 5
N = 0
[boundary]
0 0 3.51 0.0
1 0 -1.0 1.47
2 0 0.106 0.16
[profiles]
pressure = 1600.0 -3200.0 1600.0
iota = 1.0 -0.67
[solver]
width = 2
surfaces = 5
adam_iters = 20
bfgs_iters = 3
checkpoint_every = 0
"""
    )
    out = tmp_path / "run"
    assert cli(["solve", str(case), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("checkpoint*.bin")) == ["checkpoint.bin"]
    last = (out / "loss_history.csv").read_text().splitlines()[-1].split(",")[0]
    assert load_checkpoint(out / "checkpoint.bin")[2] == int(last) == 23


def test_cli_eval_rejects_mismatched_case(tmp_path):
    input, config = dshape()
    sets = mode_set_pair(input.M, input.N, input.n_fp)
    params = nf.init_params(sets, 2, 0, input)
    ckpt = tmp_path / "c.bin"
    save_checkpoint(ckpt, params, b"\x00" * 32, 1)
    cli_io.write_case(input, config, tmp_path / "case.txt")
    assert cli(["eval", str(ckpt)]) == 1


def test_cli_gradcheck_small_passes(capsys):
    rc = cli(["gradcheck", "dshape", "--width", "1", "--modes", "3", "--surfaces", "4", "--samples", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative gradient error" in out


DIVERGING_CASE = """
[global]
psi_b = 1.0
n_fp = 1
M = 5
N = 0
[boundary]
0 0 3.51 0.0
1 0 -1.0 1.47
2 0 0.106 0.16
[profiles]
pressure = 1600.0 -3200.0 1600.0
iota = 1.0 -0.67
[solver]
width = 2
surfaces = 6
step = 1000.0
adam_iters = 200
bfgs_iters = 15
checkpoint_every = 0
"""


def test_cli_diverged_solve_reports(tmp_path, capsys):
    case = tmp_path / "diverging.case"
    case.write_text(DIVERGING_CASE)
    out = tmp_path / "run"
    assert cli(["solve", str(case), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination_reason"] == "diverged"
    assert summary["termination_error"] == "JacobianSignError"
    assert len(summary["termination_node"]) == 3
    assert np.isfinite(summary["f_vol_norm"])
    assert "diverged: stage 1 diverged at iteration" in capsys.readouterr().err


def test_cli_solve_reports_before_a_failed_section_export(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ThetaStarError("theta + lambda is non-monotone")

    monkeypatch.setattr(cli_io, "theta_star_contours", fail)
    case = tmp_path / "diverging.case"
    case.write_text(DIVERGING_CASE)
    out = tmp_path / "run"
    assert cli(["solve", str(case), "--out", str(out)]) == 2
    assert json.loads((out / "summary.json").read_text())["termination_reason"] == "diverged"
    captured = capsys.readouterr()
    assert "termination: diverged" in captured.out
    assert "diverged: stage 1 diverged" in captured.err
    assert "numerical failure: theta + lambda is non-monotone" in captured.err


def test_readme_lists_every_solver_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("`[solver]` keys", 1)[1].split("\n\n", 2)[1]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]] for line in table.splitlines()[2:]]
    assert rows == [[key, path] for key, (path, _) in cli_io._SOLVER_KEYS.items()]
