"""Case files, checkpoints, diagnostics export and the command line.

The case file is a minimal sectioned text format::

    [global]
    psi_b = 1.0
    n_fp = 1
    M = 11
    N = 0

    [boundary]
    # m  n  R  Z
    0  0  3.51   0.0
    1  0  -1.0   1.47
    2  0  0.106  0.16

    [axis]      # optional, one row per toroidal mode n
    0  3.51  0.0

    [profiles]
    pressure = 1600 -3200 1600   # polynomial in s = rho^2, pascals
    iota = 1.0 -0.67

    [solver]    # optional overrides
    width = 8
    surfaces = 50

Boundary rows hold the cosine R and sine Z harmonics of the last closed
flux surface (the convention shared with VMEC-style inputs: poloidal mode
m >= 0, signed toroidal mode n, combined angle m*theta - n*n_fp*zeta).

One table, ``_SECTIONS``, states the format: each key = value section maps
its keys to their value parsers, each row section gives its column names
and types.  The parser reads it and ``case_text`` writes [global] and
[profiles] from it; the [solver] keys and their ``SolverConfig`` field
paths are ``_SOLVER_KEYS``, which also drive ``equinn solve``'s overrides.
Unknown sections and keys, malformed values and rows, and modes outside
the resolution are rejected with the line they stand on.

Checkpoints are little-endian binary: an 8-byte magic, a format version, a
SHA-256 digest of the canonical case text, the iteration counter, the
layout header (width, modes, resolution) and the raw float64 parameter
arrays in canonical order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import netfield as nf
from . import solver as sv
from . import spectral
from .autodiff import NonFiniteLossError, grad_check
from .mhdkernel import CollocationGrid, JacobianSignError
from .netfield import EquilibriumInput, NetParams
from .solver import LossAssembler, Solution, SolverConfig
from .spectral import SurfaceCoefficients, build_mode_set

__all__ = [
    "CaseFileError",
    "ThetaStarError",
    "PoincareExport",
    "parse_case",
    "write_case",
    "case_text",
    "save_checkpoint",
    "load_checkpoint",
    "poincare_section",
    "theta_star_contours",
    "invert_theta_star",
    "export_metrics",
    "cli",
    "main",
]

CHECKPOINT_MAGIC = b"EQNNCKPT"
CHECKPOINT_VERSION = 2
# magic, version, case digest, iteration, width, mode count, M, N, n_fp, payload SHA-256 (v2)
_CHECKPOINT_HEADERS = {1: struct.Struct("<8sI32sQIIIII"), 2: struct.Struct("<8sI32sQIIIII32s")}
OUTDIR_ENV = "EQUINN_OUTDIR"

DSHAPE_CASE = """\
# D-shaped tokamak test case
[global]
psi_b = 1.0
n_fp = 1
M = 11
N = 0

[boundary]
# m  n  R  Z
0  0  3.51  0.0
1  0  -1.0  1.47
2  0  0.106  0.16

[profiles]
pressure = 1600.0 -3200.0 1600.0
iota = 1.0 -0.67

[solver]
width = 8
surfaces = 50
step = 0.0005
"""

BUILTIN_CASES = {"dshape": DSHAPE_CASE}


class CaseFileError(ValueError):
    """Malformed case file; the message carries the offending line."""


class ThetaStarError(RuntimeError):
    """The poloidal angle map theta + lambda is not invertible."""


# -- case parsing ---------------------------------------------------------------

# [solver] key -> (SolverConfig field path, type), in the order case_text writes them
_SOLVER_KEYS = {
    "width": ("width", int),
    "surfaces": ("n_rho", int),
    "theta": ("n_theta", int),
    "zeta": ("n_zeta", int),
    "seed": ("seed", int),
    "step": ("adamw.step", float),
    "beta1": ("adamw.beta1", float),
    "beta2": ("adamw.beta2", float),
    "weight_decay": ("adamw.weight_decay", float),
    "adam_iters": ("adamw.max_iter", int),
    "bfgs_iters": ("bfgs.max_iter", int),
    "param_tol": ("bfgs.param_tol", float),
    "grad_tol": ("bfgs.grad_tol", float),
    "target_fvol": ("target_fvol", float),
    "target_rel_tol": ("target_rel_tol", float),
    "checkpoint_every": ("checkpoint_every", int),
}
_TARGET_KEYS = ("target_fvol", "target_rel_tol")  # written only when target_fvol is set
_SOLVE_FLAGS = ("seed", "width", "surfaces", "target_fvol")  # `equinn solve --<key>` overrides


def _coefficients(value: str) -> np.ndarray:
    coeffs = np.array([float(tok) for tok in value.split()])
    if coeffs.size == 0:
        raise ValueError("need at least one coefficient")
    return coeffs


# key = value sections map each key (an EquilibriumInput field in [global] and
# [profiles]) to its value parser; row sections give their columns and types
_SECTIONS = {
    "global": {"psi_b": float, "n_fp": int, "M": int, "N": int},
    "boundary": ("m n R Z", (int, int, float, float)),
    "axis": ("n R Z", (int, float, float)),
    "profiles": {"pressure": _coefficients, "iota": _coefficients},
    "solver": {key: kind for key, (_, kind) in _SOLVER_KEYS.items()},
}


def _fail(lineno: int, message: str):
    raise CaseFileError(f"line {lineno}: {message}")


def _read_sections(text: str) -> dict:
    """Section name -> {key: value} or [(lineno, *row)], typed per ``_SECTIONS``."""
    found = {name: {} if isinstance(spec, dict) else [] for name, spec in _SECTIONS.items()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                _fail(lineno, f"unknown section [{section}]")
            continue
        if section is None:
            _fail(lineno, "content before any section header")
        spec = _SECTIONS[section]
        if isinstance(spec, dict):
            key, eq, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                _fail(lineno, f"expected 'key = value', got {line!r}")
            if key not in spec:
                _fail(lineno, f"unknown [{section}] key '{key}'")
            try:
                found[section][key] = spec[key](value)
            except ValueError:
                _fail(lineno, f"bad value for '{key}': {value!r}")
        else:
            columns, kinds = spec
            try:
                found[section].append((lineno, *[k(tok) for k, tok in zip(kinds, line.split(), strict=True)]))
            except ValueError:
                _fail(lineno, f"{section} row needs '{columns}', got {line!r}")
    return found


def parse_case_text(text: str, name: str = "<case>") -> tuple[EquilibriumInput, SolverConfig]:
    found = _read_sections(text)
    for section in ("global", "profiles"):
        for key in _SECTIONS[section]:
            if key not in found[section]:
                raise CaseFileError(f"{name}: missing [{section}] key '{key}'")
    boundary_rows, axis_rows = found["boundary"], found["axis"]
    if not boundary_rows:
        raise CaseFileError(f"{name}: no [boundary] rows")

    M, N, n_fp = (found["global"][key] for key in ("M", "N", "n_fp"))
    for lineno, m, n, _, zs in boundary_rows:
        if m < 0:
            _fail(lineno, f"poloidal mode m={m} must be non-negative")
        if m >= M:
            _fail(lineno, f"boundary mode m={m} exceeds the resolution (M={M})")
        if abs(n) > N:
            _fail(lineno, f"boundary mode n={n} exceeds the resolution (N={N})")
        if m == 0 and n < 0:
            _fail(lineno, f"m=0 rows use n >= 0 only (got n={n})")
        if m == 0 and n == 0 and zs != 0.0:
            _fail(lineno, "the (0,0) Z harmonic is a sine term and must be 0")
    for lineno, n, _, _ in axis_rows:
        if n < 0:
            _fail(lineno, f"axis rows use n >= 0 (got n={n})")
        if n > N:
            _fail(lineno, f"axis mode n={n} exceeds the resolution (N={N})")

    mb = max(r[1] for r in boundary_rows) + 1
    nb = max(abs(r[2]) for r in boundary_rows)
    cos_set = build_mode_set(mb, nb, n_fp, spectral.COSINE)
    sin_set = build_mode_set(mb, nb, n_fp, spectral.SINE)
    r_vals = np.zeros(cos_set.size)
    z_vals = np.zeros(sin_set.size)
    for _, m, n, rc, zs in boundary_rows:
        r_vals[cos_set.index_of(m, n)] = rc
        if (m, n) != (0, 0):
            z_vals[sin_set.index_of(m, n)] = zs

    axis_r = axis_z = None
    if axis_rows:
        size = max(r[1] for r in axis_rows) + 1
        axis_r, axis_z = np.zeros(size), np.zeros(size)
        for _, n, ra, za in axis_rows:
            axis_r[n], axis_z[n] = ra, za

    input = EquilibriumInput(
        boundary_r=SurfaceCoefficients(cos_set, r_vals),
        boundary_z=SurfaceCoefficients(sin_set, z_vals),
        axis_r=axis_r,
        axis_z=axis_z,
        **found["global"],
        **found["profiles"],
    )
    input.validate()

    config = SolverConfig()
    for key, value in found["solver"].items():
        config = _replace_path(config, _SOLVER_KEYS[key][0], value)
    return input, config


def _replace_path(obj, path: str, value):
    """Copy of the frozen dataclass ``obj`` with the dotted field ``path`` set."""
    name, _, rest = path.partition(".")
    return replace(obj, **{name: _replace_path(getattr(obj, name), rest, value) if rest else value})


def parse_case(path_or_name: str) -> tuple[EquilibriumInput, SolverConfig]:
    """Parse a case file, or a built-in case name such as ``dshape``."""
    if path_or_name in BUILTIN_CASES:
        return parse_case_text(BUILTIN_CASES[path_or_name], path_or_name)
    path = Path(path_or_name)
    if not path.exists():
        raise CaseFileError(f"case file not found: {path}")
    return parse_case_text(path.read_text(), str(path))


def _render(value, kind) -> str:
    """Case-file text of a value that ``kind`` parses back exactly."""
    if kind is _coefficients:
        return " ".join(repr(float(c)) for c in value)
    return repr(float(value)) if kind is float else str(value)


def _row(section: str, *values) -> str:
    return "  ".join(map(_render, values, _SECTIONS[section][1]))


def case_text(input: EquilibriumInput, config: SolverConfig) -> str:
    """Canonical case-file rendering; parse(case_text(x)) round-trips."""
    lines = ["[global]"]
    lines += [f"{key} = {_render(getattr(input, key), kind)}" for key, kind in _SECTIONS["global"].items()]
    lines += ["", "[boundary]"]
    cs, ss = input.boundary_r.mode_set, input.boundary_z.mode_set
    for i in range(cs.size):
        m, n = int(cs.m[i]), int(cs.n[i])
        rc = input.boundary_r.values[i]
        zs = 0.0 if (m == 0 and n == 0) else input.boundary_z.values[ss.index_of(m, n)]
        lines.append(_row("boundary", m, n, rc, zs))
    if input.axis_r is not None:
        lines += ["", "[axis]"]
        az = input.axis_z if input.axis_z is not None else np.zeros_like(input.axis_r)
        for n in range(input.axis_r.size):
            lines.append(_row("axis", n, input.axis_r[n], az[n]))
    lines += ["", "[profiles]"]
    lines += [f"{key} = {_render(getattr(input, key), kind)}" for key, kind in _SECTIONS["profiles"].items()]
    lines += ["", "[solver]"]
    for key, (path, kind) in _SOLVER_KEYS.items():
        if key in _TARGET_KEYS and config.target_fvol is None:
            continue
        lines.append(f"{key} = {_render(reduce(getattr, path.split('.'), config), kind)}")
    return "\n".join(lines) + "\n"


def write_case(input: EquilibriumInput, config: SolverConfig, path) -> None:
    Path(path).write_text(case_text(input, config))


def case_digest(input: EquilibriumInput, config: SolverConfig) -> bytes:
    return hashlib.sha256(case_text(input, config).encode()).digest()


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(path, params: NetParams, digest: bytes, iteration: int) -> None:
    """Little-endian binary dump of the parameter vector with provenance.

    Written to a temporary file in the target directory and moved over
    ``path`` in one step, so ``path`` always holds a whole checkpoint.  The
    header carries the payload's SHA-256, which :func:`load_checkpoint` checks.
    """
    modes = params.modes_cos
    data = np.asarray(nf.params_to_vector(params), dtype="<f8").tobytes()
    header = _CHECKPOINT_HEADERS[CHECKPOINT_VERSION].pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, digest, iteration, params.width, params.n_modes,
        modes.M, modes.N, modes.n_fp, hashlib.sha256(data).digest())
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(header + data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[NetParams, bytes, int]:
    """Parameters, case digest and iteration of a checkpoint of version 1 or 2."""
    blob = Path(path).read_bytes()
    version = int.from_bytes(blob[8:12], "little")
    header = _CHECKPOINT_HEADERS.get(version)
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if header is None:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < header.size:
        raise ValueError(f"{path}: truncated checkpoint")
    _, _, digest, iteration, width, k, M, N, n_fp, *sha = header.unpack_from(blob)
    if sha and hashlib.sha256(blob[header.size :]).digest() != sha[0]:
        raise ValueError(f"{path}: checkpoint payload does not match its SHA-256")
    vec = np.frombuffer(blob, dtype="<f8", offset=header.size).astype(float)
    modes_cos, modes_sin = spectral.mode_set_pair(M, N, n_fp)
    if k != modes_cos.size:
        raise ValueError(f"{path}: inconsistent mode count")
    template = NetParams.zeros(width, modes_cos, modes_sin)
    if vec.size != template.n_parameters:
        raise ValueError(f"{path}: parameter payload has wrong length")
    params = nf.vector_to_params(vec, template)
    return params, digest, iteration


# -- flux-surface exports ----------------------------------------------------------


@dataclass
class PoincareExport:
    """Closed cross-section polylines at fixed zeta, innermost first."""

    zeta: float
    surfaces: list  # (index, rho, theta, R, Z) with closed polylines

    def rows(self):
        return zip(*self.columns())

    def columns(self) -> list:
        """(surface_index, rho, theta, R, Z) over all points, as five arrays."""
        parts = [(np.full(t.size, i), np.full(t.size, rho), t, r, z) for i, rho, t, r, z in self.surfaces]
        return [np.concatenate(col) for col in zip(*parts)]


def poincare_section(
    params: NetParams,
    input: EquilibriumInput,
    zeta: float = 0.0,
    surfaces: Optional[Sequence[float]] = None,
    n_theta: int = 256,
) -> PoincareExport:
    """Cross-sections of nested flux surfaces at one toroidal angle.

    Interior surfaces come from one batched profile evaluation; surfaces at
    rho = 1 use the boundary coefficients.
    """
    if surfaces is None:
        surfaces = np.linspace(0.1, 1.0, 10)
    surfaces = np.sort(np.asarray(surfaces, dtype=float))
    if surfaces.size == 0:
        raise ValueError("need at least one surface")
    if np.any(surfaces <= 0.0) or np.any(surfaces > 1.0):
        raise ValueError("surface labels must lie in (0, 1]")
    inner = surfaces < 1.0
    coeffs = np.empty((2, surfaces.size, params.n_modes))  # (R, Z), surface, mode
    coeffs[0, ~inner] = nf.padded_boundary(input.boundary_r, params.modes_cos)
    coeffs[1, ~inner] = nf.padded_boundary(input.boundary_z, params.modes_sin)
    if inner.any():
        coeffs[:, inner] = nf.profile_stack(params, input, surfaces[inner]).jets[0, ::2]
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    angle = spectral.mode_angles(params.modes_cos, theta, [zeta])
    r, z = np.einsum("fsk,fka->fsa", coeffs, np.stack([np.cos(angle), np.sin(angle)]), optimize=False)
    theta_closed = np.concatenate([theta, theta[:1]])
    out = [
        (index, float(rho), theta_closed, np.append(r[index], r[index, 0]), np.append(z[index], z[index, 0]))
        for index, rho in enumerate(surfaces)
    ]
    return PoincareExport(zeta=float(zeta), surfaces=out)


def invert_theta_star(
    lam: Callable,
    dlam: Callable,
    target,
    tol: float = 1e-12,
    max_iter: int = 80,
):
    """Solve theta + lambda(theta) = target by safeguarded Newton iteration.

    ``target`` may be an array; ``lam`` and ``dlam`` evaluate lambda and its
    theta derivative on arrays of its shape.  Each entry's bracket is grown
    by pi until it straddles the root, Newton steps that leave it fall back
    to bisection, and an entry stops once |residual| <= tol.  A scalar
    target gives a scalar angle.
    """
    target = np.asarray(target, dtype=float)

    def g(t):
        return t + lam(t) - target

    lo, hi = target - np.pi, target + np.pi
    for _ in range(8):
        low, high = g(lo) > 0.0, g(hi) < 0.0
        if not (low.any() or high.any()):
            break
        lo, hi = lo - np.pi * low, hi + np.pi * high
    else:
        if np.any(g(lo) > 0.0) or np.any(g(hi) < 0.0):
            raise ThetaStarError("could not bracket the straight-field-line angle")

    t = np.clip(target, lo, hi)
    for _ in range(max_iter):
        gt = g(t)
        live = np.abs(gt) > tol
        if not live.any():
            return t if t.ndim else float(t)
        hi = np.where(live & (gt > 0.0), t, hi)
        lo = np.where(live & (gt <= 0.0), t, lo)
        slope = 1.0 + dlam(t)
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = np.where(slope > 0.0, t - gt / slope, mid)
        t_new = np.where((lo < t_new) & (t_new < hi), t_new, mid)
        t = np.where(live, t_new, t)
    raise ThetaStarError(f"no convergence towards theta* = {target[live].flat[0]}")


def theta_star_contours(
    params: NetParams,
    input: EquilibriumInput,
    targets: Optional[Sequence[float]] = None,
    zeta: float = 0.0,
    rho_samples: Optional[Sequence[float]] = None,
) -> list:
    """(theta*, rho, R, Z) rows along fixed straight-field-line angles.

    Arcs run from near the axis to the boundary; by default eight equally
    spaced theta* targets.  A surface on which theta + lambda is not
    monotone (|d lambda / d theta| >= 1 somewhere) is reported as an error.
    All surfaces come from one batched profile evaluation and all (surface,
    target) pairs are solved together.
    """
    if targets is None:
        targets = 2.0 * np.pi * np.arange(8) / 8.0
    if rho_samples is None:
        rho_samples = np.linspace(1.0 / 32.0, 1.0, 32)
    targets = np.asarray(targets, dtype=float)
    rho = np.asarray(rho_samples, dtype=float)
    stack = nf.profile_stack(params, input, np.minimum(rho, 1.0 - 1e-12))
    r_c, lam_c, z_c = stack.jets[0]  # (surface, mode) each

    m = params.modes_sin.m.astype(float)
    probe = 2.0 * np.pi * np.arange(720) / 720.0
    # the d/dtheta row of the sine parity: m cos(m theta - n n_fp zeta)
    d_theta = m[:, None] * np.cos(spectral.mode_angles(params.modes_sin, probe, [zeta]))
    # einsum, not BLAS: the threads of an OpenBLAS GEMM keep spinning after it
    # and take the core of the kernel's worker thread (the ellipse3d bench's
    # fine-grid metrics right after took 62 ms instead of 38)
    monotone = (1.0 + np.einsum("sk,ka->sa", lam_c, d_theta, optimize=False)).min(axis=1) > 0.0
    if not monotone.all():
        raise ThetaStarError(
            f"theta + lambda is non-monotone on surface rho={rho[np.argmin(monotone)]:.4f}: "
            "|d lambda/d theta| >= 1"
        )

    n_zeta = (params.modes_sin.n * params.modes_sin.n_fp).astype(float) * zeta
    dlam_c = lam_c * m

    def angle(t):  # (surface, target) -> (surface, target, mode)
        return m * t[..., None] - n_zeta

    def lam(t):
        return (lam_c[:, None] * np.sin(angle(t))).sum(axis=-1)

    def dlam(t):
        return (dlam_c[:, None] * np.cos(angle(t))).sum(axis=-1)

    target = np.broadcast_to(targets, (rho.size, targets.size))
    theta = invert_theta_star(lam, dlam, target)
    if np.any(np.abs(theta + lam(theta) - target) > 1e-10):
        raise ThetaStarError("contour solve lost precision")
    # R and Z contract as spectral.synthesize does, so rows match it bit for bit
    a = angle(theta)
    r = np.einsum("sk,stk->st", r_c, np.cos(a), optimize=False)
    z = np.einsum("sk,stk->st", z_c, np.sin(a), optimize=False)
    rho_col = np.broadcast_to(rho[:, None], target.shape)
    rows = zip(*(x.ravel().tolist() for x in (target, rho_col, r, z)))
    return sorted(rows, key=lambda row: row[:2])


# -- metric export ------------------------------------------------------------------


def _write_table(path, header: str, columns) -> None:
    """CSV from equal-length columns: float columns as ``repr`` text, the
    shortest that round-trips, and every other column as ``str``."""
    cells = []
    for col in columns:
        col = np.asarray(col)
        cells.append(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def _write_fnorm(out: Path, rho, profile, params: NetParams, input: EquilibriumInput):
    """fnorm_profile.csv, with the spectral width per radius from one batched
    profile evaluation; returns the path and the widths."""
    value = nf.profile_stack(params, input, rho).jets[0]
    widths = spectral.spectral_width(params.modes_cos, params.modes_sin, value[0], value[2])
    path = out / "fnorm_profile.csv"
    _write_table(path, "rho,f_norm_avg,spectral_width", [rho, profile, widths])
    return path, widths


def _write_sections(params: NetParams, input: EquilibriumInput, out: Path, zeta: float = 0.0) -> dict:
    """poincare.csv and theta_star.csv at one toroidal angle."""
    files = {"poincare": out / "poincare.csv", "theta_star": out / "theta_star.csv"}
    _write_table(files["poincare"], "surface_index,rho,theta,R,Z",
                 poincare_section(params, input, zeta=zeta).columns())
    _write_table(files["theta_star"], "theta_star,rho,R,Z",
                 zip(*theta_star_contours(params, input, zeta=zeta)))
    return files


def export_metrics(solution: Solution, out_dir) -> dict:
    """Write plot-ready tables and the run summary; returns the file map.

    summary.json is written before the section tables, so a state whose
    sections cannot be drawn (ThetaStarError) still leaves its report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params, input, history = solution.params, solution.input, solution.history
    files = {}

    # per-surface residuals and spectral width
    files["fnorm_profile"], msp = _write_fnorm(out, solution.rho, solution.f_norm_profile, params, input)

    files["loss_history"] = out / "loss_history.csv"
    _write_table(
        files["loss_history"],
        "iteration,stage,loss",
        [[r.iteration for r in history], [r.stage for r in history], [r.loss for r in history]],
    )

    summary = {
        "f_vol_norm": float(solution.f_vol_norm),
        "termination_reason": solution.termination_reason,
        "termination_detail": solution.termination_detail,
        "termination_error": solution.termination_error,
        "termination_node": solution.termination_node,
        "n_parameters": params.n_parameters,
        "final_loss": float(history[-1].loss) if history else None,
        "iterations": history[-1].iteration if history else 0,
        "wall_time_s": float(history[-1].wall_time) if history else 0.0,
        "width": params.width,
        "M": input.M,
        "N": input.N,
        "n_fp": input.n_fp,
        "surfaces": int(solution.rho.size),
        "seed": solution.config.seed,
        "spectral_width": [float(w) for w in msp],
    }
    files["summary"] = out / "summary.json"
    files["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    files.update(_write_sections(params, input, out))
    return files


# -- command line ---------------------------------------------------------------------


class _CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliUsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="equinn", description="Fixed-boundary ideal-MHD equilibrium solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a case and export diagnostics")
    p_solve.add_argument("case", help="case file path or built-in name (e.g. dshape)")
    p_solve.add_argument("--out", default=None, help="output directory")
    for key in _SOLVE_FLAGS:
        p_solve.add_argument("--" + key.replace("_", "-"), type=_SOLVER_KEYS[key][1], default=None)
    p_solve.set_defaults(run=_cmd_solve)

    p_eval = sub.add_parser("eval", help="recompute residual metrics from a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--case", default=None, help="case file (default: case.txt beside the checkpoint)")
    p_eval.add_argument("--grid", default=None, help="evaluation grid 'NRHO[,NTHETA[,NZETA]]'")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(run=_cmd_eval)

    p_poinc = sub.add_parser("poincare", help="export flux-surface sections from a checkpoint")
    p_poinc.add_argument("checkpoint")
    p_poinc.add_argument("--case", default=None)
    p_poinc.add_argument("--zeta", type=float, default=0.0)
    p_poinc.add_argument("--out", default=None)
    p_poinc.set_defaults(run=_cmd_poincare)

    p_grad = sub.add_parser("gradcheck", help="verify the loss gradient against finite differences")
    p_grad.add_argument("case")
    p_grad.add_argument("--width", type=int, default=2)
    p_grad.add_argument("--surfaces", type=int, default=8)
    p_grad.add_argument("--modes", type=int, default=5, help="cap on the poloidal mode count")
    p_grad.add_argument("--samples", type=int, default=64)
    p_grad.add_argument("--step", type=float, default=1e-4)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(run=_cmd_gradcheck)
    return parser


def _out_dir(flag: Optional[str], fallback: str) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env) / fallback
    return Path(fallback)


def _load_for_checkpoint(checkpoint: str, case_flag: Optional[str]):
    params, digest, iteration = load_checkpoint(checkpoint)
    case_path = case_flag or str(Path(checkpoint).parent / "case.txt")
    input, config = parse_case(case_path)
    if case_digest(input, config) != digest:
        raise CaseFileError(
            f"case '{case_path}' does not match the checkpoint digest; "
            "pass the run's own case file with --case"
        )
    return params, input, config, iteration


def _cmd_solve(args) -> int:
    input, config = parse_case(args.case)
    for key in _SOLVE_FLAGS:
        if getattr(args, key) is not None:
            config = _replace_path(config, _SOLVER_KEYS[key][0], getattr(args, key))

    stem = Path(args.case).stem if args.case not in BUILTIN_CASES else args.case
    out = _out_dir(args.out, f"{stem}_out")
    out.mkdir(parents=True, exist_ok=True)
    write_case(input, config, out / "case.txt")
    digest = case_digest(input, config)
    template = NetParams.zeros(config.width, *spectral.mode_set_pair(input.M, input.N, input.n_fp))

    def on_checkpoint(iteration, vec):
        snap = nf.vector_to_params(np.asarray(vec, dtype=float), template)
        save_checkpoint(out / f"checkpoint_{iteration:06d}.bin", snap, digest, iteration)

    solution = sv.solve(input, config, on_checkpoint=on_checkpoint)
    last = solution.history[-1].iteration if solution.history else 0
    save_checkpoint(out / "checkpoint.bin", solution.params, digest, last)
    print(f"termination: {solution.termination_reason}")
    print(f"F_vol_norm: {solution.f_vol_norm:.6e}")
    diverged = solution.termination_reason == "diverged"
    if diverged:
        print(f"diverged: {solution.termination_detail}", file=sys.stderr)
    export_metrics(solution, out)
    print(f"outputs in {out}")
    return 2 if diverged else 0


def _parse_grid_flag(flag: Optional[str], config: SolverConfig) -> tuple[int, int, int]:
    if not flag:
        return config.n_rho, config.n_theta, config.n_zeta
    parts = flag.split(",")
    if len(parts) > 3:
        raise CaseFileError(f"bad --grid value {flag!r}; use 'NRHO[,NTHETA[,NZETA]]'")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise CaseFileError(f"bad --grid value {flag!r}") from None
    nums += [0] * (3 - len(nums))
    return nums[0], nums[1], nums[2]


def _cmd_eval(args) -> int:
    params, input, config, iteration = _load_for_checkpoint(args.checkpoint, args.case)
    n_rho, n_theta, n_zeta = _parse_grid_flag(args.grid, config)
    grid = CollocationGrid.build(n_rho, input.M, input.N, input.n_fp, n_theta, n_zeta)
    assembler = LossAssembler(input, params.width, grid)
    metrics = assembler.metrics(nf.params_to_vector(params))

    out = _out_dir(args.out, str(Path(args.checkpoint).parent))
    out.mkdir(parents=True, exist_ok=True)
    _write_fnorm(out, grid.rho, metrics["f_norm_profile"], params, input)
    summary = {
        "f_vol_norm": metrics["f_vol_norm"],
        "loss": metrics["loss"],
        "checkpoint_iteration": iteration,
        "grid": [grid.n_rho, grid.theta.size, grid.zeta.size],
    }
    (out / "eval_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"F_vol_norm: {metrics['f_vol_norm']:.6e}")
    return 0


def _cmd_poincare(args) -> int:
    params, input, _, _ = _load_for_checkpoint(args.checkpoint, args.case)
    out = _out_dir(args.out, str(Path(args.checkpoint).parent))
    out.mkdir(parents=True, exist_ok=True)
    _write_sections(params, input, out, zeta=args.zeta)
    print(f"sections written to {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    input, config = parse_case(args.case)
    M = min(input.M, args.modes)
    if M < input.boundary_M:
        M = input.boundary_M
    input = replace(input, M=M)
    grid = CollocationGrid.build(args.surfaces, input.M, input.N, input.n_fp)
    assembler = LossAssembler(input, args.width, grid)
    params = nf.init_params(
        (assembler.modes_cos, assembler.modes_sin), args.width, args.seed, input
    )
    vec = nf.params_to_vector(params)
    err = grad_check(
        assembler._loss_expr,
        vec,
        step=args.step,
        samples=args.samples,
        seed=args.seed,
        fd_loss=assembler.loss_value_precise,
    )
    print(f"max relative gradient error over {min(args.samples, vec.size)} entries: {err:.3e}")
    if err > 1e-6:
        print("FAIL: analytic gradient disagrees with finite differences", file=sys.stderr)
        return 2
    return 0


def cli(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line; returns the exit status (0 ok, 1 usage, 2 numeric)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliUsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except (CaseFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (JacobianSignError, NonFiniteLossError, ThetaStarError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
