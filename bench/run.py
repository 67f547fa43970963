"""equinn benchmark: solve and post-processing workloads, end to end and per layer.

Run from the root of a repository checkout::

    python3 bench/run.py --workload dshape-solve --seed 1 --seconds 55 --trace 0

The equinn package is imported from ``src/`` of that checkout.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report (machine info, median / high percentile / sample count of every
timing, per-layer self times).  A full report, with the recorded spans of a
traced run, is written to ``.bench_out/``.

Workloads (each one process, single-threaded, closed loop: the next call
starts when the previous one has returned):

* ``dshape-solve``: the built-in D-shaped tokamak (561 parameters, 2,200
  nodes) solved with a truncated AdamW + BFGS budget; the tape is ~500 nodes
  of small arrays, so per-node Python overhead dominates.
* ``ellipse3d-solve``: the rotating-ellipse stellarator in
  ``ellipse3d.case`` (3,072 parameters, 24,576 nodes), short AdamW then
  BFGS; array arithmetic and the O(n^2) dense BFGS update dominate.
Each solve is followed by three post-processing cycles of its checkpoint:
load, residual metrics on a grid twice as fine in rho and theta, export of
every table, save.  They run the kernel forward without the tape and
exercise the file layer, so a change that speeds the taped path can show a
loss in ``post_s``.

``--trace 1`` splits the time in two halves: the first runs untraced, the
second with every public layer function wrapped (see ``spans.py``), so the
per-layer metrics come with the tracing overhead measured in the same
process.  Every layer runs in the calling thread and nothing is queued, so
the time any layer waits is zero by construction and is not reported.

``--smoke`` shrinks every budget so that a run takes seconds; it checks the
harness, not the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ELLIPSE3D = Path(__file__).resolve().parent / "ellipse3d.case"


if not (SRC / "equinn" / "__init__.py").is_file():
    sys.exit(f"bench: no equinn sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import equinn  # noqa: E402
from equinn import autodiff as ad  # noqa: E402
from equinn import cli_io, spectral  # noqa: E402
from equinn import mhdkernel as mk  # noqa: E402
from equinn import netfield as nf  # noqa: E402
from equinn import solver as sv  # noqa: E402

if Path(equinn.__file__).resolve().parent != (SRC / "equinn").resolve():
    sys.exit(f"bench: imported equinn from {equinn.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    case: str
    adamw: int  # iteration budget of each solve
    bfgs: int
    fvol_gate: float  # F_vol_norm every solve must reach within its budget


# Why each workload was chosen is recorded in BENCHMARK.json.
# F_vol_norm gates come from seeds 1-10 of the budgets here (dshape 300+100:
# 2.8e-2 to 3.5e-2; ellipse3d 20+8: 0.68 to 0.80, from ~8.5 at the start),
# with margin for float reordering, which can move the final value by ~10%.
WORKLOADS = {
    "dshape-solve": Workload("dshape", 300, 100, 0.07),
    "ellipse3d-solve": Workload(str(ELLIPSE3D), 20, 8, 1.2),
}
SMOKE_BUDGET = (3, 2)
SMOKE_GATE = 20.0  # F_vol_norm at initialization is ~4.5 (dshape) and ~8.5 (ellipse3d)
SAMPLE_KEYS = ("solve_s", "adamw_iter", "bfgs_iter", "post_s", "setup_s")
SETUP_REPEATS = 3  # per cycle
POSTS_PER_SOLVE = 3  # post-processing cycles of each solve's checkpoint

END_TO_END = {
    "solve_s": "s",
    "adamw_iter_ms": "ms",
    "bfgs_iter_ms": "ms",
    "post_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> the end-to-end metric it should move, and where.
LAYER_MAP = {
    "autodiff.backward_ms": "adamw_iter_ms, bfgs_iter_ms: per-node overhead on dshape-solve, array work on ellipse3d-solve",
    "autodiff.tape_nodes": "adamw_iter_ms, bfgs_iter_ms on dshape-solve",
    "autodiff.tape_mb": "peak_rss_mb on ellipse3d-solve (computed from array sizes)",
    "mhdkernel.geometry_ms": "adamw_iter_ms, bfgs_iter_ms, mostly on ellipse3d-solve",
    "mhdkernel.magnetic_field_ms": "control: small on both solve workloads",
    "mhdkernel.current_ms": "adamw_iter_ms, bfgs_iter_ms, mostly on ellipse3d-solve",
    "mhdkernel.force_ms": "control: small on both solve workloads",
    "netfield.profile_stack_ms": "adamw_iter_ms on dshape-solve; ~1% of an evaluation on ellipse3d-solve",
    "solver.value_and_grad_ms": "adamw_iter_ms, bfgs_iter_ms, solve_s on both solve workloads",
    "solver.value_and_grad_unattributed_ms": "adamw_iter_ms, bfgs_iter_ms: evaluation time outside the traced layers",
    "solver.value_and_grad_calls": "solve_s on both solve workloads (evaluations per solve)",
    "solver.bfgs_update_ms": "bfgs_iter_ms on ellipse3d-solve, barely on dshape-solve, never adamw_iter_ms",
    "solver.adamw_update_ms": "control: expected near zero",
    "solver.line_search_evals_per_iter": "bfgs_iter_ms on both solve workloads",
    "solver.metrics_ms": "post_s only, on both workloads",
    "cli_io.theta_star_contours_ms": "post_s on both workloads; nothing on the solve metrics",
    "cli_io.poincare_section_ms": "post_s on both workloads; nothing on the solve metrics",
    "cli_io.export_metrics_ms": "post_s on both workloads; nothing on the solve metrics",
    "cli_io.save_checkpoint_ms": "post_s on both workloads; nothing on the solve metrics",
    "cli_io.load_checkpoint_ms": "post_s on both workloads; nothing on the solve metrics",
    "cli_io.checkpoint_bytes": "post_s on both workloads; nothing on the solve metrics",
    "trace.solve_overhead_pct": "none: traced minus untraced median solve_s",
    "trace.post_overhead_pct": "none: traced minus untraced median post_s",
}
PER_LAYER_UNITS = {
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "solver.value_and_grad_calls": "count",
    "solver.line_search_evals_per_iter": "evals/iter",
    "cli_io.checkpoint_bytes": "bytes",
    "trace.solve_overhead_pct": "%",
    "trace.post_overhead_pct": "%",
}


# -- measurement helpers ------------------------------------------------------------


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = np.sort(np.asarray(values, dtype=float))
    out = {"median": float(np.median(xs)), "n": int(xs.size)}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if xs.size * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = float(np.percentile(xs, p))
            break
    return out


def machine_info(args) -> dict:
    cpu = platform.machine()  # platform.processor() may start a subprocess
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_iteration_times(history, stage: str) -> list:
    """Seconds per iteration from consecutive wall times within one stage."""
    t = [rec.wall_time for rec in history if rec.stage == stage]
    return list(np.diff(t))


def vector_digest(params) -> str:
    return hashlib.sha256(nf.params_to_vector(params).tobytes()).hexdigest()


class CheckFailed(AssertionError):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_jacobian(assembler, params) -> None:
    """sqrt(g) is finite, nonzero and of one sign at every training node."""
    state = assembler.field_state(params)
    sqrtg = ad.value_of(state.sqrtg)
    check(bool(np.all(np.isfinite(sqrtg))), "non-finite Jacobian at the final state")
    check(bool(np.all(np.sign(sqrtg) == np.sign(sqrtg.flat[0])) and np.all(sqrtg != 0.0)),
          "Jacobian is not single-signed at the final state")


def check_theta_star(params, input, path: Path) -> None:
    """Re-derive theta from every theta* row and check residual and position.

    Newton iteration on theta + lambda(theta) = theta*, with lambda from
    spectral synthesis rather than the exporter's own series evaluation.
    """
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    check(rows.shape[0] > 0, "theta_star.csv is empty")
    zeta = np.zeros(1)
    for rho in np.unique(rows[:, 1]):
        sel = rows[rows[:, 1] == rho]
        prof = nf.mode_profiles(params, input, min(float(rho), 1.0 - 1e-12))
        target = sel[:, 0]
        theta = target.copy()
        for _ in range(60):
            lam = spectral.synthesize(prof.lam, theta, zeta)
            g = theta + lam.value[:, 0] - target
            if np.max(np.abs(g)) <= 1e-13:
                break
            theta = theta - g / (1.0 + lam.d_theta[:, 0])
        lam = spectral.synthesize(prof.lam, theta, zeta).value[:, 0]
        residual = float(np.max(np.abs(theta + lam - target)))
        check(residual <= 1e-10, f"theta* residual {residual:.2e} > 1e-10 at rho={rho}")
        r = spectral.synthesize(prof.r, theta, zeta).value[:, 0]
        z = spectral.synthesize(prof.z, theta, zeta).value[:, 0]
        err = max(np.max(np.abs(r - sel[:, 2])), np.max(np.abs(z - sel[:, 3])))
        check(err <= 1e-9 * (1.0 + np.max(np.abs(r))), f"theta* contour point off by {err:.2e}")


class Calibration:
    """Speed of the shared machine, from a fixed kernel that does not use equinn.

    On a shared host all code slows down together, by tens of percent over a
    minute: one fixed loop measured 2.8 to 4.4 ms per call in consecutive
    10 s windows, with CPU time tracking wall time.  The kernel is a small
    reverse sweep of its own (100 elementwise nodes on 2,200-element arrays,
    with closures), timed in short bursts between operations.  Reported
    timings are scaled by ``REFERENCE_MS / median kernel time`` over the
    bursts within ``WINDOW_S`` of each timing: they read as milliseconds on
    the idle machine, and most of the drift cancels.  In a
    240 s probe the spread of 24 s medians of one evaluation fell from 9% to
    2.7% (dshape) and from 7% to 2.7% (ellipse3d) after scaling.
    """

    REFERENCE_MS = 1.6  # median kernel time on an idle 2-vCPU Intel Xeon
    BURST = 10
    EVERY_S = 1.0
    WINDOW_S = 5.0

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, kernel seconds)
        self._last = -float("inf")
        self._x = np.linspace(0.5, 1.5, 2200)

    def kernel(self):
        x, tape, v = self._x, [], self._x
        for _ in range(100):
            w = v * 0.999 + x
            tape.append(lambda g, v=v: g * v)
            v = w / (x + 1.0)
        g = np.ones_like(v)
        for vjp in reversed(tape):
            g = vjp(g) + g * 0.5
        return g

    def sample(self, force: bool = False) -> None:
        """One burst, unless the last one is less than ``EVERY_S`` old."""
        if not force and time.perf_counter() - self._last < self.EVERY_S:
            return
        for _ in range(self.BURST):
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        self._last = time.perf_counter()

    def factor(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """Scale for a timing taken between ``start`` and ``end``."""
        near = [d for t, d in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return self.REFERENCE_MS / (1e3 * statistics.median(near or [d for _, d in self.samples]))


# -- the workload -------------------------------------------------------------------


class Bench:
    """One benchmark run: set-up, timed cycles, output checks and metrics."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        adamw, bfgs = SMOKE_BUDGET if args.smoke else (self.spec.adamw, self.spec.bfgs)
        self.fvol_gate = SMOKE_GATE if args.smoke else self.spec.fvol_gate
        self.workdir = workdir
        input, config = cli_io.parse_case(self.spec.case)
        self.input = input
        self.config = replace(
            config,
            seed=args.seed,
            adamw=replace(config.adamw, max_iter=adamw),
            bfgs=replace(config.bfgs, max_iter=bfgs),
        )
        self.digest = cli_io.case_digest(self.input, self.config)
        self.samples = {k: [] for k in SAMPLE_KEYS}  # raw seconds
        self.times = {k: [] for k in SAMPLE_KEYS}  # (start, end) of the call behind each sample
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.solve_results: list[tuple] = []  # (final loss, vector digest) per solve
        self.f_vol_norms: list[float] = []
        self.theta_star_digests: set = set()
        self.theta_star_checked = False
        self.tracer: Tracer | None = None
        self.calibration = Calibration()

    # -- set-up ---------------------------------------------------------------

    def fine_grid(self):
        """Twice the training resolution in rho and theta."""
        c, i = self.config, self.input
        return mk.CollocationGrid.build(2 * c.n_rho, i.M, i.N, i.n_fp, 8 * i.M, c.n_zeta)

    def setup_solve(self):
        """Case parse, grid, loss assembler and initial parameters."""
        input, config = cli_io.parse_case(self.spec.case)
        config = replace(config, seed=self.args.seed)
        grid = mk.CollocationGrid.build(
            config.n_rho, input.M, input.N, input.n_fp, config.n_theta, config.n_zeta
        )
        assembler = sv.LossAssembler(input, config.width, grid)
        nf.init_params((assembler.modes_cos, assembler.modes_sin), config.width, config.seed, input)
        return assembler

    def measure_setup(self, setup, repeats: int):
        result = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = setup()
            self.record("setup_s", [time.perf_counter() - t0], t0)
        return result

    # -- operations -------------------------------------------------------------

    def operation(self, label: str, fn) -> None:
        """Run one counted operation; a raised error or failed check counts as failed."""
        self.calibration.sample()
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # keep measuring; the failure is counted and reported
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def record(self, key: str, values, start: float) -> None:
        end = time.perf_counter()
        self.samples[key] += values
        self.times[key] += [(start, end)] * len(values)

    def scaled(self, key: str) -> list:
        """Samples in idle-machine seconds (see :class:`Calibration`)."""
        return [v * self.calibration.factor(t0, t1)
                for v, (t0, t1) in zip(self.samples[key], self.times[key])]

    def span(self, name: str, fn, *args):
        return fn(*args) if self.tracer is None else self.tracer.call(name, fn, *args)

    def solve(self, assembler) -> Path:
        """One timed solve with output checks; returns its checkpoint path."""
        t0 = time.perf_counter()
        solution = self.span("bench.solve", sv.solve, self.input, self.config)
        elapsed = time.perf_counter() - t0
        path = self.workdir / f"solve-{len(self.solve_results)}.bin"
        cli_io.save_checkpoint(path, solution.params, self.digest, len(solution.history))
        self.record("solve_s", [elapsed], t0)
        self.record("adamw_iter", stage_iteration_times(solution.history, "adamw"), t0)
        self.record("bfgs_iter", stage_iteration_times(solution.history, "bfgs"), t0)

        def checks():
            check(solution.termination_reason != "diverged", "solve diverged")
            fvol = solution.f_vol_norm
            check(bool(np.isfinite(fvol)), f"F_vol_norm is {fvol}")
            check(fvol <= self.fvol_gate, f"F_vol_norm {fvol:.3e} above gate {self.fvol_gate:g}")
            check_jacobian(assembler, solution.params)

        self.span("bench.check", checks)
        self.solve_results.append((solution.history[-1].loss, vector_digest(solution.params)))
        self.f_vol_norms.append(solution.f_vol_norm)
        return path

    def post_cycle(self, assembler, checkpoint: Path) -> None:
        """Load, fine-grid metrics, export and save; then check the outputs."""
        out = self.workdir / "post"
        copy = self.workdir / "roundtrip.bin"

        def cycle():
            params, digest, iteration = cli_io.load_checkpoint(checkpoint)
            metrics = assembler.metrics(nf.params_to_vector(params))
            solution = sv.Solution(
                params=params, input=self.input, config=self.config, history=[],
                f_vol_norm=metrics["f_vol_norm"], f_norm_profile=metrics["f_norm_profile"],
                rho=assembler.grid.rho.copy(), termination_reason="loaded",
            )
            cli_io.export_metrics(solution, out)
            cli_io.save_checkpoint(copy, params, digest, iteration)
            return params, metrics

        t0 = time.perf_counter()
        params, metrics = self.span("bench.post", cycle)
        self.record("post_s", [time.perf_counter() - t0], t0)

        def checks():
            check(bool(np.isfinite(metrics["f_vol_norm"])), "fine-grid F_vol_norm is not finite")
            check(copy.read_bytes() == checkpoint.read_bytes(), "checkpoint round trip is not bit-identical")
            theta_star = out / "theta_star.csv"
            self.theta_star_digests.add(hashlib.sha256(theta_star.read_bytes()).hexdigest())
            if not self.theta_star_checked:
                check_theta_star(params, self.input, theta_star)
                self.theta_star_checked = True

        self.span("bench.check", checks)

    # -- timed windows -------------------------------------------------------------

    def window(self, seconds: float, cycle) -> None:
        """Closed loop: start another cycle only if it should end in time."""
        start = time.perf_counter()
        durations = []
        while True:
            if self.tracer is not None:
                self.tracer.run_id = f"cycle-{len(durations)}"
            t0 = time.perf_counter()
            cycle()
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                break
        self.calibration.sample(force=True)

    def run(self, seconds: float, repeats: int) -> None:
        """Cycles of set-up, solve and post-processing for ``seconds``.

        Each cycle starts with ``repeats`` timed set-ups: set-up takes
        milliseconds, so its samples are spread over the run rather than
        taken in one burst that a single stall could cover.
        """
        fine = sv.LossAssembler(self.input, self.config.width, self.fine_grid())

        def cycle():
            assembler = self.measure_setup(self.setup_solve, repeats)
            paths = []
            self.operation("solve", lambda: paths.append(self.solve(assembler)))
            for _ in range(POSTS_PER_SOLVE if paths else 0):
                self.operation("post", lambda: self.post_cycle(fine, paths[0]))

        self.window(seconds, cycle)

    def finish_checks(self) -> None:
        """Same seed, same results: every solve and every export must agree bit for bit."""
        first = self.solve_results[0] if self.solve_results else None
        for result in self.solve_results[1:]:
            if result != first:
                self.failed += 1
                self.failures.append(f"repeat solve differs: {result} != {first}")
        if len(self.theta_star_digests) > 1:
            self.failed += 1
            self.failures.append("theta_star.csv differs between post cycles")


# -- tracing --------------------------------------------------------------------------


def install_tracing(tracer: Tracer) -> dict:
    """Wrap every public layer function; returns the tape census, filled on first use."""
    census: dict = {}

    def tape_census(args):
        if census:
            return

        def count():
            # walks the tape through Var._parents: no public API exposes the node graph
            root = args[0]
            seen, stack, nbytes = {id(root)}, [root], 0
            while stack:
                node = stack.pop()
                nbytes += node.value.nbytes
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            census.update(nodes=len(seen), bytes=nbytes)

        tracer.call("trace.tape_census", count)

    def iterations(span, result, args):
        span.info["iterations"] = len(result[1])

    def file_size(span, result, args):
        span.info["bytes"] = Path(args[0]).stat().st_size

    tracer.wrap(nf, "profile_stack", "netfield.profile_stack")
    for name in ("geometry", "magnetic_field", "current", "force"):
        tracer.wrap(mk, name, f"mhdkernel.{name}")
    tracer.wrap(ad.Var, "backward", "autodiff.backward", before=tape_census)
    tracer.wrap(sv.LossAssembler, "value_and_grad", "solver.value_and_grad")
    tracer.wrap(sv.LossAssembler, "metrics", "solver.metrics")
    tracer.wrap(sv, "adamw_stage", "solver.adamw_stage", on_return=iterations)
    tracer.wrap(sv, "bfgs_stage", "solver.bfgs_stage", on_return=iterations)
    for name in ("export_metrics", "theta_star_contours", "poincare_section", "load_checkpoint"):
        tracer.wrap(cli_io, name, f"cli_io.{name}")
    tracer.wrap(cli_io, "save_checkpoint", "cli_io.save_checkpoint", on_return=file_size)
    return census


def layer_metrics(tracer: Tracer, census: dict, untraced: dict, traced: dict,
                  factor: float) -> dict:
    """Per-layer numbers from the traced half.

    ``*_ms`` are median self times per call (whole calls for
    ``value_and_grad`` and ``metrics``; self time per iteration for the two
    optimizer stages), scaled by the calibration ``factor``.  ``untraced``
    and ``traced`` hold scaled solve and post times.
    """
    spans = tracer.spans
    self_time = tracer.self_times()

    def calls(name, parent=None):
        return [s for s in spans if s.name == name
                and (parent is None or tracer.parent_name(s) == parent)]

    def self_ms(name, parent=None):
        return 1e3 * statistics.median(self_time[s.id] for s in calls(name, parent))

    def per_iteration_ms(stage):
        stage_spans = calls(stage)
        n = sum(s.info["iterations"] for s in stage_spans)
        return 1e3 * sum(self_time[s.id] for s in stage_spans) / n

    def overhead_pct(key):
        base = statistics.median(untraced[key])
        return 100.0 * (statistics.median(traced[key]) - base) / base

    vg = "solver.value_and_grad"
    solves = calls("bench.solve")
    evals = calls(vg)
    bfgs_iters = sum(s.info["iterations"] for s in calls("solver.bfgs_stage"))
    out = {
        "autodiff.backward_ms": self_ms("autodiff.backward", vg),
        "autodiff.tape_nodes": census["nodes"],
        "autodiff.tape_mb": census["bytes"] / 1e6,
        "netfield.profile_stack_ms": self_ms("netfield.profile_stack", vg),
    }
    for name in ("geometry", "magnetic_field", "current", "force"):
        out[f"mhdkernel.{name}_ms"] = self_ms(f"mhdkernel.{name}", vg)
    out.update({
        "solver.value_and_grad_ms": 1e3 * statistics.median(s.duration for s in evals),
        "solver.value_and_grad_unattributed_ms": self_ms(vg),
        "solver.value_and_grad_calls": statistics.median(
            sum(1 for e in evals if solve.start <= e.start and e.end <= solve.end) for solve in solves
        ),
        "solver.bfgs_update_ms": per_iteration_ms("solver.bfgs_stage"),
        "solver.adamw_update_ms": per_iteration_ms("solver.adamw_stage"),
        "solver.line_search_evals_per_iter": len(calls(vg, "solver.bfgs_stage")) / bfgs_iters,
        "solver.metrics_ms": 1e3 * statistics.median(s.duration for s in calls("solver.metrics", "bench.post")),
    })
    for name in ("theta_star_contours", "poincare_section", "export_metrics",
                 "save_checkpoint", "load_checkpoint"):
        out[f"cli_io.{name}_ms"] = self_ms(f"cli_io.{name}")
    out["cli_io.checkpoint_bytes"] = calls("cli_io.save_checkpoint")[0].info["bytes"]
    out["trace.solve_overhead_pct"] = overhead_pct("solve_s")
    out["trace.post_overhead_pct"] = overhead_pct("post_s")
    return {k: v * factor if k.endswith("_ms") else v for k, v in out.items()}


def self_time_table(tracer: Tracer) -> list:
    """Calls, total and self milliseconds per (span, parent) pair."""
    self_time = tracer.self_times()
    rows: dict = {}
    for s in tracer.spans:
        key = (s.name, tracer.parent_name(s) or "-")
        row = rows.setdefault(key, {"span": key[0], "parent": key[1], "calls": 0,
                                    "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * s.duration
        row["self_ms"] += 1e3 * self_time[s.id]
    return sorted(rows.values(), key=lambda r: -r["self_ms"])


# -- main -------------------------------------------------------------------------------


def end_to_end_metrics(bench: Bench) -> tuple[dict, dict]:
    """Medians of the scaled timings; the summaries describe the raw ones."""
    keys = {"solve_s": ("solve_s", 1.0), "adamw_iter_ms": ("adamw_iter", 1e3),
            "bfgs_iter_ms": ("bfgs_iter", 1e3), "post_s": ("post_s", 1.0),
            "setup_s": ("setup_s", 1.0)}
    values, summaries = {}, {}
    for name, (key, scale) in keys.items():
        if not bench.samples[key]:
            bench.failed += 1
            bench.failures.append(f"no samples for {name}")
            values[name] = 0.0
            continue
        summaries[name] = summarize(scale * np.asarray(bench.samples[key]))
        values[name] = scale * statistics.median(bench.scaled(key))
    values["peak_rss_mb"] = peak_rss_mb()
    return values, summaries


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for testing the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")
    machine = machine_info(args)
    print("machine: " + json.dumps(machine))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    report: dict = {"machine": machine}
    try:
        bench = Bench(args, workdir)
        repeats = 1 if args.smoke else SETUP_REPEATS
        if args.trace == 0:
            bench.run(args.seconds, repeats)
            values, report["summaries"] = end_to_end_metrics(bench)
            report["samples"] = bench.samples
            units = END_TO_END
        else:
            bench.run(args.seconds / 2.0, 1)
            untraced = {k: bench.scaled(k) for k in ("solve_s", "post_s")}
            bench.samples = {k: [] for k in SAMPLE_KEYS}
            bench.times = {k: [] for k in SAMPLE_KEYS}
            start = time.perf_counter()
            tracer = Tracer()
            bench.tracer = tracer
            try:
                census = install_tracing(tracer)
                bench.run(args.seconds / 2.0, 1)
            finally:
                tracer.restore()
                bench.tracer = None
            traced = {k: bench.scaled(k) for k in ("solve_s", "post_s")}
            factor = bench.calibration.factor(start, time.perf_counter())
            values = layer_metrics(tracer, census, untraced, traced, factor)
            units = {k: PER_LAYER_UNITS.get(k, "ms") for k in LAYER_MAP}
            report["self_times"] = self_time_table(tracer)
            report["spans"] = tracer.records()
        bench.finish_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    factor = bench.calibration.factor()
    kernel_ms = 1e3 * np.asarray([d for _, d in bench.calibration.samples])
    report["calibration"] = {"factor": factor, "kernel_ms": summarize(kernel_ms)}
    print(f"calibration: kernel median {report['calibration']['kernel_ms']['median']:.4g} ms, "
          f"timings scaled by {factor:.4g}")
    for name, summary in report.get("summaries", {}).items():
        extra = "".join(f", {k} {v:.6g}" for k, v in summary.items() if k.startswith("p"))
        print(f"{name}: raw median {summary['median']:.6g} {END_TO_END[name]}{extra}, n={summary['n']}")
    for row in report.get("self_times", []):
        print(f"self time {row['span']:<30} under {row['parent']:<24} calls {row['calls']:>6}"
              f"  total {row['total_ms']:10.1f} ms  self {row['self_ms']:10.1f} ms")
    for name, value in values.items():
        note = f"  (moves {LAYER_MAP[name]})" if name in LAYER_MAP else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    if args.trace:
        print("waiting time: zero in every layer (one thread, no queues)")
    for failure in bench.failures:
        print(f"FAILED {failure}")

    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    report.update(result, failures=bench.failures, f_vol_norm=bench.f_vol_norms)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
