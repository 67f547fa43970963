"""Bit-identity digests of the loss, its gradient and the taped references.

    PYTHONPATH=src python3 tools/loss_digests.py

For the dshape, small (21, 0) and ellipse (21, 7) cases at the seeded
points of ``tests/test_solver.half_grid_case`` it prints ``loss_value`` as
a float hex, then one SHA-256 each of ``value_and_grad``,
``loss_value_precise`` and ``metrics``, of the kernel node and its tape
(``node_and_tape_gradients``), of the network node and its tape
(``network_node_and_tape``) and of the full-grid taped mean with its
gradient.  Every digest counts -0.0 as +0.0.  Then it prints the first
four lines for ``bench/ellipse3d.case`` on its own grid (32 surfaces,
12,800 half-grid nodes: the kernel node runs as two radial blocks) at one
seeded point, and ``metrics`` at that point on the bench's fine grid (64
surfaces, 8 M theta nodes: 50,176 half-grid nodes).  Two trees whose
outputs are equal round the loss, the gradient, the diagnostics and both
taped references alike at these points.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from equinn import autodiff as ad, cli_io, netfield as nf, solver as sv  # noqa: E402
from equinn.mhdkernel import CollocationGrid  # noqa: E402
from test_solver import half_grid_case, network_node_and_tape, node_and_tape_gradients  # noqa: E402

CASES = [("dshape", 0, 0), ("small", 21, 0), ("ellipse", 21, 7)]
ELLIPSE3D = Path(__file__).resolve().parent.parent / "bench" / "ellipse3d.case"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a) + 0.0
        # a long double as the exact sum of two doubles: its padding bytes are undefined
        head = a.astype(np.float64)
        h.update(head.tobytes() + (a - head).astype(np.float64).tobytes() if a.dtype == np.longdouble
                 else a.tobytes())
    return h.hexdigest()


def pairs_digest(pairs) -> str:
    return digest(*(a for pair in pairs for a in pair))


def metrics_digest(asm, x) -> str:
    metrics = asm.metrics(x)
    return digest(*(metrics[k] for k in sorted(metrics)))


def loss_lines(asm, x) -> list:
    return [
        ("loss_value", float(asm.loss_value(x)).hex()),
        ("value_and_grad", digest(*asm.value_and_grad(x))),
        ("loss_value_precise", digest(asm.loss_value_precise(x))),
        ("metrics", metrics_digest(asm, x)),
    ]


def case_lines(case: str, n_theta: int, n_zeta: int) -> list:
    asm, x = half_grid_case(case, n_theta, n_zeta)
    params = nf.vector_to_params(x, asm.template)
    full_mean = ad.loss_gradient(
        lambda v: ad.mean_all(asm.field_state(nf.vector_to_params(v, asm.template)).F_mag), x
    )
    args = asm._kernel_args(params, asm.half_grid, asm.half_tables)
    return loss_lines(asm, x) + [
        ("node_and_tape_gradients", pairs_digest(node_and_tape_gradients(*args))),
        ("network_node_and_tape", pairs_digest(network_node_and_tape(asm, x))),
        ("full_grid_taped_mean", digest(*full_mean)),
    ]


def ellipse3d_lines() -> list:
    input, config = cli_io.parse_case(str(ELLIPSE3D))
    grid = CollocationGrid.build(config.n_rho, input.M, input.N, input.n_fp, config.n_theta, config.n_zeta)
    asm = sv.LossAssembler(input, config.width, grid)
    x = nf.params_to_vector(nf.init_params((asm.modes_cos, asm.modes_sin), config.width, 0, input))
    x = x + 0.01 * np.random.default_rng(2).normal(size=x.size)
    # the bench's fine grid: twice the surfaces and theta nodes
    fine = CollocationGrid.build(2 * config.n_rho, input.M, input.N, input.n_fp, 8 * input.M, config.n_zeta)
    return loss_lines(asm, x) + [("metrics (fine grid)", metrics_digest(sv.LossAssembler(input, config.width, fine), x))]


def main() -> None:
    for case, n_theta, n_zeta in CASES:
        for name, value in case_lines(case, n_theta, n_zeta):
            print(f"{case} ({n_theta}, {n_zeta}) {name} {value}")
    for name, value in ellipse3d_lines():
        print(f"ellipse3d ({ELLIPSE3D.name}) {name} {value}")


if __name__ == "__main__":
    main()
