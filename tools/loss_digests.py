"""Bit-identity digests of the loss, its gradient and the taped references.

    PYTHONPATH=src python3 tools/loss_digests.py

For the dshape, small (21, 0) and ellipse (21, 7) cases at the seeded
points of ``tests/test_solver.half_grid_case`` it prints ``loss_value`` as
a float hex, then one SHA-256 each of ``value_and_grad``,
``loss_value_precise`` and ``metrics``, of the kernel node and its tape
(``node_and_tape_gradients``), of the network node and its tape
(``network_node_and_tape``) and of the full-grid taped mean with its
gradient.  Every digest counts -0.0 as +0.0.  Two trees whose outputs are
equal round the loss, the gradient, the diagnostics and both taped
references alike at these points.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from equinn import autodiff as ad, netfield as nf  # noqa: E402
from test_solver import half_grid_case, network_node_and_tape, node_and_tape_gradients  # noqa: E402

CASES = [("dshape", 0, 0), ("small", 21, 0), ("ellipse", 21, 7)]


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


def case_lines(case: str, n_theta: int, n_zeta: int) -> list:
    asm, x = half_grid_case(case, n_theta, n_zeta)
    params = nf.vector_to_params(x, asm.template)
    metrics = asm.metrics(x)
    full_mean = ad.loss_gradient(
        lambda v: ad.mean_all(asm.field_state(nf.vector_to_params(v, asm.template)).F_mag), x
    )
    args = asm._kernel_args(params, asm.half_grid, asm.half_tables)
    return [
        ("loss_value", float(asm.loss_value(x)).hex()),
        ("value_and_grad", digest(*asm.value_and_grad(x))),
        ("loss_value_precise", digest(asm.loss_value_precise(x))),
        ("metrics", digest(*(metrics[k] for k in sorted(metrics)))),
        ("node_and_tape_gradients", pairs_digest(node_and_tape_gradients(*args))),
        ("network_node_and_tape", pairs_digest(network_node_and_tape(asm, x))),
        ("full_grid_taped_mean", digest(*full_mean)),
    ]


def main() -> None:
    for case, n_theta, n_zeta in CASES:
        for name, value in case_lines(case, n_theta, n_zeta):
            print(f"{case} ({n_theta}, {n_zeta}) {name} {value}")


if __name__ == "__main__":
    main()
