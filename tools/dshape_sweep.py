"""Full dshape solves over a list of seeds, one JSON line per solve.

    PYTHONPATH=src python3 tools/dshape_sweep.py 0 1 2 ...

Each line gives the seed, the termination reason, the BFGS iterations run,
the final F_vol_norm, the number of loss+gradient evaluations stage 2
made, its start point included, and ``bfgs_s``, the wall seconds of stage 2
from the loss history (last BFGS record minus the record before it began).
The count comes from wrapping the ``value_and_grad`` that
``solver.bfgs_stage`` receives, so the solver itself is unchanged.  The
solve uses the built-in case's own budgets and grid, as criterion 1 does.
"""

import json
import sys
from dataclasses import replace

from equinn import cli_io, solver as sv


def sweep_one(seed: int) -> dict:
    input, config = cli_io.parse_case("dshape")
    stage, evals = sv.bfgs_stage, [0]

    def counting_stage(x0, value_and_grad, *args, **kwargs):
        def counted(x):
            evals[0] += 1
            return value_and_grad(x)

        return stage(x0, counted, *args, **kwargs)

    sv.bfgs_stage = counting_stage
    try:
        sol = sv.solve(input, replace(config, seed=seed))
    finally:
        sv.bfgs_stage = stage
    start = max((r.wall_time for r in sol.history if r.stage != "bfgs"), default=0.0)
    end = max((r.wall_time for r in sol.history if r.stage == "bfgs"), default=start)
    return {
        "seed": seed,
        "termination": sol.termination_reason,
        "bfgs_iterations": sum(1 for r in sol.history if r.stage == "bfgs"),
        "f_vol_norm": sol.f_vol_norm,
        "stage2_evals": evals[0],
        "bfgs_s": round(end - start, 3),
    }


def main(argv) -> int:
    if not argv or not all(a.isdigit() for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for seed in map(int, argv):
        print(json.dumps(sweep_one(seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
