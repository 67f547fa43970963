"""Full dshape solves over a list of seeds, one JSON line per solve.

    PYTHONPATH=src python3 tools/dshape_sweep.py [--jobs J] [--json PATH] [--against PATH] 0 1 2 ...

Each line gives the seed, the termination reason, the BFGS iterations run,
the final F_vol_norm, the number of loss+gradient evaluations stage 2
made, its start point included, and ``bfgs_s``, the wall seconds of stage 2
from the loss history (last BFGS record minus the record before it began).
The count comes from wrapping the ``value_and_grad`` that
``solver.bfgs_stage`` receives, so the solver itself is unchanged.  The
solve uses the built-in case's own budgets and grid, as criterion 1 does.

``--jobs J`` solves J seeds at a time in worker processes; lines are
printed in seed order either way.  ``--json PATH`` also writes the whole
table to PATH as a JSON list, one object per seed, in seed order.
``--against PATH`` compares each seed with the row of the same seed in a
table written by ``--json`` (all columns but ``bfgs_s``), prints the seeds
that differ and exits with status 1 if any do.
"""

import argparse
import json
import multiprocessing
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


COMPARED = ("termination", "bfgs_iterations", "f_vol_norm", "stage2_evals")


def differences(rows, table) -> list:
    """The seeds of ``rows`` whose compared columns differ from ``table``'s
    row of the same seed (or that ``table`` lacks), each with a reason."""
    known = {row["seed"]: row for row in table}
    out = []
    for row in rows:
        want = known.get(row["seed"])
        if want is None:
            out.append(f"seed {row['seed']}: not in the table")
            continue
        diff = [f"{k} {want[k]!r} -> {row[k]!r}" for k in COMPARED if row[k] != want[k]]
        if diff:
            out.append(f"seed {row['seed']}: " + ", ".join(diff))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--jobs", type=int, default=1, help="seeds solved at a time")
    parser.add_argument("--json", metavar="PATH", help="also write the table to PATH")
    parser.add_argument("--against", metavar="PATH", help="compare with the table at PATH")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    rows = []
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for row in pool.imap(sweep_one, args.seeds):
            print(json.dumps(row), flush=True)
            rows.append(row)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=1)
            f.write("\n")
    if args.against:
        with open(args.against) as f:
            diff = differences(rows, json.load(f))
        for line in diff:
            print(line)
        print(f"{len(diff)} of {len(rows)} seeds differ from {args.against}")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
