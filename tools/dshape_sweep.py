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
that differ and one summary row per table (the ``param-stall`` seeds, the
median and worst F_vol_norm, the worst of the other seeds, and the total
stage-2 evaluations; a table's row covers only the seeds run), and exits
with status 1 if any seed differs.  It may be given more than once, to
compare one run with several tables.
"""

import argparse
import json
import multiprocessing
import statistics
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


def summary(rows) -> str:
    """The ``param-stall`` seeds, the median and worst F_vol_norm (also
    over the other seeds) and the total stage-2 evaluations of a table."""
    stalls = [row["seed"] for row in rows if row["termination"] == "param-stall"]
    fvol = [row["f_vol_norm"] for row in rows]
    others = [row["f_vol_norm"] for row in rows if row["seed"] not in stalls] or [float("nan")]
    return (
        f"{len(rows)} seeds, param-stall {stalls}, F_vol_norm median {statistics.median(fvol):.3g} "
        f"worst {max(fvol):.3g} (without stalls {max(others):.3g}), "
        f"stage-2 evaluations {sum(row['stage2_evals'] for row in rows):,}"
    )


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--jobs", type=int, default=1, help="seeds solved at a time")
    parser.add_argument("--json", metavar="PATH", help="also write the table to PATH")
    parser.add_argument(
        "--against", metavar="PATH", action="append", help="compare with the table at PATH (repeatable)"
    )
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
    ran, differ = {row["seed"] for row in rows}, False
    for path in args.against or ():
        with open(path) as f:
            table = json.load(f)
        diff = differences(rows, table)
        for line in diff:
            print(line)
        print(f"{len(diff)} of {len(rows)} seeds differ from {path}")
        print(f"{path}: {summary([row for row in table if row['seed'] in ran])}")
        differ = differ or bool(diff)
    if args.against:
        print(f"this run: {summary(rows)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
