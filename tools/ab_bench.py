"""Alternating parent/change pairs of ``bench/run.py``, written as a BENCH_*.json table.

    python3 tools/ab_bench.py PARENT_REV --workload ellipse3d-solve \\
        --seeds 5501 5502 ... --out BENCH_x.json --description "..."

The parent is the committed tree of ``PARENT_REV``, exported with ``git
archive`` into a temporary directory: exactly its committed files, and
nothing registered in the repository, so an interrupted run leaves no
worktree behind.  The change is this checkout's working tree.  There is
one pair per seed: pair i runs seed ``seeds[i]`` on both trees, one run at
a time, the parent first on even pairs.  Each run's end-to-end metrics
come from the JSON object that ends its standard output.

The table has the schema of the committed A/B files: per workload a
``summary`` (per metric the parent's and the change's median and linear
quartiles, and in how many pairs the change was lower) and the ``pairs``
themselves.  An existing ``--out`` file keeps its other workloads, so two
calls build a two-workload table.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_KEYS = ("attempted", "failed", "correct")


def export_tree(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``."""
    into.mkdir(parents=True)
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()
    return into


def bench_run(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One ``bench/run.py`` run in ``tree``: its pass/fail counts and end-to-end metrics."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree} (seed {seed}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {k: result[k] for k in RUN_KEYS}
    run.update({name: m["value"] for name, m in result["metrics"].items()})
    return run


def summary(pairs: list) -> dict:
    """Per metric: medians and quartiles of both sides, and the pairs the change won."""
    out = {}
    for name in pairs[0]["parent"]:
        if name in RUN_KEYS:
            continue
        sides = {side: np.array([p[side][name] for p in pairs]) for side in ("parent", "change")}
        row = {}
        for side, values in sides.items():
            row[f"{side}_median"] = float(np.median(values))
            row[f"{side}_q1"] = float(np.percentile(values, 25))
            row[f"{side}_q3"] = float(np.percentile(values, 75))
        row["change_lower_in_pairs"] = int(np.sum(sides["change"] < sides["parent"]))
        row["pairs"] = len(pairs)
        out[name] = row
    return out


def ab_pairs(parent: Path, change: Path, workload: str, seeds: list, seconds: float, smoke: bool) -> list:
    pairs = []
    for i, seed in enumerate(seeds):
        first = "parent" if i % 2 == 0 else "change"
        order = ("parent", "change") if first == "parent" else ("change", "parent")
        runs = {side: bench_run(parent if side == "parent" else change, workload, seed, seconds, smoke)
                for side in order}
        pairs.append({"seed": seed, "first": first, "parent": runs["parent"], "change": runs["change"]})
        print(f"pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
            f"{k} {runs['parent'][k]:.6g} -> {runs['change'][k]:.6g}"
            for k in runs["parent"] if k not in RUN_KEYS), flush=True)
    return pairs


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="git revision of the parent tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one seed per pair")
    parser.add_argument("--seconds", type=float, default=55.0, help="length of each run (default 55)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write or extend")
    parser.add_argument("--description", help="the table's description (default: keep the file's)")
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to bench/run.py")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="ab-bench-"))
    try:
        parent = export_tree(args.parent_rev, scratch / "parent")
        pairs = ab_pairs(parent, ROOT, args.workload, args.seeds, args.seconds, args.smoke)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    table = json.loads(args.out.read_text()) if args.out.exists() else {"description": "", "workloads": {}}
    if args.description is not None:
        table["description"] = args.description
    table["workloads"][args.workload] = {"summary": summary(pairs), "pairs": pairs}
    args.out.write_text(json.dumps(table, indent=1) + "\n")
    for name, row in table["workloads"][args.workload]["summary"].items():
        print(f"{name}: {row['parent_median']:.6g} -> {row['change_median']:.6g}, "
              f"parent IQR {row['parent_q3'] - row['parent_q1']:.3g}, "
              f"change lower in {row['change_lower_in_pairs']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
