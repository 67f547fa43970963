"""Smoke test of ``tools/ab_bench.py``: one ``--smoke`` pair of the committed
``HEAD`` and this working tree, then the schema of the table it writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
ROW_KEYS = {f"{side}_{stat}" for side in ("parent", "change") for stat in ("median", "q1", "q3")}


def _git_head():
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


@pytest.mark.skipif(_git_head() is None, reason="needs a git checkout with a commit")
def test_one_smoke_pair_writes_the_ab_schema_and_removes_the_parent_tree(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    command = [sys.executable, "tools/ab_bench.py", "HEAD", "--workload", "dshape-solve", "--seeds", "3",
               "--seconds", "1", "--smoke", "--out", str(out), "--description", "smoke"]
    env = dict(os.environ, TMPDIR=str(scratch))  # where the parent's tree is exported
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    table = json.loads(out.read_text())
    assert table["description"] == "smoke" and list(table["workloads"]) == ["dshape-solve"]
    workload = table["workloads"]["dshape-solve"]
    assert set(workload) == {"summary", "pairs"}
    (pair,) = workload["pairs"]
    assert (pair["seed"], pair["first"]) == (3, "parent")
    for side in ("parent", "change"):
        run = pair[side]
        assert list(run) == ["attempted", "failed", "correct"] + END_TO_END
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] >= 1
    assert list(workload["summary"]) == END_TO_END
    for name, row in workload["summary"].items():
        assert set(row) == ROW_KEYS | {"change_lower_in_pairs", "pairs"}, name
        assert row["pairs"] == 1 and row["change_lower_in_pairs"] in (0, 1)
        assert row["parent_median"] == pair["parent"][name] and row["change_median"] == pair["change"][name]
    assert list(scratch.iterdir()) == []  # the exported tree is gone
