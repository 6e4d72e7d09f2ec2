"""Schema smoke test for the benchmark: names, units and workloads, not timings.

    python3 -m pytest perfbench/test_schema.py

Runs infer_paper (the quickest workload) for one second, untraced and
traced, and checks that the result line carries exactly the metrics and
units BENCHMARK.json declares. Also checks that the benchmark refuses to run
without the library beside it.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_shape():
    b = bench()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                      "per_layer"}
    assert 1 <= b["run_seconds"] <= 60
    names = set()
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert m["name"] not in names
        names.add(m["name"])
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_workloads_match_the_runner():
    from workloads import WORKLOADS
    assert [w["name"] for w in bench()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_and_units(trace, section):
    proc = run(ROOT, "infer_paper", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(tmp_path, "infer_paper", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
