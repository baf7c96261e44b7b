"""The benchmark's own tests: every workload at toy size prints every
declared metric, a tampered crawl output counts as a failed operation,
and the command fails without printing a result when the package is
missing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.workloads import WORKLOADS, layer_unit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*BENCH["command"], *args], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_benchmark_json_matches_workloads_and_units():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    for m in BENCH["per_layer"]:
        assert m["unit"] == layer_unit(m["name"]), m


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_prints_every_metric(workload, trace):
    res = _result(_run(["--workload", workload, "--seed", "5",
                        "--seconds", "0", "--trace", str(trace), "--toy"]))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


_TAMPER = {
    # one URL missing from the last wave's order log
    "order": """
def tamper(out):
    import glob
    path = sorted(glob.glob(out + "/order/wave=*.txt"))[-1]
    lines = open(path).read().splitlines(keepends=True)
    open(path, "w").writelines(lines[:-1])
""",
    # one image row hidden behind a conflict tombstone
    "images": """
def tamper(out):
    import glob, json
    import pyarrow.parquet as pq
    for part in sorted(glob.glob(out + "/wave=*/*.parquet")):
        t = pq.read_table(part, columns=["kind", "ord"]).to_pydict()
        ords = [o for k, o in zip(t["kind"], t["ord"]) if k == "image"]
        if ords:
            tomb = part.rsplit("/", 1)[0] + "/_tombstones.json"
            json.dump({"full": [], "img": [ords[0]]}, open(tomb, "w"))
            return
""",
}


@pytest.mark.parametrize("kind", sorted(_TAMPER))
def test_tampered_output_is_a_failed_operation(kind):
    code = _TAMPER[kind] + """
import json, sys
sys.path.insert(0, ".")
from perfbench import crawlbench
result, detail = crawlbench.run("crawl_bulk", 5, 0, False, toy=True,
                                tamper=tamper)
print(json.dumps(detail))
print(json.dumps(result))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=600)
    res = _result(proc)
    assert res["correct"] is False
    assert res["attempted"] >= 3
    assert res["failed"] == res["attempted"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
