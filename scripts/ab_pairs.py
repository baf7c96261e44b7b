#!/usr/bin/env python
"""Same-box A/B of two checkouts through the repository benchmark.

Runs ``perfbench/run.py`` in a BASE and a HEAD checkout, one run at a
time, for N pairs. The order flips on every pair (base first on even
pairs, head first on odd ones), so a drift of the box during the
session does not favour one side. For each end-to-end metric of
BENCHMARK.json it prints one line per pair, then each side's median
and quartiles, the pairs HEAD won (by the metric's ``better``
direction) and the median of the per-pair HEAD/BASE ratios. The last
line is the whole record as JSON. A run with a failed crawl stops the
A/B with an error that names the checkout and the pair.

    git worktree add ../base HEAD~1
    python3 scripts/ab_pairs.py --base ../base --head . \\
        --workload crawl_small_waves --seed 1 --pairs 5 --seconds 30

Each run is a child process in its own session. Once it exits, what
is left of its process group is killed, and the work and Ray temp dirs
the run makes in its checkout (``.bench_work/<pid>``, ``.rb/<pid>``)
are removed if the run did not remove them itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys


def run_once(checkout: str, args) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for sub in (".bench_work", ".rb"):
            parent = os.path.join(checkout, sub)
            shutil.rmtree(os.path.join(parent, str(proc.pid)),
                          ignore_errors=True)
            try:  # the shared parent, once it is empty
                os.rmdir(parent)
            except OSError:
                pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``vals``."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def directions(checkout: str) -> dict[str, str]:
    """End-to-end metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent's checkout")
    ap.add_argument("--head", required=True, help="the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--timeout", type=float, default=900,
                    help="seconds before a run is killed")
    args = ap.parse_args(argv)
    # a terminated A/B still cleans up after the run it is in
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    better = directions(args.head)
    sides = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {}
        for side in order:
            res = run_once(sides[side], args)
            missing = [m for m in better if m not in res["metrics"]]
            if res["failed"] or missing:
                raise RuntimeError(
                    f"{sides[side]}: pair {i + 1}: {res['failed']} of "
                    f"{res['attempted']} crawls failed"
                    + (f"; no {', '.join(missing)}" if missing else ""))
            pair[side] = {m: res["metrics"][m]["value"] for m in better}
            runs[side].append(pair[side])
        print(f"pair {i + 1}/{args.pairs} {order[0]} first: " + "; ".join(
            f"{m} base {pair['base'][m]:.4g} head {pair['head'][m]:.4g}"
            for m in better), flush=True)
    summary = {}
    for m, direction in better.items():
        base = [r[m] for r in runs["base"]]
        head = [r[m] for r in runs["head"]]
        ratios = [h / b if b else float("nan") for b, h in zip(base, head)]
        wins = sum(h > b if direction == "higher" else h < b
                   for b, h in zip(base, head))
        summary[m] = {"better": direction, "wins": wins,
                      "median_ratio": statistics.median(ratios),
                      "ratios": ratios,
                      "quartiles": {"base": quartiles(base),
                                    "head": quartiles(head)}}
        q = summary[m]["quartiles"]
        print(f"{m} ({direction} is better): " + "; ".join(
            f"{side} median {q[side][1]:.4g} "
            f"(quartiles {q[side][0]:.4g}-{q[side][2]:.4g})"
            for side in ("base", "head"))
            + f"; head won {wins}/{args.pairs} pairs, median pair ratio "
            f"{summary[m]['median_ratio']:.3f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "pairs": args.pairs,
                      "metrics": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
