"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crawl_bulk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``. The
line before it is a detail record (samples, percentiles, CPU count,
workload shape, mismatches). ``--toy`` shrinks the workload for the
benchmark's own tests. Workloads are listed in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)

    from perfbench import crawlbench

    result, detail = crawlbench.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), toy=args.toy)
    print(json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
