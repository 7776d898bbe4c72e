"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload serve_rank --seeds 1-10 --seconds 20

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third quartile as
a share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json. ``--out`` keeps every result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d exited %d"
                         % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each result line to this file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        if not result["correct"] or result["failed"]:
            print("seed %d: %d of %d operations failed"
                  % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, flush=True)

    print("%-32s %12s %8s %7s  %s" % ("metric", "median", "spread", "bound",
                                      "values"))
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) > 1 and median(vals) \
            else float("nan")
        bound = bounds.get(name)
        print("%-32s %12.6g %8.4f %7s  %s"
              % (name, median(vals), spread,
                 "-" if bound is None else "%.3f" % bound,
                 " ".join("%.5g" % v for v in vals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
