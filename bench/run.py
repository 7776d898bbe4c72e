"""Benchmark of the msin package: training throughput, eval/rank serving.

Run from the root of a checkout:

    python3 bench/run.py --workload train_recovery --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, their times normalized to a
nominal host speed (see calibrate.py); ``--trace 1`` makes a traced run
that prints the per-layer metrics instead and writes its spans to
``.bench_run/``. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# Tiny matrices gain nothing from BLAS threads; one thread keeps runs steady.
BLAS_THREADS = "1"

# Tape entries per training sample of train_recovery in ROADMAP's baseline
# (599 in all, 357 from the text encoder).
BASELINE_TAPE = {"tensor.tape_entries": 599, "text_encoder.tape_entries": 357}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for base, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "src_lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "msin", "__init__.py")):
        print("error: no msin package under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    sys.path.insert(0, SRC)
    import msin
    if os.path.dirname(os.path.abspath(msin.__file__)) != \
            os.path.join(SRC, "msin"):
        print("error: imported msin from %s, not from %s"
              % (msin.__file__, SRC), file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(W.WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    run = W.Run(trace=bool(args.trace))
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = os.path.join(RUN_DIR, "work-%d" % os.getpid())
    try:
        with run.sampler or contextlib.nullcontext():
            raw = W.run_workload(args.workload, run, args.seed, args.seconds,
                                 workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    if args.trace:
        main_phase = "rank" if args.workload == "serve_rank" else "train"
        metrics = W.layer_metrics(run, main_phase)
        trace_path = os.path.join(RUN_DIR, "trace-%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        run.tracer.dump(trace_path)
        print("spans: %d written to %s" % (len(run.tracer.spans), trace_path))
        if args.workload == "train_recovery":
            for name, want in BASELINE_TAPE.items():
                got = metrics[name][0]
                print("baseline cross-check %s: %.1f per sample (baseline %d, "
                      "%s)" % (name, got, want,
                               "matches" if got == want else "differs"))
    else:
        metrics, lat = W.end_to_end(run, raw)
        print("rank latency: %d samples, %d beyond p90; highest percentile "
              "with >= 10 beyond: p%g = %.3f ms"
              % (lat["rank_samples"], lat["beyond_p90"], lat["tail_pct"],
                 lat["tail_ms"]))
        print("host slowdown over nominal, median by phase: "
              + ", ".join("%s %.3f" % kv for kv in lat["slowdown"].items())
              + "; reference work took %.1f%% of the run"
              % (100.0 * lat["reference_share"]))
        print("wall-clock medians (not normalized): "
              + ", ".join("%s %.3f ms" % kv for kv in lat["wall_ms"].items()))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print("%-36s %14.6g failed/attempted (%d/%d)"
          % ("error_rate", run.failed / max(run.attempted, 1), run.failed,
             run.attempted))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
