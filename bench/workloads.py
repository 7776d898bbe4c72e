"""The benchmark's workloads, their output checks, and their metrics.

Every workload is a closed loop with one client: each operation starts when
the previous one has returned. The package is driven only through its public
functions (``msin.training.train``, ``msin.evaluation.rank_report``,
``msin.cli.main``...). Inputs come from fixed generator specs and fixed
initial weights plus the run seed, which picks the shuffle and dropout
stream of training and the days that are ranked. See README.md next to this
file for why each workload exists.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter, namedtuple
from dataclasses import dataclass
from statistics import median

import numpy as np

import msin.cli as C
import msin.data as D
import msin.evaluation as E
import msin.model as M
import msin.training as TR

from calibrate import Sampler
from stats import nearest_rank, tail_percentile
from tracing import LAYER_SPANS, Tracer, covered, self_times

SETUP_REPS = 5           # setup_s is the median of at least these...
SETUP_MIN_S = 1.0        # ...and of enough to fill this much wall time
SERVE_SETUP_REPS = 3     # serve_rank's set-up takes seconds; three of them
MIN_ROUNDS = 2           # two train() calls at least, so valid_mse can be compared
RANKS_PER_ROUND = 40     # rank calls after each train()/eval round
SERVE_EVALS = 2          # two `msin eval` calls, so report.json can be compared
MIN_RANK_CALLS = 100     # p90 then has at least ten samples beyond it
RANK_DATE_POOL = 20      # distinct days, each ranked several times
MASS_TOL = 1e-5

# Public op kinds reported per sample; an op added later counts as "other".
OP_KINDS = ("matmul", "outer", "add", "add_bias", "hadamard", "scale", "tanh",
            "sigmoid", "absolute", "clip", "sum_all", "mean_axis", "concat",
            "narrow", "reshape", "stack_cols", "row_scale", "sum_stack",
            "take_rows", "masked_softmax", "dropout", "bce_with_logit")

_START = dt.date(2000, 1, 1)

# scripts/association_recovery.py: 2200 days of 10 docs x 8 tokens, one
# planted per day, and its model_config("msin"). Frozen here so that editing
# the script does not change the benchmark.
RECOVERY_SYNTH = D.SynthSpec(n_days=2200, n_docs=(10, 10), doc_len=(8, 8),
                             plant_per_day=True, phi=0.5, alpha=1.0,
                             sigma=0.1, seed=42, start=_START)
RECOVERY_SPLIT = D.SplitSpec(train_until=_START + dt.timedelta(days=1999),
                             valid_until=_START + dt.timedelta(days=2099))
RECOVERY_MODEL = M.ModelConfig(variant="msin", d_s=16, d_h=8, d_w=16,
                               dropout_rate=0.4, vocab_size=64, m=5,
                               max_tokens=8, daily_doc_cap=10)

# Cell-heavy: a 30-step window at the package's default cell width, over
# ragged days of 2-3 short ragged documents.
LONG_SYNTH = D.SynthSpec(n_days=500, n_docs=(2, 3), doc_len=(3, 5),
                         plant_per_day=True, phi=0.5, alpha=1.0, sigma=0.1,
                         seed=7, start=_START)
LONG_SPLIT = D.SplitSpec(fracs=(0.8, 0.1, 0.1))
LONG_MODEL = M.ModelConfig(variant="msin", d_s=64, d_h=8, d_w=16,
                           dropout_rate=0.4, vocab_size=64, m=30,
                           max_tokens=8, daily_doc_cap=10)


@dataclass(frozen=True)
class TrainWorkload:
    synth: D.SynthSpec
    split: D.SplitSpec
    model: M.ModelConfig
    steps: int              # per train() call, one validation pass at the end
    learning_rate: float = 3e-3
    batch_size: int = 8


TRAIN_WORKLOADS = {
    "train_recovery": TrainWorkload(RECOVERY_SYNTH, RECOVERY_SPLIT,
                                    RECOVERY_MODEL, steps=20),
    "train_long_window": TrainWorkload(LONG_SYNTH, LONG_SPLIT, LONG_MODEL,
                                       steps=8),
}
# The initial weights are fixed and the run seed drives shuffling and
# dropout: across seeds, valid_mse then spreads by about 2% instead of 10%.
INIT_SEED = 0
# serve_rank's checkpoint comes from a short `msin train`, whose one --seed
# sets both the weights and the shuffle. It is fixed, so every run serves the
# same checkpoint; the run seed picks the ranked days.
SERVE_CHECKPOINT = TrainWorkload(RECOVERY_SYNTH, RECOVERY_SPLIT,
                                 RECOVERY_MODEL, steps=10)
SERVE_TRAIN_SEED = 0
WORKLOADS = tuple(TRAIN_WORKLOADS) + ("serve_rank",)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


Unit = namedtuple("Unit", "phase index seconds traced start end work")


class Run:
    """Counts operations, times each, and traces every other one if asked.

    An untraced run samples the host's speed while it runs (``sampler``, see
    calibrate.py) and reports normalized times; a traced run reports wall
    times, so no reference work lands inside its spans.
    """

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.sampler = None if trace else Sampler()
        self.attempted = 0
        self.failed = 0
        self.units: list[Unit] = []
        self._index: Counter = Counter()

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at nominal host speed; wall time if traced."""
        if self.sampler is None:
            return t1 - t0
        return self.sampler.normalized(t0, t1)

    def op(self, phase: str, fn, verify=None, traced=None, work=None):
        """Run ``fn`` as one operation; ``verify(result)`` checks its output.

        Returns (result, seconds), or None when the call raised or a check
        failed. ``traced`` defaults to every other operation of the phase in
        a traced run. ``work`` holds counts (samples, steps) that per-sample
        layer metrics divide by.
        """
        index = self._index[phase]
        self._index[phase] += 1
        if traced is None:
            traced = self.tracer is not None and index % 2 == 1
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if traced:
                with self.tracer.active((phase, index)):
                    result = fn()
            else:
                result = fn()
            t1 = time.perf_counter()
            if verify is not None:
                verify(result)
        except Exception:  # a failed operation is counted; the run goes on
            self.failed += 1
            print("operation %s #%d failed:" % (phase, index), file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        self.units.append(Unit(phase, index, t1 - t0, traced, t0, t1,
                               dict(work or {})))
        return result, t1 - t0


# ---------------------------------------------------------------------------
# checks shared by the in-memory and the CLI serving paths


def check_mass(mass, label: str) -> None:
    mass = np.asarray(mass, dtype=np.float64)
    check(mass.ndim == 1 and mass.size > 0, "%s: empty mass" % label)
    check(bool(np.isfinite(mass).all()), "%s: non-finite mass" % label)
    check(bool((mass >= 0).all()), "%s: negative mass" % label)
    check(abs(float(mass.sum()) - 1.0) <= MASS_TOL,
          "%s: mass sums to %r" % (label, float(mass.sum())))


def check_history(history, steps: int) -> None:
    check(len(history) == steps, "ran %d of %d steps" % (len(history), steps))
    check(all(np.isfinite(r.train_loss) for r in history),
          "non-finite training loss")


class SameEachTime:
    """Remembers the first output per key; later outputs must equal it."""

    def __init__(self, what: str):
        self.what = what
        self.first: dict = {}

    def __call__(self, key, value) -> None:
        expected = self.first.setdefault(key, value)
        check(value == expected, "%s differs between repetitions (%s)"
              % (self.what, key))


def rank_dates(seed: int, dates) -> list:
    dates = sorted(dates)
    rng = np.random.default_rng([seed, 0x72616E6B])
    picks = rng.choice(len(dates), size=min(RANK_DATE_POOL, len(dates)),
                       replace=False)
    return [dates[int(i)] for i in picks]


class RankLoop:
    """Ranks the pool's days in turn, one `rank` operation per day."""

    def __init__(self, run: Run, pool, rank_one, verify):
        self.run, self.pool = run, pool
        self.rank_one, self.verify = rank_one, verify
        self.calls = 0

    def __call__(self, n: int) -> None:
        for _ in range(n):
            date = self.pool[self.calls % len(self.pool)]
            self.calls += 1
            self.run.op("rank", lambda: self.rank_one(date), self.verify,
                        work={"fwd_samples": 1})

    def finish(self, deadline: float) -> None:
        """Rank on until the deadline and until 100 calls were made."""
        while self.calls < MIN_RANK_CALLS or time.perf_counter() < deadline:
            self(1)


def untraced_seconds(run: Run, phase: str) -> list[float]:
    """Normalized times of the phase's untraced operations."""
    return [run.normalized(u.start, u.end) for u in run.units
            if u.phase == phase and not u.traced]


# ---------------------------------------------------------------------------
# train_recovery and train_long_window


def run_train(run: Run, wl: TrainWorkload, seed: int, seconds: float) -> dict:
    """Rounds of one train() call, one eval and 40 rank calls until the end.

    Interleaving spreads every metric over the whole run, so a slow spell
    of the machine is shared by all of them instead of hitting one phase.
    Eval and rank serve the just-trained model in memory on the test days.
    Rounds go in pairs: both train() calls of a pair get the same shuffle
    and dropout seed, drawn from the run seed, and must agree bitwise;
    ``valid_mse`` is the median over all calls, so it rests on several
    seeds instead of one.
    """
    cfg = wl.model

    def train_config(rnd):
        return TR.TrainConfig(learning_rate=wl.learning_rate,
                              batch_size=wl.batch_size, max_steps=wl.steps,
                              eval_every=wl.steps,
                              seed=seed * 1000 + rnd // 2)

    def setup():
        corpus, series = D.synth_generate(wl.synth)
        vocab = D.build_vocab(corpus, max_size=cfg.vocab_size)
        samples = D.make_samples(corpus, series, vocab, cfg, wl.split)
        M.init_model(cfg, seed=INIT_SEED)
        return samples

    reps, spent = 0, 0.0
    while reps < 1 or not run.tracer and (reps < SETUP_REPS
                                          or spent < SETUP_MIN_S):
        out = run.op("setup", setup, traced=run.tracer is not None)
        if out is None:
            raise RuntimeError("set-up failed")
        samples, secs = out
        reps, spent = reps + 1, spent + secs
    served = samples.test
    by_date = {s.window.date: s for s in served}
    params = None
    same_mse = SameEachTime("valid_mse")
    same_rank = SameEachTime("ranking")

    def train_rep(tcfg):
        fresh = M.init_model(cfg, seed=INIT_SEED)
        t0 = time.perf_counter()
        result = TR.train(samples, fresh, cfg, tcfg)
        return result, (t0, time.perf_counter()), tcfg.seed

    def verify_train(out):
        result, _train_span, train_seed = out
        check_history(result.history, wl.steps)
        check(bool(np.isfinite(result.best_valid)), "valid_mse not finite")
        same_mse(train_seed, result.best_valid)

    def verify_eval(result):
        check(len(result.days) == len(served), "eval skipped days")
        for day in result.days:
            check_mass(day.mass, day.date.isoformat())

    def rank_one(date):
        pred = M.forward(None, by_date[date], params, cfg)
        mass = pred.relevance.data.astype(np.float64)
        return date, mass, E.rank_order(mass), E.select_relevant(mass)

    def verify_rank(out):
        date, mass, order, chosen = out
        check_mass(mass, date.isoformat())
        same_rank((params_seed, date), (mass.tobytes(), order, chosen))

    ranks = RankLoop(run, rank_dates(seed, by_date), rank_one, verify_rank)
    train_work = {"train_samples": wl.steps * wl.batch_size,
                  "fwd_samples": wl.steps * wl.batch_size + len(samples.valid),
                  "steps": wl.steps}
    deadline = time.perf_counter() + seconds
    train_spans, valid_mse, rounds, last = [], [], 0, 0.0
    params_seed = None
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        tcfg = train_config(rounds)
        rounds += 1
        out = run.op("train", lambda: train_rep(tcfg), verify_train,
                     work=train_work)
        if out is not None:
            (result, train_span, params_seed), _ = out
            params = result.params
            valid_mse.append(result.best_valid)
            if not run.units[-1].traced:
                train_spans.append(train_span)
        if params is not None:
            run.op("eval", lambda: E.rank_report(params, cfg, served),
                   verify_eval, work={"fwd_samples": len(served)})
            ranks(RANKS_PER_ROUND)
        last = time.perf_counter() - t0
    if params is None:
        raise RuntimeError("no train() call succeeded")
    ranks.finish(deadline)
    return {"train_spans": train_spans,
            "train_samples": wl.steps * wl.batch_size,
            "valid_mse": median(valid_mse), "eval_days": len(served)}


# ---------------------------------------------------------------------------
# serve_rank


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = C.main(argv)
    return code, buf.getvalue()


def _synth_argv(spec: D.SynthSpec, out_dir: str) -> list[str]:
    return ["synth", "--out-dir", out_dir, "--days", str(spec.n_days),
            "--docs-min", str(spec.n_docs[0]), "--docs-max", str(spec.n_docs[1]),
            "--len-min", str(spec.doc_len[0]), "--len-max", str(spec.doc_len[1]),
            "--vocab-size", str(spec.vocab_size), "--phi", repr(spec.phi),
            "--alpha", repr(spec.alpha), "--sigma", repr(spec.sigma),
            "--plant-per-day", str(spec.plant_per_day).lower(),
            "--seed", str(spec.seed), "--start", spec.start.isoformat()]


def _train_argv(wl: TrainWorkload, data_dir: str) -> list[str]:
    argv = ["train", "--corpus", os.path.join(data_dir, "corpus.jsonl"),
            "--series", os.path.join(data_dir, "series.csv"),
            "--out-dir", data_dir,
            "--train-until", wl.split.train_until.isoformat(),
            "--valid-until", wl.split.valid_until.isoformat(),
            "--learning-rate", repr(wl.learning_rate),
            "--batch-size", str(wl.batch_size),
            "--max-steps", str(wl.steps), "--eval-every", str(wl.steps),
            "--seed", str(SERVE_TRAIN_SEED)]
    for key in ("variant", "d_s", "d_h", "d_w", "vocab_size", "m",
                "max_tokens", "daily_doc_cap", "dropout_rate"):
        argv += ["--" + key.replace("_", "-"), str(getattr(wl.model, key))]
    return argv


def run_serve(run: Run, seed: int, seconds: float, workdir: str) -> dict:
    """Set-up writes the corpus and a checkpoint through `msin synth/train`;
    then two rounds of one `msin eval --split all` and 40 `msin rank` calls,
    and rank calls until the end, at least 100. Every call goes through
    ``cli.main``, and every rank output is checked against the eval's output
    for the same day."""
    wl = SERVE_CHECKPOINT
    cfg, spec = wl.model, wl.synth
    data_dir = os.path.join(workdir, "data")
    eval_dir = os.path.join(workdir, "eval")
    ckpt = os.path.join(data_dir, "checkpoint.msn")
    inputs = ["--checkpoint", ckpt,
              "--corpus", os.path.join(data_dir, "corpus.jsonl"),
              "--series", os.path.join(data_dir, "series.csv")]
    # train() inside `msin train` is timed by a span in every run
    timer = run.tracer or Tracer(
        table=[t for t in LAYER_SPANS if t[2] == "training.train"],
        count_ops=False)
    same_ckpt = SameEachTime("checkpoint bytes")

    def setup(rep):
        first = len(timer.spans)
        with timer.active(("setup", rep)):
            code, _ = _cli(_synth_argv(spec, data_dir))
            check(code == 0, "msin synth exited %d" % code)
            code, _ = _cli(_train_argv(wl, data_dir))
            check(code == 0, "msin train exited %d" % code)
        return [(s.start, s.end) for s in timer.spans[first:]
                if s.name == "training.train"]

    def verify_setup(train_spans):
        check(len(train_spans) == 1, "msin train ran train() %d times"
              % len(train_spans))
        with open(ckpt, "rb") as fh:
            same_ckpt("checkpoint", fh.read())
        with open(os.path.join(data_dir, "history.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        check(len(rows) == wl.steps, "history has %d rows" % len(rows))
        check(all(np.isfinite(float(r.split(",")[1])) for r in rows),
              "non-finite training loss")

    train_spans = []
    for rep in range(1 if run.tracer else SERVE_SETUP_REPS):
        out = run.op("setup", lambda: setup(rep), verify_setup, traced=False)
        if out is None:
            raise RuntimeError("set-up failed")
        train_spans.append(out[0][0])
    valid_mse = TR.checkpoint_load(ckpt)[3]["valid_loss"]
    if valid_mse is None or not np.isfinite(valid_mse):
        raise RuntimeError("checkpoint has no finite validation loss")

    n_days = spec.n_days - cfg.m
    same_report = SameEachTime("report.json")
    evaluated = {}   # date -> (mass, selected) from the eval's days.jsonl

    def verify_eval(out):
        code, _text = out
        check(code == 0, "msin eval exited %d" % code)
        with open(os.path.join(eval_dir, "report.json"), "rb") as fh:
            same_report("report", fh.read())
        with open(os.path.join(eval_dir, "days.jsonl"), encoding="utf-8") as fh:
            days = [json.loads(line) for line in fh]
        check(len(days) == n_days, "days.jsonl has %d days" % len(days))
        for day in days:
            check_mass(day["mass"], day["date"])
            evaluated[day["date"]] = (np.asarray(day["mass"]), day["selected"])

    same_rank = SameEachTime("rank output")

    def rank_one(date):
        code, text = _cli(["rank", *inputs, "--date", date.isoformat()])
        return date, code, text

    def verify_rank(out):
        date, code, text = out
        check(code == 0, "msin rank exited %d" % code)
        check(text.startswith("ranking for %s " % date.isoformat()),
              "rank printed no ranking for %s" % date)
        same_rank(date, text)
        if date.isoformat() in evaluated:
            agrees_with_eval(date.isoformat(), text)

    def agrees_with_eval(day, text):
        """`rank` lists the documents in the order and with the masses and
        selection of the same day in the eval's days.jsonl."""
        mass, selected = evaluated[day]
        rows = [line.split() for line in text.splitlines()
                if line.startswith("rank ")]
        check([int(r[3]) - 1 for r in rows] == list(E.rank_order(mass)),
              "rank order differs from eval on %s" % day)
        check([r[5] for r in rows] == ["%.4f" % mass[int(r[3]) - 1]
                                       for r in rows],
              "rank masses differ from eval on %s" % day)
        chosen = text.rsplit("selected: ", 1)[-1].split(",")
        check(sorted(int(c.split()[1]) - 1 for c in chosen) == sorted(selected),
              "rank selection differs from eval on %s" % day)

    eligible = [spec.start + dt.timedelta(days=i)
                for i in range(cfg.m, spec.n_days)]
    ranks = RankLoop(run, rank_dates(seed, eligible), rank_one, verify_rank)
    deadline = time.perf_counter() + seconds
    for _ in range(SERVE_EVALS):
        run.op("eval", lambda: _cli(["eval", *inputs, "--out-dir", eval_dir,
                                     "--split", "all"]),
               verify_eval, work={"fwd_samples": n_days})
        ranks(RANKS_PER_ROUND)
    ranks.finish(deadline)
    return {"train_spans": train_spans,
            "train_samples": wl.steps * wl.batch_size,
            "valid_mse": valid_mse, "eval_days": n_days}


def run_workload(name: str, run: Run, seed: int, seconds: float,
                 workdir: str) -> dict:
    if name == "serve_rank":
        return run_serve(run, seed, seconds, workdir)
    return run_train(run, TRAIN_WORKLOADS[name], seed, seconds)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run, raw: dict) -> tuple[dict, dict]:
    """End-to-end metrics as {name: (value, unit)}, plus a summary.

    Every time is normalized (see calibrate.py). Throughputs divide the work
    of one call by the median call time, the rank latencies are nearest-rank
    percentiles of every untraced rank call, and set-up time is the median of
    its repetitions. ``raw`` holds the train() times and the counts they
    divide. The summary gives the sample count, the tail percentile and the
    host's slowdown and wall-clock medians, for reading next to the metrics.
    """
    train_s = [run.normalized(t0, t1) for t0, t1 in raw["train_spans"]]
    eval_s = untraced_seconds(run, "eval")
    latencies = untraced_seconds(run, "rank")
    if not (train_s and eval_s and latencies):
        raise RuntimeError("too few successful operations for a result")
    p50, _ = nearest_rank(latencies, 50.0)
    p90, beyond = nearest_rank(latencies, 90.0)
    if beyond < 10:
        raise RuntimeError("only %d rank samples beyond p90" % beyond)
    tail = tail_percentile(latencies)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "train_samples_per_s": (raw["train_samples"] / median(train_s),
                                "samples/s"),
        "valid_mse": (raw["valid_mse"], "mse"),
        "eval_days_per_s": (raw["eval_days"] / median(eval_s), "days/s"),
        "rank_ms_p50": (1000.0 * p50, "ms"),
        "rank_ms_p90": (1000.0 * p90, "ms"),
        "setup_s": (median(untraced_seconds(run, "setup")), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    slow = {phase: median(run.sampler.slowdown(u.start, u.end)
                          for u in run.units
                          if u.phase == phase and not u.traced)
            for phase in ("setup", "train", "eval", "rank")
            if any(u.phase == phase for u in run.units)}
    wall = {phase: median(u.seconds for u in run.units
                          if u.phase == phase and not u.traced)
            for phase in ("setup", "eval", "rank")}
    summary = {"rank_samples": len(latencies), "beyond_p90": beyond,
               "tail_pct": tail[0], "tail_ms": 1000.0 * tail[1],
               "slowdown": slow,
               "wall_ms": {k: 1000.0 * v for k, v in wall.items()},
               "reference_share": run.sampler.busy(
                   run.units[0].start, run.units[-1].end)
               / (run.units[-1].end - run.units[0].start)}
    return metrics, summary


def layer_metrics(run: Run, main_phase: str) -> dict:
    """Per-layer metrics from the traced operations of a traced run.

    Compute layers (encoder, cell, model, tensor, training loop) count only
    the measured phase; the data and checkpoint layers count set-up too,
    since serve_rank writes its corpus and checkpoint there.
    """
    tracer = run.tracer
    spans = tracer.spans
    selfs = self_times(spans)
    traced = [u for u in run.units if u.traced and u.phase != "setup"]
    work = Counter()
    for u in traced:
        work.update(u.work)
    fwd, train_n = work["fwd_samples"], work["train_samples"]

    def sel(name, measured=True):
        return [(s, selfs[i]) for i, s in enumerate(spans) if s.name == name
                and (not measured or s.sample[0] != "setup")]

    def per(total, n):
        return total / n if n else 0.0

    def mean_self_ms(name, measured=True):
        rows = sel(name, measured)
        return per(1000.0 * sum(t for _, t in rows), len(rows))

    def mean_ms(name, measured=True):
        rows = sel(name, measured)
        return per(1000.0 * sum(s.end - s.start for s, _ in rows), len(rows))

    def mean_extra(name, measured=True):
        vals = [s.extra for s, _ in sel(name, measured) if s.extra is not None]
        return per(float(sum(vals)), len(vals))

    ops = Counter()
    op_s = 0.0
    for phase, calls in tracer.op_calls.items():
        if phase != "setup":
            ops.update(calls)
            op_s += tracer.op_seconds.get(phase, 0.0)

    out = {
        "text_encoder.encode_ms": (mean_self_ms("text_encoder.encode"), "ms"),
        "text_encoder.tape_entries": (mean_extra("text_encoder.encode"),
                                      "count"),
        "text_encoder.calls": (per(len(sel("text_encoder.encode")), fwd),
                               "count"),
        "cell.run_ms": (mean_self_ms("cell.run"), "ms"),
        "cell.tape_entries": (mean_extra("cell.run"), "count"),
        "model.forward_self_ms": (mean_self_ms("model.forward"), "ms"),
        "model.loss_ms": (mean_ms("model.loss"), "ms"),
        "tensor.backward_ms": (per(1000.0 * sum(s.end - s.start for s, _
                                                in sel("tensor.backward")),
                                   train_n), "ms"),
        "tensor.tape_entries": (per(sum(s.extra for s, _
                                        in sel("tensor.backward")), train_n),
                                "count"),
        "tensor.op_ms": (per(1000.0 * op_s, fwd), "ms"),
    }
    for kind in OP_KINDS:
        out["tensor.ops." + kind] = (per(ops.pop(kind, 0), fwd), "count")
    out["tensor.ops.other"] = (per(sum(ops.values()), fwd), "count")
    out.update({
        "training.self_ms_per_step": (per(1000.0 * sum(
            t for _, t in sel("training.train")), work["steps"]), "ms"),
        "training.eval_loss_ms": (mean_ms("training.eval_loss"), "ms"),
        "training.checkpoint_save_ms": (
            mean_ms("training.checkpoint_save", False), "ms"),
        "training.checkpoint_load_ms": (
            mean_ms("training.checkpoint_load", False), "ms"),
        "training.checkpoint_bytes": (
            mean_extra("training.checkpoint_save", False), "bytes"),
        "data.load_corpus_ms": (mean_ms("data.load_corpus", False), "ms"),
        "data.load_series_ms": (mean_ms("data.load_series", False), "ms"),
        "data.build_vocab_ms": (mean_ms("data.build_vocab", False), "ms"),
        "data.make_samples_ms": (mean_ms("data.make_samples", False), "ms"),
        "data.synth_ms": (mean_ms("data.synth", False), "ms"),
        "evaluation.rank_report_self_ms": (
            mean_self_ms("evaluation.rank_report"), "ms"),
        "evaluation.write_ms": (per(1000.0 * sum(
            s.end - s.start for s, _ in sel("evaluation.write")),
            len(sel("cli.eval"))), "ms"),
        "cli.eval_self_ms": (mean_self_ms("cli.eval"), "ms"),
        "cli.rank_self_ms": (mean_self_ms("cli.rank"), "ms"),
    })

    def unit_median(is_traced):
        return median(u.seconds for u in run.units
                      if u.phase == main_phase and u.traced == is_traced)

    out["trace.overhead_pct"] = (
        100.0 * (unit_median(True) / unit_median(False) - 1.0), "%")
    inside = 0.0
    for u in traced:
        roots = [(s.start, s.end) for s in spans
                 if s.parent < 0 and s.sample == (u.phase, u.index)]
        inside += covered(roots, u.start, u.end)
    wall = sum(u.seconds for u in traced)
    out["trace.unattributed_share"] = (per(wall - inside, wall), "share")
    return out
