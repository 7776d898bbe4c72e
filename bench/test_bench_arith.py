"""Tests of the benchmark's own arithmetic and of its metric names.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from calibrate import (NOMINAL_UNIT_S, SLICE_UNITS, Sampler,  # noqa: E402
                       reference_unit)
from stats import nearest_rank, quartile_spread, tail_percentile  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, ("train", 0), None)


# ---------------------------------------------------------------------------
# self time


def test_self_time_nested_and_back_to_back_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, parent=0),
             span("a.inner", 2.0, 3.0, parent=1),
             span("b", 4.0, 6.0, parent=0)]
    # root loses a and b (3 + 2) but not a.inner, which lies inside a
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span("leaf", 2.5, 4.0)]) == pytest.approx([1.5])


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([(1.0, 5.0), (3.0, 7.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(4.0, 6.0), (1.0, 4.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([], 0.0, 10.0) == 0.0


# ---------------------------------------------------------------------------
# percentiles


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 11))
    assert nearest_rank(values, 50.0) == (5.0, 5)
    assert nearest_rank(values, 90.0) == (9.0, 1)
    assert nearest_rank(values, 100.0) == (10.0, 0)
    assert nearest_rank(list(reversed(values)), 50.0) == (5.0, 5)


@pytest.mark.parametrize("n, pct, rank", [
    (100, 90.0, 90),       # exactly ten beyond p90
    (999, 90.0, 900),      # p99 would leave 9 beyond
    (1000, 99.0, 990),     # p99.9 would leave 1 beyond
    (10000, 99.9, 9990),
])
def test_tail_percentile_takes_highest_with_ten_beyond(n, pct, rank):
    values = [float(i) for i in range(1, n + 1)]
    got_pct, value, count = tail_percentile(values)
    assert (got_pct, value, count) == (pct, float(rank), n)
    assert n - rank >= 10


def test_tail_percentile_refuses_too_few_samples():
    assert tail_percentile([float(i) for i in range(99)]) is None
    assert tail_percentile([]) is None


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert quartile_spread([10.0] * 5) == 0.0


# ---------------------------------------------------------------------------
# calibration


def fake_sampler(slices):
    """A sampler holding ``(start, slowdown)`` slices, never started."""
    sampler = Sampler()
    for start, slow in slices:
        sampler.starts.append(start)
        sampler.took.append(slow * SLICE_UNITS * NOMINAL_UNIT_S)
        sampler.ends.append(start + sampler.took[-1])
    return sampler


def test_slowdown_widens_until_enough_slices_are_near():
    sampler = fake_sampler([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (10.0, 3.0)])
    one = SLICE_UNITS * NOMINAL_UNIT_S
    assert sampler.busy(0.5, 1.5) == pytest.approx(one)
    # three slices lie within 7.9 s of [0.5, 1.5]; the fourth joins at 12.8 s
    assert sampler.slowdown(0.5, 1.5) == pytest.approx(1.5)
    assert sampler.normalized(0.5, 1.5) == pytest.approx((1.0 - one) / 1.5)


def test_sampler_ticks_while_armed_and_restores_the_handler():
    import signal
    import time

    old = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            reference_unit()
    ticks = len(sampler.starts)
    assert ticks >= 3 and len(sampler.ends) == len(sampler.took) == ticks
    assert signal.getsignal(signal.SIGALRM) == old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.05)
    assert len(sampler.starts) == ticks


# ---------------------------------------------------------------------------
# tracer


def test_tracer_links_parents_and_restores_originals(monkeypatch):
    mod = types.ModuleType("bench_fake_layer")

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    def inner(x):
        return x + 1

    mod.outer, mod.inner = outer, inner
    monkeypatch.setitem(sys.modules, "bench_fake_layer", mod)
    table = (("bench_fake_layer", "outer", "layer.outer", None, None),
             ("bench_fake_layer", "inner", "layer.inner", None,
              lambda a, k, before: a[0]))
    tracer = Tracer(table=table, count_ops=False)
    with tracer.active(("rank", 3)):
        assert mod.outer(1) == 4
    assert mod.outer is outer and mod.inner is inner
    names = [(s.name, s.parent, s.sample, s.extra) for s in tracer.spans]
    assert names == [("layer.outer", -1, ("rank", 3), None),
                     ("layer.inner", 0, ("rank", 3), 1),
                     ("layer.inner", 0, ("rank", 3), 1)]
    assert mod.outer(1) == 4 and len(tracer.spans) == 3  # inert when inactive


# ---------------------------------------------------------------------------
# the names printed match BENCHMARK.json


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    import workloads as W

    spec = _spec()
    run = W.Run(trace=True)
    work = {"train_samples": 8, "fwd_samples": 9, "steps": 1}
    run.units = [W.Unit("train", 0, 1.0, False, 0.0, 1.0, work),
                 W.Unit("train", 1, 1.1, True, 1.0, 2.1, work)]
    layer = W.layer_metrics(run, "train")
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_v, unit) in layer.items()}

    # the host ran at half speed throughout, and no slice fell inside an
    # operation: normalized times are half the wall times. Set-up takes
    # 1.0, 3.0, 2.5 s, eval 0.5 s, rank calls 1..100 ms, train() 2..5 s;
    # the traced rank call does not count.
    run = W.Run(trace=False)
    run.sampler = fake_sampler([(-4.0 + 0.5 * i, 2.0) for i in range(4)])
    run.units = ([W.Unit("setup", i, 2 * t, False, 10.0 * i, 10.0 * i + 2 * t,
                         {}) for i, t in enumerate((1.0, 3.0, 2.5))]
                 + [W.Unit("eval", 0, 1.0, False, 100.0, 101.0, {})]
                 + [W.Unit("rank", i, 0.002 * (i + 1), False, 200.0 + i,
                           200.0 + i + 0.002 * (i + 1), {}) for i in range(100)]
                 + [W.Unit("rank", 100, 9.0, True, 400.0, 409.0, {})])
    raw = {"train_spans": [(0.0, 4.0), (0.0, 10.0), (0.0, 6.0), (0.0, 8.0)],
           "train_samples": 8, "valid_mse": 1.0, "eval_days": 100}
    e2e, summary = W.end_to_end(run, raw)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_v, unit) in e2e.items()}
    assert summary["rank_samples"] == 100 and summary["beyond_p90"] == 10
    assert e2e["rank_ms_p90"][0] == pytest.approx(90.0)
    assert e2e["rank_ms_p50"][0] == pytest.approx(50.0)
    assert e2e["train_samples_per_s"][0] == pytest.approx(8.0 / 3.5)
    assert e2e["eval_days_per_s"][0] == pytest.approx(200.0)
    assert e2e["setup_s"][0] == pytest.approx(2.5)
