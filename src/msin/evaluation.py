"""Relevance ranking metrics, cumulative-mass selection, movement scoring.

Ranking quality is judged per day: documents are ordered by attention mass
(ties broken by ascending index) and compared against the day's ground-truth
set. Days without any ground-truth document are excluded from precision and
recall averages; asking for those metrics when no day qualifies is an error
rather than a silent zero. ``rank_report`` works a forward pass at a time:
it checks the pass's [B, N] masses as an array and ranks and cuts every row
with ``rank_pass``, the one rule that ``rank_order`` and ``select_relevant``
apply to a single vector, and ``precision_recall_curve`` computes Pre@k/Rec@k
for every k from the top-k hits of all days at once.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from . import training as TR
from .files import write_atomically

SELECT_THRESHOLD = 0.5


class UndefinedMetricError(Exception):
    """Raised when a requested average has no qualifying observations."""


def rank_pass(mass, n) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ranking and selection cut, for [B, N] masses whose row b
    holds ``n[b]`` documents followed by padding.

    ``order[b]`` lists row b's indices by descending mass, equal masses in
    ascending index order and padded slots last. ``cut[b]`` is the length of
    the smallest prefix of that order whose cumulative mass reaches
    SELECT_THRESHOLD, or ``n[b]`` if none does. The threshold is absolute,
    so vectors that do not sum exactly to one (rounded report tables, for
    instance) still select sensibly.
    """
    mass = np.asarray(mass, dtype=np.float64)
    n = np.asarray(n)
    valid = np.arange(mass.shape[1]) < n[:, None]
    order = np.argsort(np.where(valid, -mass, np.inf), axis=1, kind="stable")
    reached = valid & (np.cumsum(np.take_along_axis(mass, order, 1), axis=1)
                       >= SELECT_THRESHOLD)
    cut = np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, n)
    return order, cut


def rank_order(mass: np.ndarray) -> tuple[int, ...]:
    """Indices by descending mass; equal masses keep ascending index order."""
    order, _ = rank_pass(np.atleast_2d(mass), [len(mass)])
    return tuple(order[0].tolist())


@dataclass(frozen=True)
class KPoint:
    k: int
    precision: float
    recall: float


def precision_recall_curve(hits, counts, gt_sizes) -> tuple[KPoint, ...]:
    """Average Pre@k and Rec@k for k = 1..K over the days that have ground
    truth, as array operations over the days.

    Row d of the [days, K] ``hits`` marks which of day d's K top-ranked
    documents are ground truth (False past its ``counts[d]`` documents), and
    ``gt_sizes[d]`` counts its ground-truth documents. Per day the top list
    holds min(k, n) documents; recall divides by min(k, |gtn|) so a fully
    recovered small ground-truth set scores 1. Each k's terms are added in
    day order.
    """
    hits = np.asarray(hits, dtype=bool)
    k_max = hits.shape[1]
    if k_max < 1:
        raise ValueError("k must be at least 1")
    sizes = np.asarray(gt_sizes)
    qualifying = sizes > 0
    if not qualifying.any():
        raise UndefinedMetricError("no day has ground-truth documents; "
                                   "Pre@%d/Rec@%d undefined" % (k_max, k_max))
    k = np.arange(1, k_max + 1)
    tp = np.cumsum(hits[qualifying], axis=1)
    q = int(qualifying.sum())
    # cumsum adds the days in order, as a running float sum would
    pre = np.cumsum(tp / np.minimum(k, np.asarray(counts)[qualifying, None]),
                    axis=0)[-1] / q
    rec = np.cumsum(tp / np.minimum(k, sizes[qualifying, None]), axis=0)[-1] / q
    return tuple(KPoint(j, p, r)
                 for j, p, r in zip(k.tolist(), pre.tolist(), rec.tolist()))


def select_relevant(mass: np.ndarray) -> tuple[int, ...]:
    """Smallest descending-mass prefix whose cumulative mass reaches 50%
    (``rank_pass``'s cut); every index if the whole vector sums to less."""
    order, cut = rank_pass(np.atleast_2d(mass), [len(mass)])
    return tuple(order[0, :cut[0]].tolist())


@dataclass(frozen=True)
class MovementMetrics:
    """Accuracy plus per-class precision/recall; None marks undefined cells."""

    accuracy: float
    up_precision: float | None
    up_recall: float | None
    down_precision: float | None
    down_recall: float | None
    n: int

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "n": self.n,
                "up": {"precision": self.up_precision, "recall": self.up_recall},
                "down": {"precision": self.down_precision,
                         "recall": self.down_recall}}


def movement_metrics(preds, targets) -> MovementMetrics:
    """Confusion-matrix scores for the two movement classes."""
    preds, targets = list(preds), list(targets)
    if not preds or len(preds) != len(targets):
        raise UndefinedMetricError("need equally many predictions and targets")
    bad = set(preds + targets) - {"up", "down"}
    if bad:
        raise ValueError("unknown movement labels: %s" % sorted(bad))

    def rate(num, den):
        return num / den if den else None

    hits = sum(p == t for p, t in zip(preds, targets))
    out = {}
    for cls in ("up", "down"):
        tp = sum(1 for p, t in zip(preds, targets) if p == cls and t == cls)
        out[cls] = (rate(tp, preds.count(cls)), rate(tp, targets.count(cls)))
    return MovementMetrics(accuracy=hits / len(preds),
                           up_precision=out["up"][0], up_recall=out["up"][1],
                           down_precision=out["down"][0],
                           down_recall=out["down"][1], n=len(preds))


# ---------------------------------------------------------------------------
# full evaluation over a sample list


@dataclass(frozen=True)
class DayRecord:
    """Per-day dump row: mass vector, ground truth, selected set."""

    date: dt.date
    mass: tuple[float, ...]
    gtn: tuple[int, ...]
    selected: tuple[int, ...]


@dataclass(frozen=True)
class MetricsReport:
    per_k: tuple[KPoint, ...]
    movement: MovementMetrics
    days: int
    gtd: int
    relevance_available: bool


@dataclass(frozen=True)
class RankResult:
    report: MetricsReport
    days: tuple[DayRecord, ...]  # empty when relevance is unavailable


def gtn_of(sample) -> tuple[int, ...]:
    """The indices of a sample's ground-truth documents, ascending."""
    return tuple([i for i, flag in enumerate(sample.docs.relevance)
                  if flag is True])


def checked_masses(mass, dates) -> np.ndarray:
    """[B, N] attention masses as float64, once every entry is finite and
    non-negative; otherwise ``T.EngineError`` names the first bad row's
    day, ``dates[b]``."""
    mass = np.asarray(mass, dtype=np.float64)
    ok = np.isfinite(mass) & (mass >= 0)
    if not ok.all():
        b = int(np.flatnonzero(~ok.all(axis=1))[0])
        raise T.EngineError("attention mass of %s is not finite and "
                            "non-negative" % (dates[b],))
    return mass


def rank_report(params, config: M.ModelConfig, samples,
                k_max: int = 5) -> RankResult:
    """Forward every sample, rank its documents, and aggregate metrics.

    Samples run in the forward-only passes of ``training.forward_chunks``,
    which hold more days when days hold fewer documents; by batch invariance
    the result equals that of one forward per day, bit for bit. Each pass's
    [B, N] masses are checked once and ranked and cut by one ``rank_pass``,
    and its movement labels come from one comparison.
    """
    if not samples:
        raise UndefinedMetricError("no samples to evaluate")
    if k_max < 1:
        raise ValueError("k must be at least 1")
    records, hits, counts, gt_sizes, preds, targets = [], [], [], [], [], []
    for chunk, pred in TR.forward_chunks(samples, params, config):
        preds += M.predicted_movement(pred.value.data, chunk, config)
        targets += [M.movement_label(s.window.target, s.window.prev)
                    for s in chunk]
        gtns = [gtn_of(s) for s in chunk]
        sizes = [len(g) for g in gtns]
        gt_sizes += sizes
        if pred.relevance is None:
            continue
        dates = [s.window.date for s in chunk]
        mass = checked_masses(pred.relevance.data, dates)
        n = np.asarray(pred.counts)
        order, cut = rank_pass(mass, n)
        B, N = mass.shape
        # padded slots are never ground truth, so they never count as hits
        gt = np.zeros((B, N), dtype=bool)
        gt[np.repeat(np.arange(B), sizes), [i for g in gtns for i in g]] = True
        top = np.zeros((B, k_max), dtype=bool)
        w = min(N, k_max)
        top[:, :w] = np.take_along_axis(gt, order, 1)[:, :w]
        hits.append(top)
        counts.append(n)
        for date, m, o, c, k, g in zip(dates, mass.tolist(), order.tolist(),
                                       n.tolist(), cut.tolist(), gtns):
            records.append(DayRecord(date=date, mass=tuple(m[:c]), gtn=g,
                                     selected=tuple(o[:k])))
    movement = movement_metrics(preds, targets)
    available = bool(records)
    per_k = ()
    if available and any(gt_sizes):
        per_k = precision_recall_curve(np.concatenate(hits),
                                       np.concatenate(counts), gt_sizes)
    report = MetricsReport(per_k=per_k, movement=movement, days=len(samples),
                           gtd=sum(g > 0 for g in gt_sizes),
                           relevance_available=available)
    return RankResult(report=report, days=tuple(records))


def attention_entropy(params, config: M.ModelConfig, samples) -> float:
    """Mean Shannon entropy (nats) of the per-day attention mass.

    Low entropy means mass concentrated on few documents, high entropy
    means near-uniform spread. The statistic needs no relevance flags,
    which makes it usable for model selection on unlabeled data. Samples
    run in the passes of ``training.forward_chunks``, with the same result
    as one forward per day, bit for bit.
    """
    if not samples:
        raise UndefinedMetricError("no samples to evaluate")
    total = 0.0
    for chunk, pred in TR.forward_chunks(samples, params, config):
        if pred.relevance is None:
            raise UndefinedMetricError("model assigns no relevance mass")
        for b in range(len(chunk)):
            p = pred.mass(b)
            p = p[p > 0.0]
            total += float(-(p * np.log(p)).sum())
    return total / len(samples)


# ---------------------------------------------------------------------------
# emission


def report_json(result: RankResult, config: M.ModelConfig) -> dict:
    r = result.report
    return {"config_hash": M.config_hash(config),
            "per_k": [{"k": p.k, "pre": p.precision, "rec": p.recall}
                      for p in r.per_k],
            "movement": r.movement.to_dict(),
            "days": r.days, "gtd": r.gtd,
            "relevance_available": r.relevance_available,
            "precision_denominator": "min(k,n)"}


def write_report(result: RankResult, config: M.ModelConfig, path: str) -> None:
    with write_atomically(path, "w", encoding="utf-8") as fh:
        json.dump(report_json(result, config), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_day_dump(result: RankResult, path: str) -> None:
    """JSON line per day: {date, gtn, mass, selected}, formatted directly
    with the bytes ``json.JSONEncoder(sort_keys=True)`` writes for finite
    masses."""
    with write_atomically(path, "w", encoding="utf-8") as fh:
        fh.write("".join('{"date": "%s", "gtn": [%s], "mass": [%s], '
                         '"selected": [%s]}\n'
                         % (d.date.isoformat(), ", ".join(map(str, d.gtn)),
                            ", ".join(map(float.__repr__, d.mass)),
                            ", ".join(map(str, d.selected)))
                         for d in result.days))


def write_curve_csv(result: RankResult, path: str) -> None:
    with write_atomically(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "precision", "recall"])
        for p in result.report.per_k:
            w.writerow([p.k, "%.10g" % p.precision, "%.10g" % p.recall])
