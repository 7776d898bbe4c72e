"""Relevance ranking metrics, cumulative-mass selection, movement scoring.

Ranking quality is judged per day: documents are ordered by attention mass
(ties broken by ascending index) and compared against the day's ground-truth
set. Days without any ground-truth document are excluded from precision and
recall averages; asking for those metrics when no day qualifies is an error
rather than a silent zero. ``rank_report`` ranks each day once (the
selection reuses ``DayRanking.ranked``), and ``precision_recall_curve``
computes Pre@k/Rec@k for every k in one pass over the days.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import training as TR
from .files import write_atomically

SELECT_THRESHOLD = 0.5


class UndefinedMetricError(Exception):
    """Raised when a requested average has no qualifying observations."""


def rank_order(mass: np.ndarray) -> tuple[int, ...]:
    """Indices by descending mass; equal masses keep ascending index order."""
    mass = np.asarray(mass, dtype=np.float64)
    return tuple(np.argsort(-mass, kind="stable").tolist())


@dataclass(frozen=True)
class DayRanking:
    date: dt.date
    mass: np.ndarray            # [n] float64, non-negative
    gtn: frozenset[int]
    ranked: tuple[int, ...] = ()

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a non-empty vector")
        if not np.isfinite(mass).all() or (mass < 0).any():
            raise ValueError("mass entries must be finite and non-negative")
        if not all(0 <= i < mass.size for i in self.gtn):
            raise ValueError("ground-truth index out of range")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "ranked", rank_order(mass))

    @property
    def n(self) -> int:
        return self.mass.size


@dataclass(frozen=True)
class KPoint:
    k: int
    precision: float
    recall: float


def precision_recall_curve(days, k_max: int) -> tuple[KPoint, ...]:
    """Average Pre@k and Rec@k for k = 1..k_max over days that have ground
    truth, in one pass over the days.

    Per day the top list holds min(k, n) documents; recall divides by
    min(k, |gtn|) so a fully recovered small ground-truth set scores 1.
    Each k's terms are added in day order.
    """
    if k_max < 1:
        raise ValueError("k must be at least 1")
    qualifying = [d for d in days if d.gtn]
    if not qualifying:
        raise UndefinedMetricError("no day has ground-truth documents; "
                                   "Pre@%d/Rec@%d undefined" % (k_max, k_max))
    pre, rec = [0.0] * k_max, [0.0] * k_max
    for day in qualifying:
        n, ranked, gtn = day.n, day.ranked, day.gtn
        tp = 0
        for j in range(k_max):  # the point of k = j + 1
            if j < n and ranked[j] in gtn:
                tp += 1
            pre[j] += tp / min(j + 1, n)
            rec[j] += tp / min(j + 1, len(gtn))
    q = len(qualifying)
    return tuple(KPoint(j + 1, pre[j] / q, rec[j] / q) for j in range(k_max))


def _mass_prefix(mass, order) -> tuple[int, ...]:
    """The prefix of ``order`` that ``select_relevant`` picks from ``mass``."""
    total = 0.0
    for j, i in enumerate(order, 1):
        total += mass[i]
        if total >= SELECT_THRESHOLD:
            return order[:j]
    return order


def select_relevant(mass: np.ndarray) -> tuple[int, ...]:
    """Smallest descending-mass prefix whose cumulative mass reaches 50%.

    The threshold is absolute, so vectors that do not sum exactly to one
    (rounded report tables, for instance) still select sensibly. If the whole
    vector sums to less than the threshold, every index is returned.
    """
    return _mass_prefix(np.asarray(mass, dtype=np.float64).tolist(),
                        rank_order(mass))


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


def gtn_of(sample) -> frozenset[int]:
    return frozenset(i for i, flag in enumerate(sample.docs.relevance)
                     if flag is True)


def rank_report(params, config: M.ModelConfig, samples,
                k_max: int = 5) -> RankResult:
    """Forward every sample, rank its documents, and aggregate metrics.

    Samples run in the forward-only passes of ``training.forward_chunks``,
    which hold more days when days hold fewer documents; by batch invariance
    the result equals that of one forward per day, bit for bit.
    """
    if not samples:
        raise UndefinedMetricError("no samples to evaluate")
    rankings, records, preds, targets = [], [], [], []
    gtd = 0
    for chunk, pred in TR.forward_chunks(samples, params, config):
        for b, (s, value) in enumerate(zip(chunk, pred.value.data.tolist())):
            preds.append(M.predicted_movement(value, s, config))
            targets.append(M.movement_label(s.window.target, s.window.prev))
            gtn = gtn_of(s)
            gtd += bool(gtn)
            if pred.relevance is None:
                continue
            day = DayRanking(date=s.window.date, mass=pred.mass(b), gtn=gtn)
            mass = day.mass.tolist()
            rankings.append(day)
            records.append(DayRecord(date=day.date, mass=tuple(mass),
                                     gtn=tuple(sorted(gtn)),
                                     selected=_mass_prefix(mass, day.ranked)))
    movement = movement_metrics(preds, targets)
    available = bool(rankings)
    curve = available and any(r.gtn for r in rankings)
    per_k = precision_recall_curve(rankings, k_max) if curve else ()
    report = MetricsReport(per_k=per_k, movement=movement, days=len(samples),
                           gtd=gtd, relevance_available=available)
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
    """JSON line per day: {date, mass, gtn, selected}."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with write_atomically(path, "w", encoding="utf-8") as fh:
        for day in result.days:
            fh.write(encode({"date": day.date.isoformat(), "mass": day.mass,
                             "gtn": day.gtn, "selected": day.selected}) + "\n")


def write_curve_csv(result: RankResult, path: str) -> None:
    with write_atomically(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "precision", "recall"])
        for p in result.report.per_k:
            w.writerow([p.k, "%.10g" % p.precision, "%.10g" % p.recall])
