"""Corpus and series ingestion, vocabulary, windowing, synthetic generator.

Each headline is tokenized once per command, and every command reads a
corpus file the same way: ``load_corpus`` feeds ``read_corpus``'s lines
straight into ``tokenize_days``, which turns days of headlines into indices
of a first-seen token table, stored as one integer array, so no
``Document`` or ``Day`` is built and no text is held. ``count_vocab`` and
``window_samples`` work on that ``TokenizedDays``; ``build_vocab`` and
``make_samples`` are their forms for an in-memory ``Corpus``, whose one
tokenization is cached (``Corpus.tokens``).
``TokenizedDays.batches`` caps (keeping each day's last ``daily_doc_cap``
documents from ``capped_start``), truncates and maps the ids of every day
at once: each day's ``DocumentBatch`` is a slice of one corpus-wide
[documents, max_tokens] array. ``encode_day`` is the one-day case, which
``rank`` calls for each day it tries. ``to_samples`` normalizes every window
and target of a split in one array operation each (a sample's ``values_n``
is a row of that array). The synthetic generator plants signal tokens into
otherwise random documents and drives an AR(1) series off the daily plant
counts, so relevance recovery can be measured against known ground truth.
Its bounded draws (each day's document count and planted index, each
document's length, the signal's position and lexicon word) skip the
generator when their range holds one value, whose draw would return that
value without advancing the stream, so corpora match earlier versions byte
for byte. Relevance flags ride along in the corpus but are never consumed
by training code, only by evaluation.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .files import write_atomically
from .rng import substream

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"[^\W_]+")
_FLAG_TYPES = (bool, type(None))  # what a headline's "relevant" may be


class DatasetError(Exception):
    """Raised for malformed input files or degenerate sample sets."""


# ---------------------------------------------------------------------------
# domain types


class Document(NamedTuple):
    """One headline; a tuple, so a corpus of them loads quickly."""

    text: str
    relevant: bool | None = None


@dataclass(frozen=True)
class Day:
    date: dt.date
    docs: tuple[Document, ...]


@dataclass(frozen=True)
class Corpus:
    days: tuple[Day, ...]  # dates strictly increasing

    @functools.cached_property
    def tokens(self) -> TokenizedDays:
        """Every headline tokenized once; ``build_vocab`` and
        ``make_samples`` share it."""
        return tokenize_days((day.date, day.docs) for day in self.days)


@dataclass(frozen=True)
class Series:
    """Aligned (date, value-row) observations, dates strictly increasing."""

    dates: tuple[dt.date, ...]
    values: np.ndarray  # [T, D] float64

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != len(self.dates):
            raise DatasetError("series values must be [n_dates, D]")
        if not np.isfinite(vals).all():
            raise DatasetError("series contains non-finite values")
        object.__setattr__(self, "values", vals)
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DatasetError("series dates not strictly increasing at %s"
                                   % cur)


@dataclass(frozen=True)
class Vocabulary:
    """Token ids in frequency order; id 0 is padding, id 1 unknown.
    ``ids`` maps each token to its id."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.tokens[:2] != (PAD_TOKEN, UNK_TOKEN):
            raise DatasetError("vocabulary must start with pad and unk")
        object.__setattr__(self, "ids", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, slots=True)
class DocumentBatch:
    """One day's documents as padded id rows plus per-doc metadata."""

    token_ids: np.ndarray          # [n, K] int64, 0-padded
    lengths: np.ndarray            # [n] int64, all >= 1
    relevance: tuple[bool | None, ...]
    source_idx: np.ndarray         # [n] position within the day before drops

    @property
    def n(self) -> int:
        return self.token_ids.shape[0]


@dataclass(frozen=True, slots=True)
class SeriesWindow:
    values: np.ndarray  # [m, D] float64, raw scale
    target: float
    prev: float
    date: dt.date


@dataclass(frozen=True, slots=True)
class Sample:
    window: SeriesWindow
    docs: DocumentBatch
    values_n: np.ndarray  # [m, D] float32, normalized
    target_n: float


@dataclass(frozen=True)
class SeriesStats:
    mean: float
    std: float

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return ((np.asarray(values, dtype=np.float64) - self.mean)
                / self.std).astype(np.float32)


@dataclass(frozen=True)
class SplitSpec:
    """Date-range split (train_until/valid_until) or ordered fractions."""

    train_until: dt.date | None = None
    valid_until: dt.date | None = None
    fracs: tuple[float, float, float] | None = None

    def __post_init__(self):
        by_date = self.train_until is not None and self.valid_until is not None
        by_frac = self.fracs is not None
        if by_date == by_frac:
            raise DatasetError("give either both split dates or fractions")
        if by_date and self.valid_until <= self.train_until:
            raise DatasetError("valid_until must come after train_until")
        if by_frac:
            f = self.fracs
            if (len(f) != 3 or not all(math.isfinite(x) and x >= 0 for x in f)
                    or abs(sum(f) - 1.0) > 1e-9):
                raise DatasetError("split fractions must be 3 finite non-negatives "
                                   "summing to 1")


@dataclass(frozen=True)
class SampleSet:
    train: tuple[Sample, ...]
    valid: tuple[Sample, ...]
    test: tuple[Sample, ...]
    stats: SeriesStats
    skipped_no_docs: int
    skipped_no_series: int
    skipped_short_history: int


# ---------------------------------------------------------------------------
# tokenization and vocabulary


def tokenize(text: str, max_tokens: int | None = None) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, truncate to max_tokens."""
    toks = _TOKEN_RE.findall(text.lower())
    return toks[:max_tokens] if max_tokens is not None else toks


@dataclass(frozen=True)
class TokenizedDays:
    """Days of documents with every headline tokenized once.

    ``ids`` holds every document's tokens, each document followed by 0, as
    indices into ``table``: its entry 0 stands for that document end, the
    rest are the distinct tokens in first-seen order. ``lengths`` counts
    each document's tokens, ``day_sizes`` each day's documents, and
    ``flags`` holds each document's relevance flag.
    """

    dates: tuple
    table: tuple[str, ...]
    ids: np.ndarray        # [tokens + documents], the narrowest unsigned type
    lengths: np.ndarray    # [documents] int64
    day_sizes: np.ndarray  # [days] int64
    flags: list

    def batches(self, vocab: Vocabulary, max_tokens: int,
                cap: int) -> list[DocumentBatch]:
        """Each day's last ``cap`` documents as padded id rows, a slice of one
        [documents, max_tokens] array: tokens past ``max_tokens`` are cut,
        documents left without tokens dropped, and unknown tokens map to
        UNK_ID. ``source_idx`` counts from the first of the day's last
        ``cap`` documents."""
        sizes = self.day_sizes
        day = np.repeat(np.arange(sizes.size), sizes)
        src = (np.arange(day.size) - (np.cumsum(sizes) - sizes)[day]
               - capped_start(sizes, cap)[day])
        lengths = np.minimum(self.lengths, max_tokens)
        keep = (src >= 0) & (lengths > 0)
        starts = (np.cumsum(self.lengths + 1) - self.lengths - 1)[keep]
        lengths, src = lengths[keep], src[keep]
        lut = np.array([vocab.ids.get(t, UNK_ID) for t in self.table],
                       dtype=np.int64)
        last = self.ids.size - 1
        # column by column, so that no temporary is larger than a column
        token_ids = np.empty((lengths.size, max_tokens), dtype=np.int64)
        for j in range(max_tokens):
            token_ids[:, j] = np.where(
                j < lengths, lut[self.ids[np.minimum(starts + j, last)]], PAD_ID)
        flags = list(compress(self.flags, keep.tolist()))
        out, lo = [], 0
        for hi in np.cumsum(np.bincount(day[keep], minlength=sizes.size)).tolist():
            out.append(DocumentBatch(token_ids=token_ids[lo:hi],
                                     lengths=lengths[lo:hi],
                                     relevance=tuple(flags[lo:hi]),
                                     source_idx=src[lo:hi]))
            lo = hi
        return out


def tokenize_days(days) -> TokenizedDays:
    """(date, documents) pairs, each document a (text, relevant) pair, with
    every text split by ``tokenize`` once. "|", which no token can be, marks
    each document's end."""
    index = {"|": 0}  # the document-end marker, then each token by first sight
    # ids grow in the narrowest unsigned type that holds every id so far
    ids, flags, dates, sizes = array("B"), [], [], []
    for date, docs in days:
        dates.append(date)
        sizes.append(len(docs))
        toks = []
        for text, flag in docs:
            toks += tokenize(text)
            toks.append("|")
            flags.append(flag)
        try:
            row = list(map(index.__getitem__, toks))
        except KeyError:
            for t in toks:
                index.setdefault(t, len(index))
            if len(index) > 1 << 8 * ids.itemsize:
                ids = array("H" if len(index) <= 1 << 16 else "I", ids)
            row = list(map(index.__getitem__, toks))
        ids.fromlist(row)
    ids = np.frombuffer(ids, dtype=ids.typecode)
    return TokenizedDays(
        dates=tuple(dates), table=tuple(index), ids=ids,
        lengths=np.diff(np.flatnonzero(ids == 0), prepend=-1) - 1,
        day_sizes=np.array(sizes, dtype=np.int64), flags=flags)


def build_vocab(corpus: Corpus, max_size: int = 5000,
                allowed: set[str] | None = None) -> Vocabulary:
    """``count_vocab`` over the corpus's one tokenization."""
    return count_vocab(corpus.tokens, max_size, allowed)


def count_vocab(days: TokenizedDays, max_size: int = 5000,
                allowed: set[str] | None = None) -> Vocabulary:
    """Most frequent tokens, ties broken lexicographically, capped at max_size.

    `allowed` restricts candidates to a given token set (used when an external
    embedding file defines which words exist); counting still sees every token.
    """
    if not days.dates:
        raise DatasetError("cannot build a vocabulary from an empty corpus")
    if max_size < 2:
        raise DatasetError("max_size must leave room for pad and unk")
    counts = np.bincount(days.ids, minlength=len(days.table)).tolist()
    items = [(t, c) for t, c in zip(days.table[1:], counts[1:])
             if allowed is None or t in allowed]
    items.sort(key=lambda tc: (-tc[1], tc[0]))
    kept = [t for t, _ in items[:max_size - 2]]
    return Vocabulary(tokens=(PAD_TOKEN, UNK_TOKEN, *kept))


def capped_start(n, cap: int):
    """The first document a day of ``n`` keeps under the daily cap, which
    keeps the last ``cap`` (latest by release order); ``n`` may be an array
    of day sizes."""
    return np.maximum(n - cap, 0)


def encode_day(docs, vocab: Vocabulary, max_tokens: int,
               cap: int) -> DocumentBatch:
    """One day's (text, relevant) documents as ``TokenizedDays.batches``
    encodes a day: its last ``cap`` documents as padded id rows, those
    without usable tokens dropped, unknown tokens mapped to UNK_ID."""
    return tokenize_days([(None, docs)]).batches(vocab, max_tokens, cap)[0]


# ---------------------------------------------------------------------------
# sample construction


def series_rows(series: Series, config) -> dict[dt.date, int]:
    """Each series date's row, once the column count matches the config."""
    if series.values.shape[1] != config.series_dim:
        raise DatasetError("series has %d columns, config expects %d"
                           % (series.values.shape[1], config.series_dim))
    return {d: i for i, d in enumerate(series.dates)}


def series_window(date: dt.date, n_docs: int, series: Series,
                  rows: dict[dt.date, int], config) -> SeriesWindow | str:
    """A day's m-day window, or why the day yields no sample: "no-docs" (no
    document survives tokenization), "no-series" (no series row) or
    "short-history" (fewer than m rows before it), checked in that order."""
    if n_docs == 0:
        return "no-docs"
    i = rows.get(date)
    if i is None:
        return "no-series"
    if i < config.m:
        return "short-history"
    return SeriesWindow(values=series.values[i - config.m:i].copy(),
                        target=float(series.values[i, 0]),
                        prev=float(series.values[i - 1, 0]), date=date)


def to_samples(pairs, stats: SeriesStats) -> tuple[Sample, ...]:
    """(window, documents) pairs as samples, normalized by a training run's
    stats: all windows in one array operation, all targets in another. Each
    ``values_n`` is a row of one [len(pairs), m, D] array."""
    values_n = stats.normalize([w.values for w, _ in pairs])
    target_n = stats.normalize([w.target for w, _ in pairs]).tolist()
    return tuple([Sample(window=w, docs=b, values_n=v, target_n=t)
                  for (w, b), v, t in zip(pairs, values_n, target_n)])


def make_samples(corpus: Corpus, series: Series, vocab: Vocabulary,
                 config, split: SplitSpec,
                 stats: SeriesStats | None = None) -> SampleSet:
    """``window_samples`` over the corpus's one tokenization."""
    return window_samples(corpus.tokens, series, vocab, config, split, stats)


def window_samples(days: TokenizedDays, series: Series, vocab: Vocabulary,
                   config, split: SplitSpec,
                   stats: SeriesStats | None = None) -> SampleSet:
    """Pair each documented day with its m-day window and assign splits.

    Days that ``series_window`` refuses are skipped and counted by reason.
    Normalization stats come from the train split alone, unless ``stats``
    carries the values a trained model was fitted with, in which case those
    are reused and the train split may be empty.
    """
    if config.m < 1:
        raise DatasetError("window length m must be >= 1")
    rows = series_rows(series, config)

    raw = []
    skipped = Counter()
    batches = days.batches(vocab, config.max_tokens, config.daily_doc_cap)
    for date, batch in zip(days.dates, batches):
        got = series_window(date, batch.n, series, rows, config)
        if isinstance(got, str):
            skipped[got] += 1
        else:
            raw.append((got, batch))
    if not raw:
        raise DatasetError("no eligible samples (skipped: %d no-docs, %d no-series, "
                           "%d short-history)" % (skipped["no-docs"],
                                                  skipped["no-series"],
                                                  skipped["short-history"]))

    if split.fracs is not None:
        n = len(raw)
        n_train = int(n * split.fracs[0])
        n_valid = int(n * (split.fracs[0] + split.fracs[1])) - n_train
        bounds = [("train", raw[:n_train]),
                  ("valid", raw[n_train:n_train + n_valid]),
                  ("test", raw[n_train + n_valid:])]
    else:
        groups = {"train": [], "valid": [], "test": []}
        for w, b in raw:
            if w.date <= split.train_until:
                groups["train"].append((w, b))
            elif w.date <= split.valid_until:
                groups["valid"].append((w, b))
            else:
                groups["test"].append((w, b))
        bounds = list(groups.items())

    if stats is None:
        train_raw = dict(bounds)["train"]
        if not train_raw:
            raise DatasetError("split produced no training samples")
        pool = np.concatenate([np.asarray([w.values for w, _ in train_raw]).ravel(),
                               [w.target for w, _ in train_raw]])
        std = float(pool.std())
        stats = SeriesStats(mean=float(pool.mean()), std=std if std > 0 else 1.0)

    out = {name: to_samples(items, stats) for name, items in bounds}
    return SampleSet(train=out["train"], valid=out["valid"], test=out["test"],
                     stats=stats, skipped_no_docs=skipped["no-docs"],
                     skipped_no_series=skipped["no-series"],
                     skipped_short_history=skipped["short-history"])


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SynthSpec:
    """Planted-association generator settings.

    Each document is doc_len background tokens; a planted document carries one
    signal token and a ground-truth flag. The series follows
    x_t = phi*x_{t-1} + alpha*z_t + noise, x_0 = 0, with z_t the count of
    positive plants minus negative plants on day t.
    """

    n_days: int = 100
    n_docs: tuple[int, int] = (2, 5)
    doc_len: tuple[int, int] = (4, 8)
    vocab_size: int = 50
    s_plus: tuple[str, ...] = ("surge", "gain", "rally")
    s_minus: tuple[str, ...] = ("slump", "drop", "tumble")
    phi: float = 0.5
    alpha: float = 1.0
    sigma: float = 0.1
    plant_prob: float = 0.3
    plant_per_day: bool = False  # exactly one planted doc per day instead
    seed: int = 0
    start: dt.date = dt.date(2000, 1, 1)

    def __post_init__(self):
        if set(self.s_plus) & set(self.s_minus):
            raise DatasetError("signal lexicons must be disjoint")
        if not self.s_plus or not self.s_minus:
            raise DatasetError("signal lexicons must be non-empty")
        if not 0.0 <= self.phi < 1.0:
            raise DatasetError("phi must lie in [0, 1)")
        if not (math.isfinite(self.alpha) and math.isfinite(self.sigma)):
            raise DatasetError("alpha and sigma must be finite")
        if self.sigma < 0:
            raise DatasetError("sigma must be non-negative")
        if not 0.0 <= self.plant_prob <= 1.0:
            raise DatasetError("plant_prob must lie in [0, 1]")
        if self.n_days < 1 or self.vocab_size < 1:
            raise DatasetError("n_days and vocab_size must be positive")
        for lo, hi in (self.n_docs, self.doc_len):
            if not 1 <= lo <= hi:
                raise DatasetError("ranges must satisfy 1 <= lo <= hi")


def _bounded(rng: np.random.Generator, lo: int, hi: int) -> int:
    """An integer drawn from [lo, hi). A range of one value returns lo
    without calling the generator, which would return lo without advancing
    its stream, so the stream and every corpus stay the same."""
    return lo if hi - lo == 1 else int(rng.integers(lo, hi))


def synth_generate(spec: SynthSpec) -> tuple[Corpus, Series]:
    """Deterministic corpus and AR(1) series driven by planted signal counts."""
    rng = substream(spec.seed, "synth")
    background = ["w%04d" % i for i in range(spec.vocab_size)]
    days, dates, values = [], [], []
    x = 0.0
    for t in range(spec.n_days):
        n_docs = _bounded(rng, spec.n_docs[0], spec.n_docs[1] + 1)
        planted_at = _bounded(rng, 0, n_docs) if spec.plant_per_day else -1
        docs, z = [], 0
        for j in range(n_docs):
            length = _bounded(rng, spec.doc_len[0], spec.doc_len[1] + 1)
            toks = [background[k] for k in
                    rng.integers(spec.vocab_size, size=length).tolist()]
            plant = (j == planted_at) if spec.plant_per_day \
                else (rng.random() < spec.plant_prob)
            if plant:
                positive = rng.random() < 0.5
                lex = spec.s_plus if positive else spec.s_minus
                toks[_bounded(rng, 0, length)] = lex[_bounded(rng, 0, len(lex))]
                z += 1 if positive else -1
            docs.append(Document(" ".join(toks), plant))
        x = spec.phi * x + spec.alpha * z
        if spec.sigma > 0:
            x += spec.sigma * float(rng.standard_normal())
        days.append(Day(date=spec.start + dt.timedelta(days=t),
                        docs=tuple(docs)))
        dates.append(days[-1].date)
        values.append([x])
    return (Corpus(days=tuple(days)),
            Series(dates=tuple(dates), values=np.asarray(values)))


# ---------------------------------------------------------------------------
# file formats


def save_corpus(corpus: Corpus, path: str) -> None:
    """One JSON line per day: {"date": ..., "headlines": [{text, relevant}]}."""
    with write_atomically(path, "w", encoding="utf-8") as fh:
        for day in corpus.days:
            rec = {"date": day.date.isoformat(),
                   "headlines": [{"text": d.text, "relevant": d.relevant}
                                 for d in day.docs]}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_corpus(path: str):
    """Each non-blank corpus line as (date, headline objects, line). The one
    place corpus lines are checked: JSON with a date and a list of headlines,
    each an object with a string text and a relevant of true, false, null or
    absent; dates strictly increasing; at least one day."""
    prev = None
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                date = dt.date.fromisoformat(rec["date"])
                heads = rec["headlines"]
                if type(heads) is not list:
                    raise TypeError("headlines must be a list")
                for h in heads:
                    if type(h["text"]) is not str or \
                            type(h.get("relevant")) not in _FLAG_TYPES:
                        raise TypeError("headline %r needs a string text and a "
                                        "relevant of true, false or null" % (h,))
                if prev is not None and date <= prev:
                    raise ValueError("dates not strictly increasing at %s" % date)
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError("%s line %d: %s" % (path, lineno, exc)) from exc
            prev = date
            yield date, heads, line
    if prev is None:
        raise DatasetError("%s holds no days" % path)


def load_corpus(path: str) -> TokenizedDays:
    """A corpus file's days, each tokenized as ``read_corpus`` yields its
    line: no Document or Day is built, and no text outlives its line."""
    return tokenize_days((date, [(h["text"], h.get("relevant")) for h in heads])
                         for date, heads, _line in read_corpus(path))


def save_series(series: Series, path: str) -> None:
    """CSV with header date,value (or date,v1..vD for wider series)."""
    d = series.values.shape[1]
    header = ["date", "value"] if d == 1 else \
        ["date"] + ["v%d" % (i + 1) for i in range(d)]
    with write_atomically(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for date, row in zip(series.dates, series.values):
            w.writerow([date.isoformat()] + ["%.17g" % v for v in row])


def load_series(path: str) -> Series:
    """A series CSV; a malformed row, a date out of order or a non-finite
    value raises DatasetError naming its line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("%s is empty" % path) from None
        if not header or header[0] != "date" or len(header) < 2:
            raise DatasetError("%s: header must be date,value[,...]" % path)
        dates, values, linenos = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError("%s line %d: expected %d fields, got %d"
                                   % (path, lineno, len(header), len(row)))
            try:
                date = dt.date.fromisoformat(row[0])
                if dates and date <= dates[-1]:
                    raise ValueError("dates not strictly increasing at %s" % date)
                values += map(float, row[1:])
            except ValueError as exc:
                raise DatasetError("%s line %d: %s" % (path, lineno, exc)) from exc
            dates.append(date)
            linenos.append(lineno)
    if not dates:
        raise DatasetError("%s holds no observations" % path)
    vals = np.array(values).reshape(len(dates), len(header) - 1)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise DatasetError("%s line %d: non-finite value"
                           % (path, linenos[int(np.argmin(finite))]))
    return Series(dates=tuple(dates), values=vals)
