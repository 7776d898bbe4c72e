"""Corpus and series ingestion, vocabulary, windowing, synthetic generator.

A corpus has one form, ``TokenizedDays``: every document's tokens as
indices of a table of distinct tokens, stored as one integer array, so no
per-headline object is built and no text is held. Every command reads a
corpus file the same way: ``read_corpus`` checks every line (one in the
layout ``save_corpus`` writes by a regular expression, without decoding
it), and ``load_corpus`` feeds each line's ``headlines`` straight into
``tokenize_days``, which tokenizes each headline once: a day of ASCII
headlines in one ``bytes.translate`` and one ``split`` over its joined
texts, any other day headline by headline with ``tokenize``, whose NFC
normalization and regular expression define a token.
``synth_generate`` builds the same form straight from its draws, and
``save_corpus`` writes it back as text, each document's tokens joined by
one space. ``build_vocab`` and ``make_samples`` work on that form.
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

import bisect
import csv
import datetime as dt
import json
import math
import re
import unicodedata
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter

import numpy as np

from .files import write_atomically
from .rng import substream

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_TOKEN_RE = re.compile(r"[^\W_]+")
# What ``tokenize`` makes of an ASCII byte: a letter lowercased, a digit kept,
# anything else a space; "\n" is kept to mark a document's end (tokenize_days)
_ASCII_TOKEN_BYTES = bytes(b if b == 10 or (b < 128 and chr(b).isalnum())
                           else 32 for b in range(256)).lower()
_FLAG_TYPES = (bool, type(None))  # what a headline's "relevant" may be
# A line as save_corpus writes it, its strings free of backslashes and control
# characters so that each reads as written: JSON that read_corpus's checks pass.
# _STRING is every code point from U+0020 up but '"' and '\', the set of
# [^"\\\x00-\x1f]; Python's re scans these ranges faster than that negated
# class (fullmatch over serve_rank's 2200 lines: 5.6 against 9.0 ms), and the
# strings are most of what read_corpus scans
_STRING = r'[ !#-\[\]-\U0010ffff]*'
_HEAD = r'\{"text": "(%s)", "relevant": (true|false|null)\}'
_PLAIN_LINE = re.compile(
    r'\{"date": "(%s)", "headlines": \[(?:%s(?:, %s)*)?\]\}[ \t\n\r]*'
    % (_STRING, _HEAD % _STRING, _HEAD % _STRING))
# run only on lines _PLAIN_LINE matched, whose strings hold no '"'
_HEADLINE = re.compile(_HEAD % '[^"]*')
_FLAGS = {"true": True, "false": False, "null": None}
# the synthetic generator's signal words, each one token that no background
# word equals
S_PLUS = ("surge", "gain", "rally")
S_MINUS = ("slump", "drop", "tumble")


def option(default, help_text: str, flags: tuple[str, ...] = ()):
    """A config field, which the command line exposes with this help; every
    field of a config dataclass is declared with it. Its flag is its own name
    unless ``flags`` names it, or names the (low, high) flags of a pair."""
    return field(default=default, metadata={"help": help_text, "flags": flags})


class DatasetError(Exception):
    """Raised for malformed input files or degenerate sample sets."""


# ---------------------------------------------------------------------------
# domain types


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

    train_until: dt.date | None = option(None, "last training date (inclusive)")
    valid_until: dt.date | None = option(None,
                                         "last validation date (inclusive)")
    fracs: tuple[float, float, float] | None = option(
        None, "train,valid,test fractions; train's default 0.8,0.1,0.1, "
        "eval's the stored split", flags=("split_fracs",))

    def __post_init__(self):
        dates = (self.train_until, self.valid_until)
        by_frac = self.fracs is not None
        if dates.count(None) != (2 if by_frac else 0):
            raise DatasetError("give both split dates (train_until and "
                               "valid_until) or fractions, not both")
        if not by_frac and self.valid_until <= self.train_until:
            raise DatasetError("valid_until must come after train_until")
        if by_frac:
            f = self.fracs
            if (len(f) != 3 or any(isinstance(x, bool) for x in f)
                    or not all(math.isfinite(x) and x >= 0 for x in f)
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


def tokenize(text: str) -> list[str]:
    """Normalize to NFC, lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text).lower())


@dataclass(frozen=True, eq=False)
class TokenizedDays:
    """Days of documents with every headline tokenized once.

    ``ids`` holds every document's tokens, each document followed by 0, as
    indices into ``table``: its entry 0 stands for that document end, the
    rest are distinct tokens, in an order that carries no meaning.
    ``lengths`` counts each document's tokens, ``day_sizes`` each day's
    documents, and ``flags`` holds each document's relevance flag.
    ``_tokenized`` builds every instance.  ``==`` is identity: the fields
    are arrays, which have no single truth value.
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


def _tokenized(dates, table, ids, day_sizes, flags) -> TokenizedDays:
    """Days in the ``TokenizedDays`` layout, which only this function
    knows: ``ids``, the ``table`` indices of every document's tokens each
    followed by the end marker 0, is stored in the narrowest unsigned type
    that holds every index, and each document's length is read off the
    markers."""
    ids = np.asarray(ids, dtype=np.min_scalar_type(len(table) - 1))
    return TokenizedDays(
        dates=tuple(dates), table=tuple(table), ids=ids,
        lengths=np.diff(np.flatnonzero(ids == 0), prepend=-1) - 1,
        day_sizes=np.array(day_sizes, dtype=np.int64), flags=flags)


def tokenize_days(days) -> TokenizedDays:
    """(date, documents) pairs, each document a (text, relevant) pair, with
    every text split as ``tokenize`` splits it. "|", which no token can be,
    marks each document's end.

    A day whose texts are ASCII (so NFC already), none holding "\\n", is
    tokenized in one pass: its texts, joined by "\\n", go through one
    ``bytes.translate`` that lowercases letters and turns every byte but a
    letter, a digit or "\\n" into a space; each "\\n" then becomes the " | "
    marker, and one ``split`` yields the tokens that ``tokenize`` finds in
    each text, to which the last text's marker is added. Any other day is
    split text by text by ``tokenize``, and pays only that ``join`` and
    ``isascii`` on top."""
    index = {"|": 0}  # the document-end marker, then each token by first sight
    # ids grow in the narrowest unsigned type that holds every id so far
    ids, flags, dates, sizes = array("B"), [], [], []
    for date, docs in days:
        dates.append(date)
        sizes.append(len(docs))
        joined = "\n".join(map(itemgetter(0), docs))
        # an empty day joins to "", which fails the count and takes the loop
        if joined.isascii() and joined.count("\n") == len(docs) - 1:
            toks = joined.encode().translate(_ASCII_TOKEN_BYTES) \
                .replace(b"\n", b" | ").decode().split()
            toks.append("|")
            flags += map(itemgetter(1), docs)
        else:
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
                ids = array(np.min_scalar_type(len(index) - 1).char, ids)
            row = list(map(index.__getitem__, toks))
        ids.fromlist(row)
    return _tokenized(dates, index, ids, sizes, flags)


def build_vocab(days: TokenizedDays, max_size: int = 5000,
                allowed: dict | set | None = None) -> Vocabulary:
    """Most frequent tokens, ties broken lexicographically, capped at max_size.

    Only tokens that occur are counted. `allowed` restricts candidates to
    the tokens it contains (the rows an external embedding file holds);
    counting still sees every token.
    """
    if not days.dates:
        raise DatasetError("cannot build a vocabulary from an empty corpus")
    if max_size < 2:
        raise DatasetError("max_size must leave room for pad and unk")
    counts = np.bincount(days.ids, minlength=len(days.table)).tolist()
    items = [(t, c) for t, c in zip(days.table[1:], counts[1:])
             if c and (allowed is None or t in allowed)]
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


def make_samples(days: TokenizedDays, series: Series, vocab: Vocabulary,
                 config, split: SplitSpec,
                 stats: SeriesStats | None = None) -> SampleSet:
    """Pair each documented day with its m-day window and assign splits.

    Days that ``series_window`` refuses are skipped and counted by reason.
    ``days`` come in date order, as the corpus reader and the generator give
    them, so each split is a run of the samples, cut at two indices.
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
        cuts = (int(len(raw) * split.fracs[0]),
                int(len(raw) * (split.fracs[0] + split.fracs[1])))
    else:
        dates = [w.date for w, _ in raw]
        cuts = (bisect.bisect_right(dates, split.train_until),
                bisect.bisect_right(dates, split.valid_until))
    bounds = {"train": raw[:cuts[0]], "valid": raw[cuts[0]:cuts[1]],
              "test": raw[cuts[1]:]}

    if stats is None:
        train_raw = bounds["train"]
        if not train_raw:
            raise DatasetError("split produced no training samples")
        pool = np.concatenate([np.asarray([w.values for w, _ in train_raw]).ravel(),
                               [w.target for w, _ in train_raw]])
        std = float(pool.std())
        stats = SeriesStats(mean=float(pool.mean()), std=std if std > 0 else 1.0)

    return SampleSet(**{name: to_samples(items, stats)
                        for name, items in bounds.items()},
                     stats=stats, skipped_no_docs=skipped["no-docs"],
                     skipped_no_series=skipped["no-series"],
                     skipped_short_history=skipped["short-history"])


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class SynthSpec:
    """Planted-association generator settings.

    Each document is doc_len background tokens; a planted document carries one
    signal token, a word of ``S_PLUS`` or ``S_MINUS``, and a ground-truth
    flag. The series follows
    x_t = phi*x_{t-1} + alpha*z_t + noise, x_0 = 0, with z_t the count of
    positive plants minus negative plants on day t.
    """

    n_days: int = option(100, "number of generated days", flags=("days",))
    n_docs: tuple[int, int] = option((2, 5), "documents per day",
                                     flags=("docs_min", "docs_max"))
    doc_len: tuple[int, int] = option((4, 8), "document length in tokens",
                                      flags=("len_min", "len_max"))
    vocab_size: int = option(50, "background vocabulary size")
    phi: float = option(0.5, "autoregressive coefficient")
    alpha: float = option(1.0, "signal coefficient")
    sigma: float = option(0.1, "observation noise scale")
    plant_prob: float = option(0.3, "per-document probability of carrying signal")
    plant_per_day: bool = option(False,
                                 "plant exactly one signal document per day")
    seed: int = option(0, "generator seed")
    start: dt.date = option(dt.date(2000, 1, 1), "date of the first day")

    def __post_init__(self):
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
        if self.start.toordinal() + self.n_days - 1 > dt.date.max.toordinal():
            raise DatasetError("the last day (start + n_days - 1) falls after %s"
                               % dt.date.max)
        if self.seed < 0:
            raise DatasetError("seed must be non-negative, got %d" % self.seed)
        for lo, hi in (self.n_docs, self.doc_len):
            if not 1 <= lo <= hi:
                raise DatasetError("ranges must satisfy 1 <= lo <= hi")


def _bounded(rng: np.random.Generator, lo: int, hi: int) -> int:
    """An integer drawn from [lo, hi). A range of one value returns lo
    without calling the generator, which would return lo without advancing
    its stream, so the stream and every corpus stay the same."""
    return lo if hi - lo == 1 else int(rng.integers(lo, hi))


def synth_generate(spec: SynthSpec) -> tuple[TokenizedDays, Series]:
    """Deterministic corpus and AR(1) series driven by planted signal counts.
    The corpus is built as token ids straight from the draws."""
    rng = substream(spec.seed, "synth")
    background = ["w%04d" % i for i in range(spec.vocab_size)]
    # the document-end marker, the background words, then the lexicons
    index = {w: i for i, w in enumerate(["|", *background, *S_PLUS, *S_MINUS])}
    plus = [index[w] for w in S_PLUS]
    minus = [index[w] for w in S_MINUS]
    ids, flags, sizes, values = [], [], [], []
    x = 0.0
    for _ in range(spec.n_days):
        n_docs = _bounded(rng, spec.n_docs[0], spec.n_docs[1] + 1)
        planted_at = _bounded(rng, 0, n_docs) if spec.plant_per_day else -1
        z = 0
        for j in range(n_docs):
            length = _bounded(rng, spec.doc_len[0], spec.doc_len[1] + 1)
            row = (rng.integers(spec.vocab_size, size=length) + 1).tolist()
            plant = (j == planted_at) if spec.plant_per_day \
                else (rng.random() < spec.plant_prob)
            if plant:
                positive = rng.random() < 0.5
                lex = plus if positive else minus
                row[_bounded(rng, 0, length)] = lex[_bounded(rng, 0, len(lex))]
                z += 1 if positive else -1
            ids += row
            ids.append(0)
            flags.append(plant)
        x = spec.phi * x + spec.alpha * z
        if spec.sigma > 0:
            x += spec.sigma * float(rng.standard_normal())
        sizes.append(n_docs)
        values.append([x])
    dates = [spec.start + dt.timedelta(days=t) for t in range(spec.n_days)]
    return (_tokenized(dates, index, ids, sizes, flags),
            Series(dates=tuple(dates), values=np.asarray(values)))


# ---------------------------------------------------------------------------
# file formats


def save_corpus(days: TokenizedDays, path: str) -> None:
    """One JSON line per day: {"date": ..., "headlines": [{text, relevant}]},
    each text its document's tokens joined by one space."""
    # each token as " token" and the end marker as "\n": a day's ids then
    # join into its documents' texts, each behind one space, one per line
    words = ["\n"] + [" " + t for t in days.table[1:]]
    ends = np.cumsum(np.append(0, days.lengths + 1))[np.cumsum(days.day_sizes)]
    flags, lo = iter(days.flags), 0
    with write_atomically(path, "w", encoding="utf-8") as fh:
        for date, n, hi in zip(days.dates, days.day_sizes.tolist(),
                               ends.tolist()):
            texts = "".join(map(words.__getitem__,
                                days.ids[lo:hi].tolist())).split("\n")
            rec = {"date": date.isoformat(),
                   "headlines": [{"text": text[1:], "relevant": flag}
                                 for flag, text in zip(islice(flags, n), texts)]}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            lo = hi


def decode_line(line: str):
    """A corpus line's date and headline objects, decoded and checked."""
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
    return date, heads


def read_corpus(path: str):
    """Each non-blank corpus line as (date, line, heads). The one place
    corpus lines are checked: JSON with a date and a list of headlines, each
    an object with a string text and a relevant of true, false, null or
    absent; dates strictly increasing; at least one day. A line in
    ``_PLAIN_LINE``'s layout is checked by it (``heads`` None); any other is
    decoded into its headline objects and checked field by field."""
    prev = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                # an escape's backslash fails the pattern, and "in" finds it sooner
                plain = "\\" not in line and _PLAIN_LINE.fullmatch(line)
                try:
                    date, heads = (dt.date.fromisoformat(plain[1]), None) \
                        if plain else decode_line(line)
                    if prev is not None and date <= prev:
                        raise ValueError("dates not strictly increasing at %s" % date)
                except (KeyError, TypeError, ValueError) as exc:
                    raise DatasetError("%s line %d: %s" % (path, lineno, exc)) from exc
                prev = date
                yield date, line, heads
    except UnicodeDecodeError as exc:
        raise DatasetError("%s is not UTF-8 text (%s)" % (path, exc.reason)) \
            from None
    if prev is None:
        raise DatasetError("%s holds no days" % path)


def headlines(line: str, heads) -> list[tuple[str, bool | None]]:
    """The (text, relevant) pairs of a line ``read_corpus`` yielded."""
    if heads is None:
        return [(text, _FLAGS[flag]) for text, flag in _HEADLINE.findall(line)]
    return [(h["text"], h.get("relevant")) for h in heads]


def load_corpus(path: str) -> TokenizedDays:
    """A corpus file's days, each tokenized as ``read_corpus`` yields its
    line: no Document or Day is built, and no text outlives its line."""
    return tokenize_days((date, headlines(line, heads))
                         for date, line, heads in read_corpus(path))


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
    try:
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
    except UnicodeDecodeError as exc:
        raise DatasetError("%s is not UTF-8 text (%s)" % (path, exc.reason)) \
            from None
    if not dates:
        raise DatasetError("%s holds no observations" % path)
    vals = np.array(values).reshape(len(dates), len(header) - 1)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise DatasetError("%s line %d: non-finite value"
                           % (path, linenos[int(np.argmin(finite))]))
    return Series(dates=tuple(dates), values=vals)
