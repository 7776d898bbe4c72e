"""Test-side helpers: the one-number gradient check, one day as a batch of
one, a per-tensor Adam loop, the sizes of the forward-only passes, one
day's checked ranking, Pre@k/Rec@k over such days, one document's word
attention, the synthetic generator as it first drew its stream, a
corpus file or a ``TokenizedDays`` read into test-local ``Day`` and
``Document`` objects and capped per day as the program did before it
streamed, and days tokenized headline by headline.

The cell functions take a ``cell.DocSlots`` batch and [B, .] states, the one
form the program runs.  The wrappers below hand them one day's document rows,
an [n] mask and vector states as a batch of one and return vectors, so the
cell tests can state their per-sample oracles directly.  Single steps run
through the per-step chain in ``chain_oracle``.  ``reference_train`` is
``training.train`` with a dictionary of moments per parameter tensor, the
reference for its flat-buffer update.
"""

import dataclasses
import datetime as dt
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from msin import cell as C
from msin import data as D
from msin import evaluation as E
from msin import model as M
from msin import tensor as T
from msin import training as TR
from msin.rng import substream
from msin.text_encoder import DocRepresentation

import chain_oracle as chain
from chain_oracle import MsinState


def grad_check(build_loss, params, h: float = 1e-5) -> float:
    """Worst relative error across all checked leaves (see grad_check_table)."""
    table = T.grad_check_table(build_loss, params, h=h)
    return max(table.values()) if table else 0.0


def docs_of(rows) -> DocRepresentation:
    """One day's documents from their vectors (a tensor or an array)."""
    if not isinstance(rows, T.Tensor):
        rows = T.constant(np.asarray(rows, dtype=np.float32))
    return DocRepresentation(vectors=rows, counts=(rows.shape[0],))


def one_day(tape, docs: DocRepresentation, mask=None) -> C.DocSlots:
    """One day's documents as a batch of one; an [n] ``mask`` replaces the slots'."""
    n = docs.vectors.shape[0]
    slots = C.doc_slots(tape, dataclasses.replace(docs, counts=(n,)))
    if mask is None:
        return slots
    return dataclasses.replace(slots, mask=np.asarray(mask, dtype=bool)[None, :])


def row(tape, t: T.Tensor) -> T.Tensor:
    return T.reshape(tape, t, (1,) + t.shape)


def unrow(tape, t: T.Tensor) -> T.Tensor:
    return T.reshape(tape, t, t.shape[1:])


def init_states(tape, docs, params) -> MsinState:
    """The warm-started states and the zero context of the first step."""
    c0, h0 = C.init_states(tape, one_day(tape, docs), params)
    return MsinState(c=unrow(tape, c0), h=unrow(tape, h0),
                     v=T.constant(np.zeros(docs.vectors.shape[1])), p=None)


def attend(tape, h_prev, docs, mask, params) -> T.Tensor:
    """The [n] mass over one day's documents."""
    return unrow(tape, C.attend(tape, row(tape, h_prev), one_day(tape, docs, mask),
                                params))


def update_context(tape, p, docs, v_prev) -> T.Tensor:
    return unrow(tape, chain.update_context(tape, row(tape, p), one_day(tape, docs),
                                            row(tape, v_prev)))


def cell_step(tape, x, state, docs, mask, params) -> MsinState:
    rows = MsinState(c=row(tape, state.c), h=row(tape, state.h),
                     v=row(tape, state.v), p=None)
    out = chain.cell_step(tape, row(tape, x), rows, one_day(tape, docs, mask), params)
    return MsinState(c=unrow(tape, out.c), h=unrow(tape, out.h),
                     v=unrow(tape, out.v), p=unrow(tape, out.p))


def run_sequence(tape, window, docs, mask, params):
    """One [m, D] window: hiddens [m, d_s] and the m per-step masses [n].

    The runner returns only its final state, so step t's comes from running
    it on the prefix window[:t+1].
    """
    window = np.asarray(window)
    slots = one_day(tape, docs, mask)
    finals = [C.run_sequence(tape, window[None, :t], slots, params)
              for t in range(1, window.shape[0] + 1)]
    return (T.concat(tape, [h for h, _ in finals], axis=0),
            [unrow(tape, p) for _, p in finals])


def run_plain_sequence(tape, window, cell, init_c, init_h) -> T.Tensor:
    """One [m, D] window from [d_s] states: hiddens [m, d_s].

    Step t's hidden comes from running the plain runner on window[:t+1].
    """
    window = np.asarray(window)
    c, h = row(tape, init_c), row(tape, init_h)
    return T.concat(tape, [C.run_plain_sequence(tape, window[None, :t], cell, c, h)
                           for t in range(1, window.shape[0] + 1)], axis=0)


def reference_train(samples, params, config, tcfg):
    """``training.train`` one parameter tensor at a time.

    Same batches, dropout streams, penalties, clipping, Adam arithmetic,
    validation and early stopping, with per-tensor gradients and moments in
    dictionaries.  The penalty's value is reduced over the decayed weights
    concatenated in ``named_tensors`` order, and its gradient is added to
    each decayed tensor's mean gradient.
    Returns the history as (step, train_loss, valid_loss) tuples, the best
    step and the number of steps whose gradient was clipped; ``params`` ends
    at the best-validation snapshot.
    """
    train_set, valid_set = tuple(samples.train), tuple(samples.valid)
    rows = M.named_tensors(params)
    penalized = config.l1 > 0.0 or config.l2 > 0.0
    adam_m = {n: np.zeros(t.shape) for n, t, _ in rows}
    adam_v = {n: np.zeros(t.shape) for n, t, _ in rows}
    history, clipped = [], 0
    best = {"valid": np.inf, "step": 0, "data": None, "since": 0}

    def evaluate(step):
        vl = TR.eval_loss(valid_set, params, config)
        if vl < best["valid"]:
            best.update(valid=vl, step=step, since=0,
                        data={n: t.data.copy() for n, t, _ in rows})
        else:
            best["since"] += 1
        return vl

    step = epoch = cursor = 0
    order = substream(tcfg.seed, "shuffle", epoch).permutation(len(train_set))
    last_evaluated = -1
    while step < tcfg.max_steps:
        if cursor >= len(order):
            epoch, cursor = epoch + 1, 0
            order = substream(tcfg.seed, "shuffle", epoch).permutation(len(train_set))
        batch_ids = sorted(int(i) for i in order[cursor:cursor + tcfg.batch_size])
        cursor += tcfg.batch_size
        step += 1
        batch = [train_set[i] for i in batch_ids]
        tape = T.Tape()
        pred = M.forward_batch(
            tape, batch, params, config,
            rngs=[substream(tcfg.seed, "dropout", step, i) for i in batch_ids])
        total, _ = M.batch_loss(tape, pred.value, batch, config)
        train_loss = float(total.data[0]) / len(batch)
        if penalized:
            w = np.concatenate([t.data.reshape(-1) for _, t, d in rows if d])
            w = w.astype(np.float64)
            train_loss += (config.l1 * float(np.abs(w).sum())
                           + config.l2 * float((w * w).sum()))
        tape.backward(total)
        grads = {}
        for n, t, decayed in rows:
            grads[n] = np.zeros(t.shape) if t.grad is None else t.grad / len(batch)
            t.grad = None
            if penalized and decayed:
                w = t.data.astype(np.float64)
                grads[n] += config.l1 * np.sign(w) + 2.0 * config.l2 * w
        norm = TR._global_norm(grads)
        if norm > tcfg.clip_norm:
            clipped += 1
            for g in grads.values():
                g *= tcfg.clip_norm / norm
        beta1, beta2 = TR.ADAM_BETA1, TR.ADAM_BETA2
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        for n, t, _ in rows:
            g = grads[n]
            adam_m[n] = beta1 * adam_m[n] + (1.0 - beta1) * g
            adam_v[n] = beta2 * adam_v[n] + (1.0 - beta2) * g * g
            update = (tcfg.learning_rate * (adam_m[n] / bc1)
                      / (np.sqrt(adam_v[n] / bc2) + TR.ADAM_EPS))
            t.data[...] = (t.data.astype(np.float64) - update).astype(np.float32)
        valid_loss = None
        if step % tcfg.eval_every == 0:
            valid_loss = evaluate(step)
            last_evaluated = step
        history.append((step, train_loss, valid_loss))
        if valid_loss is not None and best["since"] >= tcfg.early_stop_patience:
            break
    if step > 0 and last_evaluated != step:
        history[-1] = history[-1][:2] + (evaluate(step),)
    if best["data"] is not None:
        for n, t, _ in rows:
            t.data[...] = best["data"][n]
    return history, best["step"], clipped


def pass_sizes(samples, config) -> list[int]:
    """Samples per forward-only pass of ``TR.forward_chunks``."""
    return [hi - lo for lo, hi in TR.eval_passes(
        [s.docs.n for s in samples], config.daily_doc_cap)]


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
        object.__setattr__(self, "ranked", E.rank_order(mass))

    @property
    def n(self) -> int:
        return self.mass.size


def precision_recall_curve(days, k_max: int):
    """``E.precision_recall_curve`` over ``DayRanking`` days: each day's top
    ``k_max`` hits read from its ``ranked``."""
    hits = [[j < d.n and d.ranked[j] in d.gtn for j in range(k_max)]
            for d in days]
    return E.precision_recall_curve(
        np.array(hits, dtype=bool).reshape(len(days), k_max),
        [d.n for d in days], [len(d.gtn) for d in days])


def precision_recall_at_k(days, k: int) -> tuple[float, float]:
    """Pre@k and Rec@k: the k-th point of ``precision_recall_curve``."""
    point = precision_recall_curve(days, k)[-1]
    return point.precision, point.recall


def word_attention(docs: DocRepresentation, j: int) -> np.ndarray:
    """Beta over document j's valid tokens (a view of ``docs.attention``)."""
    return docs.attention[j, :docs.lengths[j]]


class Document(NamedTuple):
    """One headline, as the reference generator and reader give it."""

    text: str
    relevant: bool | None = None


@dataclass(frozen=True)
class Day:
    date: dt.date
    docs: tuple[Document, ...]


def reference_synth_generate(spec):
    """``D.synth_generate`` as it was written before one-value ranges
    skipped the generator and before it built token ids: every bounded draw
    calls ``rng.integers``, and every document is its text. The loop is
    kept verbatim as the reference for the generator's stream; it returns
    a tuple of ``Day`` and the series."""
    rng = substream(spec.seed, "synth")
    background = ["w%04d" % i for i in range(spec.vocab_size)]
    days, dates, values = [], [], []
    x = 0.0
    for t in range(spec.n_days):
        n_docs = int(rng.integers(spec.n_docs[0], spec.n_docs[1] + 1))
        planted_at = int(rng.integers(n_docs)) if spec.plant_per_day else -1
        docs, z = [], 0
        for j in range(n_docs):
            length = int(rng.integers(spec.doc_len[0], spec.doc_len[1] + 1))
            toks = [background[k] for k in rng.integers(spec.vocab_size,
                                                        size=length)]
            plant = (j == planted_at) if spec.plant_per_day \
                else (rng.random() < spec.plant_prob)
            if plant:
                positive = rng.random() < 0.5
                lex = D.S_PLUS if positive else D.S_MINUS
                toks[int(rng.integers(length))] = lex[int(rng.integers(len(lex)))]
                z += 1 if positive else -1
            docs.append(Document(text=" ".join(toks), relevant=plant))
        x = spec.phi * x + spec.alpha * z
        if spec.sigma > 0:
            x += spec.sigma * float(rng.standard_normal())
        days.append(Day(date=spec.start + dt.timedelta(days=t),
                        docs=tuple(docs)))
        dates.append(days[-1].date)
        values.append([x])
    return (tuple(days),
            D.Series(dates=tuple(dates), values=np.asarray(values)))


def load_corpus(path: str) -> tuple[Day, ...]:
    """A corpus file as ``Day`` objects, each line checked by
    ``D.read_corpus``."""
    return tuple(
        Day(date=date, docs=tuple(Document(text, flag)
                                  for text, flag in D.headlines(line, heads)))
        for date, line, heads in D.read_corpus(path))


def corpus_days(days: D.TokenizedDays) -> tuple[Day, ...]:
    """A ``TokenizedDays`` as ``Day`` objects, read id by id: each
    document's text is its tokens joined by one space."""
    docs, words, flags = [], [], iter(days.flags)
    for i in days.ids.tolist():
        if i:
            words.append(days.table[i])
        else:
            docs.append(Document(" ".join(words), next(flags)))
            words = []
    docs = iter(docs)
    return tuple(Day(date=date, docs=tuple(islice(docs, n)))
                 for date, n in zip(days.dates, days.day_sizes.tolist()))


def reference_tokenize_days(days) -> D.TokenizedDays:
    """``D.tokenize_days`` as it was before its one-pass ASCII path: every
    text split by ``D.tokenize`` on its own, each followed by the "|" end
    marker, and every token numbered by first sight."""
    index, ids, flags, dates, sizes = {"|": 0}, [], [], [], []
    for date, docs in days:
        dates.append(date)
        sizes.append(len(docs))
        for text, flag in docs:
            ids += [index.setdefault(t, len(index))
                    for t in D.tokenize(text) + ["|"]]
            flags.append(flag)
    return D._tokenized(dates, index, ids, sizes, flags)


def assert_same_tokenized(got: D.TokenizedDays, want: D.TokenizedDays):
    """Equal days, whatever the order of the two tables: the same table
    entries, every id read back as the same word, and equal lengths, day
    sizes, flags, dates and id type."""
    assert set(got.table) == set(want.table)
    assert [got.table[i] for i in got.ids.tolist()] == \
        [want.table[i] for i in want.ids.tolist()]
    assert got.ids.dtype == want.ids.dtype
    for field in ("lengths", "day_sizes"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert got.flags == want.flags
    assert got.dates == want.dates


def cap_daily_docs(docs, cap: int):
    """The last ``cap`` documents of a day (latest by release order)."""
    return docs[max(len(docs) - cap, 0):]
