"""Recurrent cell whose gates receive an attended document context each step.

Per series step: attention over the day's document vectors produces a mass
vector p, p updates an exponentially-faded context v, and v enters every LSTM
gate alongside the series input and previous hidden state.  A plain LSTM
runner (no context injection) lives here too.  Both step through
``text_encoder.lstm_step``, the one LSTM the encoder uses as well, so with
zeroed context weights the two runners produce bit-identical states.

The cell runs a batch of samples as rows: states are [B, .] matrices and the
documents a ``DocSlots`` layout, sample b's documents in slots 0..n_b-1 of
N = max n_b under a [B, N] mask.  Attention is per sample, and a masked slot
gets exactly zero mass and zero gradient.  Given one day's
``DocRepresentation``, an [n] mask and vector states instead, each function
runs that sample as a batch of one and returns vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .text_encoder import LOGIT_CLAMP, DocRepresentation, LSTMParams, \
    lstm_params, lstm_step


class EmptyDayError(ValueError):
    """A sample reached the cell with no documents."""


@dataclass
class DocSlots:
    """The documents of B samples laid out for batched attention.

    A padding slot repeats its sample's first document, so every row is a
    finite document vector; ``mask`` marks the real ones.
    """

    rows: T.Tensor     # [B*N, c]; sample b's slots are rows b*N..b*N+N-1
    grid: T.Tensor     # the same rows as [B, N, c]
    owner: np.ndarray  # [B*N] the sample each row belongs to
    mask: np.ndarray   # [B, N] True on real documents

    @property
    def mean_weights(self) -> T.Tensor:
        """[B, N] weights that average each sample's real documents."""
        return T.constant(self.mask / self.mask.sum(axis=1, keepdims=True))


@dataclass
class AttentionParams:
    """Alignment of a hidden state against document vectors."""

    state_w: T.Tensor  # [d_a, d_s]
    doc_w: T.Tensor    # [d_a, 2*d_h]
    bias: T.Tensor     # [d_a]
    score: T.Tensor    # [d_a]


@dataclass
class MsinParams:
    init_c_w: T.Tensor  # [d_s, 2*d_h]
    init_c_b: T.Tensor  # [d_s]
    init_h_w: T.Tensor  # [d_s, 2*d_h]
    init_h_b: T.Tensor  # [d_s]
    attn: AttentionParams
    cell: LSTMParams


@dataclass
class MsinState:
    """Per-sample rows [B, .]; vectors when the cell runs one day."""

    c: T.Tensor            # [B, d_s]
    h: T.Tensor            # [B, d_s]
    v: T.Tensor            # [B, 2*d_h]
    p: T.Tensor | None     # [B, N]; unset before the first step


@dataclass
class AttentionTrace:
    per_step: list[T.Tensor]  # p_1..p_m

    @property
    def final(self) -> T.Tensor:
        return self.per_step[-1]


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_attention(d_a: int, d_s: int, doc_dim: int, rng: np.random.Generator,
                   prefix: str) -> AttentionParams:
    return AttentionParams(
        state_w=T.parameter(_uniform(rng, d_s, (d_a, d_s)), prefix + ".state_w"),
        doc_w=T.parameter(_uniform(rng, doc_dim, (d_a, doc_dim)), prefix + ".doc_w"),
        bias=T.parameter(np.zeros(d_a), prefix + ".bias"),
        score=T.parameter(_uniform(rng, d_a, d_a), prefix + ".score"))


def init_cell_gates(d_s: int, d_in: int, rng: np.random.Generator, prefix: str,
                    ctx_dim: int | None = None) -> LSTMParams:
    """Stacked series-cell gates, drawn gate by gate as context, input, state."""
    ctx, inp, state = [], [], []
    for _ in range(4):
        if ctx_dim is not None:
            ctx.append(_uniform(rng, ctx_dim, (d_s, ctx_dim)))
        inp.append(_uniform(rng, d_in, (d_s, d_in)))
        state.append(_uniform(rng, d_s, (d_s, d_s)))
    return lstm_params(prefix, np.concatenate(inp), np.concatenate(state),
                       np.concatenate(ctx) if ctx else None)


def init_msin(d_s: int, d_a: int, d_in: int, doc_dim: int,
              rng: np.random.Generator, prefix: str = "cell") -> MsinParams:
    return MsinParams(
        init_c_w=T.parameter(_uniform(rng, doc_dim, (d_s, doc_dim)), prefix + ".init_c.weight"),
        init_c_b=T.parameter(np.zeros(d_s), prefix + ".init_c.bias"),
        init_h_w=T.parameter(_uniform(rng, doc_dim, (d_s, doc_dim)), prefix + ".init_h.weight"),
        init_h_b=T.parameter(np.zeros(d_s), prefix + ".init_h.bias"),
        attn=init_attention(d_a, d_s, doc_dim, rng, prefix + ".attn"),
        cell=init_cell_gates(d_s, d_in, rng, prefix, ctx_dim=doc_dim))


# ---------------------------------------------------------------------------
# document layout


def doc_slots(tape: T.Tape | None, docs: DocRepresentation) -> DocSlots:
    """Pad each sample's rows of ``docs`` (``docs.day_counts``) to N slots."""
    counts = np.asarray(docs.day_counts)
    if counts.min() < 1:
        raise EmptyDayError("cannot attend over zero documents")
    B, N = counts.size, int(counts.max())
    mask = np.arange(N)[None, :] < counts[:, None]
    first = (np.cumsum(counts) - counts)[:, None]
    ids = np.where(mask, first + np.arange(N)[None, :], first)
    rows = docs.vectors if mask.all() else \
        T.take_rows(tape, docs.vectors, ids.reshape(-1))
    return DocSlots(rows=rows, grid=T.reshape(tape, rows, (B, N, rows.shape[1])),
                    owner=np.repeat(np.arange(B), N), mask=mask)


def _one_day(tape, docs: DocRepresentation, mask) -> tuple[DocSlots, np.ndarray]:
    """One day's documents as a batch of one, with its [n] mask as [1, n]."""
    slots = doc_slots(tape, docs)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (docs.n,):
        raise T.ShapeError("mask shape %r does not match %d documents"
                           % (mask.shape, docs.n))
    return slots, mask[None, :]


def _row(tape, t: T.Tensor) -> T.Tensor:
    return T.reshape(tape, t, (1,) + t.shape)


def _unrow(tape, t: T.Tensor) -> T.Tensor:
    return T.reshape(tape, t, t.shape[1:])


def _windows(window_values, ndim: int) -> np.ndarray:
    values = np.asarray(window_values, dtype=np.float32)
    if values.ndim != ndim or values.shape[-2] < 1:
        raise T.ContractError("window must be %s with m >= 1, got %r"
                              % ("[m, D]" if ndim == 2 else "[B, m, D]",
                                 values.shape))
    return values


def _stack_steps(tape, hs: list[T.Tensor]) -> T.Tensor:
    """Per-step [B, d] states as one [B, m, d] tensor."""
    B, d = hs[0].shape
    return T.reshape(tape, T.concat(tape, hs, axis=1), (B, len(hs), d))


# ---------------------------------------------------------------------------
# cell operations


def init_states(tape: T.Tape | None, docs, params: MsinParams) -> MsinState:
    """Warm-start cell and hidden states from each sample's mean document."""
    if not isinstance(docs, DocSlots):
        state = init_states(tape, doc_slots(tape, docs), params)
        return MsinState(c=_unrow(tape, state.c), h=_unrow(tape, state.h),
                         v=_unrow(tape, state.v), p=None)
    s_bar = T.weighted_sum(tape, docs.grid, docs.mean_weights)
    c0 = T.tanh(tape, T.linear(tape, [(params.init_c_w, s_bar)], params.init_c_b))
    h0 = T.tanh(tape, T.linear(tape, [(params.init_h_w, s_bar)], params.init_h_b))
    v0 = T.constant(np.zeros(s_bar.shape))
    return MsinState(c=c0, h=h0, v=v0, p=None)


def _doc_proj(tape, slots: DocSlots, params: AttentionParams) -> T.Tensor:
    """doc_w . s for every slot; documents do not change across steps."""
    return T.matmul(tape, slots.rows, params.doc_w, transpose_b=True)


def _attend(tape, h_prev: T.Tensor, slots: DocSlots, mask: np.ndarray,
            params: AttentionParams, doc_proj: T.Tensor) -> T.Tensor:
    query = T.linear(tape, [(params.state_w, h_prev)], params.bias)
    proj = T.tanh(tape, T.add_bias(tape, doc_proj, query, slots.owner))
    logits = T.clip(tape, T.matmul(tape, proj, params.score),
                    -LOGIT_CLAMP, LOGIT_CLAMP)
    return T.masked_softmax(tape, T.reshape(tape, logits, mask.shape), mask)


def attend(tape: T.Tape | None, h_prev: T.Tensor, docs, mask: np.ndarray,
           params: AttentionParams) -> T.Tensor:
    """Attention mass over each sample's documents given its hidden state."""
    if not isinstance(docs, DocSlots):
        slots, mask = _one_day(tape, docs, mask)
        return _unrow(tape, attend(tape, _row(tape, h_prev), slots, mask, params))
    return _attend(tape, h_prev, docs, mask, params, _doc_proj(tape, docs, params))


def update_context(tape: T.Tape | None, p: T.Tensor, docs,
                   v_prev: T.Tensor) -> T.Tensor:
    """Fold the attention-weighted document summary into the running context."""
    if not isinstance(docs, DocSlots):
        v = update_context(tape, _row(tape, p), doc_slots(tape, docs),
                           _row(tape, v_prev))
        return _unrow(tape, v)
    summary = T.weighted_sum(tape, docs.grid, p)
    return T.scale(tape, T.add(tape, summary, v_prev), 0.5)


def _step(tape, x: T.Tensor, state: MsinState, slots: DocSlots,
          mask: np.ndarray, params: MsinParams, doc_proj: T.Tensor) -> MsinState:
    p = _attend(tape, state.h, slots, mask, params.attn, doc_proj)
    v = update_context(tape, p, slots, state.v)
    h, c = lstm_step(tape, params.cell, x, state.h, state.c, v)
    return MsinState(c=c, h=h, v=v, p=p)


def cell_step(tape: T.Tape | None, x: T.Tensor, state: MsinState, docs,
              mask: np.ndarray, params: MsinParams) -> MsinState:
    """One series step: attend, update context, then the gated state update."""
    if not isinstance(docs, DocSlots):
        slots, mask = _one_day(tape, docs, mask)
        rows = MsinState(c=_row(tape, state.c), h=_row(tape, state.h),
                         v=_row(tape, state.v), p=None)
        out = cell_step(tape, _row(tape, x), rows, slots, mask, params)
        return MsinState(c=_unrow(tape, out.c), h=_unrow(tape, out.h),
                         v=_unrow(tape, out.v), p=_unrow(tape, out.p))
    return _step(tape, x, state, docs, mask, params,
                 _doc_proj(tape, docs, params.attn))


def run_sequence(tape: T.Tape | None, window_values, docs, mask: np.ndarray,
                 params: MsinParams):
    """Run the cell over each sample's window of series steps.

    ``window_values`` is [B, m, D] (anything np.asarray accepts) for a
    DocSlots batch with its [B, N] mask; returns (hiddens [B, m, d_s],
    AttentionTrace of the m [B, N] masses).  One sample's [m, D] window with
    its day's documents and [n] mask gives hiddens [m, d_s] and [n] masses.
    """
    if not isinstance(docs, DocSlots):
        slots, mask = _one_day(tape, docs, mask)
        hiddens, trace = run_sequence(tape, _windows(window_values, 2)[None],
                                      slots, mask, params)
        return _unrow(tape, hiddens), AttentionTrace(
            per_step=[_unrow(tape, p) for p in trace.per_step])
    windows = _windows(window_values, 3)
    state = init_states(tape, docs, params)
    doc_proj = _doc_proj(tape, docs, params.attn)
    hs, trace = [], []
    for t in range(windows.shape[1]):
        state = _step(tape, T.constant(windows[:, t]), state, docs, mask, params,
                      doc_proj)
        hs.append(state.h)
        trace.append(state.p)
    return _stack_steps(tape, hs), AttentionTrace(per_step=trace)


def run_plain_sequence(tape: T.Tape | None, window_values, cell: LSTMParams,
                       init_c: T.Tensor, init_h: T.Tensor) -> T.Tensor:
    """Context-free LSTM over each window with explicit initial states.

    [B, m, D] windows from [B, d_s] states give hiddens [B, m, d_s]; one
    sample's [m, D] window from [d_s] states gives [m, d_s].
    """
    if init_c.ndim == 1:
        hiddens = run_plain_sequence(tape, _windows(window_values, 2)[None], cell,
                                     _row(tape, init_c), _row(tape, init_h))
        return _unrow(tape, hiddens)
    windows = _windows(window_values, 3)
    c, h = init_c, init_h
    hs = []
    for t in range(windows.shape[1]):
        h, c = lstm_step(tape, cell, T.constant(windows[:, t]), h, c)
        hs.append(h)
    return _stack_steps(tape, hs)
