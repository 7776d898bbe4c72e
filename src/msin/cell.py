"""Recurrent cell whose gates receive an attended document context each step.

Per series step: attention over the day's document vectors produces a mass
vector p, p updates an exponentially-faded context v, and v enters every LSTM
gate alongside the series input and previous hidden state.  A plain LSTM
runner (no context injection) lives here too.  Both step through
``text_encoder.lstm_step``, the one LSTM the encoder uses as well, so with
zeroed context weights the two runners produce bit-identical states.  Each
runner returns only the state after its last step, the one the model reads.

Every function runs a batch of samples as rows: states are [B, .] matrices
and the documents a ``DocSlots`` layout, sample b's documents in slots
0..n_b-1 of N = max n_b under a [B, N] mask.  Attention is per sample, and a
masked slot gets exactly zero mass and zero gradient.  One sample is a batch
of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .text_encoder import DocRepresentation, LSTMParams, lstm_params, \
    lstm_step, uniform


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
    """Per-sample rows [B, .]."""

    c: T.Tensor            # [B, d_s]
    h: T.Tensor            # [B, d_s]
    v: T.Tensor            # [B, 2*d_h]
    p: T.Tensor | None     # [B, N]; unset before the first step


def init_attention(d_a: int, d_s: int, doc_dim: int, rng: np.random.Generator,
                   prefix: str) -> AttentionParams:
    return AttentionParams(
        state_w=T.parameter(uniform(rng, d_s, (d_a, d_s)), prefix + ".state_w"),
        doc_w=T.parameter(uniform(rng, doc_dim, (d_a, doc_dim)), prefix + ".doc_w"),
        bias=T.parameter(np.zeros(d_a), prefix + ".bias"),
        score=T.parameter(uniform(rng, d_a, d_a), prefix + ".score"))


def init_cell_gates(d_s: int, d_in: int, rng: np.random.Generator, prefix: str,
                    ctx_dim: int | None = None) -> LSTMParams:
    """Stacked series-cell gates, drawn gate by gate as context, input, state."""
    ctx, inp, state = [], [], []
    for _ in range(4):
        if ctx_dim is not None:
            ctx.append(uniform(rng, ctx_dim, (d_s, ctx_dim)))
        inp.append(uniform(rng, d_in, (d_s, d_in)))
        state.append(uniform(rng, d_s, (d_s, d_s)))
    return lstm_params(prefix, np.concatenate(inp), np.concatenate(state),
                       np.concatenate(ctx) if ctx else None)


def init_msin(d_s: int, d_a: int, d_in: int, doc_dim: int,
              rng: np.random.Generator, prefix: str = "cell") -> MsinParams:
    return MsinParams(
        init_c_w=T.parameter(uniform(rng, doc_dim, (d_s, doc_dim)), prefix + ".init_c.weight"),
        init_c_b=T.parameter(np.zeros(d_s), prefix + ".init_c.bias"),
        init_h_w=T.parameter(uniform(rng, doc_dim, (d_s, doc_dim)), prefix + ".init_h.weight"),
        init_h_b=T.parameter(np.zeros(d_s), prefix + ".init_h.bias"),
        attn=init_attention(d_a, d_s, doc_dim, rng, prefix + ".attn"),
        cell=init_cell_gates(d_s, d_in, rng, prefix, ctx_dim=doc_dim))


# ---------------------------------------------------------------------------
# document layout


def doc_slots(tape: T.Tape | None, docs: DocRepresentation) -> DocSlots:
    """Pad each day's rows of ``docs`` (``docs.counts``) to N slots."""
    counts = np.asarray(docs.counts)
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


def _windows(window_values) -> np.ndarray:
    values = np.asarray(window_values, dtype=np.float32)
    if values.ndim != 3 or values.shape[1] < 1:
        raise T.ContractError("window must be [B, m, D] with m >= 1, got %r"
                              % (values.shape,))
    return values


# ---------------------------------------------------------------------------
# cell operations


def init_states(tape: T.Tape | None, slots: DocSlots,
                params: MsinParams) -> MsinState:
    """Warm-start cell and hidden states from each sample's mean document."""
    s_bar = T.weighted_sum(tape, slots.grid, slots.mean_weights)
    c0 = T.tanh(tape, T.linear(tape, [(params.init_c_w, s_bar)], params.init_c_b))
    h0 = T.tanh(tape, T.linear(tape, [(params.init_h_w, s_bar)], params.init_h_b))
    v0 = T.constant(np.zeros(s_bar.shape))
    return MsinState(c=c0, h=h0, v=v0, p=None)


def _doc_proj(tape, slots: DocSlots, params: AttentionParams) -> T.Tensor:
    """doc_w . s for every slot; documents do not change across steps."""
    return T.matmul(tape, slots.rows, params.doc_w, transpose_b=True)


def attend(tape: T.Tape | None, h_prev: T.Tensor, slots: DocSlots,
           params: AttentionParams, doc_proj: T.Tensor | None = None) -> T.Tensor:
    """Attention mass [B, N] over each sample's documents given its hidden state.

    ``doc_proj`` is doc_w . s for every slot, hoisted by callers that attend
    over the same documents at every step.
    """
    if doc_proj is None:
        doc_proj = _doc_proj(tape, slots, params)
    query = T.linear(tape, [(params.state_w, h_prev)], params.bias)
    proj = T.tanh(tape, T.add_bias(tape, doc_proj, query, slots.owner))
    logits = T.matmul(tape, proj, params.score)
    return T.masked_softmax(tape, T.reshape(tape, logits, slots.mask.shape),
                            slots.mask)


def update_context(tape: T.Tape | None, p: T.Tensor, slots: DocSlots,
                   v_prev: T.Tensor) -> T.Tensor:
    """Fold the attention-weighted document summary into the running context."""
    summary = T.weighted_sum(tape, slots.grid, p)
    return T.scale(tape, T.add(tape, summary, v_prev), 0.5)


def cell_step(tape: T.Tape | None, x: T.Tensor, state: MsinState,
              slots: DocSlots, params: MsinParams,
              doc_proj: T.Tensor | None = None) -> MsinState:
    """One series step: attend, update context, then the gated state update."""
    p = attend(tape, state.h, slots, params.attn, doc_proj)
    v = update_context(tape, p, slots, state.v)
    h, c = lstm_step(tape, params.cell, x, state.h, state.c, v)
    return MsinState(c=c, h=h, v=v, p=p)


def run_sequence(tape: T.Tape | None, window_values, slots: DocSlots,
                 params: MsinParams) -> MsinState:
    """Run the cell over each sample's window of series steps.

    ``window_values`` is [B, m, D] (anything np.asarray accepts); returns
    the state after step m, whose ``h`` is [B, d_s] and ``p`` the last
    step's masses [B, N].
    """
    windows = _windows(window_values)
    state = init_states(tape, slots, params)
    doc_proj = _doc_proj(tape, slots, params.attn)
    for t in range(windows.shape[1]):
        state = cell_step(tape, T.constant(windows[:, t]), state, slots, params,
                          doc_proj)
    return state


def run_plain_sequence(tape: T.Tape | None, window_values, cell: LSTMParams,
                       init_c: T.Tensor, init_h: T.Tensor) -> T.Tensor:
    """Context-free LSTM over [B, m, D] windows from [B, d_s] initial states.

    Returns the hidden state after step m, [B, d_s].
    """
    windows = _windows(window_values)
    c, h = init_c, init_h
    for t in range(windows.shape[1]):
        h, c = lstm_step(tape, cell, T.constant(windows[:, t]), h, c)
    return h
