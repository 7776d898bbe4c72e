"""Recurrent cell whose gates receive an attended document context each step.

Per series step: attention over the day's document vectors produces a mass
vector p, p updates an exponentially-faded context v, and v enters every LSTM
gate alongside the series input and previous hidden state.  A plain LSTM
runner (no context injection) lives here too.  Both step through
``text_encoder.lstm_step``, the one LSTM the encoder uses as well, so with
zeroed context weights the two runners produce bit-identical states.
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
    c: T.Tensor            # [d_s]
    h: T.Tensor            # [d_s]
    v: T.Tensor            # [2*d_h]
    p: T.Tensor | None     # [n]; unset before the first step


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
# cell operations


def init_states(tape: T.Tape | None, docs: DocRepresentation,
                params: MsinParams) -> MsinState:
    """Warm-start cell and hidden states from the mean document vector."""
    if docs.n < 1:
        raise EmptyDayError("cannot initialize states from zero documents")
    s_bar = T.mean_axis(tape, docs.vectors, axis=0)
    c0 = T.tanh(tape, T.linear(tape, [(params.init_c_w, s_bar)], params.init_c_b))
    h0 = T.tanh(tape, T.linear(tape, [(params.init_h_w, s_bar)], params.init_h_b))
    v0 = T.constant(np.zeros(docs.vectors.shape[1]))
    return MsinState(c=c0, h=h0, v=v0, p=None)


def attend(tape: T.Tape | None, h_prev: T.Tensor, docs: DocRepresentation,
           mask: np.ndarray, params: AttentionParams) -> T.Tensor:
    """Attention mass over documents given the previous hidden state."""
    query = T.linear(tape, [(params.state_w, h_prev)], params.bias)
    proj = T.tanh(tape, T.linear(tape, [(params.doc_w, docs.vectors)], query))
    logits = T.clip(tape, T.matmul(tape, proj, params.score),
                    -LOGIT_CLAMP, LOGIT_CLAMP)
    return T.masked_softmax(tape, logits, mask)


def update_context(tape: T.Tape | None, p: T.Tensor, docs: DocRepresentation,
                   v_prev: T.Tensor) -> T.Tensor:
    """Fold the attention-weighted document summary into the running context."""
    summary = T.matmul(tape, p, docs.vectors)
    return T.scale(tape, T.add(tape, summary, v_prev), 0.5)


def cell_step(tape: T.Tape | None, x: T.Tensor, state: MsinState,
              docs: DocRepresentation, mask: np.ndarray,
              params: MsinParams) -> MsinState:
    """One series step: attend, update context, then the gated state update."""
    p = attend(tape, state.h, docs, mask, params.attn)
    v = update_context(tape, p, docs, state.v)
    h, c = lstm_step(tape, params.cell, x, state.h, state.c, v)
    return MsinState(c=c, h=h, v=v, p=p)


def _window(window_values) -> np.ndarray:
    values = np.asarray(window_values, dtype=np.float32)
    if values.ndim != 2 or values.shape[0] < 1:
        raise T.ContractError("window must be [m, D] with m >= 1, got %r"
                              % (values.shape,))
    return values


def run_sequence(tape: T.Tape | None, window_values, docs: DocRepresentation,
                 mask: np.ndarray, params: MsinParams):
    """Run the cell over a window of series steps.

    ``window_values`` is an [m, D] array (or anything np.asarray accepts);
    returns (hiddens [m, d_s], AttentionTrace with all m mass vectors).
    """
    state = init_states(tape, docs, params)
    rows, trace = [], []
    for x in _window(window_values):
        state = cell_step(tape, T.constant(x), state, docs, mask, params)
        rows.append(T.reshape(tape, state.h, (1, params.cell.hidden_size)))
        trace.append(state.p)
    hiddens = T.concat(tape, rows, axis=0)
    return hiddens, AttentionTrace(per_step=trace)


def run_plain_sequence(tape: T.Tape | None, window_values, cell: LSTMParams,
                       init_c: T.Tensor, init_h: T.Tensor):
    """Context-free LSTM over the window with explicit initial states."""
    c, h = init_c, init_h
    rows = []
    for x in _window(window_values):
        h, c = lstm_step(tape, cell, T.constant(x), h, c)
        rows.append(T.reshape(tape, h, (1, cell.hidden_size)))
    return T.concat(tape, rows, axis=0)
