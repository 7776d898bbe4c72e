"""Recurrent cell whose gates receive an attended document context each step.

Per series step: attention over the day's document vectors produces a mass
vector p, p updates an exponentially-faded context v, and v enters every LSTM
gate alongside the series input and previous hidden state.  A plain LSTM
runner (no context injection) lives here too.  The cell runs a whole window
as one ``tensor.msin_sequence`` entry and the plain runner as a
one-direction ``tensor.lstm_sweep``, the op that runs the encoder's two
directions as well.  Both share one gate arithmetic, so with zeroed context
weights the two runners produce bit-identical states.  Each runner returns
only what the model reads after the last step.  Outside the recurrences each
weight-input product (the warm-start states, doc_w.s and ``attend``'s
query) is one ``tensor.linear``, and ``attend`` aligns once with
``tensor.attention``, the attention ``msin_sequence`` runs at every step.

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
from .text_encoder import DocRepresentation, LSTMParams, lstm_params, uniform


class EmptyDayError(ValueError):
    """A sample reached the cell with no documents."""


@dataclass
class DocSlots:
    """The documents of B samples laid out for batched attention.

    A padding slot repeats its sample's first document, so every row is a
    finite document vector; ``mask`` marks the real ones.
    """

    rows: T.Tensor    # [B*N, c]; sample b's slots are rows b*N..b*N+N-1
    grid: T.Tensor    # the same rows as [B, N, c]
    mask: np.ndarray  # [B, N] True on real documents

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
                    mask=mask)


def _windows(window_values) -> np.ndarray:
    values = np.asarray(window_values, dtype=np.float32)
    if values.ndim != 3 or values.shape[1] < 1:
        raise T.ContractError("window must be [B, m, D] with m >= 1, got %r"
                              % (values.shape,))
    return values


# ---------------------------------------------------------------------------
# cell operations


def init_states(tape: T.Tape | None, slots: DocSlots,
                params: MsinParams) -> tuple[T.Tensor, T.Tensor]:
    """Warm-start (c, h) [B, d_s] from each sample's mean document."""
    s_bar = T.weighted_sum(tape, slots.grid, slots.mean_weights)
    c0 = T.tanh(tape, T.linear(tape, params.init_c_w, s_bar, params.init_c_b))
    h0 = T.tanh(tape, T.linear(tape, params.init_h_w, s_bar, params.init_h_b))
    return c0, h0


def attend(tape: T.Tape | None, h_prev: T.Tensor, slots: DocSlots,
           params: AttentionParams) -> T.Tensor:
    """Attention mass [B, N] over each sample's documents given its hidden state."""
    keys = T.linear(tape, params.doc_w, slots.rows)
    query = T.linear(tape, params.state_w, h_prev, params.bias)
    return T.attention(tape, keys, query, params.score, slots.mask)


def _steps(windows: np.ndarray) -> T.Tensor:
    """[B, m, D] windows as step-major rows [m*B, D]."""
    B, m, D = windows.shape
    return T.constant(windows.transpose(1, 0, 2).reshape(m * B, D))


def run_sequence(tape: T.Tape | None, window_values, slots: DocSlots,
                 params: MsinParams) -> tuple[T.Tensor, T.Tensor]:
    """Run the cell over each sample's window of series steps.

    ``window_values`` is [B, m, D] (anything np.asarray accepts); returns
    the hidden state after step m, [B, d_s], and that step's masses [B, N].
    Attention's doc_w.s is taken once for every step.
    """
    windows = _windows(window_values)
    c0, h0 = init_states(tape, slots, params)
    doc_proj = T.linear(tape, params.attn.doc_w, slots.rows)
    out = T.msin_sequence(tape, _steps(windows), h0, c0, doc_proj, slots.grid,
                          slots.mask, params.attn, params.cell)
    d_s = h0.shape[1]
    return (T.narrow(tape, out, 1, 0, d_s),
            T.narrow(tape, out, 1, d_s, out.shape[1]))


def run_plain_sequence(tape: T.Tape | None, window_values, cell: LSTMParams,
                       init_c: T.Tensor, init_h: T.Tensor) -> T.Tensor:
    """Context-free LSTM over [B, m, D] windows from [B, d_s] initial states.

    Returns the hidden state after step m, [B, d_s].
    """
    windows = _windows(window_values)
    m = windows.shape[1]
    hs = T.lstm_sweep(tape, _steps(windows), init_h, init_c, cell)  # [B, m, d_s]
    return T.reshape(tape, T.narrow(tape, hs, 1, m - 1, m), init_h.shape)
