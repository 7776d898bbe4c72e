"""Per-step chains: the reference the fused recurrences are tested against.

``lstm_step``, ``update_context`` and ``cell_step`` spell the recurrences out
one engine op at a time: per position a ``linear`` and ``lstm_gates`` (and
``blend`` where a sequence skips the position), per series step the
attention, the context fade and the gated update.  ``sweep`` and
``msin_steps`` drive them with the arguments of ``tensor.lstm_sweep`` and
``tensor.msin_sequence`` and return what those return, so a test can compare
values and gradients bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from msin import cell as C
from msin import tensor as T


@dataclass
class MsinState:
    """The cell's per-sample rows [B, .] after a step."""

    c: T.Tensor            # [B, d_s]
    h: T.Tensor            # [B, d_s]
    v: T.Tensor            # [B, 2*d_h]
    p: T.Tensor | None     # [B, N]; unset before the first step


def lstm_step(tape, params, x, h, c, v=None):
    """One LSTM step of n sequences, one per row of [n, .] inputs; returns (h, c).

    The pre-activation is input_w.x + state_w.h (+ ctx_w.v) + bias, added in
    that order, so zero context weights reproduce the plain LSTM bitwise.
    Pass the context ``v`` only with parameters that have ``ctx_w``.
    """
    terms = [(params.input_w, x), (params.state_w, h)]
    if v is not None:
        terms.append((params.ctx_w, v))
    return T.lstm_gates(tape, T.linear(tape, terms, params.bias), c)


def update_context(tape, p, slots, v_prev):
    """Fold the attention-weighted document summary into the running context."""
    summary = T.weighted_sum(tape, slots.grid, p)
    return T.scale(tape, T.add(tape, summary, v_prev), 0.5)


def attend(tape, h_prev, slots, params, doc_proj):
    """``cell.attend`` with doc_w.s taken once for every step."""
    query = T.linear(tape, [(params.state_w, h_prev)], params.bias)
    proj = T.tanh(tape, T.add_bias(tape, doc_proj, query, slots.owner))
    logits = T.matmul(tape, proj, params.score)
    return T.masked_softmax(tape, T.reshape(tape, logits, slots.mask.shape),
                            slots.mask)


def cell_step(tape, x, state, slots, params, doc_proj=None):
    """One series step: attend, update context, then the gated state update."""
    if doc_proj is None:
        doc_proj = T.matmul(tape, slots.rows, params.attn.doc_w, transpose_b=True)
    p = attend(tape, state.h, slots, params.attn, doc_proj)
    v = update_context(tape, p, slots, state.v)
    h, c = lstm_step(tape, params.cell, x, state.h, state.c, v)
    return MsinState(c=c, h=h, v=v, p=p)


def sweep(tape, x, h0, c0, gates, valid=None, reverse=False):
    """``tensor.lstm_sweep``, one ``lstm_step`` (and ``blend``) per position."""
    n, d = h0.shape
    L = x.shape[0] // n
    h, c, out = h0, c0, [None] * L
    for l in (range(L - 1, -1, -1) if reverse else range(L)):
        h_new, c_new = lstm_step(tape, gates, T.narrow(tape, x, 0, l * n, (l + 1) * n),
                                 h, c)
        if valid is None or valid[:, l].all():
            h, c = h_new, c_new
        else:
            keep = np.repeat(valid[:, l:l + 1], d, axis=1)
            h = T.blend(tape, keep, h_new, h)
            c = T.blend(tape, keep, c_new, c)
        out[l] = h
    return T.concat(tape, out, axis=1)


def msin_steps(tape, x, h0, c0, doc_proj, grid, mask, attn, gates):
    """``tensor.msin_sequence``, one ``cell_step`` per series step."""
    mask = np.asarray(mask, dtype=bool)
    B, N = mask.shape
    slots = C.DocSlots(rows=None, grid=grid, owner=np.repeat(np.arange(B), N),
                       mask=mask)
    params = C.MsinParams(None, None, None, None, attn=attn, cell=gates)
    state = MsinState(c=c0, h=h0, v=T.constant(np.zeros((B, grid.shape[2]))), p=None)
    for t in range(x.shape[0] // B):
        state = cell_step(tape, T.narrow(tape, x, 0, t * B, (t + 1) * B), state,
                          slots, params, doc_proj)
    return T.concat(tape, [state.h, state.p], axis=1)
