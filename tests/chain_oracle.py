"""Per-step chains: the reference the fused recurrences are tested against.

``lstm_step``, ``update_context`` and ``cell_step`` spell the recurrences out
one engine op at a time: per position a ``linear_sum`` and ``lstm_gates`` (and
``blend`` where a sequence skips the position), per series step the
attention, the context fade and the gated update.  ``sweep`` and
``msin_steps`` drive them with the arguments of ``tensor.lstm_sweep`` and
``tensor.msin_sequence`` and return what those return, and ``attention``
takes the arguments of ``tensor.attention``, so a test can compare values
and gradients bit for bit.

``matmul``, ``linear_sum``, ``add_bias``, ``add_bias_rows``,
``masked_softmax``, ``scale``, ``sum_stack``, ``sigmoid``, ``lstm_gates`` and
``blend`` are ops that only the tests use; ``tensor.linear``,
``tensor.weighted_sum``, ``tensor.attention`` and the fused recurrences are
tested against them.  They record tape entries as the package's ops do.
``matmul`` multiplies a matrix or a vector on either side, ``linear_sum``
adds several products before the bias, ``add_bias`` adds one bias row to
every row and ``add_bias_rows`` a chosen row of a matrix to each,
``masked_softmax`` normalizes each row over its valid entries in float64,
``scale`` multiplies by a constant and ``sum_stack`` adds same-shape tensors
in float64.  The gated update keeps its own backward, split into the c and h
entries, apart from the fused one in ``msin.tensor``.
"""

from dataclasses import dataclass

import numpy as np

from msin import cell as C
from msin import tensor as T


def matmul(tape, a, b, transpose_b=False):
    """Matrix product, optionally against the transpose of ``b``.

    Supports [r,c]x[c,k] -> [r,k], [r,c]x[c] -> [r] and [c]x[c,k] -> [k];
    with ``transpose_b``, [r,c]x[k,c]^T -> [r,k].  A rank-1 ``b`` cannot be
    transposed.
    """
    if transpose_b and b.ndim != 2:
        raise T.ShapeError("matmul cannot transpose a rank-1 operand")
    A = a.data.astype(np.float64)
    B = b.data.astype(np.float64)
    if transpose_b:
        B = B.T
    if a.ndim == 2 and b.ndim == 2:
        if A.shape[1] != B.shape[0]:
            raise T.ShapeError("matmul inner dims differ: %r vs %r" % (A.shape, B.shape))

        def back(g):
            G = g.astype(np.float64)
            gB = A.T @ G
            return (G @ B.T, gB.T if transpose_b else gB)

    elif a.ndim == 2 and b.ndim == 1:
        if A.shape[1] != B.shape[0]:
            raise T.ShapeError("matmul inner dims differ: %r vs %r" % (A.shape, B.shape))

        def back(g):
            G = g.astype(np.float64)
            return (np.outer(G, B), A.T @ G)

    elif a.ndim == 1 and b.ndim == 2:
        if A.shape[0] != B.shape[0]:
            raise T.ShapeError("matmul inner dims differ: %r vs %r" % (A.shape, B.shape))

        def back(g):
            G = g.astype(np.float64)
            gB = np.outer(A, G)
            return (B @ G, gB.T if transpose_b else gB)

    else:
        raise T.ShapeError("matmul needs at least one rank-2 operand")
    data = np.asarray(A @ B, dtype=T._promoted(a, b))
    return T._emit(tape, data, (a, b), back)


def add_bias(tape, m, v):
    """Add one [c] bias row to every row of an [r,c] matrix."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise T.ShapeError("add_bias expects [r,c] and [c], got %r and %r"
                           % (m.shape, v.shape))
    return T._emit(tape, m.data + v.data, (m, v),
                   lambda g: (g, g.astype(np.float64).sum(axis=0)))


def add_bias_rows(tape, m, v, rows):
    """Add to each row of a matrix the row of ``v`` [k,c] that ``rows`` names.

    ``add(m, take_rows(v, rows))`` bit for bit, in one tape entry.
    """
    rows = np.array(rows)
    if m.ndim != 2 or v.ndim != 2 or m.shape[1] != v.shape[1] \
            or rows.shape != m.shape[:1] \
            or not np.issubdtype(rows.dtype, np.integer):
        raise T.ShapeError("add_bias_rows expects [r,c], [k,c] and r row ids, "
                           "got %r, %r and %r" % (m.shape, v.shape, rows.shape))
    if rows.min() < 0 or rows.max() >= v.shape[0]:
        raise T.ShapeError("add_bias_rows row id out of range for %d rows"
                           % v.shape[0])

    def back(g):
        gv = np.zeros(v.shape, dtype=np.float64)
        np.add.at(gv, rows, g.astype(np.float64))  # same dtypes: numpy's fast path
        return (g, gv)

    return T._emit(tape, m.data + v.data[rows], (m, v), back)


def masked_softmax(tape, logits, mask):
    """Softmax over the valid entries of each row of [r,c] logits.

    Invalid entries come out exactly zero.  A row with no valid entry raises
    DegenerateMaskError.
    """
    mask = np.asarray(mask, dtype=bool)
    if logits.ndim != 2:
        raise T.ShapeError("masked_softmax expects [r,c] logits, got %r"
                           % (logits.shape,))
    if mask.shape != logits.shape:
        raise T.ShapeError("mask shape %r does not match logits %r"
                           % (mask.shape, logits.shape))
    rows_ok = mask.any(axis=1)
    if not rows_ok.all():
        raise T.DegenerateMaskError(
            "softmax row %d has no valid entries" % int(np.flatnonzero(~rows_ok)[0]))
    shifted = np.where(mask, logits.data.astype(np.float64), -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def back(g):
        G = g.astype(np.float64)
        return (p * (G - (G * p).sum(axis=1, keepdims=True)),)

    return T._emit(tape, np.asarray(p, dtype=T._promoted(logits)), (logits,), back)


def attention(tape, keys, query, score, mask):
    """``tensor.attention`` spelled out: tanh of the keys (plus each row's
    query), the score ``linear``, then the softmax over each row's valid
    slots."""
    mask = np.asarray(mask, dtype=bool)
    n, K = mask.shape
    if query is not None:
        keys = add_bias_rows(tape, keys, query, np.repeat(np.arange(n), K))
    logits = T.linear(tape, score, T.tanh(tape, keys))
    return masked_softmax(tape, T.reshape(tape, logits, (n, K)), mask)


def linear_sum(tape, terms, bias):
    """Sum of weight-input products plus a bias, in one tape entry.

    Each term is a pair (w [k,c], x [r,c]) contributing x.w^T, one row per
    input row.  The arithmetic is that of ``matmul`` per term, then ``add``
    of the terms in order, then ``add_bias`` of the [k] bias, bit for bit.
    """
    prods, acc = [], None
    for w, x in terms:
        W = w.data.astype(np.float64)
        X = x.data.astype(np.float64)
        if W.ndim != 2 or X.ndim != 2 or W.shape[1] != X.shape[1]:
            raise T.ShapeError("linear term shapes %r and %r do not match"
                               % (W.shape, X.shape))
        p = np.asarray(X @ W.T, dtype=T._promoted(w, x))
        if acc is None:
            acc = p
        elif p.shape == acc.shape:
            acc = acc + p
        else:
            raise T.ShapeError("linear terms differ in shape: %r vs %r"
                               % (acc.shape, p.shape))
        prods.append((w.data, x.data))
    if acc is None:
        raise T.ShapeError("linear needs at least one term")
    if bias.shape != acc.shape[1:]:
        raise T.ShapeError("linear bias %r does not match output %r"
                           % (bias.shape, acc.shape))

    def back(g):
        G = g.astype(np.float64)
        grads = []
        for w32, x32 in prods:
            W, X = w32.astype(np.float64), x32.astype(np.float64)
            grads += [(X.T @ G).T, G @ W]
        grads.append(G.sum(axis=0))
        return tuple(grads)

    inputs = tuple(t for term in terms for t in term) + (bias,)
    return T._emit(tape, acc + bias.data, inputs, back)


def scale(tape, a, alpha):
    alpha = float(alpha)
    return T._emit(tape, a.data * alpha, (a,), lambda g: (g * alpha,))


def sum_stack(tape, parts):
    """Elementwise sum of same-shape tensors, accumulated in float64."""
    if not parts:
        raise T.ShapeError("sum_stack of zero tensors")
    shape = parts[0].shape
    if any(p.shape != shape for p in parts):
        raise T.ShapeError("sum_stack shapes differ")
    total = parts[0].data.astype(np.float64)
    for p in parts[1:]:
        total = total + p.data
    data = np.asarray(total, dtype=T._promoted(*parts))
    return T._emit(tape, data, tuple(parts), lambda g: (g,) * len(parts))


def sigmoid(tape, x):
    # 0.5*(1+tanh(x/2)) is the logistic function without overflow at either tail.
    out = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return T._emit(tape, out, (x,), lambda g: (g * out * (1.0 - out),))


def _gate_back_c(saved, g):
    """Gradients of c = f*c_prev + i*cand: (pre-activations, c_prev)."""
    shape, i, f, _, cand, _, c_prev = saved
    d = i.shape[-1]
    gz = np.zeros(shape, dtype=g.dtype)
    gz[..., :d] = g * cand * i * (1.0 - i)
    gz[..., d:2 * d] = g * c_prev * f * (1.0 - f)
    gz[..., 3 * d:] = g * i * (1.0 - cand * cand)
    return gz, g * f


def _gate_back_h(saved, g):
    """Gradients of h = o*tanh(c): (pre-activations, c)."""
    shape, _, _, o, _, tc, _ = saved
    d = o.shape[-1]
    gz = np.zeros(shape, dtype=g.dtype)
    gz[..., 2 * d:3 * d] = g * tc * o * (1.0 - o)
    return gz, g * o * (1.0 - tc * tc)


def lstm_gates(tape, pre, c_prev):
    """LSTM state update from stacked pre-activations; returns (h, c).

    ``pre`` holds the in/forget/out/cand blocks along its last axis and
    ``c_prev`` the previous cell state.  c = f*c_prev + i*cand and
    h = o*tanh(c), with sigmoid gates and a tanh candidate: the elementwise
    float arithmetic of the same update spelled out with
    narrow/sigmoid/tanh/hadamard/add, bit for bit, in two tape entries (c,
    then h) instead of thirteen.
    """
    d = pre.shape[-1] // 4
    if pre.shape[-1] != 4 * d or c_prev.shape != pre.shape[:-1] + (d,):
        raise T.ShapeError("lstm_gates expects [..., 4d] and [..., d], got %r and %r"
                           % (pre.shape, c_prev.shape))
    z = pre.data
    gates = 0.5 * (np.tanh(0.5 * z[..., :3 * d]) + 1.0)  # sigmoid's formula
    i, f, o = gates[..., :d], gates[..., d:2 * d], gates[..., 2 * d:]
    cand = np.tanh(z[..., 3 * d:])
    c = f * c_prev.data + i * cand
    tc = np.tanh(c)
    saved = (z.shape, i, f, o, cand, tc, c_prev.data)
    c_out = T._emit(tape, c, (pre, c_prev), lambda g: _gate_back_c(saved, g))
    return T._emit(tape, o * tc, (pre, c_out), lambda g: _gate_back_h(saved, g)), c_out


def blend(tape, keep, a, b):
    """keep*a + (1-keep)*b for a 0/1 mask: ``a`` where keep is 1, ``b`` elsewhere.

    The arithmetic of ``hadamard`` by two constant masks and ``add``, bit for
    bit, in one tape entry.
    """
    k = np.asarray(keep, dtype=np.float32)
    if a.shape != b.shape or k.shape != a.shape:
        raise T.ShapeError("blend expects equal shapes, got mask %r and %r, %r"
                           % (k.shape, a.shape, b.shape))
    d = 1.0 - k
    return T._emit(tape, k * a.data + d * b.data, (a, b), lambda g: (g * k, g * d))


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
    return lstm_gates(tape, linear_sum(tape, terms, params.bias), c)


def update_context(tape, p, slots, v_prev):
    """Fold the attention-weighted document summary into the running context."""
    summary = T.weighted_sum(tape, slots.grid, p)
    return scale(tape, T.add(tape, summary, v_prev), 0.5)


def attend(tape, h_prev, slots, params, doc_proj):
    """``cell.attend`` with doc_w.s taken once for every step."""
    query = T.linear(tape, params.state_w, h_prev, params.bias)
    return attention(tape, doc_proj, query, params.score, slots.mask)


def cell_step(tape, x, state, slots, params, doc_proj=None):
    """One series step: attend, update context, then the gated state update."""
    if doc_proj is None:
        doc_proj = T.linear(tape, params.attn.doc_w, slots.rows)
    p = attend(tape, state.h, slots, params.attn, doc_proj)
    v = update_context(tape, p, slots, state.v)
    h, c = lstm_step(tape, params.cell, x, state.h, state.c, v)
    return MsinState(c=c, h=h, v=v, p=p)


def columns(tape, x, lo, hi):
    """Columns lo..hi-1 of a matrix; its backward pads with -0.0, the exact
    additive identity, so adding the shares of several column ranges gives
    each range's gradient unchanged, signed zeros included."""
    def back(g):
        gx = np.full(x.shape, -0.0, dtype=g.dtype)
        gx[:, lo:hi] = g
        return (gx,)

    return T._emit(tape, x.data[:, lo:hi].copy(), (x,), back)


def sweep(tape, x, h0, c0, forward=None, backward=None, valid=None):
    """``tensor.lstm_sweep``: one direction after the other, each one
    ``lstm_step`` (and ``blend``) per position."""
    dirs = [(g, flip) for g, flip in ((forward, False), (backward, True))
            if g is not None]
    n, width = h0.shape
    d = width // len(dirs)
    L = x.shape[0] // n
    outs = []
    for k, (gates, flip) in enumerate(dirs):
        h, c = h0, c0
        if len(dirs) > 1:
            h = columns(tape, h0, k * d, (k + 1) * d)
            c = columns(tape, c0, k * d, (k + 1) * d)
        out = [None] * L
        for l in (range(L - 1, -1, -1) if flip else range(L)):
            h_new, c_new = lstm_step(tape, gates,
                                     T.narrow(tape, x, 0, l * n, (l + 1) * n), h, c)
            if valid is None or valid[:, l].all():
                h, c = h_new, c_new
            else:
                keep = np.repeat(valid[:, l:l + 1], d, axis=1)
                h = blend(tape, keep, h_new, h)
                c = blend(tape, keep, c_new, c)
            out[l] = h
        outs.append(out)
    rows = [T.concat(tape, [out[l] for out in outs], axis=1) if len(outs) > 1
            else outs[0][l] for l in range(L)]
    return T.reshape(tape, T.concat(tape, rows, axis=1), (n, L, width))


def msin_steps(tape, x, h0, c0, doc_proj, grid, mask, attn, gates):
    """``tensor.msin_sequence``, one ``cell_step`` per series step."""
    mask = np.asarray(mask, dtype=bool)
    B, N = mask.shape
    slots = C.DocSlots(rows=None, grid=grid, mask=mask)
    params = C.MsinParams(None, None, None, None, attn=attn, cell=gates)
    state = MsinState(c=c0, h=h0, v=T.constant(np.zeros((B, grid.shape[2]))), p=None)
    for t in range(x.shape[0] // B):
        state = cell_step(tape, T.narrow(tape, x, 0, t * B, (t + 1) * B), state,
                          slots, params, doc_proj)
    return T.concat(tape, [state.h, state.p], axis=1)
