"""Dense tensors with tape-based reverse-mode differentiation.

Values are stored as float32 (float64 graphs are used for gradient checking).
Every reduction (products, sums, softmax normalization) accumulates in float64
and rounds once to the storage dtype.  Rounding only at op boundaries keeps
results bit-identical under reorderings of mathematically commutative work,
e.g. permuting the rows of a matrix product permutes the output rows exactly.
Elementwise ops run in the storage dtype directly; they are trivially
permutation-equivariant and skipping the round trip keeps them cheap.

Ops are free functions taking the tape as their first argument.  Passing
``tape=None`` runs forward-only, which is how finite differences are taken.
Each op keeps only the input form the model runs.  The batched ones
(``linear``, ``attention``, ``weighted_sum``, ``dropout``) take rows, one
per document, sample or token position; a single item is a batch of one.
``linear`` is the one weight-input product: every projection and head of
the model is one call of it.  ``attention`` is the one additive attention:
the encoder's word pooling and the series cells' document attention call
it, and ``msin_sequence`` runs its arithmetic at every step.

Two ops run a whole recurrence as one tape entry with a hand-written
backward: ``lstm_sweep`` (masked LSTMs over token positions or series steps,
one or both directions in one loop) and ``msin_sequence`` (the MSIN cell
over a window).  Their values and gradients are those of the per-step chain
of weight-input products, the single-step gated update and the attention
ops, bit for bit.  The tests keep that chain (``tests/chain_oracle.py``),
with the reference ops that only the tests run: ``matmul``, a sum of
products, ``add_bias`` of one bias row or by rows, ``masked_softmax``,
``scale``, ``sum_stack``, ``sigmoid``, ``lstm_gates`` and ``blend``.  The
L1/L2 weight penalties are not ops: ``training.train`` applies them to its
parameter buffer.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class EngineError(Exception):
    """Base class for tensor-engine failures."""


class ShapeError(EngineError):
    """Operands do not satisfy an op's shape contract."""


class ContractError(EngineError):
    """An API was used outside its contract (e.g. backward on a non-scalar)."""


class DegenerateMaskError(EngineError):
    """A softmax row had no valid entries to normalize over."""


class DeterminismError(EngineError):
    """Two identical forward evaluations disagreed bitwise."""


class Tensor:
    """A named array with an optional gradient buffer.

    ``grad`` stays ``None`` until backward first touches the tensor; once
    allocated it matches ``data`` in shape, and in dtype except on leaves,
    whose gradients are float64 (see ``Tape.backward``).
    """

    __slots__ = ("data", "grad", "name", "requires_grad")

    def __init__(self, data, name: str | None = None, requires_grad: bool = False,
                 dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.char not in "fd":  # float32, float64
            arr = arr.astype(np.float32)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.size == 0:
            raise ShapeError("tensors must be non-empty, got shape %r" % (arr.shape,))
        self.data = arr
        self.grad: np.ndarray | None = None
        self.name = name
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return "Tensor(%s, shape=%r, grad=%s)" % (
            tag, self.shape, "set" if self.grad is not None else "none")


def parameter(data, name: str, dtype=np.float32) -> Tensor:
    """A trainable leaf."""
    return Tensor(data, name=name, requires_grad=True, dtype=dtype)


def constant(data, name: str | None = None, dtype=np.float32) -> Tensor:
    """A non-trainable input (window values, masks folded into weights, ...)."""
    return Tensor(data, name=name, requires_grad=False, dtype=dtype)


class Tape:
    """Ordered record of ops for one forward pass.

    Record order is a topological order, so the reverse sweep sees every
    consumer of a tensor before its producer.  Ops whose output never received
    a gradient are skipped.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._entries.append((out, inputs, backward))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        A leaf (a tensor no recorded op produced) accumulates in float64, so
        the contributions of its many uses, and of the many rows of a batch,
        add up without rounding to the storage dtype in between.  Every
        other tensor's gradient is kept in its storage dtype and released
        once its producing op has passed it on.
        """
        if loss.size != 1:
            raise ContractError(
                "backward expects a scalar loss, got shape %r" % (loss.shape,))
        produced = {id(out) for out, _, _ in self._entries}
        loss.grad = np.ones_like(loss.data)
        for out, inputs, fn in reversed(self._entries):
            gout, out.grad = out.grad, None  # no earlier op adds to it
            if gout is None:
                continue
            for t, g in zip(inputs, fn(gout)):
                if g is None or not t.requires_grad:
                    continue
                shape = t.data.shape
                dtype = t.data.dtype if id(t) in produced else np.float64
                if g.dtype != dtype or g.shape != shape:
                    g = np.asarray(g, dtype=dtype).reshape(shape)
                t.grad = g if t.grad is None else t.grad + g


def _promoted(*tensors: Tensor):
    for t in tensors:
        if t.data.dtype == np.float64:
            return np.float64
    return np.float32


def _emit(tape: Tape | None, data: np.ndarray, inputs: tuple[Tensor, ...],
          backward: Callable) -> Tensor:
    # ops hand over float arrays, so only the rank and size rules need checking
    if data.ndim == 0:
        data = data.reshape(1)
    if data.size == 0:
        raise ShapeError("tensors must be non-empty, got shape %r" % (data.shape,))
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.name, out.requires_grad = data, None, None, False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if tape is not None:
                tape.record(out, inputs, backward)
            break
    return out


def _rounded(product: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A float64 product of ``a`` and ``b`` rounded to their storage dtype."""
    wide = a.dtype == np.float64 or b.dtype == np.float64
    return np.asarray(product, dtype=np.float64 if wide else np.float32)


# ---------------------------------------------------------------------------
# linear algebra


def linear(tape: Tape | None, w: Tensor, x: Tensor,
           bias: Tensor | None = None) -> Tensor:
    """The engine's one weight-input product, plus an optional bias.

    ``x`` holds rows [r,c].  A [k,c] weight gives x.w^T [r,k]; a [c] weight
    gives x.w [r], one score per row.  The product is taken in float64 and
    rounded once; a [k] bias is then added in the storage dtype.  The tests'
    ``chain_oracle`` spells it as ``matmul`` then ``add_bias``, bit for bit.
    """
    if x.ndim != 2 or w.ndim not in (1, 2) or w.shape[-1] != x.shape[1]:
        raise ShapeError("linear expects a [k,c] or [c] weight and [r,c] rows, "
                         "got %r and %r" % (w.shape, x.shape))
    w32, x32 = w.data, x.data  # widened again in back(), not kept
    out = np.asarray(x32.astype(np.float64) @ w32.astype(np.float64).T,
                     dtype=_promoted(w, x))
    inputs = (w, x)
    if bias is not None:
        if bias.shape != out.shape[1:]:
            raise ShapeError("linear bias %r does not match output %r"
                             % (bias.shape, out.shape))
        out, inputs = out + bias.data, (w, x, bias)

    def back(g):
        G = g.astype(np.float64)
        W, X = w32.astype(np.float64), x32.astype(np.float64)
        grads = ((X.T @ G).T, G @ W if W.ndim == 2 else np.outer(G, W))
        return grads if bias is None else grads + (G.sum(axis=0),)

    return _emit(tape, out, inputs, back)


# ---------------------------------------------------------------------------
# elementwise


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("add shapes differ: %r vs %r" % (a.shape, b.shape))
    return _emit(tape, a.data + b.data, (a, b), lambda g: (g, g))


def hadamard(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("hadamard shapes differ: %r vs %r" % (a.shape, b.shape))
    return _emit(tape, a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data))


def tanh(tape: Tape | None, x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(tape, out, (x,), lambda g: (g * (1.0 - out * out),))


def _gate_forward(z: np.ndarray, c_prev: np.ndarray):
    """The LSTM update from stacked pre-activations: (h, c, saved for the backward)."""
    d = z.shape[-1] // 4
    gates = 0.5 * (np.tanh(0.5 * z[..., :3 * d]) + 1.0)  # the logistic function
    i, f, o = gates[..., :d], gates[..., d:2 * d], gates[..., 2 * d:]
    cand = np.tanh(z[..., 3 * d:])
    c = f * c_prev + i * cand
    tc = np.tanh(c)
    return o * tc, c, (z.shape, i, f, o, cand, tc, c_prev)


def _gate_backward(saved, gh: np.ndarray, gc: np.ndarray | None,
                   gz: np.ndarray) -> np.ndarray:
    """Backward of the LSTM update: writes each block of the pre-activation
    gradient into ``gz`` once and returns the gradient of c_prev.

    ``gh`` is the gradient of h and ``gc`` what c received from later steps
    (None for nothing).  c's total gradient is gc plus h's share, added in
    that order.
    """
    _, i, f, o, cand, tc, c_prev = saved
    d = i.shape[-1]
    gc_h = gh * o * (1.0 - tc * tc)
    gc = gc_h if gc is None else gc + gc_h
    gz[..., :d] = gc * cand * i * (1.0 - i)
    gz[..., d:2 * d] = gc * c_prev * f * (1.0 - f)
    gz[..., 2 * d:3 * d] = gh * tc * o * (1.0 - o)
    gz[..., 3 * d:] = gc * i * (1.0 - cand * cand)
    return gc * f


# ---------------------------------------------------------------------------
# reductions and rearrangement


def sum_all(tape: Tape | None, x: Tensor) -> Tensor:
    total = x.data.astype(np.float64).sum()
    data = np.asarray([total], dtype=_promoted(x))
    return _emit(tape, data, (x,),
                 lambda g: (np.full(x.shape, g[0], dtype=g.dtype),))


def concat(tape: Tape | None, parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    ndim = parts[0].ndim
    if any(p.ndim != ndim for p in parts):
        raise ShapeError("concat ranks differ")
    if axis < 0 or axis >= ndim:
        raise ShapeError("concat axis %d invalid for rank %d" % (axis, ndim))
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def back(g):
        grads, lo = [], 0
        for s in sizes:
            sl = [slice(None)] * ndim
            sl[axis] = slice(lo, lo + s)
            grads.append(g[tuple(sl)])
            lo += s
        return tuple(grads)

    return _emit(tape, data, tuple(parts), back)


def narrow(tape: Tape | None, x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis."""
    if axis < 0 or axis >= x.ndim:
        raise ShapeError("narrow axis %d invalid for shape %r" % (axis, x.shape))
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError("narrow range [%d,%d) invalid for axis of length %d"
                         % (start, stop, x.shape[axis]))
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def back(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gx[sl] = g
        return (gx,)

    return _emit(tape, x.data[sl].copy(), (x,), back)


def reshape(tape: Tape | None, x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if math.prod(shape) != x.size:
        raise ShapeError("reshape %r -> %r changes element count" % (x.shape, shape))
    return _emit(tape, x.data.reshape(shape).copy(), (x,),
                 lambda g: (g.reshape(x.shape),))


def row_scale(tape: Tape | None, m: Tensor, v: Tensor) -> Tensor:
    """Scale row i of a matrix by v[i]."""
    if m.ndim != 2 or v.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ShapeError("row_scale expects [r,c] and [r], got %r and %r"
                         % (m.shape, v.shape))
    col = v.data[:, None]

    def back(g):
        return (g * col, (g.astype(np.float64) * m.data).sum(axis=1))

    return _emit(tape, m.data * col, (m, v), back)


def weighted_sum(tape: Tape | None, parts: Tensor, weights: Tensor) -> Tensor:
    """Row-wise weighted sum: out[i] = sum_j weights[i, j] * parts[i, j].

    ``parts`` is [n,K,c] and ``weights`` [n,K].  The arithmetic is that of
    ``row_scale`` of each [n,c] slice parts[:, j] by weight column j followed
    by the tests' ``sum_stack``, bit for bit, in one tape entry: the products
    are rounded to the storage dtype and added in float64 in slice order.
    """
    grid = parts.data
    if grid.ndim != 3 or weights.shape != grid.shape[:2]:
        raise ShapeError("weighted_sum expects [n,K,c] parts and [n,K] weights, "
                         "got %r and %r" % (grid.shape, weights.shape))
    cols = weights.data[:, :, None]  # [n, K, 1]
    # a reduction over a middle axis adds the K slices one after another
    total = (grid * cols).astype(np.float64).sum(axis=1)
    data = np.asarray(total, dtype=_promoted(parts, weights))

    def back(g):
        gw = (g.astype(np.float64)[:, None, :] * grid).sum(axis=2)
        return (g[:, None, :] * cols, gw.astype(weights.data.dtype))

    return _emit(tape, data, (parts, weights), back)


def take_rows(tape: Tape | None, x: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a matrix by integer index; backward scatter-adds in float64."""
    ids = np.asarray(ids)
    if x.ndim != 2 or ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("take_rows expects a matrix and integer vector ids")
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[0]):
        raise ShapeError("take_rows id out of range for %d rows" % x.shape[0])
    ids = ids.copy()

    def back(g):
        gx = np.zeros(x.shape, dtype=np.float64)
        np.add.at(gx, ids, g.astype(np.float64))  # same dtypes: numpy's fast path
        return (gx,)

    return _emit(tape, x.data[ids].copy(), (x,), back)


# ---------------------------------------------------------------------------
# attention


def _valid_rows(mask: np.ndarray) -> None:
    rows_ok = mask.any(axis=1)
    if not rows_ok.all():
        raise DegenerateMaskError(
            "softmax row %d has no valid entries" % int(np.flatnonzero(~rows_ok)[0]))


def _attend(keys: np.ndarray, query: np.ndarray | None, score: np.ndarray,
            mask: np.ndarray):
    """``attention``'s forward on arrays: (masses [n, K], saved for the backward)."""
    n, K = mask.shape
    A = np.tanh(keys if query is None else keys + np.repeat(query, K, axis=0))
    A64 = A.astype(np.float64)
    logits = _rounded(A64 @ score.astype(np.float64), A, score)
    shifted = np.where(mask, logits.reshape(n, K).astype(np.float64), -np.inf)
    e = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    P64 = e / e.sum(axis=1, keepdims=True)
    saved = (A, A64, P64, logits.dtype, query is not None)
    return np.asarray(P64, dtype=logits.dtype), saved


def _attend_back(saved, g: np.ndarray, score: np.ndarray):
    """``attention``'s backward: the gradients of keys, query (float64, not
    yet rounded to the query's dtype; None without one) and score."""
    A, A64, P64, s_dtype, has_query = saved
    G = g.astype(np.float64)
    Gs = np.asarray(P64 * (G - (G * P64).sum(axis=1, keepdims=True)),
                    dtype=s_dtype).reshape(-1).astype(np.float64)
    gA = np.asarray(np.outer(Gs, score.astype(np.float64)), dtype=A.dtype)
    gZ = gA * (1.0 - A * A)
    gq = gZ.reshape(P64.shape + (-1,)).astype(np.float64).sum(
        axis=1, initial=0.0) if has_query else None
    return gZ, gq, A64.T @ Gs


def attention(tape: Tape | None, keys: Tensor, query: Tensor | None,
              score: Tensor, mask: np.ndarray) -> Tensor:
    """Additive attention: masses [n, K] over the valid slots of each row.

    ``keys`` [n*K, a] holds row i's slots in rows i*K..i*K+K-1, ``query``
    [n, a] (or None) is added to each slot of its row and ``mask`` [n, K]
    marks the valid slots.  A slot scores tanh(keys + query) . ``score``
    ([a]), and the masses are a float64 softmax over the valid slots; an
    invalid slot gets zero mass and zero gradient, and a row with none
    raises DegenerateMaskError.  The tests' ``chain_oracle.attention``
    spells it out as ``add_bias_rows``, ``tanh``, the score ``linear``,
    ``reshape`` and ``masked_softmax``, bit for bit.
    """
    mask = np.asarray(mask, dtype=bool)
    n, K = mask.shape if mask.ndim == 2 else (0, 0)
    a = score.shape[0]
    if (score.ndim != 1 or keys.shape != (n * K, a)
            or (query is not None and query.shape != (n, a))):
        raise ShapeError("attention expects [n*K, a] keys, [n, a] query, [a] "
                         "score and [n, K] mask, got %r, %r, %r and %r"
                         % (keys.shape, None if query is None else query.shape,
                            score.shape, mask.shape))
    _valid_rows(mask)
    p, saved = _attend(keys.data, None if query is None else query.data,
                       score.data, mask)

    def back(g):
        g_keys, g_query, g_score = _attend_back(saved, g, score.data)
        return (g_keys, g_score) if query is None else (g_keys, g_query, g_score)

    inputs = (keys, score) if query is None else (keys, query, score)
    return _emit(tape, p, inputs, back)


# ---------------------------------------------------------------------------
# regularization and losses


def dropout(tape: Tape | None, x: Tensor, rate: float,
            rngs: Sequence[np.random.Generator]) -> Tensor:
    """Inverted dropout; identity (and no tape entry) when rate is zero.

    ``rngs`` holds one generator per row of ``x``; each draws its row's mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must lie in [0,1), got %r" % rate)
    if rate == 0.0:
        return x
    rngs = list(rngs)
    if len(rngs) != x.shape[0]:
        raise ShapeError("dropout needs one generator per row: %d for %r"
                         % (len(rngs), x.shape))
    draw = np.stack([g.random(x.shape[1:]) for g in rngs])
    keep = (draw >= rate).astype(x.data.dtype) / (1.0 - rate)
    return _emit(tape, x.data * keep, (x,), lambda g: (g * keep,))


def bce_with_logit(tape: Tape | None, logit: Tensor, target) -> Tensor:
    """Binary cross-entropy per logit, stable at large |logit|.

    ``logit`` is a vector and ``target`` one label for all of it or one per
    entry, each in [0, 1]; the output holds one loss per logit.
    """
    if logit.ndim != 1:
        raise ShapeError("bce_with_logit expects a vector of logits, got %r"
                         % (logit.shape,))
    y = np.broadcast_to(np.asarray(target, dtype=np.float64), logit.shape)
    if not ((y >= 0.0) & (y <= 1.0)).all():
        raise ContractError("bce target must lie in [0,1], got %r" % (target,))
    z = logit.data.astype(np.float64)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    sig = 0.5 * (np.tanh(0.5 * z) + 1.0)

    def back(g):
        return (g.astype(np.float64) * (sig - y),)

    return _emit(tape, np.asarray(loss, dtype=_promoted(logit)), (logit,), back)


# ---------------------------------------------------------------------------
# recurrences
#
# Each op below runs every step of a recurrence in one tape entry.  The
# forward is the arithmetic of the per-step chain of ops it replaces
# (the products, the gated update, ``attention``), bit for bit:
# every product is taken in float64 and rounded once, and sums keep the
# chain's order.  The backward is hand-written BPTT that adds every
# gradient in the order the tape would, so float64 and float32 gradients
# match the chain's too.  Weights are widened to float64 once per call, and
# per-step values are kept only while a tape records the op.  Each step takes
# its own input product inside the loop: hoisted, the products of every
# position would be one float64 array, most of a forward-only pass's memory.


def _plus(total: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """``total + g``, the way the tape adds a gradient to what a tensor has."""
    return g if total is None else total + g


def _check_gates(gates, d: int, d_in: int, name: str) -> None:
    if (gates.input_w.shape != (4 * d, d_in) or gates.state_w.shape != (4 * d, d)
            or gates.bias.shape != (4 * d,)):
        raise ShapeError("%s gates %r, %r, %r do not fit width %d and input %d"
                         % (name, gates.input_w.shape, gates.state_w.shape,
                            gates.bias.shape, d, d_in))


def lstm_sweep(tape: Tape | None, x: Tensor, h0: Tensor, c0: Tensor,
               forward=None, backward=None,
               valid: np.ndarray | None = None) -> Tensor:
    """Masked LSTMs over position-major rows, both directions in one loop.

    ``x`` [L*n, d_in] holds position l of n sequences in rows l*n..l*n+n-1.
    ``forward`` and ``backward`` each hold one direction's stacked weights
    ``input_w`` [4d, d_in], ``state_w`` [4d, d] and ``bias`` [4d], as
    ``text_encoder.LSTMParams`` does, or None; at least one is given.  Step i
    runs the forward direction at position i and the backward direction at
    position L-1-i.  ``h0``, ``c0`` [n, D*d] hold the initial states of the D
    given directions side by side, forward first.  Where ``valid`` [n, L] is
    False a sequence carries its states through the position.  Returns every
    position's hidden states in one tape entry, [n, L, D*d], the directions
    side by side as in ``h0``.

    Per position and direction this is input_w.x plus state_w.h, each
    product rounded once, plus the bias, then the gated update and, where a
    sequence skips the position, a blend that keeps its old states: the
    per-step chain in the tests' ``chain_oracle``, bit for bit.  Each product
    is one ``np.matmul`` over operands stacked by direction, which makes the
    BLAS call of each direction's 2-D product.  The sweep streams by
    position: step i widens only the rows of the positions it runs, takes
    their input_w.x there and writes each direction's new h straight into
    the output, so a forward-only call holds no per-position array but it.
    """
    dirs = [(g, flip) for g, flip in ((forward, False), (backward, True))
            if g is not None]
    D = len(dirs)
    n, width = h0.shape if h0.ndim == 2 else (0, 0)
    d = width // max(D, 1)
    if (D == 0 or n == 0 or d == 0 or d * D != width or c0.shape != (n, width)
            or x.ndim != 2 or x.shape[0] % n):
        raise ShapeError("lstm_sweep expects [L*n, d_in] rows, [n, D*d] states "
                         "and D >= 1 directions, got %r, %r, %r and %d"
                         % (x.shape, h0.shape, c0.shape, D))
    L = x.shape[0] // n
    for g, _ in dirs:
        _check_gates(g, d, x.shape[1], "lstm_sweep")
    # pos[k, i]: the position direction k runs at step i
    pos = np.array([np.arange(L)[::-1] if flip else np.arange(L) for _, flip in dirs])
    carries = [()] * L  # the directions some sequence skips at each step
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (n, L):
            raise ShapeError("lstm_sweep mask %r does not match %d rows of %d "
                             "positions" % (valid.shape, n, L))
        keep = valid.astype(np.float32)
        skips = ~valid.all(axis=0)
        carries = [tuple(k for k in range(D) if skips[pos[k, i]]) for i in range(L)]
    inputs = (x, h0, c0) + tuple(
        t for g, _ in dirs for t in (g.input_w, g.state_w, g.bias))
    record = tape is not None and any(t.requires_grad for t in inputs)
    w_in = np.stack([g.input_w.data for g, _ in dirs])    # [D, 4d, d_in]
    w_state = np.stack([g.state_w.data for g, _ in dirs])  # [D, 4d, d]
    bias = np.stack([g.bias.data for g, _ in dirs])[:, None, :]
    Wx, Wh = w_in.astype(np.float64), w_state.astype(np.float64)
    WxT, WhT = Wx.transpose(0, 2, 1), Wh.transpose(0, 2, 1)
    rows = x.data.reshape(L, n, -1)
    h = h0.data.reshape(n, D, d).transpose(1, 0, 2)  # [D, n, d]
    c = c0.data.reshape(n, D, d).transpose(1, 0, 2)
    out = np.empty((n, L, width), dtype=np.result_type(*(t.data for t in inputs)))
    by_dir = out.reshape(n, L, D, d)  # a view of out, direction by direction
    steps = []
    for i, at in enumerate(pos.T.tolist()):  # at[k]: the position of direction k
        X = np.array([rows[p] for p in at], dtype=np.float64)  # [D, n, d_in]
        H = h.astype(np.float64)
        z = (_rounded(np.matmul(X, WxT), w_in, x.data)
             + _rounded(np.matmul(H, WhT), w_state, h) + bias)
        h_new, c_new, saved = _gate_forward(z, c)
        for k in carries[i]:
            kk = keep[:, pos[k, i], None]
            h_new[k] = kk * h_new[k] + (1.0 - kk) * h[k]
            c_new[k] = kk * c_new[k] + (1.0 - kk) * c[k]
        if record:
            steps.append((X, H, saved, h.dtype))
        h, c = h_new, c_new
        for k, p in enumerate(at):
            by_dir[:, p, k] = h[k]

    def by_position(a):
        """[D, L, ...] by step -> [D, L, ...] by position (pos is an involution)."""
        return a[np.arange(D)[:, None], pos]

    def side_by_side(a):
        """[D, n, d] per direction -> [n, D*d]."""
        return a.transpose(1, 0, 2).reshape(n, width)

    def back(g):
        gs = by_position(g.reshape(n, L, D, d).transpose(2, 1, 0, 3))  # by step
        G = np.empty((D, L, n, 4 * d))  # each step's pre-activation gradient
        gWx = gWh = gb = None
        # what the states before a step receive: the blend's share per
        # carrying direction, added before the linear's share, as the tape does
        into_h = into_c = None
        blend_h, blend_c = {}, {}
        for i in range(L - 1, -1, -1):
            X, H, saved, h_dtype = steps[i]
            gh, gc = gs[:, i], into_c
            if into_h is not None:
                for k, part in blend_h.items():
                    gh[k] = gh[k] + part
                gh = gh + into_h
                for k, part in blend_c.items():
                    gc[k] = part + gc[k]
            blend_h, blend_c = {}, {}
            for k in carries[i]:  # the blend's backward, c's entry first
                kk = keep[:, pos[k, i], None]
                if gc is not None:
                    blend_c[k] = gc[k] * (1.0 - kk)
                    gc[k] = gc[k] * kk
                blend_h[k] = gh[k] * (1.0 - kk)
                gh[k] = gh[k] * kk
            Gi = G[:, i]
            into_c = _gate_backward(saved, gh, gc, Gi)
            gWx = _plus(gWx, np.matmul(X.transpose(0, 2, 1), Gi))
            gWh = _plus(gWh, np.matmul(H.transpose(0, 2, 1), Gi))
            gb = _plus(gb, Gi.sum(axis=1))
            into_h = np.asarray(np.matmul(Gi, Wh), dtype=h_dtype)
        for k, part in blend_h.items():
            into_h[k] = part + into_h[k]
        for k, part in blend_c.items():
            into_c[k] = part + into_c[k]
        gx = None
        if x.requires_grad:  # each direction's share in x's dtype, then added
            for part in by_position(np.matmul(G, Wx[:, None])):
                part = part.reshape(x.shape)
                gx = part if gx is None else (np.asarray(gx, dtype=x.data.dtype)
                                              + np.asarray(part, dtype=x.data.dtype))
        grads = [gx, side_by_side(into_h), side_by_side(into_c)]
        for k in range(D):
            grads += [gWx[k].T, gWh[k].T, gb[k]]
        return tuple(grads)

    return _emit(tape if record else None, out, inputs, back)


def msin_sequence(tape: Tape | None, x: Tensor, h0: Tensor, c0: Tensor,
                  doc_proj: Tensor, grid: Tensor, mask: np.ndarray, attn,
                  gates) -> Tensor:
    """The MSIN cell over every step of a window, in one tape entry.

    ``x`` [m*B, D] holds step t of B windows in rows t*B..t*B+B-1, and
    ``h0``, ``c0`` [B, d] are the initial states.  ``grid`` [B, N, c] holds
    each sample's document slots, ``mask`` [B, N] marks the real ones and
    ``doc_proj`` [B*N, a] is doc_w.s for every slot.  ``attn`` holds the
    attention's ``state_w`` [a, d], ``bias`` [a] and ``score`` [a];
    ``gates`` the stacked LSTM weights with ``ctx_w`` [4d, c].  Returns
    [B, d + N]: the last hidden state next to the last step's masses.

    A step is the query ``linear`` of h, ``attention`` of that query over
    doc_proj, the context fade v = 0.5 * (``weighted_sum`` + v) from v = 0,
    and the gated update whose pre-activation adds ctx_w.v after input_w.x
    and state_w.h, then the bias.  ``grid`` is listed among the inputs once
    per step, so its step gradients add up in the chain's order after
    whatever later ops gave it.  ``x`` is the series window, a constant:
    no gradient is taken for it, so one that requires one raises
    ContractError.
    """
    if x.requires_grad:
        raise ContractError("msin_sequence takes no gradient for x")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or grid.ndim != 3 or grid.shape[:2] != mask.shape:
        raise ShapeError("msin_sequence expects a [B, N, c] grid and [B, N] mask, "
                         "got %r and %r" % (grid.shape, mask.shape))
    B, N = mask.shape
    c = grid.shape[2]
    d = h0.shape[1] if h0.ndim == 2 else 0
    a = attn.state_w.shape[0]
    if (d == 0 or h0.shape != (B, d) or c0.shape != (B, d) or x.ndim != 2
            or x.shape[0] % B):
        raise ShapeError("msin_sequence expects [m*B, D] rows and [B, d] states, "
                         "got %r, %r and %r" % (x.shape, h0.shape, c0.shape))
    if (attn.state_w.shape != (a, d) or attn.bias.shape != (a,)
            or attn.score.shape != (a,) or doc_proj.shape != (B * N, a)
            or gates.ctx_w.shape != (4 * d, c)):
        raise ShapeError("msin_sequence attention or context weights do not fit "
                         "width %d and %d slots of %d" % (d, B * N, c))
    _check_gates(gates, d, x.shape[1], "msin_sequence")
    _valid_rows(mask)
    m = x.shape[0] // B
    inputs = (x, h0, c0, doc_proj) + (grid,) * m + (
        attn.state_w, attn.bias, attn.score,
        gates.input_w, gates.state_w, gates.ctx_w, gates.bias)
    record = tape is not None and any(t.requires_grad for t in inputs)
    Wq = attn.state_w.data.astype(np.float64)
    Wx = gates.input_w.data.astype(np.float64)
    Wh = gates.state_w.data.astype(np.float64)
    Wc = gates.ctx_w.data.astype(np.float64)
    X = x.data.astype(np.float64).reshape(m, B, -1)
    docs = grid.data
    steps = []
    h, cell, v = h0.data, c0.data, np.zeros((B, c), dtype=np.float32)
    for t in range(m):
        H = h.astype(np.float64)
        q = _rounded(H @ Wq.T, attn.state_w.data, h) + attn.bias.data
        p, att = _attend(doc_proj.data, q, attn.score.data, mask)
        summary = _rounded((docs * p[:, :, None]).astype(np.float64).sum(axis=1),
                           docs, p)
        v = (summary + v) * 0.5
        V = v.astype(np.float64)
        # x.input_w stays in the loop: hoisted, it would be an [m, B, 4d]
        # float64 temporary, which raised peak memory and saved no time
        z = (_rounded(X[t] @ Wx.T, gates.input_w.data, x.data)
             + _rounded(H @ Wh.T, gates.state_w.data, h)
             + _rounded(V @ Wc.T, gates.ctx_w.data, v)) + gates.bias.data
        if record:
            dtypes = (h.dtype, v.dtype, q.dtype)
        h, cell, saved = _gate_forward(z, cell)
        if record:
            steps.append((H, V, p, att, saved, dtypes))

    def back(g):
        gh, gc, gv, gp = g[:, :d], None, None, g[:, d:]
        gWq = gbq = g_score = gWx = gWh = gWc = gb = g_proj = None
        g_docs = []
        for t in range(m - 1, -1, -1):
            H, V, p, att, saved, (h_dt, v_dt, q_dt) = steps[t]
            G = np.empty(saved[0])  # the gated update's pre-activation gradient
            gc = _gate_backward(saved, gh, gc, G)
            gWx = _plus(gWx, X[t].T @ G)
            gWh = _plus(gWh, H.T @ G)
            gWc = _plus(gWc, V.T @ G)
            gb = _plus(gb, G.sum(axis=0))
            gh = np.asarray(G @ Wh, dtype=h_dt)
            gv = _plus(gv, np.asarray(G @ Wc, dtype=v_dt)) * 0.5  # the fade
            if grid.requires_grad:  # the weighted summary
                g_docs.append(gv[:, None, :] * p[:, :, None])
            gw = np.asarray((gv.astype(np.float64)[:, None, :] * docs).sum(axis=2),
                            dtype=p.dtype)
            gp = gp + gw if t == m - 1 else gw
            gZ, Gq, gs = _attend_back(att, gp, attn.score.data)
            g_proj = _plus(g_proj, gZ)
            g_score = _plus(g_score, gs)
            Gq = np.asarray(Gq, dtype=q_dt).astype(np.float64)
            gWq = _plus(gWq, H.T @ Gq)
            gbq = _plus(gbq, Gq.sum(axis=0))
            gh = gh + np.asarray(Gq @ Wq, dtype=h_dt)
        return (None, gh, gc, g_proj, *(g_docs or [None] * m), gWq.T, gbq, g_score,
                gWx.T, gWh.T, gWc.T, gb)

    out = np.concatenate([h, p], axis=1)
    return _emit(tape if record else None, out, inputs, back)


# ---------------------------------------------------------------------------
# gradient checking


# The finite-difference error of an entry is taken as the larger of two
# estimates: how far the central differences at h and h/2 disagree, and the
# rounding noise eps*|f|/h of differencing two float64 loss values.  An entry
# fails only when the tape is further from the difference than NOISE_FACTOR
# such errors plus the caller's relative tolerance.
NOISE_FACTOR = 4.0


def grad_check_table(build_loss: Callable[[Tape | None, list[Tensor]], Tensor],
                     params: Sequence[Tensor], h: float = 1e-5,
                     margins: dict | None = None) -> dict[str, float]:
    """Worst noise-adjusted relative error between tape and finite differences.

    ``build_loss(tape, leaves)`` must rebuild the full forward pass from the
    leaves and return a scalar; ``leaves`` is ``params`` itself.  Each tensor
    of ``params`` is widened to float64 in place, so the finite-difference
    oracle is taken in 64-bit arithmetic, and its entries are perturbed in
    place and restored.  The tensors stay in float64 afterwards, each holding
    its tape gradient.  The function is evaluated twice up front; any bitwise
    disagreement means it is not a pure function of the leaves and gradient
    checking would be meaningless.

    Per entry the error is max(0, |tape - fd| - NOISE_FACTOR * fd_error)
    divided by max(|tape|, |fd|, 1e-8), where fd is the central difference at
    h and fd_error its estimated error (see NOISE_FACTOR).  A table value
    below rtol thus means |tape - fd| <= rtol * scale + NOISE_FACTOR * fd_error
    for every entry of that leaf; a leaf with a non-finite tape or
    finite-difference entry reads inf.  A ``margins`` dict, if given,
    receives each leaf's largest |tape - fd| and the NOISE_FACTOR * fd_error
    it was allowed.
    """
    leaves = list(params)
    margins = {} if margins is None else margins
    for t in leaves:
        t.data, t.grad = t.data.astype(np.float64), None
    names = [t.name or ("param%d" % i) for i, t in enumerate(leaves)]

    first = build_loss(None, leaves)
    second = build_loss(None, leaves)
    if first.data.tobytes() != second.data.tobytes():
        raise DeterminismError("two identical forward passes disagree bitwise")

    tape = Tape()
    loss = build_loss(tape, leaves)
    if loss.size != 1:
        raise ContractError("gradient check needs a scalar loss")
    tape.backward(loss)
    rounding = np.finfo(np.float64).eps * abs(float(first.data[0])) / h

    def value() -> float:
        return float(build_loss(None, leaves).data[0])

    def central(flat, i, step) -> float:
        saved = flat[i]
        flat[i] = saved + step
        fp = value()
        flat[i] = saved - step
        fm = value()
        flat[i] = saved
        return (fp - fm) / (2.0 * step)

    worst: dict[str, float] = {}
    for name, leaf in zip(names, leaves):
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        gflat = g.reshape(-1)
        err = 0.0
        for i in range(flat.size):
            fd = central(flat, i, h)
            gt = float(gflat[i])
            diff, allowance = abs(gt - fd), NOISE_FACTOR * rounding
            if not math.isfinite(diff):  # a nan or inf entry fails its leaf
                diff = err = math.inf
            elif diff > allowance:  # the rounding bound alone does not cover it
                fd_error = max(abs(fd - central(flat, i, 0.5 * h)), rounding)
                allowance = NOISE_FACTOR * fd_error
            err = max(err, (diff - allowance) / max(abs(gt), abs(fd), 1e-8))
            margins[name] = max(margins.get(name, (0.0, 0.0)), (diff, allowance))
        worst[name] = err
    return worst
