"""Dense tensors with tape-based reverse-mode differentiation.

Values are stored as float32 (float64 graphs are used for gradient checking).
Every reduction (matmul, sums, softmax normalization) accumulates in float64
and rounds once to the storage dtype.  Rounding only at op boundaries keeps
results bit-identical under reorderings of mathematically commutative work,
e.g. permuting the rows of a matrix product permutes the output rows exactly.
Elementwise ops run in the storage dtype directly; they are trivially
permutation-equivariant and skipping the round trip keeps them cheap.

Ops are free functions taking the tape as their first argument.  Passing
``tape=None`` runs forward-only, which is how finite differences are taken.
Each op has one input form.  The batched ones (``linear``,
``masked_softmax``, ``weighted_sum``, ``dropout``) take rows, one per
document, sample or token position; a single item is a batch of one.
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


# ---------------------------------------------------------------------------
# linear algebra


def matmul(tape: Tape | None, a: Tensor, b: Tensor,
           transpose_b: bool = False) -> Tensor:
    """Matrix product, optionally against the transpose of ``b``.

    Supports [r,c]x[c,k] -> [r,k], [r,c]x[c] -> [r] and [c]x[c,k] -> [k];
    with ``transpose_b``, [r,c]x[k,c]^T -> [r,k].  A rank-1 ``b`` cannot be
    transposed.
    """
    if transpose_b and b.ndim != 2:
        raise ShapeError("matmul cannot transpose a rank-1 operand")
    A = a.data.astype(np.float64)
    B = b.data.astype(np.float64)
    if transpose_b:
        B = B.T
    if a.ndim == 2 and b.ndim == 2:
        if A.shape[1] != B.shape[0]:
            raise ShapeError("matmul inner dims differ: %r vs %r" % (A.shape, B.shape))

        def back(g):
            G = g.astype(np.float64)
            gB = A.T @ G
            return (G @ B.T, gB.T if transpose_b else gB)

    elif a.ndim == 2 and b.ndim == 1:
        if A.shape[1] != B.shape[0]:
            raise ShapeError("matmul inner dims differ: %r vs %r" % (A.shape, B.shape))

        def back(g):
            G = g.astype(np.float64)
            return (np.outer(G, B), A.T @ G)

    elif a.ndim == 1 and b.ndim == 2:
        if A.shape[0] != B.shape[0]:
            raise ShapeError("matmul inner dims differ: %r vs %r" % (A.shape, B.shape))

        def back(g):
            G = g.astype(np.float64)
            gB = np.outer(A, G)
            return (B @ G, gB.T if transpose_b else gB)

    else:
        raise ShapeError("matmul needs at least one rank-2 operand")
    data = np.asarray(A @ B, dtype=_promoted(a, b))
    return _emit(tape, data, (a, b), back)


def linear(tape: Tape | None, terms: Sequence[tuple[Tensor, Tensor]],
           bias: Tensor) -> Tensor:
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
            raise ShapeError("linear term shapes %r and %r do not match"
                             % (W.shape, X.shape))
        p = np.asarray(X @ W.T, dtype=_promoted(w, x))
        if acc is None:
            acc = p
        elif p.shape == acc.shape:
            acc = acc + p
        else:
            raise ShapeError("linear terms differ in shape: %r vs %r"
                             % (acc.shape, p.shape))
        prods.append((w.data, x.data))  # widened again in back(), not kept
    if acc is None:
        raise ShapeError("linear needs at least one term")
    if bias.shape != acc.shape[1:]:
        raise ShapeError("linear bias %r does not match output %r"
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
    return _emit(tape, acc + bias.data, inputs, back)


# ---------------------------------------------------------------------------
# elementwise


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("add shapes differ: %r vs %r" % (a.shape, b.shape))
    return _emit(tape, a.data + b.data, (a, b), lambda g: (g, g))


def add_bias(tape: Tape | None, m: Tensor, v: Tensor,
             rows: np.ndarray | None = None) -> Tensor:
    """Add a bias row to every row of a matrix (the engine's only broadcast).

    ``v`` is one [c] vector for every row, or a [k,c] matrix with ``rows``
    naming the row of ``v`` that each row of ``m`` gets.  The second form is
    ``add(m, take_rows(v, rows))`` bit for bit, in one tape entry.
    """
    if rows is None:
        if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
            raise ShapeError("add_bias expects [r,c] and [c], got %r and %r"
                             % (m.shape, v.shape))
        bias = v.data

        def back(g):
            return (g, g.astype(np.float64).sum(axis=0))
    else:
        rows = np.array(rows)
        if m.ndim != 2 or v.ndim != 2 or m.shape[1] != v.shape[1] \
                or rows.shape != m.shape[:1] \
                or not np.issubdtype(rows.dtype, np.integer):
            raise ShapeError("add_bias expects [r,c], [k,c] and r row ids, got "
                             "%r, %r and %r" % (m.shape, v.shape, rows.shape))
        if rows.min() < 0 or rows.max() >= v.shape[0]:
            raise ShapeError("add_bias row id out of range for %d rows" % v.shape[0])
        bias = v.data[rows]

        def back(g):
            gv = np.zeros(v.shape, dtype=np.float64)
            np.add.at(gv, rows, g)
            return (g, gv)

    return _emit(tape, m.data + bias, (m, v), back)


def hadamard(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError("hadamard shapes differ: %r vs %r" % (a.shape, b.shape))
    return _emit(tape, a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data))


def scale(tape: Tape | None, a: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)
    return _emit(tape, a.data * alpha, (a,), lambda g: (g * alpha,))


def tanh(tape: Tape | None, x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(tape, out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(tape: Tape | None, x: Tensor) -> Tensor:
    # 0.5*(1+tanh(x/2)) is the logistic function without overflow at either tail.
    out = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return _emit(tape, out, (x,), lambda g: (g * out * (1.0 - out),))


def lstm_gates(tape: Tape | None, pre: Tensor, c_prev: Tensor):
    """LSTM state update from stacked pre-activations; returns (h, c).

    ``pre`` holds the in/forget/out/cand blocks along its last axis and
    ``c_prev`` the previous cell state.  c = f*c_prev + i*cand and
    h = o*tanh(c), with sigmoid gates and a tanh candidate.  The values and
    gradients are the elementwise float arithmetic of the same update spelled
    out with narrow/sigmoid/tanh/hadamard/add, bit for bit, in two tape
    entries (c, then h) instead of thirteen.
    """
    d = pre.shape[-1] // 4
    if pre.shape[-1] != 4 * d or c_prev.shape != pre.shape[:-1] + (d,):
        raise ShapeError("lstm_gates expects [..., 4d] and [..., d], got %r and %r"
                         % (pre.shape, c_prev.shape))
    z = pre.data
    gates = 0.5 * (np.tanh(0.5 * z[..., :3 * d]) + 1.0)  # the sigmoid op's formula
    i, f, o = gates[..., :d], gates[..., d:2 * d], gates[..., 2 * d:]
    cand = np.tanh(z[..., 3 * d:])
    c = f * c_prev.data + i * cand
    tc = np.tanh(c)

    def back_c(g):
        gz = np.zeros(z.shape, dtype=g.dtype)
        gz[..., :d] = g * cand * i * (1.0 - i)
        gz[..., d:2 * d] = g * c_prev.data * f * (1.0 - f)
        gz[..., 3 * d:] = g * i * (1.0 - cand * cand)
        return (gz, g * f)

    def back_h(g):
        gz = np.zeros(z.shape, dtype=g.dtype)
        gz[..., 2 * d:3 * d] = g * tc * o * (1.0 - o)
        return (gz, g * o * (1.0 - tc * tc))

    c_out = _emit(tape, c, (pre, c_prev), back_c)
    return _emit(tape, o * tc, (pre, c_out), back_h), c_out


def blend(tape: Tape | None, keep: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """keep*a + (1-keep)*b for a 0/1 mask: ``a`` where keep is 1, ``b`` elsewhere.

    The arithmetic of ``hadamard`` by two constant masks and ``add``, bit for
    bit, in one tape entry.
    """
    k = np.asarray(keep, dtype=np.float32)
    if a.shape != b.shape or k.shape != a.shape:
        raise ShapeError("blend expects equal shapes, got mask %r and %r, %r"
                         % (k.shape, a.shape, b.shape))
    d = 1.0 - k
    return _emit(tape, k * a.data + d * b.data, (a, b), lambda g: (g * k, g * d))


def absolute(tape: Tape | None, x: Tensor) -> Tensor:
    return _emit(tape, np.abs(x.data), (x,), lambda g: (g * np.sign(x.data),))


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


def sum_stack(tape: Tape | None, parts: Sequence[Tensor]) -> Tensor:
    """Elementwise sum of same-shape tensors, accumulated in float64."""
    if not parts:
        raise ShapeError("sum_stack of zero tensors")
    shape = parts[0].shape
    if any(p.shape != shape for p in parts):
        raise ShapeError("sum_stack shapes differ")
    total = parts[0].data.astype(np.float64)
    for p in parts[1:]:
        total = total + p.data
    data = np.asarray(total, dtype=_promoted(*parts))
    return _emit(tape, data, tuple(parts), lambda g: (g,) * len(parts))


def weighted_sum(tape: Tape | None, parts: Tensor, weights: Tensor) -> Tensor:
    """Row-wise weighted sum: out[i] = sum_j weights[i, j] * parts[i, j].

    ``parts`` is [n,K,c] and ``weights`` [n,K].  The arithmetic is that of
    ``row_scale`` of each [n,c] slice parts[:, j] by weight column j followed
    by ``sum_stack``, bit for bit, in one tape entry: the products are
    rounded to the storage dtype and added in float64 in slice order.
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
        np.add.at(gx, ids, g)
        return (gx,)

    return _emit(tape, x.data[ids].copy(), (x,), back)


# ---------------------------------------------------------------------------
# normalization, regularization helpers, losses


def masked_softmax(tape: Tape | None, logits: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the valid entries of each row of [r,c] logits.

    Invalid entries come out exactly zero.  A row with no valid entry raises
    DegenerateMaskError.
    """
    mask = np.asarray(mask, dtype=bool)
    if logits.ndim != 2:
        raise ShapeError("masked_softmax expects [r,c] logits, got %r" % (logits.shape,))
    if mask.shape != logits.shape:
        raise ShapeError("mask shape %r does not match logits %r"
                         % (mask.shape, logits.shape))
    rows_ok = mask.any(axis=1)
    if not rows_ok.all():
        raise DegenerateMaskError(
            "softmax row %d has no valid entries" % int(np.flatnonzero(~rows_ok)[0]))
    shifted = np.where(mask, logits.data.astype(np.float64), -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def back(g):
        G = g.astype(np.float64)
        return (p * (G - (G * p).sum(axis=1, keepdims=True)),)

    return _emit(tape, np.asarray(p, dtype=_promoted(logits)), (logits,), back)


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
# gradient checking


# The finite-difference error of an entry is taken as the larger of two
# estimates: how far the central differences at h and h/2 disagree, and the
# rounding noise eps*|f|/h of differencing two float64 loss values.  An entry
# fails only when the tape is further from the difference than NOISE_FACTOR
# such errors plus the caller's relative tolerance.
NOISE_FACTOR = 4.0


def grad_check_table(build_loss: Callable[[Tape | None, list[Tensor]], Tensor],
                     params: Sequence[Tensor], h: float = 1e-5) -> dict[str, float]:
    """Worst noise-adjusted relative error between tape and finite differences.

    ``build_loss(tape, leaves)`` must rebuild the full forward pass from the
    given leaves and return a scalar.  Leaves are copied to float64 so the
    finite-difference oracle is taken in 64-bit arithmetic.  The function is
    evaluated twice up front; any bitwise disagreement means it is not a pure
    function of the leaves and gradient checking would be meaningless.

    Per entry the error is max(0, |tape - fd| - NOISE_FACTOR * fd_error)
    divided by max(|tape|, |fd|, 1e-8), where fd is the central difference at
    h and fd_error its estimated error (see NOISE_FACTOR).  A table value
    below rtol thus means |tape - fd| <= rtol * scale + NOISE_FACTOR * fd_error
    for every entry of that leaf.
    """
    leaves = [Tensor(t.data.astype(np.float64), name=t.name, requires_grad=True)
              for t in params]
    names = [t.name or ("param%d" % i) for i, t in enumerate(params)]

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
            excess = abs(gt - fd) - NOISE_FACTOR * rounding
            if excess > 0.0:  # the rounding bound alone does not cover it
                fd_error = max(abs(fd - central(flat, i, 0.5 * h)), rounding)
                excess = abs(gt - fd) - NOISE_FACTOR * fd_error
            err = max(err, excess / max(abs(gt), abs(fd), 1e-8))
        worst[name] = err
    return worst
