"""Unit and property tests for the reverse-mode tensor engine."""

import ast
import inspect
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from msin import tensor as T

import chain_oracle as chain
import helpers as H


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop float64 matrix product, the oracle for the matmul op."""
    r, c = a.shape
    c2, k = b.shape
    assert c == c2
    out = np.zeros((r, k), dtype=np.float64)
    for i in range(r):
        for j in range(k):
            for l in range(c):
                out[i, j] += float(a[i, l]) * float(b[l, j])
    return out


def _rand(rng, *shape):
    return rng.uniform(-1.5, 1.5, size=shape)


def _rand_away(rng, *shape, gap=1e-3):
    """Uniform values bounded away from zero, for kinked ops like abs."""
    mag = rng.uniform(gap, 1.5, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


class TestTensorBasics:
    def test_scalar_normalized_to_one_element(self):
        t = T.constant(3.5)
        assert t.shape == (1,)
        assert t.data.dtype == np.float32

    def test_empty_rejected(self):
        with pytest.raises(T.ShapeError):
            T.constant(np.zeros((0, 3)))

    def test_integer_input_stored_as_float32(self):
        t = T.constant([1, 2, 3])
        assert t.data.dtype == np.float32


class TestMatmul:
    """The tests' reference product ``chain.matmul`` and the engine's one
    product op ``linear``."""

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = _rand(rng, 4, 3).astype(np.float32)
        b = _rand(rng, 3, 5).astype(np.float32)
        want = matmul_loops(a, b)
        got = chain.matmul(None, T.constant(a), T.constant(b))
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-6)
        got = T.linear(None, T.constant(b.T), T.constant(a))
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-6)

    def test_transpose_flags(self):
        rng = np.random.default_rng(1)
        a = _rand(rng, 4, 3).astype(np.float32)
        b = _rand(rng, 5, 3).astype(np.float32)
        want = matmul_loops(a.astype(np.float64), b.T.astype(np.float64))
        got = chain.matmul(None, T.constant(a), T.constant(b), transpose_b=True)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-6)
        got = T.linear(None, T.constant(b), T.constant(a))
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-6)

    def test_matrix_vector_and_vector_matrix(self):
        rng = np.random.default_rng(2)
        m = _rand(rng, 4, 3).astype(np.float32)
        v = _rand(rng, 3).astype(np.float32)
        u = _rand(rng, 4).astype(np.float32)
        for got in (chain.matmul(None, T.constant(m), T.constant(v)),
                    T.linear(None, T.constant(v), T.constant(m))):
            np.testing.assert_allclose(got.data, m.astype(np.float64) @ v,
                                       rtol=0, atol=1e-6)
        np.testing.assert_allclose(
            chain.matmul(None, T.constant(u), T.constant(m)).data,
            u.astype(np.float64) @ m.astype(np.float64), rtol=0, atol=1e-6)

    def test_inner_dim_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            chain.matmul(None, T.constant(np.ones((2, 3))), T.constant(np.ones((4, 2))))
        with pytest.raises(T.ShapeError):
            T.linear(None, T.constant(np.ones((2, 4))), T.constant(np.ones((2, 3))))
        with pytest.raises(T.ShapeError):
            T.linear(None, T.constant(np.ones(4)), T.constant(np.ones((2, 3))))

    def test_cannot_transpose_vector(self):
        with pytest.raises(T.ShapeError):
            chain.matmul(None, T.constant(np.ones((2, 3))), T.constant(np.ones(3)),
                         transpose_b=True)

    def test_vector_vector_rejected(self):
        with pytest.raises(T.ShapeError):
            chain.matmul(None, T.constant(np.ones(3)), T.constant(np.ones(3)))
        with pytest.raises(T.ShapeError):
            T.linear(None, T.constant(np.ones(3)), T.constant(np.ones(3)))

    def test_row_permutation_is_bitwise_equivariant(self):
        """Permuting input rows permutes output rows bit-identically."""
        rng = np.random.default_rng(3)
        a = _rand(rng, 8, 6).astype(np.float32)
        b = _rand(rng, 6, 4).astype(np.float32)
        ops = (lambda x: chain.matmul(None, T.constant(x), T.constant(b)).data,
               lambda x: T.linear(None, T.constant(b.T), T.constant(x)).data,
               lambda x: T.linear(None, T.constant(b[:, 0]), T.constant(x)).data)
        for op in ops:
            base = op(a)
            for seed in range(10):
                perm = np.random.default_rng(seed).permutation(8)
                assert op(a[perm]).tobytes() == base[perm].tobytes()

    def test_accumulates_in_float64(self):
        # A float32 running sum would lose the +1 entirely.
        v = np.array([1e8, 1.0, -1e8], dtype=np.float32)
        got = chain.matmul(None, T.constant(v), T.constant(np.ones((3, 1))))
        np.testing.assert_allclose(got.data, [1.0], rtol=0, atol=0)
        for w in (np.ones((1, 3)), np.ones(3)):
            got = T.linear(None, T.constant(w), T.constant(v[None]))
            assert got.data.reshape(-1).tolist() == [1.0]


class TestElementwise:
    def test_add_and_shape_guard(self):
        a, b = T.constant([1.0, 2.0]), T.constant([3.0, 4.0])
        np.testing.assert_allclose(T.add(None, a, b).data, [4.0, 6.0])
        with pytest.raises(T.ShapeError):
            T.add(None, a, T.constant(np.ones(3)))

    def test_add_bias_broadcasts_over_rows(self):
        m = T.constant(np.zeros((2, 3)))
        v = T.constant([1.0, 2.0, 3.0])
        got = chain.add_bias(None, m, v)
        np.testing.assert_allclose(got.data, [[1, 2, 3], [1, 2, 3]])

    def test_hadamard_scale_abs(self):
        x = T.constant([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(T.hadamard(None, x, x).data, [4.0, 0.25, 9.0])
        np.testing.assert_allclose(chain.scale(None, x, -2.0).data, [4.0, -1.0, -6.0])

    def test_tanh_sigmoid_values(self):
        x = np.array([-3.0, 0.0, 0.7], dtype=np.float32)
        np.testing.assert_allclose(T.tanh(None, T.constant(x)).data, np.tanh(x),
                                   rtol=0, atol=1e-7)
        np.testing.assert_allclose(chain.sigmoid(None, T.constant(x)).data,
                                   1.0 / (1.0 + np.exp(-x.astype(np.float64))),
                                   rtol=0, atol=1e-7)

    def test_sigmoid_stable_at_extremes(self):
        x = T.constant([-1000.0, 1000.0])
        got = chain.sigmoid(None, x).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, [0.0, 1.0], rtol=0, atol=1e-12)


class TestReductionsAndRearrangement:
    def test_sum_all_accumulates_in_float64(self):
        x = T.constant(np.array([1e8, 1.0, -1e8], dtype=np.float32))
        np.testing.assert_allclose(T.sum_all(None, x).data, [1.0], rtol=0, atol=0)

    def test_concat_narrow_roundtrip(self):
        rng = np.random.default_rng(4)
        a = T.constant(_rand(rng, 2, 3))
        b = T.constant(_rand(rng, 2, 2))
        cat = T.concat(None, [a, b], axis=1)
        assert cat.shape == (2, 5)
        back = T.narrow(None, cat, 1, 3, 5)
        np.testing.assert_allclose(back.data, b.data, rtol=0, atol=0)

    def test_narrow_bounds(self):
        x = T.constant(np.ones((3, 3)))
        with pytest.raises(T.ShapeError):
            T.narrow(None, x, 0, 2, 2)
        with pytest.raises(T.ShapeError):
            T.narrow(None, x, 1, 0, 4)

    def test_reshape_count_guard(self):
        with pytest.raises(T.ShapeError):
            T.reshape(None, T.constant(np.ones(6)), (4, 2))

    def test_take_rows_gather_and_scatter(self):
        table = T.parameter(np.arange(8, dtype=np.float32).reshape(4, 2), "emb")
        ids = np.array([2, 0, 2], dtype=np.int64)
        tape = T.Tape()
        rows = T.take_rows(tape, table, ids)
        np.testing.assert_allclose(rows.data, [[4, 5], [0, 1], [4, 5]])
        loss = T.sum_all(tape, rows)
        tape.backward(loss)
        # row 2 was gathered twice, so its scatter-added gradient is 2
        np.testing.assert_allclose(table.grad, [[1, 1], [0, 0], [2, 2], [0, 0]])

    def test_take_rows_range_guard(self):
        with pytest.raises(T.ShapeError):
            T.take_rows(None, T.constant(np.ones((3, 2))), np.array([3]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_adds_match_a_sequential_loop(self, dtype):
        """take_rows' and add_bias_rows' backwards add each row's gradient
        in float64, one after another in row order, bit for bit."""
        rng = np.random.default_rng(30)
        for _ in range(40):
            k, c = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            ids = rng.integers(0, k, size=int(rng.integers(1, 30)))
            g = rng.normal(size=(ids.size, c)) * 10.0 ** rng.integers(-8, 9, (ids.size, 1))
            g[rng.random(g.shape) < 0.2] = -0.0
            g = g.astype(dtype)
            want = np.zeros((k, c))
            for i, r in enumerate(ids):
                want[r] += g[i].astype(np.float64)
            for op in (lambda tape, t: T.take_rows(tape, t, ids),
                       lambda tape, t: chain.add_bias_rows(
                           tape, T.constant(np.zeros(g.shape), dtype=dtype), t, ids)):
                table = T.parameter(np.zeros((k, c)), "table", dtype)
                tape = T.Tape()
                out = op(tape, table)
                tape.backward(T.sum_all(tape, T.hadamard(tape, out,
                                                         T.constant(g, dtype=dtype))))
                assert table.grad.tobytes() == want.tobytes()

    def test_row_scale(self):
        m = T.constant(np.ones((3, 2)))
        v = T.constant([1.0, 2.0, 3.0])
        got = T.row_scale(None, m, v)
        np.testing.assert_allclose(got.data, [[1, 1], [2, 2], [3, 3]])
        with pytest.raises(T.ShapeError):
            T.row_scale(None, m, T.constant([1.0, 2.0]))

    def test_sum_stack_accumulates_in_float64(self):
        parts = [T.constant(np.array([1e8], dtype=np.float32)),
                 T.constant(np.array([1.0], dtype=np.float32)),
                 T.constant(np.array([-1e8], dtype=np.float32))]
        np.testing.assert_allclose(chain.sum_stack(None, parts).data, [1.0],
                                   rtol=0, atol=0)


class TestMaskedSoftmax:
    """The reference softmax ``tensor.attention`` is tested against."""

    def test_known_values(self):
        """exp(ln 2) = 2 against two exp(0) = 1 gives probabilities 1/2, 1/4, 1/4."""
        logits = T.constant([[np.log(2.0), 0.0, 0.0]])
        p = chain.masked_softmax(None, logits, np.array([[True, True, True]]))
        np.testing.assert_allclose(p.data, [[0.5, 0.25, 0.25]], rtol=0, atol=1e-7)

    def test_masked_entries_exactly_zero(self):
        logits = T.constant([[5.0, 1.0, -2.0, 0.3]])
        mask = np.array([[True, False, True, False]])
        p = chain.masked_softmax(None, logits, mask).data[0]
        assert p[1] == 0.0 and p[3] == 0.0
        np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-6)

    def test_degenerate_mask_raises(self):
        with pytest.raises(T.DegenerateMaskError):
            chain.masked_softmax(None, T.constant([[1.0, 2.0]]),
                                 np.array([[False, False]]))

    def test_rank_one_logits_rejected(self):
        """Rows are the one input form; a single row is a batch of one."""
        with pytest.raises(T.ShapeError):
            chain.masked_softmax(None, T.constant([1.0, 2.0]),
                                 np.array([True, True]))

    def test_rowwise_normalization(self):
        logits = T.constant(np.zeros((2, 3), dtype=np.float32))
        mask = np.array([[True, True, False], [True, True, True]])
        p = chain.masked_softmax(None, logits, mask).data
        np.testing.assert_allclose(p[0], [0.5, 0.5, 0.0], rtol=0, atol=1e-7)
        np.testing.assert_allclose(p[1], [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-7)
        mask[1] = False
        with pytest.raises(T.DegenerateMaskError):
            chain.masked_softmax(None, logits, mask)

    def test_large_logits_do_not_overflow(self):
        p = chain.masked_softmax(None, T.constant([[800.0, 799.0, -800.0]]),
                                 np.ones((1, 3), dtype=bool)).data
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-6)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_probability_vector_property(self, seed, n):
        """Valid entries form a probability vector; masked entries are zero."""
        rng = np.random.default_rng(seed)
        logits = T.constant(_rand(rng, n) * 10)
        mask = rng.random(n) < 0.6
        mask[rng.integers(n)] = True
        p = chain.masked_softmax(None, T.reshape(None, logits, (1, n)),
                                 mask[None]).data[0]
        assert np.all(p[~mask] == 0.0)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-6)

    def test_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(5)
        logits = _rand(rng, 9).astype(np.float32)
        mask = np.ones(9, dtype=bool)
        mask[3] = False
        base = chain.masked_softmax(None, T.constant(logits[None]),
                                    mask[None]).data[0]
        for seed in range(10):
            perm = np.random.default_rng(seed).permutation(9)
            permed = chain.masked_softmax(None, T.constant(logits[None, perm]),
                                          mask[None, perm]).data[0]
            assert permed.tobytes() == base[perm].tobytes()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.parameter(np.arange(5, dtype=np.float32), "x")
        tape = T.Tape()
        tape.backward(T.sum_all(tape, x))
        np.testing.assert_allclose(x.grad, np.ones(5), rtol=0, atol=0)

    def test_half_squared_norm_gradient_is_x(self):
        rng = np.random.default_rng(6)
        x0 = _rand(rng, 7).astype(np.float32)
        x = T.parameter(x0, "x")
        tape = T.Tape()
        loss = chain.scale(tape, T.sum_all(tape, T.hadamard(tape, x, x)), 0.5)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, x0, rtol=0, atol=1e-6)

    def test_three_op_chain_matches_central_differences(self):
        rng = np.random.default_rng(7)
        w0 = _rand(rng, 3, 4)
        x = T.constant(_rand(rng, 1, 4), dtype=np.float64)

        def loss(tape, leaves):
            return T.sum_all(tape, T.tanh(tape, T.linear(tape, leaves[0], x)))

        assert H.grad_check(loss, [T.parameter(w0, "w")]) < 1e-7

    def test_reused_tensor_accumulates_exactly(self):
        x = T.parameter(np.array([1.5, -2.0], dtype=np.float32), "x")
        tape = T.Tape()
        tape.backward(T.sum_all(tape, T.add(tape, x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 2.0], rtol=0, atol=0)

    def test_non_scalar_loss_rejected(self):
        x = T.parameter(np.ones(3), "x")
        tape = T.Tape()
        y = T.tanh(tape, x)
        with pytest.raises(T.ContractError):
            tape.backward(y)

    def test_empty_tape_backward_is_noop(self):
        tape = T.Tape()
        tape.backward(T.constant([2.0]))

    def test_disconnected_branch_keeps_none_grad(self):
        x = T.parameter(np.ones(3), "x")
        z = T.parameter(np.ones(3), "z")
        tape = T.Tape()
        T.tanh(tape, x)  # never feeds the loss
        tape.backward(T.sum_all(tape, z))
        assert x.grad is None
        np.testing.assert_allclose(z.grad, np.ones(3))


def _leaf_grads(build, leaves, seed):
    """Output bytes and every leaf gradient's bytes after one backward pass."""
    for t in leaves:
        t.grad = None
    tape = T.Tape()
    outs = build(tape, leaves)
    rng = np.random.default_rng(seed)
    terms = [T.sum_all(tape, T.hadamard(tape, o, T.constant(_rand(rng, *o.shape))))
             for o in outs]
    tape.backward(chain.sum_stack(tape, terms))
    return [o.data.tobytes() for o in outs] + [t.grad.tobytes() for t in leaves]


def _gates(rng, d, d_in, dtype, ctx=None):
    """Stacked LSTM weights as leaves, in the order the fused ops list them."""
    leaves = [T.parameter(_rand(rng, 4 * d, d_in), "input_w", dtype),
              T.parameter(_rand(rng, 4 * d, d), "state_w", dtype)]
    if ctx is not None:
        leaves.append(T.parameter(_rand(rng, 4 * d, ctx), "ctx_w", dtype))
    return leaves + [T.parameter(_rand(rng, 4 * d) * 0.5, "bias", dtype)]


def _sweep_case(seed, n, L, dtype=np.float64, reverse=False, both=False):
    """Leaves of an lstm_sweep over ragged sequences, and fused and chain builds.

    One direction runs positions forwards, or backwards with ``reverse``;
    ``both`` runs the two directions together.  A sequence of length 0
    carries its initial states through every position.
    """
    rng = np.random.default_rng(seed)
    d_in, d = 3, 2
    D = 2 if both else 1
    lengths = rng.integers(0, L + 1, size=n)
    valid = lengths[:, None] > np.arange(L)[None, :]
    leaves = [T.parameter(_rand(rng, L * n, d_in), "x", dtype),
              T.parameter(_rand(rng, n, D * d), "h0", dtype),
              T.parameter(_rand(rng, n, D * d), "c0", dtype)]
    for _ in range(D):
        leaves += _gates(rng, d, d_in, dtype)

    def args(ls):
        x, h0, c0, *w = ls
        dirs = [SimpleNamespace(input_w=w[3 * k], state_w=w[3 * k + 1],
                                bias=w[3 * k + 2]) for k in range(D)]
        return (x, h0, c0) + (tuple(dirs) if both else
                              (None, dirs[0]) if reverse else (dirs[0], None))

    def fused(tape, ls):
        return [T.lstm_sweep(tape, *args(ls), valid)]

    def oracle(tape, ls):
        return [chain.sweep(tape, *args(ls), valid)]

    return leaves, fused, oracle


def _attention_case(seed, n, K, dtype=np.float64, query=True):
    """Leaves of an attention over rows of 1..K valid slots, one row with a
    single slot, and the op and chain builds."""
    rng = np.random.default_rng(seed)
    a = 3
    lengths = rng.integers(1, K + 1, size=n)
    lengths[0] = 1
    mask = np.arange(K)[None, :] < lengths[:, None]
    leaves = [T.parameter(_rand(rng, n * K, a), "keys", dtype)]
    if query:
        leaves.append(T.parameter(_rand(rng, n, a), "query", dtype))
    leaves.append(T.parameter(_rand(rng, a) * 2, "score", dtype))

    def args(ls):
        return (ls[0], ls[1] if query else None, ls[-1], mask)

    def op(tape, ls):
        return [T.attention(tape, *args(ls))]

    def oracle(tape, ls):
        return [chain.attention(tape, *args(ls))]

    return leaves, op, oracle, mask


def _msin_case(seed, B, m, dtype=np.float64):
    """Leaves of an msin_sequence over 1-5 documents a sample, padded to N slots."""
    rng = np.random.default_rng(seed)
    d, a, c, D = 3, 2, 4, 2
    counts = rng.integers(1, 6, size=B)
    N = int(counts.max())
    mask = np.arange(N)[None, :] < counts[:, None]
    x = T.constant(_rand(rng, m * B, D))
    leaves = [T.parameter(_rand(rng, B, d), "h0", dtype),
              T.parameter(_rand(rng, B, d), "c0", dtype),
              T.parameter(_rand(rng, B * N, a), "doc_proj", dtype),
              T.parameter(_rand(rng, B, N, c), "grid", dtype),
              T.parameter(_rand(rng, a, d), "attn.state_w", dtype),
              T.parameter(_rand(rng, a) * 0.5, "attn.bias", dtype),
              T.parameter(_rand(rng, a) * 2, "attn.score", dtype)] + _gates(
                  rng, d, D, dtype, ctx=c)

    def args(ls):
        h0, c0, proj, grid, qw, qb, score, wx, wh, wc, b = ls
        return (x, h0, c0, proj, grid, mask,
                SimpleNamespace(state_w=qw, bias=qb, score=score),
                SimpleNamespace(input_w=wx, state_w=wh, ctx_w=wc, bias=b))

    def fused(tape, ls):
        return [T.msin_sequence(tape, *args(ls))]

    def oracle(tape, ls):
        return [chain.msin_steps(tape, *args(ls))]

    return leaves, fused, oracle, mask


class TestFusedOps:
    """linear, lstm_gates, weighted_sum, blend, add_bias by rows and
    attention, and the recurrences lstm_sweep and msin_sequence, against the
    ops they fuse."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_linear_bitwise_matches_matmul_add_chain(self, rows, n_terms):
        """The oracle's sum of products, and with one term ``linear``."""
        rng = np.random.default_rng(40 + n_terms)
        leaves = []
        for k in range(n_terms):
            leaves += [T.parameter(_rand(rng, 8, 4 + k), "w%d" % k),
                       T.parameter(_rand(rng, rows, 4 + k), "x%d" % k)]
        leaves.append(T.parameter(_rand(rng, 8), "b"))

        def fused(tape, ls):
            pairs = [(ls[2 * k], ls[2 * k + 1]) for k in range(n_terms)]
            return [chain.linear_sum(tape, pairs, ls[-1])]

        def engine(tape, ls):
            return [T.linear(tape, *ls)]

        def spelled(tape, ls):
            acc = None
            for k in range(n_terms):
                w, x = ls[2 * k], ls[2 * k + 1]
                p = chain.matmul(tape, x, w, transpose_b=True)
                acc = p if acc is None else T.add(tape, acc, p)
            return [chain.add_bias(tape, acc, ls[-1])]

        want = _leaf_grads(spelled, leaves, 1)
        assert _leaf_grads(fused, leaves, 1) == want
        if n_terms == 1:
            assert _leaf_grads(engine, leaves, 1) == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("form", ["matrix", "vector", "matrix+bias"])
    def test_linear_forms_bitwise_match_matmul(self, form, rows, dtype):
        """Each form of ``linear`` is ``matmul`` (then ``add_bias``) of the
        per-step chain, values and gradients bit for bit; the model runs all
        three."""
        rng = np.random.default_rng(45)
        w_shape = (6,) if form == "vector" else (8, 6)
        leaves = [T.parameter(_rand(rng, *w_shape), "w", dtype),
                  T.parameter(_rand(rng, rows, 6), "x", dtype)]
        if form == "matrix+bias":
            leaves.append(T.parameter(_rand(rng, 8), "b", dtype))

        def engine(tape, ls):
            return [T.linear(tape, *ls)]

        def spelled(tape, ls):
            p = chain.matmul(tape, ls[1], ls[0], transpose_b=ls[0].ndim == 2)
            return [p if len(ls) == 2 else chain.add_bias(tape, p, ls[2])]

        got, want = engine(None, leaves)[0], spelled(None, leaves)[0]
        assert got.data.dtype == want.data.dtype == dtype
        assert _leaf_grads(engine, leaves, 2) == _leaf_grads(spelled, leaves, 2)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_lstm_gates_bitwise_matches_spelled_out_update(self, rows):
        rng = np.random.default_rng(50)
        lead = () if rows is None else (rows,)
        d = 4
        leaves = [T.parameter(_rand(rng, *lead, 4 * d) * 2, "pre"),
                  T.parameter(_rand(rng, *lead, d), "c_prev")]

        def fused(tape, ls):
            return list(chain.lstm_gates(tape, ls[0], ls[1]))

        def spelled(tape, ls):
            pre, c_prev = ls
            axis = pre.ndim - 1
            blocks = [T.narrow(tape, pre, axis, k * d, (k + 1) * d) for k in range(4)]
            i, f, o = (chain.sigmoid(tape, b) for b in blocks[:3])
            cand = T.tanh(tape, blocks[3])
            c = T.add(tape, T.hadamard(tape, f, c_prev), T.hadamard(tape, i, cand))
            return [T.hadamard(tape, o, T.tanh(tape, c)), c]

        assert _leaf_grads(fused, leaves, 2) == _leaf_grads(spelled, leaves, 2)

    def test_weighted_sum_bitwise_matches_row_scale_sum_stack(self):
        rng = np.random.default_rng(60)
        leaves = [T.parameter(_rand(rng, 3, 5), "h%d" % j) for j in range(4)]
        leaves.append(T.parameter(_rand(rng, 3, 4), "beta"))

        def fused(tape, ls):
            grid = T.reshape(tape, T.concat(tape, ls[:-1], axis=1), (3, 4, 5))
            return [T.weighted_sum(tape, grid, ls[-1])]

        def spelled(tape, ls):
            beta = ls[-1]
            return [chain.sum_stack(tape, [
                T.row_scale(tape, h, T.reshape(tape, T.narrow(tape, beta, 1, j, j + 1),
                                               (3,)))
                for j, h in enumerate(ls[:-1])])]

        assert _leaf_grads(fused, leaves, 3) == _leaf_grads(spelled, leaves, 3)

    def test_weighted_sum_of_one_stacked_tensor_matches_parts(self):
        rng = np.random.default_rng(61)
        parts = [_rand(rng, 3, 5) for _ in range(4)]
        leaves = [T.parameter(np.stack(parts, axis=1), "grid"),
                  T.parameter(_rand(rng, 3, 4), "beta")]

        def stacked(tape, ls):
            return [T.weighted_sum(tape, ls[0], ls[1])]

        def split(tape, ls):
            beta = ls[1]
            return [chain.sum_stack(tape, [
                T.row_scale(tape,
                            T.reshape(tape, T.narrow(tape, ls[0], 1, j, j + 1), (3, 5)),
                            T.reshape(tape, T.narrow(tape, beta, 1, j, j + 1), (3,)))
                for j in range(4)])]

        assert _leaf_grads(stacked, leaves, 3) == _leaf_grads(split, leaves, 3)

    def test_blend_bitwise_matches_masked_hadamard_add(self):
        rng = np.random.default_rng(70)
        keep = np.repeat(np.array([[True], [False], [True]]), 5, axis=1)
        leaves = [T.parameter(_rand(rng, 3, 5), "new"), T.parameter(_rand(rng, 3, 5), "old")]

        def fused(tape, ls):
            return [chain.blend(tape, keep, ls[0], ls[1])]

        def spelled(tape, ls):
            return [T.add(tape, T.hadamard(tape, T.constant(keep), ls[0]),
                          T.hadamard(tape, T.constant(~keep), ls[1]))]

        assert _leaf_grads(fused, leaves, 4) == _leaf_grads(spelled, leaves, 4)
        out = chain.blend(None, keep, leaves[0], leaves[1]).data
        np.testing.assert_array_equal(out, np.where(keep, leaves[0].data, leaves[1].data))

    def test_add_bias_rows_bitwise_matches_take_rows_add(self):
        rng = np.random.default_rng(80)
        rows = np.array([1, 1, 0, 2, 1])
        leaves = [T.parameter(_rand(rng, 5, 4), "m"),
                  T.parameter(_rand(rng, 3, 4), "v")]

        def fused(tape, ls):
            return [chain.add_bias_rows(tape, ls[0], ls[1], rows)]

        def spelled(tape, ls):
            return [T.add(tape, ls[0], T.take_rows(tape, ls[1], rows))]

        assert _leaf_grads(fused, leaves, 5) == _leaf_grads(spelled, leaves, 5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("query", [True, False])
    @pytest.mark.parametrize("n,K", [(1, 1), (1, 4), (3, 1), (5, 4), (8, 7)])
    def test_attention_bitwise_matches_the_chain(self, n, K, query, dtype):
        """Values and every leaf gradient: ``add_bias_rows`` (with a query),
        ``tanh``, the score ``linear``, ``reshape`` and ``masked_softmax``."""
        leaves, op, oracle, mask = _attention_case(10 * n + K, n, K, dtype, query)
        got, want = op(None, leaves)[0], oracle(None, leaves)[0]
        assert got.shape == (n, K) and got.data.dtype == want.data.dtype == dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert np.all(got.data[~mask] == 0.0) and np.all(got.data[:1, :1] == 1.0)
        assert _leaf_grads(op, leaves, 11) == _leaf_grads(oracle, leaves, 11)
        assert np.all(leaves[0].grad[~mask.reshape(-1)] == 0.0)

    def test_attention_degenerate_mask_raises(self):
        leaves, op, _, mask = _attention_case(12, 3, 4)
        mask[1] = False
        with pytest.raises(T.DegenerateMaskError):
            op(None, leaves)

    def test_shape_guards(self):
        w, b = T.constant(np.ones((8, 4))), T.constant(np.ones(8))
        keys, query = T.constant(np.ones((6, 2))), T.constant(np.ones((2, 2)))
        score, mask = T.constant(np.ones(2)), np.ones((2, 3), dtype=bool)
        for args in ((T.constant(np.ones((5, 2))), query, score, mask),
                     (keys, T.constant(np.ones((3, 2))), score, mask),
                     (keys, query, T.constant(np.ones(3)), mask),
                     (keys, query, T.constant(np.ones((2, 1))), mask),
                     (keys, None, score, np.ones(6, dtype=bool)),
                     (keys, None, score, np.ones((3, 2), dtype=bool).T[None])):
            with pytest.raises(T.ShapeError):
                T.attention(None, *args)
        with pytest.raises(T.ShapeError):
            chain.linear_sum(None, [], b)
        with pytest.raises(T.ShapeError):
            chain.linear_sum(None, [(w, T.constant(np.ones((1, 5))))], b)
        with pytest.raises(T.ShapeError):
            chain.linear_sum(None, [(w, T.constant(np.ones((1, 4)))),
                                    (w, T.constant(np.ones((2, 4))))], b)
        with pytest.raises(T.ShapeError):
            chain.linear_sum(None, [(w, T.constant(np.ones((1, 4))))],
                             T.constant(np.ones(7)))
        with pytest.raises(T.ShapeError):
            T.linear(None, w, T.constant(np.ones((1, 5))), b)
        with pytest.raises(T.ShapeError):
            T.linear(None, w, T.constant(np.ones((1, 4))), T.constant(np.ones(7)))
        with pytest.raises(T.ShapeError):
            T.linear(None, T.constant(np.ones((2, 8, 4))), T.constant(np.ones((1, 4))))
        with pytest.raises(T.ShapeError):  # a [c] weight's [r] output takes no bias
            T.linear(None, T.constant(np.ones(4)), T.constant(np.ones((1, 4))),
                     T.constant(np.ones(1)))
        with pytest.raises(T.ShapeError):
            chain.lstm_gates(None, T.constant(np.ones(10)), T.constant(np.ones(2)))
        with pytest.raises(T.ShapeError):
            chain.lstm_gates(None, T.constant(np.ones(8)), T.constant(np.ones(3)))
        with pytest.raises(T.ShapeError):
            T.weighted_sum(None, T.constant(np.ones((3, 2, 2))),
                           T.constant(np.ones((3, 3))))
        with pytest.raises(T.ShapeError):
            T.weighted_sum(None, T.constant(np.ones((3, 2))),
                           T.constant(np.ones((3, 2))))
        with pytest.raises(T.ShapeError):
            chain.blend(None, np.ones((3, 2)), T.constant(np.ones((3, 2))),
                    T.constant(np.ones((3, 3))))

    def test_linear_rejects_a_vector_input(self):
        """Rows are the one input form; a single input is a batch of one."""
        w, b = T.constant(np.ones((8, 4))), T.constant(np.ones(8))
        with pytest.raises(T.ShapeError):
            T.linear(None, w, T.constant(np.ones(4)), b)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("L", [1, 2, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_sweep_bitwise_matches_the_chain(self, n, L, reverse):
        """Ragged lengths; values in float32 and float64, gradients in float64."""
        for dtype in (np.float32, np.float64):
            leaves, fused, oracle = _sweep_case(10 * n + L, n, L, dtype, reverse)
            got, want = fused(None, leaves)[0], oracle(None, leaves)[0]
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
        assert _leaf_grads(fused, leaves, 7) == _leaf_grads(oracle, leaves, 7)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_lstm_sweep_both_directions_bitwise_matches_the_chain(self, n, L):
        """Both directions in one loop against one chain per direction: ragged
        lengths, so at some steps one direction carries and the other not."""
        for dtype in (np.float32, np.float64):
            leaves, fused, oracle = _sweep_case(10 * n + L, n, L, dtype, both=True)
            got, want = fused(None, leaves)[0], oracle(None, leaves)[0]
            assert got.shape == (n, L, 4)
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
        assert _leaf_grads(fused, leaves, 9) == _leaf_grads(oracle, leaves, 9)

    @pytest.mark.parametrize("n,L", [(1, 1), (3, 2), (8, 5)])
    def test_lstm_sweep_both_directions_match_two_sweeps(self, n, L):
        """In float32, as the encoder runs it (rows gathered from a table, zero
        initial states, documents of 1..L tokens), one two-direction sweep
        gives the values and leaf gradients of one sweep per direction side
        by side, bit for bit."""
        rng = np.random.default_rng(50 + n + L)
        d_in, d = 3, 2
        lengths = rng.integers(1, L + 1, size=n)
        valid = lengths[:, None] > np.arange(L)[None, :]
        ids = rng.integers(0, 6, size=L * n)
        leaves = ([T.parameter(_rand(rng, 6, d_in), "table")]
                  + _gates(rng, d, d_in, np.float32) + _gates(rng, d, d_in, np.float32))

        def directions(ls):
            return [SimpleNamespace(input_w=ls[k], state_w=ls[k + 1], bias=ls[k + 2])
                    for k in (1, 4)]

        def one(tape, ls):
            zeros = T.constant(np.zeros((n, 2 * d)))
            return [T.lstm_sweep(tape, T.take_rows(tape, ls[0], ids), zeros, zeros,
                                 *directions(ls), valid)]

        def two(tape, ls):
            x = T.take_rows(tape, ls[0], ids)
            zeros = T.constant(np.zeros((n, d)))
            fwd, bwd = directions(ls)
            return [T.concat(tape, [
                T.lstm_sweep(tape, x, zeros, zeros, fwd, None, valid),
                T.lstm_sweep(tape, x, zeros, zeros, None, bwd, valid)], axis=2)]

        assert _leaf_grads(one, leaves, 10) == _leaf_grads(two, leaves, 10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,L,d_in,d", [
        (1, 1, 3, 2), (1, 2, 3, 2), (1, 5, 3, 2), (3, 1, 3, 2), (3, 2, 3, 2),
        (3, 5, 3, 2), (8, 1, 3, 2), (8, 2, 3, 2), (8, 5, 3, 2),
        (80, 8, 16, 8), (24, 5, 16, 8), (640, 1, 16, 8),
        (10, 8, 16, 8), (320, 8, 16, 8), (370, 8, 16, 8)])
    def test_stacked_matmul_matches_per_slice_products(self, dtype, n, L, d_in, d):
        """Every product lstm_sweep takes over operands stacked by direction
        equals each direction's 2-D product bit for bit: the shapes of the
        sweep tests above, of the encoder's training batches and of its
        forward-only passes (one ranked day of 10 documents; 32 and 37 days
        of them)."""
        rng = np.random.default_rng(n * 100 + L)

        def draw(*shape):  # values stored in dtype, widened as the sweep does
            return _rand(rng, *shape).astype(dtype).astype(np.float64)

        X, G = draw(2, L, n, d_in), draw(2, L, n, 4 * d)
        H, Wx, Wh = draw(2, n, d), draw(2, 4 * d, d_in), draw(2, 4 * d, d)
        WxT, WhT = Wx.transpose(0, 2, 1), Wh.transpose(0, 2, 1)

        def same(got, one):
            for k in range(2):
                assert got[k].tobytes() == one(k).tobytes()

        gx = np.matmul(G, Wx[:, None])  # the backward's x gradient, all steps
        same(np.matmul(H, WhT), lambda k: H[k] @ Wh[k].T)
        for l in range(L):
            Xl, Gl = X[:, l].copy(), G[:, l]  # a step's rows, widened: [D, n, d_in]
            same(np.matmul(Xl, WxT), lambda k: X[k, l] @ Wx[k].T)
            same(gx[:, l], lambda k: G[k, l] @ Wx[k])
            same(np.matmul(Gl, Wh), lambda k: G[k, l] @ Wh[k])
            same(np.matmul(Xl.transpose(0, 2, 1), Gl), lambda k: X[k, l].T @ G[k, l])
            same(np.matmul(H.transpose(0, 2, 1), Gl), lambda k: H[k].T @ G[k, l])

    @staticmethod
    def _encoder_sweep(n, L, seed, d_in=16, d=8):
        """Inputs of a forward-only two-direction sweep as the encoder runs
        it: float32 rows, zero states, documents of 1..L tokens."""
        rng = np.random.default_rng(seed)
        x = T.constant(_rand(rng, L * n, d_in))
        zeros = T.constant(np.zeros((n, 2 * d)))
        dirs = [SimpleNamespace(input_w=wx, state_w=wh, bias=b) for wx, wh, b in
                (_gates(rng, d, d_in, np.float32) for _ in range(2))]
        valid = rng.integers(1, L + 1, size=n)[:, None] > np.arange(L)[None, :]
        return x, zeros, dirs, valid

    def test_forward_only_sweep_memory_grows_with_its_output(self):
        """A forward-only sweep holds no per-position array but its output:
        from 8 to 32 positions its tracemalloc peak grows by at most twice
        what the output grows."""
        peaks, outs = [], []
        for L in (8, 32):
            x, zeros, dirs, valid = self._encoder_sweep(160, L, L)
            T.lstm_sweep(None, x, zeros, zeros, *dirs, valid)  # warm up
            tracemalloc.start()
            try:
                out = T.lstm_sweep(None, x, zeros, zeros, *dirs, valid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            outs.append(out.data.nbytes)
        assert peaks[1] - peaks[0] <= 2 * (outs[1] - outs[0])

    def test_wide_sweep_equals_narrow_sweeps(self):
        """In float32, one sweep over 320 documents gives each 10-document
        group the values of its own sweep, bit for bit: a 32-day eval pass
        and 32 ranked days agree."""
        L, n, width = 8, 320, 10
        x, zeros, dirs, valid = self._encoder_sweep(n, L, 3)
        wide = T.lstm_sweep(None, x, zeros, zeros, *dirs, valid).data
        assert wide.dtype == np.float32
        rows = x.data.reshape(L, n, -1)
        part_zeros = T.constant(np.zeros((width, zeros.shape[1])))
        for lo in range(0, n, width):
            part = T.constant(rows[:, lo:lo + width].reshape(L * width, -1))
            narrow = T.lstm_sweep(None, part, part_zeros, part_zeros, *dirs,
                                  valid[lo:lo + width]).data
            assert narrow.tobytes() == wide[lo:lo + width].tobytes()

    @pytest.mark.parametrize("B", [1, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_msin_sequence_bitwise_matches_the_chain(self, B, m):
        """1-5 documents a sample with padding slots; values in float32 and
        float64, gradients in float64."""
        for dtype in (np.float32, np.float64):
            leaves, fused, oracle, _ = _msin_case(100 * B + m, B, m, dtype)
            got, want = fused(None, leaves)[0], oracle(None, leaves)[0]
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
        assert _leaf_grads(fused, leaves, 8) == _leaf_grads(oracle, leaves, 8)

    def test_msin_sequence_padding_slots_get_no_mass_and_no_gradient(self):
        leaves, fused, _, mask = _msin_case(5, 6, 4)
        assert not mask.all()
        tape = T.Tape()
        out = fused(tape, leaves)[0]
        w = T.constant(_rand(np.random.default_rng(6), *out.shape), dtype=np.float64)
        tape.backward(T.sum_all(tape, T.hadamard(tape, out, w)))
        assert np.all(out.data[:, 3:][~mask] == 0.0)
        grid, proj = leaves[3], leaves[2]
        assert np.all(grid.grad[~mask] == 0.0) and np.any(grid.grad[mask] != 0.0)
        assert np.all(proj.grad[~mask.reshape(-1)] == 0.0)

    @pytest.mark.parametrize("op", ["lstm_sweep", "msin_sequence"])
    def test_forward_only_records_nothing_and_gives_the_same_values(self, op):
        leaves, fused = (_sweep_case(3, 4, 3) if op == "lstm_sweep"
                         else _msin_case(3, 4, 3))[:2]
        tape = T.Tape()
        taped = fused(tape, leaves)[0]
        assert len(tape) == 1
        assert fused(None, leaves)[0].data.tobytes() == taped.data.tobytes()
        frozen = [T.constant(t.data, dtype=t.data.dtype) for t in leaves]
        quiet = T.Tape()
        assert fused(quiet, frozen)[0].data.tobytes() == taped.data.tobytes()
        assert len(quiet) == 0

    def test_recurrence_shape_guards(self):
        x, h0, c0, wx, wh, b = _sweep_case(4, 3, 2)[0]
        gates = SimpleNamespace(input_w=wx, state_w=wh, bias=b)
        with pytest.raises(T.ShapeError):
            T.lstm_sweep(None, T.narrow(None, x, 0, 0, 5), h0, c0, gates)
        with pytest.raises(T.ShapeError):
            T.lstm_sweep(None, x, h0, c0, gates, valid=np.ones((3, 3), dtype=bool))
        with pytest.raises(T.ShapeError):
            T.lstm_sweep(None, x, h0, c0,
                         SimpleNamespace(input_w=wh, state_w=wh, bias=b))
        with pytest.raises(T.ShapeError):  # no direction
            T.lstm_sweep(None, x, h0, c0)
        with pytest.raises(T.ShapeError):  # [n, d] states for two directions
            T.lstm_sweep(None, x, h0, c0, gates, gates)
        h0, c0, proj, grid, qw, qb, score, wx, wh, wc, b = _msin_case(4, 3, 2)[0]
        attn = SimpleNamespace(state_w=qw, bias=qb, score=score)
        cell = SimpleNamespace(input_w=wx, state_w=wh, ctx_w=wc, bias=b)
        x = T.constant(np.ones((6, 2)))
        mask = np.ones(grid.shape[:2], dtype=bool)
        with pytest.raises(T.DegenerateMaskError):
            T.msin_sequence(None, x, h0, c0, proj, grid, ~mask, attn, cell)
        with pytest.raises(T.ShapeError):
            T.msin_sequence(None, T.constant(np.ones((5, 2))), h0, c0, proj, grid,
                            mask, attn, cell)
        with pytest.raises(T.ShapeError):
            T.msin_sequence(None, x, h0, c0, proj, grid, mask, attn,
                            SimpleNamespace(input_w=wx, state_w=wh, ctx_w=wh, bias=b))
        with pytest.raises(T.ContractError, match="no gradient for x"):
            T.msin_sequence(None, T.parameter(np.ones((6, 2)), "x"), h0, c0, proj,
                            grid, mask, attn, cell)


class TestDropout:
    def test_zero_rate_is_identity_object(self):
        x = T.constant(np.ones((1, 4)))
        assert T.dropout(None, x, 0.0, [np.random.default_rng(0)]) is x

    def test_kept_entries_rescaled(self):
        x = T.constant(np.ones((1, 1000)))
        out = T.dropout(None, x, 0.25, [np.random.default_rng(1)]).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 4.0 / 3.0, rtol=1e-6, atol=0)
        assert abs(out.mean() - 1.0) < 0.1

    def test_rate_bounds(self):
        x = T.constant(np.ones((1, 4)))
        with pytest.raises(T.ContractError):
            T.dropout(None, x, 1.0, [np.random.default_rng(0)])

    def test_gradient_uses_same_mask(self):
        x = T.parameter(np.ones((1, 64)), "x")
        tape = T.Tape()
        out = T.dropout(tape, x, 0.5, [np.random.default_rng(2)])
        tape.backward(T.sum_all(tape, out))
        np.testing.assert_allclose(x.grad, out.data, rtol=0, atol=0)


    def test_one_generator_per_row(self):
        x = T.constant(_rand(np.random.default_rng(3), 3, 5))
        rows = T.dropout(None, x, 0.4, [np.random.default_rng(b) for b in range(3)])
        for b in range(3):
            alone = T.dropout(None, T.constant(x.data[b:b + 1]), 0.4,
                              [np.random.default_rng(b)])
            assert rows.data[b].tobytes() == alone.data.tobytes()
        with pytest.raises(T.ShapeError):
            T.dropout(None, x, 0.4, [np.random.default_rng(0)] * 2)


class TestBceWithLogit:
    def test_matches_naive_formula(self):
        for z, y in [(0.3, 1.0), (-1.2, 0.0), (2.0, 1.0)]:
            got = T.bce_with_logit(None, T.constant([z]), y).data[0]
            p = 1.0 / (1.0 + np.exp(-z))
            want = -(y * np.log(p) + (1 - y) * np.log(1 - p))
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_finite_at_extreme_logits(self):
        assert np.isfinite(T.bce_with_logit(None, T.constant([1000.0]), 0.0).data[0])
        assert np.isfinite(T.bce_with_logit(None, T.constant([-1000.0]), 1.0).data[0])

    def test_gradient_is_sigmoid_minus_target(self):
        z = T.parameter(np.array([0.7]), "z")
        tape = T.Tape()
        tape.backward(T.bce_with_logit(tape, z, 1.0))
        want = 1.0 / (1.0 + np.exp(-0.7)) - 1.0
        np.testing.assert_allclose(z.grad, [want], rtol=1e-6, atol=0)

    def test_target_range_guard(self):
        with pytest.raises(T.ContractError):
            T.bce_with_logit(None, T.constant([0.0]), 1.5)

    def test_vector_of_logits_is_elementwise(self):
        z, y = [0.3, -2.0, 5.0], [1.0, 0.0, 0.0]
        got = T.bce_with_logit(None, T.constant(z), y).data
        for k in range(3):
            one = T.bce_with_logit(None, T.constant([z[k]]), y[k]).data[0]
            assert got[k] == one
        with pytest.raises(T.ContractError):
            T.bce_with_logit(None, T.constant(z), [1.0, 0.5, 2.0])


class TestGradCheckPerOp:
    """Every differentiable op agrees with 64-bit central differences."""

    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4),
           c=st.integers(1, 4), k=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_matmul(self, seed, r, c, k):
        rng = np.random.default_rng(seed)
        w = T.constant(_rand(rng, r, k), dtype=np.float64)

        def loss(tape, leaves):
            prod = chain.matmul(tape, leaves[0], leaves[1])
            return T.sum_all(tape, T.hadamard(tape, prod, w))

        params = [T.parameter(_rand(rng, r, c), "a"), T.parameter(_rand(rng, c, k), "b")]
        assert H.grad_check(loss, params) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4),
           c=st.integers(1, 4), k=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_linear(self, seed, r, c, k):
        """Both weight forms; the [k,c] one with its bias."""
        rng = np.random.default_rng(seed)
        u = T.constant(_rand(rng, r, k), dtype=np.float64)
        v = T.constant(_rand(rng, r), dtype=np.float64)

        def loss(tape, leaves):
            w, x, b, s = leaves
            return chain.sum_stack(tape, [
                T.sum_all(tape, T.hadamard(tape, T.linear(tape, w, x, b), u)),
                T.sum_all(tape, T.hadamard(tape, T.linear(tape, s, x), v))])

        params = [T.parameter(_rand(rng, k, c), "w"), T.parameter(_rand(rng, r, c), "x"),
                  T.parameter(_rand(rng, k), "b"), T.parameter(_rand(rng, c), "s")]
        assert H.grad_check(loss, params) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_unary_ops(self, seed, n):
        rng = np.random.default_rng(seed)
        w = T.constant(_rand(rng, n), dtype=np.float64)
        x0 = _rand_away(rng, n)
        for op in (T.tanh, chain.sigmoid):
            def loss(tape, leaves, op=op):
                return T.sum_all(tape, T.hadamard(tape, op(tape, leaves[0]), w))
            assert H.grad_check(loss, [T.parameter(x0, "x")]) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 4), q=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_outer_and_bias(self, seed, p, q):
        """add_bias gradients flow to both a [p, q] matrix leaf and the bias."""
        rng = np.random.default_rng(seed)
        w = T.constant(_rand(rng, p, q), dtype=np.float64)

        def loss(tape, leaves):
            out = chain.add_bias(tape, leaves[0], leaves[1])
            return T.sum_all(tape, T.hadamard(tape, out, w))

        params = [T.parameter(_rand(rng, p, q), "m"), T.parameter(_rand(rng, q), "b")]
        assert H.grad_check(loss, params) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
    @settings(max_examples=25, deadline=None)
    def test_masked_softmax(self, seed, n):
        rng = np.random.default_rng(seed)
        mask = rng.random(n) < 0.7
        mask[rng.integers(n)] = True
        w = T.constant(_rand(rng, n), dtype=np.float64)

        def loss(tape, leaves):
            p = chain.masked_softmax(tape, T.reshape(tape, leaves[0], (1, n)),
                                     mask[None])
            return T.sum_all(tape, T.hadamard(tape, T.reshape(tape, p, (n,)), w))

        assert H.grad_check(loss, [T.parameter(_rand(rng, n) * 3, "z")]) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           K=st.integers(1, 4), query=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_attention(self, seed, n, K, query):
        leaves, op = _attention_case(seed, n, K, query=query)[:2]
        w = T.constant(_rand(np.random.default_rng(seed), n, K), dtype=np.float64)

        def loss(tape, ls):
            return T.sum_all(tape, T.hadamard(tape, op(tape, ls)[0], w))

        assert H.grad_check(loss, leaves) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rearrangement_ops(self, seed):
        rng = np.random.default_rng(seed)
        w = T.constant(_rand(rng, 3, 4), dtype=np.float64)

        def loss(tape, leaves):
            a, b = leaves
            cat = T.concat(tape, [a, b], axis=1)       # [3,4]
            cut = T.narrow(tape, cat, 1, 0, 4)
            flat = T.reshape(tape, cut, (12,))
            back = T.reshape(tape, flat, (3, 4))
            return T.sum_all(tape, T.hadamard(tape, back, w))

        params = [T.parameter(_rand(rng, 3, 2), "a"), T.parameter(_rand(rng, 3, 2), "b")]
        assert H.grad_check(loss, params) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), c=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_row_scale_and_sum_stack(self, seed, r, c):
        rng = np.random.default_rng(seed)
        w = T.constant(_rand(rng, r, c), dtype=np.float64)

        def loss(tape, leaves):
            a, b, v = leaves
            total = chain.sum_stack(tape, [T.row_scale(tape, a, v), b])
            return T.sum_all(tape, T.hadamard(tape, total, w))

        params = [T.parameter(_rand(rng, r, c), "a"), T.parameter(_rand(rng, r, c), "b"),
                  T.parameter(_rand(rng, r), "v")]
        assert H.grad_check(loss, params) < 1e-6

    @given(seed=st.integers(0, 2**32 - 1), y=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_bce(self, seed, y):
        rng = np.random.default_rng(seed)

        def loss(tape, leaves):
            return T.bce_with_logit(tape, leaves[0], y)

        assert H.grad_check(loss, [T.parameter(_rand(rng, 1) * 2, "z")]) < 1e-6

    def test_dropout_with_replayed_mask(self):
        rng = np.random.default_rng(11)
        x0 = _rand(rng, 1, 8)

        def loss(tape, leaves):
            out = T.dropout(tape, leaves[0], 0.4, [np.random.default_rng(123)])
            return T.sum_all(tape, out)

        assert H.grad_check(loss, [T.parameter(x0, "x")]) < 1e-6


    @pytest.mark.parametrize("seed", range(5))
    def test_fused_ops(self, seed):
        """linear (many rows and one), lstm_gates, blend and weighted_sum."""
        rng = np.random.default_rng(700 + seed)
        v = T.constant(_rand(rng, 2, 3), dtype=np.float64)
        u = T.constant(_rand(rng, 1, 12), dtype=np.float64)
        keep = np.array([[1, 0, 1], [0, 1, 1]])

        def loss(tape, leaves):
            wx, x, wh, h, b, c, beta = leaves
            pre = chain.linear_sum(tape, [(wx, x), (wh, h)], b)  # [2, 12]
            h1, c1 = chain.lstm_gates(tape, pre, c)              # [2, 3] each
            carried = chain.blend(tape, keep, h1, c)             # [2, 3]
            grid = T.reshape(tape, T.concat(tape, [carried, c1], axis=1), (2, 2, 3))
            mixed = T.weighted_sum(tape, grid, beta)             # [2, 3]
            one = T.linear(tape, wh, T.narrow(tape, h, 0, 0, 1), b)  # [1, 12]
            return chain.sum_stack(tape, [T.sum_all(tape, T.hadamard(tape, mixed, v)),
                                      T.sum_all(tape, T.hadamard(tape, one, u))])

        params = [T.parameter(_rand(rng, 12, 2), "wx"), T.parameter(_rand(rng, 2, 2), "x"),
                  T.parameter(_rand(rng, 12, 3), "wh"), T.parameter(_rand(rng, 2, 3), "h"),
                  T.parameter(_rand(rng, 12), "b"), T.parameter(_rand(rng, 2, 3), "c"),
                  T.parameter(_rand(rng, 2, 2), "beta")]
        assert H.grad_check(loss, params) < 1e-6

    @staticmethod
    def _check_recurrence(leaves, fused, seed):
        out_shape = fused(None, leaves)[0].shape
        w = T.constant(_rand(np.random.default_rng(seed), *out_shape), dtype=np.float64)

        def loss(tape, ls):
            return T.sum_all(tape, T.hadamard(tape, fused(tape, ls)[0], w))

        assert H.grad_check(loss, leaves) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_lstm_sweep(self, seed):
        """Ragged sequences, run forwards and in reverse."""
        for reverse in (False, True):
            leaves, fused = _sweep_case(720 + seed, 3, 4, reverse=reverse)[:2]
            self._check_recurrence(leaves, fused, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_lstm_sweep_both_directions(self, seed):
        """Ragged sequences, both directions in one sweep."""
        leaves, fused = _sweep_case(740 + seed, 3, 4, both=True)[:2]
        self._check_recurrence(leaves, fused, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_msin_sequence(self, seed):
        leaves, fused = _msin_case(730 + seed, 3, 3)[:2]
        self._check_recurrence(leaves, fused, seed)

def _skewed(tape, op, *args, block=None):
    """Call ``op`` with the gradients its backward returns scaled by 1 + 1e-3:
    every one, or only the one at index ``block``."""
    if tape is None:
        return op(None, *args)
    record = tape.record

    def skew(out, inputs, backward):
        record(out, inputs, lambda g: tuple(
            x if x is None or block not in (None, i) else x * (1.0 + 1e-3)
            for i, x in enumerate(backward(g))))

    tape.record = skew
    try:
        return op(tape, *args)
    finally:
        del tape.record


def _mutation_cases():
    """op name -> (leaf arrays, fn(call, leaves) returning the op output)."""
    rng = np.random.default_rng(900)

    def r(*shape):
        return _rand(rng, *shape)

    mask = np.array([[True, True, False, True], [False, True, True, True]])
    keep = np.array([[1, 0, 1], [1, 1, 0]])
    valid = np.array([[True, True, False], [True, True, True]])

    def gates(L, ctx=False):
        *w, b = L
        return SimpleNamespace(input_w=w[0], state_w=w[1], bias=b,
                               ctx_w=w[2] if ctx else None)

    return {
        "matmul": ([r(3, 4), r(4, 2)], lambda c, L: c(chain.matmul, L[0], L[1])),
        "linear": ([r(6, 4), r(3, 4), r(6)],
                   lambda c, L: c(T.linear, L[0], L[1], L[2])),
        "linear_vector": ([r(4), r(3, 4)], lambda c, L: c(T.linear, L[0], L[1])),
        "linear_sum": ([r(6, 4), r(3, 4), r(6, 2), r(3, 2), r(6)],
                       lambda c, L: c(chain.linear_sum, [(L[0], L[1]), (L[2], L[3])],
                                      L[4])),
        "add": ([r(2, 3), r(2, 3)], lambda c, L: c(T.add, L[0], L[1])),
        "add_bias": ([r(2, 3), r(3)], lambda c, L: c(chain.add_bias, L[0], L[1])),
        "add_bias_rows": ([r(3, 2), r(2, 2)], lambda c, L: c(
            chain.add_bias_rows, L[0], L[1], np.array([1, 0, 1]))),
        "hadamard": ([r(2, 3), r(2, 3)], lambda c, L: c(T.hadamard, L[0], L[1])),
        "scale": ([r(2, 3)], lambda c, L: c(chain.scale, L[0], 1.7)),
        "tanh": ([r(2, 3)], lambda c, L: c(T.tanh, L[0])),
        "sigmoid": ([r(2, 3)], lambda c, L: c(chain.sigmoid, L[0])),
        "lstm_gates": ([r(2, 8), r(2, 2)],
                       lambda c, L: c(chain.lstm_gates, L[0], L[1])[0]),
        "blend": ([r(2, 3), r(2, 3)], lambda c, L: c(chain.blend, keep, L[0], L[1])),
        "sum_all": ([r(2, 3)], lambda c, L: c(T.sum_all, L[0])),
        "concat": ([r(2, 3), r(2, 2)], lambda c, L: c(T.concat, L, 1)),
        "narrow": ([r(2, 5)], lambda c, L: c(T.narrow, L[0], 1, 1, 4)),
        "reshape": ([r(2, 3)], lambda c, L: c(T.reshape, L[0], (3, 2))),
        "row_scale": ([r(2, 3), r(2)], lambda c, L: c(T.row_scale, L[0], L[1])),
        "sum_stack": ([r(2, 3), r(2, 3)], lambda c, L: c(chain.sum_stack, L)),
        "weighted_sum": ([r(2, 2, 3), r(2, 2)],
                         lambda c, L: c(T.weighted_sum, L[0], L[1])),
        "take_rows": ([r(3, 2)], lambda c, L: c(
            T.take_rows, L[0], np.array([2, 0, 2]))),
        "masked_softmax": ([r(2, 4) * 3], lambda c, L: c(
            chain.masked_softmax, L[0], mask)),
        # keys [2*4, 3], query [2, 3], score [3]; and the query-free form
        "attention": ([r(8, 3), r(2, 3), r(3) * 2], lambda c, L: c(
            T.attention, L[0], L[1], L[2], mask)),
        "attention_no_query": ([r(8, 3), r(3) * 2], lambda c, L: c(
            T.attention, L[0], None, L[1], mask)),
        "dropout": ([r(2, 3)], lambda c, L: c(
            T.dropout, L[0], 0.4, [np.random.default_rng(s) for s in (123, 124)])),
        "bce_with_logit": ([r(3) * 2], lambda c, L: c(
            T.bce_with_logit, L[0], [1.0, 0.0, 1.0])),
        # x [3*2, 2], h0, c0 [2, 2], input_w, state_w, bias; run backwards
        "lstm_sweep": ([r(6, 2), r(2, 2), r(2, 2), r(8, 2), r(8, 2), r(8)],
                       lambda c, L: c(T.lstm_sweep, *L[:3], None, gates(L[3:]),
                                      valid)),
        # both directions: h0, c0 [2, 2*2], then each direction's weights
        "lstm_sweep_both": ([r(6, 2), r(2, 4), r(2, 4), r(8, 2), r(8, 2), r(8),
                             r(8, 2), r(8, 2), r(8)],
                            lambda c, L: c(T.lstm_sweep, *L[:3], gates(L[3:6]),
                                           gates(L[6:]), valid)),
        # h0, c0 [2, 2], doc_proj [2*3, 2], grid [2, 3, 3], query weight,
        # bias and score, input_w, state_w, ctx_w, bias; two steps
        "msin_sequence": ([r(2, 2), r(2, 2), r(6, 2), r(2, 3, 3), r(2, 2), r(2),
                           r(2) * 2, r(8, 1), r(8, 2), r(8, 3), r(8)],
                          lambda c, L: c(
                              T.msin_sequence, T.constant(np.arange(4.0)[:, None]),
                              *L[:4], mask[:, 1:],
                              SimpleNamespace(state_w=L[4], bias=L[5], score=L[6]),
                              gates(L[7:], ctx=True))),
    }


class TestGradCheckMutation:
    """A 1e-3 relative error in any single op's backward fails the check."""

    @staticmethod
    def _check(name, skew, block=None):
        arrays, apply = _mutation_cases()[name]

        def loss(tape, leaves):
            def call(op, *args):
                return _skewed(tape, op, *args, block=block) if skew else op(tape, *args)

            out = apply(call, leaves)
            w = np.random.default_rng(901).uniform(0.5, 1.5, out.shape)
            w = T.constant(w, dtype=np.float64)
            return T.sum_all(tape, T.hadamard(tape, out, w))

        return H.grad_check(loss, [T.parameter(a, "x%d" % i)
                                   for i, a in enumerate(arrays)])

    @pytest.mark.parametrize("name", sorted(_mutation_cases()))
    def test_skewed_backward_fails(self, name):
        assert self._check(name, skew=False) < 1e-6
        assert self._check(name, skew=True) > 1e-4

    # lstm_sweep's inputs are x, h0, c0 and three weights per direction;
    # msin_sequence's start with the constant x, and list the grid once for
    # each of 2 steps; attention's are keys, query and score
    @pytest.mark.parametrize("name,blocks", [("lstm_sweep", range(6)),
                                             ("lstm_sweep_both", range(9)),
                                             ("msin_sequence", range(1, 13)),
                                             ("attention", range(3))])
    def test_each_skewed_block_of_a_recurrence_fails(self, name, blocks):
        for block in blocks:
            assert self._check(name, skew=True, block=block) > 1e-4, block


class TestGradCheckHarness:
    def test_impure_function_raises_determinism_error(self):
        calls = {"n": 0}

        def loss(tape, leaves):
            calls["n"] += 1
            return chain.scale(tape, T.sum_all(tape, leaves[0]), float(calls["n"]))

        with pytest.raises(T.DeterminismError):
            H.grad_check(loss, [T.parameter(np.ones(2), "x")])

    def test_reports_per_tensor_errors(self):
        def loss(tape, leaves):
            return T.sum_all(tape, T.add(tape, leaves[0], leaves[1]))

        table = T.grad_check_table(
            loss, [T.parameter(np.ones(2), "a"), T.parameter(np.ones(2), "b")])
        assert set(table) == {"a", "b"}
        assert all(v < 1e-9 for v in table.values())

    def test_checks_the_given_tensors_in_place(self):
        """The loss may read the tensors themselves: they are the leaves,
        widened to float64, and keep the tape's gradients afterwards."""
        a = T.parameter(np.array([1.0, 2.0]), "a")
        b = T.parameter(np.array([3.0, -1.0]), "b")
        b.grad = np.ones(2)  # a stale gradient is dropped, not added to

        def loss(tape, leaves):
            assert leaves[0] is a and leaves[1] is b
            return T.sum_all(tape, T.hadamard(tape, a, b))

        table = T.grad_check_table(loss, [a, b])
        assert all(v < 1e-9 for v in table.values())
        for t, want in ((a, [1.0, 2.0]), (b, [3.0, -1.0])):
            assert t.data.dtype == np.float64 and t.grad.dtype == np.float64
            assert t.data.tolist() == want  # every perturbation undone
        assert a.grad.tolist() == [3.0, -1.0] and b.grad.tolist() == [1.0, 2.0]


class TestDtypePromotion:
    def test_float64_wins(self):
        a = T.constant(np.ones(3), dtype=np.float64)
        b = T.constant(np.ones(3), dtype=np.float32)
        assert T.add(None, a, b).data.dtype == np.float64

    def test_float32_storage_by_default(self):
        a = T.constant(np.ones((2, 2)))
        b = T.constant(np.ones((2, 2)))
        assert T.linear(None, a, b).data.dtype == np.float32


def _engine_ops() -> set[str]:
    """Public functions of ``msin.tensor`` whose first parameter is the tape:
    the rule ``bench/tracing.py``'s ``tensor_ops`` uses to find ops."""
    return {name for name, fn in vars(T).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == T.__name__
            and list(inspect.signature(fn).parameters)[:1] == ["tape"]}


def test_every_engine_op_is_called_from_the_package():
    """No op lives in ``msin.tensor`` for the tests alone: each one is called
    as ``T.<op>(...)`` from another module of the package."""
    called = set()
    for path in pathlib.Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "T"):
                called.add(node.func.attr)
    ops = _engine_ops()
    assert {"linear", "lstm_sweep", "msin_sequence"} <= ops
    assert sorted(ops - called) == []


def test_every_public_name_is_used_outside_the_tests():
    """Nothing public in ``msin`` lives there for the tests alone: each
    top-level function and class of ``src/msin``, and each public method and
    property of its public classes, is referenced, as a name or an
    attribute, from the package, ``scripts/`` or ``bench/`` (its tests
    aside), outside its own definition."""
    root = pathlib.Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "msin").glob("*.py"))
    users = package + sorted((root / "scripts").glob("*.py")) + [
        p for p in sorted((root / "bench").glob("*.py"))
        if not p.name.startswith("test_")]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, used = set(), set()
    for path in users:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if path in package and isinstance(stmt, defs) else None
            parts = [(stmt, own)]
            if own is not None and not own.startswith("_"):
                defined.add(own)
                if isinstance(stmt, ast.ClassDef):  # each member on its own
                    parts = [(node, own) for node in
                             stmt.bases + stmt.keywords + stmt.decorator_list]
                    for node in stmt.body:
                        name = getattr(node, "name", None)
                        if isinstance(node, defs) and not name.startswith("_"):
                            defined.add(name)
                        parts.append((node, name))
            for node, name in parts:
                used |= {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))} - {own, name}
    assert {"forward_batch", "eval_passes", "Vocabulary", "backward",
            "hidden_size"} <= defined
    assert sorted(defined - used) == []
