"""Tests for the document encoder against hand-written float64 references."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msin import data as D
from msin import tensor as T
from msin import text_encoder as TE
from msin.rng import substream

import chain_oracle as chain
import encoder_oracle as oracle
import helpers as H


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_lstm_states(xs, input_w, state_w, bias):
    """Float64 LSTM sweep; returns the hidden state after each input."""
    d_h = state_w.shape[1]
    h = np.zeros(d_h)
    c = np.zeros(d_h)
    out = []
    for x in xs:
        pre = input_w @ x + state_w @ h + bias
        i, f, o = _sig(pre[:d_h]), _sig(pre[d_h:2 * d_h]), _sig(pre[2 * d_h:3 * d_h])
        g = np.tanh(pre[3 * d_h:])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h.copy())
    return out


def np_bilstm(x_rows, params):
    """Reference bidirectional hidden rows for one document (valid rows only)."""
    def w(p):
        return (p.input_w.data.astype(np.float64),
                p.state_w.data.astype(np.float64),
                p.bias.data.astype(np.float64))

    fwd = np_lstm_states(list(x_rows), *w(params.fwd))
    bwd = np_lstm_states(list(x_rows[::-1]), *w(params.bwd))[::-1]
    return np.concatenate([np.stack(fwd), np.stack(bwd)], axis=1)


def np_pool(H, params, divisor):
    """Reference attention pooling over valid hidden rows."""
    t = np.tanh(H @ params.pool_w.data.astype(np.float64).T
                + params.pool_bias.data.astype(np.float64))
    z = t @ params.pool_ctx.data.astype(np.float64)
    e = np.exp(z - z.max())
    beta = e / e.sum()
    return (beta[:, None] * H).sum(axis=0) / divisor, beta


def make_params(d_w=3, d_h=2, seed=0):
    rng = substream(seed, "init")
    table = TE.init_embedding(7, d_w, rng)
    params = TE.init_encoder(d_w, d_h, rng)
    return table, params


def batch_of(token_ids, lengths):
    return SimpleNamespace(token_ids=np.asarray(token_ids, dtype=np.int64),
                           lengths=np.asarray(lengths, dtype=np.int64))


class TestEmbedLookup:
    def test_all_padding_gives_zero_matrix(self):
        table, _ = make_params()
        rows = TE.embed_lookup(None, np.zeros(4, dtype=np.int64), table)
        np.testing.assert_allclose(rows.data, np.zeros((4, 3)), rtol=0, atol=0)

    def test_repeated_id_rows_and_gradient(self):
        table, _ = make_params()
        tape = T.Tape()
        rows = TE.embed_lookup(tape, np.array([3, 3]), table)
        assert rows.data[0].tobytes() == rows.data[1].tobytes()
        tape.backward(T.sum_all(tape, rows))
        np.testing.assert_allclose(table.grad[3], 2.0 * np.ones(3),
                                   rtol=0, atol=0)

    def test_out_of_range_id(self):
        table, _ = make_params()
        with pytest.raises(TE.VocabularyError):
            TE.embed_lookup(None, np.array([7]), table)

    def test_one_hot_matmul_oracle(self):
        """Row lookup equals multiplying a one-hot indicator into the table."""
        table, _ = make_params(seed=3)
        for wid in range(table.shape[0]):
            onehot = np.zeros(table.shape[0], dtype=np.float32)
            onehot[wid] = 1.0
            via_matmul = chain.matmul(None, T.constant(onehot), table)
            via_lookup = TE.embed_lookup(None, np.array([wid]), table)
            np.testing.assert_allclose(via_lookup.data[0], via_matmul.data,
                                       rtol=0, atol=1e-7)


class TestBilstmForward:
    def test_zero_params_zero_output(self):
        d_w, d_h = 3, 2
        zeros = lambda *s: T.parameter(np.zeros(s), "z")
        params = TE.TextEncoderParams(
            fwd=TE.LSTMParams(zeros(4 * d_h, d_w), zeros(4 * d_h, d_h), zeros(4 * d_h)),
            bwd=TE.LSTMParams(zeros(4 * d_h, d_w), zeros(4 * d_h, d_h), zeros(4 * d_h)),
            pool_w=zeros(2 * d_h, 2 * d_h), pool_bias=zeros(2 * d_h), pool_ctx=zeros(2 * d_h))
        embeds = T.constant(np.random.default_rng(0).normal(size=(4, d_w)))
        out = oracle.bilstm_forward(None, embeds, 3, params)
        np.testing.assert_allclose(out.data, np.zeros((4, 4)), rtol=0, atol=0)

    def test_length_one_single_step_each_direction(self):
        table, params = make_params(seed=1)
        x = np.random.default_rng(1).normal(size=(1, 3)).astype(np.float32)
        out = oracle.bilstm_forward(None, T.constant(x), 1, params)
        want = np_bilstm(x.astype(np.float64), params)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-6)

    def test_scalar_two_step_hand_unrolled(self):
        """d_h=1 on two steps matches the unrolled gate equations within 1e-6."""
        _, params = make_params(d_w=2, d_h=1, seed=2)
        x = np.random.default_rng(2).normal(size=(2, 2)).astype(np.float32)
        out = oracle.bilstm_forward(None, T.constant(x), 2, params)
        want = np_bilstm(x.astype(np.float64), params)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-6)

    def test_rows_beyond_length_zero(self):
        _, params = make_params(seed=4)
        x = np.random.default_rng(3).normal(size=(5, 3)).astype(np.float32)
        out = oracle.bilstm_forward(None, T.constant(x), 2, params).data
        assert np.all(out[2:] == 0.0)
        assert np.any(out[:2] != 0.0)

    def test_empty_document_rejected(self):
        _, params = make_params()
        with pytest.raises(TE.EmptyDocumentError):
            oracle.bilstm_forward(None, T.constant(np.ones((3, 3))), 0, params)


class TestAttentionPool:
    def test_single_token(self):
        _, params = make_params(seed=5)
        H = np.random.default_rng(4).normal(size=(3, 4)).astype(np.float32)
        s, beta = oracle.attention_pool(None, T.constant(H), 1, params)
        np.testing.assert_allclose(beta.data, [1.0], rtol=0, atol=0)
        np.testing.assert_allclose(s.data, H[0], rtol=0, atol=1e-7)

    def test_identical_rows_uniform_beta(self):
        _, params = make_params(seed=6)
        row = np.random.default_rng(5).normal(size=4).astype(np.float32)
        H = np.tile(row, (4, 1))
        s, beta = oracle.attention_pool(None, T.constant(H), 4, params)
        np.testing.assert_allclose(beta.data, np.full(4, 0.25), rtol=0, atol=1e-7)
        np.testing.assert_allclose(s.data, row / 4.0, rtol=0, atol=1e-6)

    def test_three_token_formula_oracle(self):
        _, params = make_params(seed=7)
        H = np.random.default_rng(6).normal(size=(5, 4)).astype(np.float32)
        s, beta = oracle.attention_pool(None, T.constant(H), 3, params)
        want_s, want_beta = np_pool(H[:3].astype(np.float64), params, 3)
        np.testing.assert_allclose(beta.data, want_beta, rtol=0, atol=1e-6)
        np.testing.assert_allclose(s.data, want_s, rtol=0, atol=1e-6)


class TestEncodeDocuments:
    def test_matches_per_document_pipeline(self):
        """Batched rows equal three independent per-document runs."""
        table, params = make_params(seed=9)
        ids = np.array([[2, 3, 4, 0], [5, 6, 0, 0], [4, 4, 4, 4]])
        lengths = np.array([3, 2, 4])
        got = TE.encode_documents(None, [batch_of(ids, lengths)], table, params)
        assert got.vectors.shape == (3, 4)
        for j in range(3):
            embeds = TE.embed_lookup(None, ids[j], table)
            hid = oracle.bilstm_forward(None, embeds, int(lengths[j]), params)
            s, beta = oracle.attention_pool(None, hid, int(lengths[j]), params)
            np.testing.assert_allclose(got.vectors.data[j], s.data, rtol=0, atol=1e-6)
            np.testing.assert_allclose(H.word_attention(got, j), beta.data,
                                       rtol=0, atol=1e-6)

    def test_duplicated_document_identical_rows(self):
        table, params = make_params(seed=10)
        ids = np.array([[2, 5, 3], [2, 5, 3]])
        got = TE.encode_documents(None, [batch_of(ids, [3, 3])], table, params)
        assert got.vectors.data[0].tobytes() == got.vectors.data[1].tobytes()

    def test_padding_invariance_bitwise(self):
        """Extra padding columns leave every s vector bit-identical."""
        table, params = make_params(seed=11)
        ids = np.array([[2, 3, 0, 0], [4, 5, 6, 0]])
        lengths = [2, 3]
        narrow = TE.encode_documents(None, [batch_of(ids, lengths)], table, params)
        wide_ids = np.concatenate([ids, np.zeros((2, 3), dtype=ids.dtype)], axis=1)
        wide = TE.encode_documents(None, [batch_of(wide_ids, lengths)], table, params)
        assert narrow.vectors.data.tobytes() == wide.vectors.data.tobytes()

    def test_document_permutation_equivariance_bitwise(self):
        table, params = make_params(seed=12)
        rng = np.random.default_rng(8)
        ids = rng.integers(2, 7, size=(5, 4))
        lengths = rng.integers(1, 5, size=5)
        ids[np.arange(4)[None, :] >= lengths[:, None]] = TE.PAD_ID
        base = TE.encode_documents(None, [batch_of(ids, lengths)], table, params)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(5)
            permed = TE.encode_documents(
                None, [batch_of(ids[perm], lengths[perm])], table, params)
            assert permed.vectors.data.tobytes() == base.vectors.data[perm].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_word_attention_is_probability_vector(self, seed, n):
        table, params = make_params(seed=13)
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 5, size=n)
        ids = rng.integers(2, 7, size=(n, 4))
        ids[np.arange(4)[None, :] >= lengths[:, None]] = TE.PAD_ID
        got = TE.encode_documents(None, [batch_of(ids, lengths)], table, params)
        for j in range(n):
            beta = H.word_attention(got, j)
            assert beta.shape == (lengths[j],)
            assert np.all(beta >= 0)
            np.testing.assert_allclose(beta.sum(), 1.0, rtol=0, atol=1e-6)

    def test_word_attention_on_demand_matches_eager_slices(self):
        """Each document's word attention, read from the [n, K] matrix when
        asked, equals the eager per-document slice and the attention of the
        document encoded alone without padding, bit for bit."""
        table, params = make_params(seed=16)
        rng = np.random.default_rng(4)
        days = []
        for n, width in ((3, 6), (1, 2), (4, 5)):
            lengths = rng.integers(1, width + 1, size=n)
            ids = rng.integers(1, 7, size=(n, width))
            ids[np.arange(width)[None, :] >= lengths[:, None]] = TE.PAD_ID
            days.append(batch_of(ids, lengths))
        got = TE.encode_documents(None, days, table, params)
        lengths = np.concatenate([d.lengths for d in days])
        ids = [row for d in days for row in d.token_ids]
        assert got.attention.shape == (lengths.size, 6)
        assert (lengths < 6).any()
        eager = [got.attention[j, :lengths[j]].copy() for j in range(lengths.size)]
        for j, length in enumerate(lengths):
            beta = H.word_attention(got, j)
            assert beta.shape == (length,)
            assert beta.tobytes() == eager[j].tobytes()
            assert not got.attention[j, length:].any()  # padded positions
            alone = TE.encode_documents(
                None, [batch_of(ids[j][None, :length], [length])], table, params)
            assert beta.tobytes() == H.word_attention(alone, 0).tobytes()

    def test_days_stack_as_rows_of_one_pass(self):
        """A list of days of different widths encodes each day as if alone."""
        table, params = make_params(seed=15)
        days = [batch_of([[2, 3, 0], [4, 0, 0]], [2, 1]),
                batch_of([[5, 6, 2, 3, 4]], [5]),
                batch_of([[3, 3, 0, 0], [6, 5, 4, 0], [2, 0, 0, 0]], [2, 3, 1])]
        got = TE.encode_documents(None, days, table, params)
        assert got.counts == (2, 1, 3)
        lo = 0
        for day in days:
            alone = TE.encode_documents(None, [day], table, params)
            n = alone.vectors.shape[0]
            rows = got.vectors.data[lo:lo + n]
            np.testing.assert_allclose(rows, alone.vectors.data, rtol=1e-6, atol=1e-7)
            for j in range(n):
                a, b = H.word_attention(got, lo + j), H.word_attention(alone, j)
                np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7)
            lo += n
        no_docs = batch_of(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(TE.EmptyDocumentError):
            TE.encode_documents(None, [days[0], no_docs], table, params)

    def test_empty_day_and_empty_document_rejected(self):
        table, params = make_params()
        with pytest.raises(TE.EmptyDocumentError):
            TE.encode_documents(
                None, [batch_of(np.zeros((1, 3), dtype=np.int64), [0])], table, params)

    def test_full_encoder_gradients(self):
        """grad_check over every encoder tensor and the embedding table."""
        table, params = make_params(d_w=3, d_h=2, seed=14)
        ids = np.array([[2, 3, 4], [5, 6, 0]])
        lengths = np.array([3, 2])
        leaves = [table,
                  params.fwd.input_w, params.fwd.state_w, params.fwd.bias,
                  params.bwd.input_w, params.bwd.state_w, params.bwd.bias,
                  params.pool_w, params.pool_bias, params.pool_ctx]
        w = T.constant(np.random.default_rng(9).normal(size=(2, 4)), dtype=np.float64)

        def loss(tape, ts):
            ps = TE.TextEncoderParams(
                fwd=TE.LSTMParams(ts[1], ts[2], ts[3]),
                bwd=TE.LSTMParams(ts[4], ts[5], ts[6]),
                pool_w=ts[7], pool_bias=ts[8], pool_ctx=ts[9])
            rep = TE.encode_documents(tape, [batch_of(ids, lengths)], ts[0], ps)
            return T.sum_all(tape, T.hadamard(tape, rep.vectors, w))

        assert H.grad_check(loss, leaves) < 1e-4

    def test_one_call_records_seven_tape_entries(self):
        """The gather, the two-direction sweep, its reshape, the pooling
        projection, the attention, the weighted sum and the divisor."""
        table, params = make_params(d_w=3, d_h=2, seed=14)
        days = [batch_of(np.array([[2, 3, 4], [5, 6, 0]]), np.array([3, 2])),
                batch_of(np.array([[6, 0]]), np.array([1]))]
        tape = T.Tape()
        TE.encode_documents(tape, days, table, params)
        assert len(tape) == 7

    def test_scores_beyond_fifty_stay_a_distribution(self):
        """Unclamped pooling scores far past +-50 give finite word attention
        that sums to 1, and gradients that match finite differences."""
        table, params = make_params(d_w=3, d_h=2, seed=14)
        params.pool_ctx.data[...] *= 4000.0
        ids = np.array([[2, 3, 4], [5, 6, 0]])
        lengths = np.array([3, 2])
        got = TE.encode_documents(None, [batch_of(ids, lengths)], table, params)
        widest = 0.0
        for j, n in enumerate(lengths):
            hid = np_bilstm(table.data[ids[j, :n]].astype(np.float64), params)
            scores = np.tanh(hid @ params.pool_w.data.astype(np.float64).T
                             + params.pool_bias.data) @ params.pool_ctx.data
            widest = max(widest, float(np.abs(scores).max()))
            beta = H.word_attention(got, j)
            assert np.all(np.isfinite(beta)) and np.all(beta >= 0)
            np.testing.assert_allclose(beta.sum(), 1.0, rtol=0, atol=1e-6)
        assert widest > 50.0
        assert np.all(np.isfinite(got.vectors.data))

        leaves = [table, params.fwd.input_w, params.fwd.state_w,
                  params.fwd.bias, params.pool_w, params.pool_bias, params.pool_ctx]
        w = T.constant(np.random.default_rng(10).normal(size=(2, 4)), dtype=np.float64)

        def loss(tape, ts):
            ps = TE.TextEncoderParams(fwd=TE.LSTMParams(ts[1], ts[2], ts[3]),
                                      bwd=params.bwd, pool_w=ts[4],
                                      pool_bias=ts[5], pool_ctx=ts[6])
            rep = TE.encode_documents(tape, [batch_of(ids, lengths)], ts[0], ps)
            return T.sum_all(tape, T.hadamard(tape, rep.vectors, w))

        assert H.grad_check(loss, leaves) < 1e-4


class TestEmbeddingTableInit:
    def test_padding_row_zero(self):
        table = TE.init_embedding(6, 4, substream(0, "init"))
        np.testing.assert_allclose(table.data[TE.PAD_ID], np.zeros(4),
                                   rtol=0, atol=0)
        assert table.requires_grad

    def test_vocab_floor(self):
        with pytest.raises(TE.VocabularyError):
            TE.init_embedding(1, 4, substream(0, "init"))


class TestEmbeddingFileLoader:
    """``read_embeddings`` keeps the last row of each asked-for token with its
    line number; ``train`` writes the vocabulary's rows from them (see
    test_cli)."""

    def test_hits_and_misses(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 2.0 3.0\n"
                        "unknowntoken 9.0 9.0 9.0\n"
                        "badline 1.0\n"
                        "beta 0.5 0.5 0.5\n")
        rows = TE.read_embeddings(path, 3, {"alpha", "beta", "gamma", "badline"})
        assert {t: line for t, (line, _) in rows.items()} == {"alpha": 1, "beta": 4}
        np.testing.assert_allclose(rows["alpha"][1], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(rows["beta"][1], [0.5, 0.5, 0.5])
        assert rows["alpha"][1].dtype == np.float32

    @pytest.mark.parametrize("layout", ["{} {} {} {}\n", "{} {} {} {} \n",
                                        "{}\t{}\t{}\t{}\n", "  {} \t {}  {}\t{}\t \r\n"])
    def test_fields_split_on_runs_of_spaces_and_tabs(self, tmp_path, layout):
        """A trailing space (the fastText .vec layout), tabs, or several
        separators in a row load the same rows as single spaces."""
        path = tmp_path / "vecs.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(layout.format("alpha", "1.0", "2.0", "3.0")
                     + layout.format("beta", "0.5", "0.5", "0.5"))
        rows = TE.read_embeddings(path, 3, {"alpha", "beta"})
        assert len(rows) == 2
        np.testing.assert_allclose(rows["alpha"][1], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(rows["beta"][1], [0.5, 0.5, 0.5])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """The first row loads when the file starts with a UTF-8 byte-order
        mark."""
        path = tmp_path / "vecs.txt"
        path.write_text("\ufeffalpha 1.0 2.0 3.0\nbeta 0.5 0.5 0.5\n",
                        encoding="utf-8")
        rows = TE.read_embeddings(path, 3, {"alpha", "beta"})
        assert len(rows) == 2
        np.testing.assert_allclose(rows["alpha"][1], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(rows["beta"][1], [0.5, 0.5, 0.5])

    def test_repeated_token_counts_one_row_and_its_last_line_wins(self, tmp_path):
        """A token listed on several lines is one row, its last line's; that
        line is kept even when it holds nan, for ``train`` to name."""
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 2.0 3.0\nalpha 4.0 5.0 6.0\n"
                        "beta 0.5 0.5 0.5\nalpha 7.0 8.0 9.0\n")
        rows = TE.read_embeddings(path, 3, {"alpha", "beta"})
        assert len(rows) == 2
        assert rows["alpha"][0] == 4
        np.testing.assert_allclose(rows["alpha"][1], [7.0, 8.0, 9.0])
        np.testing.assert_allclose(rows["beta"][1], [0.5, 0.5, 0.5])
        path.write_text("alpha 1.0 2.0 3.0\nalpha 1.0 nan 3.0\n")
        line, vec = TE.read_embeddings(path, 3, {"alpha"})["alpha"]
        assert line == 2 and np.isnan(vec[1])
        path.write_text("alpha 1.0 nan 3.0\nalpha 1.0 2.0 3.0\n")
        line, vec = TE.read_embeddings(path, 3, {"alpha"})["alpha"]
        assert line == 2 and vec.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_row_names_its_line(self, tmp_path, value):
        path = tmp_path / "vecs.txt"
        path.write_text("alpha 1.0 2.0 3.0\n"
                        "unknowntoken nan nan nan\n"  # skipped: not asked for
                        "beta 0.5 %s 0.5\n" % value)
        rows = TE.read_embeddings(path, 3, {"alpha", "beta"})
        assert set(rows) == {"alpha", "beta"}
        line, vec = rows["beta"]
        assert line == 3 and not np.isfinite(vec[1])

    def test_a_file_without_a_row_is_a_data_error(self, tmp_path):
        """Rows of tokens not asked for still count as rows; a file with
        none (one of another width) is refused, naming ``d_w``."""
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nunknowntoken 1.0 2.0 3.0\n")
        assert TE.read_embeddings(path, 3, {"alpha"}) == {}
        with pytest.raises(D.DatasetError, match=r"vecs\.txt: .*d_w = 2"):
            TE.read_embeddings(path, 2, {"alpha"})
        with pytest.raises(D.DatasetError, match="cannot read embeddings"):
            TE.read_embeddings(tmp_path / "missing.txt", 3, {"alpha"})
