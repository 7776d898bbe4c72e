"""Tests for the context-injecting recurrent cell."""

import numpy as np
import pytest

from msin import cell as C
from msin import tensor as T
from msin.rng import substream
from msin.text_encoder import DocRepresentation, LSTMParams

import chain_oracle as chain
import helpers as H
from helpers import MsinState, docs_of


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def make_params(d_s=3, d_a=3, d_in=1, doc_dim=4, seed=0) -> C.MsinParams:
    return C.init_msin(d_s, d_a, d_in, doc_dim, substream(seed, "init"))


def zero_params(d_s=3, d_a=3, d_in=1, doc_dim=4) -> C.MsinParams:
    p = make_params(d_s, d_a, d_in, doc_dim)
    for t in (p.init_c_w, p.init_c_b, p.init_h_w, p.init_h_b,
              p.attn.state_w, p.attn.doc_w, p.attn.bias, p.attn.score):
        t.data[...] = 0.0
    for t in (p.cell.input_w, p.cell.state_w, p.cell.bias, p.cell.ctx_w):
        t.data[...] = 0.0
    return p


class TestInitStates:
    def test_zero_params_zero_states(self):
        params = zero_params()
        state = H.init_states(None, docs_of(np.random.default_rng(0).normal(size=(3, 4))),
                              params)
        np.testing.assert_allclose(state.c.data, np.zeros(3), rtol=0, atol=0)
        np.testing.assert_allclose(state.h.data, np.zeros(3), rtol=0, atol=0)
        np.testing.assert_allclose(state.v.data, np.zeros(4), rtol=0, atol=0)
        assert state.p is None

    def test_single_doc_mean_is_the_doc(self):
        params = make_params(seed=1)
        row = np.random.default_rng(1).normal(size=4).astype(np.float32)
        state = H.init_states(None, docs_of(row[None, :]), params)
        want_c = np.tanh(params.init_c_w.data.astype(np.float64) @ row
                         + params.init_c_b.data)
        np.testing.assert_allclose(state.c.data, want_c, rtol=0, atol=1e-6)

    def test_two_doc_formula_oracle(self):
        params = make_params(seed=2)
        rows = np.random.default_rng(2).normal(size=(2, 4)).astype(np.float32)
        state = H.init_states(None, docs_of(rows), params)
        s_bar = rows.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(
            state.c.data,
            np.tanh(params.init_c_w.data.astype(np.float64) @ s_bar
                    + params.init_c_b.data), rtol=0, atol=1e-6)
        np.testing.assert_allclose(
            state.h.data,
            np.tanh(params.init_h_w.data.astype(np.float64) @ s_bar
                    + params.init_h_b.data), rtol=0, atol=1e-6)

    def test_empty_day_rejected(self):
        params = make_params()
        empty = DocRepresentation(vectors=T.constant(np.zeros((1, 4))),
                                  counts=(1,))
        empty.vectors.data = np.zeros((0, 4), dtype=np.float32)  # forced illegal state
        with pytest.raises(C.EmptyDayError):
            H.init_states(None, empty, params)


class TestAttend:
    def test_single_document_gets_all_mass(self):
        params = make_params(seed=3)
        h = T.constant(np.random.default_rng(3).normal(size=3))
        p = H.attend(None, h, docs_of(np.random.default_rng(4).normal(size=(1, 4))),
                     np.array([True]), params.attn)
        np.testing.assert_allclose(p.data, [1.0], rtol=0, atol=0)

    def test_identical_documents_uniform_mass(self):
        params = make_params(seed=4)
        h = T.constant(np.random.default_rng(5).normal(size=3))
        row = np.random.default_rng(6).normal(size=4)
        p = H.attend(None, h, docs_of(np.tile(row, (4, 1))), np.ones(4, dtype=bool),
                     params.attn)
        np.testing.assert_allclose(p.data, np.full(4, 0.25), rtol=0, atol=1e-7)

    def test_scalar_hand_fixture(self):
        """Scalar attention with pass-through weights: p = softmax([0, tanh(10)])."""
        attn = C.AttentionParams(
            state_w=T.parameter(np.zeros((1, 1)), "a.state_w"),
            doc_w=T.parameter(np.ones((1, 1)), "a.doc_w"),
            bias=T.parameter(np.zeros(1), "a.bias"),
            score=T.parameter(np.ones(1), "a.score"))
        p = H.attend(None, T.constant(np.zeros(1)), docs_of([[0.0], [10.0]]),
                     np.array([True, True]), attn)
        want = _softmax(np.array([0.0, np.tanh(10.0)]))
        np.testing.assert_allclose(p.data, want, rtol=0, atol=1e-6)
        np.testing.assert_allclose(p.data, [0.2690, 0.7310], rtol=0, atol=2e-4)

    def test_logits_beyond_fifty_stay_a_distribution(self):
        """Unclamped logits far past +-50 give a finite mass that sums to 1,
        and gradients that match finite differences."""
        params = make_params(seed=6)
        params.attn.score.data[...] *= 400.0
        rng = np.random.default_rng(8)
        h = rng.normal(size=3)
        rows = rng.normal(size=(4, 4))
        mask = np.array([True, True, False, True])
        a = params.attn
        proj = np.tanh(rows @ a.doc_w.data.astype(np.float64).T
                       + a.state_w.data.astype(np.float64) @ h + a.bias.data)
        assert np.abs(proj @ a.score.data)[mask].max() > 50.0
        p = H.attend(None, T.constant(h), docs_of(rows), mask, a).data
        assert np.all(np.isfinite(p)) and np.all(p >= 0) and p[2] == 0.0
        np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-6)

        w = T.constant(rng.normal(size=4), dtype=np.float64)

        def loss(tape, ts):
            attn = C.AttentionParams(ts[0], ts[1], ts[2], ts[3])
            mass = H.attend(tape, ts[4], docs_of(ts[5]), mask, attn)
            return T.sum_all(tape, T.hadamard(tape, mass, w))

        leaves = [a.state_w, a.doc_w, a.bias, a.score, T.parameter(h, "h"),
                  T.parameter(rows, "docs")]
        assert H.grad_check(loss, leaves) < 1e-4

    def test_all_masked_rejected(self):
        params = make_params(seed=5)
        with pytest.raises(T.DegenerateMaskError):
            H.attend(None, T.constant(np.zeros(3)),
                     docs_of(np.ones((2, 4))), np.array([False, False]), params.attn)


class TestUpdateContext:
    def test_base_case_half_s(self):
        s = np.random.default_rng(7).normal(size=4).astype(np.float32)
        v = H.update_context(None, T.constant([1.0]), docs_of(s[None, :]),
                             T.constant(np.zeros(4)))
        np.testing.assert_allclose(v.data, s / 2.0, rtol=0, atol=1e-7)

    def test_geometric_closed_form(self):
        """Constant summary s for l steps gives v_l = s*(1 - 2^-l), l <= 10."""
        s = np.random.default_rng(8).normal(size=4).astype(np.float32)
        docs = docs_of(s[None, :])
        p = T.constant([1.0])
        v = T.constant(np.zeros(4))
        for step in range(1, 11):
            v = H.update_context(None, p, docs, v)
            want = s.astype(np.float64) * (1.0 - 2.0 ** (-step))
            np.testing.assert_allclose(v.data, want, rtol=0, atol=1e-6)

    def test_three_doc_formula_oracle(self):
        rng = np.random.default_rng(9)
        S = rng.normal(size=(3, 4)).astype(np.float32)
        p = _softmax(rng.normal(size=3)).astype(np.float32)
        v_prev = rng.normal(size=4).astype(np.float32)
        got = H.update_context(None, T.constant(p), docs_of(S), T.constant(v_prev))
        want = 0.5 * (S.astype(np.float64).T @ p + v_prev)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-6)

    def test_context_fading_weights(self):
        """v_l decomposes as sum_r 2^-(l-r+1) * (step-r summary) on random inputs."""
        rng = np.random.default_rng(10)
        S = rng.normal(size=(3, 4)).astype(np.float32)
        docs = docs_of(S)
        v = T.constant(np.zeros(4))
        summaries = []
        for _ in range(6):
            p = _softmax(rng.normal(size=3)).astype(np.float32)
            summaries.append(S.astype(np.float64).T @ p)
            v = H.update_context(None, T.constant(p), docs, v)
        l = len(summaries)
        want = sum(2.0 ** (-(l - r + 1)) * u for r, u in enumerate(summaries, start=1))
        np.testing.assert_allclose(v.data, want, rtol=0, atol=1e-5)


class TestCellStep:
    def test_zero_params_halving(self):
        params = zero_params()
        rng = np.random.default_rng(11)
        c_prev = rng.normal(size=3).astype(np.float32)
        state = MsinState(c=T.constant(c_prev), h=T.constant(np.zeros(3)),
                          v=T.constant(np.zeros(4)), p=None)
        out = H.cell_step(None, T.constant([0.5]), state,
                          docs_of(rng.normal(size=(2, 4))), np.ones(2, dtype=bool),
                          params)
        np.testing.assert_allclose(out.c.data, 0.5 * c_prev, rtol=0, atol=1e-7)
        np.testing.assert_allclose(out.h.data, 0.5 * np.tanh(0.5 * c_prev.astype(np.float64)),
                                   rtol=0, atol=1e-6)

    def test_saturated_input_gate_pure_decay(self):
        """Input-gate bias at -50 saturates to exactly zero: c = f*c_prev bitwise."""
        params = make_params(seed=6)
        params.cell.bias.data[:3] = -50.0  # the input-gate rows
        rng = np.random.default_rng(12)
        c_prev = rng.normal(size=3).astype(np.float32)
        h_prev = rng.normal(size=3).astype(np.float32)
        docs = docs_of(rng.normal(size=(2, 4)))
        state = MsinState(c=T.constant(c_prev), h=T.constant(h_prev),
                          v=T.constant(np.zeros(4)), p=None)
        out = H.cell_step(None, T.constant([0.3]), state, docs,
                          np.ones(2, dtype=bool), params)
        # recompute f with the same ops to compare bit-for-bit
        p = H.attend(None, state.h, docs, np.ones(2, dtype=bool), params.attn)
        v = H.update_context(None, p, docs, state.v)
        cell = params.cell
        pre = T.add(None, chain.matmul(None, cell.input_w, T.constant([0.3])),
                    chain.matmul(None, cell.state_w, state.h))
        pre = T.add(None, T.add(None, pre, chain.matmul(None, cell.ctx_w, v)),
                    cell.bias)
        f = chain.sigmoid(None, T.narrow(None, pre, 0, 3, 6))
        decay = T.hadamard(None, f, state.c)
        assert out.c.data.tobytes() == decay.data.tobytes()

    def test_scalar_step_hand_unrolled(self):
        """Fully scalar configuration matches float64 hand arithmetic."""
        params = make_params(d_s=1, d_a=1, d_in=1, doc_dim=1, seed=7)
        rng = np.random.default_rng(13)
        s = rng.normal(size=(2, 1)).astype(np.float32)
        c_prev, h_prev = 0.3, -0.2
        x = 0.7
        state = MsinState(c=T.constant([c_prev]), h=T.constant([h_prev]),
                          v=T.constant([0.1]), p=None)
        out = H.cell_step(None, T.constant([x]), state, docs_of(s),
                          np.ones(2, dtype=bool), params)

        def w(t):
            return float(t.data.astype(np.float64)[0] if t.ndim == 1 else t.data[0, 0])

        at = params.attn
        a = np.tanh(w(at.doc_w) * s[:, 0].astype(np.float64)
                    + (w(at.state_w) * h_prev + w(at.bias)))
        p = _softmax(w(at.score) * a)
        v = 0.5 * (float(p @ s[:, 0]) + 0.1)
        cell = params.cell
        pre = {}
        for k, name in enumerate("ifoc"):  # stacked rows: in/forget/out/cand
            pre[name] = (float(cell.input_w.data[k, 0]) * x
                         + float(cell.state_w.data[k, 0]) * h_prev
                         + float(cell.ctx_w.data[k, 0]) * v
                         + float(cell.bias.data[k]))
        c = _sig(pre["f"]) * c_prev + _sig(pre["i"]) * np.tanh(pre["c"])
        h = _sig(pre["o"]) * np.tanh(c)
        np.testing.assert_allclose(out.p.data, p, rtol=0, atol=1e-6)
        np.testing.assert_allclose(out.v.data, [v], rtol=0, atol=1e-6)
        np.testing.assert_allclose(out.c.data, [c], rtol=0, atol=1e-6)
        np.testing.assert_allclose(out.h.data, [h], rtol=0, atol=1e-6)


class TestRunSequence:
    def test_single_step_window(self):
        params = make_params(seed=8)
        docs = docs_of(np.random.default_rng(14).normal(size=(3, 4)))
        hiddens, masses = H.run_sequence(None, np.ones((1, 1)), docs,
                                         np.ones(3, dtype=bool), params)
        assert hiddens.shape == (1, 3)
        assert len(masses) == 1
        assert masses[-1] is masses[0]

    def test_shape_contract_across_doc_counts(self):
        params = make_params(seed=9)
        rng = np.random.default_rng(15)
        for n in (1, 2, 7, 25):
            docs = docs_of(rng.normal(size=(n, 4)))
            hiddens, masses = H.run_sequence(None, rng.normal(size=(5, 1)), docs,
                                             np.ones(n, dtype=bool), params)
            assert hiddens.shape == (5, 3)
            assert len(masses) == 5
            assert all(p.shape == (n,) for p in masses)

    def test_constant_inputs_closed_form(self):
        """Identical docs: every p is uniform and v follows s*(1 - 2^-l)."""
        params = make_params(seed=10)
        row = np.random.default_rng(16).normal(size=4).astype(np.float32)
        docs = docs_of(np.tile(row, (3, 1)))
        state = H.init_states(None, docs, params)
        for step in range(1, 9):
            state = H.cell_step(None, T.constant([0.2]), state, docs,
                                np.ones(3, dtype=bool), params)
            np.testing.assert_allclose(state.p.data, np.full(3, 1 / 3),
                                       rtol=0, atol=1e-6)
            np.testing.assert_allclose(
                state.v.data, row.astype(np.float64) * (1.0 - 2.0 ** (-step)),
                rtol=0, atol=1e-6)

    def test_single_document_collapse(self):
        params = make_params(seed=11)
        docs = docs_of(np.random.default_rng(17).normal(size=(1, 4)))
        _, masses = H.run_sequence(None, np.random.default_rng(18).normal(size=(4, 1)),
                                   docs, np.array([True]), params)
        for p in masses:
            np.testing.assert_allclose(p.data, [1.0], rtol=0, atol=0)

    def test_document_permutation_equivariance(self):
        """Permuting documents permutes every p and leaves hiddens bit-identical."""
        params = make_params(seed=12)
        rng = np.random.default_rng(19)
        S = rng.normal(size=(6, 4)).astype(np.float32)
        window = rng.normal(size=(4, 1))
        base_h, base_masses = H.run_sequence(None, window, docs_of(S),
                                             np.ones(6, dtype=bool), params)
        for seed in range(8):
            perm = np.random.default_rng(seed).permutation(6)
            h, masses = H.run_sequence(None, window, docs_of(S[perm]),
                                       np.ones(6, dtype=bool), params)
            assert h.data.tobytes() == base_h.data.tobytes()
            for pa, pb in zip(masses, base_masses):
                assert pa.data.tobytes() == pb.data[perm].tobytes()

    def test_full_cell_gradients(self):
        """grad_check over all cell tensors plus the document vectors."""
        params = make_params(d_s=2, d_a=2, d_in=1, doc_dim=2, seed=13)
        rng = np.random.default_rng(20)
        doc_rows = rng.normal(size=(2, 2))
        window = rng.normal(size=(2, 1))
        w = T.constant(rng.normal(size=(2, 2)), dtype=np.float64)
        leaves = [params.init_c_w, params.init_c_b, params.init_h_w, params.init_h_b,
                  params.attn.state_w, params.attn.doc_w, params.attn.bias,
                  params.attn.score, params.cell.input_w, params.cell.state_w,
                  params.cell.bias, params.cell.ctx_w,
                  T.parameter(doc_rows, "docs")]

        def loss(tape, ts):
            rebuilt = C.MsinParams(
                init_c_w=ts[0], init_c_b=ts[1], init_h_w=ts[2], init_h_b=ts[3],
                attn=C.AttentionParams(ts[4], ts[5], ts[6], ts[7]),
                cell=LSTMParams(ts[8], ts[9], ts[10], ts[11]))
            docs = H.docs_of(ts[12])
            hiddens, _ = H.run_sequence(tape, window, docs, np.ones(2, dtype=bool),
                                        rebuilt)
            return T.sum_all(tape, T.hadamard(tape, hiddens, w))

        assert H.grad_check(loss, leaves) < 1e-4


class TestPlainReduction:
    def test_zeroed_context_weights_reduce_to_plain_lstm(self):
        """With ctx weights zero the full cell equals the plain runner bitwise."""
        rng = np.random.default_rng(21)
        for trial in range(5):
            params = make_params(seed=100 + trial)
            params.cell.ctx_w.data[...] = 0.0
            docs = docs_of(rng.normal(size=(3, 4)))
            window = rng.normal(size=(4, 1))
            full, _ = H.run_sequence(None, window, docs, np.ones(3, dtype=bool),
                                     params)
            state0 = H.init_states(None, docs, params)
            plain = H.run_plain_sequence(None, window, params.cell,
                                         state0.c, state0.h)
            assert full.data.tobytes() == plain.data.tobytes()
