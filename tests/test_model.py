"""Tests for model assembly: variant wiring, losses, parameter enumeration."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from msin import model as M
from msin import tensor as T
from msin import text_encoder as TE
from msin import training as TR

import chain_oracle as chain
import helpers as H


def tiny_config(variant="msin", **kw) -> M.ModelConfig:
    base = dict(variant=variant, d_s=3, d_h=2, d_w=3, vocab_size=8, m=2,
                series_dim=1, max_tokens=4, daily_doc_cap=5, d_a=3)
    base.update(kw)
    return M.ModelConfig(**base)


def make_sample(seed=0, n=2, K=4, m=2, vocab=8):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, K + 1, size=n)
    ids = rng.integers(2, vocab, size=(n, K))
    ids[np.arange(K)[None, :] >= lengths[:, None]] = 0
    values = rng.normal(size=(m, 1)).astype(np.float32)
    return SimpleNamespace(
        docs=SimpleNamespace(token_ids=ids, lengths=lengths),
        values_n=values, target_n=float(rng.normal()),
        window=SimpleNamespace(target=1.5, prev=1.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(variant="gru")
        with pytest.raises(ValueError):
            tiny_config(m=0)
        with pytest.raises(ValueError):
            tiny_config(dropout_rate=1.0)

    @pytest.mark.parametrize("field", ["l1", "l2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            tiny_config(**{field: value})

    def test_round_trip_and_hash_stability(self):
        cfg = tiny_config(l1=0.01)
        again = M.ModelConfig(**dataclasses.asdict(cfg))
        assert again == cfg
        assert M.config_hash(cfg) == M.config_hash(again)
        assert M.config_hash(cfg) != M.config_hash(tiny_config(l1=0.02))

    def test_attention_width_defaults_to_state_width(self):
        assert tiny_config(d_a=0).attention_width == 3
        assert tiny_config(d_a=7).attention_width == 7

    def test_negative_attention_width_rejected(self):
        with pytest.raises(ValueError, match="d_a"):
            tiny_config(d_a=-7)


class TestParamTree:
    def test_unique_names_and_decay_flags(self):
        for variant in M.VARIANTS:
            params = M.init_model(tiny_config(variant), seed=0)
            rows = M.named_tensors(params)
            names = [n for n, _, _ in rows]
            assert len(names) == len(set(names))
            flags = dict((n, d) for n, _, d in rows)
            assert flags["embedding.table"] is False
            assert flags["head.weight"] is True
            assert flags["head.bias"] is False
            assert all(not d for n, _, d in rows if n.endswith(".bias"))

    def test_variant_tensor_sets_differ(self):
        names = {v: {n for n, _, _ in M.named_tensors(M.init_model(tiny_config(v), 0))}
                 for v in M.VARIANTS}
        assert any(".ctx_w" in n for n in names["msin"])
        assert not any(".ctx_w" in n for n in names["lstm_wo"])
        assert any(n.startswith("align.") for n in names["lstm_wo"])
        assert any(n.startswith("text.") for n in names["lstm_par"])


class TestForwardMsin:
    def test_zero_head_gives_bias(self):
        config = tiny_config()
        params = M.init_model(config, seed=2)
        params.head_w.data[...] = 0.0
        params.head_b.data[...] = 0.625
        pred = M.forward(None, make_sample(1), params, config)
        np.testing.assert_allclose(pred.value.data, [0.625], rtol=0, atol=0)

    def test_single_doc_summary_is_that_doc(self):
        config = tiny_config()
        params = M.init_model(config, seed=3)
        sample = make_sample(2, n=1)
        docs = TE.encode_documents(None, [sample.docs], params.embedding,
                                   params.encoder)
        pred = M.forward(None, sample, params, config)
        np.testing.assert_allclose(pred.relevance.data, [1.0], rtol=0, atol=0)
        u_txt = chain.matmul(None, pred.relevance, docs.vectors)
        np.testing.assert_allclose(u_txt.data, docs.vectors.data[0], rtol=0, atol=0)

    def test_matches_module_composition(self):
        """Forward equals encoder -> cell -> float64 head, composed by hand."""
        config = tiny_config()
        params = M.init_model(config, seed=4)
        sample = make_sample(3, n=3)
        pred = M.forward(None, sample, params, config)

        docs = TE.encode_documents(None, [sample.docs], params.embedding,
                                   params.encoder)
        mask = np.ones(docs.vectors.shape[0], dtype=bool)
        hiddens, masses = H.run_sequence(None, sample.values_n, docs, mask,
                                         params.msin)
        u_txt = docs.vectors.data.astype(np.float64).T @ masses[-1].data
        feat = np.concatenate([hiddens.data[-1].astype(np.float64), u_txt])
        want = params.head_w.data.astype(np.float64) @ feat + params.head_b.data
        np.testing.assert_allclose(pred.value.data, want, rtol=0, atol=1e-6)
        np.testing.assert_allclose(pred.relevance.data, masses[-1].data,
                                   rtol=0, atol=0)

    def test_eval_mode_is_bitwise_deterministic(self):
        config = tiny_config(dropout_rate=0.4)
        params = M.init_model(config, seed=5)
        sample = make_sample(4)
        a = M.forward(None, sample, params, config)
        b = M.forward(None, sample, params, config)
        assert a.value.data.tobytes() == b.value.data.tobytes()

    def test_train_mode_dropout_uses_generator(self):
        config = tiny_config(dropout_rate=0.5)
        params = M.init_model(config, seed=6)
        sample = make_sample(5)
        a = M.forward(None, sample, params, config, rng=np.random.default_rng(0))
        b = M.forward(None, sample, params, config, rng=np.random.default_rng(0))
        assert a.value.data.tobytes() == b.value.data.tobytes()


class TestForwardLstmWo:
    def test_identical_documents_uniform_relevance(self):
        config = tiny_config("lstm_wo")
        params = M.init_model(config, seed=7)
        ids = np.tile(np.array([[2, 5, 3, 0]]), (3, 1))
        sample = make_sample(6)
        sample.docs = SimpleNamespace(token_ids=ids, lengths=np.array([3, 3, 3]))
        pred = M.forward(None, sample, params, config)
        np.testing.assert_allclose(pred.relevance.data, np.full(3, 1 / 3),
                                   rtol=0, atol=1e-7)

    def test_matches_module_composition(self):
        config = tiny_config("lstm_wo")
        params = M.init_model(config, seed=8)
        sample = make_sample(7, n=3)
        pred = M.forward(None, sample, params, config)

        docs = TE.encode_documents(None, [sample.docs], params.embedding,
                                   params.encoder)
        zeros = T.constant(np.zeros(config.d_s))
        hiddens = H.run_plain_sequence(None, sample.values_n, params.cell,
                                       zeros, zeros)
        h_m = T.constant(hiddens.data[-1])
        p = H.attend(None, h_m, docs, np.ones(3, dtype=bool), params.align)
        u_txt = docs.vectors.data.astype(np.float64).T @ p.data
        feat = np.concatenate([hiddens.data[-1].astype(np.float64), u_txt])
        want = params.head_w.data.astype(np.float64) @ feat + params.head_b.data
        np.testing.assert_allclose(pred.value.data, want, rtol=0, atol=1e-6)

    def test_msin_with_zeroed_context_matches_on_series_path(self):
        """Zero ctx weights + zero init maps + text-blind head: equal values."""
        cfg_m = tiny_config("msin")
        cfg_w = tiny_config("lstm_wo")
        pm = M.init_model(cfg_m, seed=9)
        pw = M.init_model(cfg_w, seed=10)
        # share the text pipeline and series gates
        pw.embedding.data[...] = pm.embedding.data
        for attr in ("input_w", "state_w", "bias"):
            getattr(pw.encoder.fwd, attr).data[...] = getattr(pm.encoder.fwd, attr).data
            getattr(pw.encoder.bwd, attr).data[...] = getattr(pm.encoder.bwd, attr).data
        for t in ("pool_w", "pool_bias", "pool_ctx"):
            getattr(pw.encoder, t).data[...] = getattr(pm.encoder, t).data
        for attr in ("input_w", "state_w", "bias"):
            getattr(pw.cell, attr).data[...] = getattr(pm.msin.cell, attr).data
        pm.msin.cell.ctx_w.data[...] = 0.0
        pm.msin.init_c_w.data[...] = 0.0
        pm.msin.init_c_b.data[...] = 0.0
        pm.msin.init_h_w.data[...] = 0.0
        pm.msin.init_h_b.data[...] = 0.0
        for p in (pm, pw):
            p.head_w.data[...] = 0.0
            p.head_b.data[...] = 0.25
        p_series = np.random.default_rng(11).normal(size=3).astype(np.float32)
        pm.head_w.data[0, :3] = p_series
        pw.head_w.data[0, :3] = p_series
        sample = make_sample(8)
        a = M.forward(None, sample, pm, cfg_m)
        b = M.forward(None, sample, pw, cfg_w)
        assert a.value.data.tobytes() == b.value.data.tobytes()


class TestForwardLstmPar:
    def test_no_relevance(self):
        config = tiny_config("lstm_par")
        params = M.init_model(config, seed=11)
        pred = M.forward(None, make_sample(9), params, config)
        assert pred.relevance is None

    def test_zero_text_branch_ignores_documents(self):
        config = tiny_config("lstm_par")
        params = M.init_model(config, seed=12)
        params.text_w.data[...] = 0.0
        params.text_b.data[...] = 0.0
        s1, s2 = make_sample(10, n=2), make_sample(10, n=2)
        s2.docs = make_sample(99, n=4).docs  # different documents, same window
        a = M.forward(None, s1, params, config)
        b = M.forward(None, s2, params, config)
        assert a.value.data.tobytes() == b.value.data.tobytes()

    def test_document_order_invariance(self):
        config = tiny_config("lstm_par")
        params = M.init_model(config, seed=13)
        sample = make_sample(11, n=4)
        base = M.forward(None, sample, params, config)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(4)
            shuffled = SimpleNamespace(
                docs=SimpleNamespace(token_ids=sample.docs.token_ids[perm],
                                     lengths=sample.docs.lengths[perm]),
                values_n=sample.values_n, target_n=sample.target_n,
                window=sample.window)
            got = M.forward(None, shuffled, params, config)
            assert got.value.data.tobytes() == base.value.data.tobytes()

    def test_matches_module_composition(self):
        config = tiny_config("lstm_par")
        params = M.init_model(config, seed=14)
        sample = make_sample(12, n=3)
        pred = M.forward(None, sample, params, config)
        docs = TE.encode_documents(None, [sample.docs], params.embedding,
                                   params.encoder)
        zeros = T.constant(np.zeros(config.d_s))
        hiddens = H.run_plain_sequence(None, sample.values_n, params.cell,
                                       zeros, zeros)
        pooled = docs.vectors.data.astype(np.float64).mean(axis=0)
        text = np.tanh(params.text_w.data.astype(np.float64) @ pooled
                       + params.text_b.data)
        feat = np.concatenate([hiddens.data[-1].astype(np.float64), text])
        want = params.head_w.data.astype(np.float64) @ feat + params.head_b.data
        np.testing.assert_allclose(pred.value.data, want, rtol=0, atol=1e-6)


class TestLoss:
    def test_exact_prediction_zero_loss(self):
        config = tiny_config()
        params = M.init_model(config, seed=15)
        sample = make_sample(13)
        pred = M.forward(None, sample, params, config)
        sample.target_n = float(pred.value.data[0])
        got = M.loss(None, pred, sample, params, config)
        np.testing.assert_allclose(got.data, [0.0], rtol=0, atol=1e-14)

    def test_unit_square(self):
        config = tiny_config()
        params = M.init_model(config, seed=16)
        sample = make_sample(14)
        pred = M.Prediction(value=T.constant([0.0]), relevance=None)
        sample.target_n = 1.0
        got = M.loss(None, pred, sample, params, config)
        np.testing.assert_allclose(got.data, [1.0], rtol=0, atol=0)

    def test_matches_independent_recomputation_with_reg(self):
        """train()'s first loss is the mean error plus both penalties at
        the initial weights."""
        config = tiny_config(l1=0.01, l2=0.05)
        params = M.init_model(config, seed=17)
        samples = [make_sample(15 + i) for i in range(4)]
        for s in samples:
            s.docs.n = len(s.docs.lengths)
        want = 0.0
        for s in samples:
            pred = M.forward(None, s, params, config)
            want += (float(pred.value.data[0]) - s.target_n) ** 2 / len(samples)
        for name, t, decayed in M.named_tensors(params):
            if decayed:
                w = t.data.astype(np.float64)
                want += 0.01 * np.abs(w).sum() + 0.05 * (w * w).sum()
        split = SimpleNamespace(train=samples, valid=samples[3:])
        result = TR.train(split, params, config,
                          TR.TrainConfig(batch_size=4, max_steps=1))
        got = result.history[0].train_loss
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)

    def test_movement_objective_bce(self):
        config = tiny_config(objective="movement")
        params = M.init_model(config, seed=18)
        sample = make_sample(16)
        sample.window = SimpleNamespace(target=2.0, prev=1.0)  # up day
        pred = M.Prediction(value=T.constant([0.3]), relevance=None)
        got = float(M.loss(None, pred, sample, params, config).data[0])
        want = -np.log(1.0 / (1.0 + np.exp(-0.3)))
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)


class TestMovementRules:
    def test_label_ties_are_up(self):
        assert M.movement_label(1.0, 1.0) == "up"
        assert M.movement_label(0.9, 1.0) == "down"

    def test_predicted_movement_scale_invariance(self):
        """Positive head rescaling never flips the movement decision."""
        config = tiny_config(objective="movement")
        params = M.init_model(config, seed=19)
        samples = [make_sample(s) for s in range(6)]
        before = []
        for s in samples:
            pred = M.forward(None, s, params, config)
            value = float(pred.value.data[0])
            before.append(M.predicted_movement([value], [s], config)[0])
        params.head_w.data[...] *= 3.0
        params.head_b.data[...] *= 3.0
        for s, want in zip(samples, before):
            pred = M.forward(None, s, params, config)
            value = float(pred.value.data[0])
            assert M.predicted_movement([value], [s], config)[0] == want


class TestFullModelGradients:
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_grad_check_micro_config(self, variant):
        # Seeds picked for healthy gradient magnitudes everywhere: entries whose
        # true gradient sits near the 1e-8 floor drown in finite-difference noise
        # and would fail the check for the wrong reason.
        config = M.ModelConfig(variant=variant, d_s=2, d_h=1, d_w=2, vocab_size=6,
                               m=2, series_dim=1, max_tokens=3, daily_doc_cap=4,
                               d_a=2)
        params = M.init_model(config, seed=6)
        sample = make_sample(5, n=2, K=3, m=2, vocab=6)
        rows = M.named_tensors(params)

        def build_loss(tape, _leaves):  # the leaves are params' own tensors
            pred = M.forward(tape, sample, params, config)
            return M.loss(tape, pred, sample, params, config)

        assert H.grad_check(build_loss, [t for _, t, _ in rows]) < 1e-4


def ragged_batch(seed, count=6, cap=4, K=4, m=2):
    """Days of 1..cap documents of mixed lengths, every count present."""
    rng = np.random.default_rng(seed)
    sizes = [1 + (b % cap) for b in range(count)]
    rng.shuffle(sizes)
    return [make_sample(seed * 100 + b, n=n, K=K, m=m) for b, n in enumerate(sizes)]


def fresh_rngs(count, seed=0):
    return [np.random.default_rng([seed, b]) for b in range(count)]


def leaf_grads(params):
    out = {}
    for n, t, _ in M.named_tensors(params):
        out[n] = np.zeros(t.shape) if t.grad is None else t.grad.copy()
        t.grad = None
    return out


class TestBatchedForward:
    """A batch of samples as rows of one graph against one-sample forwards."""

    F32 = dict(rtol=1e-6, atol=1e-7)  # float32 rounding, not bitwise

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_outputs_match_one_sample_forwards(self, variant):
        config = tiny_config(variant, daily_doc_cap=4, dropout_rate=0.3)
        params = M.init_model(config, seed=21)
        samples = ragged_batch(1)
        batch = M.forward_batch(None, samples, params, config,
                                rngs=fresh_rngs(len(samples)))
        total, errors = M.batch_loss(None, batch.value, samples, config)
        assert batch.counts == tuple(len(s.docs.lengths) for s in samples)
        losses = []
        for b, (s, rng) in enumerate(zip(samples, fresh_rngs(len(samples)))):
            one = M.forward(None, s, params, config, rng=rng)
            np.testing.assert_allclose(batch.value.data[b], one.value.data[0], **self.F32)
            losses.append(float(M.loss(None, one, s, params, config).data[0]))
            np.testing.assert_allclose(errors.data[b], losses[-1], **self.F32)
            if variant == "lstm_par":
                assert batch.relevance is None and one.relevance is None
                continue
            n = batch.counts[b]
            np.testing.assert_allclose(batch.relevance.data[b, :n], one.relevance.data,
                                       **self.F32)
            assert np.all(batch.relevance.data[b, n:] == 0.0)
        np.testing.assert_allclose(total.data[0] / len(samples), np.mean(losses),
                                   **self.F32)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_gradient_is_the_mean_of_one_sample_gradients(self, variant):
        config = tiny_config(variant, daily_doc_cap=4, dropout_rate=0.3)
        params = M.init_model(config, seed=22)
        samples = ragged_batch(2)
        want = {n: np.zeros(t.shape) for n, t, _ in M.named_tensors(params)}
        for s, rng in zip(samples, fresh_rngs(len(samples))):
            tape = T.Tape()
            one = M.forward(tape, s, params, config, rng=rng)
            tape.backward(M.loss(tape, one, s, params, config))
            for n, g in leaf_grads(params).items():
                want[n] += g / len(samples)
        tape = T.Tape()
        batch = M.forward_batch(tape, samples, params, config,
                                rngs=fresh_rngs(len(samples)))
        tape.backward(M.batch_loss(tape, batch.value, samples, config)[0])
        got = leaf_grads(params)
        for n in want:
            np.testing.assert_allclose(got[n] / len(samples), want[n], rtol=1e-5,
                                       atol=0.0, err_msg=n)

    @pytest.mark.parametrize("variant,entries",
                             [("msin", 25), ("lstm_wo", 22), ("lstm_par", 21)])
    def test_tape_entries_of_one_batch(self, variant, entries):
        """Forward plus loss on ragged days: the encoder's 7 entries, the
        day layout's 2, then the variant's cell, attention and head."""
        config = tiny_config(variant, daily_doc_cap=4)
        params = M.init_model(config, seed=21)
        samples = ragged_batch(1)
        tape = T.Tape()
        batch = M.forward_batch(tape, samples, params, config)
        M.batch_loss(tape, batch.value, samples, config)
        assert len(tape) == entries

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_permuting_the_batch_permutes_the_outputs(self, variant):
        config = tiny_config(variant, daily_doc_cap=4, dropout_rate=0.3)
        params = M.init_model(config, seed=23)
        samples = ragged_batch(3)
        base = M.forward_batch(None, samples, params, config,
                               rngs=fresh_rngs(len(samples)))
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(len(samples))
            rngs = fresh_rngs(len(samples))
            got = M.forward_batch(None, [samples[i] for i in perm], params, config,
                                  rngs=[rngs[i] for i in perm])
            np.testing.assert_allclose(got.value.data, base.value.data[perm],
                                       **self.F32)
            if base.relevance is not None:
                np.testing.assert_allclose(got.relevance.data,
                                           base.relevance.data[perm], **self.F32)

    @pytest.mark.parametrize("variant", ["msin", "lstm_wo"])
    def test_masses_do_not_depend_on_the_rest_of_the_batch(self, variant):
        config = tiny_config(variant, daily_doc_cap=4)
        params = M.init_model(config, seed=24)
        first = make_sample(77, n=2)
        alone = M.forward(None, first, params, config).relevance.data
        for seed in range(4):
            others = ragged_batch(10 + seed, count=1 + seed)
            batch = M.forward_batch(None, [first] + others, params, config)
            np.testing.assert_allclose(batch.relevance.data[0, :2], alone, **self.F32)


# The benchmark's recovery and long-window configs, forward-only as in eval
# and rank: (config fields, documents per day, longest document).
INVARIANCE_CONFIGS = {
    "recovery": (dict(d_s=16, d_h=8, d_w=16, vocab_size=64, m=5, max_tokens=8,
                      daily_doc_cap=10), (10, 3, 1, 7, 10, 5, 2, 8), 8),
    "long_window": (dict(d_s=64, d_h=8, d_w=16, vocab_size=64, m=30, max_tokens=8,
                         daily_doc_cap=10), (3, 2, 1, 3, 2, 3), 5),
}


class TestBatchInvariance:
    """A sample's value and final masses are bit-identical alone and inside a
    ragged batch: ``msin rank`` runs one day, ``msin eval`` batches of days,
    and the two must rank alike."""

    @pytest.mark.parametrize("variant", M.VARIANTS)
    @pytest.mark.parametrize("name", sorted(INVARIANCE_CONFIGS))
    def test_alone_equals_inside_a_ragged_batch(self, name, variant):
        fields, doc_counts, K = INVARIANCE_CONFIGS[name]
        config = M.ModelConfig(variant=variant, **fields)
        params = M.init_model(config, seed=31)
        samples = [make_sample(300 + b, n=n, K=K, m=config.m, vocab=64)
                   for b, n in enumerate(doc_counts)]
        batch = M.forward_batch(None, samples, params, config)
        for b, s in enumerate(samples):
            alone = M.forward(None, s, params, config)
            assert batch.value.data[b].tobytes() == alone.value.data.tobytes()
            if variant == "lstm_par":
                assert batch.relevance is None and alone.relevance is None
                continue
            n = doc_counts[b]
            assert batch.relevance.data[b, :n].tobytes() == \
                alone.relevance.data.tobytes()
            assert np.all(batch.relevance.data[b, n:] == 0.0)
