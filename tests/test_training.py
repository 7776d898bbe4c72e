"""Tests for the training loop and checkpoint files."""

import dataclasses
import hashlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msin import data as D
from msin import model as M
from msin import tensor as T
from msin import training as TR

import helpers as H

ROOT = pathlib.Path(__file__).resolve().parents[1]
# sha256 of test_recovery_training_bytes_are_pinned's history rows and
# parameter bytes
RECOVERY_TRAINING_SHA256 = (
    "466f11897276345b2f90b72ba85a81d6443190fb4d9075a722d2fab860a0aacf")


def tiny_config(**kw):
    base = dict(variant="msin", d_s=3, d_h=2, d_w=3, vocab_size=32, m=2,
                series_dim=1, max_tokens=4, daily_doc_cap=4)
    base.update(kw)
    return M.ModelConfig(**base)


def tiny_samples(config, n_days=24, seed=0, **synth_kw):
    spec = D.SynthSpec(n_days=n_days, seed=seed, n_docs=(1, 3),
                       doc_len=(2, 4), vocab_size=12, **synth_kw)
    corpus, series = D.synth_generate(spec)
    vocab = D.build_vocab(corpus, max_size=config.vocab_size)
    return D.make_samples(corpus, series, vocab, config,
                          D.SplitSpec(fracs=(0.7, 0.15, 0.15)))


def snapshot(params):
    return {n: t.data.copy() for n, t, _ in M.named_tensors(params)}


class TestAdamStep:
    def test_matches_hand_adam_on_fixed_gradient(self):
        """First trainer update equals a float64 Adam step computed by hand.

        Uses batch_size = full train split, so the trainer's gradient is the
        plain mean gradient, which we recompute independently.
        """
        config = tiny_config()
        samples = tiny_samples(config)
        tcfg = TR.TrainConfig(batch_size=len(samples.train), max_steps=1,
                              eval_every=1, seed=3)
        params = M.init_model(config, seed=3)
        before = snapshot(params)

        grads = {n: np.zeros(t.shape, np.float64)
                 for n, t, _ in M.named_tensors(params)}
        for idx, s in enumerate(samples.train):
            tape = T.Tape()
            pred = M.forward(tape, s, params, config,
                             rng=TR.substream(3, "dropout", 1, idx))
            tape.backward(M.loss(tape, pred, s, params, config))
            for n, t, _ in M.named_tensors(params):
                grads[n] += t.grad
                t.grad = None
        for g in grads.values():
            g /= len(samples.train)
        norm = np.sqrt(sum((g * g).sum() for g in grads.values()))
        if norm > tcfg.clip_norm:
            for g in grads.values():
                g *= tcfg.clip_norm / norm

        TR.train(samples, params, config, tcfg)
        # trainer restores its best snapshot, which after one step is the
        # post-update state only if it beat the init; redo without restore
        params2 = M.init_model(config, seed=3)
        tcfg2 = dataclasses.replace(tcfg, early_stop_patience=5)
        TR.train(samples, params2, config, tcfg2)

        for n, t, _ in M.named_tensors(params2):
            g = grads[n]
            m_hat = (0.1 * g) / (1 - 0.9)
            v_hat = (0.001 * g * g) / (1 - 0.999)
            want = (before[n].astype(np.float64)
                    - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)).astype(np.float32)
            got = t.data
            # params2 holds the best snapshot: step 1 (the only eval)
            np.testing.assert_array_equal(got, want, err_msg=n)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    @pytest.mark.parametrize("clip_norm", [0.05, 1e6])
    def test_flat_buffer_matches_per_tensor_reference(self, variant, clip_norm):
        """train() updates every parameter through one flat buffer; history,
        best step and parameter bytes equal a per-tensor Adam loop's."""
        config = tiny_config(variant=variant, l1=0.01, l2=0.02, dropout_rate=0.2)
        samples = tiny_samples(config, n_days=40)
        tcfg = TR.TrainConfig(max_steps=9, eval_every=2, batch_size=3, seed=5,
                              clip_norm=clip_norm, learning_rate=0.01,
                              early_stop_patience=3)
        params = M.init_model(config, seed=5)
        result = TR.train(samples, params, config, tcfg)
        reference = M.init_model(config, seed=5)
        history, best_step, clipped = H.reference_train(samples, reference,
                                                        config, tcfg)
        assert (clipped == len(history)) if clip_norm < 1 else clipped == 0
        assert [(r.step, r.train_loss, r.valid_loss)
                for r in result.history] == history
        assert result.best_step == best_step
        for (n, got, _), (_, want, _) in zip(M.named_tensors(params),
                                             M.named_tensors(reference)):
            assert got.data.dtype == want.data.dtype == np.float32, n
            assert got.data.tobytes() == want.data.tobytes(), n

    def test_parameters_share_one_buffer_after_train(self):
        config = tiny_config()
        params = M.init_model(config, seed=2)
        before = snapshot(params)
        TR.train(tiny_samples(config), params, config, TR.TrainConfig(max_steps=0))
        datas = [t.data for _, t, _ in M.named_tensors(params)]
        base = datas[0].base
        assert base is not None and all(d.base is base for d in datas)
        for n, t, _ in M.named_tensors(params):
            assert t.data.tobytes() == before[n].tobytes(), n

    def test_zero_learning_rate_never_moves(self):
        config = tiny_config(dropout_rate=0.1)
        samples = tiny_samples(config)
        params = M.init_model(config, seed=1)
        before = snapshot(params)
        result = TR.train(samples, params, config,
                          TR.TrainConfig(learning_rate=0.0, max_steps=12,
                                         eval_every=4, batch_size=3))
        assert result.steps_run >= 1
        for n, t, _ in M.named_tensors(params):
            assert t.data.tobytes() == before[n].tobytes(), n

    def test_max_steps_zero_is_identity(self):
        config = tiny_config()
        samples = tiny_samples(config)
        params = M.init_model(config, seed=2)
        before = snapshot(params)
        result = TR.train(samples, params, config, TR.TrainConfig(max_steps=0))
        assert result.history == ()
        for n, t, _ in M.named_tensors(params):
            assert t.data.tobytes() == before[n].tobytes()


class TestTrainLoop:
    def test_same_seed_identical_history_and_params(self):
        config = tiny_config(dropout_rate=0.2, l2=0.01)
        samples = tiny_samples(config)
        runs = []
        for _ in range(2):
            params = M.init_model(config, seed=5)
            result = TR.train(samples, params, config,
                              TR.TrainConfig(max_steps=30, eval_every=5,
                                             batch_size=4, seed=11))
            runs.append((result.history, snapshot(params)))
        assert runs[0][0] == runs[1][0]
        for n in runs[0][1]:
            assert runs[0][1][n].tobytes() == runs[1][1][n].tobytes()

    def test_first_epoch_is_a_shuffled_pass_over_the_data(self):
        """With lr=0 and batch_size=1, step losses enumerate per-sample losses
        in the epoch's shuffled order, visiting every sample exactly once."""
        config = tiny_config()
        samples = tiny_samples(config)
        n = len(samples.train)
        params = M.init_model(config, seed=7)
        individual = []
        for s in samples.train:
            pred = M.forward(None, s, params, config)
            individual.append(float(M.loss(None, pred, s, params, config).data[0]))
        result = TR.train(samples, params, config,
                          TR.TrainConfig(learning_rate=0.0, max_steps=n,
                                         batch_size=1, eval_every=n, seed=13))
        got = [row.train_loss for row in result.history]
        assert sorted(got) == pytest.approx(sorted(individual), rel=1e-12)
        assert got != individual  # seed 13 must actually permute

    def test_nan_loss_aborts_with_diagnostics(self):
        config = tiny_config()
        samples = tiny_samples(config)
        params = M.init_model(config, seed=8)
        params.head_b.data[...] = np.inf
        with pytest.raises(TR.TrainingAbort) as err:
            TR.train(samples, params, config,
                     TR.TrainConfig(max_steps=5, batch_size=2))
        assert err.value.step == 1
        assert len(err.value.sample_ids) == 2
        assert not np.isfinite(err.value.losses).all()

    def test_best_params_match_min_recorded_validation_loss(self):
        config = tiny_config()
        samples = tiny_samples(config, n_days=30)
        params = M.init_model(config, seed=9)
        result = TR.train(samples, params, config,
                          TR.TrainConfig(max_steps=40, eval_every=5,
                                         batch_size=4, learning_rate=0.01))
        recorded = [r.valid_loss for r in result.history if r.valid_loss is not None]
        assert result.best_valid == min(recorded)
        assert TR.eval_loss(samples.valid, result.params, config) == \
            pytest.approx(result.best_valid, rel=1e-12)

    def test_eval_loss_chunks_match_one_sample_losses(self, monkeypatch):
        config = tiny_config(variant="lstm_wo")
        samples = tiny_samples(config, n_days=30)
        params = M.init_model(config, seed=15)
        individual = [float(M.loss(None, M.forward(None, s, params, config), s,
                                   params, config).data[0]) for s in samples.train]
        monkeypatch.setattr(TR, "EVAL_CHUNK", 4)
        assert len(samples.train) % 4 != 0
        assert len(set(H.pass_sizes(samples.train, config))) >= 2
        assert TR.eval_loss(samples.train, params, config) == \
            pytest.approx(np.mean(individual), rel=1e-6)

    def test_patience_stops_early(self):
        config = tiny_config()
        samples = tiny_samples(config)
        params = M.init_model(config, seed=10)
        result = TR.train(samples, params, config,
                          TR.TrainConfig(learning_rate=0.0, max_steps=500,
                                         eval_every=2, early_stop_patience=3,
                                         batch_size=4))
        # eval at step 2 sets the best; three non-improving evals follow
        assert result.steps_run == 8
        assert result.best_step == 2

    def test_clipped_gradient_norm_bound(self):
        """Post-clip global norm stays within clip_norm + 1e-6."""
        config = tiny_config()
        samples = tiny_samples(config)
        params = M.init_model(config, seed=12)
        params.head_w.data[...] *= 50.0  # inflate so clipping engages
        grads = {n: np.zeros(t.shape, np.float64)
                 for n, t, _ in M.named_tensors(params)}
        for s in samples.train[:4]:
            tape = T.Tape()
            pred = M.forward(tape, s, params, config)
            tape.backward(M.loss(tape, pred, s, params, config))
            for n, t, _ in M.named_tensors(params):
                grads[n] += t.grad
                t.grad = None
        for g in grads.values():
            g /= 4.0
        assert TR._global_norm(grads) > 5.0
        shrink = 5.0 / TR._global_norm(grads)
        for g in grads.values():
            g *= shrink
        assert TR._global_norm(grads) <= 5.0 + 1e-6

    def test_l2_only_step_shrinks_weight_norm(self):
        """With zero prediction error, one small Adam step reduces sum(w^2)."""
        config = tiny_config(l2=0.01)
        samples = tiny_samples(config)
        params = M.init_model(config, seed=14)
        pred = M.forward(None, samples.train[0], params, config)
        frozen = dataclasses.replace(
            samples,
            train=(dataclasses.replace(
                samples.train[0], target_n=float(pred.value.data[0])),),
            valid=samples.valid)
        before = sum((t.data.astype(np.float64) ** 2).sum()
                     for _, t, d in M.named_tensors(params) if d)
        tcfg = TR.TrainConfig(learning_rate=1e-4, max_steps=1, eval_every=1,
                              batch_size=1)
        params2 = M.init_model(config, seed=14)
        TR.train(frozen, params2, config, tcfg)
        # the eval snapshot is post-step; compare norms directly
        after_step = sum((t.data.astype(np.float64) ** 2).sum()
                         for _, t, d in M.named_tensors(params2) if d)
        if after_step == before:  # best snapshot restored the init
            pytest.fail("step did not run")
        assert after_step < before

    def test_empty_split_rejected(self):
        config = tiny_config()
        samples = tiny_samples(config)
        empty = dataclasses.replace(samples, valid=())
        with pytest.raises(TR.TrainingError):
            TR.train(empty, M.init_model(config, 0), config, TR.TrainConfig())

    def test_recovery_training_bytes_are_pinned(self):
        """40 steps of the recovery script's msin config (dropout 0.4, no
        penalties) at batch 8 on a small planted corpus give the history
        rows and parameter bytes pinned here, so a change to training's
        arithmetic fails in about a second rather than in criterion 04."""
        spec = importlib.util.spec_from_file_location(
            "association_recovery", ROOT / "scripts" / "association_recovery.py")
        recovery = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(recovery)
        config = recovery.model_config("msin")
        corpus, series = D.synth_generate(D.SynthSpec(
            n_days=120, n_docs=(10, 10), doc_len=(8, 8), plant_per_day=True,
            phi=0.5, alpha=1.0, sigma=0.1, seed=42))
        vocab = D.build_vocab(corpus, max_size=config.vocab_size)
        samples = D.make_samples(corpus, series, vocab, config,
                                 D.SplitSpec(fracs=(0.8, 0.1, 0.1)))
        params = M.init_model(config, seed=0)
        result = TR.train(samples, params, config, TR.TrainConfig(
            learning_rate=recovery.LEARNING_RATE, batch_size=8, max_steps=40,
            eval_every=20, seed=0))
        digest = hashlib.sha256()
        for row in result.history:
            digest.update(repr((row.step, row.train_loss, row.valid_loss)).encode())
        for _, t, _ in M.named_tensors(params):
            digest.update(t.data.tobytes())
        assert len(result.history) == 40
        assert digest.hexdigest() == RECOVERY_TRAINING_SHA256


class TestPenalty:
    @pytest.mark.parametrize("l1,l2", [(0.3, 0.0), (0.0, 0.7), (0.3, 0.7)])
    def test_gradient_matches_central_differences(self, l1, l2):
        """The penalty's gradient against float64 central differences of its
        value, with every entry at least 0.05 from the kink of |w|."""
        rng = np.random.default_rng(12)
        w = rng.uniform(0.05, 1.0, 40) * rng.choice([-1.0, 1.0], 40)
        _, grad = TR._penalty(w, l1, l2)
        h = 1e-6
        numeric = np.empty_like(w)
        for i in range(w.size):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (TR._penalty(up, l1, l2)[0]
                          - TR._penalty(down, l1, l2)[0]) / (2 * h)
        err = np.abs(grad - numeric) / np.maximum(np.abs(grad), 1.0)
        assert err.max() < 1e-6


class TestEvalPasses:
    """``eval_passes`` fills each forward-only pass up to EVAL_CHUNK full
    days' document slots."""

    @given(cap=st.integers(1, 12),
           counts=st.lists(st.integers(1, 14), max_size=60))
    def test_passes_cover_samples_in_order_within_budget(self, cap, counts):
        bounds = list(TR.eval_passes(counts, cap))
        assert [i for lo, hi in bounds for i in range(lo, hi)] == \
            list(range(len(counts)))
        budget = TR.EVAL_CHUNK * cap
        for lo, hi in bounds:
            assert hi > lo
            if hi - lo > 1:
                assert sum(counts[lo:hi]) <= budget
                assert (hi - lo) * max(counts[lo:hi]) <= budget
            # a pass stops only where the next sample would overflow its grid
            if hi < len(counts):
                assert (hi + 1 - lo) * max(counts[lo:hi + 1]) > budget

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 36, 37, 38, 47, 200])
    def test_days_at_the_cap_take_fixed_slices(self, n):
        chunk = TR.EVAL_CHUNK
        assert list(TR.eval_passes([10] * n, 10)) == \
            [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    def test_sparse_days_share_wider_passes(self):
        chunk = TR.EVAL_CHUNK
        budget = chunk * 10
        k = budget // 3
        assert k > chunk
        bounds = list(TR.eval_passes([2, 3] * k, 10))
        # k days of at most 3 documents fill 3k of the budget's slots
        assert bounds == [(0, k), (k, 2 * k)]
        assert list(TR.eval_passes([1] * (budget + 40), 10)) == \
            [(0, budget), (budget, budget + 40)]
        # one day at the cap pads its pass's grid to the cap
        assert list(TR.eval_passes([10] + [1] * (chunk + 24), 10)) == \
            [(0, chunk), (chunk, chunk + 25)]

    def test_day_over_budget_runs_alone(self):
        assert list(TR.eval_passes([2, 50, 2, 2], 1)) == \
            [(0, 1), (1, 2), (2, 4)]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TR.TrainConfig(early_stop_patience=0)
        with pytest.raises(ValueError):
            TR.TrainConfig(clip_norm=0.0)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("clip_norm", float("nan")),
        ("clip_norm", float("inf"))])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TR.TrainConfig(**{field: value})

    def test_round_trip(self):
        tcfg = TR.TrainConfig(max_steps=7, seed=5)
        assert TR.TrainConfig(**dataclasses.asdict(tcfg)) == tcfg


class TestCheckpoint:
    def roundtrip_setup(self, tmp_path, variant="msin"):
        config = tiny_config(variant=variant, l1=0.005)
        params = M.init_model(config, seed=33)
        tcfg = TR.TrainConfig(max_steps=3, seed=9)
        metadata = {"step": 3, "seed": 9, "valid_loss": 0.25,
                    "vocab": ["<pad>", "<unk>", "up"],
                    "series_mean": 0.5, "series_std": 2.0}
        path = str(tmp_path / "model.ckpt")
        TR.checkpoint_save(params, config, tcfg, metadata, path)
        return config, params, tcfg, metadata, path

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_round_trip_bitwise(self, tmp_path, variant):
        config, params, tcfg, metadata, path = self.roundtrip_setup(tmp_path, variant)
        loaded, config2, tcfg2, metadata2 = TR.checkpoint_load(path)
        assert config2 == config and tcfg2 == tcfg and metadata2 == metadata
        for (n1, t1, _), (n2, t2, _) in zip(M.named_tensors(params),
                                            M.named_tensors(loaded)):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        config, params, tcfg, metadata, path = self.roundtrip_setup(tmp_path)
        loaded, config2, tcfg2, metadata2 = TR.checkpoint_load(path)
        path2 = str(tmp_path / "again.ckpt")
        TR.checkpoint_save(loaded, config2, tcfg2, metadata2, path2)
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("section", ["model", "train"])
    def test_unknown_config_key_rejected(self, tmp_path, section):
        _, _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = open(path, "rb").read()
        size = int.from_bytes(blob[8:12], "little")
        meta = json.loads(blob[12:12 + size])
        meta[section]["bogus"] = 1
        text = json.dumps(meta).encode("utf-8")
        bad = tmp_path / "extra.ckpt"
        bad.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text
                        + blob[12 + size:])
        with pytest.raises(TR.CheckpointError, match="bogus"):
            TR.checkpoint_load(str(bad))

    def test_corrupt_magic_rejected(self, tmp_path):
        _, _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XSN1"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(TR.CheckpointError, match="magic"):
            TR.checkpoint_load(str(bad))

    def test_truncation_names_the_tensor(self, tmp_path):
        _, _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = open(path, "rb").read()
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(blob[:-3])
        with pytest.raises(TR.CheckpointError, match="truncated.*head.bias"):
            TR.checkpoint_load(str(bad))

    def test_unknown_tensor_named(self, tmp_path):
        import struct as st
        config, params, tcfg, metadata, path = self.roundtrip_setup(tmp_path)
        blob = bytearray(open(path, "rb").read())
        # rename the first tensor record: embedding.table -> embedding.tXble
        idx = blob.find(b"embedding.table")
        blob[idx:idx + 15] = b"embedding.tXble"
        bad = tmp_path / "odd.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(TR.CheckpointError, match="tXble"):
            TR.checkpoint_load(str(bad))

    def test_version_guard(self, tmp_path):
        _, _, _, _, path = self.roundtrip_setup(tmp_path)
        for version in (1, 99):
            blob = bytearray(open(path, "rb").read())
            blob[4:8] = version.to_bytes(4, "little")
            bad = tmp_path / ("v%d.ckpt" % version)
            bad.write_bytes(bytes(blob))
            with pytest.raises(TR.CheckpointError,
                               match="unsupported format version %d" % version):
                TR.checkpoint_load(str(bad))

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, _, _, path = self.roundtrip_setup(tmp_path)
        blob = open(path, "rb").read() + b"\x00\x00"
        bad = tmp_path / "tail.ckpt"
        bad.write_bytes(blob)
        with pytest.raises(TR.CheckpointError, match="trailing"):
            TR.checkpoint_load(str(bad))
