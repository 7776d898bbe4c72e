"""Tests for ingestion, vocabulary, windowing, and the synthetic generator."""

import datetime as dt
import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msin import data as D
from msin.model import ModelConfig

import helpers as H


UNCAPPED = 100  # a daily cap above any day's document count here


def cfg(**kw):
    base = dict(variant="msin", d_s=3, d_h=2, d_w=3, vocab_size=16, m=2,
                series_dim=1, max_tokens=4, daily_doc_cap=3)
    base.update(kw)
    return ModelConfig(**base)


def mini_corpus(texts_by_day, start=dt.date(2020, 1, 1)):
    days = []
    for t, texts in enumerate(texts_by_day):
        docs = tuple(D.Document(text=s) for s in texts)
        days.append(D.Day(date=start + dt.timedelta(days=t), docs=docs))
    return D.Corpus(days=tuple(days))


class TestTokenize:
    def test_punctuation_strip(self):
        assert D.tokenize("Steve Jobs!") == ["steve", "jobs"]

    def test_empty(self):
        assert D.tokenize("") == []

    def test_separator_runs(self):
        assert D.tokenize("A-B  c") == ["a", "b", "c"]

    def test_truncation_and_digits(self):
        assert D.tokenize("one two three four", max_tokens=2) == ["one", "two"]
        assert D.tokenize("q3 earnings_call") == ["q3", "earnings", "call"]


class TestVocabulary:
    def test_single_word_corpus(self):
        corpus = mini_corpus([["x x", "x"]])
        vocab = D.build_vocab(corpus)
        assert vocab.tokens == ("<pad>", "<unk>", "x")
        assert vocab.ids["x"] == 2

    def test_unknown_maps_to_one(self):
        vocab = D.build_vocab(mini_corpus([["x"]]))
        batch = D.encode_day((D.Document("zzz x"),), vocab, max_tokens=2,
                             cap=UNCAPPED)
        assert batch.token_ids.tolist() == [[D.UNK_ID, 2]] and D.UNK_ID == 1
        assert vocab.ids["<pad>"] == 0

    def test_frequency_ranking_against_counter(self):
        """Id order must match an independent count-then-sort oracle."""
        rng = np.random.default_rng(3)
        words = ["w%d" % i for i in range(30)]
        texts = [" ".join(rng.choice(words, size=8)) for _ in range(40)]
        corpus = mini_corpus([texts])
        counts = Counter(t for s in texts for t in s.split())
        want = [t for t, _ in sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))]
        vocab = D.build_vocab(corpus, max_size=12)
        assert list(vocab.tokens[2:]) == want[:10]

    def test_allowed_filter(self):
        corpus = mini_corpus([["alpha beta beta gamma"]])
        vocab = D.build_vocab(corpus, allowed={"beta", "gamma"})
        assert vocab.tokens == ("<pad>", "<unk>", "beta", "gamma")

    def test_empty_corpus_rejected(self):
        with pytest.raises(D.DatasetError):
            D.build_vocab(D.Corpus(days=()))


def kept_by_encode_day(docs, cap):
    """The documents ``encode_day`` keeps of a day under ``cap``, each read
    back from its one token."""
    vocab = D.Vocabulary(tokens=(D.PAD_TOKEN, D.UNK_TOKEN)
                         + tuple(d.text for d in docs))
    batch = D.encode_day(docs, vocab, max_tokens=1, cap=cap)
    return tuple(docs[i - 2] for i in batch.token_ids[:, 0].tolist())


class TestCapDailyDocs:
    def test_keeps_last_suffix(self):
        docs = tuple(D.Document(text="d%d" % i) for i in range(30))
        kept = kept_by_encode_day(docs, cap=25)
        assert kept == docs[5:]

    def test_boundary_and_small(self):
        docs = tuple(D.Document(text="d%d" % i) for i in range(25))
        assert kept_by_encode_day(docs, cap=25) == docs
        assert kept_by_encode_day(docs[:1], cap=25) == docs[:1]

    @given(st.integers(0, 60), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_suffix_property(self, count, cap):
        docs = tuple(D.Document(text=str(i)) for i in range(count))
        kept = kept_by_encode_day(docs, cap=cap)
        assert len(kept) == min(count, cap)
        assert kept == docs[len(docs) - len(kept):]


class TestEncodeDay:
    def test_padding_and_unknowns(self):
        vocab = D.Vocabulary(tokens=("<pad>", "<unk>", "up", "down"))
        docs = (D.Document(text="Up up and away", relevant=True),
                D.Document(text="!!!"),
                D.Document(text="down", relevant=False))
        batch = D.encode_day(docs, vocab, max_tokens=4, cap=UNCAPPED)
        assert batch.n == 2
        np.testing.assert_array_equal(batch.token_ids,
                                      [[2, 2, 1, 1], [3, 0, 0, 0]])
        np.testing.assert_array_equal(batch.lengths, [4, 1])
        assert batch.relevance == (True, False)
        np.testing.assert_array_equal(batch.source_idx, [0, 2])


def encode_day_per_token(docs, vocab, max_tokens):
    """encode_day's fields built document by document, one token at a time."""
    position = {t: i for i, t in enumerate(vocab.tokens)}
    rows, lengths, flags, src = [], [], [], []
    for i, doc in enumerate(docs):
        toks = D.tokenize(doc.text, max_tokens)
        if not toks:
            continue
        ids = [position[t] if t in position else D.UNK_ID for t in toks]
        rows.append(ids + [D.PAD_ID] * (max_tokens - len(ids)))
        lengths.append(len(ids))
        flags.append(doc.relevant)
        src.append(i)
    return (np.asarray(rows, dtype=np.int64).reshape(len(rows), max_tokens),
            np.asarray(lengths, dtype=np.int64), tuple(flags),
            np.asarray(src, dtype=np.int64))


class TestEncodeDayReference:
    VOCAB = D.Vocabulary(tokens=("<pad>", "<unk>", "up", "down", "café", "株価",
                                 "q3", "x"))
    TEXTS = ("Up up DOWN and away again", "!!!", "", "café CAFÉ naïve 株価 上昇",
             "q3_earnings x-x", "___", "x", "Ünïcode ÄÖÜ ß", "down, down. down!",
             "١٢٣ digits ٤")

    def assert_same(self, docs, max_tokens):
        got = D.encode_day(docs, self.VOCAB, max_tokens, UNCAPPED)
        ids, lengths, flags, src = encode_day_per_token(docs, self.VOCAB, max_tokens)
        assert got.token_ids.dtype == ids.dtype and got.token_ids.shape == ids.shape
        assert got.token_ids.tobytes() == ids.tobytes()
        assert got.lengths.dtype == lengths.dtype
        assert got.lengths.tobytes() == lengths.tobytes()
        assert got.relevance == flags
        assert got.source_idx.tobytes() == src.tobytes()

    @pytest.mark.parametrize("max_tokens", [0, 1, 2, 4, 8])
    def test_fixed_texts(self, max_tokens):
        """Unknown tokens, truncation, documents left empty, non-ASCII."""
        docs = tuple(D.Document(t, relevant=(i % 3 == 0) if i % 2 else None)
                     for i, t in enumerate(self.TEXTS))
        self.assert_same(docs, max_tokens)

    def test_day_left_empty(self):
        docs = (D.Document("!!!"), D.Document(""), D.Document("___"))
        self.assert_same(docs, 4)
        assert D.encode_day(docs, self.VOCAB, 4, UNCAPPED).token_ids.shape \
            == (0, 4)

    @given(st.lists(st.text(alphabet="upDOWNcaféx 株価_-!3", max_size=30),
                    max_size=8), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_days(self, texts, max_tokens):
        self.assert_same(tuple(D.Document(t) for t in texts), max_tokens)


class TestBulkNormalization:
    """Every sample's values_n and target_n equal per-sample normalization."""

    def check(self, sset):
        for s in sset.train + sset.valid + sset.test:
            want = sset.stats.normalize(s.window.values)
            assert s.values_n.dtype == np.float32
            assert s.values_n.shape == want.shape
            assert s.values_n.tobytes() == want.tobytes()
            target = sset.stats.normalize(np.asarray([[s.window.target]]))[0, 0]
            assert np.float32(s.target_n).tobytes() == target.tobytes()
            assert s.target_n == float(target)

    @pytest.mark.parametrize("series_dim", [1, 3])
    def test_fitted_stats(self, series_dim):
        corpus, series = D.synth_generate(D.SynthSpec(n_days=40, seed=4, sigma=0.7))
        if series_dim > 1:
            values = np.random.default_rng(1).normal(size=(40, series_dim)) * 1e3
            series = D.Series(dates=series.dates, values=values)
        config = cfg(m=3, series_dim=series_dim)
        sset = D.make_samples(corpus, series, D.build_vocab(corpus), config,
                              D.SplitSpec(fracs=(0.6, 0.2, 0.2)))
        train = sset.train
        pool = np.concatenate([s.window.values.reshape(-1) for s in train]
                              + [np.asarray([s.window.target]) for s in train])
        assert sset.stats.mean == float(pool.mean())
        assert sset.stats.std == float(pool.std())
        self.check(sset)

    def test_given_stats_and_one_sample(self):
        corpus, series = D.synth_generate(D.SynthSpec(n_days=30, seed=6))
        stats = D.SeriesStats(mean=0.3, std=1.7)
        sset = D.make_samples(corpus, series, D.build_vocab(corpus), cfg(m=4),
                              D.SplitSpec(fracs=(0.0, 0.5, 0.5)), stats=stats)
        assert sset.train == ()
        self.check(sset)
        s = sset.test[-1]
        one, = D.to_samples([(s.window, s.docs)], stats)
        assert one.values_n.tobytes() == s.values_n.tobytes()
        assert one.target_n == s.target_n
        assert D.to_samples([], stats) == ()


class TestMakeSamples:
    def frac_split(self):
        return D.SplitSpec(fracs=(0.7, 0.15, 0.15))

    def test_minimal_single_sample(self):
        config = cfg(m=2)
        corpus = mini_corpus([[], [], ["some news today"]])
        vocab = D.build_vocab(corpus)
        dates = corpus.days[0].date, corpus.days[1].date, corpus.days[2].date
        series = D.Series(dates=dates, values=np.array([[1.], [2.], [3.]]))
        got = D.make_samples(corpus, series, vocab, config,
                             D.SplitSpec(fracs=(1.0, 0.0, 0.0)))
        assert (len(got.train), len(got.valid), len(got.test)) == (1, 0, 0)
        assert got.skipped_no_docs == 2
        s = got.train[0]
        np.testing.assert_array_equal(s.window.values, [[1.0], [2.0]])
        assert s.window.target == 3.0 and s.window.prev == 2.0

    def test_skip_counting(self):
        config = cfg(m=1)
        corpus = mini_corpus([["day zero"], [], ["day two"], ["day three"]])
        dates = tuple(d.date for d in corpus.days)
        series = D.Series(dates=dates[:3], values=np.arange(3.)[:, None])
        vocab = D.build_vocab(corpus)
        got = D.make_samples(corpus, series, vocab, config,
                             D.SplitSpec(fracs=(1.0, 0.0, 0.0)))
        # day 0 lacks history, day 1 empty, day 3 missing from the series
        assert got.skipped_short_history == 1
        assert got.skipped_no_docs == 1
        assert got.skipped_no_series == 1
        assert len(got.train) == 1

    def test_count_matches_enumeration(self):
        """Sample count equals a brute-force scan over eligible days."""
        spec = D.SynthSpec(n_days=100, seed=7, n_docs=(1, 3))
        corpus, series = D.synth_generate(spec)
        config = cfg(m=5)
        vocab = D.build_vocab(corpus)
        got = D.make_samples(corpus, series, vocab, config, self.frac_split())
        row = {d: i for i, d in enumerate(series.dates)}
        want = 0
        for day in corpus.days:
            docs = H.cap_daily_docs(day.docs, config.daily_doc_cap)
            usable = sum(1 for d in docs if D.tokenize(d.text, config.max_tokens))
            if usable and day.date in row and row[day.date] >= config.m:
                want += 1
        assert len(got.train) + len(got.valid) + len(got.test) == want

    def test_fraction_split_sizes(self):
        spec = D.SynthSpec(n_days=60, seed=1, n_docs=(1, 2), plant_prob=0.0)
        corpus, series = D.synth_generate(spec)
        config = cfg(m=3)
        got = D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                             config=config, split=self.frac_split())
        n = len(got.train) + len(got.valid) + len(got.test)
        assert len(got.train) == int(n * 0.7)
        assert len(got.train) + len(got.valid) == int(n * 0.85)
        dates = [s.window.date for s in got.train + got.valid + got.test]
        assert dates == sorted(dates)

    def test_date_split_boundaries_inclusive(self):
        spec = D.SynthSpec(n_days=30, seed=2)
        corpus, series = D.synth_generate(spec)
        config = cfg(m=2)
        train_until = corpus.days[14].date
        valid_until = corpus.days[19].date
        got = D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                             config=config,
                             split=D.SplitSpec(train_until=train_until,
                                               valid_until=valid_until))
        assert all(s.window.date <= train_until for s in got.train)
        assert all(train_until < s.window.date <= valid_until for s in got.valid)
        assert all(s.window.date > valid_until for s in got.test)

    def test_normalization_uses_train_stats_only(self):
        config = cfg(m=1)
        corpus = mini_corpus([["a"], ["b"], ["c"], ["d"]])
        dates = tuple(d.date for d in corpus.days)
        series = D.Series(dates=dates, values=np.array([[0.], [2.], [4.], [100.]]))
        got = D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                             config=config,
                             split=D.SplitSpec(train_until=dates[2],
                                               valid_until=dates[3]))
        # train windows: values {0,2} with targets {2,4}; the 100 is validation
        pool = np.array([0.0, 2.0, 2.0, 4.0])
        assert got.stats.mean == pool.mean()
        assert got.stats.std == pool.std()
        s = got.train[0]
        np.testing.assert_allclose(s.values_n,
                                   (s.window.values - pool.mean()) / pool.std(),
                                   rtol=1e-6)
        v = got.valid[0]
        np.testing.assert_allclose(
            v.target_n, (100.0 - pool.mean()) / pool.std(), rtol=1e-6)

    def test_constant_series_std_fallback(self):
        config = cfg(m=1)
        corpus = mini_corpus([["a"], ["b"]])
        dates = tuple(d.date for d in corpus.days)
        series = D.Series(dates=dates, values=np.ones((2, 1)))
        got = D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                             config=config, split=D.SplitSpec(fracs=(1., 0., 0.)))
        assert got.stats.std == 1.0
        assert got.train[0].target_n == 0.0

    def test_empty_result_is_an_error(self):
        config = cfg(m=5)
        corpus = mini_corpus([["just one day"]])
        series = D.Series(dates=(corpus.days[0].date,), values=np.zeros((1, 1)))
        with pytest.raises(D.DatasetError):
            D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                           config=config, split=self.frac_split())

    def test_docs_capped_and_window_sized(self):
        spec = D.SynthSpec(n_days=40, seed=3, n_docs=(4, 8))
        corpus, series = D.synth_generate(spec)
        config = cfg(m=4, daily_doc_cap=5)
        got = D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                             config=config, split=self.frac_split())
        for s in got.train + got.valid + got.test:
            assert 1 <= s.docs.n <= 5
            assert s.window.values.shape == (4, 1)
            assert s.values_n.dtype == np.float32


class TestSplitSpec:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(D.DatasetError):
            D.SplitSpec()
        with pytest.raises(D.DatasetError):
            D.SplitSpec(train_until=dt.date(2020, 1, 5),
                        valid_until=dt.date(2020, 1, 2))
        with pytest.raises(D.DatasetError):
            D.SplitSpec(fracs=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("fracs", [(float("nan"), 0.5, 0.5),
                                       (0.5, float("inf"), 0.5),
                                       (1.5, -0.25, -0.25), (0.5, 0.5)])
    def test_rejects_fractions_that_are_not_a_partition(self, fracs):
        """nan compares false against every bound, so it needs its own check."""
        with pytest.raises(D.DatasetError, match="finite"):
            D.SplitSpec(fracs=fracs)


# sha256 of the save_corpus and save_series bytes of 60-day corpora, recorded
# when every bounded draw still called the generator: the recovery shape, the
# default spec (ranged counts, plant_prob 0.3), and days whose every bounded
# draw has one value
STREAM_PINS = {
    "recovery": (dict(n_docs=(10, 10), doc_len=(8, 8), plant_per_day=True),
                 "340f115d11fe49d93ab3d83b6112325e0fc7d829e7675f0c46023d0fbb39fef6",
                 "5b9f1f9c1e60fa755e9774e276723b832a2a4f0512b812b712800f1d2995c7db"),
    "default": ({},
                "e5914743957299b18fbbcc0d336e79691d34644b3be074ebafe30cf0b126a9af",
                "d4c3ee0eadf9aa2cbba361479b7c23e451ed70a1c597b4041780f801523e41f8"),
    "one_value": (dict(n_docs=(1, 1), doc_len=(1, 1), s_plus=("up",),
                       s_minus=("down",), plant_per_day=True),
                  "b267ad727a347ac9734171e757ea174c3cd0f18275416f84ec80172480155b71",
                  "8b5ddf3a2f6bc7e4c8acad8bfa3d9092944acbf0598d21a33c415485a3d7d592"),
}


@st.composite
def synth_specs(draw):
    """Specs whose count ranges hold one value or several, in both plant
    modes, with lexicons of 1-3 words and sigma zero or positive."""
    def count_range():
        lo = draw(st.integers(1, 4))
        return lo, lo if draw(st.booleans()) else draw(st.integers(lo + 1, 6))

    return D.SynthSpec(
        n_days=draw(st.integers(1, 12)), n_docs=count_range(),
        doc_len=count_range(), vocab_size=draw(st.integers(1, 20)),
        s_plus=("surge", "gain", "rally")[:draw(st.integers(1, 3))],
        s_minus=("slump", "drop", "tumble")[:draw(st.integers(1, 3))],
        sigma=draw(st.sampled_from([0.0, 0.1, 0.7])),
        plant_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        plant_per_day=draw(st.booleans()), seed=draw(st.integers(0, 2**32)))


class TestSynthGenerate:
    @pytest.mark.parametrize("name", sorted(STREAM_PINS))
    def test_stream_is_pinned(self, tmp_path, name):
        kw, corpus_sha, series_sha = STREAM_PINS[name]
        corpus, series = D.synth_generate(D.SynthSpec(n_days=60, **kw))
        D.save_corpus(corpus, str(tmp_path / "corpus.jsonl"))
        D.save_series(series, str(tmp_path / "series.csv"))
        assert hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()) \
            .hexdigest() == corpus_sha
        assert hashlib.sha256((tmp_path / "series.csv").read_bytes()) \
            .hexdigest() == series_sha

    @given(synth_specs())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_reference_generator(self, spec):
        corpus, series = D.synth_generate(spec)
        ref_corpus, ref_series = H.reference_synth_generate(spec)
        assert corpus == ref_corpus
        assert series.dates == ref_series.dates
        assert series.values.tobytes() == ref_series.values.tobytes()

    def test_noise_free_series_is_exact_signal_count(self):
        spec = D.SynthSpec(n_days=25, seed=11, phi=0.0, alpha=1.0, sigma=0.0,
                           plant_prob=0.6)
        corpus, series = D.synth_generate(spec)
        plus, minus = set(spec.s_plus), set(spec.s_minus)
        for day, value in zip(corpus.days, series.values[:, 0]):
            z = 0
            for doc in day.docs:
                toks = set(doc.text.split())
                z += len(toks & plus) > 0
                z -= len(toks & minus) > 0
            assert value == float(z)

    def test_alpha_zero_sigma_zero_is_flat(self):
        _, series = D.synth_generate(
            D.SynthSpec(n_days=10, seed=4, alpha=0.0, sigma=0.0))
        assert (series.values == 0.0).all()

    def test_seed_reproducibility_bitwise(self):
        spec = D.SynthSpec(n_days=30, seed=123)
        c1, s1 = D.synth_generate(spec)
        c2, s2 = D.synth_generate(spec)
        assert c1 == c2
        assert s1.values.tobytes() == s2.values.tobytes()
        c3, _ = D.synth_generate(D.SynthSpec(n_days=30, seed=124))
        assert c3 != c1

    def test_flags_mark_exactly_signal_docs(self):
        spec = D.SynthSpec(n_days=40, seed=5, plant_prob=0.5)
        corpus, _ = D.synth_generate(spec)
        signal = set(spec.s_plus) | set(spec.s_minus)
        flagged = some_signal = 0
        for day in corpus.days:
            for doc in day.docs:
                has_signal = bool(set(doc.text.split()) & signal)
                assert doc.relevant == has_signal
                flagged += doc.relevant
                some_signal += has_signal
        assert flagged == some_signal > 0

    def test_ranges_and_dates(self):
        spec = D.SynthSpec(n_days=20, seed=6, n_docs=(2, 4), doc_len=(3, 5))
        corpus, series = D.synth_generate(spec)
        assert len(corpus.days) == 20
        assert corpus.days[0].date == dt.date(2000, 1, 1)
        for a, b in zip(corpus.days, corpus.days[1:]):
            assert (b.date - a.date).days == 1
        for day in corpus.days:
            assert 2 <= len(day.docs) <= 4
            for doc in day.docs:
                assert 3 <= len(doc.text.split()) <= 5

    def test_plant_per_day_exactly_one(self):
        spec = D.SynthSpec(n_days=15, seed=7, plant_per_day=True)
        corpus, _ = D.synth_generate(spec)
        for day in corpus.days:
            assert sum(bool(d.relevant) for d in day.docs) == 1

    def test_spec_validation(self):
        with pytest.raises(D.DatasetError):
            D.SynthSpec(s_plus=("up",), s_minus=("up",))
        with pytest.raises(D.DatasetError):
            D.SynthSpec(phi=1.0)
        with pytest.raises(D.DatasetError):
            D.SynthSpec(sigma=-0.1)
        with pytest.raises(D.DatasetError):
            D.SynthSpec(n_docs=(3, 2))

    @pytest.mark.parametrize("field", ["sigma", "alpha"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_spec_rejected(self, field, value):
        with pytest.raises(D.DatasetError, match="finite"):
            D.SynthSpec(**{field: value})


class TestFileFormats:
    def test_corpus_round_trip(self, tmp_path):
        corpus, _ = D.synth_generate(D.SynthSpec(n_days=12, seed=8))
        path = str(tmp_path / "corpus.jsonl")
        D.save_corpus(corpus, path)
        assert H.load_corpus(path) == corpus

    def test_corpus_null_flags_survive(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"date":"2020-01-01","headlines":'
                        '[{"text":"hello","relevant":null}]}\n')
        corpus = H.load_corpus(str(path))
        assert corpus.days[0].docs[0].relevant is None

    def test_corpus_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"date":"2020-01-01","headlines":[]}\n'
                        'not json\n')
        with pytest.raises(D.DatasetError, match="line 2"):
            D.load_corpus(str(path))

    def test_corpus_byte_order_mark_is_skipped(self, tmp_path):
        """A UTF-8 byte-order mark, as Excel and PowerShell write it, is not
        part of the first line."""
        path = tmp_path / "c.jsonl"
        path.write_text('\ufeff{"date":"2020-01-01","headlines":[{"text":"a"}]}\n',
                        encoding="utf-8")
        assert H.load_corpus(str(path)).days[0].docs == (D.Document("a", None),)

    def test_corpus_date_order_enforced(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"date":"2020-01-02","headlines":[]}\n'
                        '{"date":"2020-01-01","headlines":[]}\n')
        with pytest.raises(D.DatasetError, match="increasing"):
            D.load_corpus(str(path))

    @pytest.mark.parametrize("headline", [
        '{"text": 5}', '{"text": null}', '{"text": ["a"]}',
        '{"text": "x", "relevant": 1}', '{"text": "x", "relevant": 0.0}',
        '{"text": "x", "relevant": "yes"}',
    ])
    def test_corpus_headline_values_checked(self, tmp_path, headline):
        path = tmp_path / "c.jsonl"
        path.write_text('{"date":"2020-01-01","headlines":[{"text":"ok"}]}\n'
                        '{"date":"2020-01-02","headlines":[%s]}\n' % headline)
        with pytest.raises(D.DatasetError,
                           match="c.jsonl line 2: headline .* needs a string"):
            D.load_corpus(str(path))

    def test_corpus_flags_read_as_given(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"date":"2020-01-01","headlines":[{"text":"a",'
                        '"relevant":true},{"text":"b","relevant":false},'
                        '{"text":"c"}]}\n')
        docs = H.load_corpus(str(path)).days[0].docs
        assert docs == (D.Document("a", True), D.Document("b", False),
                        D.Document("c", None))

    def test_series_round_trip_bitwise(self, tmp_path):
        _, series = D.synth_generate(D.SynthSpec(n_days=9, seed=9))
        path = str(tmp_path / "series.csv")
        D.save_series(series, path)
        back = D.load_series(path)
        assert back.dates == series.dates
        assert back.values.tobytes() == series.values.tobytes()

    def test_series_header_and_field_errors(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("time,value\n2020-01-01,1.0\n")
        with pytest.raises(D.DatasetError, match="header"):
            D.load_series(str(bad_header))
        bad_row = tmp_path / "b.csv"
        bad_row.write_text("date,value\n2020-01-01,1.0\n2020-01-02,oops\n")
        with pytest.raises(D.DatasetError, match="line 3"):
            D.load_series(str(bad_row))

    def test_series_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\ufeffdate,value\n2020-01-01,1.5\n", encoding="utf-8")
        series = D.load_series(str(path))
        assert series.dates == (dt.date(2020, 1, 1),)
        assert series.values.tolist() == [[1.5]]

    def test_series_non_finite_value_names_its_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,v1,v2\n2020-01-01,1.0,2.0\n\n"
                        "2020-01-02,3.0,nan\n2020-01-03,inf,1.0\n")
        with pytest.raises(D.DatasetError,
                           match=r"s\.csv line 4: non-finite value"):
            D.load_series(str(path))

    def test_series_date_order_names_its_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2020-01-02,1.0\n2020-01-03,2.0\n"
                        "2020-01-03,3.0\n")
        with pytest.raises(D.DatasetError,
                           match=r"s\.csv line 4: dates not strictly increasing "
                                 r"at 2020-01-03"):
            D.load_series(str(path))

    def test_series_values_parse_as_python_floats(self, tmp_path):
        """Each field is read by float(): spaces, exponents, signs, ints."""
        path = tmp_path / "s.csv"
        fields = [" 1", "-0.0", "1e-320", "3.141592653589793238", "+7", "0x0"]
        rows = ["2020-01-%02d,%s,%s" % (i + 1, f, "2.5") for i, f in
                enumerate(fields[:-1])]
        path.write_text("date,a,b\n" + "\n".join(rows) + "\n")
        got = D.load_series(str(path)).values
        want = np.asarray([[float(f), 2.5] for f in fields[:-1]])
        assert got.shape == (5, 2) and got.tobytes() == want.tobytes()
        path.write_text("date,a\n2020-01-01,%s\n" % fields[-1])
        with pytest.raises(D.DatasetError, match="line 2"):
            D.load_series(str(path))

    def test_multicolumn_series(self, tmp_path):
        series = D.Series(dates=(dt.date(2020, 1, 1), dt.date(2020, 1, 2)),
                          values=np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = str(tmp_path / "wide.csv")
        D.save_series(series, path)
        with open(path) as fh:
            assert fh.readline().strip() == "date,v1,v2"
        np.testing.assert_array_equal(D.load_series(path).values, series.values)


# Words that cover the tokenizer's cases: ASCII, non-ASCII letters (a capital
# sigma lowercases by its context), underscores, digits, punctuation alone,
# a newline inside a headline and non-Latin digits.
_WORDS = ("Up", "up", "DOWN", "café", "ΣΑΣ", "ς", "株価", "q3", "x_y", "___",
          "!!!", "...", "١٢٣", "İstanbul", "a\nb", "x", "w1", "-")
_FLAGS = (True, False, None, "absent")


def write_corpus(path, days, bom):
    """days: per day a list of (text, flag) pairs, "absent" for no flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\ufeff" if bom else "")
        for i, docs in enumerate(days):
            heads = [{"text": t} if f == "absent" else {"text": t, "relevant": f}
                     for t, f in docs]
            rec = {"date": (dt.date(2020, 1, 1) + dt.timedelta(days=i)).isoformat(),
                   "headlines": heads}
            fh.write(json.dumps(rec, ensure_ascii=i % 2 == 0) + "\n")


def assert_same_sets(got, want):
    assert (got.skipped_no_docs, got.skipped_no_series,
            got.skipped_short_history) == (want.skipped_no_docs,
                                           want.skipped_no_series,
                                           want.skipped_short_history)
    assert got.stats == want.stats
    for part in ("train", "valid", "test"):
        for g, w in zip(getattr(got, part), getattr(want, part), strict=True):
            assert g.window.date == w.window.date
            assert g.window.values.tobytes() == w.window.values.tobytes()
            assert (g.window.target, g.window.prev) == (w.window.target,
                                                        w.window.prev)
            assert g.values_n.tobytes() == w.values_n.tobytes()
            assert g.target_n == w.target_n
            for field in ("token_ids", "lengths", "source_idx"):
                a, b = getattr(g.docs, field), getattr(w.docs, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert g.docs.relevance == w.docs.relevance


class TestStreamedBuild:
    """The samples of train and eval, built from corpus lines as they are
    read, equal make_samples over an in-memory corpus and the per-token
    reference; build_vocab equals a count of ``tokenize``'s tokens."""

    @given(days=st.lists(st.lists(st.tuples(
               st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join),
               st.sampled_from(_FLAGS)), max_size=5), min_size=1, max_size=7),
           bom=st.booleans(), gaps=st.sets(st.integers(0, 6)))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lines_equal_whole_corpus(self, tmp_path, days, bom, gaps):
        path = str(tmp_path / "corpus.jsonl")
        write_corpus(path, days, bom)
        corpus = H.load_corpus(path)
        counts = Counter(t for day in corpus.days for d in day.docs
                         for t in D.tokenize(d.text))
        ranked = sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))
        vocab = D.build_vocab(corpus, max_size=6)
        assert vocab.tokens[2:] == tuple(t for t, _ in ranked[:4])

        config = cfg(m=1, max_tokens=3, daily_doc_cap=3)
        dates = tuple(d.date for i, d in enumerate(corpus.days) if i not in gaps)
        series = D.Series(dates=dates, values=np.arange(len(dates),
                                                        dtype=float)[:, None])
        split = D.SplitSpec(fracs=(0.5, 0.25, 0.25))
        stats = D.SeriesStats(mean=0.5, std=2.0)
        streamed = D.load_corpus(path)
        assert D.count_vocab(streamed, max_size=6) == vocab
        try:
            want = D.make_samples(corpus, series, vocab, config, split, stats)
        except D.DatasetError as exc:
            with pytest.raises(D.DatasetError, match=re.escape(str(exc))):
                D.window_samples(streamed, series, vocab, config, split, stats)
            return
        got = D.window_samples(streamed, series, vocab, config, split, stats)
        assert_same_sets(got, want)
        by_date = {d.date: d for d in corpus.days}
        for s in got.train + got.valid + got.test:
            docs = H.cap_daily_docs(by_date[s.window.date].docs,
                                    config.daily_doc_cap)
            ids, lengths, flags, src = encode_day_per_token(docs, vocab,
                                                            config.max_tokens)
            assert s.docs.token_ids.tobytes() == ids.tobytes()
            assert s.docs.lengths.tobytes() == lengths.tobytes()
            assert s.docs.relevance == flags
            assert s.docs.source_idx.tobytes() == src.tobytes()


@pytest.mark.parametrize("distinct, dtype", [(200, np.uint8), (300, np.uint16),
                                             (70000, np.uint32)])
def test_token_ids_widen_with_the_table(distinct, dtype):
    """Ids are stored in the narrowest unsigned type, widened as the table
    grows; every document reads back as its tokens."""
    docs = [(" ".join("t%d" % (i * 7 + j) for j in range(7)), None)
            for i in range(distinct // 7 + 1)] + [("T0 t1 !!", True)]
    days = D.tokenize_days([(dt.date(2020, 1, 1), docs[:3]),
                            (dt.date(2020, 1, 2), docs[3:])])
    assert days.ids.dtype == dtype
    words = [days.table[i] for i in days.ids.tolist()]
    want = [t for text, _ in docs for t in D.tokenize(text) + ["|"]]
    assert words == want
    assert days.lengths.tolist() == [len(D.tokenize(t)) for t, _ in docs]
    assert days.day_sizes.tolist() == [3, len(docs) - 3]
