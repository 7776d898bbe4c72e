"""Tests for ingestion, vocabulary, windowing, and the synthetic generator."""

import codecs
import csv
import datetime as dt
import hashlib
import importlib
import json
import os
import pkgutil
import re
import tempfile
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import msin
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
    return D.tokenize_days((start + dt.timedelta(days=t),
                            [(s, None) for s in texts])
                           for t, texts in enumerate(texts_by_day))


class TestTokenize:
    def test_punctuation_strip(self):
        assert D.tokenize("Steve Jobs!") == ["steve", "jobs"]

    def test_empty(self):
        assert D.tokenize("") == []

    def test_separator_runs(self):
        assert D.tokenize("A-B  c") == ["a", "b", "c"]

    def test_truncation_and_digits(self):
        assert D.tokenize("one two three four")[:2] == ["one", "two"]
        assert D.tokenize("q3 earnings_call") == ["q3", "earnings", "call"]

    @pytest.mark.parametrize("word", ["naïve", "café", "NAÏVE", "CAFÉ"])
    def test_nfd_and_nfc_spellings_give_one_token(self, word):
        """A combining mark joins its letter: both spellings read as the
        lowercased NFC word."""
        want = [unicodedata.normalize("NFC", word).lower()]
        for form in ("NFC", "NFD"):
            spelled = unicodedata.normalize(form, word)
            assert D.tokenize(spelled) == want
            days = D.tokenize_days([(dt.date(2020, 1, 1), [(spelled, None)])])
            assert [days.table[i] for i in days.ids.tolist()] == want + ["|"]

    def test_dotted_capital_i_still_splits(self):
        """"İ" lowercases to "i" and a combining dot (U+0307), which has no
        precomposed form, so the word splits at the dot."""
        assert D.tokenize("İstanbul") == ["i", "stanbul"]


class TestVocabulary:
    def test_single_word_corpus(self):
        corpus = mini_corpus([["x x", "x"]])
        vocab = D.build_vocab(corpus)
        assert vocab.tokens == ("<pad>", "<unk>", "x")
        assert vocab.ids["x"] == 2

    def test_unknown_maps_to_one(self):
        vocab = D.build_vocab(mini_corpus([["x"]]))
        batch = D.encode_day((("zzz x", None),), vocab, max_tokens=2,
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
            D.build_vocab(D.tokenize_days([]))


def kept_by_encode_day(docs, cap):
    """The documents ``encode_day`` keeps of a day under ``cap``, each read
    back from its one token."""
    vocab = D.Vocabulary(tokens=(D.PAD_TOKEN, D.UNK_TOKEN)
                         + tuple(text for text, _ in docs))
    batch = D.encode_day(docs, vocab, max_tokens=1, cap=cap)
    return tuple(docs[i - 2] for i in batch.token_ids[:, 0].tolist())


class TestCapDailyDocs:
    def test_keeps_last_suffix(self):
        docs = tuple(("d%d" % i, None) for i in range(30))
        kept = kept_by_encode_day(docs, cap=25)
        assert kept == docs[5:]

    def test_boundary_and_small(self):
        docs = tuple(("d%d" % i, None) for i in range(25))
        assert kept_by_encode_day(docs, cap=25) == docs
        assert kept_by_encode_day(docs[:1], cap=25) == docs[:1]

    @given(st.integers(0, 60), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_suffix_property(self, count, cap):
        docs = tuple((str(i), None) for i in range(count))
        kept = kept_by_encode_day(docs, cap=cap)
        assert len(kept) == min(count, cap)
        assert kept == docs[len(docs) - len(kept):]


class TestEncodeDay:
    def test_padding_and_unknowns(self):
        vocab = D.Vocabulary(tokens=("<pad>", "<unk>", "up", "down"))
        docs = (("Up up and away", True), ("!!!", None), ("down", False))
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
    for i, (text, relevant) in enumerate(docs):
        toks = D.tokenize(text)[:max_tokens]
        if not toks:
            continue
        ids = [position[t] if t in position else D.UNK_ID for t in toks]
        rows.append(ids + [D.PAD_ID] * (max_tokens - len(ids)))
        lengths.append(len(ids))
        flags.append(relevant)
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
        docs = tuple((t, (i % 3 == 0) if i % 2 else None)
                     for i, t in enumerate(self.TEXTS))
        self.assert_same(docs, max_tokens)

    def test_day_left_empty(self):
        docs = (("!!!", None), ("", None), ("___", None))
        self.assert_same(docs, 4)
        assert D.encode_day(docs, self.VOCAB, 4, UNCAPPED).token_ids.shape \
            == (0, 4)

    @given(st.lists(st.text(alphabet="upDOWNcaféx 株価_-!3", max_size=30),
                    max_size=8), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_days(self, texts, max_tokens):
        self.assert_same(tuple((t, None) for t in texts), max_tokens)


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
        dates = corpus.dates
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
        dates = corpus.dates
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
        for day in H.corpus_days(corpus):
            docs = H.cap_daily_docs(day.docs, config.daily_doc_cap)
            usable = sum(1 for d in docs if D.tokenize(d.text)[:config.max_tokens])
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
        train_until = corpus.dates[14]
        valid_until = corpus.dates[19]
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
        dates = corpus.dates
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
        dates = corpus.dates
        series = D.Series(dates=dates, values=np.ones((2, 1)))
        got = D.make_samples(corpus, series, vocab=D.build_vocab(corpus),
                             config=config, split=D.SplitSpec(fracs=(1., 0., 0.)))
        assert got.stats.std == 1.0
        assert got.train[0].target_n == 0.0

    def test_empty_result_is_an_error(self):
        config = cfg(m=5)
        corpus = mini_corpus([["just one day"]])
        series = D.Series(dates=corpus.dates, values=np.zeros((1, 1)))
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

    @pytest.mark.parametrize("fracs", [None, (0.8, 0.1, 0.1)])
    @pytest.mark.parametrize("date", ["train_until", "valid_until"])
    def test_one_date_is_no_split(self, date, fracs):
        """One date alone is no split; beside fractions it used to be
        ignored."""
        with pytest.raises(D.DatasetError, match="not both"):
            D.SplitSpec(fracs=fracs, **{date: dt.date(2020, 1, 5)})

    @pytest.mark.parametrize("fracs", [(float("nan"), 0.5, 0.5),
                                       (0.5, float("inf"), 0.5),
                                       (1.5, -0.25, -0.25), (0.5, 0.5),
                                       (True, False, False)])
    def test_rejects_fractions_that_are_not_a_partition(self, fracs):
        """nan compares false against every bound, so it needs its own check;
        a bool would pass as 1 or 0."""
        with pytest.raises(D.DatasetError, match="finite"):
            D.SplitSpec(fracs=fracs)


# sha256 of the save_corpus and save_series bytes of 60-day corpora: the
# recovery shape and the default spec (ranged counts, plant_prob 0.3), recorded
# when every bounded draw still called the generator; days whose every
# bounded draw but the lexicon word's has one value, recorded while the
# lexicons were still spec fields; and train_long_window's shape (ranged
# counts and lengths, a plant every day) and fixed lengths with plant_prob,
# recorded while each document's words still had a call of their own
STREAM_PINS = {
    "recovery": (dict(n_docs=(10, 10), doc_len=(8, 8), plant_per_day=True),
                 "340f115d11fe49d93ab3d83b6112325e0fc7d829e7675f0c46023d0fbb39fef6",
                 "5b9f1f9c1e60fa755e9774e276723b832a2a4f0512b812b712800f1d2995c7db"),
    "default": ({},
                "e5914743957299b18fbbcc0d336e79691d34644b3be074ebafe30cf0b126a9af",
                "d4c3ee0eadf9aa2cbba361479b7c23e451ed70a1c597b4041780f801523e41f8"),
    "one_value": (dict(n_docs=(1, 1), doc_len=(1, 1), plant_per_day=True),
                  "037a2051a6f172146eb616a7c288c87093c66caeacfc6d5db7fc14326e68adcf",
                  "056b3a2aeb990e43bfd104b79327ecc9b8c92748235f12db52749e767a17c447"),
    "long_window": (dict(n_docs=(2, 3), doc_len=(3, 5), plant_per_day=True),
                    "1c03b71d1e3ad160713603dfcb7fd714b88c000247fea1512920f6c9396f74f2",
                    "4543a8637dd0cbca5fd1ad996e4a83bad91f590c4341bfcc309fe91504043f25"),
    "fixed_len_prob": (dict(n_docs=(10, 10), doc_len=(8, 8)),
                       "f64a326933ba73d598283bb7efd48c52e279c04eb2ff1fbf34b71de597d039aa",
                       "6df507f097b5ada9683f9c35b07a7bdfb594c893e007bfb1583005ebe77c2dcf"),
}


def word_draws(spec):
    """The sizes of the ``integers`` calls that draw ``spec``'s words, in
    the order the generator makes them, and the corpus."""
    sizes, make = [], D.substream

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def integers(self, *args, size=None):
            if size is not None:
                sizes.append(size)
            return self.rng.integers(*args, size=size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "substream", lambda *key: Counted(make(*key)))
        corpus, _ = D.synth_generate(spec)
    assert sum(sizes) == int(corpus.lengths.sum())
    return sizes, corpus


@st.composite
def synth_specs(draw):
    """Specs whose count ranges hold one value or several, in both plant
    modes, with sigma zero or positive."""
    def count_range():
        lo = draw(st.integers(1, 4))
        return lo, lo if draw(st.booleans()) else draw(st.integers(lo + 1, 6))

    return D.SynthSpec(
        n_days=draw(st.integers(1, 12)), n_docs=count_range(),
        doc_len=count_range(), vocab_size=draw(st.integers(1, 20)),
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
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_the_reference_generator(self, tmp_path, spec):
        """The texts, flags and dates save_corpus writes, and the series,
        equal the reference's."""
        corpus, series = D.synth_generate(spec)
        ref_days, ref_series = H.reference_synth_generate(spec)
        path = str(tmp_path / "corpus.jsonl")
        D.save_corpus(corpus, path)
        assert H.load_corpus(path) == ref_days
        assert series.dates == ref_series.dates
        assert series.values.tobytes() == ref_series.values.tobytes()

    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_a_recovery_day_draws_its_words_in_two_calls(self, sigma):
        """The words before the planted document's coin are drawn in one
        call, the rest before the day's noise (or the next day's) in
        another."""
        spec = D.SynthSpec(n_days=7, sigma=sigma, **STREAM_PINS["recovery"][0])
        sizes, _ = word_draws(spec)
        assert len(sizes) <= 2 * spec.n_days

    @pytest.mark.parametrize("name", ["default", "long_window", "fixed_len_prob"])
    def test_a_drawn_length_or_coin_keeps_one_call_a_document(self, name):
        """A document whose length or plant is drawn after its words settles
        them: one call a document, as when every document had its own."""
        sizes, corpus = word_draws(D.SynthSpec(n_days=7, **STREAM_PINS[name][0]))
        assert len(sizes) == corpus.lengths.size

    def test_noise_free_series_is_exact_signal_count(self):
        spec = D.SynthSpec(n_days=25, seed=11, phi=0.0, alpha=1.0, sigma=0.0,
                           plant_prob=0.6)
        corpus, series = D.synth_generate(spec)
        plus, minus = set(D.S_PLUS), set(D.S_MINUS)
        for day, value in zip(H.corpus_days(corpus), series.values[:, 0]):
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
        assert H.corpus_days(c1) == H.corpus_days(c2)
        assert s1.values.tobytes() == s2.values.tobytes()
        c3, _ = D.synth_generate(D.SynthSpec(n_days=30, seed=124))
        assert H.corpus_days(c3) != H.corpus_days(c1)

    def test_comparing_two_corpora_answers(self):
        """``==`` on two corpora is identity and answers instead of raising."""
        a, _ = D.synth_generate(D.SynthSpec(n_days=3))
        b, _ = D.synth_generate(D.SynthSpec(n_days=3))
        assert (a == a) is True
        assert (a == b) is False and (a != b) is True

    def test_flags_mark_exactly_signal_docs(self):
        spec = D.SynthSpec(n_days=40, seed=5, plant_prob=0.5)
        corpus, _ = D.synth_generate(spec)
        signal = set(D.S_PLUS) | set(D.S_MINUS)
        flagged = some_signal = 0
        for day in H.corpus_days(corpus):
            for doc in day.docs:
                has_signal = bool(set(doc.text.split()) & signal)
                assert doc.relevant == has_signal
                flagged += doc.relevant
                some_signal += has_signal
        assert flagged == some_signal > 0

    def test_ranges_and_dates(self):
        spec = D.SynthSpec(n_days=20, seed=6, n_docs=(2, 4), doc_len=(3, 5))
        corpus, series = D.synth_generate(spec)
        days = H.corpus_days(corpus)
        assert len(days) == 20
        assert days[0].date == dt.date(2000, 1, 1)
        for a, b in zip(days, days[1:]):
            assert (b.date - a.date).days == 1
        for day in days:
            assert 2 <= len(day.docs) <= 4
            for doc in day.docs:
                assert 3 <= len(doc.text.split()) <= 5

    def test_plant_per_day_exactly_one(self):
        spec = D.SynthSpec(n_days=15, seed=7, plant_per_day=True)
        corpus, _ = D.synth_generate(spec)
        for day in H.corpus_days(corpus):
            assert sum(bool(d.relevant) for d in day.docs) == 1

    def test_spec_validation(self):
        with pytest.raises(D.DatasetError):
            D.SynthSpec(phi=1.0)
        with pytest.raises(D.DatasetError):
            D.SynthSpec(sigma=-0.1)
        with pytest.raises(D.DatasetError):
            D.SynthSpec(n_docs=(3, 2))
        with pytest.raises(D.DatasetError, match="seed"):
            D.SynthSpec(seed=-1)
        with pytest.raises(D.DatasetError, match="9999-12-31"):
            D.SynthSpec(n_days=2, start=dt.date.max)
        assert D.SynthSpec(n_days=1, start=dt.date.max).start == dt.date.max

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
        assert H.load_corpus(path) == H.corpus_days(corpus)

    def test_corpus_null_flags_survive(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"date":"2020-01-01","headlines":'
                        '[{"text":"hello","relevant":null}]}\n')
        corpus = H.load_corpus(str(path))
        assert corpus[0].docs[0].relevant is None

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
        assert H.load_corpus(str(path))[0].docs == (H.Document("a", None),)

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
        docs = H.load_corpus(str(path))[0].docs
        assert docs == (H.Document("a", True), H.Document("b", False),
                        H.Document("c", None))

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

    @pytest.mark.parametrize("line5, message", [
        ("2000-01-0x,3.0", "line 5: Invalid isoformat string: '2000-01-0x'"),
        ("2000-01-03,nan", "line 5: non-finite value")])
    def test_series_errors_name_the_file_line_after_a_multi_line_field(
            self, tmp_path, line5, message):
        """A quoted field that spans two lines is one row over two file
        lines: the rows after it are named by the line they sit on."""
        path = tmp_path / "s.csv"
        path.write_text('date,value\n2000-01-01,1.0\n2000-01-02,"2.0\n"\n%s\n'
                        % line5)
        with pytest.raises(D.DatasetError) as err:
            D.load_series(str(path))
        assert str(err.value) == "%s %s" % (path, message)

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
        in_memory = D.tokenize_days((day.date, day.docs) for day in corpus)
        counts = Counter(t for day in corpus for d in day.docs
                         for t in D.tokenize(d.text))
        ranked = sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))
        vocab = D.build_vocab(in_memory, max_size=6)
        assert vocab.tokens[2:] == tuple(t for t, _ in ranked[:4])

        config = cfg(m=1, max_tokens=3, daily_doc_cap=3)
        dates = tuple(d.date for i, d in enumerate(corpus) if i not in gaps)
        series = D.Series(dates=dates, values=np.arange(len(dates),
                                                        dtype=float)[:, None])
        split = D.SplitSpec(fracs=(0.5, 0.25, 0.25))
        stats = D.SeriesStats(mean=0.5, std=2.0)
        streamed = D.load_corpus(path)
        assert D.build_vocab(streamed, max_size=6) == vocab
        try:
            want = D.make_samples(in_memory, series, vocab, config, split, stats)
        except D.DatasetError as exc:
            with pytest.raises(D.DatasetError, match=re.escape(str(exc))):
                D.make_samples(streamed, series, vocab, config, split, stats)
            return
        got = D.make_samples(streamed, series, vocab, config, split, stats)
        assert_same_sets(got, want)
        by_date = {d.date: d for d in corpus}
        for s in got.train + got.valid + got.test:
            docs = H.cap_daily_docs(by_date[s.window.date].docs,
                                    config.daily_doc_cap)
            ids, lengths, flags, src = encode_day_per_token(docs, vocab,
                                                            config.max_tokens)
            assert s.docs.token_ids.tobytes() == ids.tobytes()
            assert s.docs.lengths.tobytes() == lengths.tobytes()
            assert s.docs.relevance == flags
            assert s.docs.source_idx.tobytes() == src.tobytes()


# Generator specs whose saved corpus must read back as the one in memory:
# words of the spec's table that no document draws, both plant modes,
# ragged days, and more than 255 table entries (uint16 ids).
SAVED_SPECS = {
    "unseen_words": D.SynthSpec(n_days=3, seed=0),
    "plant_per_day": D.SynthSpec(n_days=40, seed=1, plant_per_day=True),
    "plant_prob": D.SynthSpec(n_days=40, seed=2, plant_prob=0.6),
    "ragged": D.SynthSpec(n_days=40, seed=3, n_docs=(1, 9), doc_len=(1, 6)),
    "wide_table": D.SynthSpec(n_days=40, seed=4, vocab_size=400),
}


class TestSavedCorpus:
    """A corpus built in memory and the same corpus saved by save_corpus and
    read back by load_corpus give equal vocabularies and samples."""

    def assert_same_build(self, in_memory, path):
        D.save_corpus(in_memory, path)
        loaded = D.load_corpus(path)
        vocab = D.build_vocab(in_memory, max_size=5000)
        assert D.build_vocab(loaded, max_size=5000) == vocab
        config = cfg(m=1, max_tokens=6, daily_doc_cap=5)
        series = D.Series(dates=in_memory.dates, values=np.arange(
            len(in_memory.dates), dtype=float)[:, None])
        split = D.SplitSpec(fracs=(0.5, 0.25, 0.25))
        stats = D.SeriesStats(mean=0.5, std=2.0)
        assert_same_sets(
            D.make_samples(loaded, series, vocab, config, split, stats),
            D.make_samples(in_memory, series, vocab, config, split, stats))
        return loaded

    @pytest.mark.parametrize("name", sorted(SAVED_SPECS))
    def test_generated_corpus(self, tmp_path, name):
        in_memory, _ = D.synth_generate(SAVED_SPECS[name])
        loaded = self.assert_same_build(in_memory, str(tmp_path / "c.jsonl"))
        assert H.corpus_days(loaded) == H.corpus_days(in_memory)
        if name == "wide_table":
            assert in_memory.ids.dtype == loaded.ids.dtype == np.uint16

    def test_document_without_tokens(self, tmp_path):
        """A document with no tokens writes as "" and reads back as a
        document with no tokens."""
        in_memory = D.tokenize_days([
            (dt.date(2020, 1, 1), [("Up, up!", True), ("!!!", None)]),
            (dt.date(2020, 1, 2), [("...", False), ("down", None)])])
        path = str(tmp_path / "c.jsonl")
        loaded = self.assert_same_build(in_memory, path)
        texts = [[h["text"] for h in json.loads(line)["headlines"]]
                 for line in open(path, encoding="utf-8")]
        assert texts == [["up up", ""], ["", "down"]]
        assert loaded.lengths.tolist() == [2, 0, 0, 1]
        assert loaded.flags == [True, None, False, None]


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


# ASCII texts, empty ones included, over letters of both cases, digits, the
# separators "_", "|", "-" and "!", and whitespace and control characters,
# some of which ``str.split`` splits on and ``bytes.split`` does not. A day
# may carry one non-ASCII letter, digit, space or line break in one of its
# headlines.
_ASCII_TEXTS = st.text(alphabet="aBzQ09_|-! \t\r\n\x0b\x0c\x1c", max_size=14)
_NON_ASCII = ("é", "Σ", "株", "١", "İ", "\xa0", "\u2028", "\x85")


@st.composite
def tokenizer_days(draw):
    days = draw(st.lists(st.lists(st.tuples(_ASCII_TEXTS,
                                            st.sampled_from(_FLAGS[:3])),
                                  max_size=5), max_size=5))
    for docs in days:
        if docs and draw(st.booleans()):
            j = draw(st.integers(0, len(docs) - 1))
            text, flag = docs[j]
            at = draw(st.integers(0, len(text)))
            docs[j] = (text[:at] + draw(st.sampled_from(_NON_ASCII)) + text[at:],
                       flag)
    start = dt.date(2020, 1, 1)
    return [(start + dt.timedelta(days=i), docs) for i, docs in enumerate(days)]


class TestOnePassDays:
    """``tokenize_days``' one pass over an ASCII day gives the tokens and
    markers that ``tokenize`` gives headline by headline."""

    @given(days=tokenizer_days())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_headline_reference(self, days):
        H.assert_same_tokenized(D.tokenize_days(days),
                                H.reference_tokenize_days(days))

    @pytest.mark.parametrize("docs", [
        [],
        [("!!! ...", True), ("-_-|", None), ("", False)],
        [("Up\nDOWN", True), ("x", None)],
        [("Up DOWN", None), ("q3_x", False), ("Café", True)],
    ], ids=["empty-day", "only-punctuation", "newline-in-headline",
            "last-headline-non-ascii"])
    def test_fixed_days(self, docs):
        days = [(dt.date(2020, 1, 1), docs), (dt.date(2020, 1, 2),
                                              [("Up, up!", None)])]
        got = D.tokenize_days(days)
        H.assert_same_tokenized(got, H.reference_tokenize_days(days))
        assert got.day_sizes.tolist() == [len(docs), 1]


# ---------------------------------------------------------------------------
# corpus lines checked by pattern


class Obj(tuple):
    """A JSON object as its (key, value) pairs, in order, duplicates kept."""


def render(value, raw, item=", ", key=": "):
    """``value`` as JSON text, with the given separators; ``raw`` writes each
    string between quotes as it stands, unescaped."""
    if isinstance(value, Obj):
        return "{%s}" % item.join(render(k, raw, item, key) + key
                                  + render(v, raw, item, key) for k, v in value)
    if isinstance(value, list):
        return "[%s]" % item.join(render(v, raw, item, key) for v in value)
    if raw and isinstance(value, str):
        return '"%s"' % value
    return json.dumps(value, ensure_ascii=False)


# Pieces of a headline text. Those a written line holds as they stand:
# letters, digits, spaces, DEL, U+2028, no-break space, non-ASCII letters and
# JSON's own punctuation. Those that json.dumps escapes: a quote, a backslash,
# control characters (a line break among them).
_PLAIN_PIECES = ("a", "Q", "7", " ", "\x7f", "\u2028", "\xa0", "ï", "株", "{",
                 "}", ",", ":", "[", "n")
_ESCAPED_PIECES = ('"', "\\", "\\n", "\t", "\n", "\r", "\x01", "\x1f")
_ABSENT = object()


def rare(draw, strategy, common):
    """A draw of ``strategy`` one time in eight, else ``common``."""
    return draw(strategy) if draw(st.integers(0, 7)) == 7 else common


@st.composite
def line_text(draw):
    text = "".join(draw(st.lists(st.sampled_from(_PLAIN_PIECES), max_size=6)))
    at = draw(st.integers(0, len(text)))
    escaped = draw(st.sampled_from(_ESCAPED_PIECES)) if draw(st.booleans()) else ""
    return text[:at] + escaped + text[at:]


@st.composite
def corpus_line(draw, date):
    """One corpus line for ``date``: a record written with json.dumps, or
    with its strings as they stand, now and then mutated: a bad date or
    value, keys swapped, duplicated or dropped, a trailing comma, other
    spacing, a CRLF or CR ending, trailing text."""
    heads = []
    for _ in range(draw(st.integers(0, 3))):
        head = [("text", rare(draw, st.just(5), draw(line_text())))]
        flag = draw(st.sampled_from([True, False, None]))
        flag = rare(draw, st.sampled_from([_ABSENT, 1, "no"]), flag)
        if flag is not _ABSENT:
            head.append(("relevant", flag))
        if rare(draw, st.booleans(), False):
            head.reverse()
        if rare(draw, st.booleans(), False):
            head.insert(draw(st.integers(0, len(head))),
                        draw(st.sampled_from(head)))
        heads.append(Obj(head))
    date = rare(draw, st.sampled_from(["2000-02-30", "20000103", "2000-W01-1",
                                       "x", "", "2000-01-01"]), date)
    rec = [("date", date), ("headlines", heads)]
    mutation = rare(draw, st.sampled_from(["swap", "dup-date", "not-list",
                                           "trailing-comma"]), "")
    if mutation == "swap":
        rec.reverse()
    elif mutation == "dup-date":
        rec.insert(0, ("date", "1999-01-01"))
    elif mutation == "not-list":
        rec[1] = ("headlines", Obj([("text", "a")]))
    item, key = rare(draw, st.sampled_from([(",", ":"), (" , ", " : ")]),
                     (", ", ": "))
    line = render(Obj(rec), draw(st.booleans()), item, key)
    if mutation == "trailing-comma":
        # no date or text holds "]", so the first one closes the headlines
        line = line.replace("]", ",]", 1)
    return (rare(draw, st.just(" "), "") + line
            + rare(draw, st.sampled_from([" \t", "x", "\x0b", "\u2028"]), "")
            + rare(draw, st.sampled_from(["\r\n", "\r", ""]), "\n"))


@st.composite
def corpus_lines(draw):
    days = draw(st.integers(1, 3))
    return [draw(corpus_line((dt.date(2000, 1, 1)
                              + dt.timedelta(days=2 * i)).isoformat()))
            for i in range(days)]


def read_lines(path, date=None):
    """read_corpus's verdict on a file: each day's (date, line, headlines),
    or the message it stops with."""
    try:
        return [(day, line, D.headlines(line, heads))
                for day, line, heads in D.read_corpus(path, date)]
    except D.DatasetError as exc:
        return str(exc)


def line_by_line(read, *args):
    """``read(*args)`` with ``_written_block`` passing no block and no
    line, so that every line is checked alone and decoded."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_written_block", lambda block, prev: None)
        return read(*args)


def decoding_every_line(read, path):
    """``read(path)`` with no block checked whole and no line passed as
    written, so that every line is decoded by json.loads and checked field
    by field."""
    return line_by_line(read, path)


def save_non_ascii_days(path):
    """Two days whose texts save_corpus writes raw (non-ASCII letters, a
    no-break space, U+2028, DEL), saved by it to ``path``; returns them as
    (date, documents) pairs."""
    days = [(dt.date(2020, 1, 1), [("café 株価 rally", True),
                                   ("a\u00a0b x\u2028y", None)]),
            (dt.date(2020, 1, 2), [("del\x7f naïve", False)])]
    index, ids = {"|": 0}, []
    for _date, docs in days:
        for text, _flag in docs:
            ids += [index.setdefault(w, len(index)) for w in text.split(" ")]
            ids.append(0)
    D.save_corpus(D._tokenized([d for d, _ in days], index, ids,
                               [len(docs) for _, docs in days],
                               [f for _, docs in days for _, f in docs]), path)
    return days


def save_synth_days(path):
    """A 40-day synthetic corpus, saved by save_corpus to ``path``; returns
    read_lines' verdict on it."""
    D.save_corpus(D.synth_generate(D.SynthSpec(n_days=40, seed=5,
                                               plant_prob=0.5))[0], path)
    got = read_lines(path)
    assert isinstance(got, list) and len(got) == 40
    return got


def lines_alone(read, *args):
    """``read(*args)`` and the lines it checked alone."""
    seen, check = [], D._line_alone

    def spy(line, prev):
        seen.append(line)
        return check(line, prev)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_line_alone", spy)
        return read(*args), seen


class TestPlainLines:
    """A line that ``_written_block`` passes, checked in a block or alone,
    is one that json.loads and the field checks accept, with the same date
    and headlines; every other line takes that path, so accept, reject and
    message are those of decoding."""

    @given(lines=corpus_lines())
    @settings(max_examples=1500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pattern_path_equals_decoding(self, tmp_path, lines):
        path = str(tmp_path / "c.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        assert read_lines(path) == decoding_every_line(read_lines, path)

    def test_written_lines_take_the_pattern_path(self, tmp_path):
        """Every line save_corpus writes is plain, so a change to its layout
        cannot turn the pattern path off unnoticed."""
        corpus, _ = D.synth_generate(D.SynthSpec(n_days=40, seed=5,
                                                 plant_prob=0.5))
        path = str(tmp_path / "c.jsonl")
        D.save_corpus(corpus, path)
        assert [heads is None for _d, _l, heads in D.read_corpus(path)] == \
            [True] * 40
        got, want = D.load_corpus(path), decoding_every_line(D.load_corpus, path)
        H.assert_same_tokenized(got, want)
        assert got.table == want.table

    def test_escaped_and_non_ascii_lines_read_as_before(self, tmp_path):
        days = [(dt.date(2020, 1, 1), [('say "up"', True), ("a\\b", None)]),
                (dt.date(2020, 1, 2), [("naïve\u2028rally\x7f", False), ("x", None)]),
                (dt.date(2020, 1, 3), [("Up\tDown", True)])]
        path = str(tmp_path / "c.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for date, docs in days:
                fh.write(json.dumps({"date": date.isoformat(), "headlines": [
                    {"text": t, "relevant": f} for t, f in docs]},
                    ensure_ascii=False) + "\n")
        assert [heads is None for _d, _l, heads in D.read_corpus(path)] == \
            [False, True, False]
        got, decoded = D.load_corpus(path), decoding_every_line(D.load_corpus, path)
        H.assert_same_tokenized(got, decoded)
        assert got.table == decoded.table
        H.assert_same_tokenized(decoded, H.reference_tokenize_days(days))

    def test_non_ascii_written_lines_take_the_pattern_path(self, tmp_path):
        """Text save_corpus writes raw (non-ASCII letters, no-break space,
        U+2028, DEL) leaves a line in the written form, so it is read by
        pattern, not decoded, and tokenizes as before."""
        path = str(tmp_path / "c.jsonl")
        days = save_non_ascii_days(path)
        assert [(d, heads, D.headlines(line, heads))
                for d, line, heads in D.read_corpus(path)] == \
            [(d, None, docs) for d, docs in days]
        H.assert_same_tokenized(D.load_corpus(path),
                                H.reference_tokenize_days(days))


# Text pieces of a written line: _PLAIN_PIECES and NEL, which str.splitlines
# splits at but a text-mode file does not
_BLOCK_PIECES = _PLAIN_PIECES + ("\x85",)
_BLOCK_DATES = (dt.date(2000, 1, 1), dt.date(2000, 1, 5))  # days asked for


def written_line(day: int, text: str) -> str:
    return json.dumps({"date": (dt.date(2000, 1, 1) + dt.timedelta(days=day))
                       .isoformat(), "headlines": [
                           {"text": text, "relevant": True},
                           {"text": "x", "relevant": None}]},
                      ensure_ascii=False) + "\n"


@st.composite
def written_corpus(draw):
    """A corpus file's bytes: one to six days, two days apart, each line as
    save_corpus writes it, now and then mutated: an escaped text, a date
    written "20000101" or before the one above, trailing spaces or a tab, a
    CR, CRLF or CR-only end, lines swapped, a blank line, no final newline,
    a byte-order mark, a byte that is not UTF-8, now and then after a bad
    line."""
    lines = []
    for day in range(draw(st.integers(1, 6))):
        text = "".join(draw(st.lists(st.sampled_from(_BLOCK_PIECES),
                                     max_size=5)))
        line = written_line(day, text + rare(
            draw, st.sampled_from(_ESCAPED_PIECES), ""))
        date = line[10:20]
        line = line.replace(date, rare(draw, st.sampled_from(
            ["20000101", "1999-12-31", "2000-02-30"]), date), 1)
        end = rare(draw, st.sampled_from(["\r\n", "\r", " \n", "\t\n"]), "\n")
        lines.append(line[:-1] + end)
    if rare(draw, st.booleans(), False) and len(lines) > 1:
        at = draw(st.integers(1, len(lines) - 1))
        lines[at - 1], lines[at] = lines[at], lines[at - 1]
    if rare(draw, st.booleans(), False):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["\n", " \n", "\r\n"])))
    raw = [line.encode() for line in lines]
    if rare(draw, st.booleans(), False):
        at = 0
        if draw(st.booleans()):
            at = draw(st.integers(0, len(raw) - 1))
            raw.insert(at, b"x\n")
        # the byte goes into the bad line or a text after it, where a
        # replacement character would match the pattern
        at = draw(st.integers(at, len(raw) - 1))
        raw[at] = b"x\xff\n" if raw[at] == b"x\n" else \
            raw[at].replace(b'"x"', b'"x\xff"', 1)
    text = b"".join(raw)
    if rare(draw, st.booleans(), False):
        text = text.rstrip(b"\n")
    return rare(draw, st.just(codecs.BOM_UTF8), b"") + text


# a bad first line, then a byte that is not UTF-8 in a later 8 KB chunk of
# the text-mode read: line by line, the bad line stops the read first
_BAD_LINE_THEN_LATE_BYTE = (b"x\n" + "".join(
    written_line(day, "w%04d " % day * 12) for day in range(120)).encode()
    + b"\xff\n")


class TestWrittenBlocks:
    """A block of lines read_corpus checks whole gives the days that
    checking its lines one by one gives; any other block, and the rest of
    the file after it, is read line by line, so accept, reject and message
    are those of reading line by line."""

    @given(raw=written_corpus(), block=st.integers(1, 200),
           date=st.sampled_from(_BLOCK_DATES))
    # a string holding a line break: its second line, read on its own, has
    # a date at [10:20] that is later than the first line's
    @example(raw='{"date": "2000-01-01", "headlines": [{"text": "ab\n'
             'abcdefghij2000-01-02 x", "relevant": true}]}\n'.encode(),
             block=1 << 16, date=_BLOCK_DATES[0])
    @example(raw=_BAD_LINE_THEN_LATE_BYTE, block=1 << 16, date=_BLOCK_DATES[0])
    @example(raw=b"x\n\xff\n", block=1 << 16, date=_BLOCK_DATES[0])
    @settings(max_examples=1500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_block_path_equals_line_by_line(self, tmp_path, raw, block, date):
        path = str(tmp_path / "c.jsonl")
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_BLOCK_BYTES", block)
            got, got_day = read_lines(path), read_lines(path, date)
        assert got == line_by_line(read_lines, path)
        assert got_day == line_by_line(read_lines, path, date)
        if isinstance(got, list):
            assert got_day == [day for day in got if day[0] == date]
        else:
            assert got_day == got

    def test_two_line_string_is_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"date": "2000-01-01", "headlines": [{"text": "ab\n'
                         b'abcdefghij2000-01-02 x", "relevant": true}]}\n')
        assert read_lines(str(path)) == "%s line 1: Invalid control character " \
            "at: line 1 column 50 (char 49)" % path

    def test_a_pipe_is_read_once_line_by_line(self, tmp_path):
        """A corpus that is not a regular file, such as ``<(zcat c.gz)``
        gives, is read as a file holding its bytes is: once, in text mode, a
        block at a time, here a line at a time, with the escaped last line
        checked alone."""
        raw = "".join(written_line(day, "w%04d" % day) for day in range(40)) \
            + json.dumps({"date": "2001-01-01", "headlines": [
                {"text": 'a "b"', "relevant": None}]}) + "\n"
        path = tmp_path / "c.jsonl"
        path.write_text(raw, encoding="utf-8")
        want = read_lines(str(path))
        assert isinstance(want, list) and len(want) == 41
        read_end, write_end = os.pipe()
        with open(write_end, "w", encoding="utf-8") as fh:
            fh.write(raw)  # a pipe buffers 64 KB, and raw is smaller
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(D, "_BLOCK_BYTES", 1)
                assert read_lines("/dev/fd/%d" % read_end) == want
        finally:
            os.close(read_end)

    def test_crlf_file_checks_no_line_alone(self, tmp_path):
        path = tmp_path / "c.jsonl"
        want = save_synth_days(str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert lines_alone(read_lines, str(path)) == (want, [])

    def test_a_pipe_checks_no_line_alone(self, tmp_path):
        path = tmp_path / "c.jsonl"
        want = save_synth_days(str(path))
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as fh:
            fh.write(path.read_bytes())  # a pipe buffers 64 KB, and this less
        try:
            assert lines_alone(read_lines, "/dev/fd/%d" % read_end) == (want, [])
        finally:
            os.close(read_end)

    def test_only_the_block_of_an_escaped_line_is_checked_alone(self, tmp_path):
        path = tmp_path / "c.jsonl"
        want = save_synth_days(str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace('"text": "w', '"text": "\\u0077', 1)
        path.write_text("".join(lines), encoding="utf-8")
        block = 1000
        first = next(n for n in range(1, len(lines))
                     if len("".join(lines[:n])) >= block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_BLOCK_BYTES", block)
            got, alone = lines_alone(read_lines, str(path))
        assert [(d, docs) for d, _l, docs in got] == \
            [(d, docs) for d, _l, docs in want]
        assert 1 < first < len(lines) - 1 and alone == lines[:first]

    @pytest.mark.parametrize("block", [1, 1 << 16])
    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["", "bom"])
    @pytest.mark.parametrize("corpus", ["synth", "non-ascii"])
    def test_written_corpus_takes_the_block_path(self, tmp_path, corpus, bom,
                                                 block):
        """Every file save_corpus writes is checked a block at a time, with
        no line checked alone, also with a byte-order mark before it, so a
        change to its layout cannot turn the block path off unnoticed."""
        path = tmp_path / "c.jsonl"
        if corpus == "synth":
            D.save_corpus(D.synth_generate(D.SynthSpec(
                n_days=40, seed=5, plant_prob=0.5))[0], str(path))
        else:
            save_non_ascii_days(str(path))
        path.write_bytes(bom + path.read_bytes())
        path = str(path)
        want = decoding_every_line(read_lines, path)
        assert isinstance(want, list) and len(want) == (40 if corpus == "synth"
                                                        else 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_BLOCK_BYTES", block)
            mp.setattr(D, "_line_alone", None)
            assert read_lines(path) == want


# ---------------------------------------------------------------------------
# malformed corpora


def _sub(old: bytes, new: bytes):
    """An edit of line ``i``: its first ``old`` becomes ``new``."""
    def edit(lines, i):
        assert old in lines[i]
        lines[i] = lines[i].replace(old, new, 1)
    return edit


def _ends(end: bytes):
    """An edit that ends every line up to line ``i`` with ``end``."""
    def edit(lines, i):
        lines[:i + 1] = [line[:-1] + end for line in lines[:i + 1]]
    return edit


def _bad_line_then_byte(lines_on: int):
    """An edit that makes line ``i`` "x" and puts a byte that is not UTF-8
    into a text ``lines_on`` lines after it."""
    def edit(lines, i):
        lines[i] = b"x\n"
        _sub(b'"text": "w', b'"text": "w\xe9')(lines, i + lines_on)
    return edit


def _blank_after(lines, i):
    lines.insert(i + 1, b"\n")


def _bom_before(lines, i):
    lines[i] = codecs.BOM_UTF8 + lines[i]


def _date_of_two_lines_up(lines, i):
    lines[i] = lines[i][:10] + lines[i - 2][10:20] + lines[i][20:]


def _quote_first_text(days, i):
    """``days`` with the first text of day ``i`` behind a '"'."""
    date, docs = days[i]
    return days[:i] + [(date, [('"' + docs[0][0], docs[0][1]), *docs[1:]])] \
        + days[i + 1:]


_NOT_UTF8 = "{path} is not UTF-8 text (invalid continuation byte)"
# (edit of line i, what read_corpus gives): None for the days of the file as
# written, a function of those days and i, or the message with the line's
# number
_LINE_EDITS = {
    "escaped line": (_sub(b'"text": "w', b'"text": "\\u0077'), None),
    "escaped quote": (_sub(b'"text": "', b'"text": "\\"'), _quote_first_text),
    "CR before the newline": (_sub(b"}\n", b"}\r\n"), None),
    "CR-only ends": (_ends(b"\r"), None),
    "CRLF ends": (_ends(b"\r\n"), None),
    "trailing tab": (_sub(b"}\n", b"}\t\n"), None),
    "blank line after": (_blank_after, None),
    "BOM before the line": (_bom_before, "{path} line {n}: Unexpected UTF-8 "
                            "BOM (decode using utf-8-sig): line 1 column 1 "
                            "(char 0)"),
    "date 2000-02-30": (lambda lines, i: _sub(lines[i][10:20], b"2000-02-30")(
        lines, i), "{path} line {n}: day is out of range for month"),
    "dates out of order": (_date_of_two_lines_up, "{path} line {n}: dates not "
                           "strictly increasing at {two_up}"),
    "string spanning two lines": (_sub(b" w", b"\nw"), "{path} line {n}: "
                                  "Invalid control character at: line 1 "
                                  "column 53 (char 52)"),
    "non-UTF-8 byte": (_sub(b'"text": "w', b'"text": "w\xe9'), _NOT_UTF8),
    "bad line, bad byte one line on": (_bad_line_then_byte(1), _NOT_UTF8),
    "bad line, bad byte 16 KB on": (_bad_line_then_byte(25), "{path} line "
                                    "{n}: Expecting value: line 1 column 1 "
                                    "(char 0)"),
}
# (raw bytes from the written ones, what read_corpus gives), as above
_FILE_EDITS = {
    "BOM": (lambda raw: codecs.BOM_UTF8 + raw, None),
    "no final newline": (lambda raw: raw[:-1], None),
    "empty file": (lambda raw: b"", "{path} holds no days"),
    "BOM only": (lambda raw: codecs.BOM_UTF8, "{path} holds no days"),
}


@pytest.fixture(scope="module")
def three_blocks():
    """The lines, as bytes, of a file save_corpus writes that spans three
    blocks of ``_BLOCK_BYTES``, and its days as (date, documents)."""
    corpus = D.synth_generate(D.SynthSpec(n_days=200, n_docs=(10, 10),
                                          doc_len=(8, 8), seed=1))[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        D.save_corpus(corpus, path)
        with open(path, "rb") as fh:
            lines = fh.readlines()
        days = [(day, D.headlines(line, heads))
                for day, line, heads in D.read_corpus(path)]
    assert 2 * D._BLOCK_BYTES < sum(map(len, lines)) < 3 * D._BLOCK_BYTES
    return lines, days


def read_days(path, date=None):
    """read_corpus's verdict on a file as (date, documents) pairs, or the
    message it stops with."""
    got = read_lines(path, date)
    return got if isinstance(got, str) else [(d, docs) for d, _l, docs in got]


# line 30 in the first block, line 170 in the third
@pytest.mark.parametrize("i", [29, 169], ids=["first-block", "later-block"])
@pytest.mark.parametrize("name", list(_LINE_EDITS))
def test_malformed_corpus_line(tmp_path, three_blocks, name, i):
    lines, days = three_blocks
    lines = list(lines)
    edit, want = _LINE_EDITS[name]
    edit(lines, i)
    raw = b"".join(lines)
    if name == "bad line, bad byte one line on":  # one 8 KB decoding chunk
        assert sum(map(len, lines[:i])) // 8192 == raw.index(b"\xe9") // 8192
    if name == "bad line, bad byte 16 KB on":
        assert raw.index(b"\xe9") - sum(map(len, lines[:i])) > 16384
    path = tmp_path / "c.jsonl"
    path.write_bytes(raw)
    if want is None or callable(want):
        want = days if want is None else want(days, i)
        assert read_days(str(path)) == want
        assert read_days(str(path), want[i][0]) == [want[i]]
    else:
        want = want.format(path=path, n=i + 1, two_up=days[i - 2][0])
        assert read_days(str(path)) == want
        assert read_days(str(path), days[i][0]) == want


@pytest.mark.parametrize("name", list(_FILE_EDITS))
def test_malformed_corpus_file(tmp_path, three_blocks, name):
    lines, days = three_blocks
    edit, want = _FILE_EDITS[name]
    path = tmp_path / "c.jsonl"
    path.write_bytes(edit(b"".join(lines)))
    want = days if want is None else want.format(path=path)
    assert read_days(str(path)) == want
    assert read_days(str(path), days[-1][0]) == \
        (want if isinstance(want, str) else want[-1:])


# Spellings of 2000-01-01 and 2000-01-03 that Python 3.11's fromisoformat
# reads and 3.10's refuses
_OTHER_SPELLINGS = ("20000101", "20000103", "2000-W01-1")


@pytest.mark.parametrize("i", [29, 169], ids=["first-block", "later-block"])
@pytest.mark.parametrize("spelling", _OTHER_SPELLINGS)
def test_a_corpus_date_is_spelt_yyyy_mm_dd(tmp_path, three_blocks, spelling,
                                           i):
    lines = list(three_blocks[0])
    lines[i] = lines[i][:10] + spelling.encode() + lines[i][20:]
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"".join(lines))
    assert read_days(str(path)) == "%s line %d: Invalid isoformat string: " \
        "%r" % (path, i + 1, spelling)


@pytest.mark.parametrize("spelling", _OTHER_SPELLINGS[1:])
def test_a_series_date_is_spelt_yyyy_mm_dd(tmp_path, spelling):
    path = tmp_path / "s.csv"
    D.save_series(D.Series(dates=(dt.date(2000, 1, 1), dt.date(2000, 1, 2),
                                  dt.date(2000, 1, 3)),
                           values=np.ones((3, 1))), str(path))
    text = path.read_text().replace("2000-01-03", spelling)
    path.write_text(text)
    assert D._series_in_one_pass(text) is None
    with pytest.raises(D.DatasetError) as exc:
        D.load_series(str(path))
    assert str(exc.value) == "%s line 4: Invalid isoformat string: %r" \
        % (path, spelling)


# A pattern's syntax, scanned token by token: an escape, a character class,
# syntax that Python's re accepts only from 3.11 (a possessive quantifier, an
# atomic group), or any other character
_PATTERN_TOKEN = re.compile(
    r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]"
    r"|(?P<new>(?:[*+?]|\{(?:\d+,?\d*|,\d+)\})\+|\(\?>)|.", re.S)


def syntax_after_3_10(pattern: str) -> list[str]:
    return [m["new"] for m in _PATTERN_TOKEN.finditer(pattern) if m["new"]]


@pytest.mark.parametrize("pattern, found", [
    ('[^"]*+', ["*+"]), ("a++b", ["++"]), ("a?+", ["?+"]), ("a{2,3}+", ["{2,3}+"]),
    ("(?>ab)c", ["(?>"]), (r"\*+[*+]a+?\(?>\{2}+", []), ("[]*+]x", []),
    ("a{}+", [])])
def test_syntax_after_3_10_finds_only_new_syntax(pattern, found):
    assert syntax_after_3_10(pattern) == found


def test_patterns_compile_on_python_3_10():
    """``pyproject.toml`` supports Python 3.10, whose re refuses possessive
    quantifiers and atomic groups: no module-level pattern of the package
    may use them."""
    patterns = {}
    for info in pkgutil.iter_modules(msin.__path__):
        module = importlib.import_module("msin." + info.name)
        patterns.update({"%s.%s" % (info.name, name): value.pattern
                         for name, value in vars(module).items()
                         if isinstance(value, re.Pattern)})
    assert "data._WRITTEN_LINES" in patterns
    assert {name: syntax_after_3_10(p) for name, p in patterns.items()
            if syntax_after_3_10(p)} == {}


# ---------------------------------------------------------------------------
# series files read in one pass


# Series fields beside the numbers save_series writes: what float() reads
# (spaces, \x0b, an underscore), what it refuses (NUL, hex, an empty field),
# the non-finite, quoted fields (a comma or a line break inside), and one
# longer than csv reads; dates and headers of the same kinds
_ODD_VALUES = ("nan", "-inf", "1e400", " 1.5", "2.5 ", "1\x0b", "1_0", "7",
               "1\x00", "\x00", "0x0", "", "x", '"1.5"', '"2.5\n"', '"1,5"',
               '"1.\r\n5"', " " * 131072 + "1")
_ODD_DATES = ("2000-01-0x", "2000-02-30", "", "1999-12-31", " 2000-01-01",
              "2000-01-01\x00", '"2000-01-03"', '"2000-01-03\n"')
_ODD_HEADERS = ("date", "Date,value", '"date",value', "date,value,",
                "date,v1,v2,v3", "\ufeffdate,value", "date,v\x001",
                "date," + "v" * 131073)


@st.composite
def series_text(draw):
    """A series file as text: date,value rows as save_series writes them,
    or with k-1 columns, now and then mutated: a header, date or value
    above, a field dropped, added or moved to the next row (so that two
    rows' comma counts compensate), a blank line, CR or CRLF line ends, no
    final newline, a byte-order mark."""
    k = draw(st.integers(2, 3))
    header = rare(draw, st.sampled_from(_ODD_HEADERS),
                  ",".join(["date"] + ["v%d" % i for i in range(1, k)]))
    rows = []
    for i in range(draw(st.integers(0, 4))):
        date = (dt.date(2000, 1, 1) + dt.timedelta(days=2 * i)).isoformat()
        row = [rare(draw, st.sampled_from(_ODD_DATES), date)]
        for _ in range(k - 1):
            value = "%.17g" % draw(st.floats(-1e6, 1e6))
            row.append(rare(draw, st.sampled_from(_ODD_VALUES), value))
        mutation = rare(draw, st.sampled_from(["drop", "add", "move"]), "")
        if mutation == "drop":
            row.pop()
        elif mutation == "add":
            row.append("0.5")
        elif mutation == "move" and rows:
            rows[-1].append(row.pop())
        rows.append(row)
    lines = [header] + [",".join(row) for row in rows]
    if rare(draw, st.booleans(), False):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = "".join(line + rare(draw, st.sampled_from(["\r\n", "\r"]), "\n")
                   for line in lines)
    if rare(draw, st.booleans(), False):
        text = text.rstrip("\r\n")
    return rare(draw, st.just("\ufeff"), "") + text


def read_series(path):
    """load_series' verdict on a file: its dates and value bytes, or the
    message it stops with."""
    try:
        s = D.load_series(path)
    except (D.DatasetError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    assert s.values.dtype == np.float64 and s.values.flags.c_contiguous
    return s.dates, s.values.shape, s.values.tobytes()


class TestOnePassSeries:
    """A file the one-pass parse reads gives the Series the csv loop gives;
    every other file is the csv loop's, so accept, reject and message are
    those of reading row by row."""

    @given(text=series_text())
    # dates out of order; a header of one field; rows whose comma counts
    # compensate, so that fields shift into dates and values fromisoformat
    # (3.11 on) and float both read; a header field longer than csv reads;
    # a NUL, which csv refuses before Python 3.11
    @example(text="date,value\n2000-01-03,1.0\n2000-01-01,2.0\n")
    @example(text="date\n2000-01-01\n")
    @example(text="date,value\n2000-01-01,1.0,20000105\n20000107\n")
    @example(text="date," + "v" * 131073 + "\n2000-01-01,1.0\n")
    @example(text="date,v\x001\n2000-01-01,1.0\n")
    @settings(max_examples=1500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_pass_equals_the_csv_loop(self, tmp_path, text):
        path = str(tmp_path / "s.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = read_series(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_series_in_one_pass", lambda text: None)
            assert got == read_series(path)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("newline, bom", [("\r\n", ""), ("\n", ""),
                                              ("\r", ""), ("\r\n", "\ufeff")])
    def test_saved_series_take_the_one_pass_path(self, tmp_path, dim, newline,
                                                 bom):
        """Every file save_series writes is read in one pass, also with its
        line ends rewritten or a byte-order mark before it, so a change to
        its layout or to how the file is opened cannot turn that path off
        unnoticed."""
        rng = np.random.default_rng(dim)
        series = D.Series(dates=tuple(dt.date(2000, 1, 1) + dt.timedelta(days=i)
                                      for i in range(50)),
                          values=rng.standard_normal((50, dim)) * 10.0 ** 3)
        path = tmp_path / "s.csv"
        D.save_series(series, str(path))
        path.write_bytes(bom.encode() + path.read_bytes().replace(
            b"\r\n", newline.encode()))
        path = str(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_series_by_rows", None)
            back = D.load_series(path)
        assert back.dates == series.dates
        assert back.values.tobytes() == series.values.tobytes()
