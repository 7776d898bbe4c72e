"""Tests for ingestion, vocabulary, windowing, and the synthetic generator."""

import datetime as dt
import hashlib
import importlib
import json
import pkgutil
import re
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
# when every bounded draw still called the generator, and days whose every
# bounded draw but the lexicon word's has one value, recorded while the
# lexicons were still spec fields
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
}


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


def read_lines(path):
    """read_corpus's verdict on a file: each day's (date, headlines), or the
    message it stops with."""
    try:
        return [(date, D.headlines(line, heads))
                for date, line, heads in D.read_corpus(path)]
    except D.DatasetError as exc:
        return str(exc)


def decoding_every_line(read, path):
    """``read(path)`` with the pattern matching no line, so that every line
    is decoded by json.loads and checked field by field."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_PLAIN_LINE", re.compile(r"(?!)"))
        return read(path)


class TestPlainLines:
    """A line that ``_PLAIN_LINE`` matches is one that json.loads and the
    field checks accept, with the same date and headlines; every other line
    takes that path, so accept, reject and message are those of decoding."""

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
        days = [(dt.date(2020, 1, 1), [("café 株価 rally", True),
                                       ("a\u00a0b x\u2028y", None)]),
                (dt.date(2020, 1, 2), [("del\x7f naïve", False)])]
        index, ids = {"|": 0}, []
        for _date, docs in days:
            for text, _flag in docs:
                ids += [index.setdefault(w, len(index)) for w in text.split(" ")]
                ids.append(0)
        path = str(tmp_path / "c.jsonl")
        D.save_corpus(D._tokenized([d for d, _ in days], index, ids,
                                   [len(docs) for _, docs in days],
                                   [f for _, docs in days for _, f in docs]), path)
        assert [(d, heads, D.headlines(line, heads))
                for d, line, heads in D.read_corpus(path)] == \
            [(d, None, docs) for d, docs in days]
        H.assert_same_tokenized(D.load_corpus(path),
                                H.reference_tokenize_days(days))

    def test_string_class_is_every_code_point_but_quote_backslash_controls(self):
        r"""``_STRING`` is spelt as ranges for speed; it must hold exactly the
        code points of [^"\\\x00-\x1f], lone surrogates included."""
        string = re.compile(D._STRING)
        excluded = [chr(c) for c in range(0x20)] + ['"', "\\"]
        allowed = "".join(chr(c) for c in range(0x20, 0x110000)
                          if chr(c) not in excluded)
        assert len(excluded) == 34 and len(allowed) == 0x110000 - 34
        assert string.fullmatch(allowed)
        middle = len(allowed) // 2
        for ch in excluded:
            assert not string.fullmatch(ch)
            assert not string.fullmatch(allowed[:middle] + ch + allowed[middle:])


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
    assert "data._PLAIN_LINE" in patterns
    assert {name: syntax_after_3_10(p) for name, p in patterns.items()
            if syntax_after_3_10(p)} == {}
