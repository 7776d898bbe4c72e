"""Tests for ranking metrics, mass selection, and report assembly."""

import datetime as dt
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msin import data as D
from msin import evaluation as E
from msin import model as M
from msin import tensor as T
from msin import training as TR

import helpers as H

DATE = dt.date(2013, 1, 22)

# rounded attention masses from a published qualitative example: thirteen
# headlines, highlighted rows 04 and 13 (1-indexed), column sum 1.02
MASSES_JAN22 = [0.00, 0.15, 0.03, 0.21, 0.09, 0.03, 0.04, 0.02, 0.03,
                0.01, 0.00, 0.01, 0.40]
# eleven headlines, 0.76 concentrated on row 10, column sum 0.99
MASSES_AUG14 = [0.00, 0.00, 0.00, 0.00, 0.00, 0.03, 0.00, 0.02, 0.01,
                0.76, 0.17]
# four headlines, 0.87 concentrated on row 02, column sum 0.87
MASSES_JAN09 = [0.00, 0.87, 0.00, 0.00]


def day(mass, gtn, date=DATE):
    return H.DayRanking(date=date, mass=np.asarray(mass, float),
                        gtn=frozenset(gtn))


def brute_force_pre_rec(days, k):
    """Rational-arithmetic reference for the k-averaged metrics."""
    pres, recs = [], []
    for d in days:
        if not d.gtn:
            continue
        order = sorted(range(len(d.mass)), key=lambda i: (-d.mass[i], i))
        top = order[:min(k, len(d.mass))]
        tp = len(set(top) & d.gtn)
        pres.append(Fraction(tp, len(top)))
        recs.append(Fraction(tp, min(k, len(d.gtn))))
    return (sum(pres) / len(pres), sum(recs) / len(recs))


class TestRankOrder:
    def test_ties_break_by_ascending_index(self):
        assert E.rank_order([0.2, 0.5, 0.2, 0.1]) == (1, 0, 2, 3)

    def test_ranked_is_permutation(self):
        d = day([0.1, 0.1, 0.8], {2})
        assert sorted(d.ranked) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            day([0.5, -0.1], set())
        with pytest.raises(ValueError):
            day([1.0], {3})


class TestPrecisionRecallAtK:
    def test_perfect_single_day(self):
        d = day([0.1, 0.2, 0.1, 0.6], {3})
        assert H.precision_recall_at_k([d], 1) == (1.0, 1.0)

    def test_partial_hit_formula(self):
        # |gtn|=2, k=5, exactly one ground-truth doc inside the top five
        mass = [0.30, 0.20, 0.15, 0.12, 0.10, 0.08, 0.05]
        d = day(mass, {0, 6})
        pre, rec = H.precision_recall_at_k([d], 5)
        assert pre == pytest.approx(0.2)
        assert rec == pytest.approx(0.5)

    def test_short_day_uses_actual_doc_count(self):
        d = day([0.5, 0.3, 0.2], {1})
        pre, rec = H.precision_recall_at_k([d], 5)
        assert pre == pytest.approx(1 / 3)
        assert rec == 1.0

    def test_days_without_ground_truth_are_excluded(self):
        with_gt = day([0.9, 0.1], {0})
        without = day([0.5, 0.5], set())
        assert H.precision_recall_at_k([with_gt, without], 1) == (1.0, 1.0)

    def test_no_qualifying_day_is_an_error(self):
        with pytest.raises(E.UndefinedMetricError):
            H.precision_recall_at_k([day([1.0], set())], 1)
        with pytest.raises(ValueError):
            H.precision_recall_at_k([day([1.0], {0})], 0)

    def test_matches_rational_brute_force(self):
        """200 random instances agree with a Fraction-based reference."""
        rng = np.random.default_rng(0)
        for trial in range(200):
            days = []
            for _ in range(rng.integers(1, 5)):
                n = int(rng.integers(1, 9))
                mass = rng.integers(0, 4, size=n) / 4.0  # ties likely
                gtn = {int(i) for i in rng.choice(n, size=rng.integers(0, n + 1),
                                                  replace=False)}
                days.append(day(mass, gtn))
            if not any(d.gtn for d in days):
                continue
            k = int(rng.integers(1, 7))
            got = H.precision_recall_at_k(days, k)
            want = brute_force_pre_rec(days, k)
            assert abs(got[0] - want[0]) <= 1e-12
            assert abs(got[1] - want[1]) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_recall_non_decreasing_once_k_covers_ground_truth(self, seed):
        """For k >= |gtn| the denominator freezes, so recall can only grow.

        Below that point the adaptive denominator min(k, |gtn|) grows with k
        and recall may legitimately dip; see the pinned example below.
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        mass = rng.random(n)
        gtn = {int(i) for i in rng.choice(n, size=rng.integers(1, n + 1),
                                          replace=False)}
        d = day(mass, gtn)
        recalls = [H.precision_recall_at_k([d], k)[1]
                   for k in range(len(gtn), n + 2)]
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_adaptive_denominator_allows_recall_dips(self):
        """Pin the behavior: a hit at rank 1 with |gtn|=3 gives Rec@1 = 1 but
        Rec@2 = 1/2 when rank 2 misses. The adaptive formula wants this."""
        d = day([0.5, 0.3, 0.1, 0.06, 0.04], {0, 3, 4})
        assert H.precision_recall_at_k([d], 1)[1] == 1.0
        assert H.precision_recall_at_k([d], 2)[1] == 0.5

    def test_invariant_to_order_preserving_rescale(self):
        rng = np.random.default_rng(5)
        mass = rng.random(6)
        d1 = day(mass, {1, 4})
        d2 = day(mass * 7.5, {1, 4})
        for k in range(1, 6):
            assert H.precision_recall_at_k([d1], k) == \
                H.precision_recall_at_k([d2], k)


def per_k_pre_rec(days, k):
    """Pre@k and Rec@k as one float pass over the days for this k alone."""
    qualifying = [d for d in days if d.gtn]
    pre = rec = 0.0
    for d in qualifying:
        top = E.rank_order(d.mass)[:min(k, d.n)]
        tp = sum(1 for i in top if i in d.gtn)
        pre += tp / len(top)
        rec += tp / min(k, len(d.gtn))
    return pre / len(qualifying), rec / len(qualifying)


class TestPrecisionRecallCurve:
    def random_days(self, rng):
        days = []
        for _ in range(rng.integers(1, 30)):
            n = int(rng.integers(1, 9))
            mass = rng.integers(0, 4, size=n) / 4.0  # ties in mass likely
            gtn = {int(i) for i in rng.choice(n, size=rng.integers(0, n + 1),
                                              replace=False)}
            days.append(day(mass, gtn))
        return days

    def test_bitwise_equal_to_per_k_loop(self):
        """Days with n < k, days without ground truth and ties in mass."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            days = self.random_days(rng)
            if not any(d.gtn for d in days):
                continue
            k_max = int(rng.integers(1, 12))
            curve = H.precision_recall_curve(days, k_max)
            assert [p.k for p in curve] == list(range(1, k_max + 1))
            for p in curve:
                assert (p.precision, p.recall) == per_k_pre_rec(days, p.k)
                assert (p.precision, p.recall) == \
                    H.precision_recall_at_k(days, p.k)

    def test_errors(self):
        with pytest.raises(ValueError):
            H.precision_recall_curve([day([1.0], {0})], 0)
        with pytest.raises(E.UndefinedMetricError):
            H.precision_recall_curve([day([1.0], set())], 3)


class TestSelectRelevant:
    def test_published_example_two_docs(self):
        # 0.40 then 0.21 reaches 0.61; rows 13 and 04 in 1-indexed terms
        assert E.select_relevant(MASSES_JAN22) == (12, 3)

    def test_published_example_single_doc(self):
        assert E.select_relevant(MASSES_AUG14) == (9,)

    def test_published_example_dominant_doc(self):
        # the column sums to less than one yet still clears the threshold
        assert E.select_relevant(MASSES_JAN09) == (1,)

    def test_uniform_boundary_inclusive(self):
        assert E.select_relevant([0.25, 0.25, 0.25, 0.25]) == (0, 1)

    def test_under_threshold_returns_everything(self):
        assert E.select_relevant([0.2, 0.1, 0.1]) == (0, 1, 2)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_shortest_qualifying_prefix(self, raw):
        mass = np.asarray(raw, float)
        total = mass.sum()
        mass = mass / total if total else mass
        picked = E.select_relevant(mass)
        cum = float(mass[list(picked)].sum())
        if cum >= 0.5:
            assert float(mass[list(picked[:-1])].sum()) < 0.5
        else:
            assert len(picked) == len(mass)


def select_by_running_sum(mass):
    """The cumulative-mass rule one document at a time: the stable
    descending order, cut where a running float sum first reaches 0.5."""
    order = sorted(range(len(mass)), key=lambda i: -mass[i])
    total = 0.0
    for j, i in enumerate(order, 1):
        total += mass[i]
        if total >= E.SELECT_THRESHOLD:
            return order, j
    return order, len(order)


class TestRankPass:
    @given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=6),
                    min_size=1, max_size=5),
           st.sampled_from([0.0, 0.3, np.inf]))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_one_vector_at_a_time(self, rows, pad):
        """Every row of a padded pass ranks and cuts as its own vector does,
        whatever its padding holds."""
        width = max(map(len, rows))
        mass = np.full((len(rows), width), pad)
        for b, raw in enumerate(rows):
            mass[b, :len(raw)] = np.asarray(raw, float) / 10.0
        order, cut = E.rank_pass(mass, [len(r) for r in rows])
        for b, raw in enumerate(rows):
            vec = (np.asarray(raw, float) / 10.0).tolist()
            want_order, want_cut = select_by_running_sum(vec)
            assert order[b, :len(raw)].tolist() == want_order
            assert int(cut[b]) == want_cut
            assert E.rank_order(vec) == tuple(want_order)
            assert E.select_relevant(vec) == tuple(want_order[:want_cut])


class TestMovementMetrics:
    def test_all_correct(self):
        got = E.movement_metrics(["up", "down"], ["up", "down"])
        assert got.accuracy == 1.0
        assert got.up_precision == got.up_recall == 1.0
        assert got.down_precision == got.down_recall == 1.0

    def test_degenerate_all_up_predictor(self):
        got = E.movement_metrics(["up"] * 4, ["up", "up", "down", "down"])
        assert got.accuracy == 0.5
        assert got.up_precision == 0.5
        assert got.up_recall == 1.0
        assert got.down_recall == 0.0
        assert got.down_precision is None  # no down predictions made

    def test_absent_target_class_is_undefined_not_zero(self):
        got = E.movement_metrics(["up", "down"], ["up", "up"])
        assert got.down_recall is None
        assert got.down_precision == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(9)
        labels = ["up", "down"]
        preds = [labels[i] for i in rng.integers(2, size=50)]
        targets = [labels[i] for i in rng.integers(2, size=50)]
        got = E.movement_metrics(preds, targets)
        tp = sum(p == t == "up" for p, t in zip(preds, targets))
        tn = sum(p == t == "down" for p, t in zip(preds, targets))
        assert got.accuracy == (tp + tn) / 50
        assert got.up_precision == tp / preds.count("up")
        assert got.up_recall == tp / targets.count("up")
        assert got.down_precision == tn / preds.count("down")
        assert got.down_recall == tn / targets.count("down")

    def test_empty_rejected(self):
        with pytest.raises(E.UndefinedMetricError):
            E.movement_metrics([], [])
        with pytest.raises(ValueError):
            E.movement_metrics(["sideways"], ["up"])


def build_eval_samples(variant="msin", n_days=20, seed=0):
    config = M.ModelConfig(variant=variant, d_s=3, d_h=2, d_w=3, vocab_size=24,
                           m=2, series_dim=1, max_tokens=4, daily_doc_cap=4)
    spec = D.SynthSpec(n_days=n_days, seed=seed, n_docs=(2, 4), doc_len=(2, 4),
                       vocab_size=10, plant_per_day=True)
    corpus, series = D.synth_generate(spec)
    vocab = D.build_vocab(corpus, max_size=config.vocab_size)
    samples = D.make_samples(corpus, series, vocab, config,
                             D.SplitSpec(fracs=(0.6, 0.2, 0.2)))
    return config, M.init_model(config, seed=1), samples


class TestRankReport:
    def test_report_consistent_with_direct_metrics(self):
        config, params, samples = build_eval_samples()
        result = E.rank_report(params, config, samples.test, k_max=3)
        rankings = []
        for s in samples.test:
            pred = M.forward(None, s, params, config)
            rankings.append(H.DayRanking(date=s.window.date,
                                         mass=pred.relevance.data,
                                         gtn=E.gtn_of(s)))
            np.testing.assert_allclose(pred.relevance.data.sum(), 1.0,
                                       rtol=0, atol=1e-6)
        for p in result.report.per_k:
            assert (p.precision, p.recall) == \
                H.precision_recall_at_k(rankings, p.k)
        assert result.report.days == len(samples.test)
        assert result.report.gtd == len(samples.test)  # one plant per day
        assert len(result.days) == len(samples.test)

    def test_single_day_report(self):
        config, params, samples = build_eval_samples()
        one = samples.test[:1]
        result = E.rank_report(params, config, one)
        pred = M.forward(None, one[0], params, config)
        d = H.DayRanking(date=one[0].window.date, mass=pred.relevance.data,
                         gtn=E.gtn_of(one[0]))
        assert result.report.per_k[0] == E.KPoint(1, *H.precision_recall_at_k([d], 1))

    def test_lstm_par_marks_relevance_unavailable(self):
        config, params, samples = build_eval_samples(variant="lstm_par")
        result = E.rank_report(params, config, samples.test)
        assert not result.report.relevance_available
        assert result.report.per_k == ()
        assert result.days == ()
        assert result.report.movement.n == len(samples.test)

    def test_oracle_ranker_scores_perfect_recall_at_one(self):
        """Masses set to the planted-doc indicator must give Rec@1 = 1."""
        _, _, samples = build_eval_samples(n_days=30, seed=3)
        days = []
        for s in samples.test:
            gtn = E.gtn_of(s)
            mass = np.zeros(s.docs.n)
            for i in gtn:
                mass[i] = 1.0 / len(gtn)
            days.append(H.DayRanking(date=s.window.date, mass=mass, gtn=gtn))
        _, rec1 = H.precision_recall_at_k(days, 1)
        assert rec1 == 1.0

    def test_empty_sample_list_rejected(self):
        config, params, _ = build_eval_samples()
        with pytest.raises(E.UndefinedMetricError):
            E.rank_report(params, config, [])


def ragged_eval_samples(variant):
    """Days of 1-10 documents of 1-5 tokens, every split joined."""
    config = M.ModelConfig(variant=variant, d_s=4, d_h=3, d_w=4, vocab_size=30,
                           m=3, series_dim=1, max_tokens=4, daily_doc_cap=10)
    spec = D.SynthSpec(n_days=40, seed=5, n_docs=(1, 10), doc_len=(1, 5),
                       vocab_size=12, plant_prob=0.3)
    corpus, series = D.synth_generate(spec)
    vocab = D.build_vocab(corpus, max_size=config.vocab_size)
    sset = D.make_samples(corpus, series, vocab, config,
                          D.SplitSpec(fracs=(0.6, 0.2, 0.2)))
    samples = sset.train + sset.valid + sset.test
    assert {s.docs.n for s in samples} >= {1, 10}
    return config, M.init_model(config, seed=2), samples


def one_day_rank_report(params, config, samples, k_max):
    """rank_report's result, computed with one forward per day."""
    rankings, records, preds, targets = [], [], [], []
    for s in samples:
        pred = M.forward(None, s, params, config)
        preds.append(M.predicted_movement([float(pred.value.data[0])], [s],
                                           config)[0])
        targets.append(M.movement_label(s.window.target, s.window.prev))
        if pred.relevance is None:
            continue
        mass = pred.relevance.data.astype(np.float64)
        rankings.append(H.DayRanking(date=s.window.date, mass=mass,
                                     gtn=E.gtn_of(s)))
        records.append(E.DayRecord(date=s.window.date,
                                   mass=tuple(float(v) for v in mass),
                                   gtn=tuple(sorted(E.gtn_of(s))),
                                   selected=E.select_relevant(mass)))
    per_k = tuple(E.KPoint(k, *H.precision_recall_at_k(rankings, k))
                  for k in range(1, k_max + 1)) if rankings else ()
    return records, per_k, E.movement_metrics(preds, targets)


def one_day_entropy(params, config, samples):
    total = 0.0
    for s in samples:
        p = M.forward(None, s, params, config).relevance.data.astype(np.float64)
        p = p[p > 0.0]
        total += float(-(p * np.log(p)).sum())
    return total / len(samples)


class TestBatchedEvaluation:
    """Chunked evaluation equals one forward per day, bit for bit."""

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_rank_report_matches_one_day_forwards(self, variant, monkeypatch):
        monkeypatch.setattr(TR, "EVAL_CHUNK", 3)
        config, params, samples = ragged_eval_samples(variant)
        assert len(samples) % 3 != 0
        assert len(set(H.pass_sizes(samples, config))) >= 2
        records, per_k, movement = one_day_rank_report(params, config, samples, 5)
        got = E.rank_report(params, config, samples, k_max=5)
        assert got.days == tuple(records)
        assert got.report.per_k == per_k
        assert got.report.movement == movement
        assert got.report.relevance_available == (variant != "lstm_par")
        assert len(got.days) == (0 if variant == "lstm_par" else len(samples))

    @pytest.mark.parametrize("variant", ["msin", "lstm_wo"])
    def test_entropy_matches_one_day_forwards(self, variant, monkeypatch):
        monkeypatch.setattr(TR, "EVAL_CHUNK", 3)
        config, params, samples = ragged_eval_samples(variant)
        assert len(set(H.pass_sizes(samples, config))) >= 2
        assert E.attention_entropy(params, config, samples) == \
            one_day_entropy(params, config, samples)


class TestAttentionEntropy:
    def test_matches_direct_computation_and_bounds(self):
        config, params, samples = build_eval_samples()
        got = E.attention_entropy(params, config, samples.test)
        expect = []
        for s in samples.test:
            p = M.forward(None, s, params, config).relevance.data.astype(float)
            p = p[p > 0]
            expect.append(-(p * np.log(p)).sum())
        assert got == pytest.approx(np.mean(expect), rel=1e-12)
        assert 0.0 <= got <= np.log(config.daily_doc_cap) + 1e-9

    def test_no_relevance_variant_rejected(self):
        config, params, samples = build_eval_samples(variant="lstm_par")
        with pytest.raises(E.UndefinedMetricError):
            E.attention_entropy(params, config, samples.test)
        with pytest.raises(E.UndefinedMetricError):
            E.attention_entropy(params, config, [])


class TestEmission:
    def test_day_dump_bytes_match_per_line_json_dumps(self, tmp_path):
        config, params, samples = build_eval_samples(n_days=30)
        result = E.rank_report(params, config, samples.train, k_max=2)
        path = str(tmp_path / "days.jsonl")
        E.write_day_dump(result, path)
        want = "".join(json.dumps({"date": d.date.isoformat(),
                                   "mass": list(d.mass), "gtn": list(d.gtn),
                                   "selected": list(d.selected)},
                                  sort_keys=True) + "\n" for d in result.days)
        assert len(result.days) == len(samples.train)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("utf-8")

    def test_files_written_and_deterministic(self, tmp_path):
        config, params, samples = build_eval_samples()
        result = E.rank_report(params, config, samples.test, k_max=4)
        rpt1, dump1, csv1 = (str(tmp_path / n) for n in
                             ("report.json", "days.jsonl", "curve.csv"))
        E.write_report(result, config, rpt1)
        E.write_day_dump(result, dump1)
        E.write_curve_csv(result, csv1)

        blob = json.load(open(rpt1))
        assert blob["config_hash"] == M.config_hash(config)
        assert len(blob["per_k"]) == 4
        assert blob["days"] == len(samples.test)
        assert blob["precision_denominator"] == "min(k,n)"
        assert set(blob["movement"]) == {"accuracy", "n", "up", "down"}

        lines = [json.loads(l) for l in open(dump1)]
        assert len(lines) == len(samples.test)
        assert set(lines[0]) == {"date", "mass", "gtn", "selected"}

        rows = open(csv1).read().splitlines()
        assert rows[0] == "k,precision,recall"
        assert len(rows) == 5

        result2 = E.rank_report(params, config, samples.test, k_max=4)
        rpt2 = str(tmp_path / "report2.json")
        E.write_report(result2, config, rpt2)
        assert open(rpt1, "rb").read() == open(rpt2, "rb").read()


class TestPassChecks:
    """rank_report checks each pass's masses as an array and rejects what a
    per-day check rejects: a NaN or a negative mass on any day of a pass."""

    @pytest.mark.parametrize("value", [np.nan, -1e-3])
    def test_bad_mass_on_a_middle_day_is_rejected(self, value, monkeypatch):
        monkeypatch.setattr(TR, "EVAL_CHUNK", 3)
        config, params, samples = ragged_eval_samples("msin")
        sizes = H.pass_sizes(samples, config)
        assert len(sizes) >= 3 and sizes[1] >= 3
        middle = samples[sizes[0] + 1]
        real = M.forward_batch

        def forward(tape, chunk, *args, **kwargs):
            pred = real(tape, chunk, *args, **kwargs)
            for b, s in enumerate(chunk):
                if s is middle:
                    pred.relevance.data[b, s.docs.n - 1] = value
            return pred

        monkeypatch.setattr(M, "forward_batch", forward)
        with pytest.raises(T.EngineError, match="attention mass of %s is not "
                           "finite" % middle.window.date):
            E.rank_report(params, config, samples)
        with pytest.raises(ValueError, match="finite and non-negative"):
            H.DayRanking(date=middle.window.date,
                         mass=[0.5, value], gtn=frozenset())
