"""End-to-end acceptance gates, one test per shipping criterion.

Each test prints a single verdict line (visible with ``pytest -s``; on a
failure pytest shows it in the captured output). The tests exercise the
installed package the way a user would: through the CLI, the library
API, and the experiment script under scripts/.

The planted-association test trains real models and dominates the
suite's runtime; everything else finishes in seconds.
"""

import dataclasses
import datetime as dt
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import msin.cell as C
import msin.cli as cli
import msin.data as D
import msin.evaluation as E
import msin.model as M
import msin.tensor as T
import msin.training as TR
from msin.rng import substream

import helpers as H

ROOT = Path(__file__).resolve().parents[1]


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = "criterion %2d  %-32s %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line, flush=True)
    assert ok, line


def test_criterion_01_gradient_fidelity(capsys):
    """CLI gradcheck: every tensor of every variant beats 1e-4 in < 30 s."""
    t0 = time.monotonic()
    rc = cli.main(["gradcheck"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    hit = re.search(r"worst relative error ([0-9.e+-]+)", out)
    ok = rc == 0 and "gradcheck pass" in out and elapsed < 30.0
    verdict(1, "gradient fidelity", ok,
            "worst rel err %s, %.1f s" % (hit.group(1) if hit else "?", elapsed))


def test_criterion_02_published_mass_fixtures():
    """Cumulative-mass selection reproduces the published highlighted sets."""
    jan22 = [0.00, 0.15, 0.03, 0.21, 0.09, 0.03, 0.04, 0.02, 0.03,
             0.01, 0.00, 0.01, 0.40]
    aug14 = [0.00, 0.00, 0.00, 0.00, 0.00, 0.03, 0.00, 0.02, 0.01,
             0.76, 0.17]
    jan09 = [0.00, 0.87, 0.00, 0.00]
    # expected sets use 0-based indices; the published tables count from 1
    ok = (set(E.select_relevant(jan22)) == {12, 3}
          and set(E.select_relevant(aug14)) == {9}
          and set(E.select_relevant(jan09)) == {1}
          and jan09[1] == 0.87)
    verdict(2, "published mass fixtures", ok, "3 dates, exact set equality")


def brute_pre_rec(days, k):
    """Deliberately naive Pre@k/Rec@k: plain Python, no shared code paths."""
    pres, recs = [], []
    for day in days:
        if not day.gtn:
            continue
        order = sorted(range(len(day.mass)), key=lambda i: (-day.mass[i], i))
        top = order[:min(k, len(day.mass))]
        hits = len([i for i in top if i in day.gtn])
        pres.append(hits / len(top))
        recs.append(hits / min(k, len(day.gtn)))
    return sum(pres) / len(pres), sum(recs) / len(recs)


def test_criterion_03_metric_oracle_equivalence():
    """Pre@k/Rec@k agree with a brute-force oracle on 200 random instances."""
    rng = np.random.default_rng(2026)
    t0 = time.monotonic()
    done, worst = 0, 0.0
    while done < 200:
        days = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 13))
            mass = rng.random(n)
            if rng.random() < 0.3:
                mass = np.round(mass, 1)  # provoke tied masses
            gtn = frozenset(int(i) for i in np.flatnonzero(rng.random(n) < 0.4))
            days.append(H.DayRanking(date=dt.date(2020, 1, 1), mass=mass,
                                     gtn=gtn))
        if not any(d.gtn for d in days):
            continue
        k = int(rng.integers(1, 9))
        pre, rec = H.precision_recall_at_k(days, k)
        bpre, brec = brute_pre_rec(days, k)
        worst = max(worst, abs(pre - bpre), abs(rec - brec))
        done += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(3, "metric oracle equivalence", ok,
            "200 instances, worst gap %.1e, %.1f s" % (worst, elapsed))


def test_criterion_04_planted_association_recovery(tmp_path):
    """The experiment script recovers the planted headline within budget."""
    out = tmp_path / "summary.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "association_recovery.py"),
         "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT)
    elapsed = time.monotonic() - t0
    blob = json.loads(out.read_text()) if out.exists() else {}
    ok = proc.returncode == 0 and blob.get("passed") is True and elapsed < 900
    if not ok:
        print(proc.stdout[-2000:])
        print(proc.stderr[-2000:])
    att, base = blob.get("attention", {}), blob.get("align_once", {})
    verdict(4, "planted association recovery", ok,
            "rec@1 %s rec@3 %s, align-once %s/%s, %.0f s"
            % (att.get("rec1"), att.get("rec3"),
               base.get("rec1"), base.get("rec3"), elapsed))


def test_criterion_05_overfit_sanity():
    """Eight samples, tiny model: train MSE under 1e-3 inside 2000 steps."""
    config = M.ModelConfig(variant="msin", d_s=8, d_h=4, d_w=8, vocab_size=40,
                           m=3, max_tokens=6, daily_doc_cap=4)
    spec = D.SynthSpec(n_days=20, n_docs=(2, 4), doc_len=(3, 6), seed=11,
                       plant_per_day=True)
    corpus, series = D.synth_generate(spec)
    vocab = D.build_vocab(corpus, max_size=config.vocab_size)
    sset = D.make_samples(corpus, series, vocab, config,
                          D.SplitSpec(fracs=(0.8, 0.1, 0.1)))
    eight = sset.train[:8]
    assert len(eight) == 8
    tiny = dataclasses.replace(sset, train=eight, valid=eight, test=())
    params = M.init_model(config, seed=3)
    tcfg = TR.TrainConfig(learning_rate=1e-2, batch_size=8, max_steps=2000,
                          eval_every=50, early_stop_patience=40, seed=3)
    t0 = time.monotonic()
    result = TR.train(tiny, params, config, tcfg)
    elapsed = time.monotonic() - t0
    mse = TR.eval_loss(eight, params, config)
    ok = mse < 1e-3 and result.steps_run <= 2000 and elapsed < 60.0
    verdict(5, "overfit sanity", ok,
            "mse %.2e after %d steps, %.0f s" % (mse, result.steps_run, elapsed))


def test_criterion_06_structural_reduction():
    """Zeroed context weights make the full cell equal a plain LSTM bitwise."""
    rng = np.random.default_rng(6)
    ok = True
    for trial in range(20):
        d_s = 3 + trial % 3
        doc_dim = 4 + 2 * (trial % 2)
        d_in = 1 + trial % 2
        params = C.init_msin(d_s, 3, d_in, doc_dim,
                             substream(500 + trial, "init"))
        params.cell.ctx_w.data[...] = 0.0
        n = int(rng.integers(2, 6))
        docs = H.docs_of(rng.normal(size=(n, doc_dim)).astype(np.float32))
        window = rng.normal(size=(int(rng.integers(2, 7)), d_in))
        full, _ = H.run_sequence(None, window, docs, np.ones(n, dtype=bool),
                                 params)
        state0 = H.init_states(None, docs, params)
        plain = H.run_plain_sequence(None, window, params.cell,
                                     state0.c, state0.h)
        ok = ok and full.data.tobytes() == plain.data.tobytes()
    verdict(6, "structural reduction", ok, "20 random inputs, bit-identical")


def test_criterion_07_closed_form_context():
    """Identical documents and fixed attention give v_l = s * (1 - 2^-l)."""
    rng = np.random.default_rng(7)
    s = rng.normal(size=6).astype(np.float32)
    docs = H.docs_of(np.tile(s, (4, 1)))
    raw = rng.random(4)
    p = T.constant((raw / raw.sum()).astype(np.float32))
    v = T.constant(np.zeros(6))
    worst = 0.0
    for ell in range(1, 11):
        v = H.update_context(None, p, docs, v)
        expect = s.astype(np.float64) * (1.0 - 0.5 ** ell)
        worst = max(worst, float(np.abs(v.data - expect).max()))
    ok = worst <= 1e-6
    verdict(7, "closed-form context fade", ok,
            "l <= 10, worst abs gap %.1e" % worst)


def test_criterion_08_checkpoint_round_trip(tmp_path):
    """save -> load -> save is byte-stable; corrupt files are rejected."""
    config = M.ModelConfig(variant="msin", d_s=4, d_h=3, d_w=5, vocab_size=20,
                           m=3, max_tokens=4, daily_doc_cap=3)
    params = M.init_model(config, seed=9)
    tcfg = TR.TrainConfig(seed=9)
    meta = {"step": 0, "seed": 9, "valid_loss": None}
    p1, p2 = str(tmp_path / "a.msn"), str(tmp_path / "b.msn")
    TR.checkpoint_save(params, config, tcfg, meta, p1)
    loaded, cfg2, tcfg2, meta2 = TR.checkpoint_load(p1)
    TR.checkpoint_save(loaded, cfg2, tcfg2, meta2, p2)
    blob = Path(p1).read_bytes()
    round_trip = blob == Path(p2).read_bytes()

    bad_magic = tmp_path / "bad.msn"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    truncated = tmp_path / "cut.msn"
    truncated.write_bytes(blob[:len(blob) // 2])
    rejects = 0
    for broken in (bad_magic, truncated):
        try:
            TR.checkpoint_load(str(broken))
        except TR.CheckpointError:
            rejects += 1
    ok = round_trip and rejects == 2
    verdict(8, "checkpoint round trip", ok,
            "byte-identical resave, 2/2 corruptions rejected")


def test_criterion_09_training_determinism(tmp_path):
    """Two CLI train runs with seed 7 log identical history."""
    data = tmp_path / "data"
    data.mkdir()
    rc = cli.main(["synth", "--out-dir", str(data), "--days", "60",
                   "--seed", "7"])
    assert rc == 0
    histories = []
    for run in ("one", "two"):
        out = tmp_path / run
        out.mkdir()
        rc = cli.main(["train",
                       "--corpus", str(data / "corpus.jsonl"),
                       "--series", str(data / "series.csv"),
                       "--out-dir", str(out),
                       "--d-s", "4", "--d-h", "3", "--d-w", "6",
                       "--vocab-size", "40", "--m", "3",
                       "--max-tokens", "4", "--daily-doc-cap", "3",
                       "--max-steps", "100", "--eval-every", "20",
                       "--seed", "7"])
        assert rc == 0
        histories.append((out / "history.csv").read_bytes())
    lines = histories[0].decode().splitlines()
    ok = histories[0] == histories[1] and len(lines) == 101
    verdict(9, "training determinism", ok,
            "seed 7, %d history rows byte-identical" % (len(lines) - 1))


def test_criterion_10_desk_scale_disclosure():
    """README states plainly which published results desk scale cannot reach."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    numbers = all(tok in text for tok in ("84.9", "87.2", "46.8", "59.6"))
    movement = re.search(r"52[^0-9]{1,3}56\s*%", text) is not None
    sourced = "proprietar" in text.lower()
    ok = numbers and movement and sourced
    verdict(10, "desk-scale disclosure", ok,
            "headline numbers and corpus caveat present in README")
