"""Planted-association recovery on synthetic data.

Builds a corpus where each day carries exactly one signal headline whose
token group (positive or negative) sets the direction of the next
series value, trains the attention model, and checks that the final
attention mass ranks the planted headline at the top of its day. The
align-once ablation trains under the identical budget for comparison;
its recall is reported but not gated, since at this scale the ordering
between the two depends on the draw.

Training can settle into a half solution: attention sharp on one token
group, diffuse on the other, with the diffuse group still read well
enough through the context vector that prediction error barely
distinguishes the regimes. The run therefore trains a small pool of
seeds and keeps the candidate whose validation attention mass has the
lowest mean entropy. The selector never reads relevance flags, so model
choice stays blind to ground truth.

Each seed's line also reports its test rec@1 and rec@3 and its top-1
rate on the days of each plant sign ("+" and "-"); a seed with a top-1
rate of at least FULL on both signs counts as a full solution. These
read the relevance flags, so they are printed after training and never
enter the selection.

Exit status is 0 when both recall gates pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
import time

import msin.data as D
import msin.evaluation as E
import msin.model as M
import msin.training as TR

GATES = ((1, 0.80), (3, 0.95))
POOL = (0, 1, 2)
STEPS = 1500
LEARNING_RATE = 3e-3
BATCH_SIZE = 8
FULL = 0.9  # top-1 rate on both plant signs that makes a full solution


def build_dataset():
    spec = D.SynthSpec(n_days=2200, n_docs=(10, 10), doc_len=(8, 8),
                       plant_per_day=True, phi=0.5, alpha=1.0, sigma=0.1,
                       seed=42)
    corpus, series = D.synth_generate(spec)
    split = D.SplitSpec(train_until=spec.start + dt.timedelta(days=1999),
                        valid_until=spec.start + dt.timedelta(days=2099))
    return corpus, series, split


def plant_signs(samples, vocab) -> list[str]:
    """Each sample's plant sign, "+" or "-": the lexicon group of its
    planted headline."""
    plus = {vocab.ids[w] for w in D.S_PLUS if w in vocab.ids}
    return ["+" if plus & set(s.docs.token_ids[E.gtn_of(s)[0]].tolist())
            else "-" for s in samples]


def model_config(variant: str) -> M.ModelConfig:
    # Dropout on the fused feature regularizes the head. It does not by
    # itself force the attention sharp: over seeds 0-11 most runs stop in
    # the half solution at this rate, and dropout 0 solved a seed that
    # 0.4 did not.
    return M.ModelConfig(variant=variant, d_s=16, d_h=8, d_w=16,
                         dropout_rate=0.4, vocab_size=64, m=5,
                         max_tokens=8, daily_doc_cap=10)


def recall_at(result: E.RankResult, k: int) -> float:
    for point in result.report.per_k:
        if point.k == k:
            return point.recall
    raise KeyError(k)


def seed_row(seed, valid_mse, entropy, ranked: E.RankResult, signs) -> dict:
    """One seed's report: test recall and top-1 rate by plant sign."""
    top1 = {"+": [], "-": []}
    for sign, day in zip(signs, ranked.days):
        top1[sign].append(day.selected[0] in day.gtn)
    rates = {sign: sum(hits) / len(hits) if hits else float("nan")
             for sign, hits in top1.items()}
    return {"seed": seed, "valid_mse": valid_mse, "entropy": entropy,
            "rec1": recall_at(ranked, 1), "rec3": recall_at(ranked, 3),
            "top1_plus": rates["+"], "top1_minus": rates["-"],
            "full": rates["+"] >= FULL and rates["-"] >= FULL}


def train_pool(samples, variant, seeds, steps, signs, k_max):
    """One model per seed; returns (entropy, seed, params, test ranking,
    report row) per candidate."""
    config = model_config(variant)
    out = []
    for seed in seeds:
        t0 = time.time()
        params = M.init_model(config, seed=seed)
        # A single validation pass at the end: mid-run restores would
        # freeze the model before the attention finishes sharpening,
        # because that last phase barely moves the prediction loss.
        tcfg = TR.TrainConfig(learning_rate=LEARNING_RATE,
                              batch_size=BATCH_SIZE, max_steps=steps,
                              eval_every=steps, seed=seed)
        result = TR.train(samples, params, config, tcfg)
        ent = E.attention_entropy(params, config, samples.valid)
        ranked = E.rank_report(params, config, samples.test, k_max=k_max)
        row = seed_row(seed, result.best_valid, ent, ranked, signs)
        print("  %s seed %d: valid mse %.4f  attention entropy %.3f  "
              "rec@1 %.2f  rec@3 %.2f  top-1 + %.2f  - %.2f  (%.0f s)"
              % (variant, seed, row["valid_mse"], ent, row["rec1"],
                 row["rec3"], row["top1_plus"], row["top1_minus"],
                 time.time() - t0), flush=True)
        out.append((ent, seed, params, ranked, row))
    print("  %s full solutions: %d of %d (top-1 rate >= %.2f on both signs)"
          % (variant, sum(c[4]["full"] for c in out), len(out), FULL))
    return out


def run(seeds, steps, out_path) -> int:
    t_start = time.time()
    print("generating corpus: 2200 days, 10 headlines/day, one planted each")
    corpus, series, split = build_dataset()
    config = model_config("msin")
    vocab = D.build_vocab(corpus, max_size=config.vocab_size)
    samples = D.make_samples(corpus, series, vocab, config, split)
    signs = plant_signs(samples.test, vocab)
    print("samples: train %d  valid %d  test %d"
          % (len(samples.train), len(samples.valid), len(samples.test)))

    k_max = max(k for k, _ in GATES)
    print("training attention model, %d seed(s) x %d steps"
          % (len(seeds), steps))
    pool = train_pool(samples, "msin", seeds, steps, signs, k_max)
    ent, seed, _, picked, _ = min(pool, key=lambda c: (c[0], c[1]))
    print("selected seed %d (lowest validation attention entropy)" % seed)

    print("training align-once ablation under the same budget")
    base_pool = train_pool(samples, "lstm_wo", seeds, steps, signs, k_max)
    bent, bseed, _, baseline, _ = min(base_pool, key=lambda c: (c[0], c[1]))
    print("selected baseline seed %d" % bseed)

    print()
    print("test ranking over %d days:" % picked.report.days)
    print("  model        rec@1  rec@3  movement acc")
    for name, rep in (("attention", picked), ("align-once", baseline)):
        print("  %-12s %.2f   %.2f   %.2f"
              % (name, recall_at(rep, 1), recall_at(rep, 3),
                 rep.report.movement.accuracy))

    gate_rows = []
    for k, floor in GATES:
        got = recall_at(picked, k)
        ok = got >= floor
        gate_rows.append({"k": k, "floor": floor, "value": got, "pass": ok})
        print("gate rec@%d >= %.2f: %s (%.2f)"
              % (k, floor, "pass" if ok else "FAIL", got))
    passed = all(g["pass"] for g in gate_rows)
    runtime = time.time() - t_start
    print("total %.0f s" % runtime)

    if out_path:
        summary = {
            "pool": list(seeds), "steps": steps,
            "selected_seed": seed, "selected_entropy": ent,
            "baseline_seed": bseed, "baseline_entropy": bent,
            "attention": {
                "rec1": recall_at(picked, 1), "rec3": recall_at(picked, 3),
                "movement_accuracy": picked.report.movement.accuracy},
            "align_once": {
                "rec1": recall_at(baseline, 1),
                "rec3": recall_at(baseline, 3),
                "movement_accuracy": baseline.report.movement.accuracy},
            "gates": gate_rows, "passed": passed,
            "seeds": {"msin": [c[4] for c in pool],
                      "lstm_wo": [c[4] for c in base_pool]},
            "full_solutions": {"msin": sum(c[4]["full"] for c in pool),
                               "lstm_wo": sum(c[4]["full"] for c in base_pool)},
            "runtime_s": round(runtime, 1),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print("wrote %s" % out_path)
    return 0 if passed else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="train on planted synthetic data and gate on "
                    "top-of-day recall of the planted headline")
    ap.add_argument("--seeds", default=",".join(str(s) for s in POOL),
                    help="comma-separated init seed pool (default %(default)s)")
    ap.add_argument("--steps", type=int, default=STEPS,
                    help="training steps per seed (default %(default)s)")
    ap.add_argument("--quick", action="store_true",
                    help="first seed only, 300 steps: exercises the "
                         "pipeline, the gates will usually fail")
    ap.add_argument("--out", metavar="PATH",
                    help="write a JSON summary of the run here")
    args = ap.parse_args(argv)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        ap.error("--seeds wants comma-separated integers")
    if not seeds:
        ap.error("--seeds wants at least one seed")
    steps = args.steps
    if steps < 1:
        ap.error("--steps wants a positive integer")
    if args.quick:
        seeds, steps = seeds[:1], min(steps, 300)
    return run(seeds, steps, args.out)


if __name__ == "__main__":
    sys.exit(main())
