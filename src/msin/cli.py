"""Command line front end: synth, train, eval, rank, and gradcheck.

Every option can also be given in a flat key=value config file (``#`` starts
a comment); command line flags win over file values, file values over
defaults. Exit codes: 0 success, 1 usage or configuration mistake, 2 broken
input data or checkpoint, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import datetime as dt
import functools
import glob
import hashlib
import json
import os
import sys

import numpy as np

from . import data as D
from . import evaluation as E
from . import model as M
from . import tensor as T
from . import training as TR
from .files import write_atomically
from .rng import substream
from .text_encoder import embedding_fields, load_embedding_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_TOL = 1e-4
# Fixed widths for the gradient check harness; small enough that central
# differences over every parameter of all three variants stay under half a
# minute, large enough that every code path (masking, attention, context
# injection) is exercised.
GRADCHECK_WIDTHS = dict(d_s=4, d_h=3, d_a=4, d_w=5, vocab_size=20,
                        m=3, max_tokens=4, daily_doc_cap=3)
GRADCHECK_SEED = 1
DEFAULT_FRACS = (0.8, 0.1, 0.1)
SPLITS = ("train", "valid", "test", "all")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; our contract reserves 2 for data."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# option plumbing: one table per subcommand, shared between flags and file


def _c_int(key: str, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise _UsageError("%s expects an integer, got %r" % (key, s)) from None


def _c_float(key: str, s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise _UsageError("%s expects a number, got %r" % (key, s)) from None


def _c_bool(key: str, s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise _UsageError("%s expects true or false, got %r" % (key, s))


def _c_str(key: str, s: str) -> str:
    return s


def _c_date(key: str, s: str):
    try:
        return dt.date.fromisoformat(s)
    except ValueError:
        raise _UsageError("%s expects YYYY-MM-DD, got %r" % (key, s)) from None


def _c_fracs(key: str, s: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in s.split(","))
    except ValueError:
        raise _UsageError("%s expects comma-separated numbers, got %r"
                          % (key, s)) from None
    if len(parts) != 3:
        raise _UsageError("%s expects three fractions, got %d" % (key, len(parts)))
    return parts


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise _UsageError("cannot read config file: %s" % e) from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise _UsageError("%s:%d: expected key=value, got %r"
                              % (path, lineno, raw.strip()))
        if key in out:
            raise _UsageError("%s:%d: duplicate key %r" % (path, lineno, key))
        out[key] = value
    return out


REQUIRED = object()  # the default of an option its command cannot run without


def _add_table(parser: argparse.ArgumentParser, table: dict) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file")
    for key, (_conv, default, help_text) in table.items():
        if default is REQUIRED:
            help_text += " (required)"
        elif default is not None:
            help_text += " (default %s)" % (default,)
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=None, metavar="V", help=help_text)


def _merge(args, table: dict) -> dict:
    """Resolve each option: flag, else config file, else default."""
    file_cfg = read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(table)
    if unknown:
        raise _UsageError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    merged = {}
    for key, (conv, default, _help) in table.items():
        raw = getattr(args, key)
        if raw is None:
            raw = file_cfg.get(key)
        merged[key] = default if raw is None else conv(key, raw)
    return merged


def _require(merged: dict) -> None:
    missing = [k for k, v in merged.items() if v is REQUIRED]
    if missing:
        raise _UsageError("missing required option(s): %s"
                          % ", ".join("--" + k.replace("_", "-") for k in missing))


# ---------------------------------------------------------------------------
# per-command option tables


def _synth_table() -> dict:
    s = D.SynthSpec()
    return {
        "out_dir": (_c_str, ".", "directory for corpus.jsonl and series.csv"),
        "days": (_c_int, s.n_days, "number of generated days"),
        "docs_min": (_c_int, s.n_docs[0], "fewest documents per day"),
        "docs_max": (_c_int, s.n_docs[1], "most documents per day"),
        "len_min": (_c_int, s.doc_len[0], "shortest document in tokens"),
        "len_max": (_c_int, s.doc_len[1], "longest document in tokens"),
        "vocab_size": (_c_int, s.vocab_size, "background vocabulary size"),
        "phi": (_c_float, s.phi, "autoregressive coefficient"),
        "alpha": (_c_float, s.alpha, "signal coefficient"),
        "sigma": (_c_float, s.sigma, "observation noise scale"),
        "plant_prob": (_c_float, s.plant_prob,
                       "per-document probability of carrying signal"),
        "plant_per_day": (_c_bool, s.plant_per_day,
                          "plant exactly one signal document per day"),
        "seed": (_c_int, s.seed, "generator seed"),
        "start": (_c_date, s.start, "date of the first day"),
    }


_FIELD_CONVERTERS = {"int": _c_int, "float": _c_float, "str": _c_str}


def _config_entries(cls) -> dict:
    """An option for each field of a config dataclass that carries help text."""
    return {f.name: (_FIELD_CONVERTERS[f.type], f.default, f.metadata["help"])
            for f in dataclasses.fields(cls) if "help" in f.metadata}


def _train_table() -> dict:
    table = {
        "corpus": (_c_str, REQUIRED, "corpus JSONL path"),
        "series": (_c_str, REQUIRED, "series CSV path"),
        "embeddings": (_c_str, None, "optional pretrained embedding file"),
        "out_dir": (_c_str, ".", "directory for checkpoint and history"),
    }
    table.update(_config_entries(M.ModelConfig))
    table.update(_config_entries(TR.TrainConfig))
    table.update({
        "train_until": (_c_date, None, "last training date (inclusive)"),
        "valid_until": (_c_date, None, "last validation date (inclusive)"),
        "split_fracs": (_c_fracs, None,
                        "train,valid,test fractions; default 0.8,0.1,0.1"),
    })
    return table


def _eval_table() -> dict:
    return {
        "checkpoint": (_c_str, REQUIRED, "trained checkpoint path"),
        "corpus": (_c_str, REQUIRED, "corpus JSONL path"),
        "series": (_c_str, REQUIRED, "series CSV path"),
        "out_dir": (_c_str, ".", "directory for report files"),
        "split": (_c_str, "test", "train, valid, test, or all"),
        "k_max": (_c_int, 5, "largest ranking depth reported"),
        "train_until": (_c_date, None, "override stored split: last train date"),
        "valid_until": (_c_date, None, "override stored split: last valid date"),
        "split_fracs": (_c_fracs, None, "override stored split fractions"),
    }


def _rank_table() -> dict:
    return {
        "checkpoint": (_c_str, REQUIRED, "trained checkpoint path"),
        "corpus": (_c_str, REQUIRED, "corpus JSONL path"),
        "series": (_c_str, REQUIRED, "series CSV path"),
        "date": (_c_date, None, "day to rank; default latest eligible"),
        "debug_masses": (_c_str, None, "comma-separated masses to rank "
                         "instead of a model; no other option is then needed"),
    }


def _gradcheck_table() -> dict:
    return {
        "variant": (_c_str, "all", "msin, lstm_wo, lstm_par, or all"),
        "seed": (_c_int, GRADCHECK_SEED, "seed for the probe model and sample"),
    }


# ---------------------------------------------------------------------------
# shared pieces


def _option_split(merged: dict) -> D.SplitSpec | None:
    """The split the options give, or None when they give none."""
    dates = (merged["train_until"], merged["valid_until"])
    fracs = merged["split_fracs"]
    if any(d is not None for d in dates) and fracs is not None:
        raise _UsageError("give split dates or fractions, not both")
    try:
        if any(d is not None for d in dates):
            if None in dates:
                raise _UsageError("date splits need both train-until and valid-until")
            return D.SplitSpec(train_until=dates[0], valid_until=dates[1])
        return None if fracs is None else D.SplitSpec(fracs=fracs)
    except D.DatasetError as e:
        raise _UsageError(str(e)) from None


def _stored_split(stored: dict | None) -> D.SplitSpec:
    """A checkpoint's recorded split; the default one if it records none."""
    if stored is None:
        return D.SplitSpec(fracs=DEFAULT_FRACS)
    try:
        if stored.get("fracs") is not None:
            return D.SplitSpec(fracs=tuple(stored["fracs"]))
        return D.SplitSpec(
            train_until=dt.date.fromisoformat(stored["train_until"]),
            valid_until=dt.date.fromisoformat(stored["valid_until"]))
    except (KeyError, TypeError, ValueError, D.DatasetError) as exc:
        raise TR.CheckpointError("checkpoint metadata 'split': %r" % exc) from exc


def _build_config(cls, merged: dict):
    """A config dataclass from the merged values of its exposed fields."""
    try:
        return cls(**{k: merged[k] for k in _config_entries(cls)})
    except ValueError as e:
        raise _UsageError(str(e)) from None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _embedding_tokens(path: str) -> set[str]:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return {embedding_fields(line)[0] for line in fh} - {""}


def write_history(history, path: str) -> None:
    """step,train_loss,valid_loss rows; validation blank off-schedule."""
    with write_atomically(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,train_loss,valid_loss\n")
        for row in history:
            vl = "" if row.valid_loss is None else "%.17g" % row.valid_loss
            fh.write("%d,%.17g,%s\n" % (row.step, row.train_loss, vl))


def _load_checkpoint(path: str):
    """A checkpoint and the vocabulary and stats its metadata records."""
    params, config, _tcfg, meta = TR.checkpoint_load(path)
    if not isinstance(meta, dict) or "vocab" not in meta:
        raise TR.CheckpointError("checkpoint metadata lacks 'vocab'")
    if not isinstance(meta["vocab"], list) or len(meta["vocab"]) > config.vocab_size:
        raise TR.CheckpointError("checkpoint metadata 'vocab' must list at most "
                                 "%d tokens" % config.vocab_size)
    seen = set()
    for i, token in enumerate(meta["vocab"]):
        if not isinstance(token, str) or token in seen:
            raise TR.CheckpointError(
                "checkpoint metadata 'vocab' entry %d is %r; entries must be "
                "distinct strings" % (i, token))
        seen.add(token)
    for key in ("series_mean", "series_std"):
        x = meta.get(key)
        if not isinstance(x, (int, float)) or not np.isfinite(x) or \
                (key == "series_std" and x <= 0):
            raise TR.CheckpointError("checkpoint metadata '%s' is %r" % (key, x))
    if not isinstance(meta.get("split", {}), dict):
        raise TR.CheckpointError("checkpoint metadata 'split' must be an object")
    vocab = D.Vocabulary(tokens=tuple(meta["vocab"]))
    stats = D.SeriesStats(mean=meta["series_mean"], std=meta["series_std"])
    return params, config, meta, vocab, stats


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    merged = _merge(args, _synth_table())
    try:
        spec = D.SynthSpec(
            n_days=merged["days"],
            n_docs=(merged["docs_min"], merged["docs_max"]),
            doc_len=(merged["len_min"], merged["len_max"]),
            vocab_size=merged["vocab_size"],
            phi=merged["phi"], alpha=merged["alpha"], sigma=merged["sigma"],
            plant_prob=merged["plant_prob"],
            plant_per_day=merged["plant_per_day"],
            seed=merged["seed"], start=merged["start"])
    except D.DatasetError as e:
        raise _UsageError(str(e)) from None
    corpus, series = D.synth_generate(spec)
    os.makedirs(merged["out_dir"], exist_ok=True)
    corpus_path = os.path.join(merged["out_dir"], "corpus.jsonl")
    series_path = os.path.join(merged["out_dir"], "series.csv")
    D.save_corpus(corpus, corpus_path)
    D.save_series(series, series_path)
    print("synth days=%d docs=%d..%d len=%d..%d vocab=%d phi=%g alpha=%g "
          "sigma=%g plant_prob=%g plant_per_day=%s seed=%d start=%s"
          % (spec.n_days, spec.n_docs[0], spec.n_docs[1],
             spec.doc_len[0], spec.doc_len[1], spec.vocab_size, spec.phi,
             spec.alpha, spec.sigma, spec.plant_prob, spec.plant_per_day,
             spec.seed, spec.start.isoformat()))
    for path in (corpus_path, series_path):
        print("wrote %s sha256=%s" % (path, _sha256(path)))
    return EXIT_OK


def cmd_train(args) -> int:
    merged = _merge(args, _train_table())
    _require(merged)
    config = _build_config(M.ModelConfig, merged)
    tcfg = _build_config(TR.TrainConfig, merged)
    split = _option_split(merged) or D.SplitSpec(fracs=DEFAULT_FRACS)

    days = D.load_corpus(merged["corpus"])
    series = D.load_series(merged["series"])
    allowed = None
    if merged["embeddings"] is not None:
        try:
            allowed = _embedding_tokens(merged["embeddings"])
        except OSError as e:
            raise D.DatasetError("cannot read embeddings: %s" % e) from None
    vocab = D.count_vocab(days, max_size=config.vocab_size, allowed=allowed)
    sset = D.window_samples(days, series, vocab, config, split)
    print("samples train=%d valid=%d test=%d (skipped %d no-docs, "
          "%d no-series, %d short-history)"
          % (len(sset.train), len(sset.valid), len(sset.test),
             sset.skipped_no_docs, sset.skipped_no_series,
             sset.skipped_short_history))

    params = M.init_model(config, seed=tcfg.seed)
    if merged["embeddings"] is not None:
        hits = load_embedding_file(merged["embeddings"], vocab.ids,
                                   params.embedding)
        print("embeddings hit %d of %d vocabulary rows" % (hits, vocab.size))

    result = TR.train(sset, params, config, tcfg)

    os.makedirs(merged["out_dir"], exist_ok=True)
    history_path = os.path.join(merged["out_dir"], "history.csv")
    ckpt_path = os.path.join(merged["out_dir"], "checkpoint.msn")
    write_history(result.history, history_path)
    best_valid = result.best_valid if np.isfinite(result.best_valid) else None
    stored_split = {"train_until": split.train_until.isoformat()
                    if split.train_until else None,
                    "valid_until": split.valid_until.isoformat()
                    if split.valid_until else None,
                    "fracs": list(split.fracs) if split.fracs else None}
    metadata = {"step": result.best_step, "seed": tcfg.seed,
                "valid_loss": best_valid,
                "vocab": list(vocab.tokens),
                "series_mean": sset.stats.mean,
                "series_std": sset.stats.std,
                "split": stored_split}
    TR.checkpoint_save(result.params, config, tcfg, metadata, ckpt_path)
    print("ran %d steps; best validation %.6g at step %d"
          % (result.steps_run, result.best_valid, result.best_step))
    for path in (history_path, ckpt_path):
        print("wrote %s sha256=%s" % (path, _sha256(path)))
    return EXIT_OK


def cmd_eval(args) -> int:
    merged = _merge(args, _eval_table())
    _require(merged)
    if merged["k_max"] < 1:
        raise _UsageError("k_max must be at least 1")
    if merged["split"] not in SPLITS:
        raise _UsageError("split must be train, valid, test, or all")
    split = _option_split(merged)
    params, config, meta, vocab, stats = _load_checkpoint(merged["checkpoint"])
    split = split or _stored_split(meta.get("split"))
    days = D.load_corpus(merged["corpus"])
    series = D.load_series(merged["series"])
    sset = D.window_samples(days, series, vocab, config, split, stats=stats)
    samples = (sset.train + sset.valid + sset.test if merged["split"] == "all"
               else getattr(sset, merged["split"]))
    if not samples:
        raise D.DatasetError("split %r holds no samples" % merged["split"])
    result = E.rank_report(params, config, samples, k_max=merged["k_max"])

    os.makedirs(merged["out_dir"], exist_ok=True)
    report_path = os.path.join(merged["out_dir"], "report.json")
    days_path = os.path.join(merged["out_dir"], "days.jsonl")
    curve_path = os.path.join(merged["out_dir"], "curve.csv")
    E.write_report(result, config, report_path)
    E.write_day_dump(result, days_path)
    E.write_curve_csv(result, curve_path)

    r = result.report
    print("eval split=%s days=%d gtd=%d" % (merged["split"], r.days, r.gtd))
    if r.per_k:
        for p in r.per_k:
            print("k=%d precision=%.4f recall=%.4f" % (p.k, p.precision, p.recall))
    else:
        print("ranking metrics unavailable (no relevance mass or no "
              "ground truth)")
    print("movement accuracy=%.4f over %d days"
          % (r.movement.accuracy, r.movement.n))
    for path in (report_path, days_path, curve_path):
        print("wrote %s sha256=%s" % (path, _sha256(path)))
    return EXIT_OK


def _print_ranking(date_label: str, mass: np.ndarray,
                   texts: list[str] | None) -> None:
    """Mass-sorted rows, a cut marker, and a selected summary line.

    Documents are numbered 1-based in day order so the printout matches how
    people refer to them; machine outputs elsewhere stay 0-based.
    """
    (order,), (cut,) = E.rank_pass(mass[None, :], [len(mass)])
    order = order.tolist()
    print("ranking for %s (%d documents)" % (date_label, len(mass)))
    for rank, idx in enumerate(order, 1):
        tail = ""
        if texts is not None:
            text = texts[idx]
            tail = "  " + (text if len(text) <= 60 else text[:57] + "...")
        print("rank %2d  doc %02d  mass %.4f%s" % (rank, idx + 1, mass[idx], tail))
        if rank == cut:
            print("---- cumulative mass %.4f reached %.2f ----"
                  % (float(mass[order[:cut]].sum()), E.SELECT_THRESHOLD))
    print("selected: %s" % ", ".join("doc %02d" % (i + 1)
                                     for i in sorted(order[:cut])))


def cmd_rank(args) -> int:
    merged = _merge(args, _rank_table())
    if merged["debug_masses"] is not None:
        try:
            mass = np.asarray([float(p) for p in
                               merged["debug_masses"].split(",")],
                              dtype=np.float64)
        except ValueError:
            raise _UsageError("debug-masses expects comma-separated numbers") \
                from None
        if mass.size == 0 or (mass < 0).any() or not np.isfinite(mass).all():
            raise _UsageError("debug-masses must be non-negative and finite")
        _print_ranking("debug input", mass, texts=None)
        return EXIT_OK

    _require(merged)
    params, config, _meta, vocab, stats = _load_checkpoint(merged["checkpoint"])
    date = merged["date"]
    lines = [(d, line) for d, _heads, line in D.read_corpus(merged["corpus"])
             if date is None or d == date]
    series = D.load_series(merged["series"])
    rows = D.series_rows(series, config)
    for d, line in reversed(lines):
        heads = json.loads(line)["headlines"]
        batch = D.encode_day([(h["text"], h.get("relevant")) for h in heads],
                             vocab, config.max_tokens, config.daily_doc_cap)
        window = D.series_window(d, batch.n, series, rows, config)
        if not isinstance(window, str):
            break
    else:
        raise D.DatasetError("no eligible sample on %s" % (date or "any day"))
    sample = D.to_samples([(window, batch)], stats)[0]
    pred = M.forward_batch(None, [sample], params, config)
    if pred.relevance is None:
        raise D.DatasetError("variant %r assigns no relevance mass"
                             % config.variant)

    mass = E.checked_masses(pred.relevance.data, [d])[0]
    start = int(D.capped_start(len(heads), config.daily_doc_cap))
    texts = [heads[start + i]["text"] for i in batch.source_idx]
    _print_ranking(d.isoformat(), mass, texts)
    return EXIT_OK


def _gradcheck_sample(config: M.ModelConfig, rng) -> D.Sample:
    """Three documents of staggered length plus a random window."""
    vocab = D.Vocabulary(tokens=(D.PAD_TOKEN, D.UNK_TOKEN)
                         + tuple("w%02d" % i
                                 for i in range(config.vocab_size - 2)))
    words = vocab.tokens[2:]
    docs = []
    for length in (4, 3, 2):
        toks = [words[int(k)] for k in rng.integers(len(words), size=length)]
        docs.append((" ".join(toks), None))
    batch = D.encode_day(docs, vocab, config.max_tokens, config.daily_doc_cap)
    values = rng.standard_normal((config.m, config.series_dim))
    target = float(rng.standard_normal())
    window = D.SeriesWindow(values=values, target=target,
                            prev=float(values[-1, 0]),
                            date=dt.date(2000, 1, 1))
    return D.Sample(window=window, docs=batch,
                    values_n=values.astype(np.float32), target_n=target)


def cmd_gradcheck(args) -> int:
    merged = _merge(args, _gradcheck_table())
    variants = M.VARIANTS if merged["variant"] == "all" else (merged["variant"],)
    for v in variants:
        if v not in M.VARIANTS:
            raise _UsageError("variant must be one of %s or all"
                              % ", ".join(M.VARIANTS))

    worst_overall = 0.0
    for variant in variants:
        config = M.ModelConfig(variant=variant, **GRADCHECK_WIDTHS)
        params = M.init_model(config, seed=merged["seed"])
        sample = _gradcheck_sample(config, substream(merged["seed"], "probe"))
        rows = M.named_tensors(params)
        leaves = [t for _n, t, _d in rows]

        def build(tape, new_leaves):
            bound = M.bind_tensors(params, new_leaves)
            pred = M.forward_batch(tape, [sample], bound, config)
            return M.batch_loss(tape, pred.value, [sample], bound, config)[0]

        table = T.grad_check_table(build, leaves)
        print("variant %s" % variant)
        for name, _t, _d in rows:
            err = table[name]
            flag = "ok" if err < GRADCHECK_TOL else "FAIL"
            print("  %-28s %10.3e  %s" % (name, err, flag))
        worst = max(table.values())
        worst_overall = max(worst_overall, worst)
        print("  worst %.3e (%s)" % (worst, "pass" if worst < GRADCHECK_TOL
                                     else "fail"))
    if worst_overall < GRADCHECK_TOL:
        print("gradcheck pass: worst relative error %.3e < %g"
              % (worst_overall, GRADCHECK_TOL))
        return EXIT_OK
    print("gradcheck FAIL: worst relative error %.3e >= %g"
          % (worst_overall, GRADCHECK_TOL))
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point


def build_parser(command: str | None = None) -> _Parser:
    """Every subcommand; only ``command``'s gets its option table, or all do
    when it is None."""
    parser = _Parser(prog="msin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    specs = [
        ("synth", cmd_synth, _synth_table, "generate a synthetic dataset"),
        ("train", cmd_train, _train_table, "fit a model and write a checkpoint"),
        ("eval", cmd_eval, _eval_table, "score a checkpoint and emit reports"),
        ("rank", cmd_rank, _rank_table, "print one day's document ranking"),
        ("gradcheck", cmd_gradcheck, _gradcheck_table,
         "compare tape gradients against finite differences"),
    ]
    for name, func, table, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            _add_table(p, table())
        p.set_defaults(func=func)
    return parser


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas, 64-bit integers), or None
    where numpy links another BLAS or the library lacks the thread call."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # One BLAS thread, the count the benchmark measures: on two cores a second
    # thread bought no measured speed and can stall a cold process's first
    # products. OPENBLAS_NUM_THREADS, read when numpy loaded, wins.
    blas = None if "OPENBLAS_NUM_THREADS" in os.environ else _openblas()
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(1)
    # the top-level parser takes no option values, so the first word that
    # is not an option names the subcommand
    command = next((a for a in argv if not a.startswith("-")), None)
    try:
        args = build_parser(command).parse_args(argv)
        if not hasattr(args, "func"):
            raise _UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except SystemExit as e:  # argparse --help
        code = e.code if e.code is not None else 0
        return code if isinstance(code, int) else EXIT_USAGE
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (TR.TrainingAbort, T.EngineError) as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERIC
    except (D.DatasetError, TR.CheckpointError, TR.TrainingError, OSError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
