"""End-to-end checks of the command line front end.

Each test drives ``main`` with an argv list and inspects exit codes, stdout,
and the files left behind. Fixture mass vectors mirror the published ranking
tables the selection rule was calibrated against.
"""

import ctypes
import dataclasses
import datetime as dt
import json
import os

import numpy as np
import pytest

import msin.cli as cli
import msin.data as D
import msin.evaluation as E
import msin.model as M
import msin.training as TR
from msin.cli import main

import helpers as H

JAN22 = "0.00,0.15,0.03,0.21,0.09,0.03,0.04,0.02,0.03,0.01,0.00,0.01,0.40"
AUG14 = "0.00,0.00,0.00,0.00,0.00,0.03,0.00,0.02,0.01,0.76,0.17"
JAN09 = "0.00,0.87,0.00,0.00"


def selected_docs(out: str) -> set[int]:
    for line in out.splitlines():
        if line.startswith("selected:"):
            return {int(part.strip().split()[1])
                    for part in line.split(":", 1)[1].split(",")}
    raise AssertionError("no selected line in output:\n" + out)


def make_dataset(path, days=60, seed=11, extra=()):
    rc = main(["synth", "--out-dir", str(path), "--days", str(days),
               "--plant-per-day", "true", "--seed", str(seed), *extra])
    assert rc == 0
    return str(path / "corpus.jsonl"), str(path / "series.csv")


def train_small(path, corpus, series, extra=()):
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(path),
               "--d-s", "4", "--d-h", "3", "--d-w", "6",
               "--vocab-size", "60", "--m", "3",
               "--max-steps", "20", "--eval-every", "5", "--seed", "7",
               *extra])
    assert rc == 0
    return str(path / "checkpoint.msn"), str(path / "history.csv")


# ---------------------------------------------------------------------------
# argument handling


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error():
    assert main(["synth", "--no-such-flag", "3"]) == 1


def test_bad_flag_value_is_usage_error(capsys):
    assert main(["synth", "--days", "many"]) == 1
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "eval", "rank",
                                     "gradcheck"])
def test_help_names_real_defaults_only(command, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default None)" not in text
    if command in ("train", "eval", "rank"):
        assert "--corpus V corpus JSONL path (required)" in text


COMMANDS = ("synth", "train", "eval", "rank", "gradcheck")


def test_parser_gets_only_the_named_table():
    rank_only = cli.build_parser("rank")
    assert rank_only.parse_args(["rank", "--date", "2020-01-02"]).date == \
        "2020-01-02"
    with pytest.raises(cli._UsageError):
        rank_only.parse_args(["train", "--corpus", "c.jsonl"])
    assert cli.build_parser().parse_args(["train", "--corpus", "c.jsonl"]).corpus \
        == "c.jsonl"


@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in COMMANDS)])
def test_help_is_that_of_the_full_parser(argv, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    want = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_main_runs_the_command_the_module_names_now(monkeypatch):
    """Subcommands are looked up when the parser is built, so a wrapper set
    on the module (as a tracer does) is the one that runs."""
    monkeypatch.setattr(cli, "cmd_gradcheck", lambda args: 42)
    assert main(["gradcheck"]) == 42


def test_usage_errors_are_those_of_the_full_parser(capsys):
    for argv in (["frobnicate"], ["frobnicate", "--x"], ["--x", "rank"],
                 ["rank", "--no-such-flag"], ["eval", "--k-max"]):
        with pytest.raises(cli._UsageError) as want:
            cli.build_parser().parse_args(argv)
        assert main(argv) == 1
        assert capsys.readouterr().err == "usage error: %s\n" % want.value


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_parseable_dataset(tmp_path, capsys):
    corpus_path, series_path = make_dataset(tmp_path, days=12, seed=3)
    out = capsys.readouterr().out
    assert "days=12" in out and "seed=3" in out
    assert out.count("sha256=") == 2
    corpus = D.load_corpus(corpus_path)
    series = D.load_series(series_path)
    assert len(corpus.dates) == 12
    assert series.values.shape == (12, 1)


def test_synth_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    make_dataset(a, days=9, seed=4)
    make_dataset(b, days=9, seed=4)
    for name in ("corpus.jsonl", "series.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_zero_process_gives_zero_series(tmp_path):
    rc = main(["synth", "--out-dir", str(tmp_path), "--days", "6",
               "--alpha", "0", "--sigma", "0", "--phi", "0"])
    assert rc == 0
    series = D.load_series(str(tmp_path / "series.csv"))
    assert np.all(series.values == 0.0)


def test_synth_invalid_range_is_usage_error(tmp_path, capsys):
    rc = main(["synth", "--out-dir", str(tmp_path),
               "--docs-min", "5", "--docs-max", "2"])
    assert rc == 1


# ---------------------------------------------------------------------------
# config file merging


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("days = 7   # one week\n\nseed = 9\n")
    rc = main(["synth", "--out-dir", str(tmp_path), "--config", str(cfg)])
    assert rc == 0
    assert "days=7" in capsys.readouterr().out
    assert len(D.load_corpus(str(tmp_path / "corpus.jsonl")).dates) == 7


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("days = 7\n")
    rc = main(["synth", "--out-dir", str(tmp_path), "--config", str(cfg),
               "--days", "4"])
    assert rc == 0
    assert "days=4" in capsys.readouterr().out


def test_config_file_byte_order_mark_is_skipped(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("\ufeffdays = 7\n", encoding="utf-8")
    assert main(["synth", "--out-dir", str(tmp_path), "--config", str(cfg)]) == 0
    assert "days=7" in capsys.readouterr().out


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("days = 7\nlearning_rate = 0.1\n")
    assert main(["synth", "--out-dir", str(tmp_path),
                 "--config", str(cfg)]) == 1
    assert "learning_rate" in capsys.readouterr().err


def test_config_file_bad_syntax_rejected(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("days 7\n")
    assert main(["synth", "--out-dir", str(tmp_path),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "key=value" in err and ":1:" in err


def test_config_file_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("days = 7\ndays = 8\n")
    assert main(["synth", "--out-dir", str(tmp_path),
                 "--config", str(cfg)]) == 1


# ---------------------------------------------------------------------------
# train


def test_train_writes_history_and_checkpoint(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data")
    ckpt, history = train_small(tmp_path, corpus, series)
    out = capsys.readouterr().out
    assert "samples train=" in out and "best validation" in out

    lines = open(history).read().splitlines()
    assert lines[0] == "step,train_loss,valid_loss"
    assert len(lines) == 21
    # validation column is populated exactly on the evaluation schedule
    for line in lines[1:]:
        step, _tl, vl = line.split(",")
        assert (vl != "") == (int(step) % 5 == 0)

    params, config, tcfg, meta = TR.checkpoint_load(ckpt)
    assert config.d_s == 4 and tcfg.seed == 7
    assert meta["vocab"][:2] == ["<pad>", "<unk>"]
    assert meta["split"]["fracs"] == [0.8, 0.1, 0.1]


def test_train_zero_steps_keeps_initial_params(tmp_path):
    corpus, series = make_dataset(tmp_path / "data", days=30)
    ckpt, history = train_small(tmp_path, corpus, series,
                                extra=("--max-steps", "0"))
    assert open(history).read() == "step,train_loss,valid_loss\n"
    params, config, tcfg, meta = TR.checkpoint_load(ckpt)
    assert meta["valid_loss"] is None
    fresh = M.init_model(config, seed=tcfg.seed)
    for (name, got, _), (_, want, _) in zip(M.named_tensors(params),
                                            M.named_tensors(fresh)):
        assert got.data.tobytes() == want.data.tobytes(), name


def test_train_same_seed_identical_outputs(tmp_path):
    corpus, series = make_dataset(tmp_path / "data")
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    train_small(a, corpus, series)
    train_small(b, corpus, series)
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "checkpoint.msn").read_bytes() == \
        (b / "checkpoint.msn").read_bytes()


def test_train_missing_corpus_is_data_error(tmp_path, capsys):
    rc = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
               "--series", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--l1", "nan"), ("--l2", "nan"), ("--clip-norm", "nan"),
    ("--learning-rate", "nan"), ("--learning-rate", "inf")])
def test_train_non_finite_option_is_usage_error(tmp_path, capsys, flag, value):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), flag, value])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_synth_non_finite_sigma_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path), "--sigma", "inf"]) == 1
    assert "finite" in capsys.readouterr().err


def test_train_non_finite_embedding_row_is_data_error(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    vocab = D.count_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("%s 1 2 3 4 5 6\n%s 1 2 inf 4 5 6\n"
                   % (vocab.tokens[2], vocab.tokens[3]))
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 2
    assert "emb.txt:2:" in capsys.readouterr().err


def test_train_embeddings_split_on_tabs_and_trailing_spaces(tmp_path, capsys):
    """Tabs and a trailing space separate fields, both for the vocabulary the
    file allows and for the rows it loads."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    vocab = D.count_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("%s\t1\t2\t3\t4\t5\t6\n%s 1 2 3 4 5 6 \n"
                   % (vocab.tokens[2], vocab.tokens[3]))
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 0
    assert "embeddings hit 2 of 4 vocabulary rows" in capsys.readouterr().out


def test_train_embeddings_byte_order_mark_is_skipped(tmp_path, capsys):
    """The file's first token is a word like the others, both for the
    vocabulary the file allows and for the rows it loads."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    vocab = D.count_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("\ufeff%s 1 2 3 4 5 6\n%s 1 2 3 4 5 6\n"
                   % (vocab.tokens[2], vocab.tokens[3]), encoding="utf-8")
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 0
    assert "embeddings hit 2 of 4 vocabulary rows" in capsys.readouterr().out


def test_train_requires_paths(capsys):
    assert main(["train"]) == 1
    err = capsys.readouterr().err
    assert "--corpus" in err and "--series" in err


def test_train_flags_are_the_config_fields():
    """Every ModelConfig field and every TrainConfig field but the Adam
    constants is a train flag, defaulting to the dataclass default."""
    parser = cli.build_parser()
    table = cli._train_table()
    merged = cli._merge(parser.parse_args(["train"]), table)
    hidden = {"beta1", "beta2", "eps"}
    for cls in (M.ModelConfig, TR.TrainConfig):
        for f in dataclasses.fields(cls):
            if f.name in hidden:
                assert f.name not in merged
                continue
            assert merged[f.name] == f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            args = parser.parse_args(["train", flag, str(f.default)])
            assert cli._merge(args, table)[f.name] == f.default, f.name
    assert cli._build_config(M.ModelConfig, merged) == M.ModelConfig()
    assert cli._build_config(TR.TrainConfig, merged) == TR.TrainConfig()


def test_train_rejects_mixed_split_options(tmp_path):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--train-until", "2000-01-10", "--valid-until", "2000-01-15",
               "--split-fracs", "0.8,0.1,0.1"])
    assert rc == 1


BAD_SPLITS = [("--split-fracs", "-0.5,1,0.5"), ("--split-fracs", "0.5,0.5,0.5"),
              ("--split-fracs", "nan,0.5,0.5"), ("--split-fracs", "0.5,inf,0.5"),
              ("--train-until", "2000-01-15", "--valid-until", "2000-01-15"),
              ("--train-until", "2000-01-15", "--valid-until", "2000-01-10")]


@pytest.mark.parametrize("split", BAD_SPLITS)
def test_train_bad_split_is_usage_error(tmp_path, capsys, split):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    capsys.readouterr()
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), *split])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("split", BAD_SPLITS + [("--split", "bogus")])
def test_eval_checks_split_options_before_reading_files(tmp_path, capsys, split):
    """No input file exists, so any file read would exit 2."""
    missing = [str(tmp_path / name) for name in ("a.msn", "c.jsonl", "s.csv")]
    rc = main(["eval", "--checkpoint", missing[0], "--corpus", missing[1],
               "--series", missing[2], "--out-dir", str(tmp_path / "rep"), *split])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error:")


# ---------------------------------------------------------------------------
# eval


def test_eval_emits_reports_and_reruns_identically(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data")
    ckpt, _ = train_small(tmp_path, corpus, series)
    rep_a, rep_b = tmp_path / "ra", tmp_path / "rb"
    for rep in (rep_a, rep_b):
        rc = main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
                   "--series", series, "--out-dir", str(rep)])
        assert rc == 0
    out = capsys.readouterr().out
    assert "k=1 " in out and "movement accuracy" in out
    for name in ("report.json", "days.jsonl", "curve.csv"):
        assert (rep_a / name).read_bytes() == (rep_b / name).read_bytes()
    report = json.loads((rep_a / "report.json").read_text())
    assert report["relevance_available"] is True
    assert len(report["per_k"]) == 5
    assert report["precision_denominator"] == "min(k,n)"


def test_eval_split_all_covers_every_day(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=40)
    ckpt, _ = train_small(tmp_path, corpus, series,
                          extra=("--max-steps", "0"))
    rc = main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
               "--series", series, "--out-dir", str(tmp_path / "rep"),
               "--split", "all"])
    assert rc == 0
    # every day past the warm-up window shows up somewhere
    assert "days=37" in capsys.readouterr().out


def test_eval_bad_split_name_is_usage_error(tmp_path):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    ckpt, _ = train_small(tmp_path, corpus, series, extra=("--max-steps", "0"))
    rc = main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
               "--series", series, "--split", "everything"])
    assert rc == 1


def test_eval_reuses_stored_date_split(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=30)
    ckpt, _ = train_small(tmp_path, corpus, series,
                          extra=("--train-until", "2000-01-20",
                                 "--valid-until", "2000-01-25",
                                 "--max-steps", "4"))
    rc = main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
               "--series", series, "--out-dir", str(tmp_path / "rep")])
    assert rc == 0
    # 30 days minus 25 inside the stored train and valid ranges
    assert "days=5" in capsys.readouterr().out


def test_eval_corrupt_checkpoint_is_data_error(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    ckpt, _ = train_small(tmp_path, corpus, series, extra=("--max-steps", "0"))
    blob = bytearray(open(ckpt, "rb").read())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.msn"
    bad.write_bytes(bytes(blob))
    rc = main(["eval", "--checkpoint", str(bad), "--corpus", corpus,
               "--series", series])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def _assert_metadata_rejected(tmp_path, capsys, edit, key,
                              commands=("eval", "rank")):
    """``commands`` exit 2 naming ``key`` on a checkpoint whose metadata
    ``edit`` has changed."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    ckpt, _ = train_small(tmp_path, corpus, series, extra=("--max-steps", "0"))
    params, config, tcfg, meta = TR.checkpoint_load(ckpt)
    edit(meta, config)
    bad = str(tmp_path / "bad.msn")
    TR.checkpoint_save(params, config, tcfg, meta, bad)
    capsys.readouterr()
    inputs = ["--checkpoint", bad, "--corpus", corpus, "--series", series]
    for command in commands:
        extra = ["--out-dir", str(tmp_path / "rep")] if command == "eval" else []
        rc = main([command, *inputs, *extra])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert "data error" in err and key in err, command


def test_checkpoint_without_vocab_is_data_error(tmp_path, capsys):
    _assert_metadata_rejected(tmp_path, capsys,
                              lambda meta, config: meta.clear(), "'vocab'")


def test_checkpoint_vocab_beyond_config_is_data_error(tmp_path, capsys):
    def grow(meta, config):
        meta["vocab"] += ["extra%d" % i
                          for i in range(config.vocab_size + 1 - len(meta["vocab"]))]
    _assert_metadata_rejected(tmp_path, capsys, grow, "'vocab'")


@pytest.mark.parametrize("entry, named", [
    (["w"], "entry 2 is ['w']"), (7, "entry 2 is 7"),
    ("<unk>", "entry 2 is '<unk>'")], ids=["list", "int", "duplicate"])
def test_checkpoint_vocab_entry_not_distinct_string_is_data_error(
        tmp_path, capsys, entry, named):
    """A list entry used to die with an unhashable-type traceback; an int or
    a repeated token used to pass and map tokens to the wrong ids."""
    def put(meta, config):
        meta["vocab"][2] = entry
    _assert_metadata_rejected(tmp_path, capsys, put, named)


def test_checkpoint_malformed_split_is_data_error(tmp_path, capsys):
    def as_list(meta, config):
        meta["split"] = [meta["split"]]
    _assert_metadata_rejected(tmp_path / "a", capsys, as_list, "'split'")
    # only eval reads the stored split's dates
    _assert_metadata_rejected(tmp_path / "b", capsys,
                              lambda meta, config: meta["split"].clear(),
                              "'split'", commands=("eval",))


@pytest.mark.parametrize("stored", [
    {"fracs": [0.5, 0.5, 0.5]}, {"fracs": [float("nan"), 0.5, 0.5]},
    {"train_until": "2000-01-15", "valid_until": "2000-01-10", "fracs": None}])
def test_checkpoint_invalid_split_is_data_error(tmp_path, capsys, stored):
    """A stored split that SplitSpec rejects is a broken checkpoint, not a
    usage mistake."""
    def replace(meta, config):
        meta["split"] = stored
    _assert_metadata_rejected(tmp_path, capsys, replace, "'split'",
                              commands=("eval",))


# ---------------------------------------------------------------------------
# rank


def test_rank_debug_masses_thirteen_doc_day(capsys):
    assert main(["rank", "--debug-masses", JAN22]) == 0
    assert selected_docs(capsys.readouterr().out) == {13, 4}


def test_rank_debug_masses_eleven_doc_day(capsys):
    assert main(["rank", "--debug-masses", AUG14]) == 0
    assert selected_docs(capsys.readouterr().out) == {10}


def test_rank_debug_masses_four_doc_day(capsys):
    assert main(["rank", "--debug-masses", JAN09]) == 0
    out = capsys.readouterr().out
    assert selected_docs(out) == {2}
    assert "doc 02  mass 0.8700" in out


def test_rank_debug_masses_tie_break_is_stable(capsys):
    assert main(["rank", "--debug-masses", "0.2,0.4,0.2,0.2"]) == 0
    out = capsys.readouterr().out.splitlines()
    ranked = [line.split()[3] for line in out
              if line.startswith("rank ") and line.split()[1].isdigit()]
    assert ranked == ["02", "01", "03", "04"]


def print_ranking_with_three_rules(date_label, mass):
    """The rank printout as it was built from ``rank_order``,
    ``select_relevant`` and a separate descending sort."""
    order = E.rank_order(mass)
    chosen = set(E.select_relevant(mass))
    print("ranking for %s (%d documents)" % (date_label, len(mass)))
    for shown, idx in enumerate(order, 1):
        print("rank %2d  doc %02d  mass %.4f" % (shown, idx + 1, mass[idx]))
        if shown == len(chosen):
            print("---- cumulative mass %.4f reached %.2f ----"
                  % (float(np.sort(mass)[::-1][:shown].sum()),
                     E.SELECT_THRESHOLD))
    print("selected: %s" % ", ".join("doc %02d" % (i + 1)
                                     for i in sorted(chosen)))


@pytest.mark.parametrize("masses", [
    JAN22, AUG14, JAN09, "0.2,0.4,0.2,0.2", "0.1,0.1,0.1", "0,0,0",
    "-0,0,-0", "0.25,0.25,0.25,0.25", "0.5", "1e-300,0.3,0.3,0.3",
    ",".join(["0.0123456789"] * 57)])
def test_rank_printout_ranks_once_as_the_three_rules_did(capsys, masses):
    """The order, the cut and the cumulative mass come from one ``rank_pass``:
    ties, sums short of the threshold, signed zeros and long days print
    what the separate rules printed."""
    assert main(["rank", "--debug-masses=" + masses]) == 0
    got = capsys.readouterr().out
    print_ranking_with_three_rules(
        "debug input", np.array([float(p) for p in masses.split(",")]))
    assert got == capsys.readouterr().out


def test_rank_debug_masses_bad_vector(capsys):
    assert main(["rank", "--debug-masses", "0.5,banana"]) == 1
    assert main(["rank", "--debug-masses", "-0.5,0.5"]) == 1


def test_rank_model_day_prints_texts(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=30)
    ckpt, _ = train_small(tmp_path, corpus, series, extra=("--max-steps", "2"))
    capsys.readouterr()
    rc = main(["rank", "--checkpoint", ckpt, "--corpus", corpus,
               "--series", series, "--date", "2000-01-20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ranking for 2000-01-20")
    assert "w00" in out  # background tokens from the generator
    selected_docs(out)   # summary line present and parseable


def test_rank_missing_date_is_data_error(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    ckpt, _ = train_small(tmp_path, corpus, series, extra=("--max-steps", "0"))
    rc = main(["rank", "--checkpoint", ckpt, "--corpus", corpus,
               "--series", series, "--date", "1999-01-01"])
    assert rc == 2


@pytest.mark.parametrize("command", ["eval", "rank"])
@pytest.mark.parametrize("edit, message", [
    (lambda date, _value: "%s,nan" % date, "line 7: non-finite value"),
    (lambda _date, value: "2000-01-01,%s" % value,
     "line 7: dates not strictly increasing at 2000-01-01"),
])
def test_bad_series_line_is_data_error(tmp_path, capsys, command, edit, message):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    ckpt, _ = train_small(tmp_path, corpus, series, extra=("--max-steps", "0"))
    with open(series, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[6] = edit(*lines[6].split(","))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out_dir = ["--out-dir", str(tmp_path / "out")] if command == "eval" else []
    rc = main([command, "--checkpoint", ckpt, "--corpus", corpus,
               "--series", str(bad), *out_dir])
    assert rc == 2
    assert "bad.csv %s" % message in capsys.readouterr().err


def test_rank_needs_masses_or_model(capsys):
    assert main(["rank"]) == 1


def test_rank_variant_without_mass_is_data_error(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    ckpt, _ = train_small(tmp_path, corpus, series,
                          extra=("--variant", "lstm_par", "--max-steps", "0"))
    rc = main(["rank", "--checkpoint", ckpt, "--corpus", corpus,
               "--series", series])
    assert rc == 2
    assert "relevance" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# BLAS threads


@pytest.fixture
def openblas():
    """numpy's bundled OpenBLAS, its thread count restored afterwards."""
    lib = cli._openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("this numpy does not bundle scipy-openblas")
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


def test_main_runs_blas_on_one_thread(openblas, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    openblas.scipy_openblas_set_num_threads64_(2)
    assert main(["rank", "--debug-masses", JAN09]) == 0
    assert openblas.scipy_openblas_get_num_threads64_() == 1


def test_main_keeps_the_thread_count_the_environment_chose(
        openblas, monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    openblas.scipy_openblas_set_num_threads64_(2)
    chosen = openblas.scipy_openblas_get_num_threads64_()
    assert main(["rank", "--debug-masses", JAN09]) == 0
    assert openblas.scipy_openblas_get_num_threads64_() == chosen


def test_main_runs_where_numpy_links_another_blas(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert main(["rank", "--debug-masses", JAN09]) == 0
    assert selected_docs(capsys.readouterr().out) == {2}


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_single_variant_passes(capsys):
    rc = main(["gradcheck", "--variant", "msin"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "variant msin" in out
    assert "head.bias" in out
    assert "gradcheck pass" in out


def test_gradcheck_unknown_variant_is_usage_error():
    assert main(["gradcheck", "--variant", "gru"]) == 1


# ---------------------------------------------------------------------------
# rank builds only the day it ranks


@pytest.fixture(scope="module")
def ranked_run(tmp_path_factory):
    """A 40-day corpus, its series and a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("ranked")
    corpus, series = make_dataset(root / "data", days=40)
    ckpt, _ = train_small(root, corpus, series, extra=("--max-steps", "3"))
    return root, ckpt, corpus, series


def full_build_ranking(ckpt, corpus_path, series_path, sample, capsys):
    """What rank prints for a sample taken from a whole-corpus build."""
    params, config, _tcfg, _meta = TR.checkpoint_load(ckpt)
    day = {d.date: d for d in H.load_corpus(corpus_path).days}[sample.window.date]
    capped = H.cap_daily_docs(day.docs, config.daily_doc_cap)
    pred = M.forward(None, sample, params, config)
    capsys.readouterr()
    cli._print_ranking(sample.window.date.isoformat(),
                       pred.relevance.data.astype(np.float64),
                       [capped[i].text for i in sample.docs.source_idx])
    return capsys.readouterr().out


def full_build(ckpt, corpus_path, series_path):
    _params, config, _tcfg, meta = TR.checkpoint_load(ckpt)
    return D.window_samples(
        D.load_corpus(corpus_path), D.load_series(series_path),
        D.Vocabulary(tokens=tuple(meta["vocab"])), config,
        D.SplitSpec(fracs=tuple(meta["split"]["fracs"])),
        stats=D.SeriesStats(mean=meta["series_mean"], std=meta["series_std"]))


def rank_argv(ckpt, corpus, series, *extra):
    return ["rank", "--checkpoint", ckpt, "--corpus", corpus,
            "--series", series, *extra]


def count_days_built(monkeypatch, corpus_path) -> list:
    """Patch ``D.tokenize_days`` to record the date of every day tokenized
    from here on, found by its headlines in the corpus file."""
    dates = {}
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            texts = tuple(h["text"] for h in rec["headlines"])
            dates[texts] = dt.date.fromisoformat(rec["date"])
    built = []
    real_tokenize_days = D.tokenize_days

    def seen(days):
        for day in days:
            built.append(dates[tuple(text for text, _flag in day[1])])
            yield day

    monkeypatch.setattr(D, "tokenize_days",
                        lambda days: real_tokenize_days(seen(days)))
    return built


def count_objects_built(monkeypatch) -> list:
    """Patch ``D.Day`` and ``D.Document`` to record every one built from
    here on."""
    built = []
    for name in ("Day", "Document"):
        real = getattr(D, name)
        monkeypatch.setattr(D, name, lambda *a, real=real, **kw:
                            built.append((a, kw)) or real(*a, **kw))
    return built


def test_rank_encodes_one_day_and_matches_full_build(ranked_run, capsys,
                                                     monkeypatch):
    _root, ckpt, corpus, series = ranked_run
    sset = full_build(ckpt, corpus, series)
    samples = (sset.train[3], sset.valid[1], sset.test[-1])
    wants = [full_build_ranking(ckpt, corpus, series, s, capsys)
             for s in samples]
    encoded = []
    real_encode = D.encode_day
    monkeypatch.setattr(D, "load_corpus", None)
    monkeypatch.setattr(D, "make_samples", None)
    monkeypatch.setattr(D, "encode_day",
                        lambda *a: encoded.append(a) or real_encode(*a))
    built = count_days_built(monkeypatch, corpus)
    for sample, want in zip(samples, wants):
        encoded.clear()
        built.clear()
        rc = main(rank_argv(ckpt, corpus, series,
                            "--date", sample.window.date.isoformat()))
        assert rc == 0
        assert capsys.readouterr().out == want
        assert len(encoded) == 1
        assert built == [sample.window.date]


def test_rank_default_day_skips_a_last_day_without_tokens(ranked_run, capsys,
                                                          monkeypatch):
    root, ckpt, corpus_path, series = ranked_run
    corpus = H.load_corpus(corpus_path)
    last = corpus.days[-1]
    blank = D.Day(date=last.date, docs=(D.Document("!!! ..."), D.Document("--")))
    edited = str(root / "blank_last.jsonl")
    D.save_corpus(D.Corpus(days=corpus.days[:-1] + (blank,)), edited)
    sset = full_build(ckpt, edited, series)
    latest = max(sset.train + sset.valid + sset.test, key=lambda s: s.window.date)
    assert latest.window.date == corpus.days[-2].date
    want = full_build_ranking(ckpt, edited, series, latest, capsys)
    built = count_days_built(monkeypatch, edited)
    assert main(rank_argv(ckpt, edited, series)) == 0
    assert capsys.readouterr().out == want
    assert built == [last.date, corpus.days[-2].date]


def edited_corpus(src, dst, lineno, edit) -> str:
    """A copy of corpus file src with its 1-based line lineno replaced by
    edit(record, lines), a JSON-able object or a raw line."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.readlines()
    new = edit(json.loads(lines[lineno - 1]), lines)
    lines[lineno - 1] = (new if isinstance(new, str)
                         else json.dumps(new)) + "\n"
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return str(dst)


def with_headlines(heads):
    return lambda rec, _lines: dict(rec, headlines=heads)


CORPUS_DEFECTS = {
    "not-json": lambda rec, _lines: "not json",
    "no-date": lambda rec, _lines: {"headlines": rec["headlines"]},
    "headlines-not-list": with_headlines({"text": "a"}),
    "headline-not-object": with_headlines(["a rally"]),
    "headline-without-text": with_headlines([{"relevant": True}]),
    "text-not-string": with_headlines([{"text": 5}]),
    "relevant-not-flag": with_headlines([{"text": "a", "relevant": 1}]),
    "date-out-of-order": lambda rec, lines: dict(
        rec, date=json.loads(lines[4])["date"]),
}


@pytest.mark.parametrize("defect", sorted(CORPUS_DEFECTS))
def test_rank_reports_a_defect_on_another_day(ranked_run, capsys, defect):
    """rank --date D checks every line: a defect on line 30 stops it with
    load_corpus's message although D is day 11."""
    root, ckpt, corpus, series = ranked_run
    bad = edited_corpus(corpus, root / ("%s.jsonl" % defect), 30,
                        CORPUS_DEFECTS[defect])
    with pytest.raises(D.DatasetError) as exc:
        D.load_corpus(bad)
    assert "line 30: " in str(exc.value)
    capsys.readouterr()
    assert main(rank_argv(ckpt, bad, series, "--date", "2000-01-11")) == 2
    assert capsys.readouterr().err == "data error: %s\n" % exc.value


@pytest.mark.parametrize("defect", ["text-not-string", "relevant-not-flag"])
def test_bad_headline_value_is_data_error(ranked_run, capsys, defect):
    root, ckpt, corpus, series = ranked_run
    bad = edited_corpus(corpus, root / ("%s-20.jsonl" % defect), 20,
                        CORPUS_DEFECTS[defect])
    for argv in (["eval", "--checkpoint", ckpt, "--corpus", bad,
                  "--series", series, "--out-dir", str(root / "bad_eval"),
                  "--split", "all"],
                 rank_argv(ckpt, bad, series, "--date", "2000-01-20"),
                 rank_argv(ckpt, bad, series)):
        capsys.readouterr()
        assert main(argv) == 2
        assert "line 20: " in capsys.readouterr().err


def test_rank_ineligible_dates_are_data_errors(ranked_run, capsys):
    root, ckpt, corpus, series_path = ranked_run
    series = D.load_series(series_path)
    # day 0 has no m=3 days of history before it
    first = series.dates[0].isoformat()
    assert main(rank_argv(ckpt, corpus, series_path, "--date", first)) == 2
    assert "no eligible sample on %s" % first in capsys.readouterr().err
    gap = str(root / "gap.csv")
    D.save_series(D.Series(dates=series.dates[:20] + series.dates[21:],
                           values=np.delete(series.values, 20, axis=0)), gap)
    missing = series.dates[20].isoformat()
    assert main(rank_argv(ckpt, corpus, gap, "--date", missing)) == 2
    assert "no eligible sample on %s" % missing in capsys.readouterr().err


def test_rank_series_column_mismatch_is_data_error(ranked_run, capsys):
    root, ckpt, corpus, series_path = ranked_run
    series = D.load_series(series_path)
    wide = str(root / "wide.csv")
    D.save_series(D.Series(dates=series.dates,
                           values=np.hstack([series.values, series.values])), wide)
    assert main(rank_argv(ckpt, corpus, wide)) == 2
    assert "series has 2 columns, config expects 1" in capsys.readouterr().err


def test_rank_agrees_with_eval_on_every_day(ranked_run, capsys):
    """rank prints each day's order, %.4f masses and selection as eval's
    days.jsonl holds them."""
    root, ckpt, corpus, series = ranked_run
    out_dir = root / "eval_all"
    assert main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
                 "--series", series, "--out-dir", str(out_dir),
                 "--split", "all"]) == 0
    days = [json.loads(line) for line in open(out_dir / "days.jsonl")]
    assert len(days) == 37
    for day in days:
        capsys.readouterr()
        assert main(rank_argv(ckpt, corpus, series, "--date", day["date"])) == 0
        text = capsys.readouterr().out
        mass = np.asarray(day["mass"])
        rows = [line.split() for line in text.splitlines()
                if line.startswith("rank ")]
        assert [int(r[3]) - 1 for r in rows] == list(E.rank_order(mass))
        assert [r[5] for r in rows] == ["%.4f" % mass[int(r[3]) - 1]
                                        for r in rows]
        chosen = sorted(d - 1 for d in selected_docs(text))
        assert chosen == sorted(day["selected"])


@pytest.fixture(scope="module")
def capped_run(tmp_path_factory):
    """A corpus of 4-9 headlines a day and a checkpoint that keeps 5."""
    root = tmp_path_factory.mktemp("capped")
    corpus, series = make_dataset(root / "data", days=40,
                                  extra=("--docs-min", "4", "--docs-max", "9"))
    ckpt, _ = train_small(root, corpus, series,
                          extra=("--max-steps", "3", "--daily-doc-cap", "5"))
    return root, ckpt, corpus, series


def test_rank_of_a_capped_day_agrees_with_eval(capped_run, capsys):
    """On days with more headlines than the cap, rank prints eval's order,
    masses and selection, and document NN's text is the NNth of the day's
    last five headlines."""
    root, ckpt, corpus, series = capped_run
    out_dir = root / "eval_all"
    assert main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
                 "--series", series, "--out-dir", str(out_dir),
                 "--split", "all"]) == 0
    days = {d["date"]: d for d in map(json.loads, open(out_dir / "days.jsonl"))}
    heads = {}
    with open(corpus, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            heads[rec["date"]] = [h["text"] for h in rec["headlines"]]
    capped = [d for d in days if len(heads[d]) > 5]
    assert len(capped) >= 20
    latest = max(days)
    for date in capped[::4] + [None]:
        capsys.readouterr()
        extra = () if date is None else ("--date", date)
        assert main(rank_argv(ckpt, corpus, series, *extra)) == 0
        text = capsys.readouterr().out
        date = date or latest
        assert text.startswith("ranking for %s (5 documents)" % date)
        mass = np.asarray(days[date]["mass"])
        rows = [line.split(None, 6) for line in text.splitlines()
                if line.startswith("rank ")]
        assert [int(r[3]) - 1 for r in rows] == list(E.rank_order(mass))
        assert [r[5] for r in rows] == ["%.4f" % mass[int(r[3]) - 1]
                                        for r in rows]
        chosen = sorted(d - 1 for d in selected_docs(text))
        assert chosen == sorted(days[date]["selected"])
        assert {int(r[3]): r[6] for r in rows} == dict(
            enumerate(heads[date][-5:], start=1))


# ---------------------------------------------------------------------------
# non-finite weights and masses


def test_non_finite_checkpoint_tensor_is_data_error(ranked_run, capsys):
    """A nan weight used to make eval die with a ValueError traceback (exit
    1) and rank print "mass nan" rows (exit 0)."""
    root, ckpt, corpus, series = ranked_run
    params, config, tcfg, meta = TR.checkpoint_load(ckpt)
    tensors = {n: t for n, t, _ in M.named_tensors(params)}
    tensors["cell.attn.score"].data[0] = np.nan
    bad = str(root / "nan.msn")
    TR.checkpoint_save(params, config, tcfg, meta, bad)
    with pytest.raises(TR.CheckpointError, match="'cell.attn.score'"):
        TR.checkpoint_load(bad)
    for argv in (["eval", "--checkpoint", bad, "--corpus", corpus,
                  "--series", series, "--out-dir", str(root / "nan_eval")],
                 rank_argv(bad, corpus, series, "--date", "2000-01-20")):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "'cell.attn.score'" in err


def poisoned(forward, value, day):
    """``forward`` with ``value`` in the first mass of the sample dated
    ``day``."""
    def wrapped(tape, samples, *args, **kwargs):
        pred = forward(tape, samples, *args, **kwargs)
        for b, s in enumerate(samples):
            if s.window.date == day:
                pred.relevance.data[b, 0] = value
        return pred
    return wrapped


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.25])
def test_non_finite_mass_from_finite_weights_is_numeric_failure(
        ranked_run, capsys, monkeypatch, value):
    """eval and rank check the masses the forward returns: exit 3."""
    root, ckpt, corpus, series = ranked_run
    day = dt.date(2000, 1, 20)
    monkeypatch.setattr(M, "forward_batch",
                        poisoned(M.forward_batch, value, day))
    for argv in (["eval", "--checkpoint", ckpt, "--corpus", corpus,
                  "--series", series, "--out-dir", str(root / "bad_mass"),
                  "--split", "all"],
                 rank_argv(ckpt, corpus, series, "--date", day.isoformat())):
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numeric failure: attention mass of %s is not finite and "
            "non-negative\n" % day)


def test_eval_builds_no_per_headline_objects(ranked_run, capsys, monkeypatch):
    """eval encodes each corpus line as it is read: no Day and no Document,
    and its reports equal those of a whole-corpus build. train, rank and
    gradcheck build none either."""
    root, ckpt, corpus, series = ranked_run
    sset = full_build(ckpt, corpus, series)
    params, config, _tcfg, _meta = TR.checkpoint_load(ckpt)
    want = E.rank_report(params, config, sset.train + sset.valid + sset.test)
    E.write_day_dump(want, str(root / "want_days.jsonl"))
    built = count_objects_built(monkeypatch)
    out_dir = root / "no_objects"
    assert main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
                 "--series", series, "--out-dir", str(out_dir),
                 "--split", "all"]) == 0
    assert built == []
    assert (out_dir / "days.jsonl").read_bytes() == \
        (root / "want_days.jsonl").read_bytes()
    train_small(root / "no_objects_train", corpus, series,
                extra=("--max-steps", "2"))
    for argv in (rank_argv(ckpt, corpus, series),
                 rank_argv(ckpt, corpus, series, "--date", "2000-01-20"),
                 ["gradcheck", "--variant", "msin"]):
        assert main(argv) == 0
    assert built == []


def test_day_dump_bytes_equal_the_json_encoder(tmp_path):
    masses = (0.0, 5e-324, 1e-300, 1 / 3, 0.1, 1.0)
    days = (E.DayRecord(date=dt.date(2020, 1, 2), mass=masses,
                        gtn=(0, 5), selected=(5, 4, 3)),
            E.DayRecord(date=dt.date(2020, 1, 3), mass=(1.0,), gtn=(),
                        selected=(0,)))
    result = E.RankResult(report=None, days=days)
    path = str(tmp_path / "days.jsonl")
    E.write_day_dump(result, path)
    encode = json.JSONEncoder(sort_keys=True).encode
    want = "".join(encode({"date": d.date.isoformat(), "mass": d.mass,
                           "gtn": d.gtn, "selected": d.selected}) + "\n"
                   for d in days)
    with open(path, "rb") as fh:
        assert fh.read() == want.encode("utf-8")
