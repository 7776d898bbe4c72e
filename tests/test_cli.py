"""End-to-end checks of the command line front end.

Each test drives ``main`` with an argv list and inspects exit codes, stdout,
and the files left behind. Fixture mass vectors mirror the published ranking
tables the selection rule was calibrated against.
"""

import argparse
import ctypes
import dataclasses
import datetime as dt
import json
import os
import struct
import threading

import numpy as np
import pytest

import msin.cli as cli
import msin.data as D
import msin.evaluation as E
import msin.model as M
import msin.tensor as T
import msin.text_encoder as TE
import msin.training as TR
from msin.cli import main
from msin.rng import substream

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


def test_synth_summary_line_lists_the_options(tmp_path, capsys):
    """The summary line is the merged option table, in table order, keyed
    as a config file is."""
    out_dir = str(tmp_path / "d")
    assert main(["synth", "--out-dir", out_dir, "--days", "3",
                 "--docs-max", "4", "--plant-per-day", "yes"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "synth out_dir=%s days=3 docs_min=2 docs_max=4 len_min=4 len_max=8 "
        "vocab_size=50 phi=0.5 alpha=1.0 sigma=0.1 plant_prob=0.3 "
        "plant_per_day=True seed=0 start=2000-01-01" % out_dir)


def test_synth_range_past_the_last_date_is_usage_error(tmp_path, capsys):
    """The list of dates used to raise OverflowError out of main."""
    out_dir = tmp_path / "d"
    assert main(["synth", "--out-dir", str(out_dir), "--days", "3",
                 "--start", "9999-12-30"]) == 1
    assert capsys.readouterr().err == ("usage error: the last day (start + "
                                       "n_days - 1) falls after 9999-12-31\n")
    assert not out_dir.exists()
    assert main(["synth", "--out-dir", str(out_dir), "--days", "2",
                 "--start", "9999-12-30"]) == 0
    assert D.load_corpus(str(out_dir / "corpus.jsonl")).dates[-1] == dt.date.max


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    """numpy's SeedSequence used to raise ValueError out of main."""
    out_dir = tmp_path / "out"
    argv = {"synth": ["synth", "--out-dir", str(out_dir)],
            "gradcheck": ["gradcheck", "--variant", "msin"]}.get(command)
    if argv is None:
        corpus, series = make_dataset(tmp_path / "data", days=60)
        argv = ["train", "--corpus", corpus, "--series", series,
                "--out-dir", str(out_dir), "--max-steps", "1"]
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert err == "usage error: seed must be non-negative, got -1\n"
    assert out == "" and not out_dir.exists()


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


class ClosedAfterOneLine:
    """A stdout whose reader, like ``head -1``, has gone after one line: any
    later write raises BrokenPipeError. Its descriptor is a file's."""

    def __init__(self, fd):
        self.fd, self.lines = fd, 0

    def write(self, text):
        if self.lines:
            raise BrokenPipeError(32, "Broken pipe")
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_quietly(tmp_path, capsys, monkeypatch):
    """``msin train ... | head -1``: the closed pipe is no data error. main
    prints nothing more, returns 141 as a writer killed by SIGPIPE does, and
    both files are written."""
    corpus, series = make_dataset(tmp_path / "data")
    capsys.readouterr()
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", ClosedAfterOneLine(fh.fileno()))
        rc = main(["train", "--corpus", corpus, "--series", series,
                   "--out-dir", str(tmp_path), "--max-steps", "2"])
        monkeypatch.undo()
    assert rc == 141
    assert capsys.readouterr().err == ""
    assert (tmp_path / "history.csv").exists()
    assert (tmp_path / "checkpoint.msn").exists()


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
    vocab = D.build_vocab(D.load_corpus(corpus), max_size=60)
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
    vocab = D.build_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("%s\t1\t2\t3\t4\t5\t6\n%s 1 2 3 4 5 6 \n"
                   % (vocab.tokens[2], vocab.tokens[3]))
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 0
    assert "embeddings hit 2 of 4 vocabulary rows" in capsys.readouterr().out


def test_train_embeddings_hit_count_counts_rows_not_lines(tmp_path, capsys):
    """A token listed three times is one row hit, not three."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    vocab = D.build_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("".join("%s %d 2 3 4 5 6\n" % (token, i) for i, token in
                           enumerate([vocab.tokens[2]] * 3 + [vocab.tokens[3]])))
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
    vocab = D.build_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("\ufeff%s 1 2 3 4 5 6\n%s 1 2 3 4 5 6\n"
                   % (vocab.tokens[2], vocab.tokens[3]), encoding="utf-8")
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 0
    assert "embeddings hit 2 of 4 vocabulary rows" in capsys.readouterr().out


def test_train_embeddings_header_token_stays_out_of_the_vocabulary(tmp_path, capsys):
    """A ``.vec`` header line ("2000000 2") is no row, so its first field
    does not admit a corpus token of the same spelling."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    days = [json.loads(line) for line in open(corpus)]
    for day in days:
        day["headlines"][0]["text"] = "2000000 barrels oil"
    with open(corpus, "w") as fh:
        fh.writelines(json.dumps(day) + "\n" for day in days)
    emb = tmp_path / "emb.vec"
    emb.write_text("2000000 2\nbarrels 0.5 0.25\noil 1 2\n")
    run = tmp_path / "run"
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(run), "--d-s", "4", "--d-h", "3", "--d-w", "2",
               "--vocab-size", "60", "--max-steps", "2", "--embeddings", str(emb)])
    assert rc == 0
    assert "embeddings hit 2 of 4 vocabulary rows" in capsys.readouterr().out
    meta = TR.checkpoint_load(str(run / "checkpoint.msn"))[3]
    assert meta["vocab"] == ["<pad>", "<unk>", "barrels", "oil"]


def test_train_embeddings_of_another_width_are_data_error(tmp_path, capsys):
    """A file none of whose lines holds d_w numbers would leave the
    vocabulary with no word at all."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    vocab = D.build_vocab(D.load_corpus(corpus), max_size=60)
    emb = tmp_path / "emb.txt"
    emb.write_text("%s 1 2 3\n%s 1 2 3\n" % (vocab.tokens[2], vocab.tokens[3]))
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 2
    assert "d_w = 6" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def train_with_embeddings(tmp_path, corpus, series, emb, run="run"):
    return main(["train", "--corpus", corpus, "--series", series,
                 "--out-dir", str(tmp_path / run), "--d-s", "4", "--d-h", "3",
                 "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
                 "--seed", "7", "--embeddings", str(emb)])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_non_finite_embedding_row_names_its_line(tmp_path, capsys, value):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    words = D.build_vocab(D.load_corpus(corpus), max_size=60).tokens[2:4]
    emb = tmp_path / "emb.txt"
    emb.write_text("%s 1 2 3 4 5 6\n"
                   "unknowntoken nan nan nan nan nan nan\n"  # no corpus word
                   "%s 1 2 %s 4 5 6\n" % (words[0], words[1], value))
    assert train_with_embeddings(tmp_path, corpus, series, emb) == 2
    assert "emb.txt:3: embedding of %r is not finite" % words[1] \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_embeddings_fill_the_vocabulary_rows(tmp_path, capsys, monkeypatch):
    """The table training starts from holds each vocabulary word's last row:
    a ``<pad>`` line leaves row 0 zero, an ``<unk>`` line fills row 1, a word
    whose earlier line holds nan loads its finite last line, and the rows
    past the vocabulary keep their random init."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    words = D.build_vocab(D.load_corpus(corpus), max_size=60).tokens[2:4]
    emb = tmp_path / "emb.txt"
    emb.write_text("<pad> 9 9 9 9 9 9\n<unk> 1 1 1 1 1 1\n"
                   "%s 1 nan 3 4 5 6\n%s 2 2 2 2 2 2\n%s 1 2 3 4 5 6\n"
                   % (words[0], words[1], words[0]))
    tables, train = [], TR.train

    def spy(sset, params, *rest):
        tables.append(params.embedding.data.copy())
        return train(sset, params, *rest)

    monkeypatch.setattr(TR, "train", spy)
    assert train_with_embeddings(tmp_path, corpus, series, emb) == 0
    assert "embeddings hit 3 of 4 vocabulary rows" in capsys.readouterr().out
    vocab = TR.checkpoint_load(str(tmp_path / "run" / "checkpoint.msn"))[3]["vocab"]
    assert sorted(vocab[2:]) == sorted(words)
    table = tables[0]
    assert table[0].tolist() == [0.0] * 6
    assert table[1].tolist() == [1.0] * 6
    assert table[vocab.index(words[0])].tolist() == [1, 2, 3, 4, 5, 6]
    assert table[vocab.index(words[1])].tolist() == [2.0] * 6
    init = TE.init_embedding(60, 6, substream(7, "init")).data
    assert table[4:].tobytes() == init[4:].tobytes()


def test_train_embeddings_read_once_from_a_pipe(tmp_path, capsys):
    """A one-shot stream, as ``--embeddings <(zcat vec.gz)`` gives, is read
    once: it loads the same rows, and trains the same checkpoint, as a file
    holding its text."""
    corpus, series = make_dataset(tmp_path / "data", days=20)
    vocab = D.build_vocab(D.load_corpus(corpus), max_size=60)
    text = "".join("%s %d 2 3 4 5 6\n" % (token, i)
                   for i, token in enumerate(vocab.tokens[1:6]))
    emb = tmp_path / "emb.txt"
    emb.write_text(text)

    def run(name, path):
        assert train_with_embeddings(tmp_path, corpus, series, path, name) == 0
        hit = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("embeddings hit")]
        return hit, (tmp_path / name / "checkpoint.msn").read_bytes()

    want = run("file", emb)
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = run("pipe", "/dev/fd/%d" % read_end)
    finally:
        writer.join()
        os.close(read_end)
    assert want[0] == ["embeddings hit 5 of 6 vocabulary rows"]
    assert got == want


def test_train_requires_paths(capsys):
    assert main(["train"]) == 1
    err = capsys.readouterr().err
    assert "--corpus" in err and "--series" in err


def test_train_flags_are_the_config_fields():
    """Every ModelConfig field and every TrainConfig field is a train flag,
    defaulting to the dataclass default."""
    parser = cli.build_parser()
    table = cli._train_table()
    merged = cli._merge(parser.parse_args(["train"]), table)
    for cls in (M.ModelConfig, TR.TrainConfig):
        for f in dataclasses.fields(cls):
            assert merged[f.name] == f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            args = parser.parse_args(["train", flag, str(f.default)])
            assert cli._merge(args, table)[f.name] == f.default, f.name
    assert cli._build_config(M.ModelConfig, merged) == M.ModelConfig()
    assert cli._build_config(TR.TrainConfig, merged) == TR.TrainConfig()


# a value other than the default for each field; a split takes dates or
# fractions, so SplitSpec's fields are given in two runs
NON_DEFAULT = [
    (M.ModelConfig, "train", dict(
        variant="lstm_par", d_s=7, d_h=6, d_w=9, vocab_size=70, m=4,
        series_dim=2, max_tokens=11, daily_doc_cap=12, d_a=5,
        dropout_rate=0.25, l1=0.5, l2=0.125, objective="movement")),
    (TR.TrainConfig, "train", dict(
        learning_rate=0.5, batch_size=3, max_steps=9, clip_norm=2.5,
        early_stop_patience=4, eval_every=6, seed=13)),
    (D.SynthSpec, "synth", dict(
        n_days=12, n_docs=(3, 7), doc_len=(2, 9), vocab_size=40, phi=0.25,
        alpha=2.0, sigma=0.5, plant_prob=0.75, plant_per_day=True, seed=8,
        start=dt.date(2011, 3, 4))),
    *((D.SplitSpec, command, given) for command in ("train", "eval")
      for given in (dict(train_until=dt.date(2001, 2, 3),
                         valid_until=dt.date(2001, 4, 5)),
                    dict(fracs=(0.5, 0.25, 0.25))))]


def flag_text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return str(value)


@pytest.mark.parametrize("cls, command, given", NON_DEFAULT,
                         ids=lambda x: getattr(x, "__name__", None))
def test_config_fields_and_flags_stay_in_step(cls, command, given):
    """Every field of a config dataclass reaches a flag of ``command`` whose
    default is the field's (a pair, two flags), and non-default flag values
    build a config holding those values."""
    parser = cli.build_parser()
    table = getattr(cli, "_%s_table" % command)()
    defaults = cli._merge(parser.parse_args([command]), table)
    argv = [command]
    fields = dataclasses.fields(cls)
    for f in fields:
        keys = f.metadata.get("flags") or (f.name,)
        pair = len(keys) == 2
        for key, default in zip(keys, f.default if pair else (f.default,)):
            assert key in defaults and defaults[key] == default, key
        if f.name in given:
            assert given[f.name] != f.default, f.name
            values = given[f.name] if pair else (given[f.name],)
            for key, value in zip(keys, values):
                argv += ["--" + key.replace("_", "-"), flag_text(value)]
    if cls is not D.SplitSpec:
        assert set(given) == {f.name for f in fields}
    built = cli._build_config(cls, cli._merge(parser.parse_args(argv), table))
    for name, value in given.items():
        assert getattr(built, name) == value, name


def test_config_field_without_an_option_fails_the_table():
    """A config field declared without ``data.option`` cannot stay off the
    command line unnoticed: building its option table fails."""
    @dataclasses.dataclass
    class Config:  # the types as the config modules' annotations read
        width: "int" = D.option(3, "a width")
        hidden: "float" = 0.5

    with pytest.raises(KeyError, match="flags"):
        cli._config_entries(Config)


REQ = cli.REQUIRED
INPUTS = {"--corpus": REQ, "--series": REQ}
SPLIT_FLAGS = {"--train-until": None, "--valid-until": None, "--split-fracs": None}
# every subcommand's flags in help order, each with the default it resolves to
SUBCOMMAND_FLAGS = {
    "synth": {"--config": None, "--out-dir": ".", "--days": 100,
              "--docs-min": 2, "--docs-max": 5, "--len-min": 4, "--len-max": 8,
              "--vocab-size": 50, "--phi": 0.5, "--alpha": 1.0, "--sigma": 0.1,
              "--plant-prob": 0.3, "--plant-per-day": False, "--seed": 0,
              "--start": dt.date(2000, 1, 1)},
    "train": {"--config": None, **INPUTS, "--embeddings": None, "--out-dir": ".",
              "--variant": "msin", "--d-s": 64, "--d-h": 32, "--d-w": 50,
              "--vocab-size": 5000, "--m": 5, "--series-dim": 1,
              "--max-tokens": 16, "--daily-doc-cap": 25, "--d-a": 0,
              "--dropout-rate": 0.0, "--l1": 0.0, "--l2": 0.0,
              "--objective": "next_value",
              "--learning-rate": 1e-3, "--batch-size": 8, "--max-steps": 200,
              "--clip-norm": 5.0, "--early-stop-patience": 10,
              "--eval-every": 10, "--seed": 0, **SPLIT_FLAGS},
    "eval": {"--config": None, "--checkpoint": REQ, **INPUTS, "--out-dir": ".",
             "--split": "test", "--k-max": 5, **SPLIT_FLAGS},
    "rank": {"--config": None, "--checkpoint": REQ, **INPUTS, "--date": None,
             "--debug-masses": None},
    "gradcheck": {"--config": None, "--variant": "all", "--seed": 1},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_keeps_its_flags_and_defaults(command):
    """Each subcommand's flags, in order, and their defaults and types. The
    bench's serve_rank set-up runs synth with flags of these names."""
    parser = cli.build_parser(command)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    merged = cli._merge(parser.parse_args([command]),
                        getattr(cli, "_%s_table" % command)())
    got = [(a.option_strings[0], merged.get(a.dest)) for a in sub._actions
           if a.dest != "help"]
    want = SUBCOMMAND_FLAGS[command]
    assert got == list(want.items())
    assert [type(v) for _k, v in got] == [type(v) for v in want.values()]


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


@pytest.mark.parametrize("key, value", [
    ("series_mean", True), ("series_std", True), ("series_std", False)])
def test_checkpoint_series_stat_boolean_is_data_error(tmp_path, capsys, key, value):
    """JSON true is no number: it used to pass as 1, so rank normalized the
    series by a std of 1."""
    def put(meta, config):
        meta[key] = value
    _assert_metadata_rejected(tmp_path, capsys, put, "'%s'" % key)


@pytest.mark.parametrize("stored", [
    {"fracs": [0.5, 0.5, 0.5]}, {"fracs": [float("nan"), 0.5, 0.5]},
    {"train_until": "2000-01-15", "valid_until": "2000-01-10", "fracs": None},
    {"fracs": [True, False, False]}])
def test_checkpoint_invalid_split_is_data_error(tmp_path, capsys, stored):
    """A stored split that SplitSpec rejects is a broken checkpoint, not a
    usage mistake.  Booleans are no fractions: true, false, false used to
    put every day in the training split."""
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
    ``select_relevant`` and a separate descending sort, with a day whose
    whole mass falls short of the threshold marked as such."""
    order = E.rank_order(mass)
    chosen = set(E.select_relevant(mass))
    print("ranking for %s (%d documents)" % (date_label, len(mass)))
    for shown, idx in enumerate(order, 1):
        print("rank %2d  doc %02d  mass %.4f" % (shown, idx + 1, mass[idx]))
        if shown == len(chosen):
            total = float(np.sort(mass)[::-1][:shown].sum())
            rule = "reached %.2f" if total >= E.SELECT_THRESHOLD \
                else "below %.2f: all selected"
            print(("---- cumulative mass %.4f " + rule + " ----")
                  % (total, E.SELECT_THRESHOLD))
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


def test_gradcheck_wrong_backward_fails_with_exit_3(monkeypatch, capsys):
    """A hadamard whose backward is 1% off, the op with which
    ``sample_losses`` squares the error, fails every tensor's check."""
    hadamard = T.hadamard

    def skewed(tape, a, b):
        if tape is None:
            return hadamard(None, a, b)
        record = tape.record
        tape.record = lambda out, inputs, backward: record(
            out, inputs, lambda g: tuple(1.01 * x for x in backward(g)))
        try:
            return hadamard(tape, a, b)
        finally:
            del tape.record

    monkeypatch.setattr(T, "hadamard", skewed)
    rc = main(["gradcheck", "--variant", "msin"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    rows = lines[1:-2]
    assert rows and all(row.endswith("  FAIL") for row in rows)
    assert lines[-2].endswith("(fail)")
    assert lines[-1].startswith("gradcheck FAIL: worst relative error ")


def test_gradcheck_nan_backward_fails_with_exit_3(monkeypatch, capsys):
    """A sum_all whose backward gives nan, the loss's last op, fails every
    tensor's check: a nan entry is no pass, however its error compares."""
    sum_all = T.sum_all

    def skewed(tape, x):
        if tape is None:
            return sum_all(None, x)
        record = tape.record
        tape.record = lambda out, inputs, backward: record(
            out, inputs, lambda g: tuple(np.nan * v for v in backward(g)))
        try:
            return sum_all(tape, x)
        finally:
            del tape.record

    monkeypatch.setattr(T, "sum_all", skewed)
    rc = main(["gradcheck", "--variant", "msin"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    rows = lines[1:-2]
    assert rows and all(row.endswith("  FAIL") for row in rows)
    assert all(row.split()[1] == "inf" for row in rows)
    assert lines[-1] == "gradcheck FAIL: worst relative error inf >= %g" \
        % cli.GRADCHECK_TOL


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
    day = {d.date: d for d in H.load_corpus(corpus_path)}[sample.window.date]
    capped = H.cap_daily_docs(day.docs, config.daily_doc_cap)
    pred = M.forward(None, sample, params, config)
    capsys.readouterr()
    cli._print_ranking(sample.window.date.isoformat(),
                       pred.relevance.data.astype(np.float64),
                       [capped[i].text for i in sample.docs.source_idx])
    return capsys.readouterr().out


def full_build(ckpt, corpus_path, series_path):
    _params, config, _tcfg, meta = TR.checkpoint_load(ckpt)
    return D.make_samples(
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
    last = corpus[-1]
    blank = {"date": last.date.isoformat(),
             "headlines": [{"text": "!!! ...", "relevant": None},
                           {"text": "--", "relevant": None}]}
    edited = edited_corpus(corpus_path, root / "blank_last.jsonl",
                           len(corpus), lambda _rec, _lines: blank)
    sset = full_build(ckpt, edited, series)
    latest = max(sset.train + sset.valid + sset.test, key=lambda s: s.window.date)
    assert latest.window.date == corpus[-2].date
    want = full_build_ranking(ckpt, edited, series, latest, capsys)
    built = count_days_built(monkeypatch, edited)
    assert main(rank_argv(ckpt, edited, series)) == 0
    assert capsys.readouterr().out == want
    assert built == [last.date, corpus[-2].date]


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
    """eval's reports equal those of a whole-corpus build; train and
    gradcheck run, and rank tokenizes only the days it tries."""
    root, ckpt, corpus, series = ranked_run
    sset = full_build(ckpt, corpus, series)
    params, config, _tcfg, _meta = TR.checkpoint_load(ckpt)
    want = E.rank_report(params, config, sset.train + sset.valid + sset.test)
    E.write_day_dump(want, str(root / "want_days.jsonl"))
    out_dir = root / "no_objects"
    assert main(["eval", "--checkpoint", ckpt, "--corpus", corpus,
                 "--series", series, "--out-dir", str(out_dir),
                 "--split", "all"]) == 0
    assert (out_dir / "days.jsonl").read_bytes() == \
        (root / "want_days.jsonl").read_bytes()
    train_small(root / "no_objects_train", corpus, series,
                extra=("--max-steps", "2"))
    assert main(["gradcheck", "--variant", "msin"]) == 0
    latest = H.load_corpus(corpus)[-1].date
    built = count_days_built(monkeypatch, corpus)
    for extra, dates in (((), [latest]),
                         (("--date", "2000-01-20"), [dt.date(2000, 1, 20)])):
        built.clear()
        assert main(rank_argv(ckpt, corpus, series, *extra)) == 0
        assert built == dates


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


# ---------------------------------------------------------------------------
# text that is not UTF-8, non-ASCII and multi-line headlines

BAD_BYTES_LINE = (b'{"date": "2030-01-01", "headlines": [{"text": "caf\xe9 bad", '
                  b'"relevant": null}]}\n')


def not_utf8_copy(src, dst, keep, tail) -> str:
    """The first ``keep`` lines of file src followed by raw bytes ``tail``."""
    with open(src, "rb") as fh:
        head = fh.readlines()[:keep]
    dst.write_bytes(b"".join(head) + tail)
    return str(dst)


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_corpus_not_utf8_is_data_error(ranked_run, capsys, command):
    root, ckpt, corpus, series = ranked_run
    bad = not_utf8_copy(corpus, root / "latin1.jsonl", 20, BAD_BYTES_LINE)
    out_dir = ["--out-dir", str(root / "latin1_out")] if command == "eval" else []
    capsys.readouterr()
    assert main([command, "--checkpoint", ckpt, "--corpus", bad,
                 "--series", series, *out_dir]) == 2
    assert capsys.readouterr().err == \
        "data error: %s is not UTF-8 text (invalid continuation byte)\n" % bad


def test_series_not_utf8_is_data_error(ranked_run, capsys):
    root, ckpt, corpus, series = ranked_run
    bad = not_utf8_copy(series, root / "latin1.csv", 20, b"2030-01-01,caf\xe9\n")
    with pytest.raises(D.DatasetError, match="latin1.csv is not UTF-8 text"):
        D.load_series(bad)
    capsys.readouterr()
    assert main(rank_argv(ckpt, corpus, bad)) == 2
    assert capsys.readouterr().err == \
        "data error: %s is not UTF-8 text (invalid continuation byte)\n" % bad


def test_embeddings_not_utf8_are_data_error(tmp_path, capsys):
    corpus, series = make_dataset(tmp_path / "data", days=20)
    emb = tmp_path / "emb.txt"
    emb.write_bytes(b"w0001 1 2 3 4 5 6\ncaf\xe9 1 2 3 4 5 6\n")
    rc = main(["train", "--corpus", corpus, "--series", series,
               "--out-dir", str(tmp_path / "run"), "--d-s", "4", "--d-h", "3",
               "--d-w", "6", "--vocab-size", "60", "--max-steps", "2",
               "--embeddings", str(emb)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "data error: %s is not UTF-8 text (invalid continuation byte)\n" % emb


def test_config_file_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_bytes(b"days = 7\n# caf\xe9\n")
    assert main(["synth", "--out-dir", str(tmp_path),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "usage error: config file %s is not UTF-8 text (invalid continuation "
        "byte)\n" % cfg)


def test_rank_row_of_a_multi_line_headline_stays_one_line(capsys):
    """Each line boundary of a text, "\\r\\n" counted once, prints as one
    space before the 60-character cut; a tab stays a tab."""
    texts = ["w0001 w0002\nsecond line\tw0003", "up\r\ndown\r\n",
             "a b", "plain text", "x\n" * 40]
    cli._print_ranking("2000-01-11", np.array([0.4, 0.3, 0.2, 0.06, 0.04]),
                       texts)
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert rows == [
        "rank  1  doc 01  mass 0.4000  w0001 w0002 second line\tw0003",
        "rank  2  doc 02  mass 0.3000  up down ",
        "---- cumulative mass 0.7000 reached 0.50 ----",
        "rank  3  doc 03  mass 0.2000  a b",
        "rank  4  doc 04  mass 0.0600  plain text",
        "rank  5  doc 05  mass 0.0400  " + "x " * 28 + "x...",
    ]


NON_ASCII_TEXTS = ("Café crème w0003 ÉLAN", "株価 急騰 w0004", "w0001 w0002\n"
                   "second line\tw0003", "ΣΑΣ İstanbul q3_x", "w0005   ١٢٣")


@pytest.fixture(scope="module")
def non_ascii_corpus(ranked_run):
    """ranked_run's corpus with each day's first headline replaced by an
    accented, CJK, multi-line or otherwise non-ASCII text, odd days written
    as escaped JSON and even ones as raw UTF-8."""
    root, _ckpt, corpus, _series = ranked_run
    path = root / "non_ascii.jsonl"
    with open(corpus, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(recs):
            rec["headlines"][0]["text"] = NON_ASCII_TEXTS[i % len(NON_ASCII_TEXTS)]
            fh.write(json.dumps(rec, ensure_ascii=i % 2 == 1) + "\n")
    return str(path)


def test_non_ascii_and_multi_line_headlines_read_as_before(
        ranked_run, non_ascii_corpus, capsys):
    """load_corpus equals the per-headline reference, and eval writes the
    reports of a whole-corpus build through that reference."""
    root, ckpt, _corpus, series = ranked_run
    days = [(day.date, day.docs) for day in H.load_corpus(non_ascii_corpus)]
    reference = H.reference_tokenize_days(days)
    H.assert_same_tokenized(D.load_corpus(non_ascii_corpus), reference)
    assert {"café", "株価", "second", "σας", "q3", "x", "١٢٣"} <= \
        set(reference.table)

    params, config, _tcfg, meta = TR.checkpoint_load(ckpt)
    sset = D.make_samples(
        reference, D.load_series(series), D.Vocabulary(tokens=tuple(meta["vocab"])),
        config, D.SplitSpec(fracs=tuple(meta["split"]["fracs"])),
        stats=D.SeriesStats(mean=meta["series_mean"], std=meta["series_std"]))
    want = E.rank_report(params, config, sset.train + sset.valid + sset.test)
    E.write_day_dump(want, str(root / "non_ascii_days.jsonl"))
    E.write_report(want, config, str(root / "non_ascii_report.json"))
    out_dir = root / "non_ascii_eval"
    assert main(["eval", "--checkpoint", ckpt, "--corpus", non_ascii_corpus,
                 "--series", series, "--out-dir", str(out_dir),
                 "--split", "all"]) == 0
    for got, want_path in (("days.jsonl", "non_ascii_days.jsonl"),
                           ("report.json", "non_ascii_report.json")):
        assert (out_dir / got).read_bytes() == (root / want_path).read_bytes()


def test_rank_prints_a_multi_line_headline_on_one_row(ranked_run,
                                                      non_ascii_corpus, capsys):
    """2000-01-13's first headline holds a line break; rank prints one row
    per document all the same."""
    _root, ckpt, _corpus, series = ranked_run
    day = H.load_corpus(non_ascii_corpus)[12]
    assert day.date == dt.date(2000, 1, 13) and "\n" in day.docs[0].text
    capsys.readouterr()
    assert main(rank_argv(ckpt, non_ascii_corpus, series,
                          "--date", "2000-01-13")) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line for line in out if not line.startswith("----")][1:-1]
    assert len(rows) == len(day.docs) and all(r.startswith("rank ") for r in rows)
    assert any(r.endswith("  w0001 w0002 second line\tw0003") for r in rows)


# ---------------------------------------------------------------------------
# checkpoint config types and tensor names


@pytest.mark.parametrize("command", ["eval", "rank"])
@pytest.mark.parametrize("field, value", [
    ("d_h", 3.0), ("max_tokens", 4.0), ("m", 2.5), ("daily_doc_cap", 3.5),
    ("batch_size", True)])
def test_checkpoint_config_value_of_another_type_is_data_error(
        ranked_run, capsys, command, field, value):
    """A float in an integer field used to raise TypeError out of main (or,
    for daily_doc_cap, let eval run under a fractional cap)."""
    root, ckpt, corpus, series = ranked_run
    params, config, tcfg, meta = TR.checkpoint_load(ckpt)
    if hasattr(config, field):
        config = dataclasses.replace(config, **{field: value})
    else:
        tcfg = dataclasses.replace(tcfg, **{field: value})
    bad = str(root / ("typed_%s.msn" % field))
    TR.checkpoint_save(params, config, tcfg, meta, bad)
    out_dir = root / ("typed_%s_eval" % field)
    extra = ["--out-dir", str(out_dir)] if command == "eval" else []
    capsys.readouterr()
    assert main([command, "--checkpoint", bad, "--corpus", corpus,
                 "--series", series, *extra]) == 2
    assert capsys.readouterr().err == (
        "data error: config field '%s' is %r, not of type int\n" % (field, value))
    assert not out_dir.exists()


def test_checkpoint_float_field_may_hold_an_integer(ranked_run):
    root, ckpt, _corpus, _series = ranked_run
    params, config, tcfg, meta = TR.checkpoint_load(ckpt)
    path = str(root / "int_rate.msn")
    TR.checkpoint_save(params, dataclasses.replace(config, l2=0),
                       dataclasses.replace(tcfg, learning_rate=1), meta, path)
    _params, got, got_tcfg, _meta = TR.checkpoint_load(path)
    assert (got.l2, got_tcfg.learning_rate) == (0, 1)


def with_config_json(ckpt, path, edit):
    """A copy of checkpoint ``ckpt`` at ``path`` whose config JSON ``edit``
    has changed, written as ``checkpoint_save`` writes it."""
    blob = open(ckpt, "rb").read()
    size = struct.unpack_from("<I", blob, 8)[0]
    meta = json.loads(blob[12:12 + size])
    edit(meta)
    text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + size:])
    return path


def stored_as_config_fields(meta):
    """The config JSON as written while the pooling divisor and Adam's
    constants were config fields, each holding the value now fixed."""
    meta["model"]["pool_divisor"] = "actual_len"
    meta["train"].update(beta1=0.9, beta2=0.999, eps=1e-8)


def test_checkpoint_with_retired_fields_loads_as_the_same_model(ranked_run,
                                                                capsys):
    """A checkpoint that stores the retired fields at their fixed values
    gives the eval files and the rank printout of the same tensors saved
    without them, and saves back to those bytes."""
    root, ckpt, corpus, series = ranked_run
    old = with_config_json(ckpt, str(root / "retired.msn"),
                           stored_as_config_fields)
    assert b'"pool_divisor":"actual_len"' in open(old, "rb").read()
    assert b"pool_divisor" not in open(ckpt, "rb").read()
    outputs = []
    for i, path in enumerate((ckpt, old)):
        out_dir = root / ("retired_%d" % i)
        inputs = ["--checkpoint", path, "--corpus", corpus, "--series", series]
        assert main(["eval", *inputs, "--split", "all",
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["rank", *inputs]) == 0
        outputs.append([capsys.readouterr().out] + [
            (out_dir / name).read_bytes()
            for name in ("days.jsonl", "curve.csv", "report.json")])
    assert outputs[1] == outputs[0]
    again = str(root / "retired_again.msn")
    TR.checkpoint_save(*TR.checkpoint_load(old), again)
    assert open(again, "rb").read() == open(ckpt, "rb").read()


@pytest.mark.parametrize("section, field, value", [
    ("model", "pool_divisor", "max_len"), ("train", "beta1", 0.5),
    ("train", "beta2", 0.99), ("train", "eps", 1e-6), ("train", "eps", True)])
@pytest.mark.parametrize("command", ["eval", "rank"])
def test_checkpoint_retired_field_of_another_value_is_data_error(
        ranked_run, capsys, command, section, field, value):
    """No command wrote a retired field at another value than the one now
    fixed, so such a checkpoint is refused, naming the field."""
    root, ckpt, corpus, series = ranked_run

    def edit(meta):
        stored_as_config_fields(meta)
        meta[section][field] = value
    bad = with_config_json(ckpt, str(root / ("retired_%s.msn" % field)), edit)
    out_dir = root / ("retired_%s_eval" % field)
    extra = ["--out-dir", str(out_dir)] if command == "eval" else []
    capsys.readouterr()
    assert main([command, "--checkpoint", bad, "--corpus", corpus,
                 "--series", series, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: config field '%s' is %r" % (field, value))
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_checkpoint_tensor_name_not_utf8_is_data_error(ranked_run, capsys,
                                                       command):
    """The name's decode used to raise UnicodeDecodeError out of main."""
    root, ckpt, corpus, series = ranked_run
    blob = bytearray(open(ckpt, "rb").read())
    # magic, version, config length and config; tensor count; name length
    first_name = 12 + struct.unpack_from("<I", blob, 8)[0] + 4 + 2
    assert blob[first_name:first_name + 9] == b"embedding"
    blob[first_name] = 0xE9
    bad = root / "latin1_name.msn"
    bad.write_bytes(bytes(blob))
    extra = ["--out-dir", str(root / "latin1_name")] if command == "eval" else []
    capsys.readouterr()
    assert main([command, "--checkpoint", str(bad), "--corpus", corpus,
                 "--series", series, *extra]) == 2
    assert capsys.readouterr().err == \
        "data error: the name of tensor 0 is not UTF-8\n"
