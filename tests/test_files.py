"""Crash-safe writes: every output file is replaced whole or not at all."""

import datetime as dt
import os

import pytest

from msin import cli
from msin import data as D
from msin import evaluation as E
from msin import files
from msin import model as M
from msin import training as TR


def _rank_result():
    movement = E.MovementMetrics(accuracy=0.5, up_precision=0.5, up_recall=1.0,
                                 down_precision=None, down_recall=0.0, n=2)
    report = E.MetricsReport(per_k=(E.KPoint(1, 0.5, 0.5), E.KPoint(2, 0.5, 1.0)),
                             movement=movement, days=2, gtd=2,
                             relevance_available=True)
    days = tuple(E.DayRecord(date=dt.date(2020, 1, d), mass=(0.75, 0.25), gtn=(0,),
                             selected=(0,)) for d in (1, 2))
    return E.RankResult(report=report, days=days)


def _writers():
    config = M.ModelConfig(d_s=2, d_h=1, d_w=2, vocab_size=6, m=2, max_tokens=3,
                           daily_doc_cap=2)
    params = M.init_model(config, seed=0)
    tcfg = TR.TrainConfig()
    history = [TR.HistoryRow(1, 0.5, None), TR.HistoryRow(2, 0.25, 0.125)]
    result = _rank_result()
    corpus, series = D.synth_generate(D.SynthSpec(n_days=3, seed=0))
    return {
        "checkpoint": lambda path: TR.checkpoint_save(params, config, tcfg,
                                                      {"step": 2}, path),
        "history": lambda path: cli.write_history(history, path),
        "report": lambda path: E.write_report(result, config, path),
        "days": lambda path: E.write_day_dump(result, path),
        "curve": lambda path: E.write_curve_csv(result, path),
        "corpus": lambda path: D.save_corpus(corpus, path),
        "series": lambda path: D.save_series(series, path),
    }


class _DiskFull:
    """A file handle that stores 8 bytes, then fails the write that follows."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        room = 8 - self.fh.tell()
        if len(data) > room:
            self.fh.write(data[:max(room, 0)])
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.mark.parametrize("name", sorted(_writers()))
def test_failed_write_keeps_previous_bytes(tmp_path, monkeypatch, name):
    write = _writers()[name]
    path = str(tmp_path / name)
    write(path)
    before = open(path, "rb").read()
    assert len(before) > 8
    assert os.listdir(tmp_path) == [name]

    monkeypatch.setattr(files, "open",
                        lambda *a, **k: _DiskFull(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="no space"):
        write(path)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == [name]


def test_failed_first_write_leaves_nothing(tmp_path):
    path = str(tmp_path / "out.txt")
    with pytest.raises(RuntimeError):
        with files.write_atomically(path) as fh:
            fh.write("partial")
            raise RuntimeError("crash")
    assert os.listdir(tmp_path) == []
