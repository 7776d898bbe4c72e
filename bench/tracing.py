"""Span recorder that wraps the package's public entry points from outside.

Nothing in the package is edited: while a tracer is active, the module
attributes listed in ``LAYER_SPANS`` are replaced by wrappers that record a
span (name, start, end, parent span, sample id, extra count), and the public
ops of ``msin.tensor`` by wrappers that only count calls and time. Callers
inside the package look these attributes up through their module at call
time (``T.matmul``, ``M.forward``, ``TR.train``...), so the wrappers see
every call. Leaving the tracer restores the originals, so untraced work runs
the unmodified functions.

Op timers are counters, not spans: a layer's self time still includes the
tensor ops it issues. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent sample extra")


def _tape_len_before(args, kwargs):
    tape = args[0] if args else kwargs.get("tape")
    return None if tape is None else (tape, len(tape))


def _tape_delta(args, kwargs, before):
    """Tape entries recorded during the call; None for a forward-only call."""
    if before is None:
        return None
    tape, n0 = before
    return len(tape) - n0


def _tape_len(args, kwargs):
    return len(args[0])


def _saved_bytes(args, kwargs, before):
    path = args[4] if len(args) > 4 else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute, span name, pre, post). ``pre`` runs before the call;
# ``post(args, kwargs, pre_value)`` after it, giving the span's extra count.
LAYER_SPANS = (
    ("msin.data", "synth_generate", "data.synth", None, None),
    ("msin.data", "load_corpus", "data.load_corpus", None, None),
    ("msin.data", "load_series", "data.load_series", None, None),
    ("msin.data", "build_vocab", "data.build_vocab", None, None),
    ("msin.data", "make_samples", "data.make_samples", None, None),
    ("msin.model", "forward", "model.forward", None, None),
    ("msin.model", "loss", "model.loss", None, None),
    ("msin.text_encoder", "encode_documents", "text_encoder.encode",
     _tape_len_before, _tape_delta),
    ("msin.cell", "run_sequence", "cell.run", _tape_len_before, _tape_delta),
    ("msin.cell", "run_plain_sequence", "cell.run",
     _tape_len_before, _tape_delta),
    ("msin.tensor", "Tape.backward", "tensor.backward", _tape_len,
     lambda a, k, before: before),
    ("msin.training", "train", "training.train", None, None),
    ("msin.training", "eval_loss", "training.eval_loss", None, None),
    ("msin.training", "checkpoint_save", "training.checkpoint_save",
     None, _saved_bytes),
    ("msin.training", "checkpoint_load", "training.checkpoint_load",
     None, None),
    ("msin.evaluation", "rank_report", "evaluation.rank_report", None, None),
    ("msin.evaluation", "write_report", "evaluation.write", None, None),
    ("msin.evaluation", "write_day_dump", "evaluation.write", None, None),
    ("msin.evaluation", "write_curve_csv", "evaluation.write", None, None),
    ("msin.cli", "cmd_eval", "cli.eval", None, None),
    ("msin.cli", "cmd_rank", "cli.rank", None, None),
)


def tensor_ops(module) -> dict:
    """Public functions of the tensor module whose first parameter is the tape."""
    ops = {}
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if fn.__module__ != module.__name__:
            continue
        params = list(inspect.signature(fn).parameters)
        if params and params[0] == "tape":
            ops[name] = fn
    return ops


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Grandchildren are not subtracted again: they lie inside their parent,
    which is already subtracted as a whole.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [(s.end - s.start) - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    """Records spans and op counts while active; inert otherwise."""

    def __init__(self, table=LAYER_SPANS, count_ops: bool = True):
        self.table = table
        self.count_ops = count_ops
        self.spans: list[Span] = []
        self.sample = None
        self.op_calls: dict[str, Counter] = {}   # phase -> op kind -> calls
        self.op_seconds: dict[str, float] = {}   # phase -> seconds in ops
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_acc: dict[str, list] = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = pre(args, kwargs) if pre is not None else None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = post(args, kwargs, before) if post is not None else None
                spans[idx] = Span(name, t0, t1, parent, self.sample, extra)
        return wrapper

    @staticmethod
    def _op(fn, acc):
        """Count calls and time into ``acc`` = [calls, seconds].

        No try/finally: a call that raises is neither counted nor timed. An
        op that called another public op would be counted at both levels;
        none does today.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            acc[1] += clock() - t0
            acc[0] += 1
            return out
        return wrapper

    # -- activation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, pre, post in self.table:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, leaf, self._span(name, getattr(owner, leaf),
                                                pre, post))
        if self.count_ops:
            tensor = importlib.import_module("msin.tensor")
            for kind, fn in tensor_ops(tensor).items():
                acc = self._op_acc[kind] = [0, 0.0]
                self._patch(tensor, kind, self._op(fn, acc))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        phase = self.sample[0] if self.sample else None
        calls = self.op_calls.setdefault(phase, Counter())
        for kind, (n, secs) in self._op_acc.items():
            if n:
                calls[kind] += n
                self.op_seconds[phase] = self.op_seconds.get(phase, 0.0) + secs
        self._op_acc.clear()

    @contextmanager
    def active(self, sample):
        """Trace one unit of work; ``sample`` is (phase, index)."""
        self.sample = sample
        try:
            self.install()
            yield self
        finally:
            self.uninstall()
            self.sample = None

    def dump(self, path: str) -> None:
        """Write spans (one JSON object a line) and op counters."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "sample": list(s.sample or ()),
                                     "extra": s.extra}) + "\n")
            fh.write(json.dumps({"op_calls": {p: dict(c) for p, c
                                              in self.op_calls.items()},
                                 "op_seconds": self.op_seconds}) + "\n")
