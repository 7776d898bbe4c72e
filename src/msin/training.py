"""Training loop and checkpoint files.

Batches are formed from a seeded shuffle each epoch. A training step runs the
whole batch as rows of one graph (``model.forward_batch``): one forward, one
loss and one backward on one tape. The objective is the mean of the
per-sample prediction errors plus the L1/L2 penalties. The tape
differentiates the sum of the errors over the batch, and the float64 leaf
gradients are divided by the batch size. The penalties never enter the tape:
on the decayed entries of the parameter buffer (``model.named_tensors``),
their float64 value is added to the step's loss and their gradient to the
mean gradient before clipping; at zero weights neither is computed. Sample
b's dropout mask comes from its own stream, keyed by step and sample index;
at a dropout rate of 0 no stream is built.

``train`` pays the optimizer's fixed costs once per step, not once per
tensor: at its start every parameter's ``data`` becomes a view into one
float32 buffer, and the leaf gradients are copied into one float64 buffer.
The global norm is taken per tensor, in the order ``model.named_tensors``
lists them; clipping, the float64 Adam moments and the update are single
array operations over the buffers, and the best-validation snapshot is one
copy. The update is computed in float64 and stored back to float32, with
the arithmetic of a per-tensor loop bit for bit. Checkpoints are written to
a temporary file that replaces the target only once complete.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .data import option
from .files import write_atomically
from .rng import substream

MAGIC = b"MSN1"
FORMAT_VERSION = 3
# magic, version and header length come before the header JSON; the
# SHA-256 of every byte before it ends the file
HEADER_AT = 12
DIGEST_BYTES = 32
# Full days per forward-only pass (forward_chunks). The pass's memory grows
# with its padded document grid, not with its days, so a pass holds up to
# EVAL_CHUNK * daily_doc_cap document slots: EVAL_CHUNK days at the cap, more
# days when they hold fewer documents. The series cell runs every step of the
# window once per pass whatever its width, so wider passes of sparse days cost
# less per day. Memory bounds the width, most of it the encoder's per-step
# arrays. At the recovery config (10 documents x 8 tokens a day, d_w=16,
# d_h=8), one 37-day pass peaks at 1.43 MB under tracemalloc: the widest pass
# within the 1.45 MB of a 16-day pass when lstm_sweep still took the input
# products of every position before its loop.
EVAL_CHUNK = 37
# Adam's moment decay rates and denominator term, the published defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(Exception):
    """Raised for unusable training inputs."""


class TrainingAbort(Exception):
    """Raised when a loss turns non-finite; carries the offending batch."""

    def __init__(self, step: int, sample_ids, losses):
        self.step = step
        self.sample_ids = list(sample_ids)
        self.losses = [float(v) for v in losses]
        super().__init__(
            "non-finite loss at step %d (samples %s, losses %s)"
            % (step, self.sample_ids, self.losses))


class CheckpointError(Exception):
    """Raised for malformed checkpoint files, naming the offender."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = option(1e-3, "Adam step size")
    batch_size: int = option(8, "samples per update")
    max_steps: int = option(200, "update budget")
    clip_norm: float = option(5.0, "global gradient norm cap")
    early_stop_patience: int = option(
        10, "evaluations without improvement before stopping")
    eval_every: int = option(10, "steps between validations")
    seed: int = option(0, "run seed: init, shuffling, and dropout")

    def __post_init__(self):
        for name in ("learning_rate", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size and eval_every must be positive")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative, got %d" % self.seed)


@dataclass(frozen=True)
class HistoryRow:
    step: int
    train_loss: float
    valid_loss: float | None


@dataclass(frozen=True)
class TrainResult:
    params: M.ModelParams
    history: tuple[HistoryRow, ...]
    best_step: int
    best_valid: float
    steps_run: int


def eval_passes(doc_counts, daily_doc_cap: int):
    """(lo, hi) bounds of the forward-only passes over samples holding
    ``doc_counts`` documents, in order.

    A pass takes consecutive samples while its padded grid, its samples
    times its largest document count, fits in ``EVAL_CHUNK * daily_doc_cap``
    slots; it always holds at least one sample.
    """
    budget = EVAL_CHUNK * daily_doc_cap
    lo = widest = 0
    for i, n in enumerate(doc_counts):
        widest = max(widest, n)
        if i > lo and (i + 1 - lo) * widest > budget:
            yield lo, i
            lo, widest = i, n
    if doc_counts:
        yield lo, len(doc_counts)


def forward_chunks(samples, params: M.ModelParams, config: M.ModelConfig):
    """(chunk, BatchPrediction) for each forward-only pass of
    ``eval_passes``; memory stays flat in the number of samples."""
    counts = [s.docs.n for s in samples]
    for lo, hi in eval_passes(counts, config.daily_doc_cap):
        chunk = samples[lo:hi]
        yield chunk, M.forward_batch(None, chunk, params, config)


def eval_loss(samples, params: M.ModelParams, config: M.ModelConfig) -> float:
    """Mean prediction loss (no penalties, no dropout) over a sample list."""
    if not samples:
        raise TrainingError("cannot evaluate on an empty sample list")
    total = 0.0
    for chunk, pred in forward_chunks(samples, params, config):
        errors = M.sample_losses(None, pred.value, chunk, config).data
        total += float(errors.sum(dtype=np.float64))
    return total / len(samples)


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def _penalty(w: np.ndarray, l1: float, l2: float) -> tuple[float, np.ndarray]:
    """l1*sum|w| + l2*sum(w^2) over float64 weights, and its gradient."""
    return (l1 * float(np.abs(w).sum()) + l2 * float((w * w).sum()),
            l1 * np.sign(w) + 2.0 * l2 * w)


def train(samples, params: M.ModelParams, config: M.ModelConfig,
          tcfg: TrainConfig) -> TrainResult:
    """Run Adam with clipping and early stopping; return best-validation params.

    `samples` needs .train and .valid sequences. The returned params object is
    the one passed in, with the best-validation snapshot written back into it;
    its tensors' data are views into one float32 buffer from here on.
    """
    train_set, valid_set = tuple(samples.train), tuple(samples.valid)
    if not train_set or not valid_set:
        raise TrainingError("need non-empty train and validation splits")

    rows = M.named_tensors(params)
    # every parameter and its gradient as views into one flat buffer each
    sizes = [t.size for _, t, _ in rows]
    flat = np.empty(sum(sizes), dtype=np.float32)
    grad = np.empty(flat.size)
    grads = {}
    lo = 0
    for (n, t, _), size in zip(rows, sizes):
        flat[lo:lo + size] = t.data.reshape(-1)
        t.data = flat[lo:lo + size].reshape(t.shape)
        grads[n] = grad[lo:lo + size].reshape(t.shape)
        lo += size
    decayed = np.repeat([d for _, _, d in rows], sizes)
    penalized = config.l1 > 0.0 or config.l2 > 0.0
    penalty = 0.0
    adam_m = np.zeros(flat.size)
    adam_v = np.zeros(flat.size)
    history: list[HistoryRow] = []
    best_valid = np.inf
    best_step = 0
    best_data = None
    evals_since_best = 0

    def evaluate(step: int) -> float:
        nonlocal best_valid, best_step, best_data, evals_since_best
        vl = eval_loss(valid_set, params, config)
        if vl < best_valid:
            best_valid, best_step = vl, step
            best_data = flat.copy()
            evals_since_best = 0
        else:
            evals_since_best += 1
        return vl

    step = 0
    epoch = 0
    cursor = 0
    order = substream(tcfg.seed, "shuffle", epoch).permutation(len(train_set))
    last_evaluated = -1
    while step < tcfg.max_steps:
        if cursor >= len(order):
            epoch += 1
            cursor = 0
            order = substream(tcfg.seed, "shuffle", epoch).permutation(len(train_set))
        batch_ids = sorted(int(i) for i in order[cursor:cursor + tcfg.batch_size])
        cursor += tcfg.batch_size
        step += 1

        batch = [train_set[i] for i in batch_ids]
        tape = T.Tape()
        rngs = None if config.dropout_rate == 0.0 else \
            [substream(tcfg.seed, "dropout", step, i) for i in batch_ids]
        pred = M.forward_batch(tape, batch, params, config, rngs)
        total, errors = M.batch_loss(tape, pred.value, batch, config)
        train_loss = float(total.data[0]) / len(batch)
        if penalized:
            penalty, penalty_grad = _penalty(flat[decayed].astype(np.float64),
                                             config.l1, config.l2)
            train_loss += penalty
        if not np.isfinite(train_loss):
            raise TrainingAbort(step, batch_ids,
                                errors.data.astype(np.float64) + penalty)
        tape.backward(total)
        for n, t, _ in rows:
            grads[n][...] = 0.0 if t.grad is None else t.grad
            t.grad = None
        grad /= len(batch)
        if penalized:
            grad[decayed] += penalty_grad

        norm = _global_norm(grads)
        if norm > tcfg.clip_norm:
            grad *= tcfg.clip_norm / norm

        adam_m *= ADAM_BETA1
        adam_m += (1.0 - ADAM_BETA1) * grad
        adam_v *= ADAM_BETA2
        adam_v += (1.0 - ADAM_BETA2) * grad * grad
        update = (tcfg.learning_rate * (adam_m / (1.0 - ADAM_BETA1 ** step))
                  / (np.sqrt(adam_v / (1.0 - ADAM_BETA2 ** step)) + ADAM_EPS))
        flat[...] = flat.astype(np.float64) - update

        valid_loss = None
        if step % tcfg.eval_every == 0:
            valid_loss = evaluate(step)
            last_evaluated = step
        history.append(HistoryRow(step, train_loss, valid_loss))
        if valid_loss is not None and evals_since_best >= tcfg.early_stop_patience:
            break

    if step > 0 and last_evaluated != step:
        vl = evaluate(step)
        history[-1] = HistoryRow(step, history[-1].train_loss, vl)

    if best_data is not None:
        flat[...] = best_data
    return TrainResult(params=params, history=tuple(history),
                       best_step=best_step,
                       best_valid=float(best_valid) if best_data is not None
                       else np.nan,
                       steps_run=step)


# ---------------------------------------------------------------------------
# checkpoint format


def checkpoint_save(params: M.ModelParams, config: M.ModelConfig,
                    tcfg: TrainConfig, metadata: dict, path: str) -> None:
    """Write magic, version, the header JSON, every tensor's float32 values
    in ``model.named_tensors`` order, and the SHA-256 of all bytes before it.

    The header records the configs, the metadata and each tensor's name and
    shape. The file is replaced whole: a failed write leaves the previous one.
    """
    rows = M.named_tensors(params)
    header = json.dumps({"model": dataclasses.asdict(config),
                         "train": dataclasses.asdict(tcfg),
                         "metadata": metadata,
                         "tensors": [[n, list(t.shape)] for n, t, _ in rows]},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([MAGIC, struct.pack("<II", FORMAT_VERSION, len(header)),
                     header] + [t.data.astype("<f4", copy=False).tobytes()
                                for _, t, _ in rows])
    with write_atomically(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


# the JSON values a config field of each declared type may hold
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _stored_config(cls, stored: dict):
    """A config dataclass from a checkpoint's JSON object; a value of another
    type than its field declares raises CheckpointError naming the field."""
    if not isinstance(stored, dict):
        raise CheckpointError("stored %s is not a JSON object" % cls.__name__)
    for f in dataclasses.fields(cls):
        value = stored.get(f.name)
        if f.name in stored and (isinstance(value, bool) or
                                 not isinstance(value, _JSON_TYPES[f.type])):
            raise CheckpointError("config field '%s' is %r, not of type %s"
                                  % (f.name, value, f.type))
    return cls(**stored)


def checkpoint_load(path: str):
    """Read a checkpoint; returns (params, ModelConfig, TrainConfig, metadata).

    The digest is checked before anything else is parsed. A stored tensor
    list other than the one the config gives raises CheckpointError naming
    the first tensor that differs, and a tensor holding a nan or inf raises
    CheckpointError naming it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError("bad magic, not a checkpoint file")
    version = int.from_bytes(blob[4:8], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError("unsupported format version %d" % version)
    body = memoryview(blob)[:-DIGEST_BYTES]
    if len(blob) < HEADER_AT + DIGEST_BYTES or \
            hashlib.sha256(body).digest() != blob[-DIGEST_BYTES:]:
        raise CheckpointError("%s is damaged or truncated, or has trailing "
                              "bytes: its SHA-256 does not match" % path)
    data_at = HEADER_AT + int.from_bytes(blob[8:HEADER_AT], "little")
    try:
        meta = json.loads(blob[HEADER_AT:data_at].decode("utf-8"))
        config = _stored_config(M.ModelConfig, meta["model"])
        tcfg = _stored_config(TrainConfig, meta["train"])
        metadata = meta["metadata"]
        stored = list(meta["tensors"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError("bad config JSON: %s" % exc) from exc

    params = M.init_model(config, seed=None)
    rows = M.named_tensors(params)
    layout = [[n, list(t.shape)] for n, t, _ in rows]
    for i, (got, want) in enumerate(itertools.zip_longest(stored, layout)):
        if got != want:
            raise CheckpointError("tensor %d is stored as %r; the config "
                                  "gives %r" % (i, got, want))
    sizes = [t.size for _, t, _ in rows]
    if len(body) - data_at != 4 * sum(sizes):
        raise CheckpointError("tensor data holds %d bytes; the config's tensors "
                              "take %d" % (len(body) - data_at, 4 * sum(sizes)))
    values = np.frombuffer(body, dtype="<f4", offset=data_at)
    for (name, t, _), raw in zip(rows, np.split(values, np.cumsum(sizes)[:-1])):
        if not np.isfinite(raw).all():
            raise CheckpointError("tensor '%s' holds non-finite values" % name)
        t.data[...] = raw.reshape(t.shape)
    return params, config, tcfg, metadata
