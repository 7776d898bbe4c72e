"""Full models: the context-injecting variant and its two ablations.

All three share the document encoder and the dense output head.  ``msin``
injects an attended document context into every gate; ``lstm_wo`` runs a plain
LSTM and aligns documents once against the final hidden state; ``lstm_par``
keeps the modalities independent until the head.  ``forward_batch`` builds
one graph for a list of samples and ``batch_loss`` scores it; every command
runs these two, a single sample as a batch of one.
Parameters live in one named-tensor tree so checkpointing and gradient
checking can enumerate them uniformly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import cell as cell_mod
from . import tensor as T
from . import text_encoder as enc
from .rng import substream

VARIANTS = ("msin", "lstm_wo", "lstm_par")
OBJECTIVES = ("next_value", "movement")


def option(default, help_text: str):
    """A config field that ``msin train`` exposes as a flag with this help."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class ModelConfig:
    variant: str = option("msin", "msin, lstm_wo, or lstm_par")
    d_s: int = option(64, "series cell width")
    d_h: int = option(32, "encoder width per direction")
    d_w: int = option(50, "word embedding width")
    vocab_size: int = option(5000, "vocabulary cap")
    m: int = option(5, "look-back window length")
    series_dim: int = option(1, "series columns")
    max_tokens: int = option(16, "tokens kept per document")
    daily_doc_cap: int = option(25, "documents kept per day")
    d_a: int = option(0, "attention width, 0 means d_s")
    dropout_rate: float = option(0.0, "feature dropout rate")
    l1: float = option(0.0, "L1 penalty weight")
    l2: float = option(0.0, "L2 penalty weight")
    objective: str = option("next_value", "next_value or movement")
    pool_divisor: str = option("actual_len",
                               "document pooling divisor: actual_len or max_len")

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError("unknown variant %r" % self.variant)
        if self.objective not in OBJECTIVES:
            raise ValueError("unknown objective %r" % self.objective)
        if self.pool_divisor not in ("actual_len", "max_len"):
            raise ValueError("unknown pool_divisor %r" % self.pool_divisor)
        if self.m < 1 or self.daily_doc_cap < 1:
            raise ValueError("m and daily_doc_cap must be >= 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0,1)")
        if not (math.isfinite(self.l1) and math.isfinite(self.l2)):
            raise ValueError("l1/l2 must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1/l2 must be nonnegative")
        if min(self.d_s, self.d_h, self.d_w, self.series_dim, self.max_tokens) < 1:
            raise ValueError("widths must be positive")
        if self.d_a < 0:
            raise ValueError("d_a must be >= 0 (0 means d_s)")

    @property
    def attention_width(self) -> int:
        return self.d_a if self.d_a > 0 else self.d_s

    @property
    def doc_dim(self) -> int:
        return 2 * self.d_h

    @property
    def feature_dim(self) -> int:
        # lstm_par fuses the series state with a d_s-wide text projection
        return self.d_s + (self.d_s if self.variant == "lstm_par" else self.doc_dim)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError("unknown model config keys: %s" % sorted(extra))
        return cls(**d)


def config_hash(config: ModelConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ModelParams:
    embedding: T.Tensor                   # [V, d_w]
    encoder: enc.TextEncoderParams
    msin: cell_mod.MsinParams | None      # msin variant only
    cell: enc.LSTMParams | None           # plain cell for the ablations
    align: cell_mod.AttentionParams | None  # lstm_wo post-hoc attention
    text_w: T.Tensor | None               # lstm_par text projection
    text_b: T.Tensor | None
    head_w: T.Tensor                      # [1, feature_dim]
    head_b: T.Tensor                      # [1]


def init_model(config: ModelConfig, seed: int) -> ModelParams:
    """Fresh parameters; the draw order below is part of run reproducibility."""
    rng = substream(seed, "init")
    embedding = enc.init_embedding(config.vocab_size, config.d_w, rng)
    encoder = enc.init_encoder(config.d_w, config.d_h, rng)
    msin = None
    plain = None
    align = None
    text_w = text_b = None
    if config.variant == "msin":
        msin = cell_mod.init_msin(config.d_s, config.attention_width,
                                  config.series_dim, config.doc_dim, rng)
    else:
        plain = cell_mod.init_cell_gates(config.d_s, config.series_dim, rng, "cell")
        if config.variant == "lstm_wo":
            align = cell_mod.init_attention(config.attention_width, config.d_s,
                                            config.doc_dim, rng, "align")
        else:
            text_w = T.parameter(enc.uniform(rng, config.doc_dim,
                                             (config.d_s, config.doc_dim)),
                                 "text.weight")
            text_b = T.parameter(np.zeros(config.d_s), "text.bias")
    fan = config.feature_dim
    head_w = T.parameter(enc.uniform(rng, fan, (1, fan)), "head.weight")
    head_b = T.parameter(np.zeros(1), "head.bias")
    return ModelParams(embedding=embedding, encoder=encoder, msin=msin, cell=plain,
                       align=align, text_w=text_w, text_b=text_b,
                       head_w=head_w, head_b=head_b)


def _walk_tensors(obj):
    if isinstance(obj, T.Tensor):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _walk_tensors(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _walk_tensors(item)


def named_tensors(params: ModelParams) -> list[tuple[str, T.Tensor, bool]]:
    """All trainable tensors as (name, tensor, decayed) in a stable order.

    Weight decay covers weight matrices and score/context vectors but not
    biases and not the embedding table.
    """
    out = []
    seen = set()
    for t in _walk_tensors(params):
        if t.name is None or t.name in seen:
            raise T.ContractError("parameter tensors need unique names, got %r"
                                  % t.name)
        seen.add(t.name)
        decayed = not (t.name.endswith(".bias") or t.name == "embedding.table")
        out.append((t.name, t, decayed))
    return out


def bind_tensors(params: ModelParams, replacements: list[T.Tensor]) -> ModelParams:
    """Clone the parameter tree with tensors swapped in enumeration order."""
    order = [t for _, t, _ in named_tensors(params)]
    if len(order) != len(replacements):
        raise T.ContractError("expected %d tensors, got %d"
                              % (len(order), len(replacements)))
    table = {id(old): new for old, new in zip(order, replacements)}

    def rebuild(obj):
        if isinstance(obj, T.Tensor):
            return table[id(obj)]
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            kwargs = {f.name: rebuild(getattr(obj, f.name))
                      for f in dataclasses.fields(obj)}
            return type(obj)(**kwargs)
        if isinstance(obj, list):
            return [rebuild(x) for x in obj]
        return obj

    return rebuild(params)


# Kept only because the benchmark (bench/) names it; no command uses it.
@dataclass
class Prediction:
    """One sample's outputs."""

    value: T.Tensor                      # [1], normalized-space output
    relevance: T.Tensor | None           # mass over the day's documents


@dataclass
class BatchPrediction:
    """Outputs for a list of samples; row b belongs to sample b."""

    value: T.Tensor                 # [B], normalized-space outputs
    relevance: T.Tensor | None      # [B, N] mass over each sample's documents
    counts: tuple[int, ...]         # documents per sample; later slots hold 0

    def mass(self, b: int) -> np.ndarray:
        """Sample b's attention mass over its own documents, as float64."""
        return self.relevance.data[b, :self.counts[b]].astype(np.float64)


def forward_batch(tape, samples, params: ModelParams, config: ModelConfig,
                  train_mode: bool = False, rngs=None) -> BatchPrediction:
    """One graph for a list of samples.

    The documents of every day are encoded as rows of one encoder pass, and
    the series cell runs on [B, d_s] states with attention per sample (see
    ``cell.DocSlots``).  ``msin`` injects an attended document context into
    every gate; ``lstm_wo`` runs a plain LSTM and aligns documents once
    against the final hidden state; ``lstm_par`` fuses the plain LSTM's state
    with a projection of the mean document only at the head.  In train mode
    with dropout, ``rngs`` holds one generator per sample, and row b's mask
    is the one sample b would draw alone.
    """
    samples = list(samples)
    B = len(samples)
    docs = enc.encode_documents(tape, [s.docs for s in samples], params.embedding,
                                params.encoder, pool_divisor=config.pool_divisor)
    slots = cell_mod.doc_slots(tape, docs)
    windows = np.stack([np.asarray(s.values_n, dtype=np.float32) for s in samples])
    relevance = None
    if config.variant == "msin":
        h_m, relevance = cell_mod.run_sequence(tape, windows, slots, params.msin)
    else:
        zeros = T.constant(np.zeros((B, config.d_s)))
        h_m = cell_mod.run_plain_sequence(tape, windows, params.cell,
                                          zeros, zeros)
    if config.variant == "lstm_wo":
        relevance = cell_mod.attend(tape, h_m, slots, params.align)
    if relevance is not None:
        text = T.weighted_sum(tape, slots.grid, relevance)
    else:
        pooled = T.weighted_sum(tape, slots.grid, slots.mean_weights)
        text = T.tanh(tape, T.linear(tape, params.text_w, pooled, params.text_b))
    feature = T.concat(tape, [h_m, text], axis=1)
    if train_mode and config.dropout_rate > 0.0:
        if rngs is None:
            raise T.ContractError("dropout requires generators in train mode")
        feature = T.dropout(tape, feature, config.dropout_rate, rngs)
    head = T.linear(tape, params.head_w, feature, params.head_b)
    return BatchPrediction(value=T.reshape(tape, head, (B,)), relevance=relevance,
                           counts=docs.counts)


# Kept only because the benchmark (bench/) names it; no command calls it.
def forward(tape, sample, params: ModelParams, config: ModelConfig,
            train_mode: bool = False, rng=None) -> Prediction:
    """One sample: ``forward_batch`` on a batch of one."""
    batch = forward_batch(tape, [sample], params, config, train_mode,
                          None if rng is None else [rng])
    relevance = batch.relevance
    if relevance is not None:
        relevance = T.reshape(tape, relevance, relevance.shape[1:])
    return Prediction(value=batch.value, relevance=relevance)


def movement_label(target_raw: float, prev_raw: float) -> str:
    """Ground-truth direction; a flat day counts as up."""
    return "up" if target_raw >= prev_raw else "down"


def predicted_movement(values, samples, config: ModelConfig) -> list[str]:
    """Direction implied by each predicted value (values[b] for samples[b])
    under the configured objective."""
    values = np.asarray(values)
    if config.objective == "movement":
        up = values >= 0.0
    else:
        up = values >= np.array([np.asarray(s.values_n)[-1, 0] for s in samples])
    return ["up" if u else "down" for u in up.tolist()]


def sample_losses(tape, value: T.Tensor, samples, config: ModelConfig) -> T.Tensor:
    """Each sample's prediction error [B]: squared error or movement cross-entropy."""
    if config.objective == "next_value":
        diff = T.add(tape, value, T.constant([-float(s.target_n) for s in samples]))
        return T.hadamard(tape, diff, diff)
    labels = [1.0 if movement_label(s.window.target, s.window.prev) == "up" else 0.0
              for s in samples]
    return T.bce_with_logit(tape, value, labels)


def penalties(tape, params: ModelParams, config: ModelConfig,
              times: int = 1) -> list[T.Tensor]:
    """``times`` the L1 and L2 penalty terms on decayed tensors, if weighted."""
    terms = []
    if config.l1 <= 0.0 and config.l2 <= 0.0:
        return terms
    decayed = [t for _, t, d in named_tensors(params) if d]
    if config.l1 > 0.0:
        terms.append(T.scale(
            tape, T.sum_stack(tape, [T.sum_all(tape, T.absolute(tape, t))
                                     for t in decayed]), times * config.l1))
    if config.l2 > 0.0:
        terms.append(T.scale(
            tape, T.sum_stack(tape, [T.sum_all(tape, T.hadamard(tape, t, t))
                                     for t in decayed]), times * config.l2))
    return terms


def batch_loss(tape, value: T.Tensor, samples, params: ModelParams,
               config: ModelConfig) -> tuple[T.Tensor, T.Tensor]:
    """The batch's summed objective and its per-sample prediction errors [B].

    The objective is every sample's prediction error plus the penalties once
    per sample, so dividing it (or its gradient) by B gives the mean
    objective.  Differentiating the sum seeds each sample's rows with exactly
    the gradient its one-sample objective would, and the leaf gradients add
    the samples up in float64.
    """
    errors = sample_losses(tape, value, samples, config)
    terms = [T.sum_all(tape, errors)] + penalties(tape, params, config,
                                                 times=len(samples))
    return (terms[0] if len(terms) == 1 else T.sum_stack(tape, terms)), errors


# Kept only because the benchmark (bench/) names it; no command calls it.
def loss(tape, pred: Prediction, sample, params: ModelParams,
         config: ModelConfig) -> T.Tensor:
    """One sample's objective: its prediction error plus the penalties."""
    return batch_loss(tape, pred.value, [sample], params, config)[0]
