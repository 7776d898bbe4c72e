"""Full models: the context-injecting variant and its two ablations.

All three share the document encoder and the dense output head.  ``msin``
injects an attended document context into every gate; ``lstm_wo`` runs a plain
LSTM and aligns documents once against the final hidden state; ``lstm_par``
keeps the modalities independent until the head.  Parameters live in one
named-tensor tree so checkpointing and gradient checking can enumerate them
uniformly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import cell as cell_mod
from . import tensor as T
from . import text_encoder as enc
from .rng import substream

VARIANTS = ("msin", "lstm_wo", "lstm_par")
OBJECTIVES = ("next_value", "movement")


@dataclass
class ModelConfig:
    variant: str = "msin"
    d_s: int = 64            # series-cell state width
    d_h: int = 32            # encoder LSTM width per direction
    d_w: int = 50            # word embedding width
    vocab_size: int = 5000
    m: int = 5               # look-back window length
    series_dim: int = 1
    max_tokens: int = 16     # tokens kept per document
    daily_doc_cap: int = 25
    d_a: int = 0             # attention width; 0 means "use d_s"
    dropout_rate: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    objective: str = "next_value"
    pool_divisor: str = "actual_len"

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
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("l1/l2 must be nonnegative")
        if min(self.d_s, self.d_h, self.d_w, self.series_dim, self.max_tokens) < 1:
            raise ValueError("widths must be positive")

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
    embedding: enc.EmbeddingTable
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
            bound = 1.0 / np.sqrt(config.doc_dim)
            text_w = T.parameter(rng.uniform(-bound, bound,
                                             (config.d_s, config.doc_dim)),
                                 "text.weight")
            text_b = T.parameter(np.zeros(config.d_s), "text.bias")
    fan = config.feature_dim
    head_w = T.parameter(rng.uniform(-1.0 / np.sqrt(fan), 1.0 / np.sqrt(fan),
                                     (1, fan)), "head.weight")
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


@dataclass
class Prediction:
    value: T.Tensor                      # [1], normalized-space output
    relevance: T.Tensor | None           # mass over the day's documents
    trace: cell_mod.AttentionTrace | None = None

    @property
    def value_float(self) -> float:
        return float(self.value.data[0])


def _head(tape, params: ModelParams, config: ModelConfig, feature: T.Tensor,
          train_mode: bool, rng):
    if train_mode and config.dropout_rate > 0.0:
        if rng is None:
            raise T.ContractError("dropout requires a generator in train mode")
        feature = T.dropout(tape, feature, config.dropout_rate, rng)
    return T.linear(tape, [(params.head_w, feature)], params.head_b)


def _encode(tape, sample, params: ModelParams, config: ModelConfig):
    docs = enc.encode_documents(tape, sample.docs, params.embedding, params.encoder,
                                pool_divisor=config.pool_divisor)
    mask = np.ones(docs.n, dtype=bool)
    return docs, mask


def forward_msin(tape, sample, params: ModelParams, config: ModelConfig,
                 train_mode: bool = False, rng=None):
    """Context-injecting forward pass; returns (Prediction, AttentionTrace)."""
    docs, mask = _encode(tape, sample, params, config)
    hiddens, trace = cell_mod.run_sequence(tape, sample.values_n, docs, mask,
                                           params.msin)
    h_m = T.reshape(tape, T.narrow(tape, hiddens, 0, config.m - 1, config.m),
                    (config.d_s,))
    u_txt = T.matmul(tape, trace.final, docs.vectors)
    feature = T.concat(tape, [h_m, u_txt])
    value = _head(tape, params, config, feature, train_mode, rng)
    return Prediction(value=value, relevance=trace.final, trace=trace), trace


def forward_lstm_wo(tape, sample, params: ModelParams, config: ModelConfig,
                    train_mode: bool = False, rng=None) -> Prediction:
    """Plain LSTM over the window; documents aligned once with the last state."""
    docs, mask = _encode(tape, sample, params, config)
    zeros = T.constant(np.zeros(config.d_s))
    hiddens = cell_mod.run_plain_sequence(tape, sample.values_n, params.cell,
                                          zeros, zeros)
    h_m = T.reshape(tape, T.narrow(tape, hiddens, 0, config.m - 1, config.m),
                    (config.d_s,))
    p = cell_mod.attend(tape, h_m, docs, mask, params.align)
    u_txt = T.matmul(tape, p, docs.vectors)
    feature = T.concat(tape, [h_m, u_txt])
    value = _head(tape, params, config, feature, train_mode, rng)
    return Prediction(value=value, relevance=p)


def forward_lstm_par(tape, sample, params: ModelParams, config: ModelConfig,
                     train_mode: bool = False, rng=None) -> Prediction:
    """Independent series and text branches fused only at the head."""
    docs, _ = _encode(tape, sample, params, config)
    zeros = T.constant(np.zeros(config.d_s))
    hiddens = cell_mod.run_plain_sequence(tape, sample.values_n, params.cell,
                                          zeros, zeros)
    h_m = T.reshape(tape, T.narrow(tape, hiddens, 0, config.m - 1, config.m),
                    (config.d_s,))
    pooled = T.mean_axis(tape, docs.vectors, axis=0)
    text = T.tanh(tape, T.linear(tape, [(params.text_w, pooled)], params.text_b))
    feature = T.concat(tape, [h_m, text])
    value = _head(tape, params, config, feature, train_mode, rng)
    return Prediction(value=value, relevance=None)


def forward(tape, sample, params: ModelParams, config: ModelConfig,
            train_mode: bool = False, rng=None) -> Prediction:
    """Variant dispatch used by the trainer and evaluator."""
    if config.variant == "msin":
        pred, _ = forward_msin(tape, sample, params, config, train_mode, rng)
        return pred
    if config.variant == "lstm_wo":
        return forward_lstm_wo(tape, sample, params, config, train_mode, rng)
    return forward_lstm_par(tape, sample, params, config, train_mode, rng)


def movement_label(target_raw: float, prev_raw: float) -> str:
    """Ground-truth direction; a flat day counts as up."""
    return "up" if target_raw >= prev_raw else "down"


def predicted_movement(pred: Prediction, sample, config: ModelConfig) -> str:
    """Direction implied by the prediction under the configured objective."""
    if config.objective == "movement":
        return "up" if pred.value_float >= 0.0 else "down"
    prev_n = float(np.asarray(sample.values_n)[-1, 0])
    return "up" if pred.value_float >= prev_n else "down"


def data_loss(tape, pred: Prediction, sample, config: ModelConfig) -> T.Tensor:
    """Prediction error alone: squared error or movement cross-entropy."""
    if config.objective == "next_value":
        diff = T.add(tape, pred.value, T.constant([-float(sample.target_n)]))
        return T.hadamard(tape, diff, diff)
    label = 1.0 if movement_label(sample.window.target, sample.window.prev) == "up" \
        else 0.0
    return T.bce_with_logit(tape, pred.value, label)


def loss(tape, pred: Prediction, sample, params: ModelParams,
         config: ModelConfig) -> T.Tensor:
    """Per-sample objective plus L1/L2 penalties on decayed tensors."""
    terms = [data_loss(tape, pred, sample, config)]
    if config.l1 > 0.0 or config.l2 > 0.0:
        decayed = [t for _, t, d in named_tensors(params) if d]
        if config.l1 > 0.0:
            terms.append(T.scale(
                tape, T.sum_stack(tape, [T.sum_all(tape, T.absolute(tape, t))
                                         for t in decayed]), config.l1))
        if config.l2 > 0.0:
            terms.append(T.scale(
                tape, T.sum_stack(tape, [T.sum_all(tape, T.hadamard(tape, t, t))
                                         for t in decayed]), config.l2))
    return terms[0] if len(terms) == 1 else T.sum_stack(tape, terms)
