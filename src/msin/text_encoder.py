"""Document encoder: embeddings, a bidirectional LSTM, attention pooling.

Each document becomes one representative vector s = (1/L) sum_l beta_l h_l,
where h_l are bidirectional hidden states over the tokens and beta is a
softmax of unclamped scores over valid positions (``tensor.attention``
subtracts each row's maximum, so any score is safe).  ``encode_documents``
runs the documents of a list of days (every day of a batch, or one day) as
rows of shared matrix ops with per-row validity masks.  Every reduction in
the engine accumulates in float64 and rounds once, so each row matches
encoding its document alone (the per-document reference lives with the
tests) and permuting documents permutes the outputs bit-identically.  Both
directions run in one ``tensor.lstm_sweep``, one loop over token positions
whose step i takes the forward direction at position i and the backward one
at position L-1-i; it returns the [n, L, 2*d_h] hidden states that the
pooling reads.  The pooling projects every position with one
``tensor.linear`` (the [2*d_h, 2*d_h] weight and its bias) and scores the
projections against the context vector with ``tensor.attention``, the
attention the series cells run.  The word attention of every document
stays one [n, K] matrix, ``DocRepresentation.attention``, zero past each
row's length.  The embedding table is a plain [V, d_w] tensor.  The
stacked-gate weights are defined here (``LSTMParams``), and the series cells
use them as well; ``uniform`` draws the initial weights of every layer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import PAD_ID, DatasetError


class VocabularyError(ValueError):
    """A token id falls outside the embedding table."""


class EmptyDocumentError(ValueError):
    """A document had no valid tokens."""


@dataclass
class LSTMParams:
    """An LSTM with its four gates stacked row-wise (in/forget/out/cand).

    ``ctx_w`` feeds the series cell's attended document context into every
    gate; it is None for the encoder directions and the plain series LSTM.
    """

    input_w: T.Tensor  # [4*d, d_in]
    state_w: T.Tensor  # [4*d, d]
    bias: T.Tensor     # [4*d]
    ctx_w: T.Tensor | None = None  # [4*d, 2*d_h]

    @property
    def hidden_size(self) -> int:
        return self.state_w.shape[1]


@dataclass
class TextEncoderParams:
    fwd: LSTMParams
    bwd: LSTMParams
    pool_w: T.Tensor    # [2*d_h, 2*d_h]
    pool_bias: T.Tensor  # [2*d_h]
    pool_ctx: T.Tensor   # [2*d_h]

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size


@dataclass
class DocRepresentation:
    """Documents encoded as rows, plus their word attention.

    The rows of the days are stacked in day order; ``counts`` holds each
    day's document count. ``attention`` is beta for every row, zero past the
    row's length in ``lengths``.
    """

    vectors: T.Tensor  # [n, 2*d_h]
    counts: tuple[int, ...]
    attention: np.ndarray | None = None  # [n, K]
    lengths: np.ndarray | None = None    # [n]


def uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Weights drawn uniformly from +-1/sqrt(fan_in), for every weight tensor."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_embedding(vocab_size: int, dim: int, rng: np.random.Generator,
                   name: str = "embedding.table") -> T.Tensor:
    """The [V, d_w] word-embedding table, one row per vocabulary id.

    Row 0 is the padding token and stays all-zero; row 1 is the unknown token.
    """
    if vocab_size < 2:
        raise VocabularyError("vocabulary needs at least pad and unk rows")
    data = uniform(rng, dim, (vocab_size, dim))
    data[PAD_ID] = 0.0
    return T.parameter(data, name)


def lstm_params(prefix: str, input_w: np.ndarray, state_w: np.ndarray,
                ctx_w: np.ndarray | None = None) -> LSTMParams:
    """Named stacked-gate parameters around drawn weights; forget bias 1."""
    d = state_w.shape[1]
    bias = np.zeros(4 * d)
    bias[d:2 * d] = 1.0  # open forget gates at the start of training
    return LSTMParams(
        input_w=T.parameter(input_w, prefix + ".input_w"),
        state_w=T.parameter(state_w, prefix + ".state_w"),
        bias=T.parameter(bias, prefix + ".bias"),
        ctx_w=None if ctx_w is None else T.parameter(ctx_w, prefix + ".ctx_w"))


def _init_direction(d_w: int, d_h: int, rng: np.random.Generator,
                    prefix: str) -> LSTMParams:
    return lstm_params(prefix, uniform(rng, d_w, (4 * d_h, d_w)),
                       uniform(rng, d_h, (4 * d_h, d_h)))


def init_encoder(d_w: int, d_h: int, rng: np.random.Generator,
                 prefix: str = "encoder") -> TextEncoderParams:
    two = 2 * d_h
    return TextEncoderParams(
        fwd=_init_direction(d_w, d_h, rng, prefix + ".fwd"),
        bwd=_init_direction(d_w, d_h, rng, prefix + ".bwd"),
        pool_w=T.parameter(uniform(rng, two, (two, two)), prefix + ".pool.weight"),
        pool_bias=T.parameter(np.zeros(two), prefix + ".pool.bias"),
        pool_ctx=T.parameter(uniform(rng, two, two), prefix + ".pool.context"))


_FIELD_SEP = re.compile(r"[ \t]+")


def read_embeddings(path, dim: int, tokens) -> dict[str, tuple[int, np.ndarray]]:
    """The rows of a text embedding file for ``tokens``, read in one pass:
    each token's (line number, float32 vector) from its last row.

    A row is a line that holds a token and ``dim`` decimal floats, split on
    runs of spaces and tabs (the fastText ``.vec`` layout included); other
    lines, such as a ``.vec`` header (``2000000 300``) or a token with
    spaces, are passed over.  A line's numbers are converted only when its
    token is one of ``tokens`` or no row has been seen yet, and a file
    without any row (one of another width, say) raises DatasetError.
    """
    rows, seen = {}, False
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip(" \t\r\n")
                if seen and _FIELD_SEP.split(text, 1)[0] not in tokens:
                    continue
                parts = _FIELD_SEP.split(text)
                if len(parts) != dim + 1:
                    continue
                try:
                    vec = np.array(list(map(float, parts[1:])), dtype=np.float32)
                except ValueError:
                    continue
                seen = True
                if parts[0] in tokens:
                    rows[parts[0]] = lineno, vec
    except UnicodeDecodeError as exc:
        raise DatasetError("%s is not UTF-8 text (%s)" % (path, exc.reason)) \
            from None
    except OSError as e:
        raise DatasetError("cannot read embeddings: %s" % e) from None
    if not seen:
        raise DatasetError("%s: no line holds a token and d_w = %d numbers"
                           % (path, dim))
    return rows


# ---------------------------------------------------------------------------
# batched document encoding (what the models call)


def embed_lookup(tape: T.Tape | None, token_ids: np.ndarray,
                 table: T.Tensor) -> T.Tensor:
    """Rows of the [V, d_w] embedding table for a vector of token ids."""
    ids = np.asarray(token_ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise VocabularyError(
            "token id outside vocabulary of size %d" % table.shape[0])
    return T.take_rows(tape, table, ids)


def encode_documents(tape: T.Tape | None, days, table: T.Tensor,
                     params: TextEncoderParams) -> DocRepresentation:
    """Encode the documents of a sequence of days to s vectors, one row each.

    Each day needs ``token_ids`` int[n, K] (0-padded) and ``lengths`` int[n]
    with n >= 1 and every length >= 1.  The days' rows are stacked in order,
    each padded to the widest K; positions are processed batch-wide with
    validity masks, so each row equals encoding its document alone.  Each
    pooled sum is divided by its own document's length.
    """
    counts = tuple(int(np.shape(d.token_ids)[0]) for d in days)
    if not counts or min(counts) < 1:
        raise EmptyDocumentError("day has no documents")
    widths = [int(np.shape(d.token_ids)[1]) for d in days]
    token_ids = np.zeros((sum(counts), max(widths)), dtype=np.int64)
    lo = 0
    for d, n_d, w in zip(days, counts, widths):
        token_ids[lo:lo + n_d, :w] = d.token_ids
        lo += n_d
    lengths = np.concatenate([np.asarray(d.lengths) for d in days])
    if lengths.min() < 1:
        raise EmptyDocumentError(
            "document %d has no tokens" % int(np.flatnonzero(lengths < 1)[0]))
    n = token_ids.shape[0]
    d_h = params.hidden_size
    k_eff = int(lengths.max())

    # one gather for every document, grouped position-major
    flat_ids = token_ids[:, :k_eff].T.reshape(-1)
    all_rows = embed_lookup(tape, flat_ids, table)
    valid = lengths[:, None] > np.arange(k_eff)[None, :]  # [n, k_eff]
    # [n, k_eff, 2*d_h]: document j's states in row j; padding carries them
    zeros = T.constant(np.zeros((n, 2 * d_h)))
    hid = T.lstm_sweep(tape, all_rows, zeros, zeros, params.fwd, params.bwd, valid)
    flat = T.reshape(tape, hid, (n * k_eff, 2 * d_h))
    keys = T.linear(tape, params.pool_w, flat, params.pool_bias)
    beta = T.attention(tape, keys, None, params.pool_ctx, valid)
    pooled = T.weighted_sum(tape, hid, beta)
    s = T.row_scale(tape, pooled, T.constant(1.0 / lengths.astype(np.float64)))
    return DocRepresentation(vectors=s, counts=counts, attention=beta.data,
                             lengths=lengths)
