"""Per-document encoder: the reference the batched day encoder is tested against.

``bilstm_forward`` and ``attention_pool`` run one document at a time, as a
batch of one row, through the per-step ``chain_oracle.lstm_step``, the
package's engine ops, ``chain_oracle.masked_softmax`` and
``chain_oracle.matmul`` for the weighted sum.
``text_encoder.encode_documents`` must reproduce them row by row.
"""

import numpy as np

from msin import tensor as T
from msin import text_encoder as TE

from chain_oracle import lstm_step, masked_softmax, matmul, scale


def bilstm_forward(tape, embeds, length, params):
    """Bidirectional hidden states for one document; rows >= length are zero."""
    if length < 1:
        raise TE.EmptyDocumentError("document has no tokens")
    K = embeds.shape[0]
    if length > K:
        raise T.ShapeError("length %d exceeds %d embedded rows" % (length, K))
    d_h = params.hidden_size
    xs = [T.narrow(tape, embeds, 0, l, l + 1) for l in range(length)]  # [1, d_w]

    def sweep(direction, order):
        h = T.constant(np.zeros((1, d_h)))
        c = T.constant(np.zeros((1, d_h)))
        out = {}
        for l in order:
            h, c = lstm_step(tape, direction, xs[l], h, c)
            out[l] = h
        return out

    fwd = sweep(params.fwd, range(length))
    bwd = sweep(params.bwd, range(length - 1, -1, -1))
    zero_row = T.constant(np.zeros((1, 2 * d_h)))
    rows = [T.concat(tape, [fwd[l], bwd[l]], axis=1) for l in range(length)]
    rows.extend(zero_row for _ in range(K - length))
    return T.concat(tape, rows, axis=0)


def attention_pool(tape, hiddens, length, params):
    """Pool one document's hidden states into (s, beta), dividing the
    weighted sum by the valid token count."""
    if length < 1:
        raise TE.EmptyDocumentError("cannot pool zero tokens")
    valid = T.narrow(tape, hiddens, 0, 0, length)
    proj = T.tanh(tape, T.linear(tape, params.pool_w, valid, params.pool_bias))
    logits = T.linear(tape, params.pool_ctx, proj)
    beta = masked_softmax(tape, T.reshape(tape, logits, (1, length)),
                          np.ones((1, length), dtype=bool))
    beta = T.reshape(tape, beta, (length,))
    s = scale(tape, matmul(tape, beta, valid), 1.0 / length)
    return s, beta
