"""The small tape ops that ``test_fused_nodes.reference_forward`` needs
besides those ``aste.numerics`` keeps, to rebuild the model's fused
nodes as the chain of small nodes they replaced, and that the encoder
and numerics tests apply to attention logits. Each is built on the
numpy core the fused nodes use, or on ``_unbroadcast`` as ``+`` and
``*`` are, so the chain's losses match the fused path's bit for bit."""

import numpy as np

from aste.numerics import (Tensor, _unbroadcast, layer_norm_backward, layer_norm_forward,
                           relu_forward, softmax_backward, softmax_forward)


def take_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: ``out[..., :] = table[ids[...]]`` for ids of any
    shape; repeated ids accumulate their rows' gradients."""
    ids = np.asarray(ids, dtype=np.int64)

    def back(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return ((table, full),)

    return Tensor(table.data[ids], _parents=(table,), _backward=back, _op="take_rows")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the trailing axis to zero mean and unit variance (1e-5
    added to the variance), then scale by ``gain`` and shift by ``bias``."""
    out, xhat, inv = layer_norm_forward(x.data, gain.data, bias.data)

    def back(g):
        d_x, d_gain, d_bias = layer_norm_backward(g, xhat, inv, gain.data)
        return ((x, d_x), (gain, d_gain), (bias, d_bias))

    return Tensor(out, _parents=(x, gain, bias), _backward=back, _op="layer_norm")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def back(g):
        return ((x, g * mask),)

    return Tensor(relu_forward(x.data), _parents=(x,), _backward=back, _op="relu")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``(..., m, k) @ (..., k, n)`` with the leading axes broadcast; a 2-D
    right operand is a weight shared by every leading index."""

    def back(g):
        return ((a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)),
                (b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)))

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=back, _op="matmul")


def swapaxes(x: Tensor, first: int, second: int) -> Tensor:
    def back(g):
        return ((x, np.swapaxes(g, first, second)),)

    return Tensor(np.swapaxes(x.data, first, second), _parents=(x,), _backward=back,
                  _op="swapaxes")


def softmax(x: Tensor, mask=None) -> Tensor:
    """Stable softmax over the trailing axis; ``mask`` (optional, boolean,
    broadcastable to ``x``) marks valid entries, and every trailing-axis
    slice must keep at least one."""
    probs = softmax_forward(x.data, mask)

    def back(g):
        return ((x, softmax_backward(probs, g)),)

    return Tensor(probs, _parents=(x,), _backward=back, _op="softmax")
