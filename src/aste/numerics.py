"""Dense float64 tensors with reverse-mode gradients.

Everything the model needs is built from the small op set below: affine
maps, stable softmax, cross entropy, embedding lookups, layer norm, and a
handful of reshaping ops. Each op records a backward closure; ``backward()``
on a scalar walks the tape. There is deliberately no general autodiff
beyond these ops.

All data is float64. Every public op validates that its result is finite,
so a numerical blow-up surfaces at the op that produced it instead of
corrupting a training run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor", "ParamGroup", "linear", "softmax", "cross_entropy", "layer_norm",
    "concat_cols", "concat_rows", "stack_last", "take_rows", "gather_cols",
    "normal_init", "zeros_init", "grad_check",
]

Array = np.ndarray


def _as_array(value) -> Array:
    out = np.asarray(value, dtype=np.float64)
    return out


def _check_finite(data: Array, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced non-finite values")


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Immutable-by-convention float64 array that can carry a gradient.

    ``data`` is row-major; gradients accumulate into ``grad`` during
    ``backward()``. Tensors produced by ops keep references to their
    parents, forming the tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None, _op="leaf"):
        self.data = _as_array(data)
        _check_finite(self.data, _op)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = tuple(_parents)
        self._backward = _backward
        self._op = _op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op})"

    # -- graph traversal ------------------------------------------------

    def backward(self) -> None:
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node._backward is not None:
                for parent, part in node._backward(grad):
                    if not parent.requires_grad:
                        continue
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + part
                    else:
                        grads[id(parent)] = part
            if node._parents == () and node.requires_grad:
                node.grad = grad if node.grad is None else node.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def back(g):
            return ((self, _unbroadcast(g, self.shape)), (other, _unbroadcast(g, other.shape)))

        return Tensor(data, _parents=(self, other), _backward=back, _op="add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def back(g):
            return ((self, -g),)

        return Tensor(-self.data, _parents=(self,), _backward=back, _op="neg")

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def back(g):
            return (
                (self, _unbroadcast(g * other.data, self.shape)),
                (other, _unbroadcast(g * self.data, other.shape)),
            )

        return Tensor(data, _parents=(self, other), _backward=back, _op="mul")

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Tensor":
        return self * (1.0 / float(scalar))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul inner dims differ: {self.shape} @ {other.shape}")
        data = self.data @ other.data

        def back(g):
            return ((self, g @ other.data.T), (other, self.data.T @ g))

        return Tensor(data, _parents=(self, other), _backward=back, _op="matmul")

    @property
    def T(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ShapeError("T expects a 2-D tensor")

        def back(g):
            return ((self, g.T),)

        return Tensor(self.data.T, _parents=(self,), _backward=back, _op="transpose")

    # -- shaping --------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape

        def back(g):
            return ((self, g.reshape(original)),)

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=back, _op="reshape")

    def rows(self, start: int, stop: int) -> "Tensor":
        def back(g):
            full = np.zeros_like(self.data)
            full[start:stop] = g
            return ((self, full),)

        return Tensor(self.data[start:stop], _parents=(self,), _backward=back, _op="rows")

    def cols(self, start: int, stop: int) -> "Tensor":
        def back(g):
            full = np.zeros_like(self.data)
            full[:, start:stop] = g
            return ((self, full),)

        return Tensor(self.data[:, start:stop], _parents=(self,), _backward=back, _op="cols")

    # -- nonlinearities ---------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def back(g):
            return ((self, g * mask),)

        return Tensor(np.where(mask, self.data, 0.0), _parents=(self,), _backward=back, _op="relu")

    def sum(self) -> "Tensor":
        def back(g):
            return ((self, np.full_like(self.data, float(g))),)

        return Tensor(self.data.sum(), _parents=(self,), _backward=back, _op="sum")


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Stack 2-D tensors side by side along the column axis."""
    widths = [p.shape[1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def back(g):
        return tuple((p, g[:, offsets[i]:offsets[i + 1]]) for i, p in enumerate(parts))

    data = np.concatenate([p.data for p in parts], axis=1)
    return Tensor(data, _parents=tuple(parts), _backward=back, _op="concat_cols")


def concat_rows(parts: list[Tensor]) -> Tensor:
    heights = [p.shape[0] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(heights)])

    def back(g):
        return tuple((p, g[offsets[i]:offsets[i + 1]]) for i, p in enumerate(parts))

    data = np.concatenate([p.data for p in parts], axis=0)
    return Tensor(data, _parents=tuple(parts), _backward=back, _op="concat_rows")


def stack_last(parts: list[Tensor]) -> Tensor:
    """Stack equally shaped tensors along a new trailing axis."""

    def back(g):
        return tuple((p, g[..., i]) for i, p in enumerate(parts))

    data = np.stack([p.data for p in parts], axis=-1)
    return Tensor(data, _parents=tuple(parts), _backward=back, _op="stack_last")


def take_rows(table: Tensor, ids: Array) -> Tensor:
    """Embedding lookup: ``out[i] = table[ids[i]]``."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("take_rows expects a flat id array")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("row id out of range")

    def back(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return ((table, full),)

    return Tensor(table.data[ids], _parents=(table,), _backward=back, _op="take_rows")


def gather_cols(scores: Tensor, index: Array) -> Tensor:
    """Per-row column gather: ``out[i, j] = scores[i, index[i, j]]``.

    ``index`` has one row per row of ``scores``; columns may repeat, and
    the backward pass scatter-adds accordingly.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.shape[0] != scores.shape[0]:
        raise ShapeError("gather_cols row counts differ")
    if index.size and (index.min() < 0 or index.max() >= scores.shape[1]):
        raise IndexError("gather index out of range")
    row_ids = np.arange(scores.shape[0])[:, None]

    def back(g):
        full = np.zeros_like(scores.data)
        np.add.at(full, (np.broadcast_to(row_ids, index.shape), index), g)
        return ((scores, full),)

    return Tensor(scores.data[row_ids, index], _parents=(scores,), _backward=back, _op="gather_cols")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight (+ bias)`` with shape validation."""
    out = x @ weight
    if bias is not None:
        if bias.shape != (weight.shape[1],):
            raise ShapeError(f"bias shape {bias.shape} does not match output width {weight.shape[1]}")
        out = out + bias
    return out


def softmax(x: Tensor, mask: Array | None = None) -> Tensor:
    """Stable softmax over the trailing axis.

    ``mask`` (optional, boolean, broadcastable to ``x``) marks valid
    entries; masked entries get exactly zero weight. Every trailing-axis
    slice must keep at least one valid entry.
    """
    data = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax slice is fully masked")
        shifted = np.where(mask, data, -np.inf)
    else:
        shifted = data
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)

    def back(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return ((x, probs * (g - inner)),)

    return Tensor(probs, _parents=(x,), _backward=back, _op="softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the trailing axis to zero mean, unit variance, then scale."""
    k = x.shape[-1]
    if gain.shape != (k,) or bias.shape != (k,):
        raise ShapeError("layer_norm gain/bias must match the trailing axis")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv

    def back(g):
        sum_axes = tuple(range(g.ndim - 1))
        d_gain = (g * xhat).sum(axis=sum_axes)
        d_bias = g.sum(axis=sum_axes)
        d_xhat = g * gain.data
        d_x = inv * (
            d_xhat
            - d_xhat.mean(axis=-1, keepdims=True)
            - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
        )
        return ((x, d_x), (gain, d_gain), (bias, d_bias))

    return Tensor(xhat * gain.data + bias.data, _parents=(x, gain, bias), _backward=back, _op="layer_norm")


def cross_entropy(probs: Tensor, targets: Array, mask: Array | None = None) -> Tensor:
    """Mean negative log likelihood of ``targets`` under ``probs``.

    ``probs`` is (N, k) of row distributions, ``targets`` length-N class
    indices, ``mask`` an optional boolean keep-vector. With everything
    masked the loss is defined as 0.
    """
    if probs.data.ndim != 2:
        raise ShapeError("cross_entropy expects (N, k) probabilities")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (probs.shape[0],):
        raise ShapeError("targets length does not match probability rows")
    k = probs.shape[1]
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError("target class out of range")
    keep = np.ones(probs.shape[0], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    count = int(keep.sum())
    if count == 0:
        return Tensor(0.0)
    rows = np.arange(probs.shape[0])
    picked = probs.data[rows, targets]
    picked_kept = np.where(keep, picked, 1.0)
    with np.errstate(divide="ignore"):
        value = -np.log(picked_kept).sum() / count

    def back(g):
        full = np.zeros_like(probs.data)
        scale = -float(g) / count
        full[rows[keep], targets[keep]] = scale / picked[keep]
        return ((probs, full),)

    return Tensor(value, _parents=(probs,), _backward=back, _op="cross_entropy")


# -- parameters ----------------------------------------------------------


@dataclass
class ParamGroup:
    """Named parameter collection with a learning-rate multiplier.

    The parser group conventionally runs at 10x the base rate of the
    encoder and adapter groups.
    """

    name: str
    tensors: dict[str, Tensor] = field(default_factory=dict)
    lr_multiplier: float = 1.0

    GROUP_NAMES = ("encoder", "adapter", "parser")

    def __post_init__(self):
        if self.name not in self.GROUP_NAMES:
            raise ValueError(f"group name must be one of {self.GROUP_NAMES}")
        if self.lr_multiplier <= 0:
            raise ValueError("lr_multiplier must be positive")

    def add(self, key: str, tensor: Tensor) -> Tensor:
        if key in self.tensors:
            raise ValueError(f"duplicate parameter name {key!r} in group {self.name!r}")
        tensor.requires_grad = True
        self.tensors[key] = tensor
        return tensor

    def __getitem__(self, key: str) -> Tensor:
        return self.tensors[key]

    def __contains__(self, key: str) -> bool:
        return key in self.tensors

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def num_params(self) -> int:
        return sum(t.size for t in self.tensors.values())


def normal_init(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> Tensor:
    """Zero-mean normal weights; the conventional transformer init."""
    return Tensor(rng.normal(0.0, std, size=shape))


def zeros_init(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape))


def grad_check(f, params, eps: float = 1e-5, samples_per_tensor: int = 4, seed: int = 0) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` re-evaluates the forward pass from the live parameter tensors in
    ``params`` (one group or an iterable of groups) and returns a scalar
    Tensor. Returns the max over sampled coordinates of
    ``|analytic - numeric| / max(1, |numeric|)``.
    """
    groups = [params] if isinstance(params, ParamGroup) else list(params)
    rng = np.random.default_rng(seed)
    for group in groups:
        group.zero_grad()
    loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check objective is non-finite")
    loss.backward()
    worst = 0.0
    for group in groups:
        for name, tensor in group.items():
            analytic = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad
            flat = tensor.data.reshape(-1)
            n = flat.size
            picks = range(n) if n <= samples_per_tensor else rng.choice(n, size=samples_per_tensor, replace=False)
            for idx in picks:
                original = flat[idx]
                flat[idx] = original + eps
                hi = f().item()
                flat[idx] = original - eps
                lo = f().item()
                flat[idx] = original
                numeric = (hi - lo) / (2.0 * eps)
                err = abs(analytic.reshape(-1)[idx] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
    return worst
