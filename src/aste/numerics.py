"""Dense float64 tensors with reverse-mode gradients.

``backward()`` on a scalar walks the tape of the ops that built it, each
of which records its parents and a backward closure. There is
deliberately no general autodiff. Per-node cost in Python, not
arithmetic, dominates at this model's sizes, so the model runs on few
large nodes: each of its sub-layers (the embedding, each block's
attention and feed-forward sub-layers in ``encoder``, each tagger and
the pair scorer in ``parser``) is one node with a hand-written backward.
In training the three heads and their loss are one node more, which
reads logits, not probabilities. They are built from the numpy forward
and backward pairs here: ``affine_forward``/``affine_backward``,
``relu_forward``, ``softmax_forward``/``softmax_backward``,
``cross_entropy_forward``/``cross_entropy_backward`` and
``layer_norm_forward``/``layer_norm_backward``, plus
``carry_non_finite``. The general ops are basic indexing, which the
model applies between the nodes, and the few the gradient checks
compose: ``cross_entropy`` over probabilities, ``+``, ``*``, ``reshape``
and ``sum``.

All data is float64. By default every public op validates that its result
is finite, so a numerical blow-up surfaces at the op that produced it
instead of corrupting a training run. The training step and the inference
batch run through ``checked_once`` instead: their ops skip the check, the
step or batch checks its few results at its end, and only when one is
non-finite does it run again with every op checked, so the error still
names the op. Inside ``no_grad()`` ops record no tape, so an inference pass
keeps nothing alive but its results.

An unchecked run must not lose a non-finite value on its way to those
results, and a per-op check sees only a node's result, not what a fused
node computes on the way. So ``relu_forward`` and ``softmax_forward`` turn
a non-finite operand value into NaN in their result instead of a zero,
``layer_norm_forward`` turns a row whose variance overflows NaN instead of
a copy of its bias, and a node that leaves values out of its result
(``getitem``; attention's distance products over the table rows no
distance picks) makes its whole result NaN when one of them is non-finite
(``carry_non_finite``). On finite values all of them return what they
always did, bit for bit. The loss node leaves out masked cells and every
class but the target, so ``cross_entropy_forward`` multiplies each
cell's loss by its mask instead of selecting the kept cells, and NaN in a
masked cell reaches the sum; a -inf logit, which a softmax gives weight 0
without a NaN, turns the sum NaN through ``0.0 * min``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor", "ParamGroup", "no_grad", "cross_entropy", "cross_entropy_forward",
    "cross_entropy_backward", "affine_forward", "affine_backward", "relu_forward",
    "softmax_forward", "softmax_backward",
    "layer_norm_forward", "layer_norm_backward", "carry_non_finite", "normal_init",
    "zeros_init", "grad_check", "checked_once",
]

Array = np.ndarray

# Whether new tensors keep their parents and backward closure; see no_grad.
_record_tape = True
# Whether new tensors check their values are finite; see checked_once.
_check_ops = True


@contextmanager
def no_grad():
    """Build tensors without a tape inside the block: results keep no
    parents and no backward closure, so nothing can backpropagate through
    them. Finiteness checks go on as outside the block: per op, or once at
    the end of a ``checked_once`` run. The previous mode comes back on
    exit, also when the block raises."""
    global _record_tape
    previous = _record_tape
    _record_tape = False
    try:
        yield
    finally:
        _record_tape = previous


@contextmanager
def _op_checks(enabled: bool):
    """Switch the per-op finiteness check on or off inside the block."""
    global _check_ops
    previous = _check_ops
    _check_ops = enabled
    try:
        yield
    finally:
        _check_ops = previous


def checked_once(compute, boundary):
    """``compute()``, with finiteness checked on a few of its results
    instead of on every op.

    ``compute`` runs with the per-op check off and numpy's floating-point
    warnings silenced. ``boundary(result)`` gives ``(name, array)`` pairs
    that must be finite, in the order to check them. When one is not,
    ``compute`` runs again with every op checked, under the caller's numpy
    error state, so the error and the warnings are those of a per-op run:
    NumericError names the op that first produced a non-finite value. When
    no op does (a non-finite gradient is no op's result), it names the
    boundary value.
    """
    with _op_checks(False), np.errstate(all="ignore"):
        result = compute()
    try:
        for name, array in boundary(result):
            _check_finite(array, name)
    except NumericError:
        with _op_checks(True):
            compute()
        raise
    return result


def _as_array(value) -> Array:
    out = np.asarray(value, dtype=np.float64)
    return out


def _check_finite(data: Array, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced non-finite values", op=op)


def carry_non_finite(result: Array, operand: Array) -> Array:
    """``result`` of an op that leaves some ``operand`` values out of it:
    unchanged while every operand value is finite, all NaN otherwise.
    ``0.0 * max|operand|`` is +0.0 or NaN, and subtracting +0.0 changes no
    float, -0.0 included."""
    return result - 0.0 * np.abs(operand).max(initial=0.0)


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
    parents, forming the tape, unless they are built under ``no_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None, _op="leaf"):
        self.data = _as_array(data)
        if _check_ops:
            _check_finite(self.data, _op)
        if not _record_tape:
            _parents, _backward = (), None
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
        """Backpropagate from this scalar through its tape. The walk visits
        op nodes only; each part that reaches a leaf is added into its
        ``grad`` as it arrives. A parameter's ``grad`` is a view of its
        group's gradient buffer, so the part lands there in place; another
        leaf takes a copy of its first part, since ``+`` hands one array to
        both operands."""
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
                if parent._parents and parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            grad = grads.pop(id(node), None)
            if grad is None or node._backward is None:
                continue
            for parent, part in node._backward(grad):
                if not parent.requires_grad:
                    continue
                if parent._parents:
                    key = id(parent)
                    grads[key] = grads[key] + part if key in grads else part
                elif parent.grad is None:
                    parent.grad = part.copy()
                else:
                    parent.grad += part

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def back(g):
            return ((self, _unbroadcast(g, self.shape)), (other, _unbroadcast(g, other.shape)))

        return Tensor(data, _parents=(self, other), _backward=back, _op="add")

    __radd__ = __add__

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

    # -- shaping and summing ---------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape

        def back(g):
            return ((self, g.reshape(original)),)

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=back, _op="reshape")

    def __getitem__(self, key) -> "Tensor":
        """Basic slicing only (ints, slices, ``...``, ``None``), so no
        element is picked twice and the backward pass can assign."""
        parts = key if isinstance(key, tuple) else (key,)
        if not all(p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice)) for p in parts):
            raise ShapeError("tensor indexing supports basic slices only")

        def back(g):
            full = np.zeros_like(self.data)
            full[key] = g
            return ((self, full),)

        return Tensor(carry_non_finite(self.data[key], self.data), _parents=(self,),
                      _backward=back, _op="getitem")

    def sum(self) -> "Tensor":
        def back(g):
            return ((self, np.full_like(self.data, float(g))),)

        return Tensor(self.data.sum(), _parents=(self,), _backward=back, _op="sum")


def affine_forward(rows: Array, weight: Array, bias: Array) -> Array:
    """``rows @ weight + bias`` for (N, k) rows: the affine map inside
    the fused nodes."""
    out = rows @ weight
    out += bias
    return out


def affine_backward(g: Array, rows: Array, weight: Array) -> tuple[Array, Array, Array]:
    """The gradients of the rows, weight and bias of ``affine_forward``
    for the (N, n) gradient ``g`` of its result."""
    return g @ weight.T, rows.T @ g, g.sum(axis=0)


def relu_forward(data: Array) -> Array:
    """ReLU of ``data``. Its gradient passes where the result is
    positive. x * 1 + 0 is x and x * 0 + 0 is +0.0 for finite x,
    as in where(x > 0, x, 0); NaN and -inf give NaN instead of 0."""
    return data * (data > 0) + 0.0


def softmax_forward(data: Array, mask: Array | None = None, axis: int = -1) -> Array:
    """Stable softmax of ``data`` over ``axis``, for the nodes that fuse
    it. ``mask`` (optional, boolean, broadcastable to ``data``) marks
    valid entries; masked entries get exactly zero weight. Every slice
    along ``axis`` must keep at least one valid entry."""
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
        if not mask.any(axis=axis).all():
            raise ShapeError("softmax slice is fully masked")
        shifted = np.where(mask, data, -np.inf)
    else:
        shifted = data
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    # data * 0.0 is a zero where data is finite, so exp is unchanged (e**-0
    # is e**0), and NaN where it is not: a non-finite logit, masked or -inf,
    # turns its slice NaN instead of getting zero weight.
    exp = np.exp(shifted + data * 0.0)
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax_backward(probs: Array, g: Array, axis: int = -1) -> Array:
    """The gradient of the logits of ``probs = softmax_forward(logits,
    axis=axis)`` for the gradient ``g`` of ``probs``."""
    return probs * (g - (g * probs).sum(axis=axis, keepdims=True))


def layer_norm_forward(x: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """The trailing axis of ``x`` normalized to zero mean and unit
    variance (1e-5 added to the variance), then scaled by ``gain`` and
    shifted by ``bias``; with the normalized rows and the inverse
    deviations its backward pass reads. The rows are centred once; the sums are those of
    ``x.mean()`` and ``x.var()``, so the result is theirs bit for bit."""
    k = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / k
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / k
    # var * 0.0 is +0.0 for a finite variance, leaving inv bit for bit as
    # it was, and NaN for an overflowed one, which would otherwise make inv
    # 0 and the row a finite copy of ``bias``.
    inv = 1.0 / np.sqrt(var + 1e-5) + var * 0.0
    xhat = centred * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_backward(g: Array, xhat: Array, inv: Array,
                        gain: Array) -> tuple[Array, Array, Array]:
    """The gradients of the input, gain and bias of ``layer_norm_forward``
    for the gradient ``g`` of its result."""
    k = g.shape[-1]
    sum_axes = tuple(range(g.ndim - 1))
    d_xhat = g * gain
    d_x = inv * (
        d_xhat
        - np.add.reduce(d_xhat, axis=-1, keepdims=True) / k
        - xhat * (np.add.reduce(d_xhat * xhat, axis=-1, keepdims=True) / k)
    )
    return d_x, (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes)


def cross_entropy_forward(logits: Array, positions: Array, mask: Array, count: int,
                          axis: int = -1) -> tuple[float, Array]:
    """The loss of the fused nodes, from logits: the mean over the
    ``count`` slices of ``logits`` along ``axis`` that ``mask`` keeps of
    ``logsumexp - x_target``, with the softmax its backward pass reads.
    ``positions`` are the flat positions of each slice's target logit;
    ``mask`` is shaped like ``logits`` with ``axis`` of size 1. Nothing
    underflows: a target of probability 0.0 costs its logit gap, not inf.

    The mask multiplies, so a slice it drops still carries NaN into the
    sum: a NaN or +inf logit makes its slice NaN through the max, and a
    -inf logit, which the softmax would give weight 0, makes the sum NaN
    through ``0.0 * logits.min()``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=axis, keepdims=True)
    nll = np.log(total) - np.take(shifted, positions).reshape(total.shape)
    value = (mask * nll).sum() / max(count, 1) + 0.0 * logits.min(initial=0.0)
    return value, exp / total


def cross_entropy_backward(probs: Array, positions: Array, mask: Array, count: int, g) -> Array:
    """The gradient of the logits of ``cross_entropy_forward`` for the
    gradient ``g`` of its mean: ``(softmax - onehot) * mask * g / count``."""
    d_logits = probs.copy()
    d_logits.reshape(-1)[positions] -= 1.0
    d_logits *= mask * (g / max(count, 1))
    return d_logits


def cross_entropy(probs: Tensor, targets: Array, mask: Array | None = None) -> Tensor:
    """Mean negative log likelihood of ``targets`` under ``probs``.

    ``probs`` is (..., k) of distributions over the trailing axis,
    ``targets`` the (...) class indices, ``mask`` an optional (...) boolean
    keep-array; all three are read as one row per leading index. With
    everything masked the loss is defined as 0.
    """
    targets = np.asarray(targets, dtype=np.int64)
    keep = np.ones(targets.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if probs.data.ndim < 1 or not probs.shape[:-1] == targets.shape == keep.shape:
        raise ShapeError(f"probabilities {probs.shape}, targets {targets.shape} and mask "
                         f"{keep.shape} do not line up")
    k = probs.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError("target class out of range")
    targets, keep = targets.reshape(-1), keep.reshape(-1)
    count = int(keep.sum())
    if count == 0:
        return Tensor(0.0)
    rows = np.arange(targets.size)
    picked = probs.data.reshape(-1, k)[rows, targets]
    picked_kept = np.where(keep, picked, 1.0)
    with np.errstate(divide="ignore"):
        value = -np.log(picked_kept).sum() / count

    def back(g):
        full = np.zeros((targets.size, k))
        scale = -float(g) / count
        full[rows[keep], targets[keep]] = scale / picked[keep]
        return ((probs, full.reshape(probs.shape)),)

    return Tensor(value, _parents=(probs,), _backward=back, _op="cross_entropy")


# -- parameters ----------------------------------------------------------


@dataclass
class ParamGroup:
    """Named parameter collection with a learning-rate multiplier.

    The members' values live in one contiguous float64 ``buffer`` and their
    gradients in ``grad``, laid out alike, in the order the members were
    added: each member's ``data`` and ``grad`` are views of its slices, so
    backward, the gradient clip and the optimizer work on a whole group at
    once. Members are therefore updated in place, never rebound.

    The parser group conventionally runs at 10x the base rate of the
    encoder and adapter groups.
    """

    name: str
    tensors: dict[str, Tensor] = field(default_factory=dict, init=False)
    lr_multiplier: float = 1.0
    buffer: Array = field(default_factory=lambda: np.zeros(0), init=False, repr=False,
                          compare=False)
    grad: Array = field(default_factory=lambda: np.zeros(0), init=False, repr=False,
                        compare=False)
    # Row 0 holds ``buffer``, row 1 ``grad``; grown geometrically by ``add``.
    _storage: Array = field(default_factory=lambda: np.zeros((2, 0)), init=False, repr=False,
                            compare=False)

    GROUP_NAMES = ("encoder", "adapter", "parser")

    def __post_init__(self):
        if self.name not in self.GROUP_NAMES:
            raise ValueError(f"group name must be one of {self.GROUP_NAMES}")
        if self.lr_multiplier <= 0:
            raise ValueError("lr_multiplier must be positive")

    def add(self, key: str, tensor: Tensor) -> Tensor:
        """Adopt ``tensor``: its values are copied to the end of the buffer,
        its gradient starts at zero, and its ``data`` and ``grad`` become
        views of their slices."""
        if key in self.tensors:
            raise ValueError(f"duplicate parameter name {key!r} in group {self.name!r}")
        tensor.requires_grad = True
        start, end = self.buffer.size, self.buffer.size + tensor.size
        self.tensors[key] = tensor
        rebind, offset = [tensor], start
        if end > self._storage.shape[1]:
            # Doubling keeps building a group linear in its size: members
            # move O(log n) times, not on every add.
            storage = np.zeros((2, max(end, 2 * self._storage.shape[1])))
            storage[:, :start] = self._storage[:, :start]
            self._storage = storage
            rebind, offset = self.tensors.values(), 0
        self._storage[0, start:end] = tensor.data.reshape(-1)
        for t in rebind:
            t.data = self._storage[0, offset:offset + t.size].reshape(t.shape)
            t.grad = self._storage[1, offset:offset + t.size].reshape(t.shape)
            offset += t.size
        self.buffer, self.grad = self._storage[:, :end]
        return tensor

    def __getitem__(self, key: str) -> Tensor:
        return self.tensors[key]

    def items(self):
        return self.tensors.items()

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def normal_init(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """N(0, 0.02) weights; the conventional transformer init."""
    return Tensor(rng.normal(0.0, 0.02, size=shape))


def zeros_init(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape))


def grad_check(f, params, eps: float = 1e-5, samples_per_tensor: int = 4, seed: int = 0) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` re-evaluates the forward pass from the live parameter tensors in
    ``params`` (one group or an iterable of groups) and returns a scalar
    Tensor. Returns the max over sampled coordinates of
    ``|analytic - numeric| / max(1, |numeric|)``. A non-finite analytic
    gradient or perturbed objective raises NumericError: no error bound
    can hold for it.
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
            analytic = tensor.grad.copy()
            if not np.isfinite(analytic).all():
                raise NumericError(f"grad_check: analytic gradient of {name} is non-finite")
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
                if not (np.isfinite(hi) and np.isfinite(lo)):
                    raise NumericError(f"grad_check: objective is non-finite with {name} "
                                       f"element {idx} perturbed")
                numeric = (hi - lo) / (2.0 * eps)
                err = abs(analytic.reshape(-1)[idx] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
    return worst
