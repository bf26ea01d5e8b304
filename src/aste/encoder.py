"""Mini transformer encoder with an optional distance-biased attention.

The encoder is a stand-in for a pretrained language model: randomly
initialized, but shaped the same way (token + learned position
embeddings, then post-norm blocks of multi-head attention and a
feed-forward net). When structure is enabled, each attention head adds a
distance term to its logits:

    e_ij = (q_i . k_j) / sqrt(d) + (q_i . r_ij) / sqrt(d)

where ``r_ij`` is a learned embedding of the clipped signed distance
between positions i and j. The distance table is shared by all heads of a
layer and independent across layers, and is zero-initialized so an
untrained model behaves exactly like the unbiased one.

Each sub-layer is one tape node with a hand-written backward pass: the
embedding (both lookups, their sum and the embedding norm), and in each
block the attention sub-layer (from its input states through the output
projection, the residual add and ``ln1``) and the feed-forward sub-layer
(through the residual add and ``ln2``), so an encode builds 1 + 2 *
layers tensors. ``attention_scores`` and ``structured_attention_map``
read the logits from the attention node's numpy forward
(``Encoder._scores``), so there is one attention code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import END_ID, PAD_ID, START_ID
from .errors import ShapeError, ValidationError
from .numerics import (
    ParamGroup,
    Tensor,
    affine_backward,
    affine_forward,
    carry_non_finite,
    layer_norm_backward,
    layer_norm_forward,
    normal_init,
    relu_forward,
    softmax_backward,
    softmax_forward,
    zeros_init,
)
from .structure import NONE, StructureConfig, distances_to_indices


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    dim: int = 32
    heads: int = 2
    layers: int = 2
    ffn_dim: int = 64
    max_len: int = 160
    adapter: StructureConfig = field(default_factory=StructureConfig)

    def __post_init__(self):
        if self.dim < 1 or self.heads < 1 or self.ffn_dim < 1:
            raise ValidationError("dim, heads and ffn_dim must be positive")
        if self.dim % self.heads != 0:
            raise ValidationError("dim must be divisible by heads")
        if self.layers < 1:
            raise ValidationError("need at least one layer")
        if self.max_len < 3:
            raise ValidationError("max_len must fit the two markers plus a token")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class EncodedSequence:
    """Hidden states, (m, dim) for one augmented sentence or (B, m, dim)
    for a padded batch.

    Row 0 is the start marker; the content view drops it and the last
    row, which is the end marker or padding. Padding slots stay in the
    content view and are handled by masks downstream.
    """

    hidden: Tensor

    @property
    def content(self) -> Tensor:
        return self.hidden[..., 1:-1, :]


@dataclass(frozen=True)
class EncoderInputs:
    """Marker-augmented (m,) or (B, m) token ids, the key mask of the
    padded rows as it broadcasts against (B, H, m, m) logits (None when
    nothing is padded), and the bias-table row of each distance, one byte
    a cell up to tau = 127 (``_table_rows``; None without distances).
    ``Encoder.run`` builds the int64 gather index from the rows."""

    ids: np.ndarray
    key_mask: np.ndarray | None
    rows: np.ndarray | None


class Encoder:
    """Owns the encoder and adapter parameter groups and runs the stack."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        self.params = ParamGroup("encoder")
        self.adapter = ParamGroup("adapter") if config.adapter.kind != NONE else None
        c = config
        self.params.add("tok_emb", normal_init((c.vocab_size, c.dim), rng))
        self.params.add("pos_emb", normal_init((c.max_len, c.dim), rng))
        # Embedding-layer normalization, as in the pretrained encoders
        # this one stands in for; without it the first block sees
        # 0.02-scale rows and its attention is effectively inert.
        self.params.add("emb_ln_g", Tensor(np.ones(c.dim)))
        self.params.add("emb_ln_b", zeros_init((c.dim,)))
        for l in range(c.layers):
            for name in ("wq", "wk", "wv", "wo"):
                self.params.add(f"l{l}.{name}", normal_init((c.dim, c.dim), rng))
                self.params.add(f"l{l}.b{name[1]}", zeros_init((c.dim,)))
            self.params.add(f"l{l}.ln1_g", Tensor(np.ones(c.dim)))
            self.params.add(f"l{l}.ln1_b", zeros_init((c.dim,)))
            self.params.add(f"l{l}.ffn_w1", normal_init((c.dim, c.ffn_dim), rng))
            self.params.add(f"l{l}.ffn_b1", zeros_init((c.ffn_dim,)))
            self.params.add(f"l{l}.ffn_w2", normal_init((c.ffn_dim, c.dim), rng))
            self.params.add(f"l{l}.ffn_b2", zeros_init((c.dim,)))
            self.params.add(f"l{l}.ln2_g", Tensor(np.ones(c.dim)))
            self.params.add(f"l{l}.ln2_b", zeros_init((c.dim,)))
            if self.adapter is not None:
                # Zero start: training begins exactly equivalent to the
                # unbiased encoder.
                self.adapter.add(f"l{l}.rel", zeros_init((c.adapter.table_rows, c.head_dim)))

    # -- embedding -------------------------------------------------------

    def _layout(self, token_ids):
        """Marker-augmented id rows and their key mask.

        ``token_ids`` is one id sequence, giving (m,) ids, or a list of
        them, giving (B, m) ids right-padded after the end marker to the
        longest sequence. The key mask marks the rows a sentence really
        has; it is None when nothing is padded.
        """
        single = len(token_ids) == 0 or np.ndim(token_ids[0]) == 0
        seqs = [np.asarray(s, dtype=np.int64) for s in ([token_ids] if single else token_ids)]
        if any(ids.ndim != 1 for ids in seqs):
            raise ShapeError("token ids must be a flat sequence")
        every = np.concatenate(seqs)
        if every.size and (every.min() < 0 or every.max() >= self.config.vocab_size):
            raise ValidationError("unknown token id outside the vocabulary")
        lengths = np.array([ids.size for ids in seqs])
        m = int(lengths.max()) + 2
        if m > self.config.max_len:
            raise ValidationError(f"sequence of {m} rows exceeds max_len={self.config.max_len}")
        full = np.full((len(seqs), m), PAD_ID, dtype=np.int64)
        full[:, 0] = START_ID
        for row, ids in zip(full, seqs):
            row[1:ids.size + 1] = ids
            row[ids.size + 1] = END_ID
        if single:
            return full[0], None
        return full, None if (lengths == m - 2).all() else np.arange(m) < lengths[:, None] + 2

    def _embedding_rows(self, ids: np.ndarray) -> np.ndarray:
        return self.params["tok_emb"].data[ids] + self.params["pos_emb"].data[:ids.shape[-1]]

    def _embedding(self, ids: np.ndarray) -> Tensor:
        """The normalized embedding rows of ``ids`` as one node: the token
        and position lookups, their sum and the embedding norm."""
        p = self.params
        tok, pos, gain, bias = p["tok_emb"], p["pos_emb"], p["emb_ln_g"], p["emb_ln_b"]
        out, xhat, inv = layer_norm_forward(self._embedding_rows(ids), gain.data, bias.data)

        def back(g):
            d_rows, d_gain, d_bias = layer_norm_backward(g, xhat, inv, gain.data)
            # One bincount over flat (id, column) positions: it adds each
            # bin's rows in order of occurrence, as np.add.at does, in a
            # single pass.
            width = d_rows.shape[-1]
            d_tok = np.bincount((ids[..., None] * width + np.arange(width)).ravel(),
                                weights=d_rows.ravel(), minlength=tok.size).reshape(tok.shape)
            d_pos = np.zeros_like(pos.data)
            m = ids.shape[-1]
            d_pos[:m] += d_rows.reshape(-1, m, width).sum(axis=0)
            return ((tok, d_tok), (pos, d_pos), (gain, d_gain), (bias, d_bias))

        return Tensor(out, _parents=(tok, pos, gain, bias), _backward=back, _op="embedding")

    # -- attention -------------------------------------------------------

    def _table_rows(self, distances, rows: tuple[int, ...]) -> np.ndarray:
        """The bias-table rows of the distances of (..., m) token rows,
        validated (``distances_to_indices``)."""
        if self.adapter is None:
            raise ValidationError("distance matrix supplied but structure is disabled")
        distances = np.asarray(distances)
        if distances.shape != rows + rows[-1:]:
            raise ShapeError(f"distance matrix {distances.shape} does not match length {rows[-1]}")
        return distances_to_indices(distances, self.config.adapter.tau)

    def _gather_index(self, table_rows: np.ndarray) -> np.ndarray:
        """Where the distance term reads the (..., H, m, R) products
        ``q @ rel.T``: flat int64 positions, in logit order, of column
        ``table_rows[..., i, j]`` in row (..., h, i). Built once per pass,
        it serves every layer and the backward."""
        c = self.config
        *lead, m = table_rows.shape[:-1]
        width = c.adapter.table_rows
        starts = np.arange(0, math.prod(lead) * c.heads * m * width, width)
        return (starts.reshape(*lead, c.heads, m, 1) + table_rows[..., None, :, :]).ravel()

    def _distance_index(self, distances, rows: tuple[int, ...]) -> np.ndarray:
        """The ``_gather_index`` of the distances of (..., m) token rows."""
        return self._gather_index(self._table_rows(distances, rows))

    def _split(self, x2d: np.ndarray, rows: tuple[int, ...], layer: int, name: str) -> np.ndarray:
        """The ``name`` projection (``q``, ``k`` or ``v``) of the (N, dim)
        states of (..., m) token rows, split into (..., H, m, d) heads."""
        c, p = self.config, self.params
        proj = x2d @ p[f"l{layer}.w{name}"].data
        proj += p[f"l{layer}.b{name}"].data
        return proj.reshape(*rows, c.heads, c.head_dim).swapaxes(-3, -2)

    def _scores(self, x: np.ndarray, layer: int, index: np.ndarray | None,
                content: bool = True):
        """The numpy forward of a layer's pre-softmax logits, shared by the
        blocks, ``attention_scores`` and ``structured_attention_map``.

        Returns the flattened states, q and k split into heads (k None
        without ``content``), and all heads' (..., H, m, m) logits: the
        content term ``(q_i . k_j) / sqrt(d)`` when ``content`` is set,
        plus the distance term ``(q_i . r_ij) / sqrt(d)`` when ``index``
        (a ``_distance_index``) is given. The distance term is one product
        with the layer's table and one gather (Shaw et al. 2018, section
        3.3)."""
        c = self.config
        if x.ndim < 2 or x.shape[-1] != c.dim:
            raise ShapeError(f"attention expects (..., m, {c.dim}) states, got {x.shape}")
        rows, x2d = x.shape[:-1], x.reshape(-1, c.dim)
        scale = 1.0 / math.sqrt(c.head_dim)
        q = self._split(x2d, rows, layer, "q")
        k = self._split(x2d, rows, layer, "k") if content else None
        logits = None if k is None else (q @ np.swapaxes(k, -1, -2)) * scale
        if index is not None:
            products = q @ self.adapter[f"l{layer}.rel"].data.T
            # The gather leaves out the table rows no distance picks; a
            # non-finite value there turns the logits NaN.
            picked = carry_non_finite(np.take(products, index), products)
            bias = picked.reshape(q.shape[:-1] + rows[-1:]) * scale
            logits = bias if logits is None else logits + bias
        return x2d, q, k, logits

    def _attention(self, x: Tensor, layer: int, index: np.ndarray | None,
                   key_mask: np.ndarray | None) -> Tensor:
        """A block's attention sub-layer as one node: (..., m, dim) states
        to ``ln1(x + wo(attention(x)))``. Q/K/V, the head split, the logits
        of ``_scores``, the key mask, softmax, the weighted sum of values,
        the merge and the output projection run in numpy, and the backward
        pass is written out by hand."""
        c, p = self.config, self.params
        rows = x.shape[:-1]
        x2d, q, k, logits = self._scores(x.data, layer, index)
        v = self._split(x2d, rows, layer, "v")
        probs = softmax_forward(logits, key_mask)
        merged = np.swapaxes(probs @ v, -3, -2).reshape(-1, c.dim)
        wo, bo = p[f"l{layer}.wo"], p[f"l{layer}.bo"]
        scale = 1.0 / math.sqrt(c.head_dim)
        projections = [(p[f"l{layer}.w{name}"], p[f"l{layer}.b{name}"]) for name in "qkv"]
        rel = None if index is None else self.adapter[f"l{layer}.rel"]

        def inner_back(g):
            d_merged, d_wo, d_bo = affine_backward(g.reshape(-1, c.dim), merged, wo.data)
            g = np.swapaxes(d_merged.reshape(*rows, c.heads, c.head_dim), -3, -2)
            d_v = np.swapaxes(probs, -1, -2) @ g
            d_logits = softmax_backward(probs, g @ np.swapaxes(v, -1, -2)) * scale
            d_q = d_logits @ k
            d_k = np.swapaxes(d_logits, -1, -2) @ q
            parts = [(wo, d_wo), (bo, d_bo)]
            if rel is not None:
                table_rows = rel.shape[0]
                d_products = np.bincount(index, weights=d_logits.ravel(),
                                         minlength=q.size // c.head_dim * table_rows)
                d_products = d_products.reshape(*q.shape[:-1], table_rows)
                d_q = d_q + d_products @ rel.data
                parts.append((rel, d_products.reshape(-1, table_rows).T
                              @ q.reshape(-1, c.head_dim)))
            d_x = None
            for (weight, bias), d in zip(projections, (d_q, d_k, d_v)):
                d = np.swapaxes(d, -3, -2).reshape(-1, c.dim)
                d_x = d @ weight.data.T if d_x is None else d_x + d @ weight.data.T
                parts += [(weight, x2d.T @ d), (bias, d.sum(axis=0))]
            return d_x.reshape(x.shape), parts

        params = [t for pair in projections for t in pair] + [wo, bo]
        if rel is not None:
            params.append(rel)
        return self._add_and_norm(x, affine_forward(merged, wo.data, bo.data), inner_back, params,
                                  f"l{layer}.ln1", "attention")

    def structured_attention_map(self, x: Tensor, layer: int, head: int,
                                 distances: np.ndarray) -> Tensor:
        """The distance-bias term of a head's logits, on its own, as a
        tensor without a tape."""
        index = self._distance_index(distances, x.shape[:-1])
        logits = self._scores(x.data, layer, index, content=False)[-1]
        return Tensor(logits[..., head, :, :], _op="structured_attention_map")

    def attention_scores(self, x: Tensor, layer: int, head: int,
                         distances: np.ndarray | None = None) -> Tensor:
        """Pre-softmax logits for one head, exactly as the encoder's blocks
        compute them, as a tensor without a tape; the bias term is added
        only when a distance matrix is supplied."""
        index = None if distances is None else self._distance_index(distances, x.shape[:-1])
        return Tensor(self._scores(x.data, layer, index)[-1][..., head, :, :],
                      _op="attention_scores")

    # -- blocks ----------------------------------------------------------

    def _feed_forward(self, x: Tensor, layer: int) -> Tensor:
        """A block's feed-forward sub-layer as one node: (..., m, dim)
        states to ``ln2(x + ffn_w2(relu(ffn_w1(x))))``."""
        p = self.params
        w1, b1, w2, b2 = (p[f"l{layer}.ffn_{name}"] for name in ("w1", "b1", "w2", "b2"))
        rows = x.data.reshape(-1, self.config.dim)
        hidden = relu_forward(affine_forward(rows, w1.data, b1.data))

        def inner_back(g):
            d_hidden, d_w2, d_b2 = affine_backward(g.reshape(-1, self.config.dim), hidden, w2.data)
            d_rows, d_w1, d_b1 = affine_backward(d_hidden * (hidden > 0), rows, w1.data)
            return d_rows.reshape(x.shape), [(w1, d_w1), (b1, d_b1), (w2, d_w2), (b2, d_b2)]

        return self._add_and_norm(x, affine_forward(hidden, w2.data, b2.data), inner_back,
                                  [w1, b1, w2, b2], f"l{layer}.ln2", "feed_forward")

    def _add_and_norm(self, x: Tensor, out: np.ndarray, inner_back, params: list[Tensor],
                      norm: str, op: str) -> Tensor:
        """The node of a sub-layer ``norm(x + out)``: ``out`` is the (N, dim)
        output of the sub-layer's inner function of ``x``, ``inner_back``
        maps its gradient to the gradient of ``x`` and those of ``params``,
        the inner function's parameters."""
        gain, bias = self.params[f"{norm}_g"], self.params[f"{norm}_b"]
        y, xhat, inv = layer_norm_forward(x.data + out.reshape(x.shape), gain.data, bias.data)

        def back(g):
            d_sum, d_gain, d_bias = layer_norm_backward(g, xhat, inv, gain.data)
            d_x, parts = inner_back(d_sum)
            return parts + [(gain, d_gain), (bias, d_bias), (x, d_sum + d_x)]

        return Tensor(y, _parents=(x, *params, gain, bias), _backward=back, _op=op)

    def encode(self, token_ids, distances: np.ndarray | None = None) -> EncodedSequence:
        """Run the full stack over one id sequence or a padded batch of them.

        ``distances`` is the (m, m) matrix of one sequence or the
        (B, m, m) stack of a batch, padded like the ids. Padded key slots,
        worked out from the sequence lengths, get no attention weight.
        """
        return self.run(self.prepare(token_ids, distances))

    def prepare(self, token_ids, distances: np.ndarray | None = None) -> EncoderInputs:
        """What ``encode`` derives from its arguments before the first
        layer, validated: fixed for fixed ids and distances, so a caller
        that encodes the same batch again derives it once and calls
        ``run``."""
        ids, key_mask = self._layout(token_ids)
        return EncoderInputs(
            ids=ids,
            key_mask=None if key_mask is None else key_mask[..., None, None, :],
            rows=None if distances is None else self._table_rows(distances, ids.shape))

    def run(self, inputs: EncoderInputs) -> EncodedSequence:
        """The full stack over ``prepare``'s inputs."""
        index = None if inputs.rows is None else self._gather_index(inputs.rows)
        x = self._embedding(inputs.ids)
        for layer in range(self.config.layers):
            x = self._feed_forward(self._attention(x, layer, index, inputs.key_mask), layer)
        return EncodedSequence(hidden=x)

    def param_groups(self) -> list[ParamGroup]:
        groups = [self.params]
        if self.adapter is not None:
            groups.append(self.adapter)
        return groups


# -- parameter accounting -----------------------------------------------------


def transformer_block_params(dim: int, ffn_dim: int) -> int:
    """Weights and biases of one block: 4 attention projections, the
    feed-forward pair, and two affine normalizations."""
    attention = 4 * (dim * dim + dim)
    feed_forward = (dim * ffn_dim + ffn_dim) + (ffn_dim * dim + dim)
    norms = 2 * (2 * dim)
    return attention + feed_forward + norms


def adapter_increment(layers: int, tau: int, head_dim: int) -> int:
    """Incremental parameters of the distance-bias tables."""
    if layers < 1 or tau < 1 or head_dim < 1:
        raise ValidationError("layers, tau and head_dim must be positive")
    return layers * (2 * tau + 1) * head_dim


def structural_layer_increment(dim: int, ffn_dim: int, k: int) -> int:
    """Incremental parameters of ``k`` extra transformer layers."""
    if dim < 1 or ffn_dim < 1:
        raise ValidationError("dim and ffn_dim must be positive")
    if k < 0:
        raise ValidationError("layer count must be non-negative")
    return k * transformer_block_params(dim, ffn_dim)


def count_params(config: EncoderConfig, parser_config=None) -> int:
    """Parameters of the bare model: the full encoder plus the parser,
    without the distance-bias tables."""
    from .parser import ParserConfig, parser_param_count

    if config.vocab_size < 1:
        raise ValidationError("vocab_size must be positive")
    encoder_total = (
        config.vocab_size * config.dim
        + config.max_len * config.dim
        + 2 * config.dim  # embedding normalization
        + config.layers * transformer_block_params(config.dim, config.ffn_dim)
    )
    parser_config = parser_config if parser_config is not None else ParserConfig()
    return encoder_total + parser_param_count(config.dim, parser_config)
