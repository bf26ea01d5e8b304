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
    gather_cols,
    layer_norm,
    linear,
    normal_init,
    softmax,
    take_rows,
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

    def _embed_rows(self, ids: np.ndarray) -> Tensor:
        tok = take_rows(self.params["tok_emb"], ids)
        return tok + take_rows(self.params["pos_emb"], np.arange(ids.shape[-1]))

    def embed(self, token_ids) -> Tensor:
        """Marker-augmented token + position embeddings: (m, dim) for one
        id sequence, (B, m, dim) for a list of them, padded as ``encode``
        pads."""
        return self._embed_rows(self._layout(token_ids)[0])

    # -- attention -------------------------------------------------------

    def _heads(self, x: Tensor, layer: int, names: str) -> list[Tensor]:
        """The named projections (``q``, ``k``, ``v``) of (..., m, dim)
        states, each split into (..., H, m, d) heads."""
        c = self.config
        out = []
        for name in names:
            proj = linear(x, self.params[f"l{layer}.w{name}"], self.params[f"l{layer}.b{name}"])
            out.append(proj.reshape(*x.shape[:-1], c.heads, c.head_dim).swapaxes(-3, -2))
        return out

    def _distance_index(self, distances, rows: tuple[int, ...]) -> np.ndarray:
        """Bias-table rows for the (..., m, m) distances of (..., m) token
        rows, validated once and broadcast over heads as (..., 1, m, m)."""
        if self.adapter is None:
            raise ValidationError("distance matrix supplied but structure is disabled")
        distances = np.asarray(distances, dtype=np.int64)
        if distances.shape != rows + rows[-1:]:
            raise ShapeError(f"distance matrix {distances.shape} does not match length {rows[-1]}")
        return distances_to_indices(distances, self.config.adapter.tau)[..., None, :, :]

    def _logits(self, q: Tensor, k: Tensor | None, layer: int,
                index: np.ndarray | None) -> Tensor:
        """All heads' (..., H, m, m) pre-softmax logits: the content term
        ``(q_i . k_j) / sqrt(d)`` when ``k`` is given, plus the distance
        term ``(q_i . r_ij) / sqrt(d)`` when ``index`` is given. The
        distance term is one product with the layer's table and one
        gather (Shaw et al. 2018, section 3.3)."""
        scale = math.sqrt(self.config.head_dim)
        bias = None
        if index is not None:
            bias = gather_cols(q @ self.adapter[f"l{layer}.rel"].T, index) / scale
        if k is None:
            return bias
        scores = (q @ k.T) / scale
        return scores if bias is None else scores + bias

    def structured_attention_map(self, x: Tensor, layer: int, head: int,
                                 distances: np.ndarray) -> Tensor:
        """The distance-bias term of a head's logits, on its own."""
        q, = self._heads(x, layer, "q")
        index = self._distance_index(distances, x.shape[:-1])
        return self._logits(q, None, layer, index)[..., head, :, :]

    def attention_scores(self, x: Tensor, layer: int, head: int,
                         distances: np.ndarray | None = None) -> Tensor:
        """Pre-softmax logits for one head, exactly as the encoder's blocks
        compute them; the bias term is added only when a distance matrix
        is supplied."""
        q, k = self._heads(x, layer, "qk")
        index = None if distances is None else self._distance_index(distances, x.shape[:-1])
        return self._logits(q, k, layer, index)[..., head, :, :]

    # -- blocks ----------------------------------------------------------

    def _block(self, x: Tensor, layer: int, index, key_mask) -> Tensor:
        p = self.params
        q, k, v = self._heads(x, layer, "qkv")
        heads = softmax(self._logits(q, k, layer, index), mask=key_mask) @ v
        merged = heads.swapaxes(-3, -2).reshape(*x.shape)
        att = linear(merged, p[f"l{layer}.wo"], p[f"l{layer}.bo"])
        x = layer_norm(x + att, p[f"l{layer}.ln1_g"], p[f"l{layer}.ln1_b"])
        hidden = linear(x, p[f"l{layer}.ffn_w1"], p[f"l{layer}.ffn_b1"]).relu()
        out = linear(hidden, p[f"l{layer}.ffn_w2"], p[f"l{layer}.ffn_b2"])
        return layer_norm(x + out, p[f"l{layer}.ln2_g"], p[f"l{layer}.ln2_b"])

    def encode(self, token_ids, distances: np.ndarray | None = None) -> EncodedSequence:
        """Run the full stack over one id sequence or a padded batch of them.

        ``distances`` is the (m, m) matrix of one sequence or the
        (B, m, m) stack of a batch, padded like the ids. Padded key slots,
        worked out from the sequence lengths, get no attention weight.
        """
        ids, key_mask = self._layout(token_ids)
        index = None if distances is None else self._distance_index(distances, ids.shape)
        x = layer_norm(self._embed_rows(ids), self.params["emb_ln_g"], self.params["emb_ln_b"])
        mask = None if key_mask is None else key_mask[..., None, None, :]
        for layer in range(self.config.layers):
            x = self._block(x, layer, index, mask)
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
