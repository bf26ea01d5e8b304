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
    concat_cols,
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
    """Hidden states for one augmented sentence.

    Row 0 is the start marker, row ``content_rows + 1`` the end marker;
    the content view strips both (padding slots, when present, stay in
    the content view and are handled by masks downstream).
    """

    hidden: Tensor
    content_rows: int

    @property
    def content(self) -> Tensor:
        return self.hidden.rows(1, 1 + self.content_rows)


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

    def embed(self, token_ids, pad_to: int | None = None) -> Tensor:
        """Marker-augmented token + position embeddings.

        ``pad_to`` (content slots, >= n) right-pads with the padding
        embedding after the end marker.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShapeError("token ids must be a flat sequence")
        n = ids.size
        if n and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ValidationError("unknown token id outside the vocabulary")
        slots = n if pad_to is None else pad_to
        if slots < n:
            raise ValidationError("pad_to is smaller than the sentence")
        m = slots + 2
        if m > self.config.max_len:
            raise ValidationError(f"sequence of {m} rows exceeds max_len={self.config.max_len}")
        full = np.full(m, PAD_ID, dtype=np.int64)
        full[0] = START_ID
        full[1:n + 1] = ids
        full[n + 1] = END_ID
        tok = take_rows(self.params["tok_emb"], full)
        pos = take_rows(self.params["pos_emb"], np.arange(m))
        return tok + pos

    # -- attention -------------------------------------------------------

    def _qkv(self, x: Tensor, layer: int):
        p = self.params
        q = linear(x, p[f"l{layer}.wq"], p[f"l{layer}.bq"])
        k = linear(x, p[f"l{layer}.wk"], p[f"l{layer}.bk"])
        v = linear(x, p[f"l{layer}.wv"], p[f"l{layer}.bv"])
        return q, k, v

    def _head_slice(self, full: Tensor, head: int) -> Tensor:
        d = self.config.head_dim
        return full.cols(head * d, (head + 1) * d)

    def _distance_index(self, distances: np.ndarray, m: int) -> np.ndarray:
        """Bias-table rows for an (m, m) distance matrix, validated once
        and shared by every layer and head."""
        if self.adapter is None:
            raise ValidationError("distance matrix supplied but structure is disabled")
        distances = np.asarray(distances, dtype=np.int64)
        if distances.shape != (m, m):
            raise ShapeError(f"distance matrix {distances.shape} does not match length {m}")
        return distances_to_indices(distances, self.config.adapter.tau)

    def _head_logits(self, q: Tensor, k: Tensor | None, layer: int, head: int,
                     index: np.ndarray | None) -> Tensor:
        """One head's pre-softmax logits: the content term
        ``(q_i . k_j) / sqrt(d)`` when ``k`` is given, plus the distance
        term ``(q_i . r_ij) / sqrt(d)`` when ``index`` is given."""
        qh = self._head_slice(q, head)
        scale = math.sqrt(self.config.head_dim)
        bias = None
        if index is not None:
            bias = gather_cols(qh @ self.adapter[f"l{layer}.rel"].T, index) / scale
        if k is None:
            return bias
        scores = (qh @ self._head_slice(k, head).T) / scale
        return scores if bias is None else scores + bias

    def structured_attention_map(self, x: Tensor, layer: int, head: int,
                                 distances: np.ndarray) -> Tensor:
        """The distance-bias term of a head's logits, on its own."""
        q, _, _ = self._qkv(x, layer)
        return self._head_logits(q, None, layer, head, self._distance_index(distances, x.shape[0]))

    def attention_scores(self, x: Tensor, layer: int, head: int,
                         distances: np.ndarray | None = None) -> Tensor:
        """Pre-softmax logits for one head, exactly as the encoder's blocks
        compute them; the bias term is added only when a distance matrix
        is supplied."""
        q, k, _ = self._qkv(x, layer)
        index = None if distances is None else self._distance_index(distances, x.shape[0])
        return self._head_logits(q, k, layer, head, index)

    # -- blocks ----------------------------------------------------------

    def _block(self, x: Tensor, layer: int, index, key_mask) -> Tensor:
        c = self.config
        q, k, v = self._qkv(x, layer)
        mask = None if key_mask is None else np.asarray(key_mask, dtype=bool)[None, :]
        heads = []
        for h in range(c.heads):
            weights = softmax(self._head_logits(q, k, layer, h, index), mask=mask)
            heads.append(weights @ self._head_slice(v, h))
        att = linear(concat_cols(heads), self.params[f"l{layer}.wo"], self.params[f"l{layer}.bo"])
        x = layer_norm(x + att, self.params[f"l{layer}.ln1_g"], self.params[f"l{layer}.ln1_b"])
        hidden = linear(x, self.params[f"l{layer}.ffn_w1"], self.params[f"l{layer}.ffn_b1"]).relu()
        out = linear(hidden, self.params[f"l{layer}.ffn_w2"], self.params[f"l{layer}.ffn_b2"])
        return layer_norm(x + out, self.params[f"l{layer}.ln2_g"], self.params[f"l{layer}.ln2_b"])

    def encode(self, token_ids, distances: np.ndarray | None = None,
               pad_to: int | None = None, key_mask: np.ndarray | None = None) -> EncodedSequence:
        """Run the full stack over one (optionally padded) sentence."""
        x = self.embed(token_ids, pad_to=pad_to)
        index = None if distances is None else self._distance_index(distances, x.shape[0])
        x = layer_norm(x, self.params["emb_ln_g"], self.params["emb_ln_b"])
        for layer in range(self.config.layers):
            x = self._block(x, layer, index, key_mask)
        return EncodedSequence(hidden=x, content_rows=x.shape[0] - 2)

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
    return layers * (2 * tau + 1) * head_dim


def structural_layer_increment(dim: int, ffn_dim: int, k: int) -> int:
    """Incremental parameters of ``k`` extra transformer layers."""
    if k < 0:
        raise ValidationError("layer count must be non-negative")
    return k * transformer_block_params(dim, ffn_dim)


def count_params(config: EncoderConfig, variant: str = "bare",
                 parser_config=None, k: int = 2) -> int:
    """Parameter accounting for a configuration.

    ``bare`` counts the full encoder plus parser; ``struct-adapter`` and
    ``struct-layer`` count only the increment each alternative adds.
    """
    if variant == "struct-adapter":
        return adapter_increment(config.layers, config.adapter.tau, config.head_dim)
    if variant == "struct-layer":
        return structural_layer_increment(config.dim, config.ffn_dim, k)
    if variant != "bare":
        raise ValidationError(f"unknown variant {variant!r}")
    from .parser import ParserConfig, parser_param_count

    encoder_total = (
        config.vocab_size * config.dim
        + config.max_len * config.dim
        + 2 * config.dim  # embedding normalization
        + config.layers * transformer_block_params(config.dim, config.ffn_dim)
    )
    parser_config = parser_config if parser_config is not None else ParserConfig()
    return encoder_total + parser_param_count(config.dim, parser_config)
