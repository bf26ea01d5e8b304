"""Encoder contracts: attention bias, equivalences, parameter accounting."""

import numpy as np
import pytest

from aste.data import NUM_RESERVED
from aste.encoder import (
    Encoder,
    EncoderConfig,
    adapter_increment,
    count_params,
    structural_layer_increment,
    transformer_block_params,
)
from aste.errors import ShapeError, ValidationError
from aste.numerics import Tensor, grad_check, softmax
from aste.parser import ParserConfig, TripletParser, parser_param_count
from aste.structure import RELATIVE, StructureConfig, relative_distance_matrix

SOFTMAX_1_2 = (0.2689414213699951, 0.7310585786300049)


def tiny_config(vocab=10, adapter_kind=None, tau=4, **overrides):
    adapter = StructureConfig(tau=tau, kind=adapter_kind) if adapter_kind else StructureConfig()
    defaults = dict(vocab_size=vocab, dim=8, heads=2, layers=2, ffn_dim=12,
                    max_len=32, adapter=adapter)
    defaults.update(overrides)
    return EncoderConfig(**defaults)


def make_encoder(seed=0, **kwargs) -> Encoder:
    return Encoder(tiny_config(**kwargs), np.random.default_rng(seed))


class TestEmbed:
    def test_single_token_gets_three_rows(self):
        enc = make_encoder()
        assert enc.embed([5]).shape == (3, 8)

    def test_same_token_differs_only_by_position(self):
        enc = make_encoder()
        rows = enc.embed([5, 5]).data
        assert not np.array_equal(rows[1], rows[2])
        pos = enc.params["pos_emb"].data
        pos[2] = pos[1]
        rows = enc.embed([5, 5]).data
        np.testing.assert_array_equal(rows[1], rows[2])

    def test_zero_embeddings_give_zero_rows(self):
        enc = make_encoder()
        enc.params["tok_emb"].data[...] = 0.0
        enc.params["pos_emb"].data[...] = 0.0
        np.testing.assert_array_equal(enc.embed([1, 2, 3]).data, np.zeros((5, 8)))

    def test_unknown_id_rejected(self):
        enc = make_encoder()
        with pytest.raises(ValidationError):
            enc.embed([10])

    def test_overlong_rejected(self):
        enc = make_encoder()
        with pytest.raises(ValidationError):
            enc.embed([1] * 31)

    def test_padded_layout(self):
        enc = make_encoder()
        rows = enc.embed([4, 5], pad_to=5)
        assert rows.shape == (7, 8)


class TestAttentionScores:
    def test_zero_relations_bitwise_equal_to_absent(self):
        enc = make_encoder(adapter_kind=RELATIVE)
        x = Tensor(np.random.default_rng(1).normal(0, 1, (5, 8)))
        distances = relative_distance_matrix(5, 4)
        biased = enc.attention_scores(x, layer=0, head=1, distances=distances)
        raw = enc.attention_scores(x, layer=0, head=1, distances=None)
        assert np.array_equal(biased.data, raw.data)

    def test_single_row_softmax_is_one(self):
        enc = make_encoder()
        x = Tensor(np.random.default_rng(2).normal(0, 1, (1, 8)))
        weights = softmax(enc.attention_scores(x, 0, 0)).data
        np.testing.assert_allclose(weights, [[1.0]])

    def test_unit_dim_hand_oracle(self):
        enc = Encoder(
            EncoderConfig(vocab_size=4, dim=1, heads=1, layers=1, ffn_dim=2, max_len=8),
            np.random.default_rng(0),
        )
        enc.params["l0.wq"].data[...] = 1.0
        enc.params["l0.wk"].data[...] = 1.0
        enc.params["l0.bq"].data[...] = 0.0
        enc.params["l0.bk"].data[...] = 0.0
        x = Tensor([[1.0], [2.0]])
        weights = softmax(enc.attention_scores(x, 0, 0)).data
        np.testing.assert_allclose(weights[0], SOFTMAX_1_2, atol=1e-12)

    def test_additive_decomposition(self):
        enc = make_encoder(adapter_kind=RELATIVE, seed=5)
        for layer, table in enumerate(enc.adapter.tensors.values()):
            table.data[...] = np.random.default_rng(layer).normal(0, 0.5, table.shape)
        x = Tensor(np.random.default_rng(9).normal(0, 1, (6, 8)))
        distances = relative_distance_matrix(6, 4)
        for layer in range(2):
            for head in range(2):
                full = enc.attention_scores(x, layer, head, distances).data
                raw = enc.attention_scores(x, layer, head).data
                struct = enc.structured_attention_map(x, layer, head, distances).data
                np.testing.assert_allclose(full - raw, struct, atol=1e-12)

    def test_distances_without_adapter_rejected(self):
        enc = make_encoder()
        x = Tensor(np.zeros((3, 8)))
        with pytest.raises(ValidationError):
            enc.attention_scores(x, 0, 0, relative_distance_matrix(3, 4))

    def test_distance_size_mismatch(self):
        enc = make_encoder(adapter_kind=RELATIVE)
        x = Tensor(np.zeros((3, 8)))
        with pytest.raises(ShapeError):
            enc.attention_scores(x, 0, 0, relative_distance_matrix(4, 4))


class TestEncode:
    def test_zero_table_equals_disabled(self):
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 10, 6)
        biased = make_encoder(seed=3, adapter_kind=RELATIVE)
        bare = make_encoder(seed=3)
        distances = relative_distance_matrix(8, 4)
        h_biased = biased.encode(ids, distances=distances).hidden.data
        h_bare = bare.encode(ids).hidden.data
        assert np.abs(h_biased - h_bare).max() <= 1e-12

    def test_permutation_symmetry_without_positions(self):
        enc = make_encoder(seed=11)
        enc.params["pos_emb"].data[...] = 0.0
        ids = np.array([4, 5, 6, 7])
        swapped = np.array([4, 6, 5, 7])
        h = enc.encode(ids).hidden.data
        h_swapped = enc.encode(swapped).hidden.data
        np.testing.assert_allclose(h[[0, 1, 3, 2, 4, 5]], h_swapped, atol=1e-12)

    def test_deterministic(self):
        ids = [1, 2, 3]
        a = make_encoder(seed=4).encode(ids).hidden.data
        b = make_encoder(seed=4).encode(ids).hidden.data
        np.testing.assert_array_equal(a, b)

    def test_content_view_strips_markers(self):
        enc = make_encoder()
        out = enc.encode([1, 2, 3])
        assert out.hidden.shape == (5, 8)
        assert out.content.shape == (3, 8)
        np.testing.assert_array_equal(out.content.data, out.hidden.data[1:4])

    def test_masked_attention_rows_are_distributions(self):
        enc = make_encoder(seed=8)
        x = Tensor(np.random.default_rng(0).normal(0, 1, (6, 8)))
        mask = np.array([True, True, True, True, False, False])
        weights = softmax(enc.attention_scores(x, 0, 0), mask=mask[None, :]).data
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(6), atol=1e-12)
        np.testing.assert_array_equal(weights[:, 4:], np.zeros((6, 2)))

    def test_distances_without_adapter_rejected(self):
        enc = make_encoder()
        with pytest.raises(ValidationError):
            enc.encode([1, 2, 3], distances=relative_distance_matrix(5, 4))

    def test_distance_size_mismatch(self):
        enc = make_encoder(adapter_kind=RELATIVE)
        with pytest.raises(ShapeError):
            enc.encode([1, 2, 3], distances=relative_distance_matrix(4, 4))

    def test_blocks_compose_from_attention_scores(self):
        """Every layer of ``encode`` rebuilt by hand from the public
        per-head logits: softmax, weights @ v, concat, output projection,
        residual norms and the feed-forward net."""
        enc = make_encoder(seed=19, adapter_kind=RELATIVE)
        rng = np.random.default_rng(4)
        for table in enc.adapter.tensors.values():
            table.data[...] = rng.normal(0, 0.5, table.shape)
        ids = [3, 1, 4, 1, 5]
        distances = relative_distance_matrix(7, 4)
        p = {name: t.data for name, t in enc.params.items()}

        def norm(x, prefix):
            centred = x - x.mean(axis=-1, keepdims=True)
            scaled = centred / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
            return scaled * p[f"{prefix}_g"] + p[f"{prefix}_b"]

        x = norm(enc.embed(ids).data, "emb_ln")
        d = enc.config.head_dim
        for l in range(enc.config.layers):
            v = x @ p[f"l{l}.wv"] + p[f"l{l}.bv"]
            heads = [
                softmax(enc.attention_scores(Tensor(x), l, h, distances)).data
                @ v[:, h * d:(h + 1) * d]
                for h in range(enc.config.heads)
            ]
            att = np.concatenate(heads, axis=1) @ p[f"l{l}.wo"] + p[f"l{l}.bo"]
            x = norm(x + att, f"l{l}.ln1")
            ffn = np.maximum(x @ p[f"l{l}.ffn_w1"] + p[f"l{l}.ffn_b1"], 0.0)
            x = norm(x + ffn @ p[f"l{l}.ffn_w2"] + p[f"l{l}.ffn_b2"], f"l{l}.ln2")
        encoded = enc.encode(ids, distances=distances).hidden.data
        np.testing.assert_allclose(encoded, x, rtol=0, atol=1e-12)

    def test_padded_forward_matches_unpadded_content(self):
        enc = make_encoder(seed=6, adapter_kind=RELATIVE)
        ids = [1, 2, 3]
        distances = relative_distance_matrix(5, 4)
        plain = enc.encode(ids, distances=distances).hidden.data
        from aste.structure import augmented_distance_matrix
        padded_distances = augmented_distance_matrix(3, enc.config.adapter, total_len=8)
        mask = np.array([True] * 5 + [False] * 3)
        padded = enc.encode(ids, distances=padded_distances, pad_to=6, key_mask=mask).hidden.data
        np.testing.assert_allclose(padded[:5], plain, atol=1e-12)


class TestEncoderGradients:
    def test_grad_check_including_relation_rows(self):
        enc = make_encoder(seed=13, adapter_kind=RELATIVE)
        ids = np.array([1, 2, 3, 4])
        distances = relative_distance_matrix(6, 4)

        def f():
            out = enc.encode(ids, distances=distances)
            return (out.hidden * out.hidden).sum()

        err = grad_check(f, enc.param_groups(), samples_per_tensor=3, seed=0)
        assert err < 1e-4
        # the relation tables do receive gradient
        enc.params.zero_grad()
        enc.adapter.zero_grad()
        loss = f()
        loss.backward()
        for _, table in enc.adapter.items():
            assert table.grad is not None and np.abs(table.grad).max() > 0


class TestRelationTableSharing:
    def test_perturbing_one_layer_touches_all_its_heads_only(self):
        enc = make_encoder(seed=21, adapter_kind=RELATIVE)
        x = Tensor(np.random.default_rng(3).normal(0, 1, (5, 8)))
        distances = relative_distance_matrix(5, 4)
        before = {
            (layer, head): enc.attention_scores(x, layer, head, distances).data
            for layer in range(2) for head in range(2)
        }
        enc.adapter["l0.rel"].data[2, :] += 0.7
        for layer in range(2):
            for head in range(2):
                after = enc.attention_scores(x, layer, head, distances).data
                changed = not np.allclose(after, before[(layer, head)], atol=1e-15)
                assert changed == (layer == 0)


class TestParameterAccounting:
    def test_adapter_increment_matches_published_scale(self):
        assert adapter_increment(layers=12, tau=8, head_dim=64) == 13_056

    def test_two_layer_increment_matches_published_scale(self):
        assert structural_layer_increment(dim=768, ffn_dim=3072, k=2) == 14_175_744

    def test_zero_layers_zero_increment(self):
        assert structural_layer_increment(dim=768, ffn_dim=3072, k=0) == 0

    def test_bare_count_matches_live_tensors(self):
        config = tiny_config(vocab=17)
        parser_config = ParserConfig(tag_hidden=6, pair_hidden=5)
        rng = np.random.default_rng(0)
        encoder = Encoder(config, rng)
        parser = TripletParser(config.dim, parser_config, rng)
        live = encoder.params.num_params() + parser.params.num_params()
        assert count_params(config, "bare", parser_config) == live

    def test_adapter_variant_uses_config(self):
        config = tiny_config(adapter_kind=RELATIVE, tau=4)
        assert count_params(config, "struct-adapter") == 2 * (2 * 4 + 1) * 4

    def test_parser_count_matches_live_tensors(self):
        parser_config = ParserConfig(tag_hidden=7, pair_hidden=9)
        parser = TripletParser(8, parser_config, np.random.default_rng(1))
        assert parser_param_count(8, parser_config) == parser.params.num_params()

    def test_block_params_formula(self):
        d, f = 16, 40
        assert transformer_block_params(d, f) == 4 * (d * d + d) + (d * f + f) + (f * d + d) + 4 * d

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            count_params(tiny_config(), "bogus")


class TestConfigValidation:
    def test_dim_divisible_by_heads(self):
        with pytest.raises(ValidationError):
            EncoderConfig(vocab_size=4, dim=9, heads=2)

    def test_reserved_ids_fit(self):
        assert NUM_RESERVED == 4
