"""Parser heads against naive-loop oracles; decoding against brute force."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aste.data import Sentence, Span, Triplet
from aste.numerics import Tensor, cross_entropy, grad_check
from aste.parser import (
    REL_INDEX,
    REL_LABELS,
    ParserConfig,
    SentimentRelationMap,
    TripletParser,
    build_gold,
    decode_bio,
    decode_grid,
    gold_tag_strings,
    relation_map_from_labels,
)


def make_parser(dim=6, tag_hidden=5, pair_hidden=4, seed=0) -> TripletParser:
    return TripletParser(dim, ParserConfig(tag_hidden, pair_hidden), np.random.default_rng(seed))


def naive_tagger(h, w1, b1, w2, b2):
    """Plain-loop oracle for softmax(W2 relu(W1 h + b1) + b2)."""
    n, d = h.shape
    t = b1.shape[0]
    out = []
    for i in range(n):
        inner = [max(0.0, sum(h[i][a] * w1[a][k] for a in range(d)) + b1[k]) for k in range(t)]
        logits = [sum(inner[k] * w2[k][c] for k in range(t)) + b2[c] for c in range(3)]
        top = max(logits)
        exps = [math.exp(v - top) for v in logits]
        total = sum(exps)
        out.append([e / total for e in exps])
    return np.array(out)


def naive_biaffine(h, p):
    """Plain-loop oracle for the pairwise scorer."""
    n, d = h.shape
    width = p["pair_head_b1"].data.shape[0]

    def rep(side, i):
        w1, b1 = p[f"pair_{side}_w1"].data, p[f"pair_{side}_b1"].data
        return [max(0.0, sum(h[i][a] * w1[a][k] for a in range(d)) + b1[k]) for k in range(width)]

    probs = np.zeros((n, n, 4))
    for i in range(n):
        rh = rep("head", i)
        for j in range(n):
            rd = rep("dep", j)
            logits = []
            for c, label in enumerate(REL_LABELS):
                bil = p[f"pair_bil_{label.lower()}"].data
                value = sum(rh[a] * bil[a][b] * rd[b] for a in range(width) for b in range(width))
                value += sum(rh[a] * p["pair_head_w2"].data[a][c] for a in range(width))
                value += sum(rd[b] * p["pair_dep_w2"].data[b][c] for b in range(width))
                value += p["pair_b2"].data[c]
                logits.append(value)
            top = max(logits)
            exps = [math.exp(v - top) for v in logits]
            probs[i, j] = np.array(exps) / sum(exps)
    return probs


class TestTaggers:
    def test_zero_weights_give_uniform(self):
        parser = make_parser()
        for name in ("aspect_w1", "aspect_b1", "aspect_w2", "aspect_b2"):
            parser.params[name].data[...] = 0.0
        probs = parser.tag_probs(Tensor(np.ones((4, 6))), "aspect").data
        np.testing.assert_allclose(probs, np.full((4, 3), 1 / 3), atol=1e-15)

    def test_single_token(self):
        parser = make_parser()
        probs = parser.tag_probs(Tensor(np.ones((1, 6))), "opinion").data
        assert probs.shape == (1, 3)
        assert probs.argmax(axis=-1).shape == (1,)

    def test_matches_naive_oracle(self):
        parser = make_parser(seed=3)
        h = np.random.default_rng(5).normal(0, 1, (3, 6))
        got = parser.tag_probs(Tensor(h), "aspect").data
        expected = naive_tagger(
            h,
            parser.params["aspect_w1"].data, parser.params["aspect_b1"].data,
            parser.params["aspect_w2"].data, parser.params["aspect_b2"].data,
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_aspect_and_opinion_heads_are_disjoint(self):
        parser = make_parser(seed=3)
        h = Tensor(np.random.default_rng(5).normal(0, 1, (3, 6)))
        aspect = parser.tag_probs(h, "aspect").data
        parser.params["opinion_w1"].data[...] += 1.0
        np.testing.assert_array_equal(parser.tag_probs(h, "aspect").data, aspect)

    def test_unknown_head_rejected(self):
        with pytest.raises(Exception):
            make_parser().tag_probs(Tensor(np.ones((2, 6))), "sentiment")


class TestSentimentScorer:
    def test_zero_weights_give_quarter_cells(self):
        parser = make_parser()
        for name, tensor in parser.params.items():
            if name.startswith("pair"):
                tensor.data[...] = 0.0
        probs = parser.relation_probs(Tensor(np.ones((3, 6)))).data
        np.testing.assert_allclose(probs, np.full((3, 3, 4), 0.25), atol=1e-15)

    def test_rows_constant_in_j_without_dep_terms(self):
        parser = make_parser(seed=7)
        for label in REL_LABELS:
            parser.params[f"pair_bil_{label.lower()}"].data[...] = 0.0
        parser.params["pair_dep_w2"].data[...] = 0.0
        probs = parser.relation_probs(Tensor(np.random.default_rng(1).normal(0, 1, (4, 6)))).data
        for i in range(4):
            for j in range(1, 4):
                np.testing.assert_allclose(probs[i, j], probs[i, 0], atol=1e-12)

    def test_matches_naive_oracle(self):
        parser = make_parser(seed=11)
        h = np.random.default_rng(13).normal(0, 1, (3, 6))
        got = parser.relation_probs(Tensor(h)).data
        np.testing.assert_allclose(got, naive_biaffine(h, parser.params), atol=1e-12)

    def test_map_invariants(self):
        parser = make_parser(seed=2)
        probs = parser.relation_probs(Tensor(np.random.default_rng(3).normal(0, 1, (5, 6)))).data
        rel = SentimentRelationMap(probs, probs.argmax(axis=-1))
        assert rel.n == 5
        np.testing.assert_allclose(rel.probs.sum(axis=-1), np.ones((5, 5)), atol=1e-12)
        assert (rel.probs >= 0).all()


class TestDecodeBio:
    @pytest.mark.parametrize("tags,expected", [
        (["O", "B", "I", "O"], [(1, 2)]),
        (["B", "B"], [(0, 0), (1, 1)]),
        (["O", "I", "I"], [(1, 2)]),
        (["O", "O"], []),
        (["B", "I", "I"], [(0, 2)]),
        (["I"], [(0, 0)]),
        (["B", "O", "B", "I", "B"], [(0, 0), (2, 3), (4, 4)]),
    ])
    def test_cases(self, tags, expected):
        assert [(s.start, s.end) for s in decode_bio(tags)] == expected

    def test_unknown_tag_rejected(self):
        with pytest.raises(Exception):
            decode_bio(["B", "X"])

    @given(st.lists(st.sampled_from(["B", "I", "O"]), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_spans_disjoint_sorted_within_bounds(self, tags):
        spans = decode_bio(tags)
        total = sum(len(s) for s in spans)
        assert total <= len(tags)
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.end < later.start


def brute_force_grid(aspects, opinions, relation_map):
    """Independent re-implementation of the vote with dict tallies."""
    results = set()
    for a in aspects:
        for o in opinions:
            if a == o:
                continue
            cells = []
            for i in range(a.start, a.end + 1):
                for j in range(o.start, o.end + 1):
                    cells.append((i, j))
                    cells.append((j, i))
            tally = Counter(int(relation_map.labels[i, j]) for i, j in cells)
            best = max(tally.values())
            top = {label for label, count in tally.items() if count == best}
            if len(top) > 1:
                top.discard(REL_INDEX["NONE"])
            if len(top) > 1:
                mass = {
                    label: sum(relation_map.probs[i, j, label] for i, j in cells)
                    for label in top
                }
                peak = max(mass.values())
                top = {label for label in top if mass[label] == peak}
            if len(top) > 1:
                for preferred in ("POS", "NEG", "NEU"):
                    if REL_INDEX[preferred] in top:
                        top = {REL_INDEX[preferred]}
                        break
            winner = top.pop()
            if winner != REL_INDEX["NONE"]:
                results.add(Triplet(a, o, REL_LABELS[winner]))
    return results


def random_map(rng, n):
    raw = rng.random((n, n, 4)) + 1e-6
    probs = raw / raw.sum(axis=-1, keepdims=True)
    return SentimentRelationMap(probs=probs, labels=probs.argmax(axis=-1))


def transposed(relation_map):
    return SentimentRelationMap(
        probs=relation_map.probs.transpose(1, 0, 2).copy(),
        labels=relation_map.labels.T.copy(),
    )


def random_spans(rng, n, count):
    spans = []
    for _ in range(count):
        start = int(rng.integers(0, n))
        end = int(rng.integers(start, min(n, start + 3)))
        spans.append(Span(start, min(end, n - 1)))
    unique = sorted(set(spans))
    return unique


class TestDecodeGrid:
    def test_published_vote_count(self):
        # two aspect tokens and one opinion token index 2*(2*1) = 4 cells
        labels = np.full((4, 4), REL_INDEX["NONE"])
        labels[0, 3] = labels[1, 3] = labels[3, 0] = labels[3, 1] = REL_INDEX["POS"]
        rel = relation_map_from_labels(labels)
        out = decode_grid([Span(0, 1)], [Span(3, 3)], rel)
        assert out == {Triplet(Span(0, 1), Span(3, 3), "POS")}

    def test_majority_vote(self):
        # votes {POS, POS, NONE, NEG} -> POS
        labels = np.full((4, 4), REL_INDEX["NONE"])
        labels[0, 3] = REL_INDEX["POS"]
        labels[3, 0] = REL_INDEX["POS"]
        labels[1, 3] = REL_INDEX["NONE"]
        labels[3, 1] = REL_INDEX["NEG"]
        rel = relation_map_from_labels(labels)
        assert decode_grid([Span(0, 1)], [Span(3, 3)], rel) == {
            Triplet(Span(0, 1), Span(3, 3), "POS")
        }

    def test_all_none_suppresses_pair(self):
        rel = relation_map_from_labels(np.full((3, 3), REL_INDEX["NONE"]))
        assert decode_grid([Span(0, 0)], [Span(2, 2)], rel) == set()

    def test_sentiment_tie_broken_by_probability_mass(self):
        # votes {POS, POS, NEG, NEG}; POS carries more summed mass because
        # the NEG cells still hold some POS probability
        labels = np.full((4, 4), REL_INDEX["NONE"])
        labels[0, 3] = labels[3, 0] = REL_INDEX["POS"]
        labels[1, 3] = labels[3, 1] = REL_INDEX["NEG"]
        rel = relation_map_from_labels(labels)
        rel.probs[1, 3] = [0.0, 0.4, 0.6, 0.0]
        rel.probs[3, 1] = [0.0, 0.4, 0.6, 0.0]
        out = decode_grid([Span(0, 1)], [Span(3, 3)], rel)
        assert out == {Triplet(Span(0, 1), Span(3, 3), "POS")}

    def test_none_loses_ties(self):
        # votes {POS, NONE}: one of each, NONE must lose
        labels = np.full((2, 2), REL_INDEX["NONE"])
        labels[0, 1] = REL_INDEX["POS"]
        rel = relation_map_from_labels(labels)
        assert decode_grid([Span(0, 0)], [Span(1, 1)], rel) == {
            Triplet(Span(0, 0), Span(1, 1), "POS")
        }

    def test_fixed_order_fallback(self):
        # exact mass tie between NEG and NEU: POS > NEG > NEU picks NEG
        labels = np.full((2, 2), REL_INDEX["NONE"])
        labels[0, 1] = REL_INDEX["NEG"]
        labels[1, 0] = REL_INDEX["NEU"]
        probs = np.zeros((2, 2, 4))
        probs[..., :] = 0.25
        rel = SentimentRelationMap(probs=probs, labels=labels)
        assert decode_grid([Span(0, 0)], [Span(1, 1)], rel) == {
            Triplet(Span(0, 0), Span(1, 1), "NEG")
        }

    def test_identical_spans_skipped(self):
        labels = np.full((3, 3), REL_INDEX["POS"])
        rel = relation_map_from_labels(labels)
        assert decode_grid([Span(0, 1)], [Span(0, 1)], rel) == set()

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            rel = random_map(rng, n)
            aspects = random_spans(rng, n, int(rng.integers(1, 3)))
            opinions = random_spans(rng, n, int(rng.integers(1, 3)))
            assert decode_grid(aspects, opinions, rel) == brute_force_grid(aspects, opinions, rel)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            rel = random_map(rng, n)
            aspects = random_spans(rng, n, 2)
            opinions = random_spans(rng, n, 2)
            assert decode_grid(aspects, opinions, rel) == decode_grid(
                aspects, opinions, transposed(rel)
            )


class TestBuildGold:
    def test_single_triplet_layout(self):
        sentence = Sentence(
            tokens=["great", "food", "x"],
            triplets=[Triplet(Span(1, 1), Span(0, 0), "POS")],
        )
        aspect, opinion, relations = build_gold(sentence)
        assert gold_tag_strings(aspect) == ["O", "B", "O"]
        assert gold_tag_strings(opinion) == ["B", "O", "O"]
        assert relations[1, 0] == REL_INDEX["POS"]
        assert relations[0, 1] == REL_INDEX["POS"]
        assert (relations == REL_INDEX["NONE"]).sum() == 7

    def test_no_triplets(self):
        aspect, opinion, relations = build_gold(Sentence(tokens=["a", "b"]))
        assert gold_tag_strings(aspect) == ["O", "O"]
        assert gold_tag_strings(opinion) == ["O", "O"]
        assert (relations == REL_INDEX["NONE"]).all()

    def test_two_disjoint_triplets_cell_count(self):
        sentence = Sentence(
            tokens=list("abcdefgh"),
            triplets=[
                Triplet(Span(0, 1), Span(3, 3), "POS"),
                Triplet(Span(5, 5), Span(6, 7), "NEG"),
            ],
        )
        _, _, relations = build_gold(sentence)
        non_none = (relations != REL_INDEX["NONE"]).sum()
        assert non_none == 2 * (2 * 1 + 1 * 2)

    def test_conflicting_cells_keep_first_and_warn(self):
        sentence = Sentence(
            tokens=list("abc"),
            triplets=[
                Triplet(Span(0, 0), Span(1, 1), "POS"),
                Triplet(Span(0, 0), Span(1, 2), "NEG"),
            ],
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, _, relations = build_gold(sentence)
        assert relations[0, 1] == REL_INDEX["POS"]
        assert relations[0, 2] == REL_INDEX["NEG"]
        assert any("conflicting" in str(w.message) for w in caught)


class TestGoldRoundTrip:
    def test_decode_recovers_gold(self):
        from aste.synth import random_gold_sentences

        for sentence in random_gold_sentences(200, seed=5):
            aspect, opinion, relations = build_gold(sentence)
            decoded = decode_grid(
                decode_bio(gold_tag_strings(aspect)),
                decode_bio(gold_tag_strings(opinion)),
                relation_map_from_labels(relations),
            )
            assert decoded == sentence.triplet_set()


class TestParserGradients:
    def test_tagger_loss(self):
        parser = make_parser(seed=31)
        h = Tensor(np.random.default_rng(2).normal(0, 1, (4, 6)))
        targets = np.array([0, 1, 2, 2])

        def f():
            return cross_entropy(parser.tag_probs(h, "aspect"), targets)

        assert grad_check(f, parser.params, samples_per_tensor=4) < 1e-4

    def test_biaffine_loss(self):
        parser = make_parser(seed=37)
        h = Tensor(np.random.default_rng(4).normal(0, 1, (3, 6)))
        targets = np.random.default_rng(5).integers(0, 4, 9)

        def f():
            return cross_entropy(parser.relation_probs(h).reshape(9, 4), targets)

        assert grad_check(f, parser.params, samples_per_tensor=4) < 1e-4
