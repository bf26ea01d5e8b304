"""Triplet parser: span taggers, pairwise sentiment scorer, decoders.

Two independent B/I/O taggers mark aspect and opinion spans. A biaffine
scorer assigns every ordered token pair a distribution over
{NONE, POS, NEG, NEU}; the relation is supervised in both directions
(aspect token to opinion token and back). Grid decoding then recovers
span-level triplets by majority vote over the map cells a candidate span
pair indexes, in both directions, so a single misclassified cell rarely
flips the decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Sentence, Span, Triplet, warn_data
from .errors import ShapeError, ValidationError
from .numerics import ParamGroup, Tensor, linear, normal_init, softmax, stack_last, zeros_init

TAGS = ("B", "I", "O")
TAG_B, TAG_I, TAG_O = 0, 1, 2
REL_LABELS = ("NONE", "POS", "NEG", "NEU")
REL_INDEX = {label: i for i, label in enumerate(REL_LABELS)}
_SENTIMENT_PREFERENCE = ("POS", "NEG", "NEU")


@dataclass(frozen=True)
class ParserConfig:
    tag_hidden: int = 64
    pair_hidden: int = 64

    def __post_init__(self):
        if self.tag_hidden < 1 or self.pair_hidden < 1:
            raise ValidationError("hidden sizes must be positive")


@dataclass
class SentimentRelationMap:
    """Pairwise label distributions and their argmax labels."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 3 or self.probs.shape[2] != len(REL_LABELS):
            raise ShapeError("relation map must be (n, n, 4)")

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def parser_param_count(dim: int, config: ParserConfig) -> int:
    t, p = config.tag_hidden, config.pair_hidden
    taggers = 2 * ((dim * t + t) + (t * len(TAGS) + len(TAGS)))
    pair_inputs = 2 * (dim * p + p)
    bilinear = len(REL_LABELS) * p * p
    pair_linear = 2 * (p * len(REL_LABELS))
    return taggers + pair_inputs + bilinear + pair_linear + len(REL_LABELS)


class TripletParser:
    """Owns the parser parameter group (trained at 10x the base rate)."""

    def __init__(self, dim: int, config: ParserConfig, rng: np.random.Generator):
        self.dim = dim
        self.config = config
        self.params = ParamGroup("parser", lr_multiplier=10.0)
        t, p = config.tag_hidden, config.pair_hidden
        for role in ("aspect", "opinion"):
            self.params.add(f"{role}_w1", normal_init((dim, t), rng))
            self.params.add(f"{role}_b1", zeros_init((t,)))
            self.params.add(f"{role}_w2", normal_init((t, len(TAGS)), rng))
            self.params.add(f"{role}_b2", zeros_init((len(TAGS),)))
        for side in ("head", "dep"):
            self.params.add(f"pair_{side}_w1", normal_init((dim, p), rng))
            self.params.add(f"pair_{side}_b1", zeros_init((p,)))
            self.params.add(f"pair_{side}_w2", normal_init((p, len(REL_LABELS)), rng))
        for label in REL_LABELS:
            self.params.add(f"pair_bil_{label.lower()}", normal_init((p, p), rng))
        self.params.add("pair_b2", zeros_init((len(REL_LABELS),)))

    # -- tagging -----------------------------------------------------------

    def tag_probs(self, hidden: Tensor, which: str) -> Tensor:
        """(n, 3) tag distributions from the aspect or opinion head."""
        if which not in ("aspect", "opinion"):
            raise ValidationError(f"unknown tagger {which!r}")
        p = self.params
        inner = linear(hidden, p[f"{which}_w1"], p[f"{which}_b1"]).relu()
        return softmax(linear(inner, p[f"{which}_w2"], p[f"{which}_b2"]))

    # -- pairwise sentiment --------------------------------------------------

    def relation_probs(self, hidden: Tensor) -> Tensor:
        """(n, n, 4) distributions over ordered token pairs, i = j included."""
        p = self.params
        n = hidden.shape[0]
        head = linear(hidden, p["pair_head_w1"], p["pair_head_b1"]).relu()
        dep = linear(hidden, p["pair_dep_w1"], p["pair_dep_b1"]).relu()
        per_label = [
            (head @ p[f"pair_bil_{label.lower()}"]) @ dep.T for label in REL_LABELS
        ]
        logits = stack_last(per_label)
        logits = logits + (head @ p["pair_head_w2"]).reshape(n, 1, len(REL_LABELS))
        logits = logits + (dep @ p["pair_dep_w2"]).reshape(1, n, len(REL_LABELS))
        logits = logits + p["pair_b2"]
        return softmax(logits)


# -- decoding ------------------------------------------------------------


def decode_bio(tags) -> list[Span]:
    """Spans from a B/I/O tag list; a stray I opens a span (relaxed rule)."""
    spans: list[Span] = []
    start = None
    for i, tag in enumerate(tags):
        if tag not in TAGS:
            raise ValidationError(f"unknown tag {tag!r}")
        if tag == "B":
            if start is not None:
                spans.append(Span(start, i - 1))
            start = i
        elif tag == "I":
            if start is None:
                start = i
        else:
            if start is not None:
                spans.append(Span(start, i - 1))
                start = None
    if start is not None:
        spans.append(Span(start, len(tags) - 1))
    return spans


def decode_grid(aspects, opinions, relation_map: SentimentRelationMap) -> set[Triplet]:
    """Majority vote over the map cells indexed by each span pair.

    Every (aspect token, opinion token) cell votes in both directions,
    2 * |a| * |o| votes in total. NONE loses any tie against a sentiment
    label; sentiment ties break by the larger summed probability mass over
    the same cells, then by the fixed order POS > NEG > NEU. A NONE winner
    suppresses the pair; identical spans are never paired.
    """
    n = relation_map.n
    triplets: set[Triplet] = set()
    for aspect in aspects:
        for opinion in opinions:
            if aspect == opinion:
                continue
            if aspect.end >= n or opinion.end >= n:
                raise ValidationError("span outside the relation map")
            cells = [(i, j) for i in aspect.tokens() for j in opinion.tokens()]
            cells += [(j, i) for i, j in list(cells)]
            winner = _vote(cells, relation_map)
            if winner != REL_INDEX["NONE"]:
                triplets.add(Triplet(aspect, opinion, REL_LABELS[winner]))
    return triplets


def _vote(cells, relation_map: SentimentRelationMap) -> int:
    counts = np.zeros(len(REL_LABELS), dtype=np.int64)
    for i, j in cells:
        counts[relation_map.labels[i, j]] += 1
    top = counts.max()
    candidates = [label for label in range(len(REL_LABELS)) if counts[label] == top]
    if len(candidates) > 1 and REL_INDEX["NONE"] in candidates:
        candidates.remove(REL_INDEX["NONE"])
    if len(candidates) > 1:
        mass = {c: sum(relation_map.probs[i, j, c] for i, j in cells) for c in candidates}
        best = max(mass.values())
        candidates = [c for c in candidates if mass[c] == best]
    if len(candidates) > 1:
        order = [REL_INDEX[s] for s in _SENTIMENT_PREFERENCE]
        candidates.sort(key=order.index)
    return candidates[0]


# -- gold construction ------------------------------------------------------


def build_gold(sentence: Sentence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Targets for the two taggers and the pairwise relation map.

    Each gold triplet labels the cells (i, j) and (j, i) for i in its
    aspect and j in its opinion; all other cells are NONE. When two
    triplets disagree on one cell the first one's label stands and a data
    warning is emitted.
    """
    n = len(sentence)
    aspect = np.full(n, TAG_O, dtype=np.int64)
    opinion = np.full(n, TAG_O, dtype=np.int64)
    relations = np.full((n, n), REL_INDEX["NONE"], dtype=np.int64)
    for triplet in sentence.triplets:
        _mark_span(aspect, triplet.aspect)
        _mark_span(opinion, triplet.opinion)
        label = REL_INDEX[triplet.sentiment]
        for i in triplet.aspect.tokens():
            for j in triplet.opinion.tokens():
                for x, y in ((i, j), (j, i)):
                    current = relations[x, y]
                    if current == REL_INDEX["NONE"]:
                        relations[x, y] = label
                    elif current != label:
                        warn_data(
                            f"conflicting relation at cell ({x}, {y}): keeping "
                            f"{REL_LABELS[current]}, ignoring {REL_LABELS[label]}"
                        )
    return aspect, opinion, relations


def _mark_span(targets: np.ndarray, span: Span) -> None:
    targets[span.start] = TAG_B
    for i in range(span.start + 1, span.end + 1):
        targets[i] = TAG_I


def relation_map_from_labels(labels: np.ndarray) -> SentimentRelationMap:
    """A map whose distributions are one-hot at the given labels; handy
    for decoding gold annotations and for fixtures."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    probs = np.zeros((n, n, len(REL_LABELS)))
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    probs[rows, cols, labels] = 1.0
    return SentimentRelationMap(probs=probs, labels=labels.copy())


def gold_tag_strings(targets: np.ndarray) -> list[str]:
    return [TAGS[i] for i in targets]
