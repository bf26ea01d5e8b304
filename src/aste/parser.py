"""Triplet parser: span taggers, pairwise sentiment scorer, decoders.

Two independent B/I/O taggers mark aspect and opinion spans. A biaffine
scorer assigns every ordered token pair a distribution over
{NONE, POS, NEG, NEU}; the relation is supervised in both directions
(aspect token to opinion token and back). Grid decoding then recovers
span-level triplets by majority vote over the map cells a candidate span
pair indexes, in both directions, so a single misclassified cell rarely
flips the decision.

Each tagger (``w1``, ReLU, ``w2`` and softmax) and the pair scorer (both
ReLU sides, the biaffine logits and the softmax over labels) is one tape
node with a hand-written backward pass, so the heads of a forward pass
build 3 tensors. Training needs no distributions: ``TripletParser.loss``
runs the three heads and their loss from logits as one node, on the same
numpy forward of each head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Sentence, Span, Triplet, warn_data
from .errors import ShapeError, ValidationError
from .numerics import (ParamGroup, Tensor, affine_backward, affine_forward,
                       cross_entropy_backward, cross_entropy_forward, normal_init, relu_forward,
                       softmax_backward, softmax_forward, zeros_init)

TAGS = ("B", "I", "O")
TAG_B, TAG_I, TAG_O = 0, 1, 2
REL_LABELS = ("NONE", "POS", "NEG", "NEU")
REL_INDEX = {label: i for i, label in enumerate(REL_LABELS)}
_NONE = REL_INDEX["NONE"]
# Sentiment labels in tie-break order: POS > NEG > NEU.
_PREFERENCE = tuple(REL_INDEX[s] for s in ("POS", "NEG", "NEU"))


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
        probs, labels = self.probs, self.labels
        if probs.ndim != 3 or probs.shape[1:] != (probs.shape[0], len(REL_LABELS)):
            raise ShapeError("relation map must be (n, n, 4)")
        if (not isinstance(labels, np.ndarray) or labels.dtype.kind not in "iu"
                or labels.shape != probs.shape[:2]):
            raise ShapeError(f"relation labels must be an integer {probs.shape[:2]} array")
        if labels.size and (labels.min() < 0 or labels.max() >= len(REL_LABELS)):
            raise ValidationError(f"relation labels must lie in [0, {len(REL_LABELS)})")

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
        # One (p, p) bilinear form per label, in REL_LABELS order.
        self.params.add("pair_bil", normal_init((len(REL_LABELS), p, p), rng))
        self.params.add("pair_b2", zeros_init((len(REL_LABELS),)))

    def _rows(self, hidden: Tensor) -> np.ndarray:
        """(..., n, dim) hidden states as (N, dim) rows."""
        if hidden.data.ndim < 2 or hidden.shape[-1] != self.dim:
            raise ShapeError(f"parser expects (..., n, {self.dim}) hidden states, "
                             f"got {hidden.shape}")
        return hidden.data.reshape(-1, self.dim)

    # -- tagging -----------------------------------------------------------

    def _tag_logits(self, rows: np.ndarray, which: str):
        """The (N, 3) logits ``w2(relu(w1(rows)))`` of the aspect or opinion
        head for (N, dim) rows, their backward (from the logits' gradient
        to the rows' gradient and the parameters' parts) and the
        parameters."""
        if which not in ("aspect", "opinion"):
            raise ValidationError(f"unknown tagger {which!r}")
        params = tuple(self.params[f"{which}_{name}"] for name in ("w1", "b1", "w2", "b2"))
        w1, b1, w2, b2 = params
        inner = relu_forward(affine_forward(rows, w1.data, b1.data))

        def back(d_logits):
            d_inner, d_w2, d_b2 = affine_backward(d_logits, inner, w2.data)
            d_rows, d_w1, d_b1 = affine_backward(d_inner * (inner > 0), rows, w1.data)
            return d_rows, [(w1, d_w1), (b1, d_b1), (w2, d_w2), (b2, d_b2)]

        return affine_forward(inner, w2.data, b2.data), back, params

    def tag_probs(self, hidden: Tensor, which: str) -> Tensor:
        """(..., n, 3) tag distributions from the aspect or opinion head,
        as one node: ``softmax(w2(relu(w1(hidden))))``."""
        logits, logits_back, params = self._tag_logits(self._rows(hidden), which)
        probs = softmax_forward(logits)

        def back(g):
            d_rows, parts = logits_back(softmax_backward(probs, g.reshape(probs.shape)))
            return [(hidden, d_rows.reshape(hidden.shape))] + parts

        return Tensor(probs.reshape(*hidden.shape[:-1], len(TAGS)),
                      _parents=(hidden, *params), _backward=back, _op="tagger")

    # -- pairwise sentiment --------------------------------------------------

    def _pair_planes(self, rows: np.ndarray, tokens: tuple[int, ...]):
        """The (..., 4, n, n) label planes of pair logits for the (N, dim)
        rows of (..., n) tokens, their backward (from the planes' gradient
        to the rows' gradient and the parameters' parts) and the
        parameters.

        Both ReLU sides come from one affine map over the side weights
        side by side. The logit of pair (i, j) and label c is
        ``head_i . bil[c] . dep_j + head_i . head_w2[:, c]
        + dep_j . dep_w2[:, c] + b2[c]``. Logits and their backward run on
        label planes, since numpy reduces over a trailing axis of 4 row by
        row."""
        params = tuple(self.params[f"pair_{name}"] for name in (
            "head_w1", "head_b1", "dep_w1", "dep_b1", "bil", "head_w2", "dep_w2", "b2"))
        head_w1, head_b1, dep_w1, dep_b1, bil, head_w2, dep_w2, b2 = params
        *lead, n = tokens
        q, k = self.config.pair_hidden, len(REL_LABELS)
        weight = np.concatenate((head_w1.data, dep_w1.data), axis=1)
        sides = relu_forward(affine_forward(rows, weight,
                                            np.concatenate((head_b1.data, dep_b1.data))))
        head_rows, dep_rows = sides[:, :q], sides[:, q:]
        h, d = head_rows.reshape(*lead, n, q), dep_rows.reshape(*lead, n, q)
        # Each side as (..., 1, n, q) broadcasts against the (4, q, q) forms:
        # one product per side gives the (..., 4, n, n) planes.
        with_forms = h[..., None, :, :] @ bil.data
        planes = with_forms @ d[..., None, :, :].swapaxes(-1, -2)
        planes += np.swapaxes(h @ head_w2.data, -1, -2)[..., :, None]
        planes += np.swapaxes(d @ dep_w2.data, -1, -2)[..., None, :]
        planes += b2.data[:, None, None]

        def back(g_planes):
            d_with_forms = g_planes @ d[..., None, :, :]
            d_head_term = g_planes.sum(axis=-1).swapaxes(-1, -2)
            d_dep_term = g_planes.sum(axis=-2).swapaxes(-1, -2)
            d_h = (d_with_forms @ np.swapaxes(bil.data, -1, -2)).sum(axis=-3) \
                + d_head_term @ head_w2.data.T
            d_d = (np.swapaxes(g_planes, -1, -2) @ with_forms).sum(axis=-3) \
                + d_dep_term @ dep_w2.data.T
            per_form = np.moveaxis(d_with_forms, -3, 0).reshape(k, -1, q)
            d_sides = np.concatenate((d_h.reshape(-1, q), d_d.reshape(-1, q)), axis=1)
            d_rows, d_weight, d_bias = affine_backward(d_sides * (sides > 0), rows, weight)
            d_head_term = d_head_term.reshape(-1, k)
            return d_rows, [(head_w1, d_weight[:, :q]), (head_b1, d_bias[:q]),
                            (dep_w1, d_weight[:, q:]), (dep_b1, d_bias[q:]),
                            (bil, head_rows.T @ per_form), (head_w2, head_rows.T @ d_head_term),
                            (dep_w2, dep_rows.T @ d_dep_term.reshape(-1, k)),
                            (b2, d_head_term.sum(axis=0))]

        return planes, back, params

    def relation_probs(self, hidden: Tensor) -> Tensor:
        """(..., n, n, 4) distributions over ordered token pairs, i = j
        included, for (..., n, dim) hidden states, as one node: the softmax
        over the label planes of ``_pair_planes``, whose backward also runs
        on planes. The result is a view of the planes with the label axis
        last. Every side value lands in the logits and a non-finite logit
        turns its distribution NaN, so nothing non-finite drops out of the
        result."""
        planes, planes_back, params = self._pair_planes(self._rows(hidden), hidden.shape[:-1])
        probs = softmax_forward(planes, axis=-3)

        def back(g):
            d_rows, parts = planes_back(softmax_backward(
                probs, np.ascontiguousarray(np.moveaxis(g, -1, -3)), axis=-3))
            return [(hidden, d_rows.reshape(hidden.shape))] + parts

        return Tensor(np.moveaxis(probs, -3, -1), _parents=(hidden, *params), _backward=back,
                      _op="pair_scorer")

    # -- loss ------------------------------------------------------------------

    def loss(self, hidden: Tensor, gold: GoldPositions,
             masks: LossMasks) -> tuple[float, float, Tensor]:
        """The tagging and parsing losses of the three heads on (..., n, dim)
        hidden states, and their sum as one node, from logits.

        Each head's loss is ``cross_entropy_forward`` of its logits, the
        taggers' (N, 3) rows and the pair scorer's (..., 4, n, n) label
        planes, at the positions of ``gold`` and over ``masks``. Tagging
        is the sum of the two taggers' losses, and the node's value is
        tagging plus parsing. Its backward starts each head at
        ``(softmax - onehot) * mask * g / count`` and runs the head's
        logit-side backward; the three gradients of the rows add up."""
        rows = self._rows(hidden)
        heads = [self._tag_logits(rows, "aspect"), self._tag_logits(rows, "opinion"),
                 self._pair_planes(rows, hidden.shape[:-1])]
        reads = [(gold.aspect, masks.tokens, masks.token_count),
                 (gold.opinion, masks.tokens, masks.token_count),
                 (gold.relations, masks.cells, masks.cell_count)]
        values, probs = zip(*(cross_entropy_forward(logits, *read, axis=axis)
                              for (logits, _, _), read, axis in zip(heads, reads, (-1, -1, -3))))
        tagging, parsing = values[0] + values[1], values[2]

        def back(g):
            d_rows, parts = None, []
            for (_, logits_back, _), p, read in zip(heads, probs, reads):
                d, head_parts = logits_back(cross_entropy_backward(p, *read, g))
                d_rows = d if d_rows is None else d_rows + d
                parts += head_parts
            return [(hidden, d_rows.reshape(hidden.shape))] + parts

        params = [param for _, _, head_params in heads for param in head_params]
        return float(tagging), float(parsing), Tensor(
            tagging + parsing, _parents=(hidden, *params), _backward=back, _op="joint_loss")


@dataclass(frozen=True)
class GoldPositions:
    """A padded batch's gold labels as ``TripletParser.loss`` reads them:
    the flat position of each cell's gold logit in the taggers' (N, 3)
    logit rows and in the pair scorer's (..., 4, n, n) label planes."""

    aspect: np.ndarray
    opinion: np.ndarray
    relations: np.ndarray

    @classmethod
    def build(cls, aspect, opinion, relations) -> GoldPositions:
        """From the (..., n) tag and (..., n, n) relation class indices of
        the padded batch."""
        *lead, n = np.shape(aspect)
        tag_rows = np.arange(0, math.prod(lead) * n * len(TAGS), len(TAGS)).reshape(*lead, n)
        planes = np.arange(0, math.prod(lead) * len(REL_LABELS), len(REL_LABELS))
        planes = planes.reshape(*lead, 1, 1)
        within = np.arange(n * n).reshape(n, n)
        return cls(aspect=(tag_rows + aspect).ravel(), opinion=(tag_rows + opinion).ravel(),
                   relations=((planes + relations) * (n * n) + within).ravel())


@dataclass(frozen=True)
class LossMasks:
    """A padded batch's token and cell masks as ``TripletParser.loss``
    reads them: shaped to broadcast against the taggers' (N, 3) logit rows
    and the pair scorer's (..., 4, n, n) label planes, with their counts
    of real cells."""

    tokens: np.ndarray
    cells: np.ndarray
    token_count: int
    cell_count: int

    @classmethod
    def build(cls, tokens) -> LossMasks:
        """From the (..., n) token mask of the padded batch; a cell is real
        when both its tokens are."""
        tokens = np.asarray(tokens, dtype=bool)
        cells = tokens[..., :, None] & tokens[..., None, :]
        return cls(tokens=tokens.reshape(-1, 1), cells=cells[..., None, :, :],
                   token_count=int(np.count_nonzero(tokens)),
                   cell_count=int(np.count_nonzero(cells)))


# -- decoding ------------------------------------------------------------


def spans_from_tags(tags: list[int]) -> list[Span]:
    """Spans from B/I/O tag ids (``TAG_B``, ``TAG_I``, ``TAG_O``), as an
    argmax's ``tolist()`` gives them; a stray I opens a span (relaxed
    rule)."""
    spans: list[Span] = []
    start = None
    for i, tag in enumerate(tags):
        if tag == TAG_I:
            if start is None:
                start = i
            continue
        if start is not None:
            spans.append(Span(start, i - 1))
        start = i if tag == TAG_B else None
    if start is not None:
        spans.append(Span(start, len(tags) - 1))
    return spans


def decode_bio(tags) -> list[Span]:
    """Spans from a B/I/O tag string list; see ``spans_from_tags``."""
    for tag in tags:
        if tag not in TAGS:
            raise ValidationError(f"unknown tag {tag!r}")
    return spans_from_tags([TAGS.index(tag) for tag in tags])


def decode_grid(aspects, opinions, relation_map: SentimentRelationMap) -> set[Triplet]:
    """Majority vote over the map cells indexed by each span pair.

    Every (aspect token, opinion token) cell votes in both directions,
    2 * |a| * |o| votes in total. NONE loses any tie against a sentiment
    label; sentiment ties break by the larger summed probability mass over
    the same cells, then by the fixed order POS > NEG > NEU. A NONE winner
    suppresses the pair; identical spans are never paired. Votes are
    counted on a list copy of the label map, by integer span bounds.
    """
    n = relation_map.n
    labels = relation_map.labels.tolist()
    triplets: set[Triplet] = set()
    for aspect in aspects:
        a0, a1 = aspect.start, aspect.end + 1
        for opinion in opinions:
            o0, o1 = opinion.start, opinion.end + 1
            if a0 == o0 and a1 == o1:
                continue
            if a1 > n or o1 > n:
                raise ValidationError("span outside the relation map")
            votes = []
            for i in range(a0, a1):
                votes += labels[i][o0:o1]
            for j in range(o0, o1):
                votes += labels[j][a0:a1]
            if 2 * votes.count(_NONE) > len(votes):
                continue  # a NONE majority wins outright
            counts = [votes.count(label) for label in range(len(REL_LABELS))]
            top = max(counts)
            candidates = [label for label, count in enumerate(counts) if count == top]
            winner = (candidates[0] if len(candidates) == 1
                      else _break_tie(candidates, aspect, opinion, relation_map.probs))
            if winner != _NONE:
                triplets.add(Triplet(aspect, opinion, REL_LABELS[winner]))
    return triplets


def _break_tie(candidates: list[int], aspect: Span, opinion: Span, probs: np.ndarray) -> int:
    """The winner among labels tied on votes: NONE drops out, then the
    larger probability mass over the pair's cells, then POS > NEG > NEU.
    The mass is one ordered sum over the forward cells, then the reversed
    ones; a pairwise or numpy sum could turn an exact tie into a win."""
    if _NONE in candidates:
        candidates.remove(_NONE)
    if len(candidates) > 1:
        cells = [(i, j) for i in aspect.tokens() for j in opinion.tokens()]
        cells += [(j, i) for i, j in cells]
        mass = {c: sum(probs[i, j, c] for i, j in cells) for c in candidates}
        best = max(mass.values())
        candidates = [c for c in candidates if mass[c] == best]
    return min(candidates, key=_PREFERENCE.index)


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
    labels = np.array(labels, dtype=np.int64)
    n = labels.shape[0]
    relation_map = SentimentRelationMap(probs=np.zeros((n, n, len(REL_LABELS))), labels=labels)
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    relation_map.probs[rows, cols, labels] = 1.0
    return relation_map


def gold_tag_strings(targets: np.ndarray) -> list[str]:
    return [TAGS[i] for i in targets]
