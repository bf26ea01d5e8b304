"""Synthetic corpora: random gold fixtures and small learnable tasks.

Three generators:

* ``random_gold_sentences`` draws arbitrary sentences with mutually
  disjoint gold spans, so gold tags plus the gold relation map always
  decode back to the gold triplets. Used for round-trip checks.
* ``learnable_corpus`` builds sentences where span membership and
  sentiment follow directly from token identity; a tiny model can
  memorize it, which makes it a fit-for-purpose overfitting probe.
* ``proximity_corpus`` adds a distractor opinion word far from the
  aspect; only the nearby opinion is genuine. Telling the two apart
  needs relative-distance information, which is exactly what the
  attention bias supplies, so this corpus separates biased from
  unbiased encoders.
"""

from __future__ import annotations

import numpy as np

from .data import Corpus, Sentence, Span, Triplet

# "very" is reserved as the proximity trigger and must not occur as a filler.
FILLERS = (
    "the", "a", "on", "it", "was", "and", "so", "came", "with",
    "then", "we", "had", "there", "really", "for", "kind", "of",
)
ASPECT_WORDS = ("pizza", "service", "battery", "screen", "coffee", "staff", "keyboard", "soup")
# Second tokens of two-token aspects only ever appear span-internal, so
# span boundaries stay decidable from token identity alone.
ASPECT_TAILS = ("quality", "life", "texture", "portion")
OPINION_SENTIMENT = {
    "great": "POS", "lovely": "POS", "tasty": "POS",
    "awful": "NEG", "slow": "NEG", "broken": "NEG",
    "okay": "NEU", "plain": "NEU",
}
OPINION_WORDS = tuple(OPINION_SENTIMENT)


def _filler(rng: np.random.Generator) -> str:
    return FILLERS[rng.integers(0, len(FILLERS))]


def random_gold_sentences(count: int, seed: int = 0) -> list[Sentence]:
    """Sentences with one to three triplets of valid, mutually disjoint
    gold spans and random sentiments; no learnable structure intended."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(count):
        n = int(rng.integers(6, 16))
        tokens = [_filler(rng) for _ in range(n)]
        spans = _disjoint_spans(rng, n, wanted=2 * int(rng.integers(1, 4)))
        triplets = []
        for a, o in zip(spans[0::2], spans[1::2]):
            sentiment = ("POS", "NEG", "NEU")[rng.integers(0, 3)]
            triplets.append(Triplet(a, o, sentiment))
        sentences.append(Sentence(tokens=tokens, triplets=triplets))
    return sentences


def _disjoint_spans(rng: np.random.Generator, n: int, wanted: int) -> list[Span]:
    taken = np.zeros(n, dtype=bool)
    spans: list[Span] = []
    attempts = 0
    while len(spans) < wanted and attempts < 50:
        attempts += 1
        length = int(rng.integers(1, 3))
        if n - length < 0:
            continue
        start = int(rng.integers(0, n - length + 1))
        if taken[start:start + length].any():
            continue
        taken[start:start + length] = True
        spans.append(Span(start, start + length - 1))
    if len(spans) < 2:
        # Tiny sentences can fail the rejection sampling; fall back to
        # the two leading tokens.
        return [Span(0, 0), Span(1, 1)]
    if len(spans) % 2:
        spans.pop()
    return spans


def learnable_corpus(count: int = 50, seed: int = 0) -> Corpus:
    """Aspect and opinion words come from disjoint vocabularies and the
    sentiment is the opinion word's own polarity, so the task is
    memorizable from token identity. Train and dev are the same split:
    this corpus exists to check that the model can drive its training
    loss down to an exact fit."""
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(count):
        lead = [_filler(rng) for _ in range(int(rng.integers(1, 3)))]
        aspect_words = [ASPECT_WORDS[rng.integers(0, len(ASPECT_WORDS))]]
        if rng.random() < 0.4:
            aspect_words.append(ASPECT_TAILS[rng.integers(0, len(ASPECT_TAILS))])
        gap = [_filler(rng)] if rng.random() < 0.5 else []
        opinion_word = OPINION_WORDS[rng.integers(0, len(OPINION_WORDS))]
        tail = [_filler(rng) for _ in range(int(rng.integers(1, 3)))]
        tokens = lead + aspect_words + gap + [opinion_word] + tail
        a0 = len(lead)
        a1 = a0 + len(aspect_words) - 1
        o0 = a1 + 1 + len(gap)
        triplet = Triplet(Span(a0, a1), Span(o0, o0), OPINION_SENTIMENT[opinion_word])
        sentences.append(Sentence(tokens=tokens, triplets=[triplet]))
    return Corpus(name="learnable", train=sentences, dev=list(sentences))


TRIGGER = "very"
CANDIDATE_POLARITY = {"good": "POS", "fine": "POS", "bad": "NEG", "poor": "NEG"}
CANDIDATE_WORDS = tuple(CANDIDATE_POLARITY)


def proximity_sentence(rng: np.random.Generator, min_len: int, max_len: int) -> Sentence | None:
    n = int(rng.integers(min_len, max_len + 1))
    tokens = [_filler(rng) for _ in range(n)]
    slots: list[int] = []
    tries = 0
    while len(slots) < 3 and tries < 60:
        tries += 1
        p = int(rng.integers(1, n))
        if all(abs(p - q) > 2 for q in slots):
            slots.append(p)
    slots.sort()
    triggered = [bool(rng.random() < 0.5) for _ in slots]
    if not any(triggered):
        triggered[int(rng.integers(0, len(slots)))] = True
    used = {p for p in slots} | {p - 1 for p in slots}
    free = [p for p in range(n) if p not in used]
    if len(slots) < 2 or not free:
        return None
    aspect_pos = int(free[rng.integers(0, len(free))])
    tokens[aspect_pos] = ASPECT_WORDS[rng.integers(0, len(ASPECT_WORDS))]
    triplets = []
    for p, trig in zip(slots, triggered):
        word = CANDIDATE_WORDS[rng.integers(0, len(CANDIDATE_WORDS))]
        tokens[p] = word
        if trig:
            tokens[p - 1] = TRIGGER
            triplets.append(
                Triplet(Span(aspect_pos, aspect_pos), Span(p, p), CANDIDATE_POLARITY[word])
            )
    return Sentence(tokens=tokens, triplets=triplets)


def proximity_corpus(n_train: int = 48, n_dev: int = 24, seed: int = 7) -> Corpus:
    """Each sentence scatters a few polarity-carrying candidate words;
    only the ones immediately preceded by the trigger token are genuine
    opinions. Candidate identity alone cannot separate the two cases, a
    token only ever sees its own absolute position, and dev sentences run
    longer than train sentences so absolute-position shortcuts transfer
    poorly. Resolving the task hinges on left-adjacency, the kind of
    feature a relative-distance attention bias makes learnable."""
    rng = np.random.default_rng(seed)

    def draw(count: int, lo: int, hi: int) -> list[Sentence]:
        out: list[Sentence] = []
        while len(out) < count:
            sentence = proximity_sentence(rng, lo, hi)
            if sentence is not None:
                out.append(sentence)
        return out

    return Corpus(name="proximity", train=draw(n_train, 10, 13), dev=draw(n_dev, 13, 16))
