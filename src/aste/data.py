"""Corpus records, serialization, preprocessing, and vocabulary.

The canonical corpus format is one JSON object per line, UTF-8:

    {"tokens": [...], "heads": [...], "triplets": [
        {"aspect": [a0, a1], "opinion": [o0, o1], "sentiment": "POS"}]}

Spans are 0-based inclusive. ``heads`` is optional (per-token head index,
-1 for the root) and carries the dependency structure when one is used.
A converter ingests the community triple-annotation text format
(``sentence####[([..], [..], 'POS'), ...]``).
"""

from __future__ import annotations

import ast
import json
import reprlib
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError, ValidationError

SENTIMENTS = ("POS", "NEG", "NEU")
# train/dev/test shares of split_corpus.
SPLIT_RATIOS = (0.7, 0.1, 0.2)

# Reserved vocabulary ids; content tokens start after these.
PAD_ID = 0
UNK_ID = 1
START_ID = 2
END_ID = 3
NUM_RESERVED = 4
RESERVED_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")


# Error messages echo input values through _brief, so a huge or deeply
# nested value cannot blow up a message.
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother = 2, 40, 40
_BRIEF_LEN = 60


def _brief(value) -> str:
    """``repr(value)``, shortened to at most ``_BRIEF_LEN`` characters."""
    return _cut(_REPR.repr(value), _BRIEF_LEN)


def _cut(text: str, limit: int) -> str:
    """``text``, shortened to at most ``limit`` characters."""
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _is_index(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, order=True)
class Span:
    """Inclusive token span ``[start, end]``."""

    start: int
    end: int

    def __post_init__(self):
        if not (_is_index(self.start) and _is_index(self.end) and 0 <= self.start <= self.end):
            raise ValidationError(f"bad span ({_brief(self.start)}, {_brief(self.end)})")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def tokens(self) -> range:
        return range(self.start, self.end + 1)


@dataclass(frozen=True, order=True)
class Triplet:
    """An aspect span, an opinion span, and their sentiment."""

    aspect: Span
    opinion: Span
    sentiment: str

    def __post_init__(self):
        if self.sentiment not in SENTIMENTS:
            raise ValidationError(f"bad sentiment {_brief(self.sentiment)}")
        if self.aspect == self.opinion:
            raise ValidationError("aspect and opinion spans may not be identical")


@dataclass
class Sentence:
    tokens: list[str]
    triplets: list[Triplet] = field(default_factory=list)
    heads: list[int] | None = None

    def __post_init__(self):
        n = len(self.tokens)
        if self.heads is not None:
            if not isinstance(self.heads, (list, tuple)):
                raise ValidationError("heads must be a list of integers")
            if len(self.heads) != n:
                raise ValidationError("heads length does not match token count")
            for token, head in enumerate(self.heads):
                if not _is_index(head) or not -1 <= head < n:
                    raise ValidationError(f"head {_brief(head)} of token {token} is neither -1 "
                                          f"nor a token index below {n}")
                if head == token:
                    raise ValidationError(f"token {token} is its own head")
        for t in self.triplets:
            if t.aspect.end >= n or t.opinion.end >= n:
                raise ValidationError(f"triplet span outside sentence of {n} tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def triplet_set(self) -> set[Triplet]:
        return set(self.triplets)


@dataclass
class Corpus:
    name: str
    train: list[Sentence] = field(default_factory=list)
    dev: list[Sentence] = field(default_factory=list)
    test: list[Sentence] = field(default_factory=list)

    def splits(self):
        return {"train": self.train, "dev": self.dev, "test": self.test}


# -- serialization ---------------------------------------------------------

_RECORD_FIELDS = {"tokens", "heads", "triplets"}


def parse_record(line: str, line_no: int = 1) -> Sentence:
    """Parse one canonical-format line into a validated Sentence."""
    try:
        raw = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError: an integer too long to convert, or
        # nesting deeper than the recursion limit.
        raise ParseError(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(raw, dict):
        raise ParseError(line_no, "record is not an object")
    unknown = set(raw) - _RECORD_FIELDS
    if unknown:
        raise ParseError(line_no, f"unknown fields {_brief(sorted(unknown))}")
    tokens = raw.get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError(line_no, "tokens must be a list of strings")
    try:
        "".join(tokens).encode("utf-8")
    except UnicodeEncodeError as exc:
        # A JSON escape can spell a lone surrogate, which no file can hold.
        raise ParseError(line_no, f"tokens are not valid text ({exc.reason})") from exc
    items = raw.get("triplets", [])
    if not isinstance(items, list):
        raise ParseError(line_no, "triplets must be a list")
    triplets = []
    for item in items:
        try:
            aspect = Span(*item["aspect"])
            opinion = Span(*item["opinion"])
            triplets.append(Triplet(aspect, opinion, item["sentiment"]))
        except (ValidationError, KeyError, TypeError) as exc:
            raise ParseError(line_no, f"bad triplet {_brief(item)}: {exc}") from exc
    heads = raw.get("heads")
    try:
        return Sentence(tokens=tokens, triplets=triplets, heads=heads)
    except ValidationError as exc:
        raise ParseError(line_no, str(exc)) from exc


def serialize_record(sentence: Sentence) -> str:
    """Inverse of parse_record; field order is fixed for byte-stable files."""
    record: dict = {"tokens": sentence.tokens}
    if sentence.heads is not None:
        record["heads"] = sentence.heads
    record["triplets"] = [
        {"aspect": [t.aspect.start, t.aspect.end],
         "opinion": [t.opinion.start, t.opinion.end],
         "sentiment": t.sentiment}
        for t in sentence.triplets
    ]
    return json.dumps(record, ensure_ascii=False)


def numbered_lines(path):
    """``(line number, line)`` for every line of a UTF-8 text file, blank
    lines counted. A line holding bytes that are not UTF-8 raises
    ParseError naming it, once the lines before it have been read."""
    # surrogateescape keeps each undecodable byte as a lone surrogate in
    # its own line, where encoding the line back finds it.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(line_no, "the line is not UTF-8 text") from None
            yield line_no, line


def read_corpus_file(path) -> list[Sentence]:
    return [parse_record(line, line_no) for line_no, line in numbered_lines(path) if line.strip()]


def write_corpus_file(path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sentences:
            handle.write(serialize_record(sentence) + "\n")


def convert_triple_format(lines) -> tuple[list[Sentence], list[str]]:
    """Convert the community ``sentence####[(...)]`` triple format.

    Triple index lists must be contiguous; each failure is reported with
    its line number instead of being silently skipped.
    """
    sentences: list[Sentence] = []
    failures: list[str] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        try:
            text, _, annotation = line.partition("####")
            if not annotation:
                raise ValueError("missing #### separator")
            tokens = text.split()
            triplets = []
            for aspect_idx, opinion_idx, sentiment in ast.literal_eval(annotation):
                aspect = _span_from_indices(aspect_idx)
                opinion = _span_from_indices(opinion_idx)
                triplets.append(Triplet(aspect, opinion, sentiment))
            sentences.append(Sentence(tokens=tokens, triplets=triplets))
        except (ValueError, SyntaxError, ValidationError, TypeError) as exc:
            failures.append(f"line {line_no}: {exc}")
    return sentences, failures


def _span_from_indices(indices) -> Span:
    indices = list(indices)
    if not indices:
        raise ValueError("empty index list")
    if indices != list(range(indices[0], indices[-1] + 1)):
        raise ValueError(f"non-contiguous span indices {_brief(indices)}")
    return Span(indices[0], indices[-1])


# -- preprocessing ----------------------------------------------------------

MIN_TOKENS = 4
MAX_TOKENS = 128
MAX_ASPECT_LEN = 8
MAX_OPINION_LEN = 16


@dataclass
class PreprocessReport:
    kept: int = 0
    removed_no_annotations: int = 0
    removed_too_short: int = 0
    removed_too_long: int = 0
    triplets_dropped_long_aspect: int = 0
    triplets_dropped_long_opinion: int = 0
    removed_emptied: int = 0

    def rows(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def preprocess(sentences) -> tuple[list[Sentence], PreprocessReport]:
    """Filter a raw corpus down to well-formed training examples.

    Drops annotation-less, under-4-token, and over-128-token examples;
    inside survivors drops triplets whose aspect exceeds 8 tokens or whose
    opinion exceeds 16; finally re-drops examples that lost all triplets.
    """
    report = PreprocessReport()
    kept: list[Sentence] = []
    for sentence in sentences:
        if not sentence.triplets:
            report.removed_no_annotations += 1
            continue
        if len(sentence) < MIN_TOKENS:
            report.removed_too_short += 1
            continue
        if len(sentence) > MAX_TOKENS:
            report.removed_too_long += 1
            continue
        surviving = []
        for t in sentence.triplets:
            if len(t.aspect) > MAX_ASPECT_LEN:
                report.triplets_dropped_long_aspect += 1
            elif len(t.opinion) > MAX_OPINION_LEN:
                report.triplets_dropped_long_opinion += 1
            else:
                surviving.append(t)
        if not surviving:
            report.removed_emptied += 1
            continue
        kept.append(Sentence(tokens=sentence.tokens, triplets=surviving, heads=sentence.heads))
    report.kept = len(kept)
    return kept, report


def split_corpus(sentences, seed: int, name: str = "corpus") -> Corpus:
    """Seeded uniform shuffle, then contiguous 70/10/20 cut.

    Split sizes use largest-remainder rounding so they always sum to the
    corpus size.
    """
    sentences = list(sentences)
    if len(sentences) < 10:
        raise ValidationError("need at least 10 examples to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sentences))
    shuffled = [sentences[i] for i in order]
    sizes = _largest_remainder(len(sentences), SPLIT_RATIOS)
    train = shuffled[:sizes[0]]
    dev = shuffled[sizes[0]:sizes[0] + sizes[1]]
    test = shuffled[sizes[0] + sizes[1]:]
    return Corpus(name=name, train=train, dev=dev, test=test)


def length_buckets(sentences, batch_size: int) -> list[list[int]]:
    """Indices of the sentences, sorted by (length, index) and cut into
    contiguous batches of ``batch_size``, so each batch pads little."""
    order = sorted(range(len(sentences)), key=lambda i: (len(sentences[i]), i))
    return [order[start:start + batch_size] for start in range(0, len(order), batch_size)]


def _largest_remainder(total: int, ratios) -> list[int]:
    exact = [total * r for r in ratios]
    sizes = [int(e) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    for _ in range(total - sum(sizes)):
        idx = max(range(len(ratios)), key=lambda i: remainders[i])
        sizes[idx] += 1
        remainders[idx] = -1.0
    return sizes


# -- vocabulary --------------------------------------------------------------


@dataclass
class Vocabulary:
    """Dense token-id map with reserved padding/unknown/start/end slots."""

    token_to_id: dict[str, int]

    @classmethod
    def build(cls, sentences, min_count: int = 1) -> "Vocabulary":
        if not sentences:
            raise ValidationError("cannot build a vocabulary from an empty split")
        counts: dict[str, int] = {}
        for sentence in sentences:
            for token in sentence.tokens:
                counts[token] = counts.get(token, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        mapping = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
        for token in ordered:
            if counts[token] >= min_count:
                mapping[token] = len(mapping)
        return cls(token_to_id=mapping)

    @classmethod
    def from_token_list(cls, tokens) -> "Vocabulary":
        return cls(token_to_id={tok: i for i, tok in enumerate(tokens)})

    def __len__(self) -> int:
        return len(self.token_to_id)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.token_to_id.get(t, UNK_ID) for t in tokens], dtype=np.int64)

    def id_list(self) -> list[str]:
        inverse = {i: t for t, i in self.token_to_id.items()}
        return [inverse[i] for i in range(len(inverse))]


# -- statistics --------------------------------------------------------------


@dataclass
class SplitStats:
    sentences: int
    triplets: int
    triplets_per_sentence: float
    tokens_per_sentence: float


def stats(corpus: Corpus) -> dict[str, SplitStats]:
    """Per-split sentence/triplet counts and their means."""
    out = {}
    for name, sentences in corpus.splits().items():
        n = len(sentences)
        t = sum(len(s.triplets) for s in sentences)
        tk = sum(len(s) for s in sentences)
        out[name] = SplitStats(
            sentences=n,
            triplets=t,
            triplets_per_sentence=t / n if n else 0.0,
            tokens_per_sentence=tk / n if n else 0.0,
        )
    return out


def stats_table(per_split: dict[str, SplitStats]) -> str:
    lines = ["split\tsentences\ttriplets\ttriplets_per_sentence\ttokens_per_sentence"]
    for name, s in per_split.items():
        lines.append(
            f"{name}\t{s.sentences}\t{s.triplets}"
            f"\t{s.triplets_per_sentence:.2f}\t{s.tokens_per_sentence:.2f}"
        )
    return "\n".join(lines) + "\n"


def warn_data(message: str) -> None:
    warnings.warn(message, stacklevel=2)
