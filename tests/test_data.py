"""Records, preprocessing, splitting, vocabulary, statistics."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aste.cli import main
from aste.data import (
    END_ID,
    PAD_ID,
    SENTIMENTS,
    START_ID,
    UNK_ID,
    Corpus,
    Sentence,
    Span,
    Triplet,
    Vocabulary,
    convert_triple_format,
    numbered_lines,
    parse_record,
    preprocess,
    read_corpus_file,
    serialize_record,
    split_corpus,
    stats,
)
from aste.errors import ParseError, ValidationError
from aste.synth import random_gold_sentences


class TestParseRecord:
    def test_basic_record(self):
        line = ('{"tokens": ["Great", "food"], "triplets": '
                '[{"aspect": [1, 1], "opinion": [0, 0], "sentiment": "POS"}]}')
        sentence = parse_record(line)
        assert sentence.tokens == ["Great", "food"]
        assert sentence.triplets == [Triplet(Span(1, 1), Span(0, 0), "POS")]

    def test_inverted_span_rejected(self):
        line = ('{"tokens": ["a", "b"], "triplets": '
                '[{"aspect": [1, 0], "opinion": [0, 0], "sentiment": "POS"}]}')
        with pytest.raises(ParseError):
            parse_record(line, line_no=7)

    def test_missing_triplets_field_means_empty(self):
        assert parse_record('{"tokens": ["a"]}').triplets == []

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            parse_record('{"tokens": ["a"], "label": 1}')

    def test_bad_sentiment(self):
        line = ('{"tokens": ["a", "b"], "triplets": '
                '[{"aspect": [0, 0], "opinion": [1, 1], "sentiment": "MEH"}]}')
        with pytest.raises(ParseError):
            parse_record(line)

    def test_span_outside_sentence(self):
        line = ('{"tokens": ["a"], "triplets": '
                '[{"aspect": [0, 0], "opinion": [1, 1], "sentiment": "POS"}]}')
        with pytest.raises(ParseError):
            parse_record(line)

    def test_heads_length_checked(self):
        with pytest.raises(ParseError):
            parse_record('{"tokens": ["a", "b"], "heads": [-1]}')

    @pytest.mark.parametrize("heads, message", [
        ('[-1, "x"]', "neither -1 nor a token index"),
        ("[-1, 0.0]", "neither -1 nor a token index"),
        ("[-1, true]", "neither -1 nor a token index"),
        ("[-1, 7]", "neither -1 nor a token index"),
        ("[-2, 0]", "neither -1 nor a token index"),
        ("[-1, 1]", "token 1 is its own head"),
        ("5", "heads must be a list"),
        ('"ab"', "heads must be a list"),
    ])
    def test_malformed_heads_rejected_with_line_number(self, heads, message):
        with pytest.raises(ParseError, match=f"line 4: .*{message}"):
            parse_record(f'{{"tokens": ["a", "b"], "heads": {heads}}}', line_no=4)

    def test_well_formed_heads_accepted(self):
        assert parse_record('{"tokens": ["a", "b", "c"], "heads": [1, -1, 1]}').heads == [1, -1, 1]
        assert parse_record('{"tokens": [], "heads": []}').heads == []

    def test_error_names_line_number(self):
        with pytest.raises(ParseError, match="line 42"):
            parse_record("not json", line_no=42)


HUGE = "x" * 1_000_000
OK_LINE = '{"tokens": ["a", "b"], "triplets": []}'


def nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("record", [
    {"tokens": ["a", "b"], "triplets": [{"aspect": [0, 0], "opinion": [1, 1], "sentiment": HUGE}]},
    {"tokens": ["a", "b"],
     "triplets": [{"aspect": [[0] * 100_000, 0], "opinion": [1, 1], "sentiment": "POS"}]},
    {"tokens": ["a", "b"], "heads": [-1, HUGE]},
    {"tokens": ["a", "b"], HUGE: 1},
    {"tokens": ["a", "b"], "triplets": [{"aspect": [0, 0], "opinion": [1, 1],
                                         "sentiment": {HUGE: [HUGE] * 10}}]},
    {"tokens": ["a", "b"],
     "triplets": [{"aspect": [0, nested(500)], "opinion": [1, 1], "sentiment": "POS"}]},
], ids=["huge-sentiment", "huge-span-bound", "huge-head", "huge-field-name", "huge-dict",
        "deep-span-bound"])
def test_error_messages_are_bounded(capsys, tmp_path, record):
    """A huge or deeply nested value is echoed shortened: the ParseError
    names the line and stays short, and so does ``aste stats``'s message."""
    line = json.dumps(record)
    with pytest.raises(ParseError, match="^line 3: ") as caught:
        parse_record(line, line_no=3)
    assert len(str(caught.value)) < 300
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{OK_LINE}\n{OK_LINE}\n{line}\n", encoding="utf-8")
    assert main(["stats", "--train", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("aste: line 3: ") and err.count("\n") == 1 and len(err) < 300


SCALARS = (st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20)
# Values far longer than an error message may be.
LARGE_VALUES = (st.text(min_size=400, max_size=2000)
                | st.lists(st.integers(), min_size=200, max_size=1000)
                | st.dictionaries(st.text(min_size=300, max_size=600), st.integers(),
                                  min_size=1, max_size=3)
                | st.integers(0, 400).map(nested))


@st.composite
def records(draw, values=JSON_VALUES):
    """A well-formed record with up to two of its values, at any depth,
    replaced by draws from ``values`` (arbitrary JSON by default): the
    fuzzer gets past the first checks."""
    tokens = draw(st.lists(st.text(max_size=4), min_size=2, max_size=6))
    if draw(st.integers(0, 9)) == 0:
        tokens[0] = draw(st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2))
    index = st.integers(0, len(tokens) - 1)

    def span():
        return sorted([draw(index), draw(index)])

    record = {"tokens": tokens, "triplets": [
        {"aspect": span(), "opinion": span(), "sentiment": draw(st.sampled_from(SENTIMENTS))}
        for _ in range(draw(st.integers(0, 3)))]}
    if draw(st.booleans()):
        record["heads"] = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, len(tokens))]
    slots = []

    def collect(node):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            slots.append((node, key))
            if isinstance(child, (dict, list)):
                collect(child)

    collect(record)
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(values)
    return record


def assert_sentence_or_parse_error(line):
    """``parse_record`` gives a Sentence that survives writing and reading
    back, with integer spans inside it, or a ParseError naming the line."""
    try:
        sentence = parse_record(line, line_no=9)
    except ParseError as exc:
        assert exc.line_no == 9 and str(exc).startswith("line 9: ")
        assert len(str(exc)) < 300
        return
    text = serialize_record(sentence)
    text.encode("utf-8")
    assert parse_record(text) == sentence
    for triplet in sentence.triplets:
        for span in (triplet.aspect, triplet.opinion):
            assert type(span.start) is int and type(span.end) is int
            assert 0 <= span.start <= span.end < len(sentence)


class TestParseRecordFuzz:
    @settings(max_examples=300, deadline=None, database=None)
    @given(JSON_VALUES)
    def test_json_values(self, value):
        assert_sentence_or_parse_error(json.dumps(value))

    @settings(max_examples=300, deadline=None, database=None)
    @given(records())
    def test_damaged_records(self, record):
        assert_sentence_or_parse_error(json.dumps(record))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.text())
    def test_text_lines(self, line):
        assert_sentence_or_parse_error(line)

    @settings(max_examples=100, deadline=None, database=None)
    @given(records(LARGE_VALUES))
    def test_damaged_records_with_large_values(self, record):
        assert_sentence_or_parse_error(json.dumps(record))


class TestNonUtf8Lines:
    VALID = b'{"tokens": ["a", "b"]}'

    def test_arbitrary_byte_lines(self, tmp_path):
        """Lines of arbitrary bytes, valid records and blank lines: reading
        either gives a sentence per non-blank line or raises ParseError, and
        when the first non-blank line that is not a valid record is not
        UTF-8, the error names that line."""
        # \r and \n end lines in text mode; they only separate lines here.
        line = st.binary(max_size=12).map(lambda raw: raw.replace(b"\n", b"").replace(b"\r", b""))
        names = itertools.count()

        @settings(max_examples=300, deadline=None, database=None)
        @given(st.lists(st.one_of(st.just(self.VALID), st.just(b""), line), max_size=8))
        def check(lines):
            # A fresh file per example: replacing one file is slow on some
            # file systems.
            path = tmp_path / f"{next(names)}.jsonl"
            path.write_bytes(b"".join(raw + b"\n" for raw in lines))
            blank = [not raw.decode("utf-8", "surrogateescape").strip() for raw in lines]
            first_bad = next((no for no, raw in enumerate(lines, start=1)
                              if not blank[no - 1] and raw != self.VALID), None)
            try:
                sentences = read_corpus_file(path)
            except ParseError as exc:
                assert exc.line_no == first_bad
                try:
                    lines[first_bad - 1].decode("utf-8")
                except UnicodeDecodeError:
                    assert str(exc) == f"line {first_bad}: the line is not UTF-8 text"
                return
            assert len(sentences) == blank.count(False)
            assert [no for no, _ in numbered_lines(path)] == list(range(1, len(lines) + 1))

        check()


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        for sentence in random_gold_sentences(50, seed=1):
            recovered = parse_record(serialize_record(sentence))
            assert recovered.tokens == sentence.tokens
            assert recovered.triplets == sentence.triplets
            assert recovered.heads == sentence.heads

    def test_byte_stable_field_order(self):
        sentence = Sentence(
            tokens=["a", "b"], heads=[-1, 0],
            triplets=[Triplet(Span(0, 0), Span(1, 1), "NEU")],
        )
        once = serialize_record(sentence)
        twice = serialize_record(parse_record(once))
        assert once == twice
        assert list(json.loads(once)) == ["tokens", "heads", "triplets"]


def sentence_with(n_tokens, n_triplets=1, aspect_len=1, opinion_len=1):
    tokens = [f"w{i}" for i in range(n_tokens)]
    triplets = []
    cursor = 0
    for _ in range(n_triplets):
        a = Span(cursor, cursor + aspect_len - 1)
        o = Span(cursor + aspect_len, cursor + aspect_len + opinion_len - 1)
        triplets.append(Triplet(a, o, "POS"))
        cursor = o.end + 1
    return Sentence(tokens=tokens, triplets=triplets)


class TestPreprocess:
    def test_short_example_removed(self):
        kept, report = preprocess([sentence_with(3)])
        assert kept == [] and report.removed_too_short == 1

    def test_long_example_removed(self):
        kept, report = preprocess([sentence_with(130)])
        assert kept == [] and report.removed_too_long == 1

    def test_annotation_less_removed(self):
        kept, report = preprocess([Sentence(tokens=["a"] * 10)])
        assert kept == [] and report.removed_no_annotations == 1

    def test_long_aspect_triplet_dropped_example_kept(self):
        sentence = sentence_with(30, n_triplets=2, aspect_len=9)
        kept, report = preprocess([sentence])
        assert report.triplets_dropped_long_aspect == 2
        assert report.removed_emptied == 1
        mixed = Sentence(
            tokens=["w"] * 30,
            triplets=[
                Triplet(Span(0, 8), Span(9, 9), "POS"),   # 9-token aspect: dropped
                Triplet(Span(10, 10), Span(11, 11), "NEG"),
            ],
        )
        kept, report = preprocess([mixed])
        assert len(kept) == 1
        assert kept[0].triplets == [Triplet(Span(10, 10), Span(11, 11), "NEG")]
        assert report.triplets_dropped_long_aspect == 1

    def test_long_opinion_triplet_dropped(self):
        sentence = Sentence(
            tokens=["w"] * 40,
            triplets=[Triplet(Span(0, 0), Span(1, 17), "POS")],  # 17-token opinion
        )
        kept, report = preprocess([sentence])
        assert kept == []
        assert report.triplets_dropped_long_opinion == 1
        assert report.removed_emptied == 1

    def test_boundaries_kept(self):
        four = sentence_with(4)
        with_128 = sentence_with(128)
        eight_aspect = Sentence(
            tokens=["w"] * 30, triplets=[Triplet(Span(0, 7), Span(8, 8), "POS")]
        )
        sixteen_opinion = Sentence(
            tokens=["w"] * 30, triplets=[Triplet(Span(0, 0), Span(1, 16), "POS")]
        )
        kept, report = preprocess([four, with_128, eight_aspect, sixteen_opinion])
        assert len(kept) == 4 and report.kept == 4

    def test_idempotent(self):
        raw = [
            sentence_with(3), sentence_with(10), sentence_with(130),
            Sentence(tokens=["a"] * 12),
            Sentence(tokens=["w"] * 30, triplets=[Triplet(Span(0, 8), Span(9, 9), "POS")]),
        ]
        once, _ = preprocess(raw)
        twice, report = preprocess(once)
        assert [s.tokens for s in twice] == [s.tokens for s in once]
        assert report.kept == len(once)
        assert report.removed_no_annotations == 0
        assert report.triplets_dropped_long_aspect == 0


class TestSplit:
    def test_1000_split(self):
        corpus = split_corpus(random_gold_sentences(1000, seed=2), seed=0)
        assert (len(corpus.train), len(corpus.dev), len(corpus.test)) == (700, 100, 200)

    def test_minimum_split(self):
        corpus = split_corpus(random_gold_sentences(10, seed=3), seed=0)
        assert (len(corpus.train), len(corpus.dev), len(corpus.test)) == (7, 1, 2)

    def test_deterministic(self):
        sentences = random_gold_sentences(40, seed=4)
        a = split_corpus(sentences, seed=9)
        b = split_corpus(sentences, seed=9)
        assert [s.tokens for s in a.train] == [s.tokens for s in b.train]

    def test_partition_preserves_multiset(self):
        sentences = random_gold_sentences(53, seed=5)
        corpus = split_corpus(sentences, seed=1)
        combined = sorted(
            serialize_record(s) for s in corpus.train + corpus.dev + corpus.test
        )
        assert combined == sorted(serialize_record(s) for s in sentences)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            split_corpus(random_gold_sentences(9, seed=6), seed=0)


class TestVocabulary:
    def test_reserved_plus_content(self):
        vocab = Vocabulary.build([Sentence(tokens=["a", "b", "a"])], min_count=1)
        assert len(vocab) == 4 + 2
        assert (PAD_ID, UNK_ID, START_ID, END_ID) == (0, 1, 2, 3)

    def test_unseen_token_maps_to_unknown(self):
        vocab = Vocabulary.build([Sentence(tokens=["a"])])
        assert vocab.encode(["zzz"])[0] == UNK_ID

    def test_frequency_then_lexicographic_order(self):
        vocab = Vocabulary.build([Sentence(tokens=["b", "b", "c", "a", "c", "b"])])
        assert vocab.token_to_id["b"] == 4
        assert vocab.token_to_id["c"] == 5
        assert vocab.token_to_id["a"] == 6

    def test_min_count_filters(self):
        vocab = Vocabulary.build([Sentence(tokens=["a", "a", "b"])], min_count=2)
        assert "b" not in vocab.token_to_id
        assert vocab.encode(["b"])[0] == UNK_ID

    def test_id_list_round_trip(self):
        vocab = Vocabulary.build([Sentence(tokens=["x", "y"])])
        rebuilt = Vocabulary.from_token_list(vocab.id_list())
        assert rebuilt.token_to_id == vocab.token_to_id

    def test_empty_split_rejected(self):
        with pytest.raises(ValidationError):
            Vocabulary.build([])


class TestStats:
    def test_triplets_per_sentence(self):
        corpus = Corpus(name="c", train=[sentence_with(8, 1), sentence_with(12, 3)])
        per_split = stats(corpus)
        assert per_split["train"].triplets_per_sentence == 2.0
        assert per_split["train"].sentences == 2

    def test_empty_split_zeros(self):
        per_split = stats(Corpus(name="c"))
        assert per_split["dev"].sentences == 0
        assert per_split["dev"].triplets_per_sentence == 0.0

    def test_published_shape_fixture(self):
        # 19,485 sentences carrying 38,050 triplets: mean rounds to 1.95
        base = sentence_with(6, 1)
        extra = sentence_with(8, 2)
        n_extra = 38050 - 19485
        sentences = [extra] * n_extra + [base] * (19485 - n_extra)
        per_split = stats(Corpus(name="large", train=sentences))
        assert per_split["train"].sentences == 19485
        assert per_split["train"].triplets == 38050
        assert round(per_split["train"].triplets_per_sentence, 2) == 1.95


class TestConverter:
    def test_good_line(self):
        line = "Great food but the service was dreadful ! ####[([1], [0], 'POS'), ([4], [6], 'NEG')]"
        sentences, failures = convert_triple_format([line])
        assert failures == []
        assert sentences[0].tokens[1] == "food"
        assert sentences[0].triplets[0] == Triplet(Span(1, 1), Span(0, 0), "POS")

    def test_multi_token_spans(self):
        line = "the battery life is short ####[([1,2], [4], 'NEG')]"
        sentences, failures = convert_triple_format([line])
        assert sentences[0].triplets[0].aspect == Span(1, 2)

    def test_non_contiguous_indices_reported(self):
        line = "a b c d ####[([0,2], [3], 'POS')]"
        sentences, failures = convert_triple_format([line])
        assert sentences == []
        assert len(failures) == 1 and "line 1" in failures[0]

    def test_missing_separator_reported(self):
        sentences, failures = convert_triple_format(["just a sentence"])
        assert sentences == [] and len(failures) == 1

    def test_failures_carry_line_numbers(self):
        lines = ["a b ####[([0], [1], 'POS')]", "broken", "c d ####[([0], [1], 'NEU')]"]
        sentences, failures = convert_triple_format(lines)
        assert len(sentences) == 2
        assert "line 2" in failures[0]


class TestRecordTypes:
    def test_identical_spans_rejected(self):
        with pytest.raises(ValidationError):
            Triplet(Span(0, 0), Span(0, 0), "POS")

    def test_span_ordering_validated(self):
        with pytest.raises(ValidationError):
            Span(3, 1)

    def test_triplet_hashable_set_semantics(self):
        a = Triplet(Span(0, 0), Span(1, 1), "POS")
        b = Triplet(Span(0, 0), Span(1, 1), "POS")
        assert {a} == {b}
