"""Model assembly and weight-file round trips."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aste.cli import main
from aste.data import Sentence, Vocabulary, write_corpus_file
from aste.encoder import Encoder, EncoderConfig
from aste.errors import ValidationError
from aste.model import PREDICT_BATCH, TripletModel, _param_count
from aste.numerics import no_grad
from aste.parser import TAGS, ParserConfig, SentimentRelationMap, decode_bio, decode_grid
from aste.structure import (
    DEPENDENCY,
    RELATIVE,
    StructureConfig,
    augmented_distance_matrix,
    random_tree_heads,
)
from aste.synth import learnable_corpus


def build_model(adapter_kind=None, seed=0):
    corpus = learnable_corpus(10, seed=1)
    vocab = Vocabulary.build(corpus.train)
    adapter = StructureConfig(tau=4, kind=adapter_kind) if adapter_kind else StructureConfig()
    config = EncoderConfig(vocab_size=len(vocab), dim=8, heads=2, layers=2,
                           ffn_dim=12, max_len=40, adapter=adapter)
    model = TripletModel(config, ParserConfig(tag_hidden=6, pair_hidden=5), vocab, seed=seed)
    return model, corpus


def mixed_length_batch(corpus, rng):
    """Sentences of several lengths, each with a random dependency tree."""
    by_length = {len(s): s for s in corpus.train + corpus.dev}
    assert len(by_length) >= 3
    return [
        Sentence(tokens=s.tokens, triplets=s.triplets, heads=random_tree_heads(len(s), rng))
        for s in by_length.values()
    ]


class TestForward:
    def test_shapes(self):
        model, corpus = build_model()
        batch = mixed_length_batch(corpus, np.random.default_rng(0))
        out = model.forward(batch)
        b, n = len(batch), max(len(s) for s in batch)
        assert out.aspect.shape == (b, n, 3)
        assert out.opinion.shape == (b, n, 3)
        assert out.relations.shape == (b, n, n, 4)
        single = model.forward([batch[0]])
        assert single.relations.shape == (1, len(batch[0]), len(batch[0]), 4)

    def test_padded_content_matches_unpadded(self):
        """The content rows of every sentence in a padded mixed-length
        batch equal that sentence's own batch-of-one pass."""
        for kind in (None, RELATIVE, DEPENDENCY):
            model, corpus = build_model(adapter_kind=kind, seed=4)
            if kind is not None:
                rng = np.random.default_rng(5)
                for table in model.encoder.adapter.tensors.values():
                    table.data[...] = rng.normal(0, 0.5, table.shape)
            batch = mixed_length_batch(corpus, np.random.default_rng(6))
            padded = model.forward(batch)
            for b, sentence in enumerate(batch):
                n = len(sentence)
                alone = model.forward([sentence])
                for name in ("aspect", "opinion"):
                    np.testing.assert_allclose(getattr(padded, name).data[b, :n],
                                               getattr(alone, name).data[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(padded.relations.data[b, :n, :n],
                                           alone.relations.data[0], rtol=0, atol=1e-12)

    def test_empty_batch_rejected(self):
        model, _ = build_model()
        with pytest.raises(ValidationError):
            model.forward([])

    def test_dependency_needs_heads(self):
        model, corpus = build_model(adapter_kind=DEPENDENCY)
        with pytest.raises(ValidationError):
            model.forward([corpus.train[0]])

    def test_dependency_forward_with_heads(self):
        model, _ = build_model(adapter_kind=DEPENDENCY)
        sentence = Sentence(tokens=["the", "pizza", "great"], heads=[1, -1, 1])
        out = model.forward([sentence])
        assert out.relations.shape == (1, 3, 3, 4)

    def test_vocab_size_checked(self):
        corpus = learnable_corpus(10, seed=1)
        vocab = Vocabulary.build(corpus.train)
        config = EncoderConfig(vocab_size=len(vocab) + 5, dim=8, heads=2,
                               layers=1, ffn_dim=12, max_len=40)
        with pytest.raises(ValidationError):
            TripletModel(config, ParserConfig(), vocab, seed=0)


def reference_predict(model, sentence):
    """Triplets from separate encoder, tagger and scorer calls."""
    ids = model.vocab.encode(sentence.tokens)
    distances = augmented_distance_matrix(len(sentence), model.encoder_config.adapter,
                                          heads=sentence.heads)
    hidden = model.encoder.encode(ids, distances=distances).content
    spans = [
        decode_bio([TAGS[i] for i in model.parser.tag_probs(hidden, which).data.argmax(axis=-1)])
        for which in ("aspect", "opinion")
    ]
    probs = model.parser.relation_probs(hidden).data
    return decode_grid(*spans, SentimentRelationMap(probs, probs.argmax(axis=-1)))


class TestPredict:
    @pytest.mark.parametrize("adapter_kind", [RELATIVE, DEPENDENCY])
    def test_matches_separately_computed_heads(self, adapter_kind):
        model, corpus = build_model(adapter_kind=adapter_kind, seed=2)
        rng = np.random.default_rng(1)
        for table in model.encoder.adapter.tensors.values():
            table.data[...] = rng.normal(0, 0.5, table.shape)
        # Larger parser weights make the argmaxes vary, so triplets come out.
        for _, tensor in model.parser.params.items():
            tensor.data *= 10.0
        sentences = [
            Sentence(tokens=s.tokens, heads=random_tree_heads(len(s), rng))
            for s in corpus.train + corpus.dev
        ]
        produced = 0
        for sentence in sentences:
            predicted = model.predict(sentence)
            assert predicted == reference_predict(model, sentence)
            produced += len(predicted)
        assert produced > 0


def varied_model(adapter_kind, seed):
    """A model whose decoding is not trivially empty: random bias tables
    and parser weights scaled up so the argmaxes vary."""
    model, corpus = build_model(adapter_kind=adapter_kind, seed=seed)
    rng = np.random.default_rng(seed)
    if adapter_kind is not None:
        for table in model.encoder.adapter.tensors.values():
            table.data[...] = rng.normal(0, 0.5, table.shape)
    for _, tensor in model.parser.params.items():
        tensor.data *= 10.0
    return model, corpus


class TestPredictCorpus:
    @pytest.mark.parametrize("adapter_kind", [None, RELATIVE, DEPENDENCY])
    def test_matches_sentence_by_sentence_predict(self, adapter_kind):
        """Length-bucketed batches decode each sentence as a batch of one
        does, on more sentences than one batch holds, in input order; a
        sentence without tokens decodes to no triplets."""
        model, corpus = varied_model(adapter_kind, seed=3)
        words = sorted({t for s in corpus.train for t in s.tokens})
        rng = np.random.default_rng(7)
        lengths = rng.integers(3, 31, size=PREDICT_BATCH * 2 + 5)
        sentences = [
            Sentence(tokens=[words[i] for i in rng.integers(0, len(words), n)],
                     heads=random_tree_heads(int(n), rng))
            for n in lengths
        ]
        sentences[5:5] = [Sentence(tokens=[], heads=[]), Sentence(tokens=[])]
        batched = model.predict_corpus(sentences)
        assert batched == [model.predict(s) for s in sentences]
        assert batched[5] == batched[6] == set()
        assert sum(len(t) for t in batched) > 0
        assert model.predict_corpus([]) == []

    @pytest.mark.parametrize("adapter_kind", [None, RELATIVE, DEPENDENCY])
    def test_batch_decode_matches_each_row_alone(self, adapter_kind):
        """``BatchForward.decode(lengths)`` on one padded mixed-length batch
        gives, for every row, what that sentence's own forward and decode
        give, and what separate encoder, tagger and scorer calls decode
        to; a row without tokens gives no triplets."""
        model, corpus = varied_model(adapter_kind, seed=5)
        rng = np.random.default_rng(8)
        sentences = [Sentence(tokens=s.tokens, heads=random_tree_heads(len(s), rng))
                     for s in mixed_length_batch(corpus, rng)]
        sentences.insert(1, Sentence(tokens=[], heads=[]))
        lengths = [len(s) for s in sentences]
        assert len(set(lengths)) > 2
        with no_grad():
            batched = model.forward(sentences).decode(lengths)
            alone = [model.forward([s]).decode([len(s)])[0] for s in sentences]
        assert batched == alone
        assert batched == [reference_predict(model, s) if len(s) else set() for s in sentences]
        assert sum(len(t) for t in batched) > 0

    def test_records_no_tape(self):
        model, corpus = build_model(adapter_kind=RELATIVE)
        outputs = []
        forward = model.forward

        def recording(batch, *args):
            outputs.append(forward(batch, *args))
            return outputs[-1]

        model.forward = recording
        model.predict_corpus(corpus.train[:3])
        assert outputs
        for out in outputs:
            for tensor in (out.aspect, out.opinion, out.relations):
                assert tensor._parents == () and not tensor.requires_grad
        # The tape is back once inference is done.
        assert forward(corpus.train[:1]).relations._parents != ()


class TestSnapshots:
    def test_snapshot_round_trip(self):
        model, corpus = build_model(adapter_kind=RELATIVE)
        sentence = corpus.train[0]
        before = model.forward([sentence]).aspect.data.copy()
        snapshot = model.state_snapshot()
        model.encoder.params["tok_emb"].data[...] += 1.0
        model.load_snapshot(snapshot)
        np.testing.assert_array_equal(model.forward([sentence]).aspect.data, before)

    def test_missing_key_rejected(self):
        model, _ = build_model()
        snapshot = model.state_snapshot()
        snapshot.pop("encoder")
        with pytest.raises(ValidationError, match="missing group encoder"):
            model.load_snapshot(snapshot)

    def test_wrong_size_rejected(self):
        model, _ = build_model()
        snapshot = model.state_snapshot()
        snapshot["parser"] = snapshot["parser"][:-1]
        with pytest.raises(ValidationError, match="size mismatch for group parser"):
            model.load_snapshot(snapshot)


class TestWeightFile:
    def test_save_load_round_trip(self, tmp_path):
        """Every parameter comes back bit for bit, so predictions match."""
        for kind in (RELATIVE, DEPENDENCY):
            model, corpus = varied_model(kind, seed=3)
            path = tmp_path / "weights.bin"
            model.save(path)
            loaded = TripletModel.load(path)
            assert loaded.vocab.token_to_id == model.vocab.token_to_id
            assert loaded.encoder_config == model.encoder_config
            assert loaded.parser_config == model.parser_config
            expected, got = model.state_snapshot(), loaded.state_snapshot()
            assert got.keys() == expected.keys()
            for name in expected:
                assert got[name].tobytes() == expected[name].tobytes()
            sentences = mixed_length_batch(corpus, np.random.default_rng(0))
            predicted = model.predict_corpus(sentences)
            assert any(predicted)
            assert loaded.predict_corpus(sentences) == predicted

    def test_rejects_non_weight_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError):
            TripletModel.load(path)

    def test_predictions_deterministic_after_reload(self, tmp_path):
        model, corpus = build_model(seed=9)
        path = tmp_path / "w.bin"
        model.save(path)
        a = TripletModel.load(path)
        b = TripletModel.load(path)
        sentence = corpus.train[2]
        assert a.predict(sentence) == b.predict(sentence)

    @pytest.mark.parametrize("adapter_kind", [None, RELATIVE, DEPENDENCY])
    def test_header_param_count_matches_the_built_buffers(self, adapter_kind):
        model, _ = build_model(adapter_kind=adapter_kind)
        assert _param_count(model.encoder_config, model.parser_config) == sum(
            group.buffer.size for group in model.param_groups())


def split_file(data: bytes):
    """A version-2 weight file's header, parsed, and its parameter bytes."""
    header_len, = struct.unpack("<I", data[12:16])
    return json.loads(data[16:16 + header_len]), data[16 + header_len:]


def sealed(header: bytes, payload: bytes) -> bytes:
    """A weight file of these parts whose checksum matches, so damage in
    them reaches the checks after the checksum."""
    body = struct.pack("<I", len(header)) + header + payload
    return b"ASTW" + struct.pack("<II", 2, zlib.crc32(body)) + body


class TestDamagedWeightFile:
    @pytest.fixture
    def saved(self, tmp_path):
        model, corpus = build_model(adapter_kind=RELATIVE, seed=6)
        path = tmp_path / "weights.bin"
        model.save(path)
        corpus_path = tmp_path / "dev.jsonl"
        write_corpus_file(corpus_path, corpus.dev)
        return path, corpus_path

    @staticmethod
    def cut_points(size):
        return [0, 3, 6, 10, 15, 200, size // 2, size - 100, size - 1]

    def test_truncated_file_raises_validation_error(self, saved):
        path, _ = saved
        data = path.read_bytes()
        for cut in self.cut_points(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValidationError):
                TripletModel.load(path)

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_truncated_file_exits_1_without_traceback(self, saved, tmp_path, capsys, command):
        path, corpus_path = saved
        data = path.read_bytes()
        extra = ["--out", str(tmp_path / "out.jsonl")] if command == "decode" else []
        for cut in self.cut_points(len(data)):
            path.write_bytes(data[:cut])
            code = main([command, "--weights", str(path), "--input", str(corpus_path)] + extra)
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("aste: ")
            assert "Traceback" not in err

    def test_damaged_header_raises_validation_error(self, saved):
        path, _ = saved
        header, payload = split_file(path.read_bytes())

        def edited(change):
            copy = json.loads(json.dumps(header))
            change(copy)
            return json.dumps(copy).encode()

        for raw, message in (
            (b"\xff" * 40, "unreadable"), (b"[" + b" " * 39, "unreadable"),
            (b"[" * 100_000, "unreadable"), (json.dumps({"encoder": {}}).encode(), "unreadable"),
            (edited(lambda h: h.pop("layout")), "unreadable"),
            # No longer matches the stored parameters.
            (edited(lambda h: h["encoder"].update(dim=10)), "header describes"),
            (edited(lambda h: h["layout"].reverse()), "layout does not match"),
            (edited(lambda h: h["encoder"].update(heads=2.0)), "sizes must be integers"),
            (edited(lambda h: h["encoder"].update(heads=True)), "sizes must be integers"),
            (edited(lambda h: h["encoder"]["adapter"].update(tau=4.0)), "sizes must be integers"),
            (edited(lambda h: h["parser"].update(tag_hidden=6.0)), "sizes must be integers"),
        ):
            path.write_bytes(sealed(raw, payload))
            with pytest.raises(ValidationError, match=message):
                TripletModel.load(path)

    def test_huge_header_key_gives_a_short_message(self, saved, tmp_path, capsys):
        path, corpus_path = saved
        header, payload = split_file(path.read_bytes())
        header["encoder"]["k" * 100_000] = 1
        path.write_bytes(sealed(json.dumps(header).encode(), payload))
        with pytest.raises(ValidationError, match="unreadable") as error:
            TripletModel.load(path)
        assert len(str(error.value)) < 300
        code = main(["decode", "--weights", str(path), "--input", str(corpus_path),
                     "--out", str(tmp_path / "out.jsonl")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("aste: ") and err.count("\n") == 1 and len(err) < 300

    def test_non_finite_weight_raises_validation_error(self, saved):
        path, _ = saved
        header, payload = split_file(path.read_bytes())
        raw = json.dumps(header).encode()
        for value in (float("nan"), float("inf")):
            for damaged, group in ((struct.pack("<d", value) + payload[8:], "encoder"),
                                   (payload[:-8] + struct.pack("<d", value), "parser")):
                path.write_bytes(sealed(raw, damaged))
                with pytest.raises(ValidationError, match=f"group {group} holds non-finite"):
                    TripletModel.load(path)

    def test_parameter_bytes_of_another_size_raise_validation_error(self, saved):
        """Behind a matching checksum, a short payload and trailing bytes
        are both caught by the size the header describes."""
        path, _ = saved
        header, payload = split_file(path.read_bytes())
        raw = json.dumps(header).encode()
        for damaged in (payload[:-8], payload[:-3], payload + b"\x00", payload + bytes(8)):
            path.write_bytes(sealed(raw, damaged))
            with pytest.raises(ValidationError, match="header describes"):
                TripletModel.load(path)

    def test_huge_header_size_fails_before_any_allocation(self, saved, tmp_path, capsys,
                                                           monkeypatch):
        path, corpus_path = saved
        header, payload = split_file(path.read_bytes())
        header["encoder"].update(dim=10**10, heads=1)
        path.write_bytes(sealed(json.dumps(header).encode(), payload))

        def must_not_build(*args, **kwargs):
            raise AssertionError("the encoder was built from an unchecked header")

        monkeypatch.setattr(Encoder, "__init__", must_not_build)
        with pytest.raises(ValidationError, match="header describes"):
            TripletModel.load(path)
        code = main(["decode", "--weights", str(path), "--input", str(corpus_path),
                     "--out", str(tmp_path / "out.jsonl")])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("aste: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_version_1_file_rejected_by_name(self, saved, tmp_path, capsys, command):
        """Version 1 stored a record per tensor after the header and no
        checksum; it is no longer read."""
        path, corpus_path = saved
        header, _ = split_file(path.read_bytes())
        raw = json.dumps({key: header[key] for key in ("encoder", "parser", "vocab")}).encode()
        path.write_bytes(b"ASTW" + struct.pack("<II", 1, len(raw)) + raw + struct.pack("<I", 0))
        with pytest.raises(ValidationError, match="unsupported weight file version 1"):
            TripletModel.load(path)
        extra = ["--out", str(tmp_path / "out.jsonl")] if command == "decode" else []
        code = main([command, "--weights", str(path), "--input", str(corpus_path)] + extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "aste: unsupported weight file version 1\n"


@pytest.fixture(scope="module")
def tiny_weight_file(tmp_path_factory):
    """The bytes of a saved tiny model, and a directory holding a corpus
    file the model can decode."""
    model, corpus = build_model(adapter_kind=RELATIVE, seed=8)
    directory = tmp_path_factory.mktemp("fuzz")
    model.save(directory / "weights.bin")
    write_corpus_file(directory / "dev.jsonl", corpus.dev[:3])
    return (directory / "weights.bin").read_bytes(), directory


def write_anew(path, data: bytes) -> None:
    """Write ``data`` to a new file at ``path``. Truncating a file that
    holds data costs tens of milliseconds on some filesystems, which
    hundreds of examples would add up to seconds."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def cut(data):
    return st.integers(0, len(data) - 1).map(lambda n: data[:n])


def bit_flip(data):
    def flip(bit):
        damaged = bytearray(data)
        damaged[bit // 8] ^= 1 << bit % 8
        return bytes(damaged)

    return st.integers(0, 8 * len(data) - 1).map(flip)


def appended(data):
    return st.binary(min_size=1, max_size=64).map(lambda extra: data + extra)


class TestWeightFileFuzz:
    """Every cut, single bit flip and appendage of a saved file is a
    ValidationError, and the CLI reports it as one."""

    @pytest.mark.parametrize("damage", [cut, bit_flip, appended])
    def test_load_raises_validation_error(self, tiny_weight_file, damage):
        data, directory = tiny_weight_file
        path = directory / f"{damage.__name__}.bin"

        @settings(max_examples=400, deadline=None, database=None)
        @given(damage(data))
        def check(damaged):
            write_anew(path, damaged)
            with pytest.raises(ValidationError) as error:
                TripletModel.load(path)
            assert len(str(error.value)) < 300

        check()

    def test_decode_exits_1_without_traceback(self, tiny_weight_file, capsys):
        data, directory = tiny_weight_file
        path = directory / "decoded.bin"

        @settings(max_examples=12, deadline=None, database=None)
        @given(st.one_of(cut(data), bit_flip(data), appended(data)))
        def check(damaged):
            write_anew(path, damaged)
            code = main(["decode", "--weights", str(path), "--input", str(directory / "dev.jsonl"),
                         "--out", str(directory / "out.jsonl")])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("aste: ") and "Traceback" not in err and len(err) < 300
            assert not (directory / "out.jsonl").exists()

        check()
