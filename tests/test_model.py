"""Model assembly and weight-file round trips."""

import json
import struct

import numpy as np
import pytest

from aste.cli import main
from aste.data import Sentence, Vocabulary, write_corpus_file
from aste.encoder import EncoderConfig
from aste.errors import ValidationError
from aste.model import TripletModel
from aste.parser import TAGS, ParserConfig, SentimentRelationMap, decode_bio, decode_grid
from aste.structure import DEPENDENCY, RELATIVE, StructureConfig, random_tree_heads
from aste.synth import learnable_corpus


def build_model(adapter_kind=None, seed=0):
    corpus = learnable_corpus(10, seed=1)
    vocab = Vocabulary.build(corpus.train)
    adapter = StructureConfig(tau=4, kind=adapter_kind) if adapter_kind else StructureConfig()
    config = EncoderConfig(vocab_size=len(vocab), dim=8, heads=2, layers=2,
                           ffn_dim=12, max_len=40, adapter=adapter)
    model = TripletModel(config, ParserConfig(tag_hidden=6, pair_hidden=5), vocab, seed=seed)
    return model, corpus


class TestForward:
    def test_shapes(self):
        model, corpus = build_model()
        sentence = corpus.train[0]
        out = model.forward(sentence)
        n = len(sentence)
        assert out.aspect.shape == (n, 3)
        assert out.opinion.shape == (n, 3)
        assert out.relations.shape == (n, n, 4)

    def test_padded_content_matches_unpadded(self):
        model, corpus = build_model(adapter_kind=RELATIVE)
        sentence = corpus.train[0]
        n = len(sentence)
        plain = model.forward(sentence)
        padded = model.forward(sentence, pad_to=n + 4)
        np.testing.assert_allclose(
            padded.aspect.data[:n], plain.aspect.data, atol=1e-12
        )
        np.testing.assert_allclose(
            padded.relations.data[:n, :n], plain.relations.data, atol=1e-12
        )

    def test_dependency_needs_heads(self):
        model, corpus = build_model(adapter_kind=DEPENDENCY)
        with pytest.raises(ValidationError):
            model.forward(corpus.train[0])

    def test_dependency_forward_with_heads(self):
        model, _ = build_model(adapter_kind=DEPENDENCY)
        sentence = Sentence(tokens=["the", "pizza", "great"], heads=[1, -1, 1])
        out = model.forward(sentence)
        assert out.relations.shape == (3, 3, 4)

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
    hidden = model.encoder.encode(ids, distances=model.sentence_distances(sentence)).content
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


class TestSnapshots:
    def test_snapshot_round_trip(self):
        model, corpus = build_model(adapter_kind=RELATIVE)
        sentence = corpus.train[0]
        before = model.forward(sentence).aspect.data.copy()
        snapshot = model.state_snapshot()
        model.encoder.params["tok_emb"].data[...] += 1.0
        model.load_snapshot(snapshot)
        np.testing.assert_array_equal(model.forward(sentence).aspect.data, before)

    def test_missing_key_rejected(self):
        model, _ = build_model()
        snapshot = model.state_snapshot()
        snapshot.pop("encoder/tok_emb")
        with pytest.raises(ValidationError):
            model.load_snapshot(snapshot)


class TestWeightFile:
    def test_save_load_round_trip(self, tmp_path):
        model, corpus = build_model(adapter_kind=RELATIVE, seed=3)
        path = tmp_path / "weights.bin"
        model.save(path)
        loaded = TripletModel.load(path)
        assert loaded.vocab.token_to_id == model.vocab.token_to_id
        assert loaded.encoder_config == model.encoder_config
        for sentence in corpus.dev[:4]:
            assert loaded.predict(sentence) == model.predict(sentence)

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

    def test_header_with_dropout_rate_still_loads(self, tmp_path):
        """Files from before the dropout option was removed name a rate."""
        model, corpus = build_model(adapter_kind=RELATIVE, seed=4)
        path = tmp_path / "w.bin"
        model.save(path)
        data = path.read_bytes()
        header_len, = struct.unpack("<I", data[8:12])
        header = json.loads(data[12:12 + header_len])
        header["encoder"]["dropout"] = 0.1
        raw = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + header_len:])
        loaded = TripletModel.load(path)
        for sentence in corpus.dev[:4]:
            assert loaded.predict(sentence) == model.predict(sentence)


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
        data = path.read_bytes()
        header_len, = struct.unpack("<I", data[8:12])
        header = json.loads(data[12:12 + header_len])
        header["encoder"]["dim"] = 10  # no longer matches the stored tensors
        for raw in (b"\xff" * header_len, b"[" + b" " * (header_len - 1),
                    json.dumps({"encoder": {}}).encode(), json.dumps(header).encode()):
            path.write_bytes(data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + header_len:])
            with pytest.raises(ValidationError):
                TripletModel.load(path)

    def test_non_finite_weight_raises_validation_error(self, saved):
        path, _ = saved
        data = path.read_bytes()
        for value in (float("nan"), float("inf")):
            path.write_bytes(data[:-8] + struct.pack("<d", value))
            with pytest.raises(ValidationError):
                TripletModel.load(path)
