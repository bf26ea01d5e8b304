"""Model assembly and weight-file round trips."""

import json
import math
import struct

import numpy as np
import pytest

from aste.cli import main
from aste.data import Sentence, Vocabulary, write_corpus_file
from aste.encoder import EncoderConfig
from aste.errors import ValidationError
from aste.model import PREDICT_BATCH, TripletModel
from aste.parser import REL_LABELS, TAGS, ParserConfig, SentimentRelationMap, decode_bio, decode_grid
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


def read_entries(data: bytes):
    """A weight file split into its bytes up to the tensor count and its
    (group, name, values) entries."""
    header_len, = struct.unpack("<I", data[8:12])
    offset = 12 + header_len
    count, = struct.unpack("<I", data[offset:offset + 4])
    offset += 4
    entries = []
    for _ in range(count):
        names = []
        for _ in range(2):
            length, = struct.unpack("<H", data[offset:offset + 2])
            names.append(data[offset + 2:offset + 2 + length].decode("utf-8"))
            offset += 2 + length
        ndim, = struct.unpack("<I", data[offset:offset + 4])
        shape = struct.unpack(f"<{ndim}I", data[offset + 4:offset + 4 + 4 * ndim])
        offset += 4 + 4 * ndim
        size = 8 * math.prod(shape)
        entries.append((*names, np.frombuffer(data[offset:offset + size], "<f8").reshape(shape)))
        offset += size
    return data[:12 + header_len], entries


def write_entries(path, head: bytes, entries) -> None:
    parts = [head, struct.pack("<I", len(entries))]
    for group, name, values in entries:
        for text in (group, name):
            parts += [struct.pack("<H", len(text.encode("utf-8"))), text.encode("utf-8")]
        parts.append(struct.pack(f"<{1 + values.ndim}I", values.ndim, *values.shape))
        parts.append(np.ascontiguousarray(values, dtype="<f8").tobytes())
    path.write_bytes(b"".join(parts))


class TestPerLabelBilinearFile:
    """Files written before the four per-label bilinear forms became the one
    (4, p, p) ``pair_bil`` tensor hold a (p, p) ``pair_bil_<label>`` entry
    per label in its place."""

    def per_label_file(self, tmp_path, labels=REL_LABELS):
        model, corpus = varied_model(DEPENDENCY, seed=5)
        path = tmp_path / "w.bin"
        model.save(path)
        head, entries = read_entries(path.read_bytes())
        write_entries(tmp_path / "same.bin", head, entries)
        assert (tmp_path / "same.bin").read_bytes() == path.read_bytes()
        at = [name for _, name, _ in entries].index("pair_bil")
        stacked = entries[at][2]
        entries[at:at + 1] = [("parser", f"pair_bil_{label.lower()}", stacked[c])
                              for c, label in enumerate(REL_LABELS) if label in labels]
        write_entries(path, head, entries)
        return model, corpus, path

    def test_loads_and_decodes_like_the_model_that_wrote_it(self, tmp_path):
        model, corpus, path = self.per_label_file(tmp_path)
        loaded = TripletModel.load(path)
        expected = model.state_snapshot()
        got = loaded.state_snapshot()
        assert list(got) == list(expected)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])
        sentences = mixed_length_batch(corpus, np.random.default_rng(0))
        predicted = model.predict_corpus(sentences)
        assert any(predicted)
        assert loaded.predict_corpus(sentences) == predicted

    def test_some_per_label_entries_rejected(self, tmp_path):
        _, _, path = self.per_label_file(tmp_path, labels=("NONE", "POS", "NEU"))
        with pytest.raises(ValidationError, match="3 of the 4"):
            TripletModel.load(path)


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
