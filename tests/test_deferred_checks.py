"""Finiteness checked once per training step and once per inference batch.

``train`` and ``predict_corpus`` run their ops without the per-op check
and check a few results at the end of each step or batch. These tests
hold them to the per-op path they replace: the same histories, weights
and distributions bit for bit, and, for a value planted to go non-finite
in the weights, the same error naming the same op.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import aste.model
import aste.numerics
import aste.training
from aste.data import PAD_ID, START_ID, Corpus, Sentence, Vocabulary
from aste.encoder import EncoderConfig
from aste.errors import NumericError, TrainingDivergedError
from aste.model import PREDICT_BATCH, BatchForward, TripletModel
from aste.numerics import Tensor
from aste.parser import ParserConfig
from aste.structure import DEPENDENCY, RELATIVE, StructureConfig, random_tree_heads
from aste.synth import learnable_corpus
from aste.training import TrainConfig, train

TAU = 12  # above every distance in these sentences, so some bias-table rows go unused


@contextmanager
def per_op_checks():
    """Every op checks its result, as before ``checked_once``: the step or
    batch runs once, with nothing checked at its end."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (aste.model, aste.training):
            patch.setattr(module, "checked_once", lambda compute, boundary: compute())
        yield


def corpus_with_heads(seed=7):
    """A small corpus of 5- to 8-token sentences, so training batches are
    padded, each with a random dependency tree."""
    corpus = learnable_corpus(10, seed=seed)
    rng = np.random.default_rng(seed)

    def with_heads(split):
        return [Sentence(tokens=s.tokens, triplets=s.triplets,
                         heads=random_tree_heads(len(s), rng)) for s in split]

    return Corpus(name=corpus.name, train=with_heads(corpus.train), dev=with_heads(corpus.dev))


def encoder_config(kind, vocab_size):
    return EncoderConfig(vocab_size=vocab_size, dim=8, heads=2, layers=2, ffn_dim=12,
                         max_len=40, adapter=StructureConfig(tau=TAU, kind=kind))


def run_train(corpus, kind, epochs=3, lr=5e-3):
    vocab = Vocabulary.build(corpus.train)
    config = TrainConfig(base_lr=lr, batch_size=6, max_epochs=epochs, patience=epochs, seed=4)
    return train(corpus, encoder_config(kind, len(vocab)),
                 ParserConfig(tag_hidden=6, pair_hidden=5), config, vocab=vocab)


def mixed_sentences(corpus, count, seed=0):
    """``count`` sentences of 1 to 8 tokens drawn from the corpus
    vocabulary, so inference batches are padded."""
    rng = np.random.default_rng(seed)
    words = sorted({t for s in corpus.train for t in s.tokens})
    return [Sentence(tokens=[words[i] for i in rng.integers(0, len(words), n)],
                     heads=random_tree_heads(int(n), rng))
            for n in rng.integers(1, 9, size=count)]


def recorded_forwards(model, sentences):
    """predict_corpus's triplets, and the raw bytes of every batch's
    distributions."""
    forward, seen = model.forward, []

    def recording(batch, *args):
        out = forward(batch, *args)
        seen.append(b"".join(t.data.tobytes() for t in (out.aspect, out.opinion, out.relations)))
        return out

    model.forward = recording
    try:
        return model.predict_corpus(sentences), seen
    finally:
        del model.forward


@pytest.mark.parametrize("kind", [RELATIVE, DEPENDENCY])
def test_train_and_predict_match_per_op_checks(kind):
    corpus = corpus_with_heads()
    model, history = run_train(corpus, kind)
    with per_op_checks():
        reference, reference_history = run_train(corpus, kind)
    assert history.to_tsv() == reference_history.to_tsv()
    snapshot, expected = model.state_snapshot(), reference.state_snapshot()
    assert snapshot.keys() == expected.keys()
    for key in expected:
        assert snapshot[key].tobytes() == expected[key].tobytes(), key
    sentences = mixed_sentences(corpus, 2 * PREDICT_BATCH + 3)
    predicted, raw = recorded_forwards(model, sentences)
    with per_op_checks():
        reference_predicted, reference_raw = recorded_forwards(model, sentences)
    assert predicted == reference_predicted
    assert raw == reference_raw and len(raw) == 3


def set_values(group, name, index, value):
    def plant(model):
        group_of(model, group)[name].data[index] = value
    return plant


def scale(group, names, factor):
    def plant(model):
        for name in names:
            group_of(model, group)[name].data[...] *= factor
    return plant


def group_of(model, group):
    return {"encoder": model.encoder.params, "adapter": model.encoder.adapter,
            "parser": model.parser.params}[group]


# Each makes some op's result non-finite; the per-op path names that op.
PLANTS = {
    "encoder weights overflow": scale("encoder", ("l1.wq", "l1.wk"), 1e300),
    "encoder weight NaN": set_values("encoder", "l0.ffn_w2", (0, 0), np.nan),
    "encoder -inf pre-activation into relu": set_values("encoder", "l1.ffn_b1", 3, -np.inf),
    "parser weight inf": set_values("parser", "opinion_w2", (1, 2), np.inf),
    "parser -inf pre-activation into relu": set_values("parser", "pair_dep_b1", 0, -np.inf),
    "pair_bil NaN": set_values("parser", "pair_bil", (2, 0, 1), np.nan),
    "pair_bil overflow": scale("parser", ("pair_head_w1", "pair_bil"), 1e160),
    "-inf logit into softmax": set_values("parser", "pair_b2", 3, -np.inf),
    "padding embedding NaN": set_values("encoder", "tok_emb", PAD_ID, np.nan),
    "unused distance bucket inf": set_values("adapter", "l0.rel", 2 * TAU, np.inf),
    # A finite start-marker row whose variance overflows in the embedding norm.
    "layer_norm variance overflow": set_values("encoder", "tok_emb", (START_ID, slice(0, 2)),
                                               [1e200, -1e200]),
    # Intermediates inside fused nodes: the tagger's relu, the embedding's
    # position rows and the attention sub-layer's output projection.
    "tagger -inf pre-activation into relu": set_values("parser", "aspect_b1", 2, -np.inf),
    "position embedding NaN": set_values("encoder", "pos_emb", (1, 3), np.nan),
    "output projection NaN": set_values("encoder", "l0.wo", (2, 5), np.nan),
}


@pytest.mark.parametrize("plant", PLANTS.values(), ids=PLANTS.keys())
def test_planted_fault_in_predict_corpus_names_the_per_op_op(plant):
    corpus = corpus_with_heads()
    vocab = Vocabulary.build(corpus.train)
    model = TripletModel(encoder_config(RELATIVE, len(vocab)),
                         ParserConfig(tag_hidden=6, pair_hidden=5), vocab, seed=2)
    plant(model)
    sentences = mixed_sentences(corpus, PREDICT_BATCH + 3)
    with np.errstate(all="ignore"):
        with per_op_checks(), pytest.raises(NumericError) as expected:
            model.predict_corpus(sentences)
        with pytest.raises(NumericError) as found:
            model.predict_corpus(sentences)
    assert "produced non-finite values" in str(expected.value)
    assert str(found.value) == str(expected.value)


@pytest.mark.parametrize("plant", PLANTS.values(), ids=PLANTS.keys())
def test_planted_fault_in_train_names_the_per_op_op(plant, monkeypatch):
    class Planted(TripletModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            plant(self)

    monkeypatch.setattr(aste.training, "TripletModel", Planted)
    corpus = corpus_with_heads()
    with np.errstate(all="ignore"):
        with per_op_checks(), pytest.raises(TrainingDivergedError) as expected:
            run_train(corpus, RELATIVE, epochs=1)
        with pytest.raises(TrainingDivergedError) as found:
            run_train(corpus, RELATIVE, epochs=1)
    assert "produced non-finite values" in str(expected.value)
    assert str(found.value) == str(expected.value)


def test_non_finite_probability_in_masked_cells_still_fails_train(monkeypatch):
    """The loss drops padded cells, but softmax's backward multiplies
    every probability into the gradient: the step's gradient norm turns
    NaN and the replay names the op that made the value."""
    joint_loss = aste.training.joint_loss

    def planting(pred: BatchForward, gold, masks):
        padded = np.where(masks.cells, 1.0, np.nan)[..., None]
        relations = pred.relations * Tensor(np.broadcast_to(padded, pred.relations.shape))
        return joint_loss(BatchForward(pred.aspect, pred.opinion, relations), gold, masks)

    monkeypatch.setattr(aste.training, "joint_loss", planting)
    corpus = corpus_with_heads()
    with per_op_checks(), pytest.raises(TrainingDivergedError) as expected:
        run_train(corpus, RELATIVE, epochs=1)
    with pytest.raises(TrainingDivergedError) as found:
        run_train(corpus, RELATIVE, epochs=1)
    assert "leaf produced non-finite values" in str(expected.value)
    assert str(found.value) == str(expected.value)


def test_diverging_run_warns_no_more_than_per_op_checks():
    corpus = corpus_with_heads()

    def warnings_of_diverging_run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDivergedError):
                run_train(corpus, RELATIVE, epochs=3, lr=1e160)
        return {(str(w.category), str(w.message)) for w in caught}

    with per_op_checks():
        expected = warnings_of_diverging_run()
    assert warnings_of_diverging_run() <= expected


def test_one_predict_checks_only_its_outputs(monkeypatch):
    """Guard: a single-sentence predict makes one finiteness check per
    output array, not one per tensor; with per-op checks it makes exactly
    one per tensor it builds."""
    corpus = corpus_with_heads()
    vocab = Vocabulary.build(corpus.train)
    model = TripletModel(encoder_config(RELATIVE, len(vocab)),
                         ParserConfig(tag_hidden=6, pair_hidden=5), vocab, seed=2)
    check, calls = aste.numerics._check_finite, []
    init, built = Tensor.__init__, []

    def counting(data, op):
        calls.append(op)
        return check(data, op)

    def building(tensor, *args, **kwargs):
        built.append(tensor)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(aste.numerics, "_check_finite", counting)
    monkeypatch.setattr(Tensor, "__init__", building)
    model.predict(corpus.dev[0])
    assert calls == ["aspect tagger", "opinion tagger", "relation scorer"]
    calls.clear()
    built.clear()
    with per_op_checks():
        model.predict(corpus.dev[0])
    assert len(calls) == len(built)
