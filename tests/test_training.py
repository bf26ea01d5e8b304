"""Loss, schedule, optimizer, and training-loop contracts."""

import warnings

import numpy as np
import pytest

import aste.model
import aste.parser
import aste.training
from aste.data import Corpus
from aste.encoder import EncoderConfig
from aste.errors import TrainingDivergedError, ValidationError
from aste.model import BatchHidden, TripletModel
from aste.data import Sentence, Span, Triplet, Vocabulary
from aste.numerics import Tensor, checked_once, cross_entropy_forward, grad_check, no_grad
from aste.parser import GoldPositions, LossMasks, ParserConfig, TripletParser, build_gold
from aste.structure import (DEPENDENCY, RELATIVE, StructureConfig, augmented_distance_matrix,
                            random_tree_heads)
from aste.synth import learnable_corpus, proximity_sentence
from aste.training import (
    LR_GRID,
    AdamW,
    TrainConfig,
    assemble_batch,
    bucket_batches,
    clip_gradients,
    default_batch_size,
    joint_loss,
    lr_at,
    padded_gold,
    prepare_batch,
    train,
)

LN3 = 1.0986122886681098
LN4 = 1.3862943611198906


def tiny_encoder_config(adapter_kind=None, vocab=1):
    adapter = StructureConfig(tau=4, kind=adapter_kind) if adapter_kind else StructureConfig()
    return EncoderConfig(vocab_size=vocab, dim=8, heads=2, layers=1, ffn_dim=12,
                         max_len=32, adapter=adapter)


def tiny_parser_config():
    return ParserConfig(tag_hidden=6, pair_hidden=5)


class TestJointLoss:
    """``joint_loss`` is the loss node of ``TripletParser.loss``. The loss
    it takes of each head is checked in ``TestCrossEntropyFromLogits``."""

    def test_uniform_predictions(self):
        """With every parser weight zeroed each head's logits are 0: on a
        padded batch of mixed lengths each tagger costs ln 3 per real
        token and the pair scorer ln 4 per real cell."""
        model, batch = TestLossFromLogits.model_and_batch()
        model.parser.params.buffer[...] = 0.0
        tagging, parsing, total = joint_loss(*assemble_batch(model, batch))
        assert abs(tagging - 2 * LN3) <= 1e-12
        assert abs(parsing - LN4) <= 1e-12
        assert total.item() == tagging + parsing

    def test_total_is_exact_sum(self):
        model, batch = TestLossFromLogits.model_and_batch()
        inputs = prepare_batch(model, batch)
        rng = np.random.default_rng(0)
        buffer = model.parser.params.buffer
        for _ in range(5):
            buffer[...] = rng.normal(0, 1, buffer.shape)
            tagging, parsing, total = joint_loss(*assemble_batch(model, batch, inputs))
            assert type(tagging) is type(parsing) is float
            assert total.item() == tagging + parsing

    def test_masked_positions_contribute_nothing(self):
        """Whatever the hidden states of padded tokens hold, the losses are
        the same bit for bit and those states get no gradient."""
        rng = np.random.default_rng(1)
        parser = TripletParser(8, tiny_parser_config(), rng)
        tokens = np.array([[True, True, True], [True, False, False]])
        gold = GoldPositions.build(rng.integers(0, 3, (2, 3)), rng.integers(0, 3, (2, 3)),
                                   rng.integers(0, 4, (2, 3, 3)))
        masks = LossMasks.build(tokens)
        states = rng.normal(0, 1, (2, 3, 8))
        losses = []
        for padding in (0.0, 50.0):
            hidden = Tensor(np.where(tokens[..., None], states, padding), requires_grad=True)
            tagging, parsing, total = joint_loss(BatchHidden(hidden, parser), gold, masks)
            total.backward()
            assert (hidden.grad[~tokens] == 0.0).all() and hidden.grad[tokens].any()
            losses.append((tagging, parsing, total.item()))
        assert losses[0] == losses[1]


class TestLossFromLogits:
    """The training step's loss node reads logits, not probabilities."""

    @staticmethod
    def model_and_batch(kind=RELATIVE):
        corpus = learnable_corpus(12, seed=5)
        vocab = Vocabulary.build(corpus.train)
        model = TripletModel(tiny_encoder_config(kind, vocab=len(vocab)), tiny_parser_config(),
                             vocab, seed=3)
        by_length = {len(s): s for s in corpus.train}
        batch = list(by_length.values())[:3]
        assert len({len(s) for s in batch}) == 3
        return model, batch

    @staticmethod
    def reference_loss(model, batch):
        """Tagging plus parsing loss of the batch from the heads' logits,
        each cell's ``logsumexp - x_target`` averaged over the real cells,
        in plain numpy from the encoder's states."""
        ids = [model.vocab.encode(s.tokens) for s in batch]
        h = model.encoder.encode(ids, model.batch_distances(batch)).content.data
        p = {name: t.data for name, t in model.parser.params.items()}

        def mean_nll(logits, targets, mask):
            top = logits.max(axis=-1, keepdims=True)
            lse = (top + np.log(np.exp(logits - top).sum(axis=-1, keepdims=True)))[..., 0]
            picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
            return (lse - picked)[mask].mean()

        aspect, opinion, relations, tokens = padded_gold(batch)
        total = 0.0
        for which, targets in (("aspect", aspect), ("opinion", opinion)):
            inner = np.maximum(h @ p[f"{which}_w1"] + p[f"{which}_b1"], 0.0)
            total += mean_nll(inner @ p[f"{which}_w2"] + p[f"{which}_b2"], targets, tokens)
        head = np.maximum(h @ p["pair_head_w1"] + p["pair_head_b1"], 0.0)
        dep = np.maximum(h @ p["pair_dep_w1"] + p["pair_dep_b1"], 0.0)
        logits = (np.einsum("bip,cpq,bjq->bijc", head, p["pair_bil"], dep)
                  + (head @ p["pair_head_w2"])[:, :, None, :]
                  + (dep @ p["pair_dep_w2"])[:, None, :, :] + p["pair_b2"])
        return total + mean_nll(logits, relations, tokens[:, :, None] & tokens[:, None, :])

    def test_a_gold_label_of_probability_zero_costs_its_logit_gap(self):
        """With ``pair_b2`` at [800, 0, 0, 0] every logit is finite but a
        sentiment label's probability underflows to 0.0. The checked step
        still gives a finite loss, the logsumexp one, and a finite
        gradient norm, instead of a diverged run."""
        model, batch = self.model_and_batch()
        model.parser.params["pair_b2"].data[...] = [800.0, 0.0, 0.0, 0.0]
        inputs = prepare_batch(model, batch)
        _, _, relations, tokens = padded_gold(batch)
        sentiment = (relations[tokens[:, :, None] & tokens[:, None, :]] != 0).mean()
        assert sentiment > 0
        with no_grad():
            probs = model.forward(batch).relations.data
        assert (probs[..., 1:] == 0.0).all()
        groups = model.param_groups()
        tagging, parsing, total, norm = checked_once(
            lambda: aste.training._step(model, groups, batch, inputs, 1.0),
            aste.training._step_results)
        # Each sentiment cell costs its gap of about 800, the others nothing.
        assert parsing == pytest.approx(800.0 * sentiment, rel=1e-3)
        assert total == pytest.approx(self.reference_loss(model, batch), rel=1e-12)
        assert total == tagging + parsing
        assert np.isfinite(norm) and norm > 0.0

    @pytest.mark.parametrize("head_axis", [-1, -3], ids=["taggers", "pair scorer"])
    def test_nan_logit_in_a_padded_cell_fails_train(self, head_axis, monkeypatch):
        """A NaN logit planted in the padded cells of one head inside the
        loss node, where its weight is 0, turns the node's value NaN, so
        training fails with the same message under per-op checks and under
        ``checked_once``."""
        planted = []

        def planting(logits, positions, mask, count, axis=-1):
            if axis == head_axis:
                padded = np.broadcast_to(~mask, logits.shape)
                planted.append(padded.any())
                logits = np.where(padded, np.nan, logits)
            return cross_entropy_forward(logits, positions, mask, count, axis)

        monkeypatch.setattr(aste.parser, "cross_entropy_forward", planting)
        corpus = learnable_corpus(12, seed=5)
        config = TrainConfig(base_lr=1e-3, batch_size=6, max_epochs=1, patience=1, seed=2)

        def run():
            train(corpus, tiny_encoder_config(RELATIVE), tiny_parser_config(), config)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aste.training, "checked_once", lambda compute, boundary: compute())
            with pytest.raises(TrainingDivergedError) as expected:
                run()
        with pytest.raises(TrainingDivergedError) as found:
            run()
        assert any(planted)
        assert "joint_loss produced non-finite values" in str(expected.value)
        assert str(found.value) == str(expected.value)


class TestSchedule:
    def cfg(self, **kw):
        defaults = dict(base_lr=1e-3, max_epochs=20, warmup_epochs=2.0, patience=5)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_at_start(self):
        assert lr_at(0.0, self.cfg()) == 0.0

    def test_half_base_mid_warmup(self):
        assert lr_at(1.0, self.cfg()) == pytest.approx(0.5e-3)

    def test_base_at_warmup_end(self):
        assert lr_at(2.0, self.cfg()) == pytest.approx(1e-3)

    def test_zero_at_end(self):
        assert lr_at(20.0, self.cfg()) == 0.0

    def test_linear_decay(self):
        assert lr_at(11.0, self.cfg()) == pytest.approx(1e-3 * 0.5)

    def test_outside_schedule_rejected(self):
        with pytest.raises(ValidationError):
            lr_at(-0.1, self.cfg())
        with pytest.raises(ValidationError):
            lr_at(21.0, self.cfg())

    def test_grid_reflects_search_space(self):
        assert LR_GRID == (1e-5, 2e-5, 3e-5, 5e-5)

    def test_default_batch_sizes(self):
        assert default_batch_size("none") == 8
        assert default_batch_size("relative") == 6


class TestClipping:
    def make_group(self, grads):
        from aste.numerics import ParamGroup
        g = ParamGroup("encoder")
        for i, grad in enumerate(grads):
            t = g.add(f"p{i}", Tensor(np.zeros_like(grad)))
            t.grad[...] = grad
        return g

    def test_large_norm_scaled_to_max(self):
        g = self.make_group([np.array([3.0, 4.0])])
        pre = clip_gradients([g], 1.0)
        assert pre == pytest.approx(5.0)
        post = np.sqrt(sum(float((p.grad ** 2).sum()) for p in g.tensors.values()))
        assert post <= 1.0 + 1e-9

    def test_small_norm_untouched(self):
        grad = np.array([0.3, 0.4])
        g = self.make_group([grad.copy()])
        clip_gradients([g], 1.0)
        np.testing.assert_array_equal(g["p0"].grad, grad)


class TestAdamW:
    def test_group_rate_multiplier(self):
        from aste.numerics import ParamGroup
        enc = ParamGroup("encoder")
        enc.add("w", Tensor(np.ones(3))).grad[...] = 1.0
        par = ParamGroup("parser", lr_multiplier=10.0)
        par.add("w", Tensor(np.ones(3))).grad[...] = 1.0
        opt = AdamW([enc, par])
        opt.step(2e-5)
        assert opt.last_group_lrs["parser"] == pytest.approx(10 * opt.last_group_lrs["encoder"])

    def test_missing_grad_still_decays(self):
        from aste.numerics import ParamGroup
        g = ParamGroup("encoder")
        w = g.add("w", Tensor(np.full(2, 10.0)))
        AdamW([g]).step(1.0)
        np.testing.assert_allclose(w.data, np.full(2, 10.0) - 0.1)


class ReferenceAdamW:
    """Per-tensor AdamW, one moment pair and ten numpy calls per tensor:
    the update as written before parameters shared a buffer per group.
    The oracle the whole-group optimizer must match bit for bit."""

    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01

    def __init__(self, groups):
        self.groups = groups
        self.t = 0
        self.m = {self._key(g, n): np.zeros_like(p.data) for g in groups for n, p in g.items()}
        self.v = {self._key(g, n): np.zeros_like(p.data) for g in groups for n, p in g.items()}
        self.last_group_lrs = {}

    @staticmethod
    def _key(group, name):
        return f"{group.name}/{name}"

    def describe(self):
        return "reference"

    def step(self, base_lr):
        self.t += 1
        self.last_group_lrs = {}
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for group in self.groups:
            lr = base_lr * group.lr_multiplier
            self.last_group_lrs[group.name] = lr
            for name, param in group.items():
                grad = param.grad
                key = self._key(group, name)
                self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * grad
                self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * grad * grad
                m_hat = self.m[key] / bias1
                v_hat = self.v[key] / bias2
                param.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                    + self.weight_decay * param.data)


def reference_clip_gradients(groups, max_norm):
    """Per-tensor global-norm clip, the oracle for ``clip_gradients``.
    Scales in place: each ``grad`` is a view of its group's buffer."""
    params = [p for g in groups for p in g.tensors.values()]
    total = sum(float((p.grad ** 2).sum()) for p in params)
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


class TestWholeGroupOptimizer:
    SHAPES = {"encoder": [(7, 4), (4,), (3, 5, 2)], "adapter": [(9, 3), (9, 3)],
              "parser": [(4, 6), (6,), (2,)]}

    def groups(self):
        from aste.numerics import ParamGroup
        rng = np.random.default_rng(0)
        groups = []
        for name, shapes in self.SHAPES.items():
            group = ParamGroup(name, lr_multiplier=10.0 if name == "parser" else 1.0)
            for i, shape in enumerate(shapes):
                group.add(f"p{i}", Tensor(rng.normal(0, 1, shape)))
            groups.append(group)
        return groups

    def test_matches_per_tensor_reference(self):
        groups, reference = self.groups(), self.groups()
        optimizer, oracle = AdamW(groups), ReferenceAdamW(reference)
        rng = np.random.default_rng(1)
        clipped = []
        for step in range(6):
            # Large gradients on odd steps, so the clip acts on every other one.
            scale = 3.0 if step % 2 else 0.05
            for group, twin in zip(groups, reference):
                for (name, param), (_, other) in zip(group.items(), twin.items()):
                    if (group.name, name) == ("parser", "p2"):
                        continue  # never reached by backward: stays zero
                    param.grad[...] = other.grad[...] = rng.normal(0, scale, param.shape)
            norm = clip_gradients(groups, 1.0)
            assert norm == reference_clip_gradients(reference, 1.0)
            clipped.append(norm > 1.0)
            clipped_grads = [group.grad.copy() for group in groups]
            optimizer.step(1e-2)
            oracle.step(1e-2)
            assert optimizer.last_group_lrs == oracle.last_group_lrs
            for group, twin, clipped_grad in zip(groups, reference, clipped_grads):
                np.testing.assert_array_equal(group.grad, clipped_grad)
                for (_, param), (_, other) in zip(group.items(), twin.items()):
                    assert np.shares_memory(param.grad, group.grad)
                    np.testing.assert_array_equal(param.data, other.data)
                    np.testing.assert_array_equal(param.grad, other.grad)
        assert True in clipped and False in clipped

    def test_two_step_train_matches_reference(self, monkeypatch):
        corpus = learnable_corpus(12, seed=14)
        config = TrainConfig(base_lr=1e-2, batch_size=len(corpus.train) // 2 + 1,
                             max_epochs=1, patience=1, seed=3)

        def fit():
            return train(corpus, tiny_encoder_config(RELATIVE), tiny_parser_config(), config)

        model, history = fit()
        monkeypatch.setattr(aste.training, "AdamW", ReferenceAdamW)
        monkeypatch.setattr(aste.training, "clip_gradients", reference_clip_gradients)
        reference, reference_history = fit()
        assert len(bucket_batches(corpus.train, config.batch_size)) == 2
        assert history.records == reference_history.records
        expected = reference.state_snapshot()
        for key, values in model.state_snapshot().items():
            np.testing.assert_array_equal(values, expected[key])

    def test_parameters_stay_views_of_their_group_buffer(self, tmp_path):
        model, batch = TestBatching.dependency_model_and_batch(2)

        def assert_packed(m):
            for group in m.param_groups():
                for _, tensor in group.items():
                    assert np.shares_memory(tensor.data, group.buffer)
                    assert np.shares_memory(tensor.grad, group.grad)

        assert_packed(model)
        model.save(tmp_path / "w.bin")
        assert_packed(TripletModel.load(tmp_path / "w.bin"))
        model.load_snapshot({k: v + 0.5 for k, v in model.state_snapshot().items()})
        assert_packed(model)

        def f():
            return joint_loss(*assemble_batch(model, batch))[2]

        grad_check(f, model.param_groups(), samples_per_tensor=1)
        assert_packed(model)
        before = model.state_snapshot()
        model.zero_grad()
        f().backward()
        AdamW(model.param_groups()).step(1e-2)
        assert_packed(model)
        after = model.state_snapshot()
        assert any(not np.array_equal(after[k], before[k]) for k in before)
        for group in model.param_groups():
            packed = np.concatenate([t.data for t in group.tensors.values()], axis=None)
            np.testing.assert_array_equal(packed, after[group.name])


class TestTrainLoop:
    def run(self, corpus, adapter_kind=None, seed=0, epochs=3,
            batch_size=4, lr=1e-4, patience=None):
        config = TrainConfig(base_lr=lr, batch_size=batch_size, max_epochs=epochs,
                             patience=patience if patience is not None else epochs,
                             seed=seed)
        return train(corpus, tiny_encoder_config(adapter_kind), tiny_parser_config(),
                     config)

    def test_same_seed_identical_losses_and_tsv(self):
        corpus = learnable_corpus(12, seed=3)
        _, h1 = self.run(corpus, seed=5)
        _, h2 = self.run(corpus, seed=5)
        assert [r.total_loss for r in h1.records] == [r.total_loss for r in h2.records]
        assert h1.to_tsv() == h2.to_tsv()

    def test_loss_additivity_recorded_exactly(self):
        corpus = learnable_corpus(10, seed=1)
        _, history = self.run(corpus)
        for record in history.records:
            assert record.total_loss == record.tagging_loss + record.parsing_loss

    def test_patience_halts(self):
        corpus = learnable_corpus(10, seed=2)
        # microscopic rate: dev F1 never improves past its first value
        _, history = self.run(corpus, epochs=20, lr=1e-12, patience=3)
        assert len(history.records) == 1 + 3

    def test_divergence_aborts_with_diagnostic(self):
        corpus = learnable_corpus(10, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                self.run(corpus, epochs=3, lr=1e160)

    def test_divergence_emits_no_runtime_warning(self):
        """The diverging case above, with numpy's warnings as errors: the
        step runs with warnings off and is not backpropagated once its
        loss is non-finite, and its replay stops at the op that
        overflowed, as a per-op run does."""
        corpus = learnable_corpus(10, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(TrainingDivergedError, match="epoch"):
                    self.run(corpus, epochs=3, lr=1e160)

    def test_empty_split_rejected(self):
        corpus = Corpus(name="x", train=[], dev=[])
        with pytest.raises(ValidationError):
            self.run(corpus)

    def test_train_split_without_tokens_rejected(self):
        """A train split whose sentences have no tokens would train at loss
        0 and return a model that learned nothing."""
        dev = learnable_corpus(10, seed=7).dev
        corpus = Corpus(name="x", train=[Sentence(tokens=[], triplets=[])] * 2, dev=dev)
        with pytest.raises(ValidationError, match="train split has no tokens"):
            self.run(corpus)

    def test_best_weights_returned(self):
        corpus = learnable_corpus(16, seed=8)
        model, history = self.run(corpus, epochs=4, lr=5e-4)
        from aste.training import evaluate_model
        best = max(r.dev_f1 for r in history.records)
        assert evaluate_model(model, corpus.dev).f1 == pytest.approx(best)

    def test_gold_and_distances_derived_once_per_train_sentence(self, monkeypatch):
        """Batches keep their contents across epochs, so their gold
        targets and distance stacks, and the dev set's distance stacks,
        are derived before the first one."""
        calls = {"gold": 0, "distances": 0}

        def counting(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(aste.training, "build_gold",
                            counting("gold", aste.training.build_gold))
        monkeypatch.setattr(aste.model, "augmented_distance_matrix",
                            counting("distances", aste.model.augmented_distance_matrix))
        corpus = learnable_corpus(14, seed=10)
        _, history = self.run(corpus, adapter_kind=RELATIVE, epochs=3)
        assert len(history.records) == 3
        assert calls["gold"] == len(corpus.train)
        assert calls["distances"] == len(corpus.train) + len(corpus.dev)

    def test_history_metadata_records_optimizer(self):
        corpus = learnable_corpus(10, seed=9)
        _, history = self.run(corpus, epochs=1)
        assert "adamw" in history.metadata["optimizer"]
        tsv = history.to_tsv()
        assert tsv.startswith("#")
        assert "epoch\ttagging_loss" in tsv


class TestBatching:
    def test_bucketing_sorts_by_length(self):
        corpus = learnable_corpus(13, seed=11)
        batches = bucket_batches(corpus.train, 4)
        assert sum(len(b) for b in batches) == 13
        lengths = [len(s) for batch in batches for s in batch]
        assert lengths == sorted(lengths)

    def test_assemble_batch_masks_padding(self):
        corpus = learnable_corpus(6, seed=12)
        vocab_sentences = corpus.train
        vocab = Vocabulary.build(vocab_sentences)
        config = tiny_encoder_config(vocab=len(vocab))
        model = TripletModel(config, tiny_parser_config(), vocab, seed=0)
        batch = sorted(vocab_sentences, key=len)[2:5]
        assert len({len(s) for s in batch}) > 1
        pred, gold, masks = assemble_batch(model, batch)
        n = max(len(s) for s in batch)
        assert pred.hidden.shape == (3, n, config.dim)
        assert masks.tokens.shape == (3 * n, 1)
        assert masks.cells.shape == (3, 1, n, n)
        assert masks.tokens.sum() == masks.token_count == sum(len(s) for s in batch)
        assert masks.cells.sum() == masks.cell_count == sum(len(s) ** 2 for s in batch)
        # Each position points at its cell's gold class among the head's logits.
        aspect, opinion, relations, _ = padded_gold(batch)
        np.testing.assert_array_equal(gold.aspect, np.arange(3 * n) * 3 + aspect.ravel())
        np.testing.assert_array_equal(gold.opinion % 3, opinion.ravel())
        np.testing.assert_array_equal(gold.relations // (n * n) % 4, relations.ravel())
        np.testing.assert_array_equal(gold.relations % (n * n), np.tile(np.arange(n * n), 3))


    @staticmethod
    def dependency_model_and_batch(size):
        corpus = learnable_corpus(12, seed=13)
        vocab = Vocabulary.build(corpus.train)
        model = TripletModel(tiny_encoder_config(DEPENDENCY, vocab=len(vocab)),
                             tiny_parser_config(), vocab, seed=1)
        rng = np.random.default_rng(2)
        for table in model.encoder.adapter.tensors.values():
            table.data[...] = rng.normal(0, 0.5, table.shape)
        by_length = {len(s): s for s in corpus.train}
        batch = [
            Sentence(tokens=s.tokens, triplets=s.triplets, heads=random_tree_heads(len(s), rng))
            for s in list(by_length.values())[:size]
        ]
        assert len({len(s) for s in batch}) == size
        return model, batch

    def test_batch_loss_matches_per_sentence_recomputation(self):
        """Masked means over the padded batch equal the means of each
        sentence's own batch-of-one probabilities, recomputed in numpy."""
        model, batch = self.dependency_model_and_batch(3)
        tagging, parsing, total = joint_loss(*assemble_batch(model, batch))
        aspect_nll, opinion_nll, relation_nll = [], [], []
        for sentence in batch:
            alone = model.forward([sentence])
            aspect, opinion, relations = build_gold(sentence)
            n = len(sentence)
            aspect_nll += list(-np.log(alone.aspect.data[0][np.arange(n), aspect]))
            opinion_nll += list(-np.log(alone.opinion.data[0][np.arange(n), opinion]))
            rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            relation_nll += list(-np.log(alone.relations.data[0][rows, cols, relations]).ravel())
        expected_tagging = np.mean(aspect_nll) + np.mean(opinion_nll)
        assert abs(tagging - expected_tagging) <= 1e-12
        assert abs(parsing - np.mean(relation_nll)) <= 1e-12
        assert total.item() == tagging + parsing

    @staticmethod
    def loss_and_gradients(model, batch, inputs=None):
        model.zero_grad()
        total = joint_loss(*assemble_batch(model, batch, inputs))[2]
        total.backward()
        grads = [t.grad.copy() for g in model.param_groups() for _, t in g.items()]
        return total.item(), grads

    def test_prepared_inputs_give_the_same_step(self):
        model, batch = self.dependency_model_and_batch(3)
        inputs = prepare_batch(model, batch)
        fresh_loss, fresh_grads = self.loss_and_gradients(model, batch)
        for _ in range(2):  # reused, as training reuses them every epoch
            loss, grads = self.loss_and_gradients(model, batch, inputs)
            assert loss == fresh_loss
            for a, b in zip(grads, fresh_grads):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", [RELATIVE, DEPENDENCY])
    def test_prepared_batches_keep_a_byte_or_so_a_cell(self, kind):
        """At two heads, 10-80-token sentences keep at most 8 KiB each
        between epochs: the ids, the key mask, one byte per distance and
        per relation class, and the tag classes and token mask."""
        rng = np.random.default_rng(4)
        drawn = [proximity_sentence(rng, 10, 80) for _ in range(80)]
        sentences = [Sentence(tokens=s.tokens, triplets=s.triplets,
                              heads=random_tree_heads(len(s), rng) if kind == DEPENDENCY else None)
                     for s in drawn if s is not None]
        vocab = Vocabulary.build(sentences)
        config = EncoderConfig(vocab_size=len(vocab), heads=2, max_len=82,
                               adapter=StructureConfig(tau=8, kind=kind))
        model = TripletModel(config, ParserConfig(), vocab, seed=0)
        kept = 0
        for batch in bucket_batches(sentences, 6):
            inputs = prepare_batch(model, batch)
            arrays = (inputs.encoder.ids, inputs.encoder.key_mask, inputs.encoder.rows,
                      *inputs.gold)
            kept += sum(a.nbytes for a in arrays if a is not None)
        assert inputs.encoder.rows.dtype == np.uint8 and inputs.gold[2].dtype == np.int8
        assert kept / len(sentences) <= 8 * 1024
        # Dev and decode batches keep one byte a distance too.
        assert {d.dtype for _, d in model.inference_batches(sentences[:20])} == {np.dtype(np.int8)}

    def test_tau_above_127_keeps_two_bytes_a_distance(self):
        """At tau = 150 a 150-token sentence has 301 table rows, too many
        for a byte: the kept rows are uint16, equal to the int64 distances
        plus tau, their gather index is the one built from the int64
        distances, and the kept batch gives the unprepared batch's loss and
        gradients bit for bit."""
        rng = np.random.default_rng(6)
        batch = [proximity_sentence(rng, n, n) for n in (150, 120)]
        vocab = Vocabulary.build(batch)
        config = EncoderConfig(vocab_size=len(vocab), dim=8, heads=2, layers=1, ffn_dim=12,
                               max_len=160, adapter=StructureConfig(tau=150, kind=RELATIVE))
        model = TripletModel(config, tiny_parser_config(), vocab, seed=1)
        for table in model.encoder.adapter.tensors.values():
            table.data[...] = rng.normal(0, 0.5, table.shape)
        inputs = prepare_batch(model, batch)
        distances = np.stack([augmented_distance_matrix(len(s), config.adapter, total_len=152)
                              for s in batch])
        rows = inputs.encoder.rows
        assert rows.dtype == np.uint16 and rows.max() == 300
        assert model.batch_distances(batch).dtype == np.int16
        np.testing.assert_array_equal(rows, distances + 150)
        np.testing.assert_array_equal(model.encoder._gather_index(rows),
                                      model.encoder._distance_index(distances, (2, 152)))
        fresh_loss, fresh_grads = self.loss_and_gradients(model, batch)
        loss, grads = self.loss_and_gradients(model, batch, inputs)
        assert loss == fresh_loss
        for a, b in zip(grads, fresh_grads):
            np.testing.assert_array_equal(a, b)

    def test_training_step_after_inference_has_the_same_gradients(self):
        model, batch = self.dependency_model_and_batch(3)
        before_loss, before = self.loss_and_gradients(model, batch)
        model.predict_corpus(batch)
        after_loss, after = self.loss_and_gradients(model, batch)
        assert after_loss == before_loss
        for a, b in zip(after, before):
            np.testing.assert_array_equal(a, b)

    def test_zero_adapter_matches_bare_model(self):
        """A zero relative adapter changes nothing above the encoder: on a
        padded mixed-length batch the loss and the gradient of every
        encoder and parser tensor equal the bare model's, and so do the
        predictions."""
        corpus = learnable_corpus(12, seed=4)
        vocab = Vocabulary.build(corpus.train)
        models = [
            TripletModel(tiny_encoder_config(kind, vocab=len(vocab)), tiny_parser_config(),
                         vocab, seed=6)
            for kind in (RELATIVE, None)
        ]
        by_length = {len(s): s for s in corpus.train}
        batch = list(by_length.values())[:3]
        assert len({len(s) for s in batch}) == 3
        results = []
        for model in models:
            # Larger parser weights make the argmaxes vary, so triplets come out.
            for _, tensor in model.parser.params.items():
                tensor.data *= 10.0
            model.zero_grad()
            total = joint_loss(*assemble_batch(model, batch))[2]
            total.backward()
            grads = {f"{group.name}/{name}": tensor.grad.copy()
                     for group in (model.encoder.params, model.parser.params)
                     for name, tensor in group.items()}
            results.append((total.item(), grads, model.predict_corpus(corpus.train + corpus.dev)))
        (adapted_loss, adapted_grads, adapted_pred), (bare_loss, bare_grads, bare_pred) = results
        assert abs(adapted_loss - bare_loss) <= 1e-12
        assert adapted_grads.keys() == bare_grads.keys()
        for key, grad in bare_grads.items():
            np.testing.assert_allclose(adapted_grads[key], grad, rtol=0, atol=1e-12, err_msg=key)
        assert adapted_pred == bare_pred
        assert any(adapted_pred)

    def test_padded_dependency_batch_gradients(self):
        model, batch = self.dependency_model_and_batch(2)
        # At init scale the attention and bias-table gradients are ~1e-8,
        # below what the check can see; larger weights lift them to ~1e-2.
        for name, tensor in model.encoder.params.items():
            if ".w" in name:
                tensor.data *= 25.0
        for _, tensor in model.parser.params.items():
            tensor.data *= 10.0

        def f():
            return joint_loss(*assemble_batch(model, batch))[2]

        assert grad_check(f, model.param_groups(), eps=1e-5, samples_per_tensor=2) < 1e-4


class TestDegenerateBatches:
    """Batches at the edges of what a padded batch holds. The all-empty
    training batch has a loss of 0 over empty logits, and its backward
    runs over empty arrays."""

    LONGEST = tiny_encoder_config().max_len - 2
    CASES = {"all-empty": [0, 0, 0], "single-token": [1], "longest": [LONGEST],
             "mixed": [0, 1, 5, LONGEST]}

    @staticmethod
    def sentence(n, rng):
        triplets = [Triplet(Span(0, 0), Span(1, 1), "POS")] if n >= 2 else []
        return Sentence(tokens=[f"w{i % 7}" for i in range(n)], triplets=triplets,
                        heads=random_tree_heads(n, rng) if n else [])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("adapter_kind", [None, RELATIVE, DEPENDENCY])
    def test_predict_and_one_epoch_of_training(self, adapter_kind, case):
        rng = np.random.default_rng(0)
        batch = [self.sentence(n, rng) for n in self.CASES[case]]
        # A longest sentence sorts after the batch, so the batch is trained on
        # as one step, and the train split has tokens even when it has none.
        train_split = batch + [self.sentence(self.LONGEST, rng)]
        assert any(sorted(map(len, b)) == sorted(self.CASES[case])
                   for b in bucket_batches(train_split, len(batch)))
        vocab = Vocabulary.build(train_split)
        model = TripletModel(tiny_encoder_config(adapter_kind, vocab=len(vocab)),
                             tiny_parser_config(), vocab, seed=0)
        predicted = model.predict_corpus(batch)
        assert len(predicted) == len(batch)
        assert all(p == set() for p, s in zip(predicted, batch) if len(s) < 2)
        config = TrainConfig(base_lr=1e-3, batch_size=len(batch), max_epochs=1, patience=1)
        _, history = train(Corpus("edge", train=train_split, dev=batch), model.encoder_config,
                           tiny_parser_config(), config, vocab=vocab)
        assert len(history.records) == 1 and np.isfinite(history.records[0].total_loss)


class TestTrainConfigValidation:
    def test_patience_cannot_exceed_epochs(self):
        with pytest.raises(ValidationError):
            TrainConfig(patience=30, max_epochs=20)

    def test_positive_fields(self):
        with pytest.raises(ValidationError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["base_lr", "warmup_epochs", "grad_clip_norm"])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})
