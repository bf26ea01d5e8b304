"""The fused tape nodes against the chains of small nodes they replace.

Every sub-layer of the model is one node with a hand-written backward:
the embedding (lookups, sum and norm), each block's attention sub-layer
(through ``wo``, the residual add and ``ln1``) and feed-forward sub-layer
(through the residual add and ``ln2``), each tagger, and the pair scorer
(both ReLU sides, the biaffine logits and the label softmax).
``reference_forward`` below rebuilds the model's forward pass the way it
was composed before, as a chain of small nodes: the ops of
``reference_ops`` (take_rows, matmul, swapaxes, relu, layer_norm,
softmax), the tensor's own reshape, getitem, add and mul, and a
column-gather node kept here for it. The fused path must give the same
losses bit for bit and the same gradients to within 1e-12 of each
tensor's scale, and each fused backward must pass a finite-difference
check at weights well above init scale, where a broken backward shows.
"""

import math

import numpy as np
import pytest

from aste.data import Sentence, Vocabulary
from aste.encoder import EncoderConfig
from aste.model import BatchForward, TripletModel
from aste.errors import NumericError
from aste.numerics import (ParamGroup, Tensor, cross_entropy, grad_check, layer_norm_backward,
                           layer_norm_forward)
from aste.parser import ParserConfig
from aste.structure import (DEPENDENCY, NONE, RELATIVE, StructureConfig,
                            augmented_distance_matrix, distances_to_indices, random_tree_heads)
from aste.synth import learnable_corpus
from aste.training import assemble_batch, joint_loss, padded_gold, prepare_batch
from reference_ops import layer_norm, matmul, relu, softmax, swapaxes, take_rows

TAU = 4
KINDS = [NONE, RELATIVE, DEPENDENCY]


def gather_cols(scores: Tensor, index: np.ndarray) -> Tensor:
    """``out[..., i, j] = scores[..., i, index[..., i, j]]``, ``index``
    broadcast over the leading axes: the gather the distance term used
    before attention became one node."""
    width = scores.shape[-1]
    index = np.broadcast_to(index, scores.shape[:-1] + index.shape[-1:])
    rows = np.arange(scores.size // width).reshape(scores.shape[:-1] + (1,))
    flat = (rows * width + index).ravel()

    def back(g):
        full = np.bincount(flat, weights=g.ravel(), minlength=scores.size)
        return ((scores, full.reshape(scores.shape)),)

    return Tensor(np.take(scores.data, flat).reshape(index.shape), _parents=(scores,),
                  _backward=back, _op="gather_cols")


def chain_linear(x, w, b):
    return matmul(x, w) + b


def reference_forward(model: TripletModel, sentences, distances) -> BatchForward:
    """``model.forward`` as a chain of small nodes."""
    enc, c = model.encoder, model.encoder.config
    p = enc.params
    ids = enc._layout([model.vocab.encode(s.tokens) for s in sentences])[0]
    embedded = take_rows(p["tok_emb"], ids) + take_rows(p["pos_emb"], np.arange(ids.shape[-1]))
    x = layer_norm(embedded, p["emb_ln_g"], p["emb_ln_b"])
    *lead, m, _ = x.shape
    lengths = np.array([len(s) + 2 for s in sentences])
    mask = (np.arange(m) < lengths[:, None])[:, None, None, :]
    scale = 1.0 / math.sqrt(c.head_dim)
    for l in range(c.layers):
        def heads(name):
            proj = chain_linear(x, p[f"l{l}.w{name}"], p[f"l{l}.b{name}"])
            return swapaxes(proj.reshape(*lead, m, c.heads, c.head_dim), -3, -2)

        q, k, v = heads("q"), heads("k"), heads("v")
        logits = matmul(q, swapaxes(k, -1, -2)) * scale
        if distances is not None:
            index = distances_to_indices(distances, c.adapter.tau)[..., None, :, :]
            products = matmul(q, swapaxes(enc.adapter[f"l{l}.rel"], -1, -2))
            logits = logits + gather_cols(products, index) * scale
        merged = swapaxes(matmul(softmax(logits, mask=mask), v), -3, -2).reshape(*x.shape)
        att = chain_linear(merged, p[f"l{l}.wo"], p[f"l{l}.bo"])
        x = layer_norm(x + att, p[f"l{l}.ln1_g"], p[f"l{l}.ln1_b"])
        hidden = relu(chain_linear(x, p[f"l{l}.ffn_w1"], p[f"l{l}.ffn_b1"]))
        out = chain_linear(hidden, p[f"l{l}.ffn_w2"], p[f"l{l}.ffn_b2"])
        x = layer_norm(x + out, p[f"l{l}.ln2_g"], p[f"l{l}.ln2_b"])
    hidden = x[..., 1:-1, :]
    q = model.parser.params

    def tags(which):
        inner = relu(chain_linear(hidden, q[f"{which}_w1"], q[f"{which}_b1"]))
        return softmax(chain_linear(inner, q[f"{which}_w2"], q[f"{which}_b2"]))

    n = hidden.shape[-2]
    head = relu(chain_linear(hidden, q["pair_head_w1"], q["pair_head_b1"]))
    dep = relu(chain_linear(hidden, q["pair_dep_w1"], q["pair_dep_b1"]))
    with_forms = matmul(head[..., None, :, :], q["pair_bil"])
    bilinear = matmul(with_forms, swapaxes(dep[..., None, :, :], -1, -2))
    logits = swapaxes(swapaxes(bilinear, -3, -2), -2, -1)
    logits = logits + matmul(head, q["pair_head_w2"]).reshape(*lead, n, 1, 4)
    logits = logits + matmul(dep, q["pair_dep_w2"]).reshape(*lead, 1, n, 4)
    logits = logits + q["pair_b2"]
    return BatchForward(tags("aspect"), tags("opinion"), softmax(logits))


def test_layer_norm_core_is_the_mean_and_var_formula_bit_for_bit():
    """The reference chain's ``layer_norm`` and the fused nodes share
    ``layer_norm_forward``; it reduces the centred rows once, and must
    give what the formula with ``mean()`` and ``var()`` gives, bit for
    bit."""
    rng = np.random.default_rng(23)
    for shape in ((3, 7, 12), (5, 33), (2, 1)):
        x = rng.normal(0, 10, shape)
        gain, bias = rng.normal(0, 1, shape[-1]), rng.normal(0, 1, shape[-1])
        mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        expected = (x - mean) * (1.0 / np.sqrt(var + 1e-5)) * gain + bias
        assert layer_norm_forward(x, gain, bias)[0].tobytes() == expected.tobytes()


def sentences_with_heads(seed=3):
    corpus = learnable_corpus(16, seed=seed)
    rng = np.random.default_rng(seed)
    return [Sentence(tokens=s.tokens, triplets=s.triplets, heads=random_tree_heads(len(s), rng))
            for s in corpus.train]


def scaled_model(kind, vocab, seed=5):
    """A model whose weights sit well above init scale: encoder matrices
    x5, parser matrices x10, random biases and bias tables, so every
    gradient is large enough for a wrong backward to show."""
    config = EncoderConfig(vocab_size=len(vocab), dim=12, heads=3, layers=2, ffn_dim=16,
                           max_len=64, adapter=StructureConfig(tau=TAU, kind=kind))
    model = TripletModel(config, ParserConfig(tag_hidden=7, pair_hidden=6), vocab, seed=seed)
    rng = np.random.default_rng(seed)
    for group in model.param_groups():
        for name, tensor in group.items():
            if name.endswith(".rel"):
                tensor.data[...] = rng.normal(0, 0.5, tensor.shape)
            elif tensor.data.ndim >= 2 and not name.endswith("_emb"):
                tensor.data *= 5.0 if group.name == "encoder" else 10.0
            elif tensor.data.ndim == 1 and "_g" not in name:
                tensor.data[...] = rng.normal(0, 0.1, tensor.shape)
    return model


def losses_and_gradients(model, losses):
    """The tagging, parsing and total losses of ``losses()``, in the form
    ``joint_loss`` returns them, and every parameter's gradient after a
    backward pass from the total."""
    model.zero_grad()
    tagging, parsing, total = losses()
    total.backward()
    # Copies: the gradients are views of the group buffers, which the next
    # backward zeroes and refills.
    grads = {f"{group.name}/{name}": t.grad.copy()
             for group in model.param_groups() for name, t in group.items()}
    return [tagging, parsing, total.item()], grads


def probability_loss(pred: BatchForward, batch):
    """The losses of ``joint_loss`` over the distributions of a batch pass:
    three ``cross_entropy`` nodes over the batch's padded class indices,
    and two adds. The parts come back as floats, as ``joint_loss`` gives
    them."""
    aspect, opinion, relations, tokens = padded_gold(batch)
    tagging = cross_entropy(pred.aspect, aspect, tokens) \
        + cross_entropy(pred.opinion, opinion, tokens)
    parsing = cross_entropy(pred.relations, relations, tokens[:, :, None] & tokens[:, None, :])
    return tagging.item(), parsing.item(), tagging + parsing


def loss_and_gradients(model, batch, forward):
    pred = forward(model, batch, model.batch_distances(batch))
    return losses_and_gradients(model, lambda: probability_loss(pred, batch))


@pytest.mark.parametrize("kind", KINDS)
def test_losses_and_gradients_match_the_chain_of_small_nodes(kind):
    """On padded batches of mixed lengths the fused path's losses are the
    chain's bit for bit, and each gradient is within 1e-12 of its tensor's
    scale: its largest reference entry, but at least a thousandth of the
    largest gradient of the model. The floor is for ``bk``, whose true
    gradient is 0 (each query's logits shift by the same ``q_i . bk``,
    which softmax ignores), so both paths give only rounding noise."""
    sentences = sentences_with_heads()
    vocab = Vocabulary.build(sentences)
    model = scaled_model(kind, vocab)
    for batch in (sentences[:5], sentences[5:11], sentences[11:12]):
        assert len({len(s) for s in batch}) > 1 or len(batch) == 1
        losses, grads = loss_and_gradients(model, batch, lambda m, b, d: m.forward(b, d))
        expected, reference = loss_and_gradients(model, batch, reference_forward)
        assert losses == expected
        largest = max(np.abs(g).max() for g in reference.values())
        for key, grad in reference.items():
            scale = max(np.abs(grad).max(), 1e-3 * largest)
            assert np.abs(grads[key] - grad).max() <= 1e-12 * scale, key


def probability_path(model, batch, inputs):
    """The losses of ``probability_loss`` over the training pass of
    ``assemble_batch``, its heads read as the three probability nodes
    ``tag_probs`` and ``relation_probs``."""
    hidden, parser = assemble_batch(model, batch, inputs)[0].hidden, model.parser
    pred = BatchForward(parser.tag_probs(hidden, "aspect"), parser.tag_probs(hidden, "opinion"),
                        parser.relation_probs(hidden))
    return probability_loss(pred, batch)


@pytest.mark.parametrize("kind", KINDS)
def test_fused_loss_matches_the_probability_path(kind):
    """On padded batches the one loss node of a training step gives the
    tagging, parsing and total losses of three ``cross_entropy`` nodes
    over the probability nodes, and every parameter the same gradient,
    each within 1e-12 of its scale (as in the test above)."""
    sentences = sentences_with_heads()
    model = scaled_model(kind, Vocabulary.build(sentences))
    for batch in (sentences[:5], sentences[5:11], sentences[11:12]):
        inputs = prepare_batch(model, batch)
        losses, grads = losses_and_gradients(
            model, lambda: joint_loss(*assemble_batch(model, batch, inputs)))
        expected, reference = losses_and_gradients(
            model, lambda: probability_path(model, batch, inputs))
        assert all(np.isfinite(expected))
        for value, want in zip(losses, expected):
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        largest = max(np.abs(g).max() for g in reference.values())
        for key, grad in reference.items():
            scale = max(np.abs(grad).max(), 1e-3 * largest)
            assert np.abs(grads[key] - grad).max() <= 1e-12 * scale, key


def test_embedding_token_gradient_is_np_add_at_bit_for_bit():
    """The embedding node adds the rows of repeated ids into the token
    table with one ``bincount``; it must give what ``np.add.at`` gives, in
    the same order, bit for bit, on a padded batch and on one sequence."""
    sentences = sentences_with_heads()
    enc = scaled_model(NONE, Vocabulary.build(sentences)).encoder
    rng = np.random.default_rng(31)
    tok, gain = enc.params["tok_emb"], enc.params["emb_ln_g"]
    gain.data[...] = rng.normal(0, 1, gain.shape)
    batch = enc._layout([list(rng.integers(4, 7, n)) for n in (9, 4, 6)])[0]
    for ids in (batch, batch[0]):
        g = rng.normal(0, 1, ids.shape + (enc.config.dim,))
        _, xhat, inv = layer_norm_forward(enc._embedding_rows(ids), gain.data,
                                          enc.params["emb_ln_b"].data)
        expected = np.zeros_like(tok.data)
        np.add.at(expected, ids, layer_norm_backward(g, xhat, inv, gain.data)[0])
        enc.params.zero_grad()
        (enc._embedding(ids) * Tensor(g)).sum().backward()
        assert tok.grad.tobytes() == expected.tobytes()


def padded_batch(enc, kind, rng):
    """Three token rows of 5, 3 and 2 tokens, the distance stack of the
    adapter (None without), and the attention key mask."""
    lengths = [5, 3, 2]
    m = max(lengths) + 2
    ids, key_mask = enc._layout([list(rng.integers(4, 9, n)) for n in lengths])
    distances = None
    if kind != NONE:
        distances = np.stack([
            augmented_distance_matrix(n, enc.config.adapter, heads=random_tree_heads(n, rng),
                                      total_len=m)
            for n in lengths])
    return ids, distances, key_mask[:, None, None, :]


def random_leaf(group, name, shape, rng):
    return group.add(name, Tensor(rng.normal(0, 1, shape)))


def check_node(f, groups, shape, rng, samples=60):
    """Finite-difference check of the sum of ``f()`` weighted by fixed
    random weights of ``shape``."""
    weights = Tensor(rng.normal(0, 1, shape))
    assert grad_check(lambda: (f() * weights).sum(), groups, samples_per_tensor=samples,
                      seed=2) < 1e-6


def test_embedding_gradients_on_a_padded_batch():
    """The embedding node's gradients with respect to both tables (ids
    repeat, so rows accumulate) and the norm, at tables of scale 1, a
    random gain and bias; also for one unpadded sequence."""
    sentences = sentences_with_heads()
    enc = scaled_model(NONE, Vocabulary.build(sentences)).encoder
    rng = np.random.default_rng(7)
    for name in ("tok_emb", "pos_emb", "emb_ln_g", "emb_ln_b"):
        enc.params[name].data[...] = rng.normal(0, 1, enc.params[name].shape)
    ids = padded_batch(enc, NONE, rng)[0]
    for rows in (ids, ids[0]):
        node = enc._embedding(rows)
        assert node._op == "embedding"
        check_node(lambda: enc._embedding(rows), [enc.params], node.shape, rng, samples=200)


@pytest.mark.parametrize("kind", KINDS)
def test_attention_gradients_on_a_padded_batch(kind):
    """The attention sub-layer's gradients with respect to its input
    states, every projection, the bias table and the ``ln1`` norm, on a
    padded batch with a key mask, at weights of scale 1 (50x init), a
    random table and a random norm gain."""
    sentences = sentences_with_heads()
    model = scaled_model(kind, Vocabulary.build(sentences))
    enc = model.encoder
    rng = np.random.default_rng(11)
    for name, tensor in enc.params.items():
        if name.startswith("l0.w") or name == "l0.ln1_g":
            tensor.data[...] = rng.normal(0, 1.0, tensor.shape)
    ids, distances, key_mask = padded_batch(enc, kind, rng)
    index = None if distances is None else enc._distance_index(distances, ids.shape)
    states = ParamGroup("encoder")
    x = random_leaf(states, "x", ids.shape + (enc.config.dim,), rng)
    assert enc._attention(x, 0, index, key_mask)._op == "attention"
    check_node(lambda: enc._attention(x, 0, index, key_mask), [states] + enc.param_groups(),
               x.shape, rng)
    if kind != NONE:
        enc.adapter.zero_grad()
        (enc._attention(x, 0, index, key_mask) * Tensor(rng.normal(0, 1, x.shape))).sum().backward()
        assert np.abs(enc.adapter["l0.rel"].grad).max() > 1e-2


def test_feed_forward_gradients():
    """The feed-forward sub-layer's gradients with respect to its input
    states, both layers and the ``ln2`` norm, at weights of scale 1 (50x
    init) and a random norm gain and bias."""
    sentences = sentences_with_heads()
    enc = scaled_model(NONE, Vocabulary.build(sentences)).encoder
    rng = np.random.default_rng(13)
    for name, tensor in enc.params.items():
        if name.startswith("l1.ffn_") or name.startswith("l1.ln2_"):
            tensor.data[...] = rng.normal(0, 1.0, tensor.shape)
    states = ParamGroup("encoder")
    for x in (random_leaf(states, "batch", (3, 6, enc.config.dim), rng),
              random_leaf(states, "single", (5, enc.config.dim), rng)):
        assert enc._feed_forward(x, 1)._op == "feed_forward"
        check_node(lambda: enc._feed_forward(x, 1), [states, enc.params], x.shape, rng)


@pytest.mark.parametrize("which", ["aspect", "opinion"])
def test_tagger_gradients(which):
    """A tagger node's gradients with respect to its input states and
    both layers, at weights and biases of scale 1 (50x init), on (2, 4)
    leading axes and on one sentence."""
    sentences = sentences_with_heads()
    parser = scaled_model(NONE, Vocabulary.build(sentences)).parser
    rng = np.random.default_rng(17)
    for name, tensor in parser.params.items():
        tensor.data[...] = rng.normal(0, 1.0, tensor.shape)
    states = ParamGroup("parser")
    for h in (random_leaf(states, "batch", (2, 4, parser.dim), rng),
              random_leaf(states, "single", (5, parser.dim), rng)):
        assert parser.tag_probs(h, which)._op == "tagger"
        check_node(lambda: parser.tag_probs(h, which), [states, parser.params],
                   h.shape[:-1] + (3,), rng)


def pair_scorer_parser(seed):
    """A parser whose weights and biases are of scale 0.3 (15x init):
    large enough for a wrong backward to show, small enough that the
    label distributions are not one-hot."""
    sentences = sentences_with_heads()
    parser = scaled_model(NONE, Vocabulary.build(sentences)).parser
    rng = np.random.default_rng(seed)
    for name, tensor in parser.params.items():
        tensor.data[...] = rng.normal(0, 0.3, tensor.shape)
    return parser, rng


def test_pair_scorer_gradients():
    """The pair-scorer node on (2, 4) leading axes and on one sentence:
    its value is the label softmax of the biaffine logits of both ReLU
    sides, written as an einsum, and its gradients with respect to the
    input states and all nine pair parameters pass a finite-difference
    check."""
    parser, rng = pair_scorer_parser(19)
    q = {name: tensor.data for name, tensor in parser.params.items()}
    states = ParamGroup("parser")
    for h in (random_leaf(states, "batch", (2, 4, parser.dim), rng),
              random_leaf(states, "single", (5, parser.dim), rng)):
        node = parser.relation_probs(h)
        assert node._op == "pair_scorer"
        head = np.maximum(h.data @ q["pair_head_w1"] + q["pair_head_b1"], 0.0)
        dep = np.maximum(h.data @ q["pair_dep_w1"] + q["pair_dep_b1"], 0.0)
        logits = (np.einsum("...ip,cpq,...jq->...ijc", head, q["pair_bil"], dep)
                  + (head @ q["pair_head_w2"])[..., :, None, :]
                  + (dep @ q["pair_dep_w2"])[..., None, :, :] + q["pair_b2"])
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(node.data, exp / exp.sum(axis=-1, keepdims=True),
                                   rtol=1e-13, atol=1e-15)
        check_node(lambda: parser.relation_probs(h), [states, parser.params], node.shape, rng)


@pytest.mark.parametrize("name, index", [("pair_head_w1", (3, 2)), ("pair_bil", (2, 0, 1))])
def test_nan_in_the_pair_scorer_names_its_node(name, index):
    """With per-op checks on, a NaN weight on either side of the biaffine
    product fails the one pair-scorer node, by name."""
    parser, rng = pair_scorer_parser(29)
    parser.params[name].data[index] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="^pair_scorer produced non-finite values$"):
        parser.relation_probs(Tensor(rng.normal(0, 1, (2, 4, parser.dim))))


STEP_KINDS = {"embedding", "attention", "feed_forward", "getitem", "joint_loss"}
PREDICT_KINDS = {"embedding", "attention", "feed_forward", "getitem", "tagger", "pair_scorer"}


def test_one_training_step_builds_a_fixed_number_of_tensors(monkeypatch):
    """Guard against small tape nodes coming back: one training forward,
    loss and backward on a fixed batch builds 7 tensors: 1 for the
    embedding, 2 per layer (the attention and feed-forward sub-layers), 1
    for the content view and 1 for the heads and their loss, whose tagging
    and parsing parts are floats; the backward pass builds none. A predict
    builds 9: the same encoder tensors, 1 per tagger and 1
    for the pair scorer. A step builds exactly the op kinds of
    ``STEP_KINDS`` and a predict those of ``PREDICT_KINDS``, with and
    without bias tables, so a new general op on the model's tape fails
    here."""
    sentences = sentences_with_heads()
    init, built = Tensor.__init__, []

    def building(tensor, *args, **kwargs):
        built.append(kwargs.get("_op", "leaf"))
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", building)
    for kind in (NONE, RELATIVE):
        model = scaled_model(kind, Vocabulary.build(sentences))
        built.clear()
        total = joint_loss(*assemble_batch(model, sentences[:5]))[2]
        forward_and_loss = len(built)
        total.backward()
        assert forward_and_loss == 1 + 2 * model.encoder_config.layers + 1 + 1 == 7
        assert len(built) == forward_and_loss
        assert built.count("attention") == built.count("feed_forward") == model.encoder_config.layers
        assert set(built) == STEP_KINDS, kind
        built.clear()
        model.predict(sentences[0])
        assert len(built) == 1 + 2 * model.encoder_config.layers + 1 + 3 == 9
        assert set(built) == PREDICT_KINDS, kind
