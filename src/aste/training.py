"""Joint optimization of encoder, adapter bias, and parser.

The objective is the sum of a tagging loss (both B/I/O heads) and a
parsing loss (all pairwise relation cells), each a masked mean cross
entropy, computed from the heads' logits in one tape node. Optimization
is Adam with decoupled weight decay, a global gradient-norm clip of 1, a
linear warmup-then-decay schedule, and a parser learning rate 10x the
base. The optimizer choice is recorded in the history metadata rather
than assumed elsewhere. Every batch runs as two fixed halves whose
gradients add up to the batch's, so two processes can each run one
(``processes``) with the outputs of one. Two processes also share the
optimizer step: each adds, clips and steps only the parameter groups it
owns (``owned_groups``), as ZeRO stage 1 does (Rajbhandari et al. 2020),
and copies in the other's.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Corpus, Sentence, Vocabulary, length_buckets
from .encoder import EncoderConfig, EncoderInputs
from .errors import NumericError, TrainingDivergedError, ValidationError
from .evaluation import MatchScores, exact_match
from .model import PREDICT_BATCH, BatchHidden, TripletModel, Worker
from .numerics import ParamGroup, Tensor, checked_once
from .parser import GoldPositions, LossMasks, ParserConfig, build_gold
from .structure import NONE

LR_GRID = (1e-5, 2e-5, 3e-5, 5e-5)


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 5e-5
    batch_size: int = 8
    max_epochs: int = 20
    patience: int = 5
    warmup_epochs: float = 2.0
    grad_clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("base_lr", "warmup_epochs", "grad_clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("base_lr", "batch_size", "max_epochs", "patience", "grad_clip_norm"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.warmup_epochs < 0 or self.seed < 0:
            raise ValidationError("warmup_epochs and seed must be non-negative")
        if self.patience > self.max_epochs:
            raise ValidationError("patience cannot exceed max_epochs")


def default_batch_size(adapter_kind: str) -> int:
    """8 without the structure bias, 6 with it (the smaller batch keeps
    adapter runs steadier)."""
    return 8 if adapter_kind == NONE else 6


@dataclass
class EpochRecord:
    epoch: int
    tagging_loss: float
    parsing_loss: float
    total_loss: float
    dev_precision: float
    dev_recall: float
    dev_f1: float
    lr: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, **kwargs) -> None:
        kwargs["total_loss"] = kwargs["tagging_loss"] + kwargs["parsing_loss"]
        self.records.append(EpochRecord(**kwargs))

    def best_epoch(self) -> EpochRecord:
        return max(self.records, key=lambda r: r.dev_f1)

    def to_tsv(self) -> str:
        lines = [f"# {key}: {value}" for key, value in sorted(self.metadata.items())]
        lines.append("epoch\ttagging_loss\tparsing_loss\ttotal_loss\tdev_p\tdev_r\tdev_f1\tlr")
        for r in self.records:
            lines.append(
                f"{r.epoch}\t{r.tagging_loss:.10g}\t{r.parsing_loss:.10g}"
                f"\t{r.total_loss:.10g}\t{r.dev_precision:.10g}\t{r.dev_recall:.10g}"
                f"\t{r.dev_f1:.10g}\t{r.lr:.10g}"
            )
        return "\n".join(lines) + "\n"


# -- loss -----------------------------------------------------------------


def joint_loss(pred: BatchHidden, gold: GoldPositions,
               masks: LossMasks) -> tuple[float, float, Tensor]:
    """Tagging loss, parsing loss, and their sum, padding masked out: each
    head's mean negative log likelihood over its unmasked cells. The sum
    is one node, the heads and their loss from logits
    (``TripletParser.loss``); the two parts are plain floats."""
    return pred.parser.loss(pred.hidden, gold, masks)


def padded_gold(sentences) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (B, n) aspect and opinion tag and (B, n, n) relation class
    indices of ``build_gold`` for a batch padded to its longest sentence,
    as int8, and its (B, n) token mask."""
    longest = max(len(s) for s in sentences)
    aspect = np.zeros((len(sentences), longest), dtype=np.int8)
    opinion = np.zeros_like(aspect)
    relations = np.zeros((len(sentences), longest, longest), dtype=np.int8)
    tokens = np.zeros(aspect.shape, dtype=bool)
    for b, sentence in enumerate(sentences):
        n = len(sentence)
        aspect[b, :n], opinion[b, :n], relations[b, :n, :n] = build_gold(sentence)
        tokens[b, :n] = True
    return aspect, opinion, relations, tokens


@dataclass
class BatchInputs:
    """What training keeps of a batch for every epoch, a byte or so a cell:
    the encoder's ids, key mask and distance-table rows
    (``Encoder.prepare``), the ``padded_gold`` classes and token mask, and
    the token and cell counts its losses are means over. Each step builds
    the int64 forms from them (``assemble_batch``)."""

    encoder: EncoderInputs
    gold: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    counts: tuple[int, int]


def prepare_batch(model: TripletModel, sentences, batch=None) -> BatchInputs:
    """The inputs of ``sentences``, part of ``batch`` (by default, all of
    it), whose tokens and cells its losses are means over."""
    ids = [model.vocab.encode(s.tokens) for s in sentences]
    lengths = [len(s) for s in (sentences if batch is None else batch)]
    return BatchInputs(encoder=model.encoder.prepare(ids, model.batch_distances(sentences)),
                       gold=padded_gold(sentences),
                       counts=(sum(lengths), sum(n * n for n in lengths)))


def assemble_batch(model: TripletModel, sentences, inputs: BatchInputs | None = None):
    """One padded training pass over the batch up to the parser's heads,
    with its gold positions and loss masks, built here and freed with the
    step. ``inputs`` is the batch's ``prepare_batch``, derived here when
    not given."""
    if inputs is None:
        inputs = prepare_batch(model, sentences)
    aspect, opinion, relations, tokens = inputs.gold
    hidden = model.encoder.run(inputs.encoder).content
    return (BatchHidden(hidden, model.parser), GoldPositions.build(aspect, opinion, relations),
            LossMasks.build(tokens, inputs.counts))


# -- schedule and optimizer ---------------------------------------------------


def lr_at(t: float, config: TrainConfig) -> float:
    """Base rate at fractional epoch ``t``: linear ramp over the warmup
    epochs, then linear decay to zero at max_epochs. Each parameter
    group multiplies this by its ``lr_multiplier``."""
    if t < 0 or t > config.max_epochs:
        raise ValidationError("t outside the training schedule")
    w = config.warmup_epochs
    if w > 0 and t < w:
        return config.base_lr * (t / w)
    if config.max_epochs == w:
        return config.base_lr
    return config.base_lr * (config.max_epochs - t) / (config.max_epochs - w)


class AdamW:
    """Adam with decoupled weight decay over the parameter groups it is
    given: in training, the groups this process owns (``owned_groups``).
    Each group has one first- and one second-moment vector laid out like
    its buffer, and a step is a few in-place operations over whole groups.
    ``last_group_lrs`` holds the rate of the last step for each of those
    groups only: ``lr_at(t) * lr_multiplier``."""

    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01

    def __init__(self, groups: list[ParamGroup]):
        self.groups = groups
        self.t = 0
        self.m = [np.zeros_like(g.buffer) for g in groups]
        self.v = [np.zeros_like(g.buffer) for g in groups]
        # Scratch sized to the largest group, allocated once and lent to each
        # group in turn: a step makes no parameter-sized temporaries and
        # leaves the gradients unchanged.
        largest = max((g.buffer for g in groups), key=len)
        self._step, self._work = np.empty_like(largest), np.empty_like(largest)
        self.last_group_lrs: dict[str, float] = {}

    @classmethod
    def describe(cls) -> str:
        return (f"adamw(beta1={cls.beta1}, beta2={cls.beta2}, eps={cls.eps}, "
                f"weight_decay={cls.weight_decay})")

    def step(self, base_lr: float) -> None:
        self.t += 1
        self.last_group_lrs = {}
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for group, m, v in zip(self.groups, self.m, self.v):
            s, w = self._step[:group.buffer.size], self._work[:group.buffer.size]
            lr = base_lr * group.lr_multiplier
            self.last_group_lrs[group.name] = lr
            g = group.grad
            # Every element goes through the operations of the textbook
            # update in the same order, so results are bit for bit those of
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # w -= lr * (m/bias1 / (sqrt(v/bias2) + eps) + wd*w).
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=w)
            np.add(m, w, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=w)
            np.multiply(w, g, out=w)
            np.add(v, w, out=v)
            np.divide(v, bias2, out=w)
            np.sqrt(w, out=w)
            np.add(w, self.eps, out=w)
            np.divide(m, bias1, out=s)
            np.divide(s, w, out=s)
            np.multiply(group.buffer, self.weight_decay, out=w)
            np.add(s, w, out=s)
            np.multiply(s, lr, out=s)
            np.subtract(group.buffer, s, out=group.buffer)


def square_sums(groups) -> list[float]:
    """The sum of squares of each tensor's gradient, in tensor order."""
    return [float(np.square(p.grad).sum()) for g in groups for p in g.tensors.values()]


def clip_gradients(groups, max_norm: float, sums=None) -> float:
    """Scale the gradients of ``groups`` in place so the global norm is at
    most ``max_norm``; returns the pre-clip norm. The norm adds per-tensor
    sums of squares in tensor order: ``sums``, those of every tensor of the
    model when ``groups`` are only the ones this process owns, or else the
    ``square_sums`` of ``groups``. Every owner of some groups thus gets the
    norm, bit for bit, that one process gets from all of them."""
    norm = float(np.sqrt(sum(square_sums(groups) if sums is None else sums)))
    if norm > max_norm:
        for g in groups:
            g.grad *= max_norm / norm
    return norm


def owned_groups(groups, processes: int) -> list[tuple[list[ParamGroup], slice]]:
    """Per training process, the parameter groups it adds, clips and steps,
    and their columns of a gradient slot, which lays every group's
    gradient end to end. One process owns them all. With two, the trainer
    (half 0) owns the groups before the group boundary nearest half the
    parameters and the helper (half 1) the rest."""
    starts = np.cumsum([0] + [group.grad.size for group in groups]).tolist()
    cuts = [0, len(groups)]
    if processes > 1:
        cuts.insert(1, 1 + int(np.argmin([abs(2 * start - starts[-1])
                                          for start in starts[1:-1]])))
    return [(groups[a:b], slice(starts[a], starts[b])) for a, b in zip(cuts, cuts[1:])]


# -- training loop ---------------------------------------------------------------


def bucket_batches(sentences, batch_size: int) -> list[list[Sentence]]:
    """Length-sorted contiguous training batches; batch order is shuffled
    per epoch, contents stay fixed, so padding waste stays low and runs
    are reproducible. Inference buckets through ``length_buckets``
    directly."""
    return [[sentences[i] for i in batch] for batch in length_buckets(sentences, batch_size)]


def evaluate_model(model: TripletModel, sentences, batches=None,
                   processes: int = 1) -> MatchScores:
    """Exact-match scores of the model's predictions, summed over each
    sentence's counts as its batch is decoded: ``aste eval`` on every usable
    core and dev scoring in one process. ``batches`` and ``processes`` are
    ``predict_corpus``'s; given batches that hold some of the sentences, as
    training's dev halves do, only those are scored."""
    counts = model.predict_corpus(sentences, batches, processes,
                                  finish=lambda s, found: exact_match(found, s.triplet_set()))
    return sum((count for count in counts if count is not None), MatchScores())


def _step(model: TripletModel, groups, sentences, inputs: BatchInputs) -> tuple:
    """Forward, loss and backward of one half of a batch: the tagging,
    parsing and total losses, and the groups holding its gradients. A
    non-finite loss is not backpropagated. No tensor comes back, so the
    half's tape is freed before the next one is built."""
    model.zero_grad()
    pred, gold, masks = assemble_batch(model, sentences, inputs)
    tagging, parsing, total = joint_loss(pred, gold, masks)
    if np.isfinite(total.data):
        total.backward()
    return tagging, parsing, total.item(), groups


def _step_results(result):
    """What must be finite after a step, for checked_once: the loss, then
    every gradient."""
    _, _, total, groups = result
    return (("joint_loss", total), *(("backward", group.grad) for group in groups))


def _add_halves(groups, slots) -> None:
    """Each group's gradient, the sum of the two halves' gradients laid out
    in ``slots`` in group order. Addition commutes bit for bit, so a group
    gets the same gradient whichever process adds it."""
    start = 0
    for group in groups:
        end = start + group.grad.size
        np.add(slots[0, start:end], slots[1, start:end], out=group.grad)
        start = end


def _copy_in(groups, columns) -> None:
    """Each group's buffer from ``columns``, which lay the groups' buffers
    end to end."""
    start = 0
    for group in groups:
        end = start + group.buffer.size
        group.buffer[...] = columns[start:end]
        start = end


def _swap(peer: Worker, message):
    """The peer process's message, for ``message``. The helper sends first,
    so the trainer reads a failure of the helper's before it sends."""
    if peer.pid == 0:
        peer.send(message)
    answer = peer.receive()
    if peer.pid:
        peer.send(message)
    return answer


def check_splits(train_split, dev_split) -> None:
    """Reject splits no run can learn or select from: an empty split, or
    a train split without a single token."""
    if not train_split or not dev_split:
        raise ValidationError("train and dev splits must be non-empty")
    if not any(len(s) for s in train_split):
        raise ValidationError("train split has no tokens")


def train(corpus: Corpus, encoder_config: EncoderConfig, parser_config: ParserConfig,
          config: TrainConfig, vocab: Vocabulary | None = None,
          log=None, processes: int = 1) -> tuple[TripletModel, TrainHistory]:
    """Fit a model on the corpus, early-stopping on dev exact-match F1.

    Returns the best-dev weights and the per-epoch history. Fully
    deterministic given ``config.seed``; the vocabulary sets the encoder's
    ``vocab_size``. Each batch runs as two fixed halves, its even rows
    (half 0) and its odd rows (half 1); each half's losses are means over
    the whole batch's tokens and cells, so the halves' losses and gradients
    add up to the batch's. Each epoch's weights are scored on dev, every
    inference batch as the same two halves, and kept if they score best.

    With ``processes`` above 1, a forked helper with its own replica of the
    model runs half 1 of every batch and the trainer half 0. The two
    gradients meet in a shared mapping. Each process then adds, clips and
    steps only the groups it owns (``owned_groups``), with an AdamW of its
    own that holds moments for those alone; the two swap their per-tensor
    sums of squares for the clip's norm, and each copies in the groups the
    other stepped. Every element goes through the operations of one
    process, so outputs and errors are those of one process, which runs
    half 0 first.
    """
    check_splits(corpus.train, corpus.dev)
    if vocab is None:
        vocab = Vocabulary.build(corpus.train)
    model = TripletModel(replace(encoder_config, vocab_size=len(vocab)), parser_config, vocab,
                         seed=config.seed)
    groups = model.param_groups()
    owners = owned_groups(groups, processes)
    rng = np.random.default_rng(config.seed)
    batches = bucket_batches(corpus.train, config.batch_size)
    steps_per_epoch = len(batches)
    history = TrainHistory(metadata={
        "optimizer": AdamW.describe(),
        "base_lr": config.base_lr,
        "parser_rate_multiplier": model.parser.params.lr_multiplier,
        "batch_size": config.batch_size,
        "seed": config.seed,
        "selection": "dev exact-match F1",
    })
    best = {}  # epoch 0 fills it
    # Each half's gradients, every group's laid end to end. After the step
    # each process writes the groups it owns into its columns of the other
    # half's slot, and the peer copies them from there. A helper shares the
    # slots through a mapping; one process keeps them on the heap, whose
    # pages a repeat run reuses.
    shape = (2, sum(group.grad.size for group in groups))
    exchange = (np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
                if processes > 1 else np.empty(shape))

    def epochs(parts, peer):
        """Each epoch's number, mean losses and dev scores, from the halves
        of training and dev batches numbered in ``parts``; each step's
        gradients and losses are added to those of the ``peer`` process's
        halves, when there is one. Every step the two swap three messages,
        the helper first: their halves' losses, their groups' sums of
        squares, and word that their groups' weights are written. Each
        orders what the peer reads in the slots after it before what this
        process writes there next, so one pair of slots serves every
        step."""
        inputs = [{part: (batch[part::2], prepare_batch(model, batch[part::2], batch))
                   for part in parts if batch[part::2]} for batch in batches]
        dev_halves = {part: [(rows, model.batch_distances([corpus.dev[i] for i in rows]))
                             for batch in length_buckets(corpus.dev, PREDICT_BATCH)
                             if (rows := batch[part::2])] for part in parts}
        own, columns = owners[parts[0]]
        if peer is not None:
            theirs, their_columns = owners[1 - parts[0]]
        optimizer = AdamW(own)
        for epoch in range(config.max_epochs):
            order = rng.permutation(steps_per_epoch)
            tagging_sum = parsing_sum = 0.0
            for step, batch_index in enumerate(order):
                t = min(epoch + (step + 1) / steps_per_epoch, config.max_epochs)
                losses = {}
                try:
                    for part in parts:
                        if part not in inputs[batch_index]:  # a one-sentence batch's odd rows
                            losses[part], exchange[part] = (0.0, 0.0), 0.0
                            continue
                        sentences, half = inputs[batch_index][part]
                        losses[part] = checked_once(
                            lambda: _step(model, groups, sentences, half), _step_results)[:2]
                        np.concatenate([group.grad for group in groups], out=exchange[part])
                    if peer is not None:
                        losses |= _swap(peer, losses)
                    _add_halves(own, exchange[:, columns])
                    sums = square_sums(own)
                    if peer is not None:
                        their_sums = _swap(peer, sums)  # the trainer's groups come first
                        sums = their_sums + sums if parts == (1,) else sums + their_sums
                    if not math.isfinite(clip_gradients(own, config.grad_clip_norm, sums)):
                        raise NumericError("backward produced non-finite values", op="backward")
                except NumericError as exc:
                    raise TrainingDivergedError(f"non-finite value at epoch {epoch}, "
                                                f"step {step}: {exc}") from exc
                optimizer.step(lr_at(t, config))
                if peer is not None:
                    np.concatenate([group.buffer for group in own],
                                   out=exchange[1 - parts[0], columns])
                    _swap(peer, None)
                    _copy_in(theirs, exchange[parts[0], their_columns])
                tagging_sum += losses[0][0] + losses[1][0]
                parsing_sum += losses[0][1] + losses[1][1]
            scores = sum((evaluate_model(model, corpus.dev, dev_halves[part]) for part in parts),
                         MatchScores())
            yield epoch, tagging_sum / steps_per_epoch, parsing_sum / steps_per_epoch, scores

    def help_train(trainer: Worker) -> None:
        for *_, scores in epochs((1,), trainer):
            trainer.send(scores)

    helper = None
    try:
        if processes > 1:
            helper = Worker("training helper", help_train)
        for epoch, tagging, parsing, scores in epochs((0,) if helper else (0, 1), helper):
            if helper is not None:
                scores += helper.receive()
            improved = not history.records or scores.f1 > history.best_epoch().dev_f1
            history.append(epoch=epoch, tagging_loss=tagging, parsing_loss=parsing,
                           dev_precision=scores.precision, dev_recall=scores.recall,
                           dev_f1=scores.f1, lr=lr_at(min(epoch + 1, config.max_epochs), config))
            if log is not None:
                log(history.records[-1])
            if improved:
                best.update(model.state_snapshot())
            elif epoch - history.best_epoch().epoch >= config.patience:
                break
    finally:
        if helper is not None:
            helper.close()
    model.load_snapshot(best)
    return model, history
