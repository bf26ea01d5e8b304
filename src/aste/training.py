"""Joint optimization of encoder, adapter bias, and parser.

The objective is the sum of a tagging loss (both B/I/O heads) and a
parsing loss (all pairwise relation cells), each a masked mean cross
entropy, computed from the heads' logits in one tape node. Optimization
is Adam with decoupled weight decay, a global gradient-norm clip of 1, a
linear warmup-then-decay schedule, and a parser learning rate 10x the
base. The optimizer choice is recorded in the history metadata rather
than assumed elsewhere. Dev scoring can overlap training (``processes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Corpus, Sentence, Vocabulary, length_buckets
from .encoder import EncoderConfig, EncoderInputs
from .errors import NumericError, TrainingDivergedError, ValidationError
from .evaluation import MatchScores, score_corpus
from .model import BatchHidden, TripletModel, Worker
from .numerics import ParamGroup, Tensor, checked_once
from .parser import GoldPositions, LossMasks, ParserConfig, build_gold
from .structure import NONE

LR_GRID = (1e-5, 2e-5, 3e-5, 5e-5)
# A dev evaluator takes about as long to start as 50 training steps at these
# sizes (100-160 ms), so it scores only the epochs that begin after that many.
EVALUATOR_START_STEPS = 50


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
    (``Encoder.prepare``) and the ``padded_gold`` classes and token mask.
    Each step builds the int64 forms from them (``assemble_batch``)."""

    encoder: EncoderInputs
    gold: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def prepare_batch(model: TripletModel, sentences) -> BatchInputs:
    ids = [model.vocab.encode(s.tokens) for s in sentences]
    return BatchInputs(encoder=model.encoder.prepare(ids, model.batch_distances(sentences)),
                       gold=padded_gold(sentences))


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
            LossMasks.build(tokens))


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
    """Adam with decoupled weight decay. Each parameter group has one first-
    and one second-moment vector laid out like its buffer, and a step is a
    few in-place operations over whole groups."""

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

    def describe(self) -> str:
        return (f"adamw(beta1={self.beta1}, beta2={self.beta2}, eps={self.eps}, "
                f"weight_decay={self.weight_decay})")

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


def clip_gradients(groups, max_norm: float) -> float:
    """Scale the gradients in place so their global norm is at most
    ``max_norm``; returns the pre-clip norm, from per-tensor sums of
    squares added in tensor order."""
    norm = float(np.sqrt(sum(float(np.square(p.grad).sum())
                             for g in groups for p in g.tensors.values())))
    if norm > max_norm:
        for g in groups:
            g.grad *= max_norm / norm
    return norm


# -- training loop ---------------------------------------------------------------


def bucket_batches(sentences, batch_size: int) -> list[list[Sentence]]:
    """Length-sorted contiguous training batches; batch order is shuffled
    per epoch, contents stay fixed, so padding waste stays low and runs
    are reproducible. Inference buckets through ``length_buckets``
    directly."""
    return [[sentences[i] for i in batch] for batch in length_buckets(sentences, batch_size)]


def evaluate_model(model: TripletModel, sentences, batches=None) -> MatchScores:
    """Exact-match scores of the model's predictions; ``batches`` is the
    sentences' ``inference_batches``, derived here when not given."""
    preds = model.predict_corpus(sentences, batches)
    golds = [s.triplet_set() for s in sentences]
    return score_corpus(preds, golds)


def _step(model: TripletModel, groups, sentences, inputs: BatchInputs,
          clip_norm: float) -> tuple[float, float, float, float]:
    """Forward, loss, backward and gradient clip of one batch: the tagging,
    parsing and total losses and the pre-clip gradient norm. A non-finite
    loss is not backpropagated, and its norm reads 0. Only numbers come
    back, so the batch's tape is freed before the next one is built."""
    model.zero_grad()
    pred, gold, masks = assemble_batch(model, sentences, inputs)
    tagging, parsing, total = joint_loss(pred, gold, masks)
    if not np.isfinite(total.data):
        return tagging, parsing, total.item(), 0.0
    total.backward()
    return tagging, parsing, total.item(), clip_gradients(groups, clip_norm)


def _step_results(result):
    """What must be finite after a step, for checked_once: the loss, then
    the gradient norm, which is finite only if every gradient is."""
    _, _, total, norm = result
    return (("joint_loss", total), ("backward", norm))


def check_splits(train_split, dev_split) -> None:
    """Reject splits no run can learn or select from: an empty split, or
    a train split without a single token."""
    if not train_split or not dev_split:
        raise ValidationError("train and dev splits must be non-empty")
    if not any(len(s) for s in train_split):
        raise ValidationError("train split has no tokens")


class _EarlyStop(Exception):
    """Early stopping ends the run."""


def train(corpus: Corpus, encoder_config: EncoderConfig, parser_config: ParserConfig,
          config: TrainConfig, vocab: Vocabulary | None = None,
          log=None, processes: int = 1) -> tuple[TripletModel, TrainHistory]:
    """Fit a model on the corpus, early-stopping on dev exact-match F1.

    Returns the best-dev weights and the per-epoch history. Fully
    deterministic given ``config.seed``. With ``processes`` above 1, another
    process (``_evaluate_epochs``) scores on dev each epoch but the last that
    begins ``EVALUATOR_START_STEPS`` steps in, while the next trains; its answers
    are taken in order, before anything that depends on them, so outputs and
    errors are those of one process.
    """
    check_splits(corpus.train, corpus.dev)
    if vocab is None:
        vocab = Vocabulary.build(corpus.train)
    if encoder_config.vocab_size != len(vocab):
        encoder_config = replace(encoder_config, vocab_size=len(vocab))
    model = TripletModel(encoder_config, parser_config, vocab, seed=config.seed)
    groups = model.param_groups()
    optimizer = AdamW(groups)
    rng = np.random.default_rng(config.seed)
    batches = bucket_batches(corpus.train, config.batch_size)
    steps_per_epoch = len(batches)
    history = TrainHistory(metadata={
        "optimizer": optimizer.describe(),
        "base_lr": config.base_lr,
        "parser_rate_multiplier": model.parser.params.lr_multiplier,
        "batch_size": config.batch_size,
        "seed": config.seed,
        "selection": "dev exact-match F1",
    })
    best = model.state_snapshot()  # epoch 0 overwrites it
    owed = []  # (epoch, tagging loss, parsing loss) sent to the evaluator, not yet answered

    def record(epoch, tagging, parsing, scores, keep) -> None:
        improved = not history.records or scores.f1 > history.best_epoch().dev_f1
        history.append(epoch=epoch, tagging_loss=tagging, parsing_loss=parsing,
                       dev_precision=scores.precision, dev_recall=scores.recall,
                       dev_f1=scores.f1, lr=lr_at(min(epoch + 1, config.max_epochs), config))
        if log is not None:
            log(history.records[-1])
        if improved:
            keep()
        elif epoch - history.best_epoch().epoch >= config.patience:
            raise _EarlyStop

    def take_answers(every: bool) -> None:  # to keep an epoch, None asks its weights back
        while owed and (every or evaluator.ready()):
            record(*owed.pop(0), evaluator.receive(), lambda: (
                evaluator.send(None), evaluator.receive(), evaluator.receive_into(*best.values())))

    evaluator, first = None, math.ceil(EVALUATOR_START_STEPS / steps_per_epoch)  # its first epoch
    try:
        if processes > 1 and first < config.max_epochs - 1:  # it starts up from here on
            evaluator = Worker("dev evaluator", _evaluate_epochs, fresh=True)
            evaluator.make_room(*(group.buffer for group in groups))  # for a weight message
            evaluator.send((encoder_config, parser_config, vocab, corpus.dev))
        inputs = [prepare_batch(model, batch) for batch in batches]
        dev_batches = model.inference_batches(corpus.dev)
        for epoch in range(config.max_epochs):
            order = rng.permutation(steps_per_epoch)
            tagging_sum = parsing_sum = 0.0
            for step, batch_index in enumerate(order):
                t = min(epoch + (step + 1) / steps_per_epoch, config.max_epochs)
                base_lr = lr_at(t, config)
                try:
                    tagging, parsing, _, _ = checked_once(
                        lambda: _step(model, groups, batches[batch_index], inputs[batch_index],
                                      config.grad_clip_norm),
                        _step_results)
                except NumericError as exc:
                    take_answers(every=True)  # owed answers may end the run, or fail, first
                    raise TrainingDivergedError(f"non-finite value at epoch {epoch}, "
                                                f"step {step}: {exc}") from exc
                optimizer.step(base_lr)
                tagging_sum += tagging
                parsing_sum += parsing
                take_answers(every=False)
            take_answers(every=True)
            losses = (epoch, tagging_sum / steps_per_epoch, parsing_sum / steps_per_epoch)
            if evaluator is None or not first <= epoch < config.max_epochs - 1:
                record(*losses, evaluate_model(model, corpus.dev, dev_batches),
                       lambda: best.update(model.state_snapshot()))
            else:
                evaluator.send(epoch, *(group.buffer for group in groups))
                owed.append(losses)
    except _EarlyStop:
        pass
    finally:
        if evaluator is not None:
            evaluator.close()
    model.load_snapshot(best)
    return model, history


def _evaluate_epochs(trainer: Worker) -> None:
    """``train``'s dev evaluator. Given the configs, vocabulary and dev sentences, it
    answers weights with their dev scores, and None with the weights it last scored."""
    *configs, dev = trainer.receive()
    model = TripletModel(*configs, seed=None)  # the trainer's weights come before any scoring
    buffers = [group.buffer for group in model.param_groups()]
    dev_batches = model.inference_batches(dev)
    while True:
        if trainer.receive() is None:
            trainer.send(None, *buffers)
        else:
            trainer.receive_into(*buffers)
            trainer.send(evaluate_model(model, dev, dev_batches))
