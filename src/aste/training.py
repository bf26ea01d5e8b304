"""Joint optimization of encoder, adapter bias, and parser.

The objective is the sum of a tagging loss (both B/I/O heads) and a
parsing loss (all pairwise relation cells), each a masked mean cross
entropy. Optimization is Adam with decoupled weight decay, a global
gradient-norm clip of 1, a linear warmup-then-decay schedule, and a
parser learning rate 10x the base. The optimizer choice is recorded in
the history metadata rather than assumed elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Corpus, Sentence, Vocabulary
from .encoder import EncoderConfig
from .errors import NumericError, TrainingDivergedError, ValidationError
from .evaluation import MatchScores, score_corpus
from .model import TripletModel
from .numerics import ParamGroup, Tensor, concat_rows, cross_entropy
from .parser import ParserConfig, build_gold
from .structure import NONE

LR_GRID = (1e-5, 2e-5, 3e-5, 5e-5)


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 5e-5
    parser_rate_multiplier: float = 10.0
    batch_size: int = 8
    max_epochs: int = 20
    patience: int = 5
    warmup_epochs: float = 2.0
    grad_clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("base_lr", "parser_rate_multiplier", "batch_size",
                     "max_epochs", "patience", "grad_clip_norm"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.warmup_epochs < 0:
            raise ValidationError("warmup_epochs must be non-negative")
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


@dataclass
class BatchPredictions:
    aspect: Tensor
    opinion: Tensor
    relations: Tensor


@dataclass
class BatchTargets:
    aspect: np.ndarray
    opinion: np.ndarray
    relations: np.ndarray


@dataclass
class BatchMasks:
    tokens: np.ndarray
    cells: np.ndarray


def joint_loss(pred: BatchPredictions, gold: BatchTargets,
               masks: BatchMasks) -> tuple[Tensor, Tensor, Tensor]:
    """Tagging loss, parsing loss, and their sum, padding masked out."""
    tagging = cross_entropy(pred.aspect, gold.aspect, masks.tokens) \
        + cross_entropy(pred.opinion, gold.opinion, masks.tokens)
    parsing = cross_entropy(pred.relations, gold.relations, masks.cells)
    return tagging, parsing, tagging + parsing


def assemble_batch(model: TripletModel, sentences):
    """Pad a batch to its longest sentence and stack predictions/targets."""
    longest = max(len(s) for s in sentences)
    a_parts, o_parts, r_parts = [], [], []
    a_gold, o_gold, r_gold = [], [], []
    token_masks, cell_masks = [], []
    n_labels = None
    for sentence in sentences:
        n = len(sentence)
        forward = model.forward(sentence, pad_to=longest)
        n_labels = forward.relations.shape[-1]
        a_parts.append(forward.aspect)
        o_parts.append(forward.opinion)
        r_parts.append(forward.relations.reshape(longest * longest, n_labels))
        aspect, opinion, relations = build_gold(sentence)
        padded_a = np.zeros(longest, dtype=np.int64)
        padded_a[:n] = aspect
        padded_o = np.zeros(longest, dtype=np.int64)
        padded_o[:n] = opinion
        padded_r = np.zeros((longest, longest), dtype=np.int64)
        padded_r[:n, :n] = relations
        token_mask = np.zeros(longest, dtype=bool)
        token_mask[:n] = True
        a_gold.append(padded_a)
        o_gold.append(padded_o)
        r_gold.append(padded_r.reshape(-1))
        token_masks.append(token_mask)
        cell_masks.append(np.outer(token_mask, token_mask).reshape(-1))
    pred = BatchPredictions(
        aspect=concat_rows(a_parts),
        opinion=concat_rows(o_parts),
        relations=concat_rows(r_parts),
    )
    gold = BatchTargets(
        aspect=np.concatenate(a_gold),
        opinion=np.concatenate(o_gold),
        relations=np.concatenate(r_gold),
    )
    masks = BatchMasks(
        tokens=np.concatenate(token_masks),
        cells=np.concatenate(cell_masks),
    )
    return pred, gold, masks


# -- schedule and optimizer ---------------------------------------------------


def lr_at(t: float, config: TrainConfig) -> float:
    """Base rate at fractional epoch ``t``: linear ramp over the warmup
    epochs, then linear decay to zero at max_epochs. The parser group
    multiplies this by its rate multiplier."""
    if t < 0 or t > config.max_epochs:
        raise ValidationError("t outside the training schedule")
    w = config.warmup_epochs
    if w > 0 and t < w:
        return config.base_lr * (t / w)
    if config.max_epochs == w:
        return config.base_lr
    return config.base_lr * (config.max_epochs - t) / (config.max_epochs - w)


class AdamW:
    """Adam with decoupled weight decay; moments per parameter tensor."""

    def __init__(self, groups: list[ParamGroup], beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.groups = groups
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {self._key(g, n): np.zeros_like(p.data) for g in groups for n, p in g.items()}
        self.v = {self._key(g, n): np.zeros_like(p.data) for g in groups for n, p in g.items()}
        self.last_group_lrs: dict[str, float] = {}

    @staticmethod
    def _key(group: ParamGroup, name: str) -> str:
        return f"{group.name}/{name}"

    def describe(self) -> str:
        return (f"adamw(beta1={self.beta1}, beta2={self.beta2}, eps={self.eps}, "
                f"weight_decay={self.weight_decay})")

    def step(self, base_lr: float, freeze=frozenset()) -> None:
        self.t += 1
        self.last_group_lrs = {}
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for group in self.groups:
            if group.name in freeze:
                continue
            lr = base_lr * group.lr_multiplier
            self.last_group_lrs[group.name] = lr
            for name, param in group.items():
                grad = param.grad if param.grad is not None else np.zeros_like(param.data)
                key = self._key(group, name)
                self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * grad
                self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * grad * grad
                m_hat = self.m[key] / bias1
                v_hat = self.v[key] / bias2
                param.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                    + self.weight_decay * param.data)


def clip_gradients(groups, max_norm: float, freeze=frozenset()) -> float:
    """Scale unfrozen gradients so their global norm is at most
    ``max_norm``; returns the pre-clip norm."""
    params = [
        p for g in groups if g.name not in freeze
        for p in g.tensors.values() if p.grad is not None
    ]
    total = sum(float((p.grad ** 2).sum()) for p in params)
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad = p.grad * scale
    return norm


# -- training loop ---------------------------------------------------------------


def bucket_batches(sentences, batch_size: int) -> list[list[Sentence]]:
    """Length-sorted contiguous batches; batch order is shuffled per
    epoch, contents stay fixed, so padding waste stays low and runs are
    reproducible."""
    order = sorted(range(len(sentences)), key=lambda i: (len(sentences[i]), i))
    return [
        [sentences[i] for i in order[start:start + batch_size]]
        for start in range(0, len(order), batch_size)
    ]


def evaluate_model(model: TripletModel, sentences) -> MatchScores:
    preds = model.predict_corpus(sentences)
    golds = [s.triplet_set() for s in sentences]
    return score_corpus(preds, golds)


def train(corpus: Corpus, encoder_config: EncoderConfig, parser_config: ParserConfig,
          config: TrainConfig, vocab: Vocabulary | None = None, freeze=frozenset(),
          log=None) -> tuple[TripletModel, TrainHistory]:
    """Fit a model on the corpus, early-stopping on dev exact-match F1.

    Returns the best-dev weights and the per-epoch history. Fully
    deterministic given ``config.seed``; ``freeze`` names parameter
    groups excluded from clipping and updates.
    """
    if not corpus.train or not corpus.dev:
        raise ValidationError("train and dev splits must be non-empty")
    if vocab is None:
        vocab = Vocabulary.build(corpus.train)
    if encoder_config.vocab_size != len(vocab):
        encoder_config = replace(encoder_config, vocab_size=len(vocab))
    freeze = frozenset(freeze)
    model = TripletModel(encoder_config, parser_config, vocab, seed=config.seed)
    model.parser.params.lr_multiplier = config.parser_rate_multiplier
    groups = model.param_groups()
    optimizer = AdamW(groups)
    rng = np.random.default_rng(config.seed)
    batches = bucket_batches(corpus.train, config.batch_size)
    steps_per_epoch = len(batches)
    history = TrainHistory(metadata={
        "optimizer": optimizer.describe(),
        "base_lr": config.base_lr,
        "parser_rate_multiplier": config.parser_rate_multiplier,
        "batch_size": config.batch_size,
        "seed": config.seed,
        "frozen_groups": ",".join(sorted(freeze)) or "-",
        "selection": "dev exact-match F1",
    })
    best_f1 = -1.0
    best_snapshot = None
    stale = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(steps_per_epoch)
        tagging_sum = 0.0
        parsing_sum = 0.0
        for step, batch_index in enumerate(order):
            t = min(epoch + (step + 1) / steps_per_epoch, config.max_epochs)
            base_lr = lr_at(t, config)
            model.zero_grad()
            try:
                pred, gold, masks = assemble_batch(model, batches[batch_index])
                tagging, parsing, total = joint_loss(pred, gold, masks)
                total.backward()
            except NumericError as exc:
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {step}: {exc}"
                ) from exc
            clip_gradients(groups, config.grad_clip_norm, freeze)
            optimizer.step(base_lr, freeze)
            tagging_sum += tagging.item()
            parsing_sum += parsing.item()
        dev = evaluate_model(model, corpus.dev)
        history.append(
            epoch=epoch,
            tagging_loss=tagging_sum / steps_per_epoch,
            parsing_loss=parsing_sum / steps_per_epoch,
            dev_precision=dev.precision,
            dev_recall=dev.recall,
            dev_f1=dev.f1,
            lr=lr_at(min(epoch + 1, config.max_epochs), config),
        )
        if log is not None:
            log(history.records[-1])
        if dev.f1 > best_f1:
            best_f1 = dev.f1
            best_snapshot = model.state_snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if best_snapshot is not None:
        model.load_snapshot(best_snapshot)
    return model, history
