"""Span tracing of the program's layers, applied from outside the program.

Each target below is a public function or method, wrapped at the name
through which the program calls it (``aste.model.augmented_distance_matrix``
is the name ``TripletModel`` looks up, not the one in ``aste.structure``).
A wrapper records a span: name, start, end, parent span, and the number of
``Tensor`` objects constructed so far at start and end. Spans stay in
memory until the run writes them out. A target the program no longer has
is reported as absent; its metrics read 0.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

TARGETS = (
    ("structure.distance", "aste.model", "augmented_distance_matrix"),
    ("encoder.encode", "aste.encoder", "Encoder.encode"),
    ("parser.tag_probs", "aste.parser", "TripletParser.tag_probs"),
    ("parser.relation_probs", "aste.parser", "TripletParser.relation_probs"),
    ("parser.decode_grid", "aste.model", "decode_grid"),
    ("parser.build_gold", "aste.training", "build_gold"),
    ("model.forward", "aste.model", "TripletModel.forward"),
    ("model.predict", "aste.model", "TripletModel.predict"),
    ("model.load", "aste.model", "TripletModel.load"),
    ("training.train", "aste.cli", "train"),
    ("training.bucket_batches", "aste.training", "bucket_batches"),
    ("training.assemble_batch", "aste.training", "assemble_batch"),
    ("training.joint_loss", "aste.training", "joint_loss"),
    ("training.optimizer_step", "aste.training", "AdamW.step"),
    ("training.clip_gradients", "aste.training", "clip_gradients"),
    ("training.evaluate", "aste.training", "evaluate_model"),
    ("numerics.backward", "aste.numerics", "Tensor.backward"),
    ("data.read_corpus", "aste.cli", "read_corpus_file"),
)
TENSOR_CLASS = ("aste.numerics", "Tensor")

# name, unit, better; the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = (
    ("structure.distance_calls", "count", "lower"),
    ("structure.distance_s", "s", "lower"),
    ("encoder.encode_calls", "count", "lower"),
    ("encoder.encode_s", "s", "lower"),
    ("parser.head_calls_per_predict", "calls/predict", "lower"),
    ("parser.relation_probs_s", "s", "lower"),
    ("parser.decode_grid_s", "s", "lower"),
    ("parser.build_gold_calls", "count", "lower"),
    ("parser.build_gold_s", "s", "lower"),
    ("model.forward_calls", "count", "lower"),
    ("model.load_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("training.assemble_batch_s", "s", "lower"),
    ("training.pad_efficiency", "ratio", "higher"),
    ("training.optimizer_s", "s", "lower"),
    ("training.evaluate_s", "s", "lower"),
    ("numerics.backward_s", "s", "lower"),
    ("numerics.tensors_per_train_sentence", "tensors/sentence", "lower"),
    ("numerics.tensors_per_predict", "tensors/predict", "lower"),
    ("data.read_corpus_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Counts that must repeat exactly from round to round and run to run.
EXACT = {
    "structure.distance_calls", "encoder.encode_calls", "parser.head_calls_per_predict",
    "parser.build_gold_calls", "model.forward_calls", "training.steps",
    "training.pad_efficiency", "numerics.tensors_per_train_sentence",
    "numerics.tensors_per_predict",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for ``module.Class.attr`` or ``module.attr``;
    None when any part is missing."""
    module = sys.modules.get(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = module
    if owner is not None and owner_name:
        owner = getattr(module, owner_name, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Records spans for one round; install() patches, uninstall() restores."""

    def __init__(self):
        # [name, start, end, parent index, tensors at start, tensors at end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tensors = 0
        self.absent: list[str] = []
        self.real_cells = 0
        self.padded_cells = 0
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.tensors, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        record[5] = self.tensors
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own phases."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, func):
        open_, close = self._open, self._close
        after = self._count_padding if name == "training.bucket_batches" else None

        def traced(*args, **kwargs):
            record = open_(name)
            try:
                result = func(*args, **kwargs)
            finally:
                close(record)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = func
        return traced

    def _count_padding(self, batches) -> None:
        for batch in batches:
            lengths = [len(sentence) for sentence in batch]
            self.real_cells += sum(n * n for n in lengths)
            self.padded_cells += len(lengths) * max(lengths) ** 2

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, raw))
        found = _resolve(TENSOR_CLASS[0], TENSOR_CLASS[1] + ".__init__")
        if found is None:
            self.absent.append(".".join(TENSOR_CLASS) + ".__init__")
            return
        owner, attr, original = found

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            original(obj, *args, **kwargs)

        setattr(owner, attr, counting_init)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, handle, round_index: int) -> None:
        for name, start, end, parent, t0, t1 in self.spans:
            handle.write(json.dumps({
                "round": round_index, "name": name, "start": start, "end": end,
                "parent": parent, "tensors": t1 - t0,
            }) + "\n")

    def layer_metrics(self, train_sentences: int, epochs: int) -> dict[str, float]:
        """Per-layer figures of one round (everything but trace.overhead_s)."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        tensors: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        in_predict = [False] * len(self.spans)
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_predict[i] = in_predict[parent] or self.spans[parent][0] == "model.predict"
        head_calls = 0
        for i, (name, start, end, _, t0, t1) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child_time[i]
            tensors[name] = tensors.get(name, 0) + t1 - t0
            if in_predict[i] and name in ("parser.tag_probs", "parser.relation_probs"):
                head_calls += 1
        predicts = calls.get("model.predict", 0)
        sentence_epochs = train_sentences * epochs
        return {
            "structure.distance_calls": calls.get("structure.distance", 0),
            "structure.distance_s": total.get("structure.distance", 0.0),
            "encoder.encode_calls": calls.get("encoder.encode", 0),
            "encoder.encode_s": own.get("encoder.encode", 0.0),
            "parser.head_calls_per_predict": head_calls / predicts if predicts else 0.0,
            "parser.relation_probs_s": total.get("parser.relation_probs", 0.0),
            "parser.decode_grid_s": total.get("parser.decode_grid", 0.0),
            "parser.build_gold_calls": calls.get("parser.build_gold", 0),
            "parser.build_gold_s": total.get("parser.build_gold", 0.0),
            "model.forward_calls": calls.get("model.forward", 0),
            "model.load_s": total.get("model.load", 0.0),
            "training.steps": calls.get("training.optimizer_step", 0),
            "training.assemble_batch_s": total.get("training.assemble_batch", 0.0),
            "training.pad_efficiency": (
                self.real_cells / self.padded_cells if self.padded_cells else 0.0
            ),
            "training.optimizer_s": (
                total.get("training.optimizer_step", 0.0) + total.get("training.clip_gradients", 0.0)
            ),
            "training.evaluate_s": total.get("training.evaluate", 0.0),
            "numerics.backward_s": total.get("numerics.backward", 0.0),
            "numerics.tensors_per_train_sentence": (
                (tensors.get("training.assemble_batch", 0) + tensors.get("training.joint_loss", 0))
                / sentence_epochs
            ),
            "numerics.tensors_per_predict": (
                tensors.get("model.predict", 0) / predicts if predicts else 0.0
            ),
            "data.read_corpus_s": total.get("data.read_corpus", 0.0),
        }


def combine_rounds(per_round: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced rounds; names of exact counts that differed."""
    combined = {}
    unsteady = []
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if name in EXACT and len(set(values)) > 1:
            unsteady.append(name)
        combined[name] = statistics.median(values)
    return combined, unsteady
