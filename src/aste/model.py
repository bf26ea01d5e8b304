"""Full model: encoder plus triplet parser, with weight serialization.

A ``TripletModel`` owns three parameter groups (encoder, optional
adapter, parser), turns a sentence into tag and relation distributions,
and decodes predicted triplets. A weight file (format version 2) holds
``ASTW``, the version, a CRC32 of every later byte, the length of a JSON
header (the configs, the vocabulary, and the ``[group, name, shape]``
layout of every parameter in buffer order), the header, and then each
group's ``buffer`` as one little-endian float64 block.

``predict_corpus`` can split its batches over forked worker processes
(``_in_workers``): each worker derives its own batches' distances, decodes
them and pickles the triplets back through a pipe.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .data import Sentence, Triplet, Vocabulary, _cut, length_buckets
from .encoder import Encoder, EncoderConfig, adapter_increment, count_params
from .errors import ValidationError
from .numerics import ParamGroup, Tensor, checked_once, no_grad
from .parser import (ParserConfig, SentimentRelationMap, TripletParser, decode_grid,
                     spans_from_tags)
from .structure import NONE, StructureConfig, augmented_distance_matrix

_MAGIC = b"ASTW"
_VERSION = 2
# Magic, version, CRC32 of every byte from _CHECKED_FROM on, header length.
_PREFIX = struct.Struct("<4sIII")
_CHECKED_FROM = 12
# Sentences per padded batch in predict_corpus.
PREDICT_BATCH = 16


@dataclass
class BatchForward:
    """Differentiable outputs of one padded batch pass: (B, n, 3) tag and
    (B, n, n, 4) relation distributions, n the longest sentence."""

    aspect: Tensor
    opinion: Tensor
    relations: Tensor

    def decode(self, lengths) -> list[set[Triplet]]:
        """The triplets of every batch row, row ``b`` read from its first
        ``lengths[b]`` tokens, so the padding of longer rows never votes.
        The three argmaxes run once over the whole padded batch."""
        aspect_tags = self.aspect.data.argmax(axis=-1).tolist()
        opinion_tags = self.opinion.data.argmax(axis=-1).tolist()
        probs = self.relations.data
        labels = probs.argmax(axis=-1)
        return [decode_grid(spans_from_tags(aspect_tags[row][:n]),
                            spans_from_tags(opinion_tags[row][:n]),
                            SentimentRelationMap(probs[row, :n, :n], labels[row, :n, :n]))
                for row, n in enumerate(lengths)]


@dataclass
class BatchHidden:
    """The (B, n, dim) content states of one padded training pass and the
    parser that reads them. ``training.joint_loss`` runs the heads and
    their loss on them as one node (``TripletParser.loss``), so a step
    builds no distributions."""

    hidden: Tensor
    parser: TripletParser


class TripletModel:
    def __init__(self, encoder_config: EncoderConfig, parser_config: ParserConfig,
                 vocab: Vocabulary, seed: int = 0):
        if encoder_config.vocab_size != len(vocab):
            raise ValidationError("encoder vocab_size does not match the vocabulary")
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(encoder_config, rng)
        self.parser = TripletParser(encoder_config.dim, parser_config, rng)
        self.vocab = vocab

    @property
    def encoder_config(self) -> EncoderConfig:
        return self.encoder.config

    @property
    def parser_config(self) -> ParserConfig:
        return self.parser.config

    def param_groups(self) -> list[ParamGroup]:
        return self.encoder.param_groups() + [self.parser.params]

    def zero_grad(self) -> None:
        for group in self.param_groups():
            group.zero_grad()

    # -- forward -----------------------------------------------------------

    def batch_distances(self, sentences) -> np.ndarray | None:
        """The (B, m, m) distance stack of a batch padded to its longest
        sentence; None without an adapter."""
        structure = self.encoder_config.adapter
        if structure.kind == NONE:
            return None
        m = max(len(s) for s in sentences) + 2
        return np.stack([
            augmented_distance_matrix(len(s), structure, heads=s.heads, total_len=m)
            for s in sentences
        ])

    def forward(self, sentences, distances: np.ndarray | None = None) -> BatchForward:
        """One pass over a batch of sentences, padded to the longest; a
        single sentence is a batch of one. ``distances`` is the batch's
        ``batch_distances``, derived here when not given."""
        if not sentences:
            raise ValidationError("forward needs at least one sentence")
        if distances is None:
            distances = self.batch_distances(sentences)
        ids = [self.vocab.encode(s.tokens) for s in sentences]
        hidden = self.encoder.encode(ids, distances).content
        return BatchForward(
            aspect=self.parser.tag_probs(hidden, "aspect"),
            opinion=self.parser.tag_probs(hidden, "opinion"),
            relations=self.parser.relation_probs(hidden),
        )

    # -- decoding ------------------------------------------------------------

    def predict(self, sentence: Sentence) -> set[Triplet]:
        """Decode the model's triplets for one sentence."""
        return self.predict_corpus([sentence])[0]

    def inference_batches(self, sentences) -> list[tuple[list[int], np.ndarray | None]]:
        """The length-sorted padded batches ``predict_corpus`` runs: each is
        up to ``PREDICT_BATCH`` positions in ``sentences`` with the batch's
        ``batch_distances``. Fixed for fixed sentences, so a caller that
        decodes the same sentences again derives them once."""
        return [(batch, self.batch_distances([sentences[i] for i in batch]))
                for batch in length_buckets(sentences, PREDICT_BATCH)]

    def predict_corpus(self, sentences, batches=None, processes: int = 1) -> list[set[Triplet]]:
        """Decode every sentence, in input order. Sentences run in the
        batches of ``inference_batches``; when those are not given, each
        batch derives its distances where it runs. Batches record no tape;
        finiteness is checked once per batch, on its three output arrays.

        With ``processes`` above 1, the batches are split into that many
        shards (at most one per batch) of about equal padded cells: this
        process runs the first and a forked worker each other one. Either
        way each shard runs its batches in length order, and the error
        raised is that of the earliest failing batch in length order, as
        in one process."""
        if batches is None:
            batches = [(batch, None) for batch in length_buckets(sentences, PREDICT_BATCH)]

        def run(shard):
            return self._decode_shard(sentences, batches, shard)

        outcomes = _in_workers(run, _shards(sentences, batches, processes))
        failures = [failure for _, failure in outcomes if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        predicted: list = [None] * len(sentences)
        for decoded, _ in outcomes:
            for i, triplets in decoded:
                predicted[i] = triplets
        return predicted

    def _decode_shard(self, sentences, batches, shard):
        """The ``(position, triplets)`` pairs of the batches numbered in
        ``shard``, run in that order up to the first that raises, and that
        failure as ``(batch number, exception)``, or None."""
        decoded = []
        with no_grad():
            for number in shard:
                batch, distances = batches[number]
                rows = [sentences[i] for i in batch]
                try:
                    forward = checked_once(lambda: self.forward(rows, distances), _outputs)
                except Exception as exc:
                    # Held, not raised: the caller raises the failure of the
                    # earliest batch over all shards, whatever its type.
                    return decoded, (number, exc)
                decoded += zip(batch, forward.decode([len(s) for s in rows]))
        return decoded, None

    # -- serialization ---------------------------------------------------------

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """A copy of each group's buffer, by group name."""
        return {group.name: group.buffer.copy() for group in self.param_groups()}

    def load_snapshot(self, snapshot: dict[str, np.ndarray]) -> None:
        """Copy each group's buffer back from a ``state_snapshot``-shaped
        dict, as training's best-epoch restore and ``load`` do; a missing
        group or a buffer of another size is rejected."""
        for group in self.param_groups():
            if group.name not in snapshot:
                raise ValidationError(f"snapshot is missing group {group.name}")
            if snapshot[group.name].shape != group.buffer.shape:
                raise ValidationError(f"snapshot size mismatch for group {group.name}")
            group.buffer[...] = snapshot[group.name]

    def _layout(self) -> list:
        """``[group, name, shape]`` of every parameter, in buffer order."""
        return [[group.name, name, list(tensor.shape)]
                for group in self.param_groups() for name, tensor in group.items()]

    def save(self, path) -> None:
        header = {"encoder": asdict(self.encoder_config), "parser": asdict(self.parser_config),
                  "vocab": self.vocab.id_list(), "layout": self._layout()}
        header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
        body = b"".join([struct.pack("<I", len(header_bytes)), header_bytes]
                        + [group.buffer.astype("<f8").tobytes() for group in self.param_groups()])
        Path(path).write_bytes(_MAGIC + struct.pack("<II", _VERSION, zlib.crc32(body)) + body)

    @classmethod
    def load(cls, path) -> "TripletModel":
        """Rebuild a saved model; any malformed file raises ValidationError."""
        data = Path(path).read_bytes()
        if data[:4] != _MAGIC:
            raise ValidationError("not a model weight file")
        if len(data) < _PREFIX.size:
            raise ValidationError("weight file is truncated")
        _, version, checksum, header_len = _PREFIX.unpack_from(data)
        if version != _VERSION:
            raise ValidationError(f"unsupported weight file version {version}")
        if zlib.crc32(data[_CHECKED_FROM:]) != checksum:
            raise ValidationError("weight file checksum mismatch: the file is damaged")
        payload_at = _PREFIX.size + header_len
        if len(data) < payload_at:
            raise ValidationError("weight file is truncated")
        encoder_config, parser_config, vocab, layout = _read_header(data[_PREFIX.size:payload_at])
        # Checked before the model is built, so a corrupt size cannot size
        # its allocation.
        expected = 8 * _param_count(encoder_config, parser_config)
        if len(data) - payload_at != expected:
            raise ValidationError(f"weight file holds {len(data) - payload_at} bytes of "
                                  f"parameters where its header describes {expected}")
        model = cls(encoder_config, parser_config, vocab, seed=0)
        if layout != model._layout():
            raise ValidationError("weight file layout does not match its header's configs")
        groups = model.param_groups()
        blocks = np.split(np.frombuffer(data, dtype="<f8", offset=payload_at),
                          np.cumsum([group.buffer.size for group in groups])[:-1])
        for group, block in zip(groups, blocks):
            if not np.isfinite(block).all():
                raise ValidationError(f"weight file group {group.name} holds non-finite values")
        model.load_snapshot({group.name: block for group, block in zip(groups, blocks)})
        return model


def _shards(sentences, batches, processes: int) -> list[list[int]]:
    """The batch numbers split into ``processes`` shards, at most one per
    batch, each listed in length order. A batch costs its padded cells
    (sentences times longest length squared); each batch, costliest first,
    goes to the shard with the fewest cells so far. Fixed for fixed
    batches."""
    count = max(1, min(processes, len(batches)))
    cost = [len(batch) * max(len(sentences[i]) for i in batch) ** 2 for batch, _ in batches]
    shards: list[list[int]] = [[] for _ in range(count)]
    cells = [0] * count
    for number in sorted(range(len(batches)), key=lambda k: -cost[k]):
        k = cells.index(min(cells))
        shards[k].append(number)
        cells[k] += cost[number]
    return [sorted(shard) for shard in shards]


def _in_workers(run, shards) -> list:
    """``[run(shard) for shard in shards]``, the first shard run in this
    process and each other one in a forked worker, which pickles its
    result back through a pipe and exits. A worker that exits without a
    whole answer raises OSError. Every worker is reaped before this
    returns or raises; if it raises, the workers still running are killed
    first. Fork, not spawn: a forked worker starts with the model and the
    sentences in its memory, where a spawned one would first start an
    interpreter and import numpy and the package (about 78 ms on a 2-vCPU
    container), longer than its share of a 240-sentence long-dep decode
    (about 56 ms)."""
    workers: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for shard in shards[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _answer_and_exit(run, shard, write_fd)
            os.close(write_fd)
            workers[pid] = read_fd
        results = [run(shards[0])]
        for pid in list(workers):
            results.append(_answer(pid, workers.pop(pid)))
        return results
    finally:
        for pid, read_fd in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)


def _answer_and_exit(run, shard, write_fd: int) -> NoReturn:
    """A worker's whole life: run its shard, write the pickled result,
    exit 0; on any failure, exit 1 without a traceback. It never returns
    into its parent's stack."""
    code = 1
    try:
        payload = pickle.dumps(run(shard))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _answer(pid: int, read_fd: int):
    """The result a worker pickled, read to the end of its pipe, once the
    worker is reaped."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        how = f"was killed by signal {-status}" if status < 0 else f"exited with code {status}"
        raise OSError(f"decode worker {pid} {how} without an answer")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise OSError(f"decode worker {pid} sent an unreadable answer") from exc


def _outputs(forward: BatchForward):
    """The arrays of a batch pass that must be finite, for checked_once."""
    return (("aspect tagger", forward.aspect.data), ("opinion tagger", forward.opinion.data),
            ("relation scorer", forward.relations.data))


def _read_header(raw: bytes):
    """The configs, vocabulary and parameter layout a weight file header
    records."""
    try:
        header = json.loads(raw.decode("utf-8"))
        encoder = dict(header["encoder"], adapter=StructureConfig(**header["encoder"]["adapter"]))
        encoder_config, parser_config = EncoderConfig(**encoder), ParserConfig(**header["parser"])
        # A float or bool size passes the configs' own checks and fails
        # later as a numpy shape.
        fields = vars(encoder_config) | vars(encoder_config.adapter) | vars(parser_config)
        if any(type(fields[key]) is not int for key in fields if key not in ("adapter", "kind")):
            raise ValueError("config sizes must be integers")
        vocab = Vocabulary.from_token_list(header["vocab"])
        return encoder_config, parser_config, vocab, header["layout"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # The exception may quote a header key or value of any length.
        raise ValidationError(f"unreadable weight file header: {_cut(str(exc), 200)}") from exc


def _param_count(encoder_config: EncoderConfig, parser_config: ParserConfig) -> int:
    """Parameters of the model these configs build: the bare count plus,
    with an adapter, its distance-bias tables."""
    count = count_params(encoder_config, parser_config)
    adapter = encoder_config.adapter
    if adapter.kind != NONE:
        count += adapter_increment(encoder_config.layers, adapter.tau, encoder_config.head_dim)
    return count
