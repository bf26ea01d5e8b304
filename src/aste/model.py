"""Full model: encoder plus triplet parser, with weight serialization.

A ``TripletModel`` owns three parameter groups (encoder, optional
adapter, parser), turns a sentence into tag and relation distributions,
and decodes predicted triplets. A weight file (format version 2) holds
``ASTW``, the version, a CRC32 of every later byte, the length of a JSON
header (the configs, the vocabulary, and the ``[group, name, shape]``
layout of every parameter in buffer order), the header, and then each
group's ``buffer`` as one little-endian float64 block.

``predict_corpus`` can split its batches over forked worker processes
(``_in_workers``), each deriving its batches' distances and pickling back
finished results: triplet sets, or what the caller's ``finish`` makes of
them (``aste decode``'s output lines, ``aste eval``'s match counts).
``Worker`` alone starts, talks to, kills and reaps a child, here and for
training's dev evaluator; ``_in_workers`` alone owns its workers.
"""

from __future__ import annotations

import fcntl
import json
import os
import pickle
import select
import signal
import struct
import sys
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Sentence, Triplet, Vocabulary, _cut, length_buckets
from .encoder import Encoder, EncoderConfig, adapter_increment, count_params
from .errors import ValidationError
from .numerics import ParamGroup, Tensor, checked_once, no_grad
from .parser import (ParserConfig, SentimentRelationMap, TripletParser, decode_grid,
                     spans_from_tags)
from .structure import DEPENDENCY, NONE, StructureConfig, augmented_distance_matrix

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


class _NoDraws:
    """A random generator's stand-in whose ``normal`` draws nothing: it
    gives zeros."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


class TripletModel:
    def __init__(self, encoder_config: EncoderConfig, parser_config: ParserConfig,
                 vocab: Vocabulary, seed: int | None = 0):
        """Weights drawn from ``seed``; with None, no draws and all zero, for
        a caller that overwrites every weight (``load``, the dev evaluator)."""
        if encoder_config.vocab_size != len(vocab):
            raise ValidationError("encoder vocab_size does not match the vocabulary")
        rng = _NoDraws() if seed is None else np.random.default_rng(seed)
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
        sentence, in the narrowest signed type that holds -tau to tau: one
        byte a cell up to tau = 127. None without an adapter. The dependency
        derivation runs per sentence. The relative one runs once, for the
        longest row, whose matrix holds every shorter row's as its top-left
        block; one broadcast mask zeroes the shorter rows' padding."""
        structure = self.encoder_config.adapter
        if structure.kind == NONE:
            return None
        dtype = np.min_scalar_type(-structure.tau - 1)  # -tau - 1 fits just when tau does
        lengths = [len(s) + 2 for s in sentences]  # with the two markers
        m = max(lengths)
        if structure.kind == DEPENDENCY:
            return np.stack([augmented_distance_matrix(len(s), structure, heads=s.heads,
                                                       total_len=m)
                             for s in sentences], dtype=dtype)
        full = augmented_distance_matrix(m - 2, structure).astype(dtype)
        if min(lengths) == m:
            return np.repeat(full[None], len(lengths), axis=0)
        inside = np.arange(m) < np.array(lengths)[:, None]
        return full * (inside[:, :, None] & inside[:, None, :])

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

    def predict_corpus(self, sentences, batches=None, processes: int = 1, finish=None) -> list:
        """Decode every sentence, in input order: its triplet set, or what
        ``finish(sentence, triplets)`` makes of it. Sentences run in the
        batches of ``inference_batches``; when those are not given, each
        batch derives its distances where it runs. Batches record no tape;
        finiteness is checked once per batch, on its three output arrays.

        With ``processes`` above 1, the batches are split into that many
        shards (at most one per batch) of about equal padded cells: this
        process runs the first and a forked worker each other one, and a
        worker pickles back only its finished results. Either way each
        shard runs its batches in length order, ``finish`` runs on each
        batch as it is decoded, and the error raised is that of the
        earliest failing batch in length order, as in one process."""
        if batches is None:
            batches = [(batch, None) for batch in length_buckets(sentences, PREDICT_BATCH)]

        def run(shard):
            """The ``(position, result)`` pairs of the batches numbered in
            ``shard``, run in that order up to the first that raises, and
            that failure as ``(batch number, exception)``, or None."""
            results = []
            with no_grad():
                for number in shard:
                    batch, distances = batches[number]
                    rows = [sentences[i] for i in batch]
                    try:
                        forward = checked_once(lambda: self.forward(rows, distances), _outputs)
                        decoded = forward.decode([len(s) for s in rows])
                        if finish is not None:
                            decoded = [finish(*pair) for pair in zip(rows, decoded)]
                    except Exception as exc:
                        # Held: the earliest failure over all shards is raised.
                        return results, (number, exc)
                    results += zip(batch, decoded)
            return results, None

        outcomes = _in_workers(run, _shards(sentences, batches, processes))
        failures = [failure for _, failure in outcomes if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        predicted: list = [None] * len(sentences)
        for results, _ in outcomes:
            for i, result in results:
                predicted[i] = result
        return predicted

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
        model = cls(encoder_config, parser_config, vocab, seed=None)
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


class Worker:
    """A child process with a pipe each way. It runs ``body(worker)``, sends
    any exception that raises, and exits. It is forked (0.2 ms), or ``fresh``:
    a new interpreter (80 ms) that imports ``body`` by name and so shares no
    page whose later writes here would fault, copy-on-write. ``send`` writes a
    pickled message, then arrays' raw bytes, and ``make_room`` lets it return
    before the other end reads them; ``receive`` raises an exception it reads;
    ``receive_into`` fills arrays of known shapes, as the dev evaluator takes
    weights. A child gone mid-message raises OSError naming ``role``;
    ``close`` kills and reaps it."""

    def __init__(self, role: str, body, fresh: bool = False):
        self.role, self.reaped = role, False
        to_child, from_child = os.pipe(), os.pipe()
        mine, theirs = (from_child[0], to_child[1]), (to_child[0], from_child[1])
        try:
            if fresh:
                argv = ["-S", "-c", _FRESH_CHILD, os.pathsep.join(sys.path), body.__module__,
                        body.__qualname__]  # -S: this process's path, without site's start-up
                self.pid = os.posix_spawn(  # its ends of the pipes are its stdin and stdout
                    sys.executable, [sys.executable, *argv], os.environ, setpgroup=0,
                    file_actions=[(os.POSIX_SPAWN_DUP2, fd, i) for i, fd in enumerate(theirs)])
            else:
                self.pid = os.fork()
        except OSError:
            for fd in mine + theirs:
                os.close(fd)
            raise
        for fd in theirs if self.pid else mine:
            os.close(fd)
        self._read, self._write = mine if self.pid else theirs
        if self.pid == 0:
            self._run(body)

    def _run(self, body) -> None:
        try:
            body(self)
            os._exit(0)
        except Exception as exc:
            self.send(exc)
        finally:
            os._exit(1)

    def send(self, message, *arrays) -> None:
        payload = pickle.dumps(message)
        try:
            for data in (struct.pack("<Q", len(payload)) + payload, *arrays):
                view = memoryview(data).cast("B")
                while view:
                    view = view[os.write(self._write, view):]
        except BrokenPipeError:
            self._gone()

    def make_room(self, *arrays) -> None:
        """Widen the pipe to the other end so that it holds a small message
        with ``arrays`` whole, and ``send`` of one returns without waiting
        for a read. A pipe is never narrowed (``F_SETPIPE_SZ`` also
        shrinks); where the OS lacks or refuses that, it keeps its size."""
        size = sum(memoryview(a).nbytes for a in arrays) + 4096  # and the pickled message
        try:
            if fcntl.fcntl(self._write, fcntl.F_GETPIPE_SZ) < size:
                fcntl.fcntl(self._write, fcntl.F_SETPIPE_SZ, size)
        except (AttributeError, OSError):
            pass

    def receive(self):
        data = self.receive_into(bytearray(*struct.unpack("<Q", self.receive_into(bytearray(8)))))
        try:
            message = pickle.loads(data)
        except Exception as exc:
            raise OSError(f"{self.role} {self.pid} sent an unreadable answer") from exc
        if isinstance(message, BaseException):
            raise message
        return message

    def receive_into(self, *buffers):
        """Fill each buffer in turn; the last."""
        for buffer in buffers:
            view = memoryview(buffer).cast("B")
            while view:
                view = view[os.readv(self._read, [view]) or self._gone():]
        return buffers[-1]

    def _gone(self):  # the other end closed its pipe
        if self.pid == 0:
            raise EOFError("the parent process closed its pipe")
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.reaped = True
        how = f"was killed by signal {-status}" if status < 0 else f"exited with code {status}"
        raise OSError(f"{self.role} {self.pid} {how} without an answer")

    def ready(self) -> bool:  # whether a message, or the child's end, waits to be read
        return bool(select.select([self._read], [], [], 0)[0])

    def close(self) -> None:
        if not self.reaped:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        os.close(self._read)
        os.close(self._write)


# A fresh child's program, given the import path and its body's module and name.
_FRESH_CHILD = ("import importlib, os, sys; sys.path[:] = sys.argv[1].split(os.pathsep); "
                "from aste.model import Worker; w = Worker.__new__(Worker); "
                "w.role, w.pid, w._read, w._write = 'parent', 0, 0, 1; "
                "w._run(getattr(importlib.import_module(sys.argv[2]), sys.argv[3]))")


def _in_workers(run, shards) -> list:
    """``[run(shard) for shard in shards]``, the first shard run here and each
    other in a forked ``Worker``, every one closed whatever is raised."""
    workers = []
    try:
        for shard in shards[1:]:
            workers.append(Worker("decode worker", lambda w, shard=shard: w.send(run(shard))))
        return [run(shards[0])] + [worker.receive() for worker in workers]
    finally:
        for worker in workers:
            worker.close()


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
