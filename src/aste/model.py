"""Full model: encoder plus triplet parser, with weight serialization.

A ``TripletModel`` owns three parameter groups (encoder, optional
adapter, parser), turns a sentence into tag and relation distributions,
and decodes predicted triplets. Weights travel in a small versioned
binary format that also carries the configs and vocabulary, so a saved
model is self-contained.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Sentence, Triplet, Vocabulary, length_buckets
from .encoder import Encoder, EncoderConfig
from .errors import ValidationError
from .numerics import ParamGroup, Tensor, checked_once, no_grad
from .parser import (REL_LABELS, TAGS, ParserConfig, SentimentRelationMap, TripletParser,
                     decode_bio, decode_grid)
from .structure import NONE, StructureConfig, augmented_distance_matrix

_MAGIC = b"ASTW"
_VERSION = 1
# Sentences per padded batch in predict_corpus.
PREDICT_BATCH = 16


@dataclass
class BatchForward:
    """Differentiable outputs of one padded batch pass: (B, n, 3) tag and
    (B, n, n, 4) relation distributions, n the longest sentence."""

    aspect: Tensor
    opinion: Tensor
    relations: Tensor

    def decode(self, row: int, n: int) -> set[Triplet]:
        """The triplets of batch row ``row``, read from its first ``n``
        tokens, so the padding of longer rows never votes."""
        aspects = decode_bio([TAGS[i] for i in self.aspect.data[row, :n].argmax(axis=-1)])
        opinions = decode_bio([TAGS[i] for i in self.opinion.data[row, :n].argmax(axis=-1)])
        probs = self.relations.data[row, :n, :n]
        return decode_grid(aspects, opinions, SentimentRelationMap(probs, probs.argmax(axis=-1)))


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

    def predict_corpus(self, sentences, batches=None) -> list[set[Triplet]]:
        """Decode every sentence, in input order. Sentences run in the
        batches of ``inference_batches`` (derived here when not given) and
        record no tape; finiteness is checked once per batch, on its three
        output arrays."""
        if batches is None:
            batches = self.inference_batches(sentences)
        predicted: list = [None] * len(sentences)
        with no_grad():
            for batch, distances in batches:
                rows = [sentences[i] for i in batch]
                forward = checked_once(lambda: self.forward(rows, distances), _outputs)
                for row, i in enumerate(batch):
                    predicted[i] = forward.decode(row, len(sentences[i]))
        return predicted

    # -- serialization ---------------------------------------------------------

    def state_snapshot(self) -> dict[str, np.ndarray]:
        return {
            f"{group.name}/{name}": tensor.data.copy()
            for group in self.param_groups()
            for name, tensor in group.items()
        }

    def load_snapshot(self, snapshot: dict[str, np.ndarray]) -> None:
        for group in self.param_groups():
            for name, tensor in group.items():
                key = f"{group.name}/{name}"
                if key not in snapshot:
                    raise ValidationError(f"snapshot is missing {key}")
                if snapshot[key].shape != tensor.data.shape:
                    raise ValidationError(f"snapshot shape mismatch for {key}")
                tensor.data[...] = snapshot[key]

    def save(self, path) -> None:
        header = {
            "encoder": asdict(self.encoder_config),
            "parser": asdict(self.parser_config),
            "vocab": self.vocab.id_list(),
        }
        header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<I", _VERSION))
            handle.write(struct.pack("<I", len(header_bytes)))
            handle.write(header_bytes)
            entries = [
                (group.name, name, tensor)
                for group in self.param_groups()
                for name, tensor in group.items()
            ]
            handle.write(struct.pack("<I", len(entries)))
            for group_name, name, tensor in entries:
                _write_str(handle, group_name)
                _write_str(handle, name)
                handle.write(struct.pack("<I", tensor.data.ndim))
                for dim in tensor.data.shape:
                    handle.write(struct.pack("<I", dim))
                handle.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "TripletModel":
        """Rebuild a saved model; any malformed file raises ValidationError."""
        handle = io.BytesIO(Path(path).read_bytes())
        if handle.read(4) != _MAGIC:
            raise ValidationError("not a model weight file")
        version, = _unpack(handle, "<I")
        if version != _VERSION:
            raise ValidationError(f"unsupported weight file version {version}")
        header_len, = _unpack(handle, "<I")
        model = cls._from_header(_read_exact(handle, header_len))
        shapes = {
            f"{group.name}/{name}": tensor.data.shape
            for group in model.param_groups()
            for name, tensor in group.items()
        }
        # Files written before the per-label bilinear forms were stacked into
        # ``pair_bil`` hold them as four (p, p) entries.
        p = model.parser_config.pair_hidden
        legacy = {f"parser/pair_bil_{label.lower()}": (p, p) for label in REL_LABELS}
        count, = _unpack(handle, "<I")
        snapshot: dict[str, np.ndarray] = {}
        for _ in range(count):
            key = f"{_read_str(handle)}/{_read_str(handle)}"
            ndim, = _unpack(handle, "<I")
            shape = tuple(_unpack(handle, "<I")[0] for _ in range(ndim))
            # Checked before reading, so a corrupt shape cannot size a read.
            if shapes.get(key, legacy.get(key)) != shape:
                raise ValidationError(f"weight file tensor {key} has unexpected shape {shape}")
            data = np.frombuffer(_read_exact(handle, 8 * math.prod(shape)), dtype="<f8")
            if not np.isfinite(data).all():
                raise ValidationError(f"weight file tensor {key} holds non-finite values")
            snapshot[key] = data.reshape(shape).astype(np.float64)
        found = [key for key in legacy if key in snapshot]
        if found:
            if len(found) != len(legacy):
                raise ValidationError(f"weight file holds {len(found)} of the {len(legacy)} "
                                      "per-label pair_bil_* tensors")
            snapshot["parser/pair_bil"] = np.stack([snapshot.pop(key) for key in found])
        model.load_snapshot(snapshot)
        return model

    @classmethod
    def _from_header(cls, raw: bytes) -> "TripletModel":
        try:
            header = json.loads(raw.decode("utf-8"))
            encoder_config = _encoder_config_from_dict(header["encoder"])
            parser_config = ParserConfig(**header["parser"])
            vocab = Vocabulary.from_token_list(header["vocab"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"unreadable weight file header: {exc}") from exc
        return cls(encoder_config, parser_config, vocab, seed=0)


def _outputs(forward: BatchForward):
    """The arrays of a batch pass that must be finite, for checked_once."""
    return (("aspect tagger", forward.aspect.data), ("opinion tagger", forward.opinion.data),
            ("relation scorer", forward.relations.data))


def _encoder_config_from_dict(raw: dict) -> EncoderConfig:
    raw = dict(raw)
    # Older files record a training-only dropout rate; inference never used it.
    raw.pop("dropout", None)
    raw["adapter"] = StructureConfig(**raw["adapter"])
    return EncoderConfig(**raw)


def _write_str(handle, text: str) -> None:
    data = text.encode("utf-8")
    handle.write(struct.pack("<H", len(data)))
    handle.write(data)


def _read_exact(handle, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise ValidationError("weight file is truncated")
    return data


def _unpack(handle, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(handle, struct.calcsize(fmt)))


def _read_str(handle) -> str:
    length, = _unpack(handle, "<H")
    try:
        return _read_exact(handle, length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"undecodable name in weight file: {exc}") from exc
