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

from .data import Sentence, Triplet, Vocabulary
from .encoder import Encoder, EncoderConfig
from .errors import ValidationError
from .numerics import ParamGroup, Tensor
from .parser import TAGS, ParserConfig, SentimentRelationMap, TripletParser, decode_bio, decode_grid
from .structure import NONE, StructureConfig, augmented_distance_matrix

_MAGIC = b"ASTW"
_VERSION = 1


@dataclass
class SentenceForward:
    """Differentiable outputs of one (possibly padded) sentence pass."""

    aspect: Tensor
    opinion: Tensor
    relations: Tensor


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

    def sentence_distances(self, sentence: Sentence, pad_to: int | None = None):
        structure = self.encoder_config.adapter
        if structure.kind == NONE:
            return None
        total = None if pad_to is None else pad_to + 2
        return augmented_distance_matrix(
            len(sentence), structure, heads=sentence.heads, total_len=total
        )

    def forward(self, sentence: Sentence, pad_to: int | None = None) -> SentenceForward:
        n = len(sentence)
        ids = self.vocab.encode(sentence.tokens)
        distances = self.sentence_distances(sentence, pad_to=pad_to)
        key_mask = None
        if pad_to is not None and pad_to > n:
            key_mask = np.zeros(pad_to + 2, dtype=bool)
            key_mask[:n + 2] = True
        hidden = self.encoder.encode(ids, distances, pad_to=pad_to, key_mask=key_mask).content
        return SentenceForward(
            aspect=self.parser.tag_probs(hidden, "aspect"),
            opinion=self.parser.tag_probs(hidden, "opinion"),
            relations=self.parser.relation_probs(hidden),
        )

    # -- decoding ------------------------------------------------------------

    def predict(self, sentence: Sentence) -> set[Triplet]:
        """Decode the model's triplets for one sentence."""
        forward = self.forward(sentence)
        aspects = decode_bio([TAGS[i] for i in forward.aspect.data.argmax(axis=-1)])
        opinions = decode_bio([TAGS[i] for i in forward.opinion.data.argmax(axis=-1)])
        probs = forward.relations.data
        return decode_grid(aspects, opinions, SentimentRelationMap(probs, probs.argmax(axis=-1)))

    def predict_corpus(self, sentences) -> list[set[Triplet]]:
        return [self.predict(s) for s in sentences]

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
            "encoder": _encoder_config_dict(self.encoder_config),
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
        count, = _unpack(handle, "<I")
        snapshot: dict[str, np.ndarray] = {}
        for _ in range(count):
            key = f"{_read_str(handle)}/{_read_str(handle)}"
            ndim, = _unpack(handle, "<I")
            shape = tuple(_unpack(handle, "<I")[0] for _ in range(ndim))
            # Checked before reading, so a corrupt shape cannot size a read.
            if shapes.get(key) != shape:
                raise ValidationError(f"weight file tensor {key} has unexpected shape {shape}")
            data = np.frombuffer(_read_exact(handle, 8 * math.prod(shape)), dtype="<f8")
            if not np.isfinite(data).all():
                raise ValidationError(f"weight file tensor {key} holds non-finite values")
            snapshot[key] = data.reshape(shape).astype(np.float64)
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


def _encoder_config_dict(config: EncoderConfig) -> dict:
    out = asdict(config)
    out["adapter"] = {"tau": config.adapter.tau, "kind": config.adapter.kind}
    return out


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
