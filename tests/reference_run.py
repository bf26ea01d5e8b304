"""A fixed-seed ``aste train`` plus ``aste decode`` for each adapter kind,
and the committed reference that ``tests/test_reference_run.py`` holds
them to: ``history.tsv`` and the decode output byte for byte, every trained
parameter within 1e-12. Each kind also decodes ``batches.jsonl``, 40
sentences in three inference batches, with an untrained model scaled so
that its predictions depend on every sentence's distances (see
``save_untrained``); that output pins each batch's triplets and the order
in which the batches' results are merged.

Regenerate the reference in ``tests/reference/`` from the source tree on
the path with

    PYTHONPATH=src python tests/reference_run.py

It records the numpy version next to the reference; the test fails on any
other. A change that moves these outputs on purpose regenerates them and
reports the measured differences.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

from aste.cli import ADAPTER_KINDS, main
from aste.data import Sentence, Vocabulary, read_corpus_file, write_corpus_file
from aste.encoder import EncoderConfig
from aste.model import TripletModel
from aste.parser import ParserConfig
from aste.structure import StructureConfig, random_tree_heads
from aste.synth import learnable_corpus

REFERENCE = Path(__file__).parent / "reference"
NUMPY_VERSION = REFERENCE / "numpy_version.txt"
KINDS = ("none", "rel", "dep")
SETTINGS = (
    "--dim", "8", "--heads", "2", "--layers", "2", "--ffn-dim", "16", "--max-len", "16",
    "--tag-hidden", "8", "--pair-hidden", "8", "--batch-size", "4",
    "--lr", "1e-2", "--max-epochs", "3", "--patience", "3", "--seed", "3",
)
OUTPUTS = ("history.tsv", "decoded.jsonl", "batches_decoded.jsonl")


def write_inputs(directory: Path) -> None:
    """``train.jsonl`` (12 records), ``dev.jsonl`` (4) and ``batches.jsonl``
    (40): learnable-corpus sentences, each with a random tree of heads for
    the dependency adapter."""
    rng = np.random.default_rng(11)
    sentences = [Sentence(tokens=s.tokens, triplets=s.triplets,
                          heads=random_tree_heads(len(s), rng))
                 for s in learnable_corpus(16, seed=5).train + learnable_corpus(40, seed=7).train]
    write_corpus_file(directory / "train.jsonl", sentences[:12])
    write_corpus_file(directory / "dev.jsonl", sentences[12:16])
    write_corpus_file(directory / "batches.jsonl", sentences[16:])


def save_untrained(kind: str, inputs: Path, path: Path) -> None:
    """A seeded model over the training file's vocabulary, at the run's
    sizes. At initialisation its encoder is too small, and its distance-bias
    tables are zero, for attention to move a prediction; with the encoder
    scaled by 20 and the tables drawn at random, the dependency and
    relative models disagree on 32 of the 40 sentences, and each predicts
    triplets in 38 or more."""
    vocab = Vocabulary.build(read_corpus_file(inputs / "train.jsonl"))
    config = EncoderConfig(vocab_size=len(vocab), dim=8, heads=2, layers=2, ffn_dim=16,
                           max_len=16, adapter=StructureConfig(tau=8, kind=ADAPTER_KINDS[kind]))
    model = TripletModel(config, ParserConfig(tag_hidden=8, pair_hidden=8), vocab, seed=3)
    model.encoder.params.buffer *= 20.0
    if model.encoder.adapter is not None:
        tables = model.encoder.adapter.buffer
        tables[...] = np.random.default_rng(17).normal(0.0, 3.0, tables.size)
    model.save(path)


def run(kind: str, inputs: Path, out: Path) -> None:
    """Train a ``kind`` model on ``inputs`` into ``out``, then decode the
    dev file to ``out/decoded.jsonl``, and ``batches.jsonl`` with the
    untrained model of ``save_untrained`` to ``out/batches_decoded.jsonl``."""
    out.mkdir(parents=True, exist_ok=True)
    save_untrained(kind, inputs, out / "untrained.bin")
    commands = (
        ["train", "--train", str(inputs / "train.jsonl"), "--dev", str(inputs / "dev.jsonl"),
         "--out", str(out), "--adapter", kind, *SETTINGS],
        ["decode", "--weights", str(out / "weights.bin"), "--input", str(inputs / "dev.jsonl"),
         "--out", str(out / "decoded.jsonl")],
        ["decode", "--weights", str(out / "untrained.bin"),
         "--input", str(inputs / "batches.jsonl"), "--out", str(out / "batches_decoded.jsonl")],
    )
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"aste {argv[0]} of the {kind} run exited {code}")


def parameters(weights: Path) -> dict[str, np.ndarray]:
    """Every trained parameter, by ``group/name``."""
    model = TripletModel.load(weights)
    return {f"{group.name}/{name}": tensor.data
            for group in model.param_groups() for name, tensor in group.items()}


def regenerate() -> None:
    REFERENCE.mkdir(exist_ok=True)
    write_inputs(REFERENCE)
    for kind in KINDS:
        out = REFERENCE / kind
        run(kind, REFERENCE, out)
        np.savez_compressed(out / "parameters.npz", **parameters(out / "weights.bin"))
        for name in ("weights.bin", "untrained.bin", "config.resolved"):
            (out / name).unlink()
    NUMPY_VERSION.write_text(np.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    print(f"reference written to {REFERENCE} with numpy {np.__version__}", file=sys.stderr)
