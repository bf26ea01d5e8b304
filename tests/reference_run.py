"""A fixed-seed ``aste train`` plus ``aste decode`` for each adapter kind,
and the committed reference that ``tests/test_reference_run.py`` holds
them to: ``history.tsv`` and the decode output byte for byte, every trained
parameter within 1e-12.

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

from aste.cli import main
from aste.data import Sentence, write_corpus_file
from aste.model import TripletModel
from aste.structure import random_tree_heads
from aste.synth import learnable_corpus

REFERENCE = Path(__file__).parent / "reference"
NUMPY_VERSION = REFERENCE / "numpy_version.txt"
KINDS = ("none", "rel", "dep")
SETTINGS = (
    "--dim", "8", "--heads", "2", "--layers", "2", "--ffn-dim", "16", "--max-len", "16",
    "--tag-hidden", "8", "--pair-hidden", "8", "--batch-size", "4",
    "--lr", "1e-2", "--max-epochs", "3", "--patience", "3", "--seed", "3",
)
OUTPUTS = ("history.tsv", "decoded.jsonl")


def write_inputs(directory: Path) -> None:
    """``train.jsonl`` (12 records) and ``dev.jsonl`` (4): learnable-corpus
    sentences, each with a random tree of heads for the dependency adapter."""
    rng = np.random.default_rng(11)
    sentences = [Sentence(tokens=s.tokens, triplets=s.triplets,
                          heads=random_tree_heads(len(s), rng))
                 for s in learnable_corpus(16, seed=5).train]
    write_corpus_file(directory / "train.jsonl", sentences[:12])
    write_corpus_file(directory / "dev.jsonl", sentences[12:])


def run(kind: str, inputs: Path, out: Path) -> None:
    """Train a ``kind`` model on ``inputs`` into ``out``, then decode the
    dev file to ``out/decoded.jsonl``."""
    commands = (
        ["train", "--train", str(inputs / "train.jsonl"), "--dev", str(inputs / "dev.jsonl"),
         "--out", str(out), "--adapter", kind, *SETTINGS],
        ["decode", "--weights", str(out / "weights.bin"), "--input", str(inputs / "dev.jsonl"),
         "--out", str(out / "decoded.jsonl")],
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
        for name in ("weights.bin", "config.resolved"):
            (out / name).unlink()
    NUMPY_VERSION.write_text(np.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    print(f"reference written to {REFERENCE} with numpy {np.__version__}", file=sys.stderr)
