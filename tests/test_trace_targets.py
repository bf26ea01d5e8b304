"""The benchmark's layer tracer finds every name it wraps, and the
benchmark's own self-check passes.

perfbench/tracing.py patches functions at the names through which the
program calls them and reports a target it cannot find as absent, with
its metrics reading 0. A refactor that renames or moves one of them
would blind the traced benchmark without failing anything else, so this
reads the tracer's own target list and resolves each name the way the
tracer does. A refactor that routes around one (the program no longer
calls it) would zero its metrics just as silently, so a tiny traced
session must call every target. The self-check plays the benchmark's CLI
sessions at a tiny size, traced and untraced, and checks their outputs.
"""

import importlib
import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aste.cli import main
from aste.data import write_corpus_file
from aste.model import TripletModel
from aste.structure import random_tree_heads
from aste.synth import learnable_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module_name, path",
    [(module, path) for _, module, path in tracing.TARGETS]
    + [(tracing.TENSOR_CLASS[0], tracing.TENSOR_CLASS[1] + ".__init__")],
)
def test_target_resolves(module_name, path):
    importlib.import_module(module_name)
    found = tracing._resolve(module_name, path)
    assert found is not None, f"{module_name}.{path} is gone; the tracer would report it absent"
    assert callable(getattr(found[2], "__func__", found[2]))


def test_every_target_is_called(tmp_path):
    """One tiny session in this process: ``aste train`` with the
    dependency adapter for 2 epochs on 12 train and 4 dev sentences,
    ``aste decode`` of one batch (one batch is never split over worker
    processes, whose spans this process would not see) and a few
    ``TripletModel.predict`` calls. Every target records a span."""
    rng = np.random.default_rng(0)
    sentences = [replace(s, heads=random_tree_heads(len(s), rng))
                 for s in learnable_corpus(16, seed=0).train]
    train, dev, weights = tmp_path / "train.jsonl", tmp_path / "dev.jsonl", tmp_path / "weights.bin"
    write_corpus_file(train, sentences[:12])
    write_corpus_file(dev, sentences[12:])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["train", "--train", str(train), "--dev", str(dev), "--out", str(tmp_path),
                     "--adapter", "dep", "--max-epochs", "2", "--patience", "2"]) == 0
        assert main(["decode", "--weights", str(weights), "--input", str(dev),
                     "--out", str(tmp_path / "decoded.jsonl")]) == 0
        model = TripletModel.load(weights)
        for sentence in sentences[12:]:
            model.predict(sentence)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    called = {span[0] for span in tracer.spans}
    assert [name for name, _, _ in tracing.TARGETS if name not in called] == []


def test_benchmark_self_check_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--self-check"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-check PASS" in done.stdout.splitlines()
