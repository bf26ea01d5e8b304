"""The committed ``experiments/`` scripts still run against this tree.

They are measurement harnesses, not part of the program, and they reach into
it by internal names (``aste.model._in_workers``, ``aste.cli._read_for_model``,
``aste.cli._COMMANDS``, ``aste.training.prepare_batch``, ``aste.training._step``,
``aste.model.Worker.receive``), which a refactor can
rename without any other test noticing. Each runs here once, at its smallest
size, in a subprocess that writes only to temporary directories."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aste

SRC = str(Path(aste.__file__).resolve().parents[1])
EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def run_experiment(script, *argv) -> str:
    """The script's stdout; it must exit 0."""
    result = subprocess.run(
        [sys.executable, str(EXPERIMENTS / script), *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_kept_memory_runs():
    out = run_experiment("kept_memory.py", "--tree", f"change={SRC}", "--sentences", "20",
                         "--runs", "1")
    assert "change: kept " in out


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the script reports the cores from sched_getaffinity")
def test_decode_stages_runs_and_both_trees_agree():
    out = run_experiment("decode_stages.py", "--tree", f"a={SRC}", "--tree", f"b={SRC}",
                         "--workload", "short-rel", "--runs", "1")
    assert "outputs identical: True" in out


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the script reports the cores from sched_getaffinity")
def test_train_stages_runs_and_both_trees_agree():
    out = run_experiment("train_stages.py", "--tree", f"a={SRC}", "--tree", f"b={SRC}",
                         "--workload", "short-rel", "--runs", "1", "--epochs", "1")
    assert "outputs identical: True" in out
    assert out.count("  trainer: half_steps ") == 2
