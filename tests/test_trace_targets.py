"""The benchmark's layer tracer finds every name it wraps, and the
benchmark's own self-check passes.

perfbench/tracing.py patches functions at the names through which the
program calls them and reports a target it cannot find as absent, with
its metrics reading 0. A refactor that renames or moves one of them
would blind the traced benchmark without failing anything else, so this
reads the tracer's own target list and resolves each name the way the
tracer does. The self-check plays the benchmark's CLI sessions at a tiny
size, traced and untraced, and checks their outputs.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_benchmark_self_check_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--self-check"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-check PASS" in done.stdout.splitlines()
