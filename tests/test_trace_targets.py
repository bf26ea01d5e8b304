"""The benchmark's layer tracer finds every name it wraps.

perfbench/tracing.py patches functions at the names through which the
program calls them and reports a target it cannot find as absent, with
its metrics reading 0. A refactor that renames or moves one of them
would blind the traced benchmark without failing anything else, so this
reads the tracer's own target list and resolves each name the way the
tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
