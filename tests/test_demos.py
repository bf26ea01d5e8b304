"""The quick demos run to completion against the current public API.

``04_train_synthetic.py`` trains for about half a minute and is left to
the learnability tests.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_distance_structures.py",
    "02_attention_bias.py",
    "03_grid_decoding.py",
    "05_parameter_accounting.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
