"""End-to-end fixed-seed runs against the committed reference in
``tests/reference/`` (see ``tests/reference_run.py``, which regenerates it):
a change that moves trained weights, training history or predictions
fails here, whatever node it touched."""

import numpy as np
import pytest

import aste.cli
from reference_run import KINDS, NUMPY_VERSION, OUTPUTS, REFERENCE, parameters, run


@pytest.fixture(scope="module")
def numpy_matches():
    recorded = NUMPY_VERSION.read_text(encoding="utf-8").strip()
    if recorded != np.__version__:
        pytest.fail(f"the reference run was made with numpy {recorded}, this is numpy "
                    f"{np.__version__}; regenerate it with tests/reference_run.py")


# The one-core runs keep the plain kind as their id.
@pytest.mark.parametrize(("kind", "cores"), [
    pytest.param(kind, cores, id=kind if cores == 1 else f"{kind}-{cores}")
    for cores in (1, 2) for kind in KINDS])
def test_train_and_decode_match_the_reference(numpy_matches, monkeypatch, tmp_path, kind, cores):
    """Training and decoding give the reference in one process, and on two
    cores with decode's workers and training's helper, which runs the odd
    rows of every batch."""
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: cores)
    run(kind, REFERENCE, tmp_path)
    for name in OUTPUTS:
        assert (tmp_path / name).read_bytes() == (REFERENCE / kind / name).read_bytes(), name
    trained = parameters(tmp_path / "weights.bin")
    with np.load(REFERENCE / kind / "parameters.npz") as reference:
        assert sorted(trained) == sorted(reference.files)
        for name, values in trained.items():
            assert values.shape == reference[name].shape, name
            gap = float(np.max(np.abs(values - reference[name])))
            assert gap <= 1e-12, f"{name} is {gap:.3g} away from the reference"


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_decode_on_cores_matches_the_reference(numpy_matches, monkeypatch, tmp_path, kind,
                                               cores):
    """The decodes, three inference batches among them, give the
    reference's bytes in one process and split over two."""
    monkeypatch.setattr(aste.cli, "usable_cores", lambda: cores)
    run(kind, REFERENCE, tmp_path)
    for name in ("decoded.jsonl", "batches_decoded.jsonl"):
        assert (tmp_path / name).read_bytes() == (REFERENCE / kind / name).read_bytes(), name
