"""Replay the recorded CLI contract corpus (see ``cli_contract.py``)."""

import json
import sys

import numpy as np
import pytest

from cli_contract import CORPUS, replay
from steermap import constructions, measurements
from steermap.models import model_from_separable
from steermap.states import random_separable


@pytest.fixture
def projector_checks(monkeypatch):
    """A list that grows by one entry per ``validate_projectors`` call."""
    calls = []
    validate = measurements.validate_projectors

    def counted(projectors):
        calls.append(1)
        return validate(projectors)

    for name, module in list(sys.modules.items()):
        if name.startswith("steermap") and hasattr(module, "validate_projectors"):
            monkeypatch.setattr(module, "validate_projectors", counted)
    return calls


def test_cli_output_matches_the_recorded_contract(projector_checks):
    records = json.loads(CORPUS.read_text())
    assert {r["exit"] for r in records} == {0, 2, 3, 4}
    problems = replay(records)
    assert not problems, "\n".join(problems)
    # The CLI hands the stacks it builds straight to the kernels.
    assert projector_checks == []


def test_library_settings_are_checked_once_per_call(projector_checks):
    tau, ensemble = random_separable(3, 2, 3, seed=4)
    model = model_from_separable(ensemble)
    settings = [measurements.qudit_measurement(np.eye(3))]
    cert = constructions.lhs_certificate(model, model, 0.5, settings)
    assert len(projector_checks) == 1
    assert constructions.verify_lhs_identity(tau, cert, settings) <= 1e-12
    assert len(projector_checks) == 2
