"""Replay the recorded CLI contract corpus (see ``cli_contract.py``)."""

import json

from cli_contract import CORPUS, replay


def test_cli_output_matches_the_recorded_contract():
    records = json.loads(CORPUS.read_text())
    assert {r["exit"] for r in records} == {0, 2, 3, 4}
    problems = replay(records)
    assert not problems, "\n".join(problems)
