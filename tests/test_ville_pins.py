"""The ``ville --json`` reports of the python-floor job's ville commands, pinned byte for byte.

Each pin is the SHA-256 of the command's standard output and its exit code.
A report is a function of its inputs and seed alone, so a change to how
``ville_check`` walks its samples must leave every pin as it is.
"""

import hashlib
from pathlib import Path

import pytest

from preqprob import cli

DATA = Path(__file__).parent / "data"
EMPTY = hashlib.sha256(b"").hexdigest()

PINS = [
    ("ville --strategy calibration -N 5 --samples 200 --seed 3 --json", 0,
     "4e70bfb3f164c7c57004c0a967e02b5e08aca0344e39e1adf45a1236d20051f8"),
    ("ville --strategy doubling -N 8 -C 4 --samples 500 --json", 0,
     "93e8858643b777d8451d9bb53f4609eab26336ef868be4f86bc95a5104a5a37e"),
    ("ville --phi {three_box_phi} --strategy calibration -C 1/2 --samples 200 --seed 2 --json", 0,
     "ac7c907b82f834ec59fed6eec251369954b35344b6c45e187c32aa56fd898b4e"),
    ("ville -N ٣ --json", 2, EMPTY),
    ("ville -C 1e-400 --samples 10 --json", 2, EMPTY),
    ("ville --phi {h10_phi} --strategy calibration --samples 50 --seed 5 --json", 0,
     "b9961a55b0c99cdc2da21dbcd69c8ca5c546e22c6d8770bd0a32fc630ece5507"),
    ("ville --phi {data}/doubling_breaks_phi.json --strategy doubling --json", 2, EMPTY),
    ("ville --strategy doubling -N 12 -C 8192 --samples 2000 --json", 0,
     "12504cdfa393cbf28bb5ca06d34b59db434ef8ec7d1638874a8c41395f1c5ef1"),
    # Forecasts at and next to 0, 1 and 1/2 on the 2^-53 grid, some with denominators above 2^53.
    ("ville --phi {data}/edge_forecasts_phi.json --strategy calibration --samples 500 --seed 9 --json", 0,
     "ab1725858e282634c0f02b5949b9cd8d30aefb005c065a7c3ccd89fc278f5198"),
    # At C = 1/4 the frequency, 0.48, counts the bits drawn at the two forecasts next to 1/2.
    ("ville --phi {data}/edge_forecasts_phi.json --strategy calibration -C 1/4 --samples 500 --seed 9 --json", 0,
     "4c8677cca3d7eab1bb8e835b7843ea74e716f0e83dcef8e18fd73a5205973d1e"),
]


@pytest.fixture(scope="module")
def witnesses(tmp_path_factory):
    """The measure engine's witness systems the --phi commands read, written as python-floor writes them."""
    out = tmp_path_factory.mktemp("witnesses")
    paths = {"data": str(DATA)}
    for name, event in (("three_box_phi", "three_box_event.json"), ("h10_phi", "horizon_10_event.json")):
        paths[name] = str(out / f"{name}.json")
        argv = ["value", "--event", str(DATA / event), "--engine", "measure", "--witness-out", paths[name], "--json"]
        assert cli.main(argv) == 0
    return paths


@pytest.mark.parametrize("command, code, digest", PINS, ids=[command for command, _, _ in PINS])
def test_ville_report_bytes_are_pinned(capsys, monkeypatch, witnesses, command, code, digest):
    monkeypatch.delenv("PREQ_SEED", raising=False)
    capsys.readouterr()
    try:
        exit_code = cli.main(command.format(**witnesses).split())
    except SystemExit as refusal:  # argparse's refusal of a malformed option
        exit_code = refusal.code
    assert exit_code == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
