"""The ``--json`` reports of the python-floor job's stream and trace commands, pinned byte for byte.

The commands are ``test-stream``, ``levy-trace --stream`` and a sampled
``levy-trace`` whose member search loops.  Each pin is the SHA-256 of the
command's standard output, its exit code and its standard error.  A report
names its inputs by the paths it was given, so the commands run from the
root of the checkout, with the paths the job uses.  How the stream is read,
folded and stepped, and how a member is drawn, must leave every pin as it is.
"""

import hashlib
from pathlib import Path

import pytest

from preqprob import cli

ROOT = Path(__file__).parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()

PINS = [
    ("test-stream --stream tests/data/fair_coin_stream.csv --json", 0,
     "711f5b3b27a9645d187b45d6c72c0bc1f9539ab2e00a4b2b28ff0b883575614f", ""),
    ("test-stream --stream tests/data/biased_stream.csv --json", 3,
     "b5d6f6b3c76e436a3d09aca155ce096a65441e7b6c5c1a1b1075628c6c6fe0d3", ""),
    ("test-stream --stream tests/data/bom_stream.csv --json", 0,
     "385ba71ddb70d415a8c9e6b42481afe99f2e2b0b3b6c9f8051783cbf033cb61c", ""),
    # Forecasts written 0.5, 1/2, 2/4 and 5e-1, padded fields, a blank line and the outcome 01.
    ("test-stream --stream tests/data/mixed_forms_stream.csv --json", 0,
     "355ba06c1b3bb38b8124ea0ba7bd1dc52290637366c7d460a1d3d4742d5d8dbf", ""),
    # The same stream cut at six rows: the four spellings of 1/2 are kept, and the rows past the cut still parse.
    ("test-stream --stream tests/data/mixed_forms_stream.csv -N 6 --json", 0,
     "40fad63570eaa510e12ee55e1c4b2bfb11045b5d2d5e92f0822c955811db8e36", ""),
    # A forecast outside [0, 1] at row 2 and a row of three fields at row 3: row 2 is named.
    ("test-stream --stream tests/data/malformed_stream.csv --json", 2, EMPTY,
     "error: row 2: forecast 3/2 outside [0, 1]\n"),
    # 100 Lévy steps on the nested union, 90 of them into the level its last 290 free steps share.
    ("levy-trace --event tests/data/nested_union_300.json --stream tests/data/fair_coin_stream.csv --json", 0,
     "51804813c4c1d7b9d4c8b6840d2e412f6b46d4dbdc7912025d6c7c635a8f1dc1", ""),
    # Seed 7's first twelve draws from the measure witness miss the event, and the thirteenth is the member traced.
    ("levy-trace --event tests/data/horizon_10_event.json --seed 7 --json", 0,
     "4d16675225164044fe3519bb3e9d6f3f61c0cb83e9872044955a915023170e1a", ""),
]


@pytest.mark.parametrize("command, code, digest, error", PINS, ids=[command for command, *_ in PINS])
def test_stream_report_bytes_are_pinned(capsys, monkeypatch, command, code, digest, error):
    monkeypatch.chdir(ROOT)
    capsys.readouterr()
    assert cli.main(command.split()) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == error
