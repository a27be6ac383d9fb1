"""CLI surface: subcommands, exit-code contract, byte-stable reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from preqprob import cli
from preqprob.events import EventUnion, counterexample_pair, event_to_json
from preqprob.gameprob import witness_superfarthingale

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def event_file(tmp_path):
    a, _ = counterexample_pair()
    path = tmp_path / "event_a.json"
    path.write_text(event_to_json(a))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounterexample:
    def test_exit_zero_and_values(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert "upper(A) = 1/2" in out
        assert "upper(A|B) = 1" in out
        assert "strong_subadditivity_violated: PASS" in out

    def test_measure_engine_agrees(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--measure")
        assert code == 0

    def test_json_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "counterexample", "--json")
        _, second, _ = run(capsys, "counterexample", "--json")
        assert first == second
        doc = json.loads(first)
        assert doc["results"]["upper(A&B)"] == "1/2"


class TestValue:
    def test_both_engines_agree_on_file(self, capsys, event_file):
        code, out, _ = run(capsys, "value", "--event", event_file, "--engine", "both")
        assert code == 0
        assert "game_equals_measure: PASS" in out

    def test_game_engine_only(self, capsys, event_file):
        code, out, _ = run(capsys, "value", "--event", event_file, "--engine", "game")
        assert code == 0
        assert "upper_game = 1/2" in out

    def test_measure_engine_emits_witness(self, capsys, event_file):
        code, out, _ = run(
            capsys, "value", "--event", event_file, "--engine", "measure", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["witness_system"]["table"][""] == "0"

    def test_emitted_artifacts_feed_back(self, capsys, event_file, tmp_path):
        """Witness system and witness table round-trip through ville and verify."""
        witness_path = tmp_path / "witness_phi.json"
        table_path = tmp_path / "witness_table.json"
        code, _, _ = run(
            capsys,
            "value",
            "--event",
            event_file,
            "--engine",
            "both",
            "--witness-out",
            str(witness_path),
            "--table-out",
            str(table_path),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "ville",
            "--phi",
            str(witness_path),
            "--strategy",
            "constant",
            "--samples",
            "50",
            "--seed",
            "1",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "verify", "--value-function", str(table_path), "--mode", "super"
        )
        assert code == 0

    def test_measure_engine_refuses_table_out(self, capsys, event_file, tmp_path):
        """The measure engine writes no value table, so asking for one is an input error."""
        table = tmp_path / "table.json"
        code, out, err = run(
            capsys, "value", "--event", event_file, "--engine", "measure", "--table-out", str(table)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not table.exists()

    def test_long_horizon_game_value(self, capsys, tmp_path):
        """The game induction runs level by level, so 1500 steps need no deep stack."""
        path = tmp_path / "full.json"
        path.write_text(event_to_json(EventUnion.full(1500)))
        code, out, _ = run(capsys, "value", "--event", str(path), "--engine", "game", "--json")
        assert code == 0
        assert json.loads(out)["results"]["upper_game"] == "1"

    def test_unparseable_event_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "value", "--event", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "value", "--event", "/nonexistent.json")
        assert code == 2


class TestTestStream:
    def test_fixture_is_not_rejected(self, capsys):
        code, out, _ = run(
            capsys,
            "test-stream",
            "--stream",
            str(DATA / "fair_coin_stream.csv"),
            "-N",
            "100",
            "-C",
            "3",
        )
        assert code == 0
        assert "verdict = no_reject" in out

    def test_biased_stream_is_rejected_with_exit_three(self, capsys, tmp_path):
        path = tmp_path / "biased.csv"
        path.write_text("p,y\n" + "0,1\n" * 100)
        code, out, _ = run(
            capsys, "test-stream", "--stream", str(path), "-N", "100", "-C", "1"
        )
        assert code == 3
        assert "capital_ratio = 401" in out
        assert "verdict = reject" in out

    def test_short_stream_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("p,y\n0.5,1\n")
        code, _, _ = run(capsys, "test-stream", "--stream", str(path), "-N", "100")
        assert code == 2

    def test_empty_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, _ = run(capsys, "test-stream", "--stream", str(path), "-N", "1")
        assert code == 2


class TestVille:
    def test_doubling_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "ville",
            "--strategy",
            "doubling",
            "-C",
            "4",
            "-N",
            "6",
            "--samples",
            "800",
            "--seed",
            "5",
        )
        assert code == 0
        assert "frequency_within_bound: PASS" in out

    def test_calibration_strategy_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "ville",
            "--strategy",
            "calibration",
            "-C",
            "2",
            "-N",
            "6",
            "--samples",
            "400",
            "--seed",
            "8",
        )
        assert code == 0
        assert "frequency_within_bound: PASS" in out

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PREQ_SEED", "17")
        code, out, _ = run(
            capsys, "ville", "--strategy", "constant", "-N", "4", "--samples", "50"
        )
        assert code == 0
        assert "seed = 17" in out


class TestDualitySweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "duality-sweep", "--count", "25", "--seed", "3")
        assert code == 0
        assert "duality_holds_on_sweep: PASS" in out

    def test_json_stability(self, capsys):
        _, first, _ = run(
            capsys, "duality-sweep", "--count", "10", "--seed", "4", "--json"
        )
        _, second, _ = run(
            capsys, "duality-sweep", "--count", "10", "--seed", "4", "--json"
        )
        assert first == second


class TestLevyTrace:
    def test_trace_along_stream(self, capsys, event_file, tmp_path):
        stream = tmp_path / "member.csv"
        stream.write_text("p,y\n0,0\n1/2,0\n")
        code, out, _ = run(
            capsys,
            "levy-trace",
            "--event",
            event_file,
            "--threshold",
            "3/4",
            "--stream",
            str(stream),
        )
        assert code == 0
        assert "final_capital = 2" in out

    def test_sampled_member(self, capsys, event_file):
        code, out, _ = run(
            capsys, "levy-trace", "--event", event_file, "--seed", "11"
        )
        assert code == 0
        assert "final_conditional = 1" in out


class TestVerify:
    def test_witness_passes_super_mode(self, capsys, tmp_path):
        a, _ = counterexample_pair()
        path = tmp_path / "witness.json"
        path.write_text(witness_superfarthingale(a).to_json())
        code, out, _ = run(
            capsys, "verify", "--value-function", str(path), "--mode", "super"
        )
        assert code == 0
        assert "super_farthingale: PASS" in out

    def test_witness_fails_exact_mode(self, capsys, tmp_path):
        a, _ = counterexample_pair()
        path = tmp_path / "witness.json"
        path.write_text(witness_superfarthingale(a).to_json())
        code, out, _ = run(
            capsys, "verify", "--value-function", str(path), "--mode", "exact"
        )
        assert code == 1
        assert "exact_farthingale: FAIL" in out

    def test_root_only_table_passes(self, capsys, tmp_path):
        path = tmp_path / "root.json"
        path.write_text('{"horizon": 0, "partitions": [], "values": {"": "1"}}')
        code, out, err = run(capsys, "verify", "--value-function", str(path))
        assert code == 0, err
        assert "nodes = 1" in out
        assert "super_farthingale: PASS" in out


def test_successive_calls_match_separate_runs(capsys, event_file, tmp_path):
    """``main`` reuses one parser, and no option carries over from one call to the next."""
    table = str(tmp_path / "table.json")
    calls = [
        ["value", "--event", event_file, "--engine", "game", "--table-out", table, "--json"],
        ["verify", "--value-function", table],
        ["value", "--event", event_file, "--engine", "game"],
        ["verify", "--value-function", table, "--mode", "exact", "--json"],
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    separate = [
        subprocess.run(
            [sys.executable, "-m", "preqprob.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60, check=False,
        )
        for argv in calls
    ]
    assert in_process == [(done.returncode, done.stdout) for done in separate]
    assert [code for code, _ in in_process] == [0, 0, 0, 1]


GOOD_EVENT = event_to_json(counterexample_pair()[0])


def table_document(cells, horizon=1):
    """A value-function document with one partition of (lo, hi, lo_open, hi_open) cells, all values 0."""
    values = {"": "0"}
    values.update({f"{ci}:{bit}": "0" for ci in range(len(cells)) for bit in (0, 1)})
    partition = [
        {"lo": lo, "hi": hi, "lo_open": lo_open, "hi_open": hi_open}
        for lo, hi, lo_open, hi_open in cells
    ]
    return json.dumps({"horizon": horizon, "partitions": [partition], "values": values})


@pytest.mark.parametrize(
    "argv, document",
    [
        (["test-stream", "--stream", "{file}", "-C", "1/0"], "p,y\n1/2,1\n"),
        (["ville", "-C", "1/0"], None),
        (["levy-trace", "--event", "{file}", "--threshold", "1/0"], GOOD_EVENT),
        (["value", "--event", "{file}"], '{"horizon": 1, "boxes": [{"steps": [{"p": ["0", "1/0"]}]}]}'),
        (["value", "--event", "{file}"], '{"horizon": 1, "boxes": [{"steps": [{"p": 5}]}]}'),
        (["value", "--event", "{file}"], "[1]"),
        (["ville", "--phi", "{file}"], '{"horizon": 1, "table": {"": "1/0"}}'),
        (["ville", "--phi", "{file}"], '{"horizon": 1, "table": 5}'),
        (["ville", "--phi", "{file}"], "[1]"),
        (["verify", "--value-function", "{file}"], "[1]"),
        (
            ["verify", "--value-function", "{file}"],
            '{"horizon":1,"partitions":[[{"lo":"0","hi":"0","lo_open":false,"hi_open":false}]],'
            '"values":{"":"0","0:0":"0","0:1":"5"}}',
        ),
        (
            ["verify", "--value-function", "{file}"],
            table_document([("1/2", "1", True, False), ("0", "1/2", False, False)]),
        ),
        (
            ["verify", "--value-function", "{file}"],
            table_document([("0", "1/2", False, False), ("1/4", "1", True, False)]),
        ),
        (
            ["verify", "--value-function", "{file}"],
            table_document([("0", "1/2", False, False), ("1/2", "1", False, False)]),
        ),
        (
            ["verify", "--value-function", "{file}"],
            table_document([("0", "1/4", False, False), ("1/2", "1", False, False)]),
        ),
        (
            ["verify", "--value-function", "{file}"],
            table_document([("0", "1", "false", False)]),
        ),
        (
            ["verify", "--value-function", "{file}"],
            table_document([("0", "1", False, False)], horizon=2),
        ),
        (["ville", "--phi", "{file}"], '{"horizon": 1, "table": {"": "1/2", "0": "1/4", "11": "3/4"}}'),
        (
            ["verify", "--value-function", "{file}"],
            '{"horizon":1,"partitions":[[{"lo":"0","hi":"1","lo_open":false,"hi_open":false}]],'
            '"values":{"":"0","0:0":"0","0:1":"0","7:1":"0","0:0,3:1":"0"}}',
        ),
        (
            ["verify", "--value-function", "{file}"],
            '{"horizon":1,"partitions":[[{"lo":"0","hi":"1","lo_open":false,"hi_open":false}]],'
            '"values":{"":"0","0:0":"0"}}',
        ),
    ],
    ids=[
        "stream-threshold-zero-denominator",
        "ville-threshold-zero-denominator",
        "levy-threshold-zero-denominator",
        "event-zero-denominator",
        "event-p-not-a-pair",
        "event-not-an-object",
        "phi-zero-denominator",
        "phi-table-not-an-object",
        "phi-not-an-object",
        "value-function-not-an-object",
        "value-function-cells-miss-most-of-the-interval",
        "value-function-cells-descending",
        "value-function-cells-overlap",
        "value-function-cells-share-an-endpoint",
        "value-function-cells-leave-a-gap",
        "value-function-open-flag-not-boolean",
        "value-function-horizon-differs-from-partitions",
        "phi-history-beyond-horizon",
        "value-function-key-outside-tree",
        "value-function-node-missing",
    ],
)
def test_malformed_input_is_one_line_input_error(capsys, tmp_path, argv, document):
    path = tmp_path / "input"
    if document is not None:
        path.write_text(document)
    code, _, err = run(capsys, *(arg.replace("{file}", str(path)) for arg in argv))
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
