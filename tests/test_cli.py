"""CLI surface: subcommands, exit-code contract, byte-stable reports."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from preqprob import cli, gameprob, measureprob
from preqprob.core import ForecastingSystem
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

    def test_game_engine_refuses_witness_out_before_reading_the_event(self, capsys, tmp_path):
        """The game engine writes no forecasting system, so asking for one is an input error."""
        witness = tmp_path / "witness.json"
        missing = tmp_path / "no-such-event.json"
        code, out, err = run(
            capsys, "value", "--event", str(missing), "--engine", "game", "--witness-out", str(witness)
        )
        assert (code, out) == (2, "")
        assert err == "error: --witness-out needs the measure engine: use --engine measure or both\n"
        assert not witness.exists()

    @pytest.mark.parametrize("second", ["./out.json", "sub/../out.json"])
    def test_one_path_for_both_witnesses_is_refused_before_reading_the_event(self, capsys, tmp_path, monkeypatch,
                                                                            second):
        """Each output file holds one witness, so a path named twice, however spelled, is an input error."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, out, err = run(
            capsys, "value", "--event", "no-such-event.json", "--table-out", "out.json", "--witness-out", second
        )
        assert (code, out) == (2, "")
        assert err == f"error: --table-out and --witness-out name one file, {second}: give each its own\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["sub"]

    def test_engines_that_disagree_exit_one_with_the_report(self, capsys, event_file, monkeypatch):
        monkeypatch.setattr(gameprob, "upper_game_probability", lambda event: Fraction(1, 3))
        code, out, _ = run(capsys, "value", "--event", event_file, "--engine", "both", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["results"]["upper_game"] == "1/3" and doc["results"]["upper_measure"] == "1/2"
        assert doc["checks"] == [
            {"name": "game_equals_measure", "status": "FAIL", "detail": "game 1/3 != measure 1/2"}
        ]

    def test_long_horizon_game_value(self, capsys, tmp_path):
        """The game induction runs level by level, so 1500 steps need no deep stack."""
        path = tmp_path / "full.json"
        path.write_text(event_to_json(EventUnion.full(1500)))
        code, out, _ = run(capsys, "value", "--event", str(path), "--engine", "game", "--json")
        assert code == 0
        assert json.loads(out)["results"]["upper_game"] == "1"

    @pytest.mark.parametrize("horizon", [10**8, 10**12])
    def test_game_engine_refuses_a_horizon_past_its_budget(self, capsys, tmp_path, horizon):
        """An event with no boxes has no live-set to count, so the horizon itself is checked."""
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"horizon": horizon, "boxes": []}))
        start = time.perf_counter()
        code, out, err = run(capsys, "value", "--event", str(path), "--engine", "game")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(horizon) in err

    def test_unparseable_event_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "value", "--event", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, _ = run(capsys, "value", "--event", "/nonexistent.json")
        assert code == 2

    def test_table_out_past_the_node_budget_is_one_line_input_error(self, capsys, tmp_path):
        """The horizon-17 cell-path tree has 262143 nodes, over the 131071-node budget."""
        path = tmp_path / "full.json"
        path.write_text(event_to_json(EventUnion.full(17)))
        table = tmp_path / "table.json"
        code, out, err = run(
            capsys, "value", "--event", str(path), "--engine", "game", "--table-out", str(table)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "262143" in err
        assert not table.exists()


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

    # Forecast denominators 3, 7, 1000 and 1; the last 15 rows bias the stream.
    MIXED = (
        [("1/3", 0), ("1/3", 1), ("1/3", 0), ("2/7", 0), ("2/7", 1), ("2/7", 0), ("2/7", 0)]
        + [("2/7", 0), ("2/7", 0), ("2/7", 1), ("0.999", 1), ("0.123", 0), ("1", 1), ("0", 0)]
        + [("0.001", 1)] * 10
        + [("2/7", 1)] * 5
    )

    @pytest.mark.parametrize(
        "argv, code, results",
        [
            (
                [],
                3,
                {
                    "bias_sum": "23519/1750",
                    "capital_ratio": "6785289727/266437500",
                    "final_capital": "6785289727/1332187500",
                    "initial_capital": "1/5",
                    "verdict": "reject",
                },
            ),
            (
                ["-N", "14", "-C", "3/2"],
                0,
                {
                    "bias_sum": "-61/500",
                    "capital_ratio": "13763147/36750000",
                    "final_capital": "13763147/367500000",
                    "initial_capital": "1/10",
                    "verdict": "no_reject",
                },
            ),
        ],
    )
    def test_mixed_denominators_are_pinned(self, capsys, tmp_path, argv, code, results):
        """The report matches pinned values and sums recomputed here over the first N rows."""
        path = tmp_path / "mixed.csv"
        path.write_text("p,y\n" + "".join(f"{p},{y}\n" for p, y in self.MIXED))
        got, out, _ = run(capsys, "test-stream", "--stream", str(path), *argv, "--json")
        assert got == code
        doc = json.loads(out)
        assert doc["results"] == results
        n, c = doc["inputs"]["N"], Fraction(doc["inputs"]["C"])
        assert n == (int(argv[1]) if argv else len(self.MIXED))
        bias = spread = Fraction(0)
        for p, y in self.MIXED[:n]:
            bias += y - Fraction(p)
            spread += Fraction(p) * (1 - Fraction(p))
        n_quarter = Fraction(n, 4)
        top = bias**2 - spread + n_quarter
        assert results["bias_sum"] == str(bias)
        assert results["initial_capital"] == str(n_quarter / (c**2 * n + n_quarter))
        assert results["final_capital"] == str(top / (c**2 * n + n_quarter))
        assert results["capital_ratio"] == str(top / n_quarter)
        assert (results["verdict"] == "reject") == (bias**2 >= c**2 * n)

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

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_a_horizon_below_one_is_refused_before_the_stream_is_read(self, capsys, tmp_path, horizon):
        for stream in (DATA / "fair_coin_stream.csv", tmp_path / "missing.csv"):
            code, out, err = run(capsys, "test-stream", "--stream", str(stream), "-N", horizon)
            assert (code, out, err) == (2, "", f"error: -N must be a positive integer, got {horizon}\n")

    @pytest.mark.parametrize("argv", [[], ["-N", "1"]])
    def test_a_stream_of_no_rows_is_named(self, capsys, tmp_path, argv):
        path = tmp_path / "header.csv"
        path.write_text("p,y\n")
        code, out, err = run(capsys, "test-stream", "--stream", str(path), *argv)
        assert (code, out, err) == (2, "", "error: stream has no rows\n")


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

    def test_failed_certification_is_one_line_input_error(self, capsys, tmp_path):
        """Doubling at even odds is no martingale when the forecast is 1/4."""
        phi = tmp_path / "phi.json"
        phi.write_text('{"horizon": 2, "table": {"": "1/4", "0": "1/4", "1": "1/4"}}')
        code, out, err = run(capsys, "ville", "--phi", str(phi), "--strategy", "doubling")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "first violation at history ()" in err

    def test_a_deep_violation_names_its_history(self, capsys):
        """Doubling fails only after history 11, where the committed system forecasts 1/4."""
        phi = str(DATA / "doubling_breaks_phi.json")
        code, out, err = run(capsys, "ville", "--phi", phi, "--strategy", "doubling", "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "first violation at history (1, 1))" in err

    def test_N_with_phi_is_refused(self, capsys, tmp_path):
        """-N gives only the default system's horizon; with --phi it was once ignored."""
        phi = tmp_path / "phi.json"
        phi.write_text(ForecastingSystem.constant(Fraction(1, 2), 3).to_json())
        code, out, err = run(capsys, "ville", "--phi", str(phi), "-N", "9", "--samples", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: -N ") and err.count("\n") == 1
        code, out, err = run(capsys, "ville", "--phi", str(phi), "--samples", "10", "--json")
        assert code == 0, err
        assert json.loads(out)["inputs"]["horizon"] == 3

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

    def test_grid_reports_the_events_it_skips(self, capsys):
        """At k = 10 the grid enumeration of five of these six events passes its limit."""
        code, out, _ = run(
            capsys, "duality-sweep", "--count", "6", "--seed", "0", "--grid", "10", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["grid_bound_violations"] == 0
        assert doc["results"]["grid_skipped"] == 5
        check = next(c for c in doc["checks"] if c["name"] == "grid_values_bounded")
        assert check == {"name": "grid_values_bounded", "status": "PASS", "detail": "0 violations, 5 skipped"}

    def test_grid_without_skips(self, capsys):
        code, out, _ = run(capsys, "duality-sweep", "--count", "3", "--seed", "1", "--grid", "3")
        assert code == 0
        assert "grid_skipped = 0" in out
        assert "check grid_values_bounded: PASS (0 violations, 0 skipped)" in out


    def test_a_mismatch_exits_one_with_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(gameprob, "upper_game_probability", lambda event: Fraction(2))
        code, out, _ = run(capsys, "duality-sweep", "--count", "2", "--seed", "3", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["results"] == {"duality_mismatches": 2, "events": 2}
        failed = [c for c in doc["checks"] if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["event_0_duality", "event_1_duality", "duality_holds_on_sweep"]
        for check in failed[:2]:
            assert re.fullmatch(r"game 2 != measure \d+(/\d+)? on \{.*\}", check["detail"])
        assert failed[2]["detail"] == "2 mismatches"

    def test_a_grid_bound_violation_exits_one_with_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(measureprob, "grid_bruteforce", lambda event, k: Fraction(2))
        code, out, _ = run(capsys, "duality-sweep", "--count", "2", "--seed", "3", "--grid", "2", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["results"]["grid_bound_violations"] == 2 and doc["results"]["duality_mismatches"] == 0
        failed = [c for c in doc["checks"] if c["status"] == "FAIL"]
        assert [c["name"] for c in failed] == ["event_0_grid_bound", "event_1_grid_bound", "grid_values_bounded"]
        for check in failed[:2]:
            assert re.fullmatch(r"grid 2 exceeds measure \d+(/\d+)?", check["detail"])
        assert failed[2]["detail"] == "2 violations, 0 skipped"


class TestLevyTrace:
    def test_event_of_upper_probability_zero_is_one_line_input_error(self, capsys, tmp_path):
        """Outcome 1 after forecast 0 has probability 0, so no member can be sampled."""
        event = tmp_path / "null.json"
        event.write_text('{"horizon": 1, "boxes": [{"steps": [{"p": ["0", "0"], "y": 1}]}]}')
        code, out, err = run(capsys, "levy-trace", "--event", str(event))
        assert (code, out) == (2, "")
        assert err == "error: event has upper probability 0; no member to sample\n"

    @pytest.mark.parametrize("seed", ["0", "500", "1000"])
    def test_a_rare_event_names_its_value_and_points_to_stream(self, capsys, tmp_path, seed):
        """Ten steps of outcome 1 with p <= 1/2: upper probability 1/1024, so 1000 witness draws miss it."""
        event = tmp_path / "rare.json"
        steps = [{"p": ["0", "1/2"], "y": 1}] * 10
        event.write_text(json.dumps({"horizon": 10, "boxes": [{"steps": steps}]}))
        code, out, err = run(capsys, "levy-trace", "--event", str(event), "--seed", seed)
        assert (code, out) == (2, "")
        assert err == (
            "error: no event member in 1000 draws from the witness system "
            "(upper probability 1/1024); give a member with --stream\n"
        )
        stream = tmp_path / "member.csv"
        stream.write_text("p,y\n" + "1/2,1\n" * 10)
        code, out, _ = run(capsys, "levy-trace", "--event", str(event), "--stream", str(stream), "--json")
        assert code == 0 and json.loads(out)["results"]["final_conditional"] == "1"

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

    def test_the_first_bad_value_in_level_order_is_named_under_any_hash_seed(self, tmp_path):
        """Hash seeds 0 and 3 once named 'bad4' and 'bad2', from a set of the value strings."""
        cells = [{"lo": "0", "hi": "1/2", "lo_open": False, "hi_open": False},
                 {"lo": "1/2", "hi": "1", "lo_open": True, "hi_open": False}]
        values = {"": "1/2", "0:0": "bad1", "0:1": "bad2", "1:0": "bad3", "1:1": "bad4"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"horizon": 1, "partitions": [cells], "values": values}))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for seed in ("0", "3"):
            done = subprocess.run(
                [sys.executable, "-m", "preqprob.cli", "verify", "--value-function", str(path)],
                capture_output=True, text=True, env=dict(env, PYTHONHASHSEED=seed), timeout=60, check=False,
            )
            assert (done.returncode, done.stdout, done.stderr) == (
                2, "", "error: cannot interpret 'bad1' as an exact rational\n"
            )

    @pytest.mark.parametrize("mode", ["exact", "super"])
    def test_a_negative_table_fails_in_either_mode(self, capsys, mode):
        """Every value -5 is an exact farthingale, but no certificate of an upper probability."""
        path = str(DATA / "negative_table.json")
        code, out, err = run(capsys, "verify", "--value-function", path, "--mode", mode, "--json")
        assert code == 1, err
        doc = json.loads(out)
        assert doc["results"] == {"nodes": 3, "violations": 0}
        assert doc["checks"] == [
            {"name": f"{mode}_farthingale", "status": "FAIL", "detail": "negative value -5 at node ''"}
        ]

    def test_the_negative_node_is_named_after_the_first_violation(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "horizon": 1,
            "partitions": [[{"lo": "0", "hi": "1", "lo_open": False, "hi_open": False}]],
            "values": {"": "1", "0:0": "0", "0:1": "-1/2"},
        }))
        code, out, _ = run(capsys, "verify", "--value-function", str(path), "--mode", "exact")
        assert code == 1
        assert "check exact_farthingale: FAIL (first violation at node '' p=0; " \
               "negative value -1/2 at node '0:1')" in out

    def test_table_out_round_trip_on_the_committed_event(self, capsys, tmp_path):
        """The round trip the python-floor CI job compares across interpreters."""
        table = tmp_path / "table.json"
        code, out, err = run(capsys, "value", "--event", str(DATA / "three_box_event.json"), "--engine", "both",
                             "--table-out", str(table), "--json")
        assert code == 0, err
        assert json.loads(out)["results"]["upper_game"] == "6/7"
        code, out, err = run(capsys, "verify", "--value-function", str(table), "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["results"] == {"nodes": 585, "violations": 0}
        assert [c["status"] for c in doc["checks"]] == ["PASS"]


# SHA-256 of the witness table and witness system that value --engine both writes for three_box_event.json.
THREE_BOX_TABLE_SHA256 = "83c3aa20a92e7a0269e030d5a3f0583392f531926bb3f37d79493ef8e3640010"
THREE_BOX_WITNESS_SHA256 = "e07cdc3b917dde88450936c1b7e4dc5082026920e8087f1b84a7a8402129365a"


def test_a_command_writes_no_file_and_main_writes_those_its_report_names(capsys, tmp_path):
    table, witness = tmp_path / "table.json", tmp_path / "witness.json"
    argv = ["value", "--event", str(DATA / "three_box_event.json"), "--engine", "both",
            "--table-out", str(table), "--witness-out", str(witness)]
    report = cli.cmd_value(cli.build_parser().parse_args(argv))
    assert list(report.files) == [str(table), str(witness)]
    assert not table.exists() and not witness.exists()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert [table.read_text(encoding="utf-8"), witness.read_text(encoding="utf-8")] == list(report.files.values())
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (table, witness)]
    assert digests == [THREE_BOX_TABLE_SHA256, THREE_BOX_WITNESS_SHA256]


# SHA-256 of value --engine both's report on horizon_10_event.json, in text form and with --json,
# and of the witness system that value --engine measure --witness-out writes for it.
HORIZON_10_REPORT_SHA256 = {
    (): "7d14a322e9b37c16d06e6c2b7c099084880cb33a52670f2b6c73773ee9eed342",
    ("--json",): "4e7a951ce3fd106bf381662683eb99b0b984580705955451c4929bb0d6927801",
}
HORIZON_10_WITNESS_SHA256 = "84cf5861cb841c80068cdd9976a28e0884040e0b020de74c7499bd5a4c7b7728"


def test_horizon_10_reports_and_witness_file_are_pinned(capsys, tmp_path, monkeypatch):
    """Both report forms print the 1,023-entry witness table; the witness file holds it too."""
    monkeypatch.chdir(DATA.parent.parent)  # a report echoes the event path as given
    event = "tests/data/horizon_10_event.json"
    for extra, digest in HORIZON_10_REPORT_SHA256.items():
        code, out, err = run(capsys, "value", "--event", event, "--engine", "both", *extra)
        assert (code, err) == (0, "")
        assert "17/64" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    witness = tmp_path / "phi.json"
    code, _, err = run(capsys, "value", "--event", event, "--engine", "measure", "--witness-out", str(witness),
                       "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == HORIZON_10_WITNESS_SHA256


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


class Parsed(Exception):
    """Carries the namespace ``parse_args`` returned, so that ``main`` runs no command."""


def parse(main, argv, monkeypatch, capsys) -> tuple:
    """What ``main(argv)`` parses: ("args", its namespace but ``subcommand``), or ("exit", code, stdout, stderr)."""
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, args=None, namespace=None):
        raise Parsed(parse_args(self, args, namespace))

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", spy)
        try:
            main(argv)
        except Parsed as parsed:
            return "args", {key: value for key, value in vars(parsed.args[0]).items() if key != "subcommand"}
        except SystemExit as exc:
            return ("exit", exc.code, *capsys.readouterr())
    raise AssertionError(f"main({argv}) parsed nothing")


def reference_main(argv):
    """``main``'s parse with every argv through the whole parser."""
    cli.build_parser().parse_args(argv)


# Per subcommand, an argv of every default and one giving every option, some abbreviated or with "=".
VALID = [
    ["value", "--event", "e.json"],
    ["value", "--event=e.json", "--eng", "game", "--witness-out", "w.json", "--table-out", "t.json", "--json"],
    ["counterexample"],
    ["counterexample", "--measure", "--json"],
    ["test-stream", "--stream", "s.csv"],
    ["test-stream", "--stream", "s.csv", "-N", "5", "-C", "1/2", "--json"],
    ["ville"],
    ["ville", "--phi", "phi.json", "--strategy", "calibration", "-C", "2", "-N", "4", "--samples", "30",
     "--seed", "7", "--json"],
    ["duality-sweep"],
    ["duality-sweep", "--count", "3", "--grid", "2", "--seed", "1", "--json"],
    ["levy-trace", "--event", "e.json"],
    ["levy-trace", "--event", "e.json", "--threshold", "1/2", "--stream", "s.csv", "--seed", "2", "--json"],
    ["verify", "--value-function", "t.json"],
    ["verify", "--value-function", "t.json", "--mode", "exact", "--json"],
]
REFUSED = [
    [], ["bogus"], ["--json", "value", "--event", "e.json"], ["value", "--event", "e.json", "--bogus"],
    ["value"], ["value", "--event", "e.json", "--engine", "neither"], ["ville", "-N", "x"],
    ["verify", "--value-function"], ["counterexample", "counterexample"],
]


def test_main_parses_as_the_whole_parser_does(monkeypatch, capsys):
    """``main`` gives an argv that starts with a subcommand to its parser: the same namespace, help and refusal."""
    commands = sorted(cli.build_parser().commands)
    assert sorted({argv[0] for argv in VALID}) == commands and len(commands) == 7
    helps = [["-h"], *([name, "-h"] for name in commands)]
    for argv in VALID + helps + REFUSED:
        got, want = parse(cli.main, argv, monkeypatch, capsys), parse(reference_main, argv, monkeypatch, capsys)
        assert got == want, argv
        assert (got[0] == "args") == (argv in VALID)
        assert got[0] == "args" or got[1] == (0 if argv in helps else 2)


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
        (["test-stream", "--stream", "{file}"], "p,y\n1/2,1,0\n"),
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
        (["value", "--event", "{file}"], '{"horizon": 1, "boxes": [{"steps": [{"p": ["0", "1"], "y": 1.9}]}]}'),
        (["value", "--event", "{file}"], '{"horizon": 1, "boxes": [{"steps": [{"p": ["0", "1"], "y": 0.5}]}]}'),
        (["value", "--event", "{file}"], '{"horizon": 1, "boxes": [{"steps": [{"p": ["0", "1"], "y": true}]}]}'),
        (["value", "--event", "{file}"], '{"horizon": 1.7, "boxes": [{"steps": [{"p": ["0", "1"]}]}]}'),
        (["ville", "--phi", "{file}"], '{"horizon": 1.9, "table": {"": "1/2"}}'),
        (["verify", "--value-function", "{file}"], table_document([("0", "1", False, False)], horizon=1.5)),
        (["verify", "--value-function", "{file}"], table_document([("0", "1", False, False)], horizon=True)),
        (["value", "--event", "{file}", "--table-out", "{file}.out", "--witness-out", "{file}.out"], GOOD_EVENT),
        (["value", "--event", "{file}", "--engine", "game", "--table-out", "{file}"], GOOD_EVENT),
        (["value", "--event", "{file}", "--engine", "measure", "--witness-out", "{file}"], GOOD_EVENT),
    ],
    ids=[
        "stream-threshold-zero-denominator",
        "stream-row-with-three-fields",
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
        "event-outcome-float-above-one",
        "event-outcome-float-below-one",
        "event-outcome-boolean",
        "event-horizon-float",
        "phi-horizon-float",
        "value-function-horizon-float",
        "value-function-horizon-boolean",
        "value-table-and-witness-one-path",
        "value-table-out-is-the-event",
        "value-witness-out-is-the-event",
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


@pytest.mark.parametrize("flag", ["--table-out", "--witness-out"])
def test_an_output_naming_the_event_leaves_it_unchanged(capsys, monkeypatch, tmp_path, flag):
    """The output is refused before the event is read, whether named by another spelling of its path or any link."""
    monkeypatch.chdir(tmp_path)
    event = tmp_path / "e.json"
    event.write_text(GOOD_EVENT)
    (tmp_path / "link.json").symlink_to(event)
    os.link(event, tmp_path / "hard.json")
    for out in ("./e.json", str(event), "link.json", "hard.json"):
        code, out_text, err = run(capsys, "value", "--event", "e.json", "--engine", "both", flag, out)
        assert (code, out_text) == (2, "")
        assert err == f"error: {flag} names the event file, {out}: write it elsewhere\n"
    assert event.read_text() == GOOD_EVENT
    assert sorted(path.name for path in tmp_path.iterdir()) == ["e.json", "hard.json", "link.json"]


def test_ville_past_the_certification_limit_is_one_line_input_error(capsys):
    """The 2^31 - 1 node certification walk at horizon 30 is refused before it starts."""
    code, out, err = run(capsys, "ville", "-N", "30", "--samples", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2147483647" in err


def test_the_committed_biased_stream_is_rejected_with_exit_three(capsys):
    code, out, err = run(capsys, "test-stream", "--stream", str(DATA / "biased_stream.csv"), "--json")
    assert code == 3, err
    assert json.loads(out)["results"]["verdict"] == "reject"


def test_commands_return_their_report_and_main_alone_prints_it(capsys):
    args = cli.build_parser().parse_args(["counterexample"])
    report = args.func(args)
    assert isinstance(report, cli.Report)
    assert capsys.readouterr().out == ""
    assert report.exit_code == 0


@pytest.mark.parametrize(
    "statuses, rejected, code",
    [((), False, 0), (("PASS",), False, 0), ((), True, 3), (("PASS", "FAIL"), False, 1), (("FAIL",), True, 1)],
)
def test_the_exit_code_is_read_off_the_report(statuses, rejected, code):
    report = cli.Report("test", rejected=rejected)
    for index, status in enumerate(statuses):
        report.add_check(f"check_{index}", status == "PASS", "detail")
    assert report.exit_code == code
