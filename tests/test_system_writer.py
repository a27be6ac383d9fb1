"""``ForecastingSystem.to_json`` writes the table document once per state, as ``json.dumps`` writes the dict.

``dict_fold`` below builds the table document as it was built before the
writer: the same ``level_graph`` walk, each state's forecasts folded into a
list in preorder and zipped with the sorted bit-string keys into a dict.
The property compares the writer with ``json.dumps`` of that dict, in both
separator styles, on measure witnesses of random events, whose states
(depth, live-set) merge, on ``from_table`` systems, whose states never
merge, and on ``constant`` systems, whose one state every history shares.
``value --witness-out`` writes the report's compact text and the file's
as two ``to_json`` calls, one walk of the witness each; a test holds both
to ``to_json``'s bytes.
"""

import json
import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from preqprob import cli, core, measureprob
from preqprob.core import ForecastingSystem, check_walk, level_graph, outcome_tree_nodes
from preqprob.events import event_to_json
from preqprob.measureprob import measure_upper_probability
from preqprob.randgen import random_event, random_forecasting_system
from test_value_memo import PROPERTY


def dict_fold(self) -> dict:
    """The JSON document of the table, its bit-string keys in sorted order.

    ``level_graph`` expands each distinct state of a depth once: histories
    that reach equal states share that state's subtree of forecasts.
    """
    check_walk(outcome_tree_nodes(self.horizon), f"the outcome tree at horizon {self.horizon}")

    def step(state, depth) -> tuple:
        p, after0, after1 = self.expand(state)
        return p, (after0, after1)

    states, forecasts, links = level_graph(self.start, step, self.horizon, "the table")
    objects = {id(p): p for level in forecasts for p in level}
    text = {key: str(p) for key, p in objects.items()}  # once per object
    # below[s]: the texts of state s's subtree in sorted-key order, which is preorder.
    below = [[]] * len(states[-1])
    for level, kids in zip(reversed(forecasts), reversed(links)):
        below = [[text[id(p)]] + below[after0] + below[after1] for p, (after0, after1) in zip(level, kids)]
    # The key of the history at index k is its bit string, the binary form of k+1 after the leading 1.
    keys = sorted(bin(k)[3:] for k in range(1, 2**self.horizon))
    return {"horizon": self.horizon, "table": dict(zip(keys, below[0]))}


def witness(seed: int) -> ForecastingSystem:
    return measure_upper_probability(random_event(random.Random(seed), max_horizon=6, max_boxes=4))[1]


def table(seed: int, horizon: int) -> ForecastingSystem:
    return random_forecasting_system(random.Random(seed), horizon)


SYSTEMS = st.one_of(
    st.builds(witness, st.integers(0, 2**32)),
    st.builds(table, st.integers(0, 2**32), st.integers(1, 6)),
    st.builds(ForecastingSystem.constant, st.fractions(0, 1, max_denominator=12), st.integers(1, 8)),
)


@PROPERTY
@given(SYSTEMS)
@example(ForecastingSystem.constant(Fraction(2, 3), 1))
def test_the_writer_writes_what_json_dumps_writes_of_the_fold(phi):
    reference = dict_fold(phi)
    assert phi.to_json() == json.dumps(reference, sort_keys=True)
    assert phi.to_json(separators=(",", ":")) == json.dumps(reference, sort_keys=True, separators=(",", ":"))
    assert list(json.loads(phi.to_json())["table"]) == list(reference["table"])


def test_value_writes_both_witness_texts_as_to_json_writes_them(tmp_path, monkeypatch, capsys):
    """``value --witness-out``'s report and file hold what two ``to_json`` calls write, one witness walk each."""
    walks, solved = [], []
    walk, solve = core.level_graph, measureprob.measure_upper_probability
    monkeypatch.setattr(core, "level_graph", lambda *args: walks.append(args[3]) or walk(*args))
    monkeypatch.setattr(measureprob, "measure_upper_probability", lambda e: solved.append(solve(e)) or solved[-1])
    event_path, witness_path = tmp_path / "event.json", tmp_path / "witness.json"
    rng = random.Random(39)
    for _ in range(300):
        event_path.write_text(event_to_json(random_event(rng, max_horizon=6, max_boxes=4)))
        walks.clear()
        capsys.readouterr()
        argv = ["value", "--event", str(event_path), "--engine", "measure", "--witness-out", str(witness_path)]
        assert cli.main([*argv, "--json"]) == 0
        assert walks == ["the table", "the table"]
        witness = solved.pop()[1]
        report, compact = capsys.readouterr().out, witness.to_json(separators=(",", ":"))
        assert report.endswith(f',"witness_system":{compact}}}}}\n')  # the last result
        assert witness_path.read_text() == witness.to_json()
