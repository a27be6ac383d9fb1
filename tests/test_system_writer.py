"""``ForecastingSystem.to_json`` writes the table document once per state, as ``json.dumps`` writes the dict.

``dict_fold`` below builds the table document as it was built before the
writer: the same ``level_graph`` walk, each state's forecasts folded into a
list in preorder and zipped with the sorted bit-string keys into a dict.
The property compares the writer with ``json.dumps`` of that dict, in both
separator styles, on measure witnesses of random events, whose states
(depth, live-set) merge, on ``from_table`` systems, whose states never
merge, and on ``constant`` systems, whose one state every history shares.
"""

import json
import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from preqprob.core import ForecastingSystem, check_walk, level_graph, outcome_tree_nodes
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
