"""One node budget for every materialized tree, one pair budget for every level walk, and one tree layout.

``core.check_walk`` refuses a tree of more nodes than the outcome tree at
``MAX_TABLE_HORIZON`` has, 2^(MAX_TABLE_HORIZON+1) - 1, before the walk
starts.  ``core.level_graph`` refuses a walk that keeps more (depth, state)
pairs than ``core.PAIR_BUDGET``, a level at a time.  The tests shrink either
budget to 7 (horizon 2, or 7 pairs) by patching its constant, as
``test_step_memo`` does for the engines' forward passes.  The outcome tree
is laid out in level order.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from preqprob import core, measureprob
from preqprob.core import (
    ForecastingSystem,
    HorizonError,
    all_histories_below,
    check_walk,
    history_at,
    outcome_tree_nodes,
)
from preqprob.events import EventUnion, event_from_json, event_partitions
from preqprob.gameprob import ValueFunction, upper_game_probability, witness_superfarthingale
from preqprob.measureprob import exact_event_probability, measure_upper_probability
from preqprob.strategies import (
    DoublingStrategy,
    certify_strategy,
    check_farthingale,
    strategy_value_table,
    ville_check,
)
from path_tables import node_paths, path_graph

HALF = Fraction(1, 2)
DATA = Path(__file__).parent / "data"


@pytest.fixture()
def budget_7(monkeypatch):
    monkeypatch.setattr(core, "MAX_TABLE_HORIZON", 2)


def one_cell(horizon):
    return event_partitions(EventUnion.full(horizon))


def counting_system(horizon, calls):
    def expand(state):
        calls.append(state)
        return HALF, state, state

    return ForecastingSystem.stepping(horizon, None, expand)


def refusing_factory():
    raise AssertionError("strategy built past the size check")


def test_budget_is_the_outcome_tree_at_horizon_16():
    check_walk(131071, "a walk")
    with pytest.raises(HorizonError, match="a walk has 131072 nodes.*table form limited to horizon 16"):
        check_walk(131072, "a walk")


def test_boundary(budget_7):
    check_walk(7, "a walk")
    with pytest.raises(HorizonError, match="has 8 nodes; table form limited to horizon 2"):
        check_walk(8, "a walk")


def test_a_level_walk_refuses_one_state_past_the_budget(monkeypatch):
    def expand(state, depth):
        # Two new states a state for two steps, then all into one: 1 + 2 + 4 + 1 = 8 states kept.
        return None, ([(state, 0), (state, 1)] if depth < 2 else [0])

    monkeypatch.setattr(core, "PAIR_BUDGET", 7)
    monkeypatch.setattr(core, "MAX_TABLE_HORIZON", 1)  # a tree budget of 3 nodes sizes no level walk
    with pytest.raises(HorizonError, match=r"^the walk keeps more than 7 \(depth, state\) pairs by step 3 of 3$"):
        core.level_graph((), expand, 3, "the walk")
    states, _, _ = core.level_graph((), expand, 2, "the walk")  # 7 states: at the budget
    assert list(map(len, states)) == [1, 2, 4]


def test_huge_counts_are_named_by_their_size():
    with pytest.raises(HorizonError, match=r"has more than 2\^20000 nodes"):
        check_walk(2**20001 - 1, "a walk")


def test_outcome_tree_counts_stay_small_at_absurd_horizons():
    assert outcome_tree_nodes(30) == 2**31 - 1
    assert outcome_tree_nodes(63) == 2**64 - 1
    assert outcome_tree_nodes(10**12) == outcome_tree_nodes(64) == 2**65 - 1
    with pytest.raises(HorizonError, match=r"horizon 1000000000000 has more than 2\^64 nodes"):
        measure_upper_probability(EventUnion(10**12, ()))


class TestHistoryAt:
    def test_level_order(self):
        assert [history_at(k) for k in range(7)] == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_children_of_k_are_2k_plus_1_and_2k_plus_2(self):
        for k in range(200):
            assert history_at(2 * k + 1) == history_at(k) + (0,)
            assert history_at(2 * k + 2) == history_at(k) + (1,)

    def test_all_histories_below(self):
        assert list(all_histories_below(3)) == [history_at(k) for k in range(7)]
        assert list(all_histories_below(0)) == list(all_histories_below(-2)) == []


class TestOutcomeTree:
    def test_table_and_document_read_the_one_walk(self):
        phi = ForecastingSystem(2, lambda h: Fraction(1 + len(h) + sum(h), 5))
        assert json.loads(phi.to_json()) == {"horizon": 2, "table": {"": "1/5", "0": "2/5", "1": "3/5"}}

    def test_walks_at_the_budget_pass(self, budget_7):
        calls = []
        assert len(json.loads(counting_system(2, calls).to_json())["table"]) == 3
        table = {h: HALF for h in all_histories_below(2)}
        rebuilt = ForecastingSystem.from_table(table, 2)
        assert {h: rebuilt.forecast(h) for h in all_histories_below(2)} == table
        assert json.loads(rebuilt.to_json())["table"] == {"": "1/2", "0": "1/2", "1": "1/2"}

    def test_walks_past_the_budget_expand_nothing(self, budget_7):
        calls = []
        with pytest.raises(HorizonError, match="has 15 nodes"):
            counting_system(3, calls).to_json()
        assert calls == []

    def test_from_table_refuses_before_reading(self, budget_7):
        class Unread(dict):
            def __getitem__(self, key):
                raise AssertionError("table read past the size check")

        with pytest.raises(HorizonError, match="has 15 nodes"):
            ForecastingSystem.from_table(Unread(), 3)

    def test_certification_refuses_before_the_factory(self, budget_7):
        phi = ForecastingSystem.constant(HALF, 3)
        with pytest.raises(HorizonError, match="has 15 nodes"):
            certify_strategy(refusing_factory, phi)
        with pytest.raises(HorizonError, match="has 15 nodes"):
            ville_check(phi, refusing_factory, 4, samples=1, seed=0)
        assert certify_strategy(DoublingStrategy, ForecastingSystem.constant(HALF, 2)) == (True, [])

    def test_certification_reports_violations_in_level_order(self):
        phi = ForecastingSystem(2, lambda h: Fraction(1, 4) if h == (1,) else HALF)
        assert certify_strategy(DoublingStrategy, phi) == (False, [(1,)])
        phi = ForecastingSystem.constant(Fraction(1, 4), 2)
        assert certify_strategy(DoublingStrategy, phi) == (False, [(), (1,)])

    def test_measure_refuses_before_the_candidates(self, budget_7, monkeypatch):
        def refuse(*args):
            raise AssertionError("forecast candidates built past the size check")

        assert measure_upper_probability(EventUnion.full(2))[0] == 1
        monkeypatch.setattr(measureprob, "_forecast_candidates", refuse)
        with pytest.raises(HorizonError, match="has 15 nodes"):
            measure_upper_probability(EventUnion.full(3))

    def test_exact_probability_counts_the_pairs_it_keeps(self, monkeypatch):
        """Equal (system state, surviving boxes) pairs of a depth are one; a history rule's never merge."""
        monkeypatch.setattr(core, "PAIR_BUDGET", 7)
        monkeypatch.setattr(core, "MAX_TABLE_HORIZON", 1)  # a tree budget of 3 nodes sizes no level walk
        assert exact_event_probability(ForecastingSystem.constant(HALF, 3), EventUnion.full(3)) == 1
        phi = ForecastingSystem(3, lambda h: HALF)
        assert exact_event_probability(phi, EventUnion.full(2)) == 1
        with pytest.raises(HorizonError, match=r"^the outcome walk of the event keeps more than 7 \(depth, state\) "
                                               r"pairs by step 3 of 3$"):
            exact_event_probability(phi, EventUnion.full(3))

    def test_exact_probability_of_a_nested_union_at_horizon_300(self):
        event = event_from_json((DATA / "nested_union_300.json").read_text())
        value = exact_event_probability(ForecastingSystem.constant(HALF, event.horizon), event)
        assert value == Fraction(1, 64)
        assert value <= upper_game_probability(event)


class TestCellPathTree:
    def test_witness_table(self, budget_7):
        assert len(witness_superfarthingale(EventUnion.full(2)).values) == 7
        with pytest.raises(HorizonError, match="has 15 nodes"):
            witness_superfarthingale(EventUnion.full(3))

    def test_strategy_value_table_steps_no_strategy(self, budget_7):
        class Refusing(DoublingStrategy):
            def step(self, p, y):
                raise AssertionError("strategy stepped past the size check")

        assert len(strategy_value_table(DoublingStrategy, 1, []).values) == 7
        with pytest.raises(HorizonError, match="has 11 nodes"):
            strategy_value_table(Refusing, 1, [Fraction(1, 3)])

    def test_value_table_io_and_check(self, budget_7, monkeypatch):
        table = witness_superfarthingale(EventUnion.full(2))
        text = table.to_json()
        monkeypatch.setattr(core, "MAX_TABLE_HORIZON", 1)
        with pytest.raises(HorizonError, match="has 7 nodes"):
            table.to_json()
        with pytest.raises(HorizonError, match="has 7 nodes"):
            ValueFunction.from_json(text)
        # check_farthingale walks the interior nodes: 3 of them pass a budget of 3 ...
        assert check_farthingale(table, "super") == (True, [])
        # ... and 7 interior nodes do not.
        parts = one_cell(3)
        deeper = ValueFunction(3, parts, path_graph(parts, dict.fromkeys(node_paths(parts), HALF)))
        with pytest.raises(HorizonError, match="has 7 nodes"):
            check_farthingale(deeper, "super")
