"""One pass per sample: ``sample_path`` against the two-pass draw it replaces.

``sample_path(phi, n, seed)`` draws the outcomes and steps the system in one
pass; it must equal ``induced_path(phi, sample_outcomes(phi, n, seed))``.
``preq levy-trace`` and ``monte_carlo_probability`` draw through it, so they
call neither of the two-pass functions, and their answers stay those of the
two passes.
"""

import io
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_calibration_fold import PROPERTY
from test_sampling import stepping_systems
from test_ville_walk import systems

from preqprob import cli, measureprob
from preqprob.core import induced_path, sample_outcomes, sample_path
from preqprob.events import contains, event_from_json
from preqprob.randgen import random_event

DATA = Path(__file__).parent / "data"


@PROPERTY
@given(st.one_of(systems, stepping_systems()), st.data(),
       st.one_of(st.integers(0, 10**6), st.integers(2**32, 2**32 + 100)))
def test_the_one_pass_path_is_the_induced_path_of_the_sample(phi, data, seed):
    n = data.draw(st.integers(0, phi.horizon))
    assert sample_path(phi, n, seed) == induced_path(phi, sample_outcomes(phi, n, seed))


def refuse_two_passes(monkeypatch, module):
    for name in ("sample_outcomes", "induced_path"):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{module.__name__}.{name} called"))


def test_a_sampled_levy_trace_draws_each_candidate_in_one_pass(monkeypatch):
    """Seed 7 misses the horizon-10 event twelve times before a member: each draw is one ``sample_path``."""
    drawn = []

    def one_pass(phi, n, seed):
        drawn.append(seed)
        return sample_path(phi, n, seed)

    refuse_two_passes(monkeypatch, cli)
    monkeypatch.setattr(cli, "sample_path", one_pass)
    monkeypatch.chdir(DATA.parent.parent)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["levy-trace", "--event", "tests/data/horizon_10_event.json", "--seed", "7", "--json"]) == 0
    assert drawn == list(range(7, 20))
    event = event_from_json((DATA / "horizon_10_event.json").read_text())
    witness = measureprob.measure_upper_probability(event)[1]
    members = [contains(event, induced_path(witness, sample_outcomes(witness, 10, seed))) for seed in drawn]
    assert members == [False] * 12 + [True]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_the_monte_carlo_oracle_draws_each_sample_in_one_pass(monkeypatch, seed):
    """Under the event's measure witness some samples hit and some miss; the estimate is the two-pass count's."""
    event = random_event(random.Random(seed), horizon=5, max_boxes=3)
    phi = measureprob.measure_upper_probability(event)[1]
    hits = sum(contains(event, induced_path(phi, sample_outcomes(phi, 5, seed + i))) for i in range(300))
    assert 0 < hits < 300
    refuse_two_passes(monkeypatch, measureprob)
    assert measureprob.monte_carlo_probability(phi, event, 300, seed)[0] == hits / 300
