"""The explicit search is pinned: on every ``test_explicit.graph_case``
model, space and strategy below, each request gets the outcome, the
visited/expanded counts and the ``fits_horizon`` answers recorded in
SEARCH_FIXTURE."""

import json
from pathlib import Path

from diagfp.explicit import ExplicitSolver, fits_horizon
from diagfp.hypothesis import MHS, SHS, SQHS
from diagfp.strategies import run_strategy

from test_explicit import graph_case

SEARCH_FIXTURE = Path(__file__).parent / "fixtures" / "explicit_search.json"

CASES = [(name, kind, strategy)
         for name in ("oneshot", "diverge", "alarms")
         for kind in (SHS, MHS, SQHS)
         for strategy in ("pfs-ec", "pls-r")]

STEPS_PER_OBS = (1, 2, 3)


class CountingSolver:
    """Runs each request on ``solver`` and logs it with its outcome and
    the visited/expanded counts that request added."""

    def __init__(self, solver):
        self.solver, self.space = solver, solver.space
        self.log = []

    def solve(self, request):
        extra = self.solver.stats.extra
        before = (extra.get("visited", 0), extra.get("expanded", 0))
        outcome = self.solver.solve(request)
        self.log.append((request, outcome,
                         extra["visited"] - before[0],
                         extra["expanded"] - before[1]))
        return outcome


def search_log(name, kind, strategy):
    """One entry per request the strategy sends, in order."""
    model, obs = graph_case(name)
    space = model.space(kind)
    counting = CountingSolver(ExplicitSolver(model, obs, space))
    run_strategy(strategy, counting, space)
    log = []
    for request, outcome, visited, expanded in counting.log:
        entry = {"request": [repr(p) for p in request.props]}
        if outcome.is_candidate:
            entry["candidate"] = outcome.candidate.canon()
            entry["witness"] = list(outcome.witness)
        else:
            entry["conflict"] = [repr(p) for p in outcome.conflict]
        entry["visited"], entry["expanded"] = visited, expanded
        entry["fits"] = [fits_horizon(model, obs, request, k)
                         for k in STEPS_PER_OBS]
        log.append(entry)
    return log


def record_search_fixture():
    """The content of SEARCH_FIXTURE, as the explicit solver searches."""
    return {f"{name}-{kind}-{strategy}": search_log(name, kind, strategy)
            for name, kind, strategy in CASES}


def test_explicit_search_reproduces_the_recorded_one():
    expected = json.loads(SEARCH_FIXTURE.read_text())
    got = record_search_fixture()
    assert got.keys() == expected.keys()
    for case in expected:
        assert len(got[case]) == len(expected[case]), case
        for i, (entry, want) in enumerate(zip(got[case], expected[case])):
            assert entry == want, (case, i)


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_explicit_search.py rewrites
    # SEARCH_FIXTURE.  Do so only in a change that means to alter the
    # search, and say so.
    logs = record_search_fixture()
    SEARCH_FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: [\n" + ",\n".join(
            json.dumps(entry) for entry in log) + "\n]"
        for case, log in logs.items()) + "\n}\n")
