"""The model block of the SAT backend admits pinned timed runs: for each
case below, the solutions of the block that :class:`SatSolver`'s constructor
builds, projected on the event variables of its decode table, are the
timed runs whose count and digest RUNS_FIXTURE records.

A timed run is the set of ``(timestep, event)`` pairs true in a solution.
The cases are the model of each of ``faulty_instances(24, 40)``, most of
whose components have an event with several transitions, and the alarm
model of ``test_live_kernel.py``, whose components have one transition per
event, each on SHS, MHS and SqHS at ``steps_per_obs`` 1 to 3.  Only cases
with at most ``MAX_RUNS`` runs are recorded, which keeps the test short."""

import hashlib
import json
from itertools import combinations, islice
from pathlib import Path

from diagfp.desmodel import parse_model
from diagfp.hypothesis import MHS, SHS, SQHS
from diagfp.satbackend import EncodingParams, SatSolver

from test_explicit import faulty_instances
from test_live_kernel import ALARM_OBS, ALARMS
from test_satbackend import all_solutions, block_shape

RUNS_FIXTURE = Path(__file__).parent / "fixtures" / "model_block_runs.json"

MAX_RUNS = 3000


def models():
    """(name, model, observation) of every case model, in a fixed order."""
    for i, (model, obs) in enumerate(faulty_instances(24, 40)):
        yield f"faulty-24-{i}", model, obs
    yield "alarms", parse_model(ALARMS), ALARM_OBS


def timed_runs(solver, cap):
    """The model block's solutions projected on the decode table, by
    blocking clauses over the event variables, each as its true
    ``[timestep, event]`` pairs in table order; sorted, or None once there
    are more than ``cap``."""
    cnf, table = solver.cnf, solver.event_vars
    step = {var: key[2] for key, var in cnf.index.items() if key[0] == "e"}
    solutions = all_solutions(cnf, [var for var, _ in table])
    runs = [[[step[var], e] for var, e in table if sol[var]]
            for sol in islice(solutions, cap + 1)]
    return sorted(runs) if len(runs) <= cap else None


def digest(runs) -> dict:
    return {"runs": len(runs), "sha256": hashlib.sha256(
        json.dumps(runs).encode()).hexdigest()}


def record_runs_fixture():
    """The content of RUNS_FIXTURE, as the model block encodes each case."""
    out = {}
    for name, model, obs in models():
        for kind in (SHS, MHS, SQHS):
            for steps in (1, 2, 3):
                solver = SatSolver(model, obs, model.space(kind),
                                   EncodingParams(steps))
                runs = timed_runs(solver, MAX_RUNS)
                if runs is not None:
                    out[f"{name}/{kind}/{steps}"] = digest(runs)
    return out


def test_model_block_admits_the_recorded_timed_runs():
    expected = json.loads(RUNS_FIXTURE.read_text())
    cases = {name: (model, obs) for name, model, obs in models()}
    for case, want in expected.items():
        name, kind, steps = case.split("/")
        model, obs = cases[name]
        solver = SatSolver(model, obs, model.space(kind),
                           EncodingParams(int(steps)))
        runs = timed_runs(solver, want["runs"])
        assert runs is not None and digest(runs) == want, case


def test_recorded_blocks_take_both_compact_rules():
    # so the recorded runs check both: a move tied to a state written as
    # -x (one variable for a two-state component), and two events of one
    # component with a variable at one timestep and no clause excluding
    # them (lone moves from its two states)
    cases = {name: (model, obs) for name, model, obs in models()}
    negated = unexcluded = False
    for case in json.loads(RUNS_FIXTURE.read_text()):
        name, kind, steps = case.split("/")
        model, obs = cases[name]
        solver = SatSolver(model, obs, model.space(kind),
                           EncodingParams(int(steps)))
        cnf, table = solver.cnf, solver.event_vars
        if [] in cnf.clauses:
            continue    # encode_run stopped where the observation failed
        states, _, excluded = block_shape(cnf)
        events = {var for var, _ in table}
        negated |= any(len(c) == 2 and -c[0] in events and -c[1] in states
                       for c in cnf.clauses)
        for t in range(1, solver.horizon + 1):
            for comp in model.components:
                evs = [v for e in sorted(comp.alphabet)
                       if (v := cnf.index.get(("e", e, t))) is not None]
                unexcluded |= any(frozenset(p) not in excluded
                                  for p in combinations(evs, 2))
    assert negated and unexcluded


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_model_block_runs.py rewrites
    # RUNS_FIXTURE.  Do so only in a change that means to alter the runs a
    # model block admits, and say so.
    RUNS_FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(entry)}"
        for case, entry in record_runs_fixture().items()) + "\n}\n")
