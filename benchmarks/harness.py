"""Drive one workload's corpus through the public ``diagfp`` API.

The harness imports ``diagfp``, parses the generated text, builds one test
solver per instance, runs the workload's strategy under its iteration budget
and checks every result against the committed expected diagnosis.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

# Iterations of the calibration loop, and its time on the host the benchmark
# was written on (2-vCPU Intel Xeon, Python 3.11): the reference speed.
CAL_ITERS = 1000
REF_S = 0.0017

MODULES = ("errors", "hypothesis", "properties", "satcore", "strategies",
           "desmodel", "satbackend", "explicit", "circuits")


def import_diagfp(fresh: bool) -> SimpleNamespace:
    """Import the package; ``fresh`` drops every loaded ``diagfp`` module
    first, so the import is paid again (set-up time is measured this way)."""
    if fresh:
        for name in [n for n in sys.modules
                     if n == "diagfp" or n.startswith("diagfp.")]:
            del sys.modules[name]
    importlib.import_module("diagfp")
    return SimpleNamespace(**{m: importlib.import_module(f"diagfp.{m}")
                              for m in MODULES})


def calibration() -> float:
    """Seconds one fixed piece of pure-Python work takes right now: dict,
    set and tuple work like the program's, none of it the program's.  A
    time measured next to it is scaled by ``REF_S / calibration()`` into
    reference seconds."""
    t0 = time.perf_counter()
    table, seen = {}, set()
    for i in range(CAL_ITERS):
        key = ((i * 7919) % 1009, i & 7)
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i % 13, i % 7)))
    sorted(table.items())
    return time.perf_counter() - t0


@dataclass
class Case:
    """One corpus instance: its pool record, parsed input and expectation."""

    inst: dict
    expected: dict
    parsed: tuple


def parse(workload, api, texts: dict) -> tuple:
    if workload.family == "circuit":
        return api.circuits.parse_circuit(texts["circuit"])
    model = api.desmodel.parse_model(texts["model"])
    return model, api.desmodel.parse_observation(texts["obs"], model)


def make_solver(workload, api, case: Case):
    """The test solver for one instance (construction is part of the run)."""
    if workload.backend == "circuit":
        return api.circuits.CircuitSolver(*case.parsed)
    model, obs = case.parsed
    space = model.space(case.inst["params"][0])
    if workload.backend == "sat":
        params = api.satbackend.EncodingParams(case.expected["steps_per_obs"])
        return api.satbackend.SatSolver(model, obs, space, params)
    return api.explicit.ExplicitSolver(model, obs, space)


@dataclass
class Outcome:
    canon: list
    solved: bool
    stats: dict
    seconds: float


def diagnose(workload, api, case: Case, wrap=None) -> Outcome:
    """Construct the solver and run the strategy; ``wrap`` may replace the
    solver handed to the strategy (the traced run passes a recording proxy)."""
    t0 = time.perf_counter()
    solver = make_solver(workload, api, case)
    runner = solver if wrap is None else wrap(solver)
    try:
        result = api.strategies.run_strategy(
            workload.strategy, runner, solver.space, workload.budget)
        canon, solved, stats = result.canon(), True, result.stats
    except api.errors.BudgetExhausted as exc:
        canon, solved, stats = exc.partial.canon(), False, exc.stats
    return Outcome(canon, solved, stats, time.perf_counter() - t0)


def is_correct(outcome: Outcome, expected: dict) -> bool:
    """A finished run must return the expected diagnosis exactly; a run that
    exhausts its budget must return a subset of it (PFS keeps only minimal
    candidates, so its partial result is sound)."""
    if outcome.solved:
        return outcome.canon == expected["diagnosis"]
    return set(outcome.canon) <= set(expected["diagnosis"])
