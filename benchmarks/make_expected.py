"""Write the committed expected diagnoses of every workload's pool.

Usage (from the repository root):

    PYTHONHASHSEED=0 python3 benchmarks/make_expected.py [workload ...]

For every pool instance the reference diagnosis comes from a checker that
does not run the workload's strategy:

* alarm chains: ``oracle_diagnose``, the bounded exhaustive search;
* circuits of at most ``BRUTE_FORCE_GATES`` gates: ``brute_force_diagnosis``;
* larger circuits: agreement of every strategy in ``terminating_strategies``
  that finishes within ``CROSS_CHECK_CAP`` iterations (at least two must).

For the SAT workload the script also picks ``steps_per_obs``: the least
value at which ``fits_horizon`` certifies a witness for every minimal
candidate, so the bounded SAT answer equals the oracle's.  It then runs the
workload's strategy under the workload's budget and records whether it
finished and how many tests it spent.  Records already in the file for the
same budget and strategy are kept, so growing a pool computes only the new
instances.  The script stops with an error if the strategy disagrees with the
reference.  Last, it times every pool instance ``COST_REPS`` times, in whole
passes over the pool, and records the median in reference seconds (see
``harness.calibration``); the corpus draw stratifies on that time.  The hash
seed must be 0, as in ``run.py``, so the strategies take the same paths.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from diagfp.circuits import CircuitSolver, brute_force_diagnosis  # noqa: E402
from diagfp.contract import TestRequest  # noqa: E402
from diagfp.errors import BudgetExhausted  # noqa: E402
from diagfp.explicit import fits_horizon, oracle_diagnose  # noqa: E402
from diagfp.properties import question_candidate  # noqa: E402
from diagfp.satcore import KERNEL  # noqa: E402
from diagfp.strategies import run_strategy, terminating_strategies  # noqa: E402

import harness  # noqa: E402
from corpus import (WORKLOADS, expected_path, instance_texts,  # noqa: E402
                    load_expected, pool)

BRUTE_FORCE_GATES = 10
CROSS_CHECK_CAP = 500
MAX_STEPS_PER_OBS = 12
COST_REPS = 5


def _circuit_reference(circuit, obs) -> tuple:
    if len(circuit.gates) <= BRUTE_FORCE_GATES:
        return ([h.canon() for h in brute_force_diagnosis(circuit, obs)],
                ["brute_force"])
    answers = {}
    for name in terminating_strategies(circuit.space()):
        solver = CircuitSolver(circuit, obs)
        try:
            answers[name] = run_strategy(name, solver, solver.space,
                                         CROSS_CHECK_CAP).canon()
        except BudgetExhausted:
            continue
    if len(answers) < 2 or len({tuple(a) for a in answers.values()}) != 1:
        raise SystemExit(f"strategies disagree or too few finished: {answers}")
    return next(iter(answers.values())), sorted(answers)


def _steps_per_obs(model, obs, space, minimal) -> int:
    for steps in range(1, MAX_STEPS_PER_OBS + 1):
        if all(fits_horizon(model, obs,
                            TestRequest(question_candidate(h, space), space),
                            steps)
               for h in minimal):
            return steps
    raise SystemExit("no steps_per_obs up to the limit fits every candidate")


def pool_digest(workload) -> str:
    """SHA-256 over every pool instance's generated text, so a change to a
    generator that leaves the committed answers stale is caught."""
    h = hashlib.sha256()
    for inst in pool(workload):
        for name, text in sorted(instance_texts(workload, inst).items()):
            h.update(f"{inst['id']}/{name}\n{text}".encode())
    return h.hexdigest()


def make(workload, api, cache: dict, old: dict) -> dict:
    records = {}
    for inst in pool(workload):
        if inst["id"] in old:
            records[inst["id"]] = old[inst["id"]]
            continue
        t0 = time.perf_counter()
        parsed = harness.parse(workload, api, instance_texts(workload, inst))
        rec = {}
        if workload.family == "circuit":
            if inst["id"] not in cache:
                cache[inst["id"]] = _circuit_reference(*parsed)
            rec["diagnosis"], rec["checked_by"] = cache[inst["id"]]
        else:
            model, obs = parsed
            space = model.space(inst["params"][0])
            minimal = oracle_diagnose(model, obs, space)
            rec["diagnosis"] = [h.canon() for h in minimal]
            rec["checked_by"] = ["oracle"]
            if workload.backend == "sat":
                rec["steps_per_obs"] = _steps_per_obs(model, obs, space,
                                                      minimal)
        case = harness.Case(inst, rec, parsed)
        out = harness.diagnose(workload, api, case)
        if not harness.is_correct(out, rec):
            raise SystemExit(f"{workload.name} {inst['id']}: strategy gave "
                             f"{out.canon}, reference {rec['diagnosis']}")
        rec["solved"] = out.solved
        rec["tests"] = out.stats["tests"]
        records[inst["id"]] = rec
        print(f"{workload.name} {inst['id']}: {len(rec['diagnosis'])} "
              f"minimal, {rec['tests']} tests, solved={out.solved}, "
              f"{time.perf_counter() - t0:.3f}s", flush=True)
    return records


def retime(workload, api, records: dict) -> None:
    """Set every record's ``seconds``: its median time in reference seconds
    over ``COST_REPS`` passes over the whole pool."""
    cases = [harness.Case(inst, records[inst["id"]],
                          harness.parse(workload, api,
                                        instance_texts(workload, inst)))
             for inst in pool(workload)]
    times = {case.inst["id"]: [] for case in cases}
    for _ in range(COST_REPS):
        gc.collect()
        for case in cases:
            cal = harness.calibration()
            out = harness.diagnose(workload, api, case)
            times[case.inst["id"]].append(out.seconds * harness.REF_S / cal)
    for key, seconds in times.items():
        records[key]["seconds"] = round(statistics.median(seconds), 4)


def main(names) -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("run with PYTHONHASHSEED=0, as run.py does")
    api = harness.import_diagfp(fresh=False)
    cache = {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        try:
            old = load_expected(workload)
        except (OSError, ValueError):
            old = {}
        data = {"workload": workload.name, "strategy": workload.strategy,
                "budget": workload.budget, "kernel": KERNEL,
                "pool_sha256": pool_digest(workload),
                "instances": make(workload, api, cache, old)}
        retime(workload, api, data["instances"])
        path = expected_path(workload)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
