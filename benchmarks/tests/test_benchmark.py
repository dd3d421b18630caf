"""Tests of the benchmark itself: generators, expected answers, recorder and
command line.  Run from the repository root:

    python3 -m pytest benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from corpus import (CORPUS_SIZE, WORKLOADS, draw, instance_texts,
                    load_expected, pool)
from families import alarm_chain_text, circuit_text
from recorder import METRICS, Recorder

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
API = harness.import_diagfp(fresh=False)


def _cheapest(workload, n):
    expected = load_expected(workload)
    insts = sorted(pool(workload), key=lambda i: expected[i["id"]]["seconds"])
    return [harness.Case(inst, expected[inst["id"]],
                         harness.parse(workload, API,
                                       instance_texts(workload, inst)))
            for inst in insts[:n]]


def test_generators_are_deterministic():
    for family, n in (("adder", 3), ("multiplier", 2)):
        assert circuit_text(family, n, 2, 5) == circuit_text(family, n, 2, 5)
        assert len({circuit_text(family, n, 2, s) for s in range(8)}) > 1
    assert alarm_chain_text(3, 2, 7) == alarm_chain_text(3, 2, 7)
    assert len({alarm_chain_text(3, 2, s) for s in range(8)}) > 1


def test_circuit_observation_is_faulty():
    circuit, obs = API.circuits.parse_circuit(circuit_text("multiplier", 2, 1, 0))
    assert len(circuit.gates) == 8
    diagnosis = API.circuits.brute_force_diagnosis(circuit, obs)
    assert diagnosis and "{}" not in [h.canon() for h in diagnosis]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_committed_answers_match_the_generators(name):
    from make_expected import pool_digest
    workload = WORKLOADS[name]
    data = json.loads((BENCH / "expected" / f"{name}.json").read_text())
    assert data["pool_sha256"] == pool_digest(workload)
    assert {i["id"] for i in pool(workload)} == set(data["instances"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_draw(name):
    workload = WORKLOADS[name]
    expected = load_expected(workload)
    a = draw(workload, 3, expected)
    assert a == draw(workload, 3, expected)
    assert len({i["id"] for i in a}) == CORPUS_SIZE
    assert a != draw(workload, 4, expected)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_answers_reproduced_on_smallest(name):
    workload = WORKLOADS[name]
    for case in _cheapest(workload, 3):
        want = case.expected["diagnosis"]
        if workload.family == "circuit":
            ref = API.circuits.brute_force_diagnosis(*case.parsed)
        else:
            model, obs = case.parsed
            ref = API.explicit.oracle_diagnose(
                model, obs, model.space(case.inst["params"][0]))
        assert [h.canon() for h in ref] == want
        solver = harness.make_solver(workload, API, case)
        for strategy in API.strategies.terminating_strategies(solver.space):
            solver = harness.make_solver(workload, API, case)
            got = API.strategies.run_strategy(strategy, solver, solver.space)
            assert got.canon() == want, (case.inst["id"], strategy)


def _traced(workload, cases):
    rec = Recorder(API, workload.backend)
    rec.install()
    try:
        outs = []
        for case in cases:
            rec.case = case.inst["id"]
            out = harness.diagnose(workload, API, case, wrap=rec.wrap)
            rec.finish_case(out)
            outs.append(out)
    finally:
        rec.uninstall()
    return outs, rec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_counts_repeat(name):
    workload = WORKLOADS[name]
    cases = _cheapest(workload, 4)
    plain = [harness.diagnose(workload, API, case) for case in cases]
    first, rec1 = _traced(workload, cases)
    second, rec2 = _traced(workload, cases)
    sig = [[(o.canon, o.solved, o.stats["tests"]) for o in outs]
           for outs in (plain, first, second)]
    assert sig[0] == sig[1] == sig[2]
    assert all(harness.is_correct(o, c.expected) for o, c in zip(plain, cases))
    counts = rec1.layer_counts()
    assert counts == rec2.layer_counts()
    assert counts["strategies.tests"] > 0
    assert counts["hypothesis.validate_calls"] > 0
    satcore = [v for k, v in counts.items() if k.startswith("satcore.")]
    explicit = [v for k, v in counts.items() if k.startswith("explicit.")]
    if workload.backend == "explicit":
        assert not any(satcore) and all(explicit)
        assert counts["desmodel.step_calls"] > 0
    else:
        assert not any(explicit)
        for name in ("instances", "clauses_loaded", "propagations"):
            assert counts[f"satcore.{name}"] > 0
    if workload.family == "circuit":
        assert counts["circuits.clauses"] > 0
    times = rec1.layer_times()
    assert set(counts) | set(times) | {"trace.overhead_s"} == set(METRICS)
    # Every original is back once the recorder is uninstalled.
    assert API.circuits.MiniSolver is API.satcore.MiniSolver
    assert API.strategies.member is API.properties.member


def test_quantile_estimate():
    import run
    values = [float(i) for i in range(1, 101)]
    assert run._quantile(values, 0.5) == pytest.approx(50.5)
    assert 89 < run._quantile(values, 0.9) < 92
    assert run._quantile([3.0] * 100, 0.9) == pytest.approx(3.0)


def test_pass_times_scale_by_calibration():
    import run
    outs = [harness.Outcome([], True, {}, t) for t in (0.5, 1.0)]
    p = run.Pass(wall=2.0, cal=[harness.REF_S, 2 * harness.REF_S], outs=outs)
    assert p.scaled == pytest.approx([0.5, 0.5])
    assert p.seconds == pytest.approx(1.0)
    assert harness.calibration() > 0


def test_benchmark_json_lists_every_metric():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == METRICS


def test_command_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "des-explicit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    import run
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert "# kernel: " in proc.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "circuit-pfs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
