"""Diagnosis benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 benchmarks/run.py --workload circuit-pfs --seed 1 --seconds 40 --trace 0

The seed draws a corpus of instances from the workload's pool (see
``corpus.py``); the program under test receives only their generated text.
The run sets up several times (import ``diagfp``, parse every instance,
construct every solver) and reports the median, then diagnoses the whole
corpus repeatedly for ``--seconds`` seconds, checking every diagnosis
against the committed expected answer.

Every reported time is in reference seconds.  The speed of a shared host
drifts by tens of percent over seconds and minutes, so a fixed piece of
pure-Python work (``harness.calibration``) is timed just before every
diagnosis and every set-up, and the measured time is scaled by
``harness.REF_S`` over the calibration's time: the time the work would take
on a host where the calibration takes ``harness.REF_S``.  The header lines
also give the unscaled corpus time and the median calibration time.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
``recorder.py``, the tracing overhead among them; its spans are written to
``.bench_out/`` when the run ends.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only if every diagnosis matched.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness
from corpus import WORKLOADS, draw, instance_texts, load_expected
from recorder import METRICS as LAYER_METRICS
from recorder import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9

# name -> (unit, better); the order is the order of the printed table.
END_TO_END = {
    "corpus_s": ("s", "lower"),
    "diagnose_s.p50": ("s", "lower"),
    "diagnose_s.p90": ("s", "lower"),
    "solved_frac": ("ratio", "higher"),
    "correct_frac": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a weighted mean of all
    order statistics, with weights from the Beta(p(n+1), (1-p)(n+1))
    distribution, each integrated over its rank interval by Simpson's rule.
    It varies less from run to run than a single order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log(1 - x)
                        - log_beta)

    def weight(lo, hi, steps=8):
        h = (hi - lo) / steps
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h)
                    for k in range(1, steps))
        return (pdf(lo) + inner + pdf(hi)) * h / 3

    weights = [weight(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _setup(workload, corpus, expected):
    """Set up ``SETUP_REPS`` times; keep the last API and parsed cases.
    Returns each set-up's time in reference seconds."""
    texts = [instance_texts(workload, inst) for inst in corpus]
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        scale = harness.REF_S / harness.calibration()
        t0 = time.perf_counter()
        api = harness.import_diagfp(fresh=True)
        cases = [harness.Case(inst, expected[inst["id"]],
                              harness.parse(workload, api, text))
                 for inst, text in zip(corpus, texts)]
        for case in cases:
            harness.make_solver(workload, api, case)
        times.append((time.perf_counter() - t0) * scale)
    return api, cases, times


@dataclass
class Pass:
    """One diagnosis of the whole corpus."""

    wall: float      # seconds the pass took, calibrations included
    cal: list        # the calibration time before each instance
    outs: list       # each instance's harness.Outcome

    @property
    def scaled(self) -> list:
        """Each instance's time in reference seconds."""
        return [o.seconds * harness.REF_S / c
                for o, c in zip(self.outs, self.cal)]

    @property
    def seconds(self) -> float:
        return sum(self.scaled)


def _pass(workload, api, cases, recorder=None) -> Pass:
    """Diagnose the corpus once, timing the calibration before each case."""
    gc.collect()
    t0 = time.perf_counter()
    cal, outs = [], []
    for case in cases:
        cal.append(harness.calibration())
        if recorder is None:
            outs.append(harness.diagnose(workload, api, case))
        else:
            recorder.case = case.inst["id"]
            outs.append(harness.diagnose(workload, api, case,
                                         wrap=recorder.wrap))
            recorder.finish_case(outs[-1])
    return Pass(time.perf_counter() - t0, cal, outs)


def _measure(workload, api, cases, seconds, trace):
    """Run passes until ``seconds`` are spent; with ``trace`` every untraced
    pass is followed by a traced one with a fresh recorder."""
    deadline = time.perf_counter() + seconds
    untraced, traced, recorders = [], [], []
    while True:
        untraced.append(_pass(workload, api, cases))
        spent = untraced[-1].wall
        if trace:
            rec = Recorder(api, workload.backend)
            rec.install()
            try:
                traced.append(_pass(workload, api, cases, rec))
            finally:
                rec.uninstall()
            recorders.append(rec)
            spent += traced[-1].wall
        if time.perf_counter() + spent > deadline:
            return untraced, traced, recorders


def _end_to_end(untraced, cases, ok_cases, setup_times) -> dict:
    scaled = [p.scaled for p in untraced]
    per_case = [statistics.median(row[i] for row in scaled)
                for i in range(len(cases))]
    return {
        "corpus_s": statistics.median(p.seconds for p in untraced),
        "diagnose_s.p50": _quantile(per_case, 0.5),
        "diagnose_s.p90": _quantile(per_case, 0.9),
        "solved_frac": sum(o.solved for o in untraced[0].outs) / len(cases),
        "correct_frac": sum(ok_cases) / len(cases),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(untraced, traced, recorders) -> dict:
    """Counts from the first traced pass (they repeat exactly); times as the
    median over traced passes."""
    values = recorders[0].layer_counts()
    times = [r.layer_times() for r in recorders]
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    values["trace.overhead_s"] = (
        statistics.median(p.seconds for p in traced)
        - statistics.median(p.seconds for p in untraced))
    return values


def main(argv=None) -> int:
    args = _args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order, and so every per-layer count, must not depend
        # on string-hash randomisation.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not (SRC / "diagfp" / "__init__.py").is_file():
        print(f"benchmark error: no diagfp package under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    expected = load_expected(workload)
    corpus = draw(workload, args.seed, expected)
    api, cases, setup_times = _setup(workload, corpus, expected)
    untraced, traced, recorders = _measure(workload, api, cases,
                                           args.seconds, args.trace)

    passes = untraced + traced
    ok = [[harness.is_correct(out, case.expected)
           for out, case in zip(p.outs, cases)] for p in passes]
    failed = sum(row.count(False) for row in ok)
    ok_cases = [all(col) for col in zip(*ok)]
    signatures = [[(o.canon, o.solved, o.stats["tests"]) for o in p.outs]
                  for p in passes]
    results_repeat = all(s == signatures[0] for s in signatures)
    counts = [r.layer_counts() for r in recorders]
    counts_repeat = all(c == counts[0] for c in counts)

    if args.trace:
        values = _per_layer(untraced, traced, recorders)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values = _end_to_end(untraced, cases, ok_cases, setup_times)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    header = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "kernel": api.satcore.KERNEL, "python": platform.python_version(),
        "corpus": len(cases), "passes": len(untraced),
        "traced_passes": len(traced),
        "fail_frac": 1 - sum(ok_cases) / len(cases),
        "unsolved": sum(not o.solved for o in untraced[0].outs),
        "corpus_wall_s": statistics.median(sum(o.seconds for o in p.outs)
                                           for p in untraced),
        "calibration_s": statistics.median(c for p in untraced
                                           for c in p.cal),
        "results_repeat": results_repeat, "counts_repeat": counts_repeat,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({**header, "metrics": metrics, "instance_seconds": {
            c.inst["id"]: [p.outs[i].seconds for p in passes]
            for i, c in enumerate(cases)}, "instance_scaled_seconds": {
            c.inst["id"]: [p.scaled[i] for p in passes]
            for i, c in enumerate(cases)}}, fh, indent=1)
    if recorders:
        recorders[0].write_spans(out_dir / f"{stem}.spans.jsonl", header)

    for key, value in header.items():
        print(f"# {key}: {value}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    correct = failed == 0 and results_repeat and counts_repeat
    print(json.dumps({"correct": correct,
                      "attempted": len(cases) * len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
