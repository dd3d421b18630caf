"""Outside-in recorder for the traced run.

Nothing in ``diagfp`` changes: the recorder replaces public functions,
methods and module-level names with timing or counting wrappers while it is
installed, and wraps the solver handed to ``run_strategy`` in a proxy that
times every test.  Spans (name, start, end, parent, instance) are kept in
memory and written out when the run ends; a layer's self time is its span
duration minus the time of the spans directly inside it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_perf = time.perf_counter

# Per-layer metrics the traced run reports: name -> (unit, better).
METRICS = {
    "strategies.self_s": ("s", "lower"),
    "strategies.tests": ("count", "lower"),
    "strategies.tests_per_candidate": ("tests/candidate", "lower"),
    "strategies.expansions": ("count", "lower"),
    "strategies.cache_hits": ("count", "higher"),
    "strategies.cache_hit_ratio": ("ratio", "higher"),
    "hypothesis.validate_calls": ("count", "lower"),
    "properties.member_calls": ("count", "lower"),
    "satcore.load_s": ("s", "lower"),
    "satcore.clauses_loaded": ("count", "lower"),
    "satcore.instances": ("count", "lower"),
    "satcore.solve_s": ("s", "lower"),
    "satcore.conflicts": ("count", "lower"),
    "satcore.decisions": ("count", "lower"),
    "satcore.propagations": ("count", "lower"),
    "satcore.propagations_per_s": ("1/s", "higher"),
    "circuits.solve_s": ("s", "lower"),
    "circuits.self_s": ("s", "lower"),
    "circuits.revalidate_s": ("s", "lower"),
    "circuits.vars": ("count", "lower"),
    "circuits.clauses": ("count", "lower"),
    "circuits.props_per_test": ("props/test", "lower"),
    "circuits.conflict_ratio": ("ratio", "lower"),
    "satbackend.solve_s": ("s", "lower"),
    "satbackend.self_s": ("s", "lower"),
    "satbackend.encode_property_s": ("s", "lower"),
    "satbackend.decode_s": ("s", "lower"),
    "satbackend.revalidate_s": ("s", "lower"),
    "satbackend.vars": ("count", "lower"),
    "satbackend.clauses": ("count", "lower"),
    "explicit.solve_s": ("s", "lower"),
    "explicit.visited": ("count", "lower"),
    "explicit.expanded": ("count", "lower"),
    "explicit.visited_per_s": ("1/s", "higher"),
    "desmodel.step_calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# The solver's test span is named after the frontend layer it enters.
_TEST_SPAN = {"circuit": "circuits.solve", "sat": "satbackend.solve",
              "explicit": "explicit.test"}


class Recorder:
    """Records spans and counts for one traced pass over a corpus."""

    def __init__(self, api, backend: str):
        self.api = api
        self.test_span = _TEST_SPAN[backend]
        self.spans = []          # (id, parent, name, t0, t1, case, attrs)
        self._stack = []         # [span id, time covered by child spans]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.case = None         # id of the instance being diagnosed
        self.solver = None       # its solver, read by finish_case
        self._undo = []

    # ------------------------------------------------------------- spans

    def timed(self, name, fn, *args, **kwargs):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = _perf()
        attrs = {}
        try:
            result = fn(*args, **kwargs)
            if name == self.test_span:
                attrs = self._test_attrs(args[0], result)
            return result
        finally:
            t1 = _perf()
            self._stack.pop()
            dur = t1 - t0
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, parent, name, t0, t1, self.case, attrs))

    def _test_attrs(self, request, outcome) -> dict:
        size = len(request.props)
        self.counts["tests"] += 1
        self.counts["request_props"] += size
        if any(p.kind == "desc" for p in request.props):
            self.counts["candidacy_tests"] += 1
        if outcome.is_candidate:
            return {"props": size, "outcome": "candidate"}
        self.counts["failed_request_props"] += size
        self.counts["conflict_props"] += len(outcome.conflict)
        return {"props": size, "outcome": "failed",
                "conflict": len(outcome.conflict)}

    # ----------------------------------------------------------- install

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _timing(self, owner, attr, name):
        orig = getattr(owner, attr)
        self._patch(owner, attr,
                    lambda *a, **k: self.timed(name, orig, *a, **k))

    def _counting(self, owner, attr, key):
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)
        self._patch(owner, attr, counted)

    def install(self):
        api = self.api
        self._counting(api.hypothesis.Space, "validate", "validate_calls")
        self._counting(api.desmodel.DesModel, "step", "step_calls")
        self._counting(api.strategies, "member", "member_calls")
        self._counting(api.explicit, "member", "member_calls")
        for mod, layer in ((api.circuits, "circuits"),
                           (api.satbackend, "satbackend")):
            self._counting(mod, "member", "member_calls")
            self._timing(mod, "member", f"{layer}.revalidate")
        for attr in ("trace_in_model", "trace_matches_observation"):
            self._timing(api.satbackend, attr, "satbackend.revalidate")
        self._timing(api.satbackend, "encode_property",
                     "satbackend.encode_property")
        self._timing(api.satbackend, "decode_trace", "satbackend.decode")
        self._timing(api.explicit, "solve", "explicit.solve")
        self._timing(api.strategies, "run_strategy", "strategies.run")
        kernel = _recording_kernel(api.satcore.MiniSolver, self)
        self._patch(api.circuits, "MiniSolver", kernel)
        self._patch(api.satbackend, "MiniSolver", kernel)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------ per instance

    def wrap(self, solver):
        self.solver = solver
        return _SolverProxy(solver, self)

    def finish_case(self, outcome):
        """Fold one instance's end-of-run solver state into the counts."""
        stats = outcome.stats
        self.counts["strategy_tests"] += stats["tests"]
        self.counts["expansions"] += stats["expansions"]
        self.counts["cache_hits"] += stats["cache_hits"]
        self.counts["candidates"] += len(outcome.canon)
        cnf = getattr(self.solver, "cnf", None)
        if cnf is not None:
            self.counts["vars"] += cnf.nvars
            self.counts["clauses"] += len(cnf.clauses)
        extra = self.solver.stats.extra
        self.counts["visited"] += extra.get("visited", 0)
        self.counts["expanded"] += extra.get("expanded", 0)

    # ----------------------------------------------------------- results

    def layer_counts(self) -> dict:
        """Per-layer metrics that are counts (they must repeat exactly)."""
        c = self.counts
        circuit = self.test_span == "circuits.solve"
        sat = self.test_span == "satbackend.solve"
        return {
            "strategies.tests": c["strategy_tests"],
            "strategies.tests_per_candidate":
                _ratio(c["strategy_tests"], c["candidates"]),
            "strategies.expansions": c["expansions"],
            "strategies.cache_hits": c["cache_hits"],
            "strategies.cache_hit_ratio":
                _ratio(c["cache_hits"], c["cache_hits"] + c["candidacy_tests"]),
            "hypothesis.validate_calls": c["validate_calls"],
            "properties.member_calls": c["member_calls"],
            "satcore.clauses_loaded": c["clauses_loaded"],
            "satcore.instances": c["kernels"],
            "satcore.conflicts": c["conflicts"],
            "satcore.decisions": c["decisions"],
            "satcore.propagations": c["propagations"],
            "circuits.vars": c["vars"] if circuit else 0,
            "circuits.clauses": c["clauses"] if circuit else 0,
            "circuits.props_per_test":
                _ratio(c["request_props"], c["tests"]) if circuit else 0,
            "circuits.conflict_ratio":
                _ratio(c["conflict_props"], c["failed_request_props"])
                if circuit else 0,
            "satbackend.vars": c["vars"] if sat else 0,
            "satbackend.clauses": c["clauses"] if sat else 0,
            "explicit.visited": c["visited"],
            "explicit.expanded": c["expanded"],
            "desmodel.step_calls": c["step_calls"],
        }

    def layer_times(self) -> dict:
        """Per-layer metrics that are times (or rates over a time)."""
        t, s = self.total, self.self_time
        load = t["satcore.new"] + t["satcore.load"]
        return {
            "strategies.self_s": s["strategies.run"],
            "satcore.load_s": load,
            "satcore.solve_s": t["satcore.solve"],
            "satcore.propagations_per_s":
                _ratio(self.counts["propagations"], t["satcore.solve"]),
            "circuits.solve_s": t["circuits.solve"],
            "circuits.self_s": s["circuits.solve"],
            "circuits.revalidate_s": t["circuits.revalidate"],
            "satbackend.solve_s": t["satbackend.solve"],
            "satbackend.self_s": s["satbackend.solve"],
            "satbackend.encode_property_s": t["satbackend.encode_property"],
            "satbackend.decode_s": t["satbackend.decode"],
            "satbackend.revalidate_s": t["satbackend.revalidate"],
            "explicit.solve_s": t["explicit.solve"],
            "explicit.visited_per_s":
                _ratio(self.counts["visited"], t["explicit.solve"]),
        }

    def write_spans(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, t0, t1, case, attrs in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "instance": case, **attrs}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _SolverProxy:
    """Stands in for a test solver; times each ``solve`` as a span."""

    def __init__(self, solver, recorder: Recorder):
        self._solver = solver
        self._recorder = recorder
        self.space = solver.space
        self.stats = solver.stats

    def solve(self, request):
        return self._recorder.timed(self._recorder.test_span,
                                    self._solver.solve, request)


def _recording_kernel(base, rec: Recorder):
    """A ``MiniSolver`` subclass that times loading and solving and sums the
    kernel's own conflict, decision and propagation counters.

    The kernel calls its own ``ensure_vars`` for every literal it loads; those
    inner calls go straight to the base class, so only calls from outside the
    kernel are timed."""
    base_ensure_vars = base.ensure_vars
    inside = [False]

    def timed(name, fn, *args):
        inside[0] = True
        try:
            return rec.timed(name, fn, *args)
        finally:
            inside[0] = False

    class RecordingMiniSolver(base):
        def __init__(self):
            rec.counts["kernels"] += 1
            rec.timed("satcore.new", super().__init__)

        def ensure_vars(self, n):
            if inside[0]:
                return base_ensure_vars(self, n)
            return timed("satcore.load", base_ensure_vars, self, n)

        def add_clauses(self, clauses):
            rec.counts["clauses_loaded"] += len(clauses)
            return timed("satcore.load", super().add_clauses, clauses)

        def solve(self, assumptions=()):
            before = (self.conflicts, self.decisions, self.propagations)
            try:
                return timed("satcore.solve", super().solve, assumptions)
            finally:
                rec.counts["conflicts"] += self.conflicts - before[0]
                rec.counts["decisions"] += self.decisions - before[1]
                rec.counts["propagations"] += self.propagations - before[2]

    return RecordingMiniSolver
