"""Boolean-circuit diagnosis frontend (SHS over gate names).

Weak-fault model: a healthy gate (``ab`` false) behaves per its function, an
abnormal gate is unconstrained.  Netlist format, one directive per line
(``#`` comments):

    input <signal> ...
    output <signal> ...
    gate <name> <and|or|not|xor|buf> <out-signal> <in-signal> ...
    obs <signal> <0|1>

Diagnosis runs through the same strategy engine as the DES path; a property
over the gate-set hypotheses is stated over the ``ab`` variables by the rule
the DES set encoding applies to fault-occurrence variables
(``satbackend.set_literals``), and guarded by ``satbackend.guard_property``.
A candidacy test assumes ``ab[g]`` for each gate of the hypothesis and
``-ab[g]`` for each gate a child adds, with no property clause
(:meth:`CircuitSolver.cube`), so it adds nothing to the CNF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from .contract import TestOutcome, TestRequest
from .errors import DiagError, ModelFormatError
from .hypothesis import SHS, Space, check_fault_name, set_hyp
from .properties import DESC, NEG_DESC, member
from .satbackend import AssumptionSolver, Cnf, guard_property, set_literals
from .satcore import MiniSolver

GATE_KINDS = ("and", "or", "not", "xor", "buf")
# a witness value by kernel value 1, 0, -1: true, false, unassigned
_TRUTH = (False, True, None)


@dataclass(frozen=True)
class Gate:
    name: str
    kind: str
    output: str
    inputs: tuple


@dataclass(frozen=True)
class Circuit:
    gates: tuple
    inputs: tuple
    outputs: tuple
    # inputs first, then each gate's inputs and output, in order
    signals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = dict.fromkeys(self.inputs)
        for g in self.gates:
            seen.update(dict.fromkeys(g.inputs + (g.output,)))
        object.__setattr__(self, "signals", tuple(seen))

    def validate(self):
        drivers = {}
        names = set()
        for g in self.gates:
            if g.name in names:
                raise ModelFormatError(f"duplicate gate name {g.name}")
            names.add(g.name)
            if g.kind not in GATE_KINDS:
                raise ModelFormatError(f"unknown gate kind {g.kind}")
            if g.kind in ("not", "buf") and len(g.inputs) != 1:
                raise ModelFormatError(f"gate {g.name}: {g.kind} takes one input")
            if g.kind in ("and", "or", "xor") and len(g.inputs) < 2:
                raise ModelFormatError(
                    f"gate {g.name}: {g.kind} needs at least two inputs")
            if g.output in drivers or g.output in self.inputs:
                raise ModelFormatError(f"signal {g.output} has two drivers")
            drivers[g.output] = g
        for g in self.gates:
            for s in g.inputs:
                if s not in drivers and s not in self.inputs:
                    raise ModelFormatError(
                        f"gate {g.name}: signal {s} has no driver")
        for s in self.outputs:
            if s not in drivers and s not in self.inputs:
                raise ModelFormatError(f"output {s} has no driver")
        try:
            TopologicalSorter({g.output: g.inputs
                               for g in self.gates}).prepare()
        except CycleError as exc:
            cycle = set(exc.args[1])
            gates = sorted(g.name for g in self.gates if g.output in cycle)
            raise ModelFormatError(
                f"circuit is cyclic around gates {gates}") from None
        return self

    def space(self) -> Space:
        return Space(SHS, tuple(g.name for g in self.gates))


@dataclass(frozen=True)
class PinObservation:
    assignments: tuple  # (signal, bool) pairs


def parse_circuit(text: str):
    gates, inputs, outputs, obs = [], [], [], []
    obs_lines = []  # the line of each pin of obs
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key, rest = words[0], words[1:]
        if key == "input":
            inputs.extend(rest)
        elif key == "output":
            outputs.extend(rest)
        elif key == "gate":
            if len(rest) < 4:
                raise ModelFormatError(
                    "gate takes <name> <kind> <out> <in...>", line=ln)
            check_fault_name(rest[0], ln)
            gates.append(Gate(rest[0], rest[1], rest[2], tuple(rest[3:])))
        elif key == "obs":
            if len(rest) != 2 or rest[1] not in ("0", "1"):
                raise ModelFormatError("obs takes <signal> <0|1>", line=ln)
            if (rest[0], rest[1] != "1") in obs:
                raise ModelFormatError(
                    f"signal {rest[0]} observed as both 0 and 1", line=ln)
            obs.append((rest[0], rest[1] == "1"))
            obs_lines.append(ln)
        else:
            raise ModelFormatError(f"unknown directive {key!r}", line=ln)
    circuit = Circuit(tuple(gates), tuple(dict.fromkeys(inputs)),
                      tuple(dict.fromkeys(outputs))).validate()
    signals = set(circuit.signals)
    for (s, _), ln in zip(obs, obs_lines):
        if s not in signals:
            raise ModelFormatError(f"observed signal {s} not in circuit",
                                   line=ln)
    return circuit, PinObservation(tuple(obs))


def encode_circuit(circuit: Circuit, cnf: Cnf) -> None:
    """Health-conditioned gate semantics: -ab[g] -> (out = fn(inputs))."""
    for s in circuit.signals:
        cnf.var(("sig", s))
    for g in circuit.gates:
        ab = cnf.var(("ab", g.name))
        out = cnf.var(("sig", g.output))
        ins = [cnf.var(("sig", s)) for s in g.inputs]
        if g.kind == "and":
            for i in ins:
                cnf.add([ab, -out, i])
            cnf.add([ab, out] + [-i for i in ins])
        elif g.kind == "or":
            for i in ins:
                cnf.add([ab, out, -i])
            cnf.add([ab, -out] + ins)
        elif g.kind == "not":
            cnf.add([ab, -out, -ins[0]])
            cnf.add([ab, out, ins[0]])
        elif g.kind == "buf":
            cnf.add([ab, -out, ins[0]])
            cnf.add([ab, out, -ins[0]])
        else:  # xor, folded pairwise
            cur = ins[0]
            for nxt in ins[1:-1]:
                aux = cnf.new()
                _xor_clauses(cnf, ab, aux, cur, nxt)
                cur = aux
            _xor_clauses(cnf, ab, out, cur, ins[-1])


def encode_pins(obs: PinObservation, cnf: Cnf) -> None:
    """Unit clauses fixing each observed signal, after
    :func:`encode_circuit`; a pin that names no signal or is observed as
    both 0 and 1 raises :class:`ModelFormatError`."""
    values = {}
    for signal, value in obs.assignments:
        if not cnf.has(("sig", signal)):
            raise ModelFormatError(f"observed signal {signal} not in circuit")
        if values.setdefault(signal, value) != value:
            raise ModelFormatError(f"signal {signal} observed as both 0 and 1")
        lit = cnf.var(("sig", signal))
        cnf.unit(lit if value else -lit)


def _xor_clauses(cnf: Cnf, ab: int, out: int, a: int, b: int) -> None:
    cnf.add([ab, -out, a, b])
    cnf.add([ab, -out, -a, -b])
    cnf.add([ab, out, a, -b])
    cnf.add([ab, out, -a, b])


class CircuitSolver(AssumptionSolver):
    """Test-solver contract over a circuit and pin observation, on the live
    kernel of :class:`AssumptionSolver`.

    The kernel decides ``-ab[g]`` first for every gate, in gate order, so
    the gates abnormal in a model form a subset-minimal candidate among
    those the request admits: every circuit answer is a minimal candidate of
    the requested set.  A coverage question admits a downward-closed set of
    candidates, so its answer is a minimal diagnosis element.
    ``minimal_answers`` declares this to the strategies.
    """

    name = "circuit-sat"
    minimal_answers = True

    def __init__(self, circuit: Circuit, obs: PinObservation):
        super().__init__(Cnf(), circuit.space())
        self.circuit = circuit
        self.obs = obs
        encode_circuit(circuit, self.cnf)
        # variable indices, in gate (= fault alphabet) and signal order
        self._ab = {g.name: self.cnf.var(("ab", g.name))
                    for g in circuit.gates}
        self._sig = {s: self.cnf.var(("sig", s)) for s in circuit.signals}
        self.preferred = tuple(-ab for ab in self._ab.values())
        encode_pins(obs, self.cnf)

    def _encode_property(self, prop, act: int) -> None:
        lits = set_literals(prop, self.space.faults, self._ab.__getitem__)
        guard_property(self.cnf, prop, act, lits)

    def cube(self, props):
        """A candidacy request, ``desc(h)`` followed by ``neg_desc`` of
        children of ``h``, as ``ab`` literals; None for any other request.

        ``desc(h)`` is the conjunction of ``ab[g]`` over the gates of ``h``,
        and under it ``neg_desc(h + {g})`` reduces to ``-ab[g]``: the kernel
        assumes those literals, as Reiter's consistency check of the single
        hypothesis ``h`` (AIJ 1987) assumes every component's health.  A
        child's literal brings ``desc(h)`` along when ``h`` is not empty,
        since its reduction relies on it, so a conflict is still an in-order
        sub-tuple of the request whose conjunction no model meets.
        """
        if not props or props[0].kind != DESC:
            return None
        h = props[0].anchor.data
        ab = self._ab
        lits = [ab[g] for g in sorted(h)]
        owners = dict.fromkeys(lits, (0,))
        base = (0,) if lits else ()
        for i in range(1, len(props)):
            kind, c = props[i]
            extra = c.data - h
            if kind != NEG_DESC or len(extra) != 1 \
                    or len(c.data) != len(h) + 1:
                return None
            (g,) = extra
            lits.append(-ab[g])
            owners[-ab[g]] = base + (i,)
        return lits, owners

    def _candidate(self, kernel, request: TestRequest) -> TestOutcome:
        values = kernel.values
        hyp = set_hyp(name for name, var in self._ab.items()
                      if values[2 * var] == 1)
        witness = {s: _TRUTH[values[2 * var]] for s, var in self._sig.items()}
        if not member(hyp, request.props, self.space):
            raise DiagError("circuit witness fails property re-validation")
        return TestOutcome.found(hyp, witness)


def brute_force_diagnosis(circuit: Circuit, obs: PinObservation) -> list:
    """Reference minimal diagnosis: filter all health assignments by
    satisfiability of gate semantics plus observation, then minimise."""
    from itertools import product as iproduct

    from .hypothesis import min_antichain

    space = circuit.space()
    names = space.faults
    out = []
    for bits in iproduct([False, True], repeat=len(names)):
        cnf = Cnf()
        encode_circuit(circuit, cnf)
        encode_pins(obs, cnf)
        for name, bit in zip(names, bits):
            lit = cnf.var(("ab", name))
            cnf.unit(lit if bit else -lit)
        kernel = MiniSolver()
        kernel.ensure_vars(cnf.nvars)
        ok = kernel.add_clauses(cnf.clauses)
        if ok and kernel.solve():
            out.append(set_hyp(n for n, b in zip(names, bits) if b))
    return min_antichain(out, space)
