"""Factored discrete-event-system models: a network of partially synchronised
automata, plus observations and trace semantics.

Model text format (``#`` starts a comment):

    component <name>
    states <s1> <s2> ...
    init <s1> ...
    trans <from> <event> <to>      # repeatable
    end
    ...more components...
    observable <e1> <e2> ...
    faults <e1> ...

An observation file holds one observable event name per line.  An event
induces a global transition when every component that has the event in its
alphabet takes a matching local transition; all other components stay put.
Traces use interleaving semantics, one event per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iproduct

from .errors import DiagError, ModelFormatError, SpaceMismatchError
from .hypothesis import BHS, Hypothesis, Space, check_fault_name, extend


@dataclass(frozen=True)
class Component:
    name: str
    states: tuple
    init: tuple
    trans: tuple  # (from_state, event, to_state)
    alphabet: frozenset = field(init=False, repr=False, compare=False)
    # (state, event) -> the targets of its transitions, in ``trans`` order
    table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the SAT encoding keeps one literal per state name and timestep,
        # so a repeated state would be counted twice
        for i, s in enumerate(self.states):
            if s in self.states[:i]:
                raise ModelFormatError(
                    f"component {self.name}: duplicate state {s!r}")
        if not self.init:
            raise ModelFormatError(f"component {self.name} has no init state")
        if not set(self.init) <= set(self.states):
            raise ModelFormatError(f"component {self.name}: init not in states")
        for s, _, t in self.trans:
            if s not in self.states or t not in self.states:
                raise ModelFormatError(
                    f"component {self.name}: transition endpoint undeclared")
        table = {}
        for s, e, t in self.trans:
            table[s, e] = table.get((s, e), ()) + (t,)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "alphabet", frozenset(e for _, e in table))

    def moves(self, state, event) -> tuple:
        """The targets of the ``event`` transitions from ``state``."""
        return self.table.get((state, event), ())


@dataclass(frozen=True)
class DesModel:
    components: tuple
    observable: tuple
    faults: tuple
    # global alphabet in first-seen component order (the registry order used
    # for deterministic iteration and SAT decode linearisation)
    events: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(dict.fromkeys(
            e for comp in self.components for _, e, _ in comp.trans)))
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ModelFormatError("duplicate component names")
        overlap = set(self.observable) & set(self.faults)
        if overlap:
            raise ModelFormatError(
                f"fault events must be unobservable: {sorted(overlap)}")
        alphabet = set(self.events)
        for e in list(self.observable) + list(self.faults):
            if e not in alphabet:
                raise ModelFormatError(f"event {e} appears in no component")

    def space(self, kind: str) -> Space:
        return Space(kind, tuple(self.faults))

    def check_space(self, space: Space) -> None:
        """Reject a space that is not a fault-word kind (SHS, MHS, SqHS) or
        whose alphabet is not the model's faults."""
        if space.kind == BHS:
            raise DiagError(f"a DES model does not handle space {space.kind}")
        if space.fault_set != frozenset(self.faults):
            raise SpaceMismatchError(
                f"alphabet of {space} is not the model's faults")

    def check_observation(self, obs: Observation) -> None:
        """Reject an observation with an event that is not one of the
        model's observable events; the error names the first such event."""
        for e in obs.sequence:
            if e not in self.observable:
                raise ModelFormatError(
                    f"observed event {e!r} is not an observable event "
                    f"of the model")

    def initial_global_states(self):
        return [tuple(combo) for combo in
                iproduct(*(c.init for c in self.components))]

    def step(self, gstate: tuple, event: str):
        """All global states reachable from ``gstate`` by ``event``: every
        component with the event in its alphabet takes one of its moves, in
        ``trans`` order, and the others stay put."""
        choices = []
        for comp, local in zip(self.components, gstate):
            if event in comp.alphabet:
                targets = comp.table.get((local, event))
                if targets is None:
                    return []
                choices.append(targets)
            else:
                choices.append((local,))
        return list(iproduct(*choices))


@dataclass(frozen=True)
class Observation:
    sequence: tuple

    def __post_init__(self):
        # a list would never equal the tuple a trace projects to
        object.__setattr__(self, "sequence", tuple(self.sequence))

    def __len__(self):
        return len(self.sequence)


# ---------------------------------------------------------------- semantics

def trace_in_model(trace, model: DesModel) -> bool:
    """True iff the event word is accepted from some initial global state."""
    alphabet = set(model.events)
    for e in trace:
        if e not in alphabet:
            raise DiagError(f"unknown event in trace: {e!r}")
    frontier = set(model.initial_global_states())
    for e in trace:
        frontier = {nxt for g in frontier for nxt in model.step(g, e)}
        if not frontier:
            return False
    return True


def trace_hypothesis(trace, model: DesModel, space: Space) -> Hypothesis:
    """The hypothesis of the trace's fault word in ``space``."""
    return reduce(extend, (e for e in trace if e in model.faults), space.h0)


def trace_matches_observation(trace, model: DesModel, obs: Observation) -> bool:
    projected = tuple(e for e in trace if e in model.observable)
    return projected == obs.sequence


# ---------------------------------------------------------------- parsing

def parse_model(text: str) -> DesModel:
    components = []
    observable, faults = [], []
    cur = None  # [name, states, init, trans]

    def fail(msg, ln) -> None:
        raise ModelFormatError(msg, line=ln)

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key, rest = words[0], words[1:]
        if key == "component":
            if cur is not None:
                fail("component block not closed before new one", ln)
            if len(rest) != 1:
                fail("component takes exactly one name", ln)
            cur = [rest[0], [], [], []]
        elif key in ("states", "init"):
            if cur is None:
                fail(f"{key} outside component block", ln)
            if not rest:
                fail(f"{key} needs at least one state", ln)
            names = cur[1 if key == "states" else 2]
            for s in rest:
                if key == "states" and s in names:
                    fail(f"duplicate state {s!r}", ln)
                names.append(s)
        elif key == "trans":
            if cur is None:
                fail("trans outside component block", ln)
            if len(rest) != 3:
                fail("trans takes <from> <event> <to>", ln)
            src, event, dst = rest
            check_fault_name(event, ln)
            if src not in cur[1]:
                fail(f"undeclared state {src!r}", ln)
            if dst not in cur[1]:
                fail(f"undeclared state {dst!r}", ln)
            cur[3].append((src, event, dst))
        elif key == "end":
            if cur is None:
                fail("end outside component block", ln)
            components.append(Component(cur[0], tuple(cur[1]),
                                        tuple(cur[2]), tuple(cur[3])))
            cur = None
        elif key == "observable":
            observable.extend(rest)
        elif key == "faults":
            faults.extend(rest)
        else:
            fail(f"unknown directive {key!r}", ln)
    if cur is not None:
        raise ModelFormatError(f"component {cur[0]} not closed with 'end'")
    if not components:
        raise ModelFormatError("model declares no components")
    return DesModel(tuple(components), tuple(dict.fromkeys(observable)),
                    tuple(dict.fromkeys(faults)))


def parse_observation(text: str, model: DesModel) -> Observation:
    events = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line.split()) != 1:
            raise ModelFormatError("one event per line", line=ln)
        if line not in model.observable:
            raise ModelFormatError(f"event {line!r} is not observable", line=ln)
        events.append(line)
    return Observation(tuple(events))
