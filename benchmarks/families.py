"""Seeded generators for the benchmark's instance families.

Every generator returns the text that the program parses (a netlist for
``parse_circuit``, a model and an observation for ``parse_model`` and
``parse_observation``), never a parsed object, so the program under test
receives only generated input.  The same arguments give byte-identical text.

Families:

* ``adder(n)``: an n-bit ripple-carry adder, five gates per bit (two XOR,
  two AND, one OR), as in the ISCAS-85 arithmetic circuits described by
  Hansen, Yalcin & Hayes, "Unveiling the ISCAS-85 benchmarks" (IEEE D&T 1999).
* ``multiplier(n)``: an n x n array multiplier, the structure of ISCAS-85
  c6288 at a smaller width: n*n AND partial products summed row by row with
  half and full adders.
* Circuit observations pin every primary input to a seeded random value and
  every primary output to its correct value, except ``flips`` seeded outputs
  whose values are inverted, so the nominal hypothesis is never a diagnosis.
* ``alarm_chain(k)``: a chain of k two-state components, in the style of
  the masked-fault DES benchmarks of Grastien, Haslum & Thiebaux (KR 2012).
  Each component has two alternative faults into a degraded state and an
  observable alarm back to nominal; seeded components also have an
  unobservable self-reset, which masks faults, and seeded neighbours are
  linked by an unobservable shared event that hands degradation downstream.
  Repeated alarms make fault counts (multiset space) and fault order
  (sequence space) matter.
"""

from __future__ import annotations

import random

_FUNCS = {
    "and": lambda xs: all(xs),
    "or": lambda xs: any(xs),
    "xor": lambda xs: sum(xs) % 2 == 1,
}


class _Netlist:
    def __init__(self):
        self.inputs = []
        self.outputs = []
        self.gates = []  # (name, kind, out, ins)

    def gate(self, kind, out, *ins):
        self.gates.append((f"g{len(self.gates)}", kind, out, tuple(ins)))
        return out

    def half_adder(self, tag, x, y):
        return (self.gate("xor", f"s{tag}", x, y),
                self.gate("and", f"c{tag}", x, y))

    def full_adder(self, tag, x, y, cin):
        p = self.gate("xor", f"p{tag}", x, y)
        s = self.gate("xor", f"s{tag}", p, cin)
        g = self.gate("and", f"g{tag}", x, y)
        t = self.gate("and", f"t{tag}", p, cin)
        return s, self.gate("or", f"c{tag}", g, t)

    def simulate(self, values: dict) -> dict:
        values = dict(values)
        for _, kind, out, ins in self.gates:  # gates are emitted in topological order
            values[out] = _FUNCS[kind]([values[s] for s in ins])
        return values


def _adder(n: int) -> _Netlist:
    net = _Netlist()
    net.inputs = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)] + ["cin"]
    carry = "cin"
    for i in range(n):
        s, carry = net.full_adder(f"_{i}", f"a{i}", f"b{i}", carry)
        net.outputs.append(s)
    net.outputs.append(carry)
    return net


def _multiplier(n: int) -> _Netlist:
    net = _Netlist()
    net.inputs = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    acc = {j: net.gate("and", f"m0_{j}", f"a{j}", "b0") for j in range(n)}
    for i in range(1, n):
        carry = None
        for j in range(n):
            w = i + j
            tag = f"_{i}_{j}"
            pp = net.gate("and", f"m{i}_{j}", f"a{j}", f"b{i}")
            ops = [s for s in (acc.get(w), carry) if s is not None]
            if len(ops) == 2:
                acc[w], carry = net.full_adder(tag, pp, *ops)
            elif ops:
                acc[w], carry = net.half_adder(tag, pp, ops[0])
            else:
                acc[w], carry = pp, None
        if carry is not None:
            acc[i + n] = carry
    net.outputs = [acc[w] for w in sorted(acc)]
    return net


def circuit_text(family: str, n: int, flips: int, seed: int) -> str:
    """Netlist of the family at width ``n`` with a seeded faulty observation."""
    net = {"adder": _adder, "multiplier": _multiplier}[family](n)
    rng = random.Random(f"circuit/{family}/{n}/{flips}/{seed}")
    pins = {s: rng.random() < 0.5 for s in net.inputs}
    values = net.simulate(pins)
    flipped = set(rng.sample(net.outputs, flips))
    lines = [f"# {family} n={n} flips={flips} seed={seed}",
             "input " + " ".join(net.inputs),
             "output " + " ".join(net.outputs)]
    lines += [f"gate {name} {kind} {out} {' '.join(ins)}"
              for name, kind, out, ins in net.gates]
    lines += [f"obs {s} {int(pins[s])}" for s in net.inputs]
    lines += [f"obs {s} {int(values[s] != (s in flipped))}" for s in net.outputs]
    return "\n".join(lines) + "\n"


def alarm_chain_text(k: int, n_obs: int, seed: int) -> tuple:
    """(model text, observation text) of a k-component alarm chain.

    The seed decides which components can self-reset (mask a fault) and which
    neighbours are linked (hand degradation on), and draws ``n_obs`` alarms.
    Every alarm sequence is consistent with the model: any component can be
    degraded by its own fault and returned to nominal by its alarm.
    """
    rng = random.Random(f"alarm_chain/{k}/{n_obs}/{seed}")
    resets = [rng.random() < 0.5 for _ in range(k)]
    links = [rng.random() < 0.7 for _ in range(k - 1)]
    lines = []
    for i in range(1, k + 1):
        lines += [f"component c{i}", "states ok deg", "init ok",
                  f"trans ok f{i}a deg", f"trans ok f{i}b deg",
                  f"trans deg alarm{i} ok"]
        if resets[i - 1]:
            lines.append(f"trans deg reset{i} ok")
        if i < k and links[i - 1]:
            lines.append(f"trans deg p{i} ok")
        if i > 1 and links[i - 2]:
            lines.append(f"trans ok p{i - 1} deg")
        lines.append("end")
    lines.append("observable " + " ".join(f"alarm{i}" for i in range(1, k + 1)))
    lines.append("faults " + " ".join(f"f{i}{x}" for i in range(1, k + 1)
                                      for x in "ab"))
    obs = [f"alarm{rng.randint(1, k)}" for _ in range(n_obs)]
    return "\n".join(lines) + "\n", "".join(e + "\n" for e in obs)
