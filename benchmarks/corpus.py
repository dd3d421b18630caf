"""Workloads, their instance pools, and the seeded corpus draw.

Each workload owns a fixed pool of instances: a list of size classes, each
with an instance count.  An instance is named by its class and its index in
the class, and its text comes from :mod:`families` with that index as the
generator seed, so every pool instance is the same on every machine.  The
expected diagnosis of every pool instance is committed under ``expected/``
(written by ``make_expected.py``), together with the tests and the seconds
the workload's strategy spent on it.

A run's ``--seed`` draws the corpus from the pool.  The pool is sorted by
the recorded cost: each instance's median time over several passes, in
reference seconds, measured when the expected answers were made.  The
costliest fifth of a corpus is the pool's costliest instances, the same for
every seed, so the heavy tail is always in and the 90th percentile instance
is the same; the seed draws the rest evenly from the ``STRATA`` strata of
the remaining pool, two from each.  Every corpus therefore spans the pool's
whole cost range in the same proportions, which keeps its cost, and its
median instance, steady from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from families import alarm_chain_text, circuit_text

CORPUS_SIZE = 100
TAIL = 20
STRATA = 40
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Circuit classes (family, width, flipped outputs) and their pool counts.
# Sizing (pure-Python kernel): 1- and 2-bit adders and 2x2 multipliers
# take milliseconds; 3-bit adders take 10 ms to 1.7 s and carry the tail,
# which is kept to about half of a corpus's time.  A 4-bit adder with two
# flips took up to 38 s under pls, so it stays out.
CIRCUIT_POOL = (
    (("adder", 1, 1), 16), (("adder", 1, 2), 16),
    (("adder", 2, 1), 28), (("adder", 2, 2), 36),
    (("multiplier", 2, 1), 20), (("multiplier", 2, 2), 20),
    (("multiplier", 2, 3), 20),
    (("adder", 3, 1), 30), (("adder", 3, 2), 8),
)

# Alarm-chain classes (space, components, observed alarms) for the SAT
# backend.  Two-component multiset instances take 10-200 ms; three
# components or three alarms take up to 1 s; sequence-space instances stay
# at two components, because their subsequence encodings grow fastest.
DES_SAT_POOL = (
    (("mhs", 2, 1), 24), (("mhs", 2, 2), 28), (("mhs", 3, 1), 44),
    (("mhs", 3, 2), 4), (("mhs", 2, 3), 2),
    (("sqhs", 2, 1), 24), (("sqhs", 3, 1), 16),
)

# Alarm-chain classes for the explicit-state backend.  Its multiset search
# grows fastest: three components ran 13-330 s, so multisets stay at two.
DES_EXPLICIT_POOL = (
    (("shs", 2, 1), 24), (("shs", 2, 2), 36), (("shs", 2, 3), 36),
    (("shs", 3, 1), 16), (("shs", 3, 2), 4),
    (("mhs", 2, 1), 36), (("mhs", 2, 2), 8),
)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str     # "circuit", "sat" or "explicit"
    strategy: str
    budget: int      # iteration_cap handed to run_strategy
    pool: tuple

    @property
    def family(self) -> str:
        return "circuit" if self.backend == "circuit" else "alarm_chain"


WORKLOADS = {w.name: w for w in (
    Workload("circuit-pfs", "circuit", "pfs-ec", 200, CIRCUIT_POOL),
    Workload("des-sat", "sat", "pfs-ec", 200, DES_SAT_POOL),
    Workload("des-explicit", "explicit", "pfs-ec", 200, DES_EXPLICIT_POOL),
)}


def pool(workload: Workload) -> list:
    """Every pool instance as ``{"id", "params", "index"}``, in pool order."""
    out = []
    for params, count in workload.pool:
        for index in range(count):
            name = "-".join(str(p) for p in params)
            out.append({"id": f"{name}-{index}", "params": params,
                        "index": index})
    return out


def instance_texts(workload: Workload, inst: dict) -> dict:
    """The generated text the program receives for one pool instance."""
    if workload.family == "circuit":
        return {"circuit": circuit_text(*inst["params"], inst["index"])}
    _, k, n_obs = inst["params"]
    model, obs = alarm_chain_text(k, n_obs, inst["index"])
    return {"model": model, "obs": obs}


def expected_path(workload: Workload) -> Path:
    return EXPECTED_DIR / f"{workload.name}.json"


def load_expected(workload: Workload) -> dict:
    """Committed record per instance id: diagnosis, solved, tests, seconds
    and, for the SAT backend, steps_per_obs."""
    with open(expected_path(workload)) as fh:
        data = json.load(fh)
    if data["budget"] != workload.budget or data["strategy"] != workload.strategy:
        raise ValueError(f"{expected_path(workload)} was made for another "
                         "budget or strategy; run make_expected.py")
    return data["instances"]


def draw(workload: Workload, seed: int, expected: dict) -> list:
    """The seed's corpus: the ``TAIL`` costliest pool instances, plus an
    equal share of the rest of the corpus from each of ``STRATA`` strata."""
    insts = pool(workload)
    missing = [i["id"] for i in insts if i["id"] not in expected]
    if missing:
        raise ValueError(f"no expected answer for {missing[:3]}...; "
                         "run make_expected.py")
    insts.sort(key=lambda i: (expected[i["id"]]["seconds"], i["id"]))
    corpus = insts[-TAIL:]
    rest = insts[:-TAIL]
    rng = random.Random(f"{workload.name}/{seed}")
    bounds = [len(rest) * s // STRATA for s in range(STRATA + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        corpus.extend(rng.sample(rest[lo:hi], (CORPUS_SIZE - TAIL) // STRATA))
    return corpus
