"""Every model block of the SAT backend is pinned byte for byte: for each
case below, BLOCKS_FIXTURE records one SHA-256 over what
:class:`SatSolver`'s constructor builds: the variable count, the clauses in
order, the decode table and the sorted key index of its CNF.

The cases are those of ``test_model_block_runs.py``: the models of
``faulty_instances(24, 40)``, which have components with a choice and
components of three or more states, and the alarm model of
``test_live_kernel.py``, each on SHS, MHS and SqHS at ``steps_per_obs`` 1
to 3.  That test pins the runs a block admits; this one pins the block
itself, whose clause and variable order the kernel's search reads."""

import hashlib
import json
from pathlib import Path

from diagfp.hypothesis import MHS, SHS, SQHS
from diagfp.satbackend import EncodingParams, SatSolver

from test_model_block_runs import models

BLOCKS_FIXTURE = Path(__file__).parent / "fixtures" / "model_blocks.json"


def block_digest(solver) -> str:
    cnf = solver.cnf
    return hashlib.sha256(json.dumps(
        [cnf.nvars, cnf.clauses, solver.event_vars,
         sorted(cnf.index.items())]).encode()).hexdigest()


def record_blocks_fixture():
    """The content of BLOCKS_FIXTURE, as the model block encodes each case."""
    return {f"{name}/{kind}/{steps}": block_digest(SatSolver(
                model, obs, model.space(kind), EncodingParams(steps)))
            for name, model, obs in models()
            for kind in (SHS, MHS, SQHS) for steps in (1, 2, 3)}


def test_model_blocks_are_the_recorded_ones():
    expected = json.loads(BLOCKS_FIXTURE.read_text())
    got = record_blocks_fixture()
    assert got.keys() == expected.keys()
    assert [case for case in got if got[case] != expected[case]] == []


def test_cases_hold_choices_and_larger_components():
    # what the des-sat pool never has: a component with several moves for
    # one event from one state, and a component of three or more states
    comps = [comp for _, model, _ in models() for comp in model.components]
    assert any(len(comp.states) >= 3 for comp in comps)
    assert any(len(moves) > len(set(moves)) for comp in comps
               for moves in [[(src, e) for src, e, _ in comp.trans]])


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_model_blocks.py rewrites
    # BLOCKS_FIXTURE.  Do so only in a change that means to alter a model
    # block, and say so.
    BLOCKS_FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: {json.dumps(digest)}"
        for case, digest in record_blocks_fixture().items()) + "\n}\n")
