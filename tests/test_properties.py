import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagfp.hypothesis import (BHS, KINDS, MHS, SHS, SQHS, Hypothesis, Space,
                               children, leq, multi_hyp, seq_hyp, set_hyp)
from diagfp.properties import (ANC, DESC, NEG_ANC, NEG_DESC, Property,
                               exhibits, member, question_candidate,
                               question_coverage, question_minimal)

SP4 = Space(SHS, ("f1", "f2", "f3", "f4"))
SP2 = Space(SHS, ("f1", "f2"))
SQ2 = Space(SQHS, ("f1", "f2"))
MH1 = Space(MHS, ("f",))


def hypos(props, space, bound):
    """Enumerated hypothesis set of a property conjunction (the test oracle)."""
    return {h for h in space.enumerate(bound) if member(h, props, space)}


# ---------------------------------------------------------------- exhibits

def test_exhibits_shs_paper_reading():
    h = set_hyp(["f1", "f2", "f3"])
    assert exhibits(h, Property(DESC, set_hyp(["f1", "f2"])), SP4)
    assert exhibits(set_hyp(["f3"]), Property(NEG_ANC, set_hyp(["f1", "f2"])), SP4)
    assert not exhibits(set_hyp(["f1"]), Property(NEG_ANC, set_hyp(["f1", "f2"])), SP4)


def test_everything_descends_from_h0():
    for sp in (SP4, SQ2, MH1):
        p = Property(DESC, sp.h0)
        for h in sp.enumerate(2):
            assert exhibits(h, p, sp)


def test_member_examples():
    assert member(SP4.h0, (), SP4)
    ps = (Property(DESC, seq_hyp(["f1"])),
          Property(NEG_DESC, seq_hyp(["f1", "f1"])))
    expected = {h for h in SQ2.enumerate(2)
                if leq(seq_hyp(["f1"]), h, SQ2)
                and not leq(seq_hyp(["f1", "f1"]), h, SQ2)}
    assert seq_hyp(["f1"]) in expected
    for h in SQ2.enumerate(2):
        assert member(h, ps, SQ2) == (h in expected)
    assert not member(set_hyp(["f1"]), [Property(ANC, set_hyp(["f2"]))], SP2)


def _fresh(s: str) -> str:
    """An equal string that is another object: a kind compared by
    identity, not by value, then fails."""
    copy = "".join(list(s))
    assert copy == s and copy is not s
    return copy


def _hyps(kind):
    word = st.lists(st.sampled_from(("a", "b", "c")), max_size=4)
    data = {SHS: word.map(frozenset), MHS: word.map(lambda w: tuple(sorted(w))),
            SQHS: word.map(tuple), BHS: st.booleans()}[kind]
    return data.map(lambda d: Hypothesis(_fresh(kind), d))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_member_equals_its_definition(data):
    kind = data.draw(st.sampled_from(KINDS))
    space = Space(kind, ("a", "b", "c"))
    h = data.draw(_hyps(kind))
    props = data.draw(st.lists(st.builds(
        lambda k, anchor: Property(_fresh(k), anchor),
        st.sampled_from((DESC, ANC, NEG_DESC, NEG_ANC)), _hyps(kind)),
        max_size=5))
    assert member(h, props, space) == all(exhibits(h, p, space)
                                          for p in props)


# ---------------------------------------------------------------- questions

@pytest.mark.parametrize("space", [
    Space(SHS, ("a", "b", "c")), Space(MHS, ("a", "b")),
    Space(SQHS, ("a", "b")),
], ids=lambda space: space.kind)
def test_question_builders_return_duplicate_free_tuples(space):
    hyps = list(space.enumerate(2))
    questions = [question_coverage(hyps, space),
                 question_coverage(hyps + hyps[::-1], space)]
    for h in hyps:
        questions += [question_candidate(h, space),
                      question_minimal(h, space),
                      question_coverage([h, h], space)]
    for props in questions:
        assert type(props) is tuple
        assert len(set(props)) == len(props), props


def test_question_candidate_structure():
    got = question_candidate(seq_hyp([]), SQ2)
    assert got == (Property(DESC, seq_hyp([])),
                   Property(NEG_DESC, seq_hyp(["f1"])),
                   Property(NEG_DESC, seq_hyp(["f2"])))
    top = Space(SHS, ("f",))
    assert question_candidate(set_hyp(["f"]), top) == \
        (Property(DESC, set_hyp(["f"])),)
    assert question_candidate(multi_hyp({"f": 1}), MH1) == \
        (Property(DESC, multi_hyp({"f": 1})),
         Property(NEG_DESC, multi_hyp({"f": 2})))


@pytest.mark.parametrize("space", [SP4, MH1, SQ2], ids=lambda s: s.kind)
def test_question_candidate_children_are_checked_properties(space):
    # the children's properties skip Property.__new__: each must equal, in
    # type, value and hash, the property the checking constructor builds
    for h in space.enumerate(2):
        got = question_candidate(h, space)
        want = (Property(DESC, h),
                *(Property(NEG_DESC, c) for c in children(h, space)))
        assert got == want
        assert [type(p) for p in got] == [Property] * len(want)
        assert [hash(p) for p in got] == [hash(p) for p in want]
        assert [repr(p) for p in got] == [repr(p) for p in want]


@pytest.mark.parametrize("space,bound", [
    (SP4, 1), (Space(MHS, ("a", "b")), 2), (Space(SQHS, ("a", "b")), 3),
])
def test_question_candidate_pins_exactly_h(space, bound):
    # children anchors can exceed the bound, so enumerate one step further
    for h in space.enumerate(bound - 1) if space.kind != SHS else space.enumerate(0):
        got = hypos(question_candidate(h, space), space, bound)
        assert got == {h}


def test_question_minimal_enumerations():
    assert hypos(question_minimal(SP2.h0, SP2), SP2, 0) == set()
    got = hypos(question_minimal(set_hyp(["f1", "f2"]), SP2), SP2, 0)
    assert got == {set_hyp([]), set_hyp(["f1"]), set_hyp(["f2"])}
    got = hypos(question_minimal(seq_hyp(["f1", "f2"]), SQ2), SQ2, 2)
    assert got == {seq_hyp([]), seq_hyp(["f1"]), seq_hyp(["f2"])}


def test_question_coverage_enumerations():
    assert len(question_coverage([], SP2)) == 0
    got = hypos(question_coverage([set_hyp(["f1"])], SP2), SP2, 0)
    assert got == {set_hyp([]), set_hyp(["f2"])}
    got = hypos(question_coverage([seq_hyp(["f1"]), seq_hyp(["f2"])], SQ2),
                SQ2, 2)
    assert got == {seq_hyp([])}

