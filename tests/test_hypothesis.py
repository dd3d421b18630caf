import random
from itertools import product

import pytest

from diagfp.contract import TestRequest
from diagfp.errors import DiagError, ModelFormatError, SpaceMismatchError
from diagfp.hypothesis import (BHS, MHS, SHS, SQHS, Space, any_leq, bin_hyp,
                               children, extend, leq, min_antichain,
                               multi_hyp, order_key, otimes, seq_hyp, set_hyp,
                               word_hyp)
from diagfp.properties import DESC, NEG_DESC, Property, member

SP_SHS = Space(SHS, ("f1", "f2", "f3"))
SP_MHS = Space(MHS, ("a", "b"))
SP_SQHS = Space(SQHS, ("f1", "f2"))


def rand_hyp(space, rng, max_size=4):
    n = rng.randrange(max_size + 1)
    if space.kind == SHS:
        return set_hyp(rng.sample(space.faults, min(n, len(space.faults))))
    if space.kind == MHS:
        return multi_hyp({f: rng.randrange(3) for f in space.faults})
    if space.kind == SQHS:
        return seq_hyp(rng.choice(space.faults) for _ in range(n))
    return bin_hyp(rng.random() < 0.5)


# ---------------------------------------------------------------- leq

def test_leq_subsequence_paper_example():
    sp = Space(SQHS, ("a", "b", "c", "d"))
    assert leq(seq_hyp("ab"), seq_hyp("cadb"), sp)
    assert not leq(seq_hyp("cadb"), seq_hyp("ab"), sp)


def test_leq_reflexive_on_samples():
    rng = random.Random(1)
    for sp in (SP_SHS, SP_MHS, SP_SQHS, Space(BHS, ())):
        for _ in range(20):
            h = rand_hyp(sp, rng)
            assert leq(h, h, sp)


def test_leq_mhs_pointwise():
    assert not leq(multi_hyp({"a": 2}), multi_hyp({"a": 1, "b": 5}), SP_MHS)
    assert leq(multi_hyp({"a": 1}), multi_hyp({"a": 1, "b": 5}), SP_MHS)


def test_leq_rejects_mixed_spaces():
    shs, sqhs = set_hyp(["f1"]), seq_hyp(["f1"])
    for call in (lambda: leq(shs, sqhs, SP_SHS),
                 lambda: leq(sqhs, shs, SP_SHS),
                 lambda: children(sqhs, SP_SHS),
                 lambda: otimes(shs, sqhs, SP_SHS),
                 lambda: otimes(sqhs, shs, SP_SHS),
                 # the collection operations check h and each element read
                 lambda: member(sqhs, (), SP_SHS),
                 lambda: member(shs, (Property(DESC, shs),
                                      Property(DESC, sqhs)), SP_SHS),
                 lambda: min_antichain([shs, sqhs], SP_SHS),
                 lambda: min_antichain([sqhs], SP_SHS),
                 lambda: any_leq([], sqhs, SP_SHS),
                 lambda: any_leq([set_hyp(["f2"]), sqhs], shs, SP_SHS),
                 lambda: TestRequest((Property(NEG_DESC, shs),
                                      Property(NEG_DESC, sqhs)), SP_SHS)):
        with pytest.raises(SpaceMismatchError):
            call()


@pytest.mark.parametrize("space", [SP_SHS, SP_MHS, SP_SQHS])
def test_partial_order_laws(space):
    rng = random.Random(42)
    hyps = [rand_hyp(space, rng) for _ in range(40)]
    for _ in range(1000):
        a, b, c = (rng.choice(hyps) for _ in range(3))
        assert leq(a, a, space)
        if leq(a, b, space) and leq(b, a, space):
            assert a == b
        if leq(a, b, space) and leq(b, c, space):
            assert leq(a, c, space)


# ---------------------------------------------------------------- children

def test_children_shs():
    got = children(set_hyp(["f1"]), SP_SHS)
    assert set(got) == {set_hyp(["f1", "f2"]), set_hyp(["f1", "f3"])}


def test_children_sqhs_table_rows():
    assert set(children(seq_hyp([]), SP_SQHS)) == {seq_hyp(["f1"]), seq_hyp(["f2"])}
    assert set(children(seq_hyp(["f2"]), SP_SQHS)) == {
        seq_hyp(["f1", "f2"]), seq_hyp(["f2", "f1"]), seq_hyp(["f2", "f2"])}


def test_children_mhs_single_fault():
    sp = Space(MHS, ("f",))
    assert children(multi_hyp({"f": 1}), sp) == [multi_hyp({"f": 2})]


def test_children_bhs():
    sp = Space(BHS, ())
    assert children(bin_hyp(False), sp) == [bin_hyp(True)]
    assert children(bin_hyp(True), sp) == []


@pytest.mark.parametrize("space", [SP_SHS, SP_MHS, SP_SQHS])
def test_children_antichain_and_strict(space):
    rng = random.Random(7)
    for _ in range(50):
        h = rand_hyp(space, rng)
        kids = children(h, space)
        for k in kids:
            assert leq(h, k, space) and h != k
        for i, k1 in enumerate(kids):
            for k2 in kids[i + 1:]:
                assert not leq(k1, k2, space)
                assert not leq(k2, k1, space)


def _random_strict_descendant(h, space, rng, steps):
    cur = h
    for _ in range(steps):
        kids = children(cur, space)
        if not kids:
            break
        cur = rng.choice(kids)
    return cur


@pytest.mark.parametrize("space", [SP_SHS, SP_MHS, SP_SQHS])
def test_any_strict_descendant_dominates_some_child(space):
    rng = random.Random(11)
    done = 0
    while done < 200:
        h = rand_hyp(space, rng, max_size=2)
        kids = children(h, space)
        if not kids:
            continue
        d = _random_strict_descendant(h, space, rng, rng.randrange(1, 4))
        assert any(leq(c, d, space) for c in kids)
        done += 1


# ---------------------------------------------------------------- otimes

def test_otimes_sqhs_paper_example():
    sp = Space(SQHS, ("a", "b", "c"))
    got = otimes(seq_hyp("ab"), seq_hyp("bc"), sp)
    assert set(got) == {seq_hyp("abc"), seq_hyp("bacb"), seq_hyp("bcab")}


def test_otimes_mhs_max():
    got = otimes(multi_hyp({"a": 2}), multi_hyp({"a": 1, "b": 1}), SP_MHS)
    assert got == [multi_hyp({"a": 2, "b": 1})]


@pytest.mark.parametrize("space", [SP_SHS, SP_MHS, SP_SQHS])
def test_otimes_idempotent_and_dominating(space):
    rng = random.Random(3)
    for _ in range(60):
        a, b = rand_hyp(space, rng), rand_hyp(space, rng)
        res = otimes(a, b, space)
        assert otimes(a, a, space) == [a]
        for r in res:
            assert leq(a, r, space) and leq(b, r, space)
        for i, r1 in enumerate(res):
            for r2 in res[i + 1:]:
                assert not leq(r1, r2, space) and not leq(r2, r1, space)


def test_otimes_sqhs_equals_bruteforce():
    sp = Space(SQHS, ("a", "b", "c"))
    rng = random.Random(5)
    for _ in range(80):
        na = rng.randrange(3)
        nb = rng.randrange(min(4, 6 - na))
        a = seq_hyp(rng.choice(sp.faults) for _ in range(na))
        b = seq_hyp(rng.choice(sp.faults) for _ in range(nb))
        bound = a.size() + b.size()
        common = [h for h in sp.enumerate(bound)
                  if leq(a, h, sp) and leq(b, h, sp)]
        assert otimes(a, b, sp) == min_antichain(common, sp)


# ---------------------------------------------------------------- antichain

def test_min_antichain_examples():
    sp = Space(SHS, ("a", "b"))
    got = min_antichain([set_hyp("a"), set_hyp("ab"), set_hyp("b")], sp)
    assert set(got) == {set_hyp("a"), set_hyp("b")}
    assert min_antichain([], SP_SHS) == []
    got = min_antichain([seq_hyp("a"), seq_hyp("ab"), seq_hyp("ba")],
                        Space(SQHS, ("a", "b")))
    assert got == [seq_hyp("a")]


@pytest.mark.parametrize("space", [SP_SHS, SP_MHS, SP_SQHS, Space(BHS, ())])
def test_min_antichain_is_minimal_antichain_of_input(space):
    rng = random.Random(13)
    for _ in range(100):
        hyps = [rand_hyp(space, rng) for _ in range(rng.randrange(12))]
        got = min_antichain(hyps, space)
        assert set(got) <= set(hyps)
        for i, a in enumerate(got):
            for b in got[i + 1:]:
                assert not leq(a, b, space) and not leq(b, a, space)
        for h in hyps:
            assert any(leq(g, h, space) for g in got)


# ---------------------------------------------------------------- rendering

def test_canon_renders_each_kind():
    cases = [
        (set_hyp(["f2", "f1"]), "{f1,f2}"),
        (multi_hyp({"f2": 1, "f1": 2}), "{f1:2,f2:1}"),
        (seq_hyp(["f1", "f2", "f1"]), "[f1,f2,f1]"),
        (set_hyp([]), "{}"),
        (multi_hyp({}), "{}"),
        (seq_hyp([]), "[]"),
        (bin_hyp(False), "nominal"),
        (bin_hyp(True), "faulty"),
    ]
    for h, text in cases:
        assert h.canon() == text


def test_mhs_drops_zero_counts():
    assert multi_hyp({"a": 1, "b": 0}) == multi_hyp({"a": 1})


def test_mhs_rejects_negative_counts():
    with pytest.raises(DiagError):
        multi_hyp({"f": -2, "g": 1})
    with pytest.raises(DiagError):
        multi_hyp({"f": -1})


@pytest.mark.parametrize("faults", [("a,b", "c", "a", "b,c"), ("a", ""),
                                    (" a", "b"), ("a\tb",)])
def test_space_rejects_fault_names_canon_cannot_tell_apart(faults):
    # {a,b | c} and {a | b,c} both render {a,b,c}; {""} renders {} like h0;
    # every text format splits on whitespace
    with pytest.raises(ModelFormatError):
        Space(SHS, faults)


def test_order_key_sorts_by_size_then_text():
    hyps = [seq_hyp("ba"), seq_hyp("b"), seq_hyp("ab"), seq_hyp("")]
    assert sorted(hyps, key=order_key) == \
        [seq_hyp(""), seq_hyp("b"), seq_hyp("ab"), seq_hyp("ba")]


@pytest.mark.parametrize("kind", [SHS, MHS, SQHS, BHS])
def test_word_hyp_extends_h0_fault_by_fault(kind):
    space = Space(kind, ("a", "b", "c"))
    rng = random.Random(4)
    for _ in range(200):
        word = [rng.choice(space.faults) for _ in range(rng.randrange(6))]
        expected = space.h0
        for f in word:
            expected = extend(expected, f)
        assert word_hyp(word, space) == expected, word


# ------------------------------------------------------- mhs as sorted words

def test_mhs_word_layout_matches_counts():
    # an MHS hypothesis is its sorted fault word; check every operation
    # against the multiset as a dict of counts
    sp = Space(MHS, ("a", "b", "c"))
    ref = {}
    for cs in product(range(3), repeat=3):
        c = dict(zip(sp.faults, cs))
        ref[multi_hyp(c)] = c
    hyps = sp.enumerate(2)
    assert set(hyps) == set(ref) and len(hyps) == 27
    for h in hyps:
        c = ref[h]
        assert h.size() == sum(c.values())
        assert all(h.count(f) == c[f] for f in sp.faults)
        assert h.canon() == "{" + ",".join(
            f"{f}:{n}" for f, n in sorted(c.items()) if n) + "}"
    for a, b in product(hyps, repeat=2):
        ca, cb = ref[a], ref[b]
        assert leq(a, b, sp) == all(ca[f] <= cb[f] for f in sp.faults)
        assert otimes(a, b, sp) == [
            multi_hyp({f: max(ca[f], cb[f]) for f in sp.faults})]
