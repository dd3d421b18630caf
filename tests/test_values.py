"""Hypotheses, properties, test requests and outcomes are immutable values:
named tuples whose equality and hash are the tuple's."""

import pytest

from diagfp.contract import TestOutcome, TestRequest
from diagfp.errors import DiagError, SpaceMismatchError
from diagfp.hypothesis import (SHS, Space, bin_hyp, multi_hyp, seq_hyp,
                               set_hyp)
from diagfp.properties import DESC, NEG_DESC, Property

SPACE = Space(SHS, ("f", "g"))
H = set_hyp(["f"])
P = Property(DESC, H)

VALUES = {
    "hypothesis": H,
    "property": P,
    "request": TestRequest((P, Property(NEG_DESC, set_hyp(["f", "g"]))),
                           SPACE),
    "found": TestOutcome.found(H, ("f", "o1")),
    "failed": TestOutcome.failed((P,)),
}


def test_property_rejects_unknown_kind():
    with pytest.raises(DiagError, match="unknown property kind 'bogus'"):
        Property("bogus", H)
    with pytest.raises(DiagError, match="unknown property kind 'bogus'"):
        P._replace(kind="bogus")
    assert P._replace(kind=NEG_DESC) == Property(NEG_DESC, H)


def test_replaced_request_is_validated():
    request = VALUES["request"]
    with pytest.raises(SpaceMismatchError):
        request._replace(props=(Property(DESC, set_hyp(["x"])),))
    assert request._replace(props=iter((P,))).props == (P,)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_fields_are_read_only(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # no instance dict either, so no new attribute can be set
    with pytest.raises(AttributeError):
        value.extra = None


def test_hypothesis_count_counts_faults():
    # it shadows tuple.count, which would count the (kind, data) fields
    assert multi_hyp({"f": 2}).count("f") == 2
    assert set_hyp(["f"]).count("g") == 0
    assert seq_hyp(["f", "g", "f"]).count("f") == 2
    with pytest.raises(DiagError):
        bin_hyp(True).count("f")


@pytest.mark.parametrize("h", [set_hyp(["f", "g"]), multi_hyp({"f": 2}),
                               seq_hyp(["g", "f"]), bin_hyp(True)],
                         ids=repr)
def test_hash_and_equality_are_those_of_the_field_tuple(h):
    # set and dict orders, and with them every search, depend on the hash
    assert hash(h) == hash((h.kind, h.data))
    p = Property(NEG_DESC, h)
    assert hash(p) == hash((NEG_DESC, (h.kind, h.data)))
    rebuilt = type(h)(h.kind, h.data)
    assert rebuilt == h and rebuilt is not h
    assert Property(NEG_DESC, rebuilt) == p
    assert Property(DESC, h) != p


def test_outcome_builders():
    found, failed = VALUES["found"], VALUES["failed"]
    assert found.is_candidate and found.candidate == H
    assert found.witness == ("f", "o1") and found.conflict is None
    assert not failed.is_candidate and failed.conflict == (P,)
    assert failed.candidate is None and failed.witness is None
    assert TestOutcome(conflict=(P,)) == failed
