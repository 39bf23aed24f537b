"""The value records are named tuples, and ``EpsilonWord`` is the tuple of
its bits: they keep the repr strings of the frozen dataclasses they once
were, take positional or keyword fields, raise TypeError on wrong fields
and AttributeError on assignment, and copies and pickles rebuild them
through the constructor, so through its check.  Each record equals and
hashes as the plain tuple of its fields."""

import copy
import pickle

import pytest

from halinkit import (Bounds, ConstructionState, EpsilonWord, StabilizerChain,
                      TruncatedFamily, automorphism_group, bounds, cycle,
                      greedy_distinguishing_chain, make_family,
                      run_construction, verify_distinctness)
from halinkit.limitsim import PairWitness

COMB2 = "TruncatedFamily(kind='comb', depth=2)"

# name -> (a factory, the repr the frozen dataclass gave)
RECORDS = {
    "TruncatedFamily": (lambda: make_family("comb", depth=2), COMB2),
    "Bounds": (lambda: bounds(3),
               "Bounds(n=3, popcount=2, cost_bound=5, chain_bound=2)"),
    "StabilizerChain": (
        lambda: greedy_distinguishing_chain(automorphism_group(cycle(8)),
                                            [0, 1]),
        "StabilizerChain(base=(0, 1), added=(3,), orders=(2, 1), "
        "stalled=False)"),
    "EpsilonWord": (lambda: EpsilonWord((1, 0, 1)),
                    "EpsilonWord(bits=(1, 0, 1))"),
    "ConstructionState": (
        lambda: run_construction(make_family("comb", depth=2), 1),
        f"ConstructionState(family={COMB2}, fsets=(frozenset({{0}}), "
        "frozenset({0, 1, 2})), phis=(Permutation((2 3), degree=7),), "
        "xs=(2,), requested=1)"),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, expected_repr = RECORDS[request.param]
    return make, expected_repr


def fields(r) -> dict:
    """The record's fields by name; a sign word's one field is its bits."""
    return {"bits": r.bits} if isinstance(r, EpsilonWord) else r._asdict()


def test_repr_is_the_dataclass_repr(record):
    make, expected_repr = record
    assert repr(make()) == expected_repr


def test_equality_and_hash_by_fields(record):
    make, _ = record
    a, b = make(), make()
    assert isinstance(a, tuple) and a is not b
    assert a == b and not a != b
    assert len({a, b}) == 1
    assert a == tuple(a) and hash(a) == hash(tuple(a))  # a plain tuple
    if not isinstance(a, EpsilonWord):
        assert tuple(a) == tuple(fields(a).values())
        assert a[0] == getattr(a, a._fields[0])


def test_unequal_when_one_field_differs():
    assert bounds(3) != bounds(4)
    assert Bounds(3, 2, 5, 2) != Bounds(3, 2, 5, 3)
    assert EpsilonWord((0, 1)) != EpsilonWord((1, 0))


def test_epsilon_word_is_the_tuple_of_its_bits():
    word = EpsilonWord([1, 0, 1])
    assert len(word) == 3 and word[0] == 1 and word[-2] == 0
    assert tuple(word) == word.bits == (1, 0, 1)
    assert type(word.bits) is tuple
    assert hash(word) == hash((1, 0, 1))
    assert EpsilonWord(tuple(word)) == word  # as alpha reads its words
    assert EpsilonWord.from_int(5, 4) == (1, 0, 1, 0)


def test_keyword_and_mixed_construction(record):
    make, _ = record
    r = make()
    cls, by_name = type(r), fields(r)
    values = list(by_name.values())
    assert cls(**by_name) == r
    assert cls(*values[:1], **dict(list(by_name.items())[1:])) == r


@pytest.mark.parametrize("args, kwargs", [
    ((3, 2, 5), {}),                                  # one field missing
    ((3, 2, 5, 2, 0), {}),                            # one field too many
    ((3, 2, 5), {"chain": 2}),                        # no such field
    ((3, 2, 5, 2), {"n": 3}),                         # given twice
    ((), {"n": 3, "popcount": 2, "cost_bound": 5}),   # keyword missing
])
def test_wrong_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Bounds(*args, **kwargs)


def test_assignment_raises_attribute_error(record):
    make, _ = record
    r = make()
    name = next(iter(fields(r)))
    before = getattr(r, name)
    with pytest.raises(AttributeError):
        setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert getattr(r, name) == before


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_round_trip(record, clone):
    make, expected_repr = record
    r = make()
    c = clone(r)
    assert type(c) is type(r) and c == r and hash(c) == hash(r)
    assert repr(c) == expected_repr


def test_check_hook_validates_every_construction():
    with pytest.raises(ValueError, match="length >= 1"):
        EpsilonWord(bits=())
    with pytest.raises(ValueError, match="0 or 1"):
        EpsilonWord((0, 2))
    with pytest.raises(ValueError, match="binary tree needs depth >= 1"):
        TruncatedFamily("binary-tree", 0)
    with pytest.raises(ValueError, match="unknown family 'cube'"):
        TruncatedFamily("cube", 2)
    with pytest.raises(ValueError, match="greedy record"):
        StabilizerChain((0,), (1,), (2, 2), False)
    # _make, and so _replace, goes through the constructor
    fam = make_family("binary-tree", depth=2)
    assert fam._replace(depth=3) == TruncatedFamily("binary-tree", 3)
    with pytest.raises(ValueError, match="binary tree needs depth >= 1"):
        fam._replace(depth=0)
    with pytest.raises(ValueError, match="unknown family 'cube'"):
        TruncatedFamily._make(("cube", 2))
    chain = RECORDS["StabilizerChain"][0]()
    with pytest.raises(ValueError, match="greedy record"):
        chain._replace(orders=(1, 2))


@pytest.mark.parametrize("cls, bad", [
    (TruncatedFamily, ("binary-tree", 0)),
    (StabilizerChain, ((0,), (1,), (2, 2), False)),
    (EpsilonWord, (0, 2)),
], ids=["TruncatedFamily", "StabilizerChain", "EpsilonWord"])
def test_unpickling_runs_the_check(cls, bad):
    # a record made past the constructor does not survive a round trip
    unchecked = tuple.__new__(cls, bad)
    for clone in (copy.copy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(ValueError):
            clone(unchecked)


def test_records_have_no_instance_dict():
    for make, _ in RECORDS.values():
        assert not hasattr(make(), "__dict__")
    assert all(cls.__slots__ == () for cls in (
        TruncatedFamily, Bounds, StabilizerChain, EpsilonWord,
        ConstructionState))


def test_pair_witness_is_a_named_tuple_with_to_json():
    st = run_construction(make_family("binary-tree", depth=3), 1)
    w = next(iter(verify_distinctness(st, 1)))
    assert isinstance(w, tuple) and w == PairWitness(*w)
    assert PairWitness._fields == ("word_a", "word_b", "first_diff",
                                   "vertex", "image_a", "image_b")
    assert repr(w) == ("PairWitness(word_a=(0,), word_b=(1,), first_diff=0, "
                       "vertex=3, image_a=3, image_b=4)")
    assert pickle.loads(pickle.dumps(w)) == w
    assert not hasattr(w, "__dict__") and not hasattr(w, "to_json")
