"""The shared Pattern multiset type."""

import pickle

import pytest

from maeda.patterns import Pattern, PrimeType


def test_construction_and_canonical_order():
    a = Pattern.from_lengths([3, 1, 1, 3, 5])
    assert a.parts == ((1, 2), (3, 2), (5, 1))
    assert a.size == 13
    assert a.multiplicity(3) == 2
    assert a.multiplicity(2) == 0
    assert list(a.lengths()) == [1, 3, 5]
    assert dict(a.parts) == {1: 2, 3: 2, 5: 1}


def test_from_pairs_merges_duplicates():
    assert Pattern.from_pairs([(2, 1), (2, 2), (5, 1)]) == Pattern.from_pairs(
        [(5, 1), (2, 3)]
    )


def test_empty_pattern():
    empty = Pattern(())
    assert empty.size == 0
    assert str(empty) == "()"


def test_validation():
    with pytest.raises(ValueError):
        Pattern(((2, 1), (2, 1)))  # duplicate length
    with pytest.raises(ValueError):
        Pattern(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        Pattern(((2, 0),))  # zero multiplicity
    with pytest.raises(ValueError):
        Pattern(((0, 1),))  # zero length


@pytest.mark.parametrize("bad", [((2, 1), (2, 1)), ((3, 1), (2, 1)), ((2, 0),), ((0, 1),),
                                 ((-1, 1),)])
def test_every_way_in_validates(bad):
    # the constructor, _make, _replace and unpickling; the --jobs pool
    # pickles every pattern of every certificate it hands back
    good = Pattern(((1, 1), (2, 1)))
    assert pickle.loads(pickle.dumps(good)) == good
    assert good._replace(parts=((3, 1),)) == Pattern(((3, 1),))
    smuggled = tuple.__new__(Pattern, (bad,))  # past every check
    for way_in in (lambda: Pattern(bad), lambda: Pattern._make([bad]),
                   lambda: good._replace(parts=bad), lambda: pickle.loads(pickle.dumps(smuggled))):
        with pytest.raises(ValueError):
            way_in()


def test_str_and_hash():
    a = Pattern.from_lengths([1, 1, 4])
    assert str(a) == "1^2 4"
    assert len({a, Pattern.from_lengths([4, 1, 1])}) == 1


def test_prime_type_values():
    assert [t.value for t in PrimeType] == ["I", "II", "III", "IV"]
    assert str(PrimeType.III) == "III"
