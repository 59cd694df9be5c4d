import pytest

from monoidpcsp.classify import Classification
from monoidpcsp.core import cyclic
from monoidpcsp.errors import DimensionMismatch, MonoidError
from monoidpcsp.model import Identity, Product
from monoidpcsp.record import record
from monoidpcsp.regularize import NFElement, integers_nf
from monoidpcsp.zlinalg import Lattice, LatticeCoset, lattice_from_generators


@record
class Pair:
    left: object
    right: object = 0


def test_fields_in_order_with_trailing_defaults():
    assert Pair(1, 2).right == 2
    assert Pair(1) == Pair(1, 0)
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, 2, 3)
    with pytest.raises(TypeError):
        Pair(1, right=2)


def test_a_class_without_fields_or_with_a_default_first_is_refused():
    with pytest.raises(TypeError):
        @record
        class Empty:
            label = "empty"

    with pytest.raises(TypeError):
        @record
        class DefaultFirst:
            left: object = 0
            right: object


def test_equal_fields_in_different_classes_compare_unequal():
    assert Identity(0) != Product(0, 0, 0)

    @record
    class Other:
        left: object
        right: object = 0

    assert Pair(1, 2) != Other(1, 2)
    assert Pair(1, 2).__eq__((1, 2)) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    M = cyclic(3)
    assert hash(M) == hash((M.table, M.identity))
    assert hash(Identity(5)) == hash((5,))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2


def test_repr_names_the_fields():
    assert repr(Pair(1, "a")) == "Pair(left=1, right='a')"
    assert repr(Identity(3)) == "Identity(x=3)"


def test_instances_are_frozen_and_class_attributes_are_not():
    x = Pair(1, 2)
    with pytest.raises(AttributeError):
        x.left = 3
    with pytest.raises(AttributeError):
        x.other = 3
    with pytest.raises(AttributeError):
        del x.left
    assert x == Pair(1, 2)
    Pair.label = "pair"
    try:
        assert x.label == "pair"
    finally:
        del Pair.label


def test_default_fields():
    c = Classification("NPHard")
    assert (c.verdict, c.witness, c.sandwich, c.sandwich_embedding) == (
        "NPHard", None, None, None)
    assert Classification("Tractable", (1,)) == \
        Classification("Tractable", (1,), None, None)


def test_post_init_checks_still_run():
    NF = integers_nf()
    assert NFElement(NF, 0, (1,)).v == (1,)
    with pytest.raises(MonoidError):
        NFElement(NF, 0, (1, 2))
    with pytest.raises(DimensionMismatch):
        LatticeCoset((0, 0), Lattice(3, ()))


def test_lattice_pivots_are_computed_once():
    L = lattice_from_generators(3, [[0, 2, 4], [0, 0, 3]])
    assert L.pivots is L.pivots == (1, 2)
    assert L == lattice_from_generators(3, [[0, 2, 4], [0, 0, 3]])
