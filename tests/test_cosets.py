import os
import random
from itertools import combinations

import pytest

from monoidpcsp import cosets
from monoidpcsp.core import (
    CartesianPower,
    cyclic,
    direct_product,
    inverse,
    is_commutative,
    is_regular_element,
    null_extension,
    semilattice_chain,
)
from monoidpcsp.cosets import (
    all_cosets,
    coset_closure,
    dagger_set,
    dagger_splitting_bound,
    generated_subset,
    is_coset,
    setprod,
    splitting_index,
    tensor_power,
    verify_dagger_splitting,
)
from monoidpcsp.errors import MonoidError, NotCommutative, NotRegular
from monoidpcsp.model import parse_template
from monoidpcsp.sweep import commutative_sweep, monoid_sweep

DATA = os.path.join(os.path.dirname(__file__), os.pardir,
                    "src", "monoidpcsp", "data")


def inverse_set(ops, U):
    """U^-1, elementwise: the reference the closure tests build [U] from."""
    return frozenset(inverse(ops, a) for a in U)


def relation_of(name):
    with open(os.path.join(DATA, name)) as f:
        T = parse_template(f.read())
    return CartesianPower(T.carrier, T.arity), T.relation


class CountingPower(CartesianPower):
    """A Cartesian power that counts its products."""

    calls = 0

    def mul(self, xs, ys):
        self.calls += 1
        return super().mul(xs, ys)


def coset_equation_holds(ops, U):
    """U x (U^-1 x U) <= U, pair by pair: the definition is_coset is
    checked against, for a set U of regular elements."""
    return all(ops.mul(u, ops.mul(inverse(ops, a), b)) in U
               for a in U for b in U for u in U)


def test_setprod_and_tensor_power():
    M = cyclic(4)
    assert setprod(M, {1, 2}, {1}) == frozenset({2, 3})
    assert tensor_power(M, {0, 2}, 2) == frozenset({0, 2})
    assert tensor_power(M, {1}, 3) == frozenset({3})


def test_tensor_power_reads_late_powers_off_the_cycle(deadline):
    rng = random.Random(5)
    for M in (cyclic(6), semilattice_chain(4), null_extension(),
              direct_product(cyclic(2), semilattice_chain(3))):
        for _ in range(5):
            U = frozenset(rng.sample(M.elements, rng.randint(1, 3)))
            power = U
            for n in range(1, 41):
                assert tensor_power(M, U, n) == power
                power = setprod(M, power, U)
    with deadline(1):
        assert tensor_power(cyclic(5), {1}, 10**9) == {0}


def test_elem_inverse_is_a_group_inverse():
    for M in (cyclic(6), semilattice_chain(3),
              direct_product(cyclic(2), semilattice_chain(2))):
        for a in M.elements:
            b = inverse(M, a)
            assert M.mul(M.mul(a, b), a) == a
            assert M.mul(M.mul(b, a), b) == b


def test_elem_inverse_rejects_irregular():
    M = null_extension()
    assert not is_regular_element(M, 1)
    with pytest.raises(NotRegular):
        inverse(M, 1)


def test_inverse_and_dagger_sets():
    M = cyclic(5)
    assert inverse_set(M, {1, 2}) == frozenset({4, 3})
    N = null_extension()
    assert dagger_set(N, N.elements) == frozenset({0, 2})


def test_generated_subset_is_closed():
    M = cyclic(6)
    sub = generated_subset(M, {2})
    assert sub == frozenset({0, 2, 4})
    assert setprod(M, sub, sub) == sub


def test_closure_is_minimal_coset_brute_force():
    """[U] is the smallest coset containing U, against subset enumeration,
    for every non-empty set U of regular elements of each monoid."""
    monoids = [cyclic(4), semilattice_chain(3),
               direct_product(semilattice_chain(2), cyclic(2))]
    for M in monoids + commutative_sweep(4, unique=True):
        cosets = all_cosets(M)
        for U in cosets:
            if U:
                assert coset_closure(M, U).members == U
        regular = [a for a in M.elements if is_regular_element(M, a)]
        for r in range(1, len(regular) + 1):
            for U in combinations(regular, r):
                closed = coset_closure(M, frozenset(U)).members
                smallest = min(
                    (C for C in cosets if C and frozenset(U) <= C),
                    key=len)
                assert closed == smallest


def test_closure_matches_the_definition():
    """coset_closure against [U] = U x <U^-1 x U> taken as set products, on
    seeded sets of regular pairs and on the intro relations."""
    def by_definition(P, U):
        return setprod(P, U, generated_subset(P, setprod(P, inverse_set(P, U), U)))

    rng = random.Random(8)
    for M in commutative_sweep(3, unique=True):
        P = CartesianPower(M, 2)
        regular = [t for t in P.elements if is_regular_element(P, t)]
        for _ in range(40):
            U = frozenset(rng.sample(regular, rng.randint(1, min(5, len(regular)))))
            assert coset_closure(P, U).members == by_definition(P, U)
    for n in range(2, 7):
        P, U = relation_of(f"introN_{n}.mon")
        assert coset_closure(P, U).members == by_definition(P, U)


def test_closure_self_check_is_live(monkeypatch):
    """A construction whose <U^-1 x U> stops at {identity} returns U itself,
    which is not a coset here; the check refuses it."""
    monkeypatch.setattr(cosets, "_difference_monoid",
                        lambda ops, U: ([], frozenset((ops.identity,))))
    with pytest.raises(MonoidError, match="fails the coset equation"):
        coset_closure(cyclic(3), {1, 2})
    assert coset_closure(cyclic(3), {1}).members == {1}


def test_closure_product_count_on_intro_n9():
    """The 720 tuples of introN_9 close with few products: the four set
    products of the definition took 2 685 637, an inverse that walked
    the powers twice took 57 576, and one that walked the powers of each
    whole tuple took 35 008."""
    P, U = relation_of("introN_9.mon")
    P = CountingPower(P.base, P.n)
    assert len(coset_closure(P, U).members) == 9 ** 3
    assert P.calls <= 12_000


def test_is_coset_examples():
    M = cyclic(6)
    assert is_coset(M, {0, 2, 4})
    assert is_coset(M, {1, 3, 5})
    assert not is_coset(M, {0, 1, 3})
    # the pair of incomparable atoms in a 2x2 semilattice is not a coset:
    # their pairwise products drag in the bottom element
    P = direct_product(semilattice_chain(2), semilattice_chain(2))
    atoms = {a for a in P.elements
             if a != P.identity and P.mul(a, a) == a
             and not all(P.mul(a, b) == a for b in P.elements)}
    assert len(atoms) == 2
    assert not is_coset(P, atoms)
    assert is_coset(M, frozenset())


def test_is_coset_rejects_irregular_members():
    assert not is_coset(null_extension(), {0, 1})


def test_is_coset_matches_the_coset_equation():
    """is_coset against the coset equation on every set of regular elements
    of each commutative monoid of order at most 3 and of its square; a
    non-commutative one is refused."""
    for M in monoid_sweep(3, unique=True):
        if not is_commutative(M):
            with pytest.raises(NotCommutative):
                is_coset(M, {M.identity})
            continue
        for ops in (M, CartesianPower(M, 2)):
            regular = [a for a in ops.elements if is_regular_element(ops, a)]
            for r in range(len(regular) + 1):
                for U in combinations(regular, r):
                    U = frozenset(U)
                    assert is_coset(ops, U) == coset_equation_holds(ops, U), U


def test_is_coset_product_counts():
    """is_coset on the closure of introN_9's relation (729 triples) checks
    U x g <= U for the few kept generators g; the coset equation taken pair
    by pair made about 1.08 million products there.  A set that is not a
    coset is refused before its closure is built: the zero and the unit
    vectors of (Z/7)^6 close to all 117 649 tuples."""
    P, U = relation_of("introN_9.mon")
    closed = coset_closure(P, U).members
    P = CountingPower(P.base, P.n)
    assert is_coset(P, closed)
    assert P.calls <= 30_000
    P = CountingPower(cyclic(7), 6)
    U = {tuple(int(i == k) for i in range(6)) for k in range(7)}
    assert not is_coset(P, U)
    assert P.calls <= 100


def test_coset_ops_reject_noncommutative():
    from monoidpcsp.core import flipflop1
    with pytest.raises(NotCommutative):
        coset_closure(flipflop1(), {0})


def test_splitting_index_definition():
    """[R]^xn = R^xn for all nonempty R once n reaches the splitting index."""
    for M in (cyclic(3), cyclic(4), semilattice_chain(3),
              direct_product(cyclic(2), semilattice_chain(2))):
        L = splitting_index(M)
        for mask in range(1, 1 << M.size):
            R = frozenset(a for a in M.elements if mask >> a & 1)
            C = coset_closure(M, R).members
            for n in (L, L + 1, L + 2):
                assert tensor_power(M, C, n) == tensor_power(M, R, n)


def test_dagger_splitting_holds_at_the_bound():
    for M in (null_extension(), cyclic(4), semilattice_chain(3)):
        K = dagger_splitting_bound(M)
        assert verify_dagger_splitting(M, K, K + 2)


def test_dagger_splitting_can_fail_below_one():
    # over the null extension, [dagger(R)] escapes R at n = 1
    M = null_extension()
    assert not verify_dagger_splitting(M, 1, 2)


def test_cosets_in_a_power():
    M = cyclic(3)
    P = CartesianPower(M, 2)
    diag = frozenset((a, a) for a in M.elements)
    assert is_coset(P, diag)
    closed = coset_closure(P, {(0, 1), (1, 2)}).members
    assert is_coset(P, closed)
    assert {(0, 1), (1, 2)} <= closed
