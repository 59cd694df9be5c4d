import random
from itertools import product
from math import gcd

import pytest

from monoidpcsp.core import (
    CartesianPower,
    backtrack,
    closed_under,
    cyclic,
    d_of,
    direct_product,
    enumerate_homs,
    flipflop1,
    generated_subset,
    generator_walk,
    green_classes,
    green_leq,
    idempotent_constant,
    idempotents,
    inverse,
    is_commutative,
    is_completely_regular,
    is_hom_map,
    is_semilattice,
    make_hom,
    monoid_from_keyword,
    null_extension,
    pi_I,
    pi_dagger,
    power_walk,
    semilattice_chain,
    submonoid,
    validate_monoid,
    FiniteMonoid,
)
from monoidpcsp.errors import (
    MonoidError,
    NoIdentity,
    NotAssociative,
    NotRegular,
)
from monoidpcsp.sweep import commutative_regular_sweep, monoid_sweep
from conftest import greedy_set_is_larger


def test_validate_accepts_cyclic():
    M = cyclic(3)
    validate_monoid(M.table, M.identity)


def test_validate_rejects_non_associative():
    # 0 is a left/right identity but (1*1)*2 != 1*(1*2)
    table = ((0, 1, 2), (1, 0, 2), (2, 2, 1))
    with pytest.raises((NotAssociative, MonoidError)):
        validate_monoid(table, 0)


def test_validate_rejects_wrong_identity():
    M = cyclic(3)
    with pytest.raises((NoIdentity, MonoidError)):
        validate_monoid(M.table, 1)


def first_non_associative_triple(table):
    """The reference: the lexicographically first (a, b, c) with
    (a*b)*c != a*(b*c), by the cubic scan, or None."""
    n = len(table)
    for a, b, c in product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def validation_triple(table, identity):
    """None when validate_monoid accepts the table, else its triple."""
    try:
        validate_monoid(table, identity)
    except NotAssociative as e:
        return e.triple
    return None


def random_table_with_identity(rng, n):
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        table[0][a] = table[a][0] = a
    return table


def test_associativity_check_agrees_with_the_cubic_scan():
    rng = random.Random(19)
    tables = [random_table_with_identity(rng, n)
              for n in (1, 2, 3, 4, 5) for _ in range(300)]
    # one changed entry of a monoid fails late or not at all
    for M in (cyclic(4), flipflop1(), null_extension(),
              direct_product(cyclic(2), semilattice_chain(3))):
        for _ in range(100):
            table = [list(row) for row in M.table]
            a, b = rng.randrange(1, M.size), rng.randrange(1, M.size)
            table[a][b] = rng.randrange(M.size)
            tables.append(table)
    verdicts = set()
    for table in tables:
        expected = first_non_associative_triple(table)
        assert validation_triple(table, 0) == expected
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_associativity_check_on_chains_where_every_element_generates():
    for k in (3, 17, 64):
        M = monoid_from_keyword(f"semilattice:chain:{k}")
        assert generator_walk(M)[0] == list(range(1, k))
        assert validate_monoid(M.table, M.identity) == M
        table = [list(row) for row in M.table]
        table[k - 1][1] = 0   # then ((k-1)*1)*1 = 1 but (k-1)*(1*1) = 0
        assert validation_triple(table, 0) == first_non_associative_triple(table)
        assert validation_triple(table, 0) is not None


def first_bad_entry_error(table, identity):
    """The reference: the message of the first shape or range fault,
    walking the rows in order and each row from the left, then the
    identity's range, or None."""
    n = len(table)
    for row in table:
        if len(row) != n:
            return "table is not square"
        for v in row:
            if not 0 <= v < n:
                return f"table entry {v} out of range"
    if not 0 <= identity < n:
        return f"identity index {identity} out of range"
    return None


def test_validate_monoid_names_the_first_bad_entry_in_row_order():
    """Tables with two or more faults (entries out of range, short or long
    rows) name the first one in row order, as the walk does."""
    rng = random.Random(34)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        table = [list(cyclic(n).table[a]) for a in range(n)]
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(n)
            fault = rng.choice(["high", "low", "short", "long"])
            if fault == "high" and table[a]:
                table[a][rng.randrange(len(table[a]))] = n + rng.randrange(3)
            elif fault == "low" and table[a]:
                table[a][rng.randrange(len(table[a]))] = -1 - rng.randrange(3)
            elif fault == "short" and table[a]:
                table[a].pop()
            else:
                table[a].append(0)
        identity = rng.choice([0, 0, n, -1])
        expected = first_bad_entry_error(table, identity)
        try:
            validate_monoid(table, identity)
            got = None
        except (NoIdentity, NotAssociative):
            got = None
        except MonoidError as e:
            got = str(e)
        assert got == expected, (table, identity)
        seen.add(expected and " ".join(expected.split()[:2]))
    assert seen == {"table is", "table entry", "identity index", None}


def test_validate_monoid_names_the_first_element_the_identity_fails():
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(2, 6)
        table = [list(row) for row in cyclic(n).table]
        for _ in range(rng.randint(1, 3)):
            a = rng.randrange(1, n)
            if rng.random() < 0.5:
                table[0][a] = (a + 1) % n
            else:
                table[a][0] = (a + 1) % n
        witness = next(a for a in range(n) if table[0][a] != a or table[a][0] != a)
        with pytest.raises(NoIdentity) as info:
            validate_monoid(table, 0)
        assert info.value.witness == witness


def test_validate_monoid_accepts_the_one_element_table():
    """With one element every row and column has one entry: the table
    [[0]] is the trivial monoid, and [[1]] names its entry out of range."""
    M = validate_monoid([[0]], 0)
    assert M == cyclic(1) and M.size == 1
    assert validate_monoid(((0,),), 0) == M
    with pytest.raises(MonoidError, match="table entry 1 out of range"):
        validate_monoid([[1]], 0)


def test_green_preorder_is_reflexive_and_transitive():
    for M in (flipflop1(), null_extension(), cyclic(4)):
        for a in M.elements:
            assert green_leq(M, a, a)
        for a in M.elements:
            for b in M.elements:
                for c in M.elements:
                    if green_leq(M, a, b) and green_leq(M, b, c):
                        assert green_leq(M, a, c)


def test_green_classes_partition():
    M = null_extension()
    classes = green_classes(M)
    flat = sorted(x for cls in classes for x in cls)
    assert flat == list(M.elements)


def test_idempotents_of_chain_are_everything():
    M = semilattice_chain(4)
    assert idempotents(M) == frozenset(M.elements)
    assert is_semilattice(M)


def test_group_has_single_idempotent():
    assert idempotents(cyclic(5)) == frozenset({0})
    assert not is_semilattice(cyclic(2))


def test_idempotent_constant_powers_are_idempotent():
    for M in (cyclic(6), semilattice_chain(3), null_extension(), flipflop1()):
        C = idempotent_constant(M)
        idem = idempotents(M)
        for a in M.elements:
            assert M.power(a, C) in idem


def test_d_of_is_the_idempotent_power():
    for M in (cyclic(6), null_extension()):
        for a in M.elements:
            d = d_of(M, a)
            assert M.mul(d, d) == d
            assert any(M.power(a, k) == d for k in range(1, 2 * M.size + 2))


def test_inverse_in_cyclic_group():
    M = cyclic(5)
    for a in M.elements:
        b = inverse(M, a)
        assert M.mul(a, b) == d_of(M, a) == 0


def test_inverse_walks_the_powers_once():
    # a of order m: m squarings and m - 1 steps reach the idempotent a^m,
    # and one more product tests a^m * a = a.  A tuple (a, a) walks the base
    # powers of a once: its second coordinate reads the first one's inverse.
    calls = []

    class CountingMonoid(FiniteMonoid):
        def mul(self, a, b):
            calls.append((a, b))
            return super().mul(a, b)

    for n in range(1, 10):
        M = CountingMonoid(cyclic(n).table, 0)
        for a in range(n):
            m = n // gcd(a, n)
            calls.clear()
            assert inverse(M, a) == (-a) % n
            assert len(calls) <= 2 * m + 1
            calls.clear()
            assert inverse(CartesianPower(M, 2), (a, a)) == ((-a) % n,) * 2
            assert len(calls) <= 2 * m + 1


def power_walk_inverse(P, t):
    """The group inverse of t by walking the powers of the whole tuple: the
    reference for the coordinatewise inverse of a CartesianPower."""
    walk = power_walk(P, t)
    if P.mul(walk[-1], t) != t:
        raise NotRegular(t)
    return walk[-2] if len(walk) > 1 else t


def test_coordinatewise_inverse_is_the_power_walk_inverse():
    for M in commutative_regular_sweep(4, unique=True):
        P = CartesianPower(M, 2)
        for t in P.elements:
            assert inverse(P, t) == power_walk_inverse(P, t)


def test_inverse_rejects_irregular_element():
    with pytest.raises(NotRegular):
        inverse(null_extension(), 1)
    P = CartesianPower(null_extension(), 2)
    assert inverse(P, (0, 2)) == (0, 2)
    with pytest.raises(NotRegular) as err:
        inverse(P, (0, 1))
    assert err.value.witness == (0, 1)
    with pytest.raises(NotRegular):
        power_walk_inverse(P, (0, 1))


def test_complete_regularity():
    assert is_completely_regular(cyclic(4))
    assert is_completely_regular(semilattice_chain(3))
    assert not is_completely_regular(null_extension())


def test_projections_are_idempotent_homs():
    for M in (cyclic(6), semilattice_chain(3), null_extension(),
              direct_product(cyclic(2), semilattice_chain(2))):
        for p in (pi_I(M), pi_dagger(M)):
            assert is_hom_map(M, M, p.images)
            for a in M.elements:
                assert p(p(a)) == p(a)


def test_pi_dagger_image_is_completely_regular():
    M = null_extension()
    p = pi_dagger(M)
    sub, _, _ = submonoid(M, p.image_set())
    assert is_completely_regular(sub)


def test_generated_submonoid():
    M = cyclic(6)
    assert generated_subset(M, {2}) == frozenset({0, 2, 4})
    assert generated_subset(M, {1}) == frozenset(M.elements)


def test_closed_under_within_stops_at_the_first_element_outside():
    """Given ``within``, closed_under returns None exactly when the closure
    leaves ``within``, a start member outside it included, and the whole
    closure otherwise.  Seeded start sets, generators and ``within`` sets in
    the square of each small monoid; some ``within`` sets hold the closure,
    some miss only a start member, some miss only one element of the
    closure."""
    rng = random.Random(25)
    monoids = monoid_sweep(3, unique=True) + [
        cyclic(4), direct_product(cyclic(2), semilattice_chain(2))]
    kinds = {"inside": 0, "start out": 0, "reached out": 0}
    for M in monoids:
        P = CartesianPower(M, 2)
        elems = list(P.elements)
        for _ in range(30):
            start = rng.choices(elems, k=rng.randint(1, 2))
            gens = rng.choices(elems, k=rng.randint(0, 2))
            full = closed_under(P, start, gens)
            extra = set(rng.sample(elems, rng.randint(0, len(elems))))
            within = [full | extra, extra,
                      full - {rng.choice(start)}, full - {rng.choice(sorted(full))}]
            for w in within:
                got = closed_under(P, start, gens, w)
                if full <= w:
                    assert got == full
                    kinds["inside"] += 1
                else:
                    assert got is None
                    kinds["reached out" if set(start) <= w else "start out"] += 1
    assert min(kinds.values()) > 100, kinds


def test_make_hom_refuses_a_map_that_is_not_a_hom():
    with pytest.raises(MonoidError):
        make_hom(cyclic(2), cyclic(3), (0, 1))
    with pytest.raises(MonoidError):
        make_hom(cyclic(2), cyclic(2), (1, 0))


def test_backtrack_is_the_filtered_product():
    """backtrack yields, in order, the tuples of the product of the domains
    whose every prefix accept keeps."""
    rng = random.Random(17)
    for _ in range(300):
        domains = [rng.sample(range(4), rng.randint(0, 3))
                   for _ in range(rng.randint(0, 4))]
        keep = {}

        def accept(i, assignment):
            prefix = tuple(assignment[:i + 1])
            if prefix not in keep:
                keep[prefix] = rng.random() < 0.7
            return keep[prefix]

        got = list(backtrack(domains, accept))
        assert got == [a for a in product(*domains)
                       if all(keep[a[:i + 1]] for i in range(len(a)))]


def test_backtrack_is_not_bounded_by_the_recursion_limit():
    n = 5000
    alternating = tuple(i % 2 for i in range(n))
    found = backtrack([range(2)] * n, lambda i, a: a[i] == alternating[i])
    assert list(found) == [alternating]


def test_enumerate_homs_counts():
    # images of 1 must have order dividing gcd(2, 4) choices: 0 and 2
    assert len(enumerate_homs(cyclic(2), cyclic(4))) == 2
    assert len(enumerate_homs(cyclic(6), cyclic(3))) == 3
    assert len(enumerate_homs(cyclic(3), cyclic(2))) == 1


def test_enumerate_homs_are_homs_and_deterministic():
    homs = enumerate_homs(flipflop1(), semilattice_chain(2))
    assert homs == enumerate_homs(flipflop1(), semilattice_chain(2))
    for h in homs:
        assert is_hom_map(h.source, h.target, h.images)


def test_enumerate_homs_matches_brute_force():
    def brute(M, N, tuples=(), allowed=frozenset()):
        return sorted(images for images in product(N.elements, repeat=M.size)
                      if is_hom_map(M, N, images)
                      and all(tuple(images[a] for a in t) in allowed for t in tuples))

    def check(M, N, tuples=(), allowed=frozenset()):
        got = enumerate_homs(M, N, tuples, frozenset(allowed))
        assert [h.images for h in got] == brute(M, N, tuples, allowed), \
            (M.table, N.table, tuples, allowed)
        return got

    trivial = FiniteMonoid(((0,),), 0)
    assert generator_walk(trivial)[0] == []
    c2xc2 = direct_product(cyclic(2), cyclic(2))
    assert len(generator_walk(c2xc2)[0]) == 2
    sweep = monoid_sweep(3, unique=True)
    pairs = [(M, N) for M in sweep for N in sweep]
    pairs += [(M, N) for M in (trivial, flipflop1(), null_extension())
              for N in sweep + [c2xc2, cyclic(4), semilattice_chain(3)]]
    pairs += [(M, c2xc2) for M in sweep + [c2xc2]]
    pairs.append((c2xc2, direct_product(cyclic(2), semilattice_chain(2))))
    # the generator walk's greedy set is larger than the least one here
    greedy_larger = greedy_set_is_larger(monoid_sweep(4, unique=True))
    assert len(greedy_larger) == 22
    pairs += [(M, N) for M in greedy_larger + [direct_product(cyclic(2), cyclic(3))]
              for N in sweep + [c2xc2]]
    rng = random.Random(22)
    for M, N in pairs:
        check(M, N)
        arity = rng.randint(1, 3)
        tuples = [tuple(rng.randrange(M.size) for _ in range(arity))
                  for _ in range(rng.randint(1, 3))]
        allowed = {tuple(rng.randrange(N.size) for _ in range(arity))
                   for _ in range(rng.randint(1, N.size ** arity))}
        check(M, N, tuples, allowed)

    # the identity tuple of a trivial carrier is tested before the search
    assert check(trivial, cyclic(2), [(0,)], {(1,)}) == []
    assert len(check(trivial, cyclic(2), [(0, 0)], {(0, 0)})) == 1
    # an empty allowed set admits no hom once there is a tuple
    assert check(cyclic(4), cyclic(2), [(1,)], set()) == []
    assert len(check(cyclic(4), cyclic(2), [], set())) == 2
    # a repeated coordinate must take one value in both positions
    assert len(check(cyclic(3), cyclic(3), [(1, 1, 2)], {(1, 1, 2), (2, 1, 1)})) == 1
    # the coordinates of (g0, g1) are reached at different generator steps,
    # so the projection onto position 0 cuts branches after step 0
    (g0, g1), steps = generator_walk(c2xc2)
    step_of = {c: j for j, (new, _) in enumerate(steps) for c, _, _ in new}
    assert (step_of[g0], step_of[g1]) == (0, 1)
    for allowed in ({(1, 2)}, {(1, 2), (3, 0)}, {(0, 0), (3, 3)}):
        assert check(c2xc2, c2xc2, [(g0, g1)], allowed)


def test_hom_compose():
    f = make_hom(cyclic(4), cyclic(2), (0, 1, 0, 1))
    g = make_hom(cyclic(2), cyclic(2), (0, 1))
    assert g.compose(f).images == f.images


def test_cartesian_power_mul():
    P = CartesianPower(cyclic(3), 2)
    assert P.mul((1, 2), (2, 2)) == (0, 1)


def test_direct_product():
    M = direct_product(cyclic(2), semilattice_chain(2))
    assert M.size == 4
    assert is_commutative(M)
    assert not is_completely_regular(null_extension())


def test_monoid_from_keyword():
    assert monoid_from_keyword("cyclic:4").table == cyclic(4).table
    assert monoid_from_keyword("semilattice:chain:3").table == semilattice_chain(3).table
    assert monoid_from_keyword("flipflop1").table == flipflop1().table


def test_flipflop_is_noncommutative():
    M = flipflop1()
    assert not is_commutative(M)
    assert M.mul(1, 2) != M.mul(2, 1)


def test_prod_and_power():
    M = cyclic(5)
    assert M.prod([1, 2, 3]) == 1
    assert M.power(2, 0) == 0
    assert M.power(2, 7) == 4
    assert isinstance(M, FiniteMonoid)
