import os
import random
from itertools import combinations, product

import pytest

from monoidpcsp.classify import classify
from monoidpcsp.core import (
    CartesianPower,
    cyclic,
    direct_product,
    enumerate_homs,
    flipflop1,
    generated_subset,
    generator_walk,
    is_hom_map,
    make_hom,
    semilattice_chain,
)
from monoidpcsp.errors import (
    NonCommutingImages,
    TooLarge,
    ValidationError,
)
from monoidpcsp.model import (
    make_finite_template,
    oracle_solve,
    parse_template,
    serialize_instance,
)
from monoidpcsp.polymorph import (
    HomPolymorphism,
    all_table_polymorphisms,
    find_block_symmetric,
    is_polymorphism,
    is_satisfiable_in_pol,
    is_trivial,
    make_hom_polymorphism,
    make_minor_condition,
    minimal_generating_set,
    minor,
    parse_minor_condition,
    pmc_reduce,
    serialize_minor_condition,
)
from monoidpcsp.regularize import homs_into
from monoidpcsp.sweep import monoid_sweep
from conftest import intro_nf_template, nonconstant_triples

DATA = os.path.join(os.path.dirname(__file__), os.pardir,
                    "src", "monoidpcsp", "data")


def data_template(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return parse_template(fh.read())


def sum_triples(n, residue):
    return [t for t in product(range(n), repeat=3) if sum(t) % n == residue]


def random_commuting_polymorphism(rng, M, arity):
    homs = enumerate_homs(M, M)
    while True:
        comps = [rng.choice(homs) for _ in range(arity)]
        try:
            return make_hom_polymorphism(comps)
        except NonCommutingImages:
            continue


def test_minor_composition_laws():
    rng = random.Random(9)
    M = cyclic(4)

    def table(f):
        return {args: f(args) for args in product(M.elements, repeat=f.arity)}

    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = random_commuting_polymorphism(rng, M, n)
        s1 = tuple(rng.randrange(m) for _ in range(n))
        s2 = tuple(rng.randrange(k) for _ in range(m))
        comp = tuple(s2[s1[i]] for i in range(n))
        lhs = minor(minor(f, s1, m), s2, k)
        rhs = minor(f, comp, k)
        assert table(lhs) == table(rhs)
        ident = tuple(range(n))
        assert table(minor(f, ident, n)) == table(f)


def test_minor_agrees_with_argument_duplication():
    rng = random.Random(21)
    M = cyclic(4)
    for _ in range(10):
        f = random_commuting_polymorphism(rng, M, 2)
        g = minor(f, (0, 0), 1)
        for a in M.elements:
            assert g((a,)) == f((a, a))


def test_unary_minor_is_component_product():
    """Collapsing every coordinate of a hom polymorphism gives the product
    of its components, and the result is again a hom polymorphism."""
    M = cyclic(6)
    h1 = make_hom(M, M, tuple(M.mul(a, a) for a in M.elements))
    ident = make_hom(M, M, tuple(M.elements))
    f = make_hom_polymorphism([h1, ident, h1])
    u = minor(f, (0,) * f.arity, 1)
    assert u.arity == 1
    for a in M.elements:
        assert u((a,)) == M.mul(M.mul(h1(a), a), h1(a))
        assert u((a,)) == f((a, a, a))


def test_projection_is_polymorphism():
    T = make_finite_template(cyclic(3), 3, nonconstant_triples(3))
    for h, in [(h,) for h in enumerate_homs(cyclic(3), cyclic(3))]:
        f = make_hom_polymorphism([h])
        if all(tuple(h(a) for a in t) in T.relation for t in T.relation):
            assert is_polymorphism(f, T, T)


def test_sum_polymorphism_on_residue_relations():
    M = cyclic(3)
    ident = make_hom(M, M, (0, 1, 2))
    f = make_hom_polymorphism([ident, ident, ident])
    # three tuples of residue 0 sum to residue 0: a polymorphism
    T0 = make_finite_template(M, 3, sum_triples(3, 0))
    assert is_polymorphism(f, T0, T0)
    # three tuples of residue 1 sum to residue 0, leaving the relation
    T1 = make_finite_template(M, 3, sum_triples(3, 1))
    assert not is_polymorphism(f, T1, T1)


def test_find_block_symmetric_intro():
    """The paper's introductory pair is tractable, and the search finds a
    2-block symmetric polymorphism of it at arities 1, 3 and 5."""
    T = intro_nf_template()
    target = make_finite_template(cyclic(3), 3, nonconstant_triples(3))
    assert classify(T, target).verdict == "Tractable"
    for i in (0, 1, 2):
        f = find_block_symmetric(T, target, i)
        assert f.arity == 2 * i + 1
        assert is_polymorphism(f, T, target)


def test_find_block_symmetric():
    T3 = make_finite_template(cyclic(3), 3, nonconstant_triples(3))
    found = find_block_symmetric(T3, T3, 1)
    assert found is not None
    assert is_polymorphism(found, T3, T3)
    # at i = 1 the last block is a singleton, so the third projection
    # always qualifies; the search only becomes discriminating at i >= 2
    T5 = make_finite_template(cyclic(5), 3, nonconstant_triples(5))
    assert find_block_symmetric(T5, T5, 2) is None
    # Z/448 has 448 self-homs, so 448^2 = 200 704 pairs, just over SEARCH_CAP
    full = make_finite_template(cyclic(448), 1, [(a,) for a in range(448)])
    with pytest.raises(TooLarge):
        find_block_symmetric(full, full, 1)


def test_find_block_symmetric_is_the_first_polymorphic_pair():
    """The search returns the first (g1, g2) in homs_into order whose
    components [g1]*(i+1) + [g2]*i form a polymorphism.  The targets are
    cyclic, so every pair of images commutes."""
    def first_pair(relM, relN, i):
        homs = homs_into(relM.carrier, relN.carrier)
        for g1 in homs:
            for g2 in homs:
                f = HomPolymorphism(tuple([g1] * (i + 1) + [g2] * i))
                if is_polymorphism(f, relM, relN):
                    return f
        return None

    templates = [data_template(f"introN_{n}.mon") for n in (2, 3, 4)]
    for relM in templates:
        for relN in templates:
            for i in (0, 1, 2):
                assert find_block_symmetric(relM, relN, i) == first_pair(relM, relN, i)


def test_find_block_symmetric_multiplies_little(monkeypatch):
    """Each hom's powers of its relation image are built once, and a pair's
    test stops at its first product outside the relation: on introN_5 at
    i = 2 (25 pairs, none a hit) that is 175 404 products, where building
    the whole 5-fold set product for every pair took 1 127 092."""
    calls = 0
    mul = CartesianPower.mul

    def counting_mul(self, xs, ys):
        nonlocal calls
        calls += 1
        return mul(self, xs, ys)

    monkeypatch.setattr(CartesianPower, "mul", counting_mul)
    T = data_template("introN_5.mon")
    assert find_block_symmetric(T, T, 2) is None
    assert calls < 300_000


def test_minor_condition_triviality():
    empty = make_minor_condition([], [], [])
    assert is_trivial(empty)
    # f(x0,x1) = g(x0,x1) = g(x1,x0) forces an index fixed by the swap
    cond = make_minor_condition([("f", 2)], [("g", 2)],
                                [("f", "g", (0, 1)), ("f", "g", (1, 0))])
    assert not is_trivial(cond)
    loose = make_minor_condition([("f", 2)], [("g", 2)], [("f", "g", (0, 1))])
    assert is_trivial(loose)
    # seeded conditions against a brute force over the projections; the
    # names are drawn so that an edge's u may come before or after its v
    rng = random.Random(29)
    verdicts = set()
    for _ in range(400):
        names = rng.sample("abcdefg", rng.randint(2, 5))
        cut = rng.randint(1, len(names) - 1)
        arity = {x: rng.randint(1, 3) for x in names}
        us, vs = names[:cut], names[cut:]
        edges = []
        for _ in range(rng.randint(0, 6)):
            u, v = rng.choice(us), rng.choice(vs)
            edges.append((u, v, tuple(rng.randrange(arity[v])
                                      for _ in range(arity[u]))))
        cond = make_minor_condition([(x, arity[x]) for x in us],
                                    [(x, arity[x]) for x in vs], edges)
        brute = any(all(phi[i[u]] == i[v] for u, v, phi in edges)
                    for i in (dict(zip(names, pick)) for pick in
                              product(*(range(arity[x]) for x in names))))
        assert is_trivial(cond) == brute, cond
        verdicts.add(brute)
    assert verdicts == {True, False}


def test_minor_condition_round_trip():
    cond = make_minor_condition([("f", 2)], [("g", 1)],
                                [("f", "g", (0, 0))])
    text = serialize_minor_condition(cond)
    assert parse_minor_condition(text) == cond


def test_trivial_condition_satisfiable_in_every_pol():
    T = make_finite_template(cyclic(2), 1, [(0,)])
    cond = make_minor_condition([("f", 2)], [("g", 1)], [("f", "g", (0, 0))])
    assert is_trivial(cond)
    assert is_satisfiable_in_pol(cond, T, T)


def test_projections_only_pair():
    """Over (Z/2, sum-odd triples) every binary polymorphism is a
    projection, so the symmetric binary condition is unsatisfiable."""
    T = make_finite_template(cyclic(2), 3, sum_triples(2, 1))
    polys = all_table_polymorphisms(T, T, 2)
    tables = {tuple(p.table[k] for k in sorted(p.table)) for p in polys}
    assert tables == {(0, 0, 1, 1), (0, 1, 0, 1)}
    cond = make_minor_condition([("f", 2)], [("g", 2)],
                                [("f", "g", (0, 1)), ("f", "g", (1, 0))])
    assert not is_satisfiable_in_pol(cond, T, T)


def brute_force_table_polymorphisms(relM, relN, arity):
    """Every table on M^arity, in lexicographic order of its values, that
    is a hom of the CartesianPower into N and maps relM's relation, arity
    rows at a time column by column, into relN's."""
    M, N = relM.carrier, relN.carrier
    keys = list(product(M.elements, repeat=arity))
    P = CartesianPower(M, arity)
    out = []
    for values in product(N.elements, repeat=len(keys)):
        t = dict(zip(keys, values))
        if (is_hom_map(P, N, t)
                and all(tuple(t[tuple(row[j] for row in rows)]
                              for j in range(relN.arity)) in relN.relation
                        for rows in product(relM.relation, repeat=arity))):
            out.append(t)
    return out


def seeded_polymorphism_cases(rng):
    """(relM, relN, arity) over pairs of monoid_sweep(3): relations of
    arity 1 and 2, relN holding the image of relM under a drawn hom and a
    few drawn tuples, and polymorphism arity 1, and 2 where the tables
    number at most 512."""
    sweep = monoid_sweep(3)
    for M in sweep:
        for N in sweep:
            for r in (1, 2):
                rowsM = list(product(M.elements, repeat=r))
                rowsN = list(product(N.elements, repeat=r))
                relM = rng.sample(rowsM, rng.randint(1, len(rowsM)))
                h = rng.choice(enumerate_homs(M, N))
                relN = {tuple(map(h, t)) for t in relM}
                relN.update(rng.sample(rowsN, rng.randint(0, len(rowsN) - 1)))
                TM = make_finite_template(M, r, relM)
                TN = make_finite_template(N, r, relN)
                yield TM, TN, 1
                if N.size ** (M.size ** 2) <= 512:
                    yield TM, TN, 2


def test_table_polymorphisms_match_brute_force():
    """all_table_polymorphisms returns the tables of the brute-force
    search, in its order, on a seeded corpus."""
    found = []
    for relM, relN, arity in seeded_polymorphism_cases(random.Random(33)):
        expected = brute_force_table_polymorphisms(relM, relN, arity)
        polys = all_table_polymorphisms(relM, relN, arity)
        assert [p.table for p in polys] == expected, (relM, relN, arity)
        assert all(p.arity == arity for p in polys)
        found.append(len(polys))
    assert min(found) >= 1 and max(found) > 1


def test_table_polymorphisms_at_arity_four_search_homs(deadline):
    """Over (Z/2, odd-sum triples) the arity-4 polymorphisms are the sums
    of an odd number of arguments, 8 of the 2^16 tables; they are found as
    homs of the power, not by trying every table."""
    T = make_finite_template(cyclic(2), 3, sum_triples(2, 1))
    with deadline(0.25):
        polys = all_table_polymorphisms(T, T, 4)
    odd = [s for s in product((0, 1), repeat=4) if sum(s) % 2]
    assert sorted(tuple(p.table[k] for k in sorted(p.table)) for p in polys) == \
        sorted(tuple(sum(a * x for a, x in zip(s, k)) % 2
                     for k in product((0, 1), repeat=4)) for s in odd)


def test_pmc_reduce_trivial_condition_satisfiable():
    T = make_finite_template(cyclic(2), 1, [(1,)])
    cond = make_minor_condition([("f", 2)], [("g", 1)], [("f", "g", (0, 0))])
    I = pmc_reduce(cond, T, T, 2)
    assert oracle_solve(T, I) is not None


def test_pmc_reduce_unsat_condition_refuted():
    T = make_finite_template(cyclic(2), 3, sum_triples(2, 1))
    cond = make_minor_condition([("f", 2)], [("g", 2)],
                                [("f", "g", (0, 1)), ("f", "g", (1, 0))])
    I = pmc_reduce(cond, T, T, 2)
    assert oracle_solve(T, I) is None


def test_pmc_reduce_validates_symbol_arity():
    T = make_finite_template(cyclic(2), 1, [(1,)])
    cond = make_minor_condition([("f", 3)], [("g", 1)], [("f", "g", (0, 0, 0))])
    with pytest.raises(ValidationError):
        pmc_reduce(cond, T, T, 2)


def test_pmc_reduce_refuses_a_huge_arity_before_the_power(deadline):
    """The arity is checked against the cap before |M|^N is formed: over
    the one-element monoid the power is 1 whatever N is, and over Z/3 it
    would be a ten-million-digit integer."""
    cond = make_minor_condition([("f", 2)], [("g", 1)], [("f", "g", (0, 0))])
    T = data_template("trivial.mon")
    with pytest.raises(TooLarge):
        pmc_reduce(cond, T, T, 10**6, cap=1000)
    T = data_template("introN_3.mon")
    cond = make_minor_condition([("f", 2)], [("g", 3)], [("f", "g", (0, 1))])
    with deadline(1), pytest.raises(TooLarge):
        pmc_reduce(cond, T, T, 10**7)


def test_minimal_generating_set_generates():
    for M in (cyclic(6), semilattice_chain(3), flipflop1(),
              direct_product(cyclic(2), cyclic(3))):
        gens = minimal_generating_set(M, lambda k: True)
        assert generated_subset(M, gens) == frozenset(M.elements)


def test_minimal_generating_set_is_the_first_smallest():
    """The search from the forced elements returns the set that the plain
    search by increasing size in index order returns, on the whole sweep."""
    def by_size(M):
        for k in range(M.size + 1):
            for combo in combinations(M.elements, k):
                if len(generated_subset(M, combo)) == M.size:
                    return list(combo)

    for M in monoid_sweep(6) + [direct_product(cyclic(2), semilattice_chain(3)),
                                semilattice_chain(8)]:
        assert minimal_generating_set(M, lambda k: True) == by_size(M), M.table


def test_minimal_generating_set_of_a_chain_is_one_scan(deadline):
    """Every element of a chain but its identity is forced, so no subset is
    searched; a search among all 2^24 subsets would run for minutes."""
    with deadline(2):
        assert minimal_generating_set(semilattice_chain(24), lambda k: True) == list(range(1, 24))


def test_minimal_generating_set_stops_at_the_first_size_that_does_not_fit():
    M = direct_product(cyclic(2), cyclic(3))
    assert minimal_generating_set(M, lambda k: k < 1) is None
    assert minimal_generating_set(M, lambda k: k <= 1) == [4]
    sizes = []
    assert minimal_generating_set(semilattice_chain(24),
                                  lambda k: sizes.append(k) or k < 23) is None
    assert sizes == [23]


TRIVIAL_MC = "sym f 2 U\nsym g 1 V\nedge f g 0 0\n"
SWAP_MC = "sym f 2 U\nsym g 2 V\nedge f g 1 0\n"


def test_pmc_reduce_numbers_its_variables_by_the_least_generating_set():
    """Z/2 x Z/3 is Z/6 with k sent to 4^k.  Its least generating set {4}
    is the image of Z/6's {1}, so the two reductions are one instance; the
    generator walk's set {1, 3} would add variables."""
    C6, P = cyclic(6), direct_product(cyclic(2), cyclic(3))
    carry = [P.power(4, k) for k in C6.elements]
    assert generator_walk(P)[0] == [1, 3]
    for rel in ([(1,)], [(k, (k + 1) % 6) for k in C6.elements]):
        T6 = make_finite_template(C6, len(rel[0]), rel)
        TP = make_finite_template(P, len(rel[0]),
                                  [tuple(carry[k] for k in t) for t in rel])
        for text in (TRIVIAL_MC, SWAP_MC):
            cond = parse_minor_condition(text)
            assert serialize_instance(pmc_reduce(cond, TP, TP, 2)) == \
                serialize_instance(pmc_reduce(cond, T6, T6, 2))


def test_pmc_reduce_refuses_a_large_generating_set_before_searching(deadline):
    """C2 x chain:11 has 22 elements and needs 11 generators, so the maps
    U -> B exceed the cap long before the least-set search reaches that
    size; the search stops at the first size over the cap."""
    M = direct_product(cyclic(2), semilattice_chain(11))
    T = make_finite_template(M, 1, [(0,), (1,)])
    Z2 = make_finite_template(cyclic(2), 1, [(0,), (1,)])
    cond = parse_minor_condition(TRIVIAL_MC)
    for rhs in (T, Z2):
        with deadline(1), pytest.raises(TooLarge, match="map enumeration"):
            pmc_reduce(cond, T, rhs, 2)
