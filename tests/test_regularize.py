import os
import random
from itertools import product

import pytest

from monoidpcsp.core import (
    FiniteMonoid,
    commute,
    cyclic,
    d_of,
    direct_product,
    enumerate_homs,
    eval_exponents,
    flipflop1,
    generator_walk,
    green_leq,
    idempotents,
    is_commutative,
    is_completely_regular,
    is_hom_map,
    is_semilattice,
    null_extension,
    power_walk,
    semilattice_chain,
    submonoid,
)
from monoidpcsp.errors import (
    MonoidError,
    TargetNotRegularCommutative,
    ValidationError,
)
from monoidpcsp.model import parse_template
from monoidpcsp.regularize import (
    NFIsomorphism,
    ab_reg,
    congruence_closure,
    covering_pairs,
    integers_nf,
    make_normal_form,
    nf_element,
    nf_generator,
    nf_homs_to_finite,
    nf_power,
    semilattice_leq,
    to_normal_form,
    verify_universal_property,
)
from monoidpcsp.sweep import commutative_regular_sweep, monoid_sweep
from monoidpcsp.zlinalg import lattice_from_generators, lattice_member
from conftest import clifford


def monogenic(index, period):
    n = index + period
    def norm(k):
        return k if k < n else index + (k - index) % period
    table = tuple(tuple(norm(a + b) for b in range(n)) for a in range(n))
    return FiniteMonoid(table, 0)


def test_congruence_closure_collapses_products():
    M = cyclic(4)
    roots = congruence_closure(M, [(0, 2)])
    # 0 ~ 2 forces 1 ~ 3 as well
    assert roots[1] == roots[3]
    assert len(set(roots)) == 2


def test_congruence_closure_matches_the_fixpoint():
    """The worklist closure against propagating every identified pair to a
    fixpoint, on the abelianization pairs and seeded random pairs of each
    monoid of the sweep."""
    def fixpoint(M, pairs):
        cls = list(M.elements)  # element -> least member of its class

        def merge(x, y):
            a, b = sorted((cls[x], cls[y]))
            for z in M.elements:
                if cls[z] == b:
                    cls[z] = a
            return a != b

        for a, b in pairs:
            merge(a, b)
        changed = True
        while changed:
            changed = False
            for a in M.elements:
                for b in M.elements:
                    if cls[a] == cls[b]:
                        for c in M.elements:
                            changed |= merge(M.mul(a, c), M.mul(b, c))
                            changed |= merge(M.mul(c, a), M.mul(c, b))
        return cls

    rng = random.Random(11)
    for M in monoid_sweep(6):
        swapped = [(M.mul(a, b), M.mul(b, a))
                   for a in M.elements for b in M.elements]
        drawn = [(rng.randrange(M.size), rng.randrange(M.size)) for _ in range(2)]
        for pairs in (swapped, drawn):
            assert congruence_closure(M, pairs) == fixpoint(M, pairs), M.table


def test_ab_reg_is_commutative_quotient():
    q = ab_reg(flipflop1())
    assert is_commutative(q.quotient)
    assert is_hom_map(q.source, q.quotient, q.projection.images)


def test_ab_reg_of_commutative_is_the_regular_retract():
    """On a commutative monoid the pairs (ab, ba) merge nothing, and the
    classes are those of a -> a*d_a."""
    for M in (cyclic(5), null_extension(), monogenic(2, 1),
              direct_product(cyclic(2), null_extension())):
        retract = [M.mul(a, d_of(M, a)) for a in M.elements]
        q = ab_reg(M)
        for a in M.elements:
            for b in M.elements:
                assert (q.class_of[a] == q.class_of[b]) == (retract[a] == retract[b])


def test_ab_reg_image_of_null_extension_is_regular():
    q = ab_reg(null_extension())
    assert is_completely_regular(q.quotient)
    assert q.quotient.size == 2


def test_ab_reg_of_commutative_regular_is_identity():
    for M in (cyclic(6), semilattice_chain(3),
              direct_product(cyclic(2), semilattice_chain(2))):
        q = ab_reg(M)
        assert q.quotient.size == M.size
        assert sorted(set(q.class_of)) == list(range(M.size))


def test_ab_reg_monogenic_collapses_to_semilattice():
    # e, a, a^2 with a^3 = a^2: the regular part is {e, a^2}
    M = monogenic(2, 1)
    q = ab_reg(M)
    assert q.quotient.size == 2
    assert is_semilattice(q.quotient)


def test_ab_reg_flipflop_is_commutative_regular():
    q = ab_reg(flipflop1())
    assert is_commutative(q.quotient)
    assert is_completely_regular(q.quotient)
    assert verify_universal_property(q, [cyclic(2), semilattice_chain(2),
                                         cyclic(3)])


def test_universal_property_rejects_bad_targets():
    q = ab_reg(cyclic(3))
    with pytest.raises(TargetNotRegularCommutative):
        verify_universal_property(q, [null_extension()])
    with pytest.raises(TargetNotRegularCommutative):
        verify_universal_property(q, [flipflop1()])


def test_universal_property_detects_wrong_quotient():
    # collapsing a group to a point is not its commutative regularization:
    # the identity hom does not factor through it
    from monoidpcsp.regularize import _quotient_from_roots
    M = cyclic(3)
    q = _quotient_from_roots(M, congruence_closure(M, [(0, 1)]))
    assert q.quotient.size == 1
    assert not verify_universal_property(q, [cyclic(3)])


def factors_by_lifting(q, T):
    """The lift definition of the universal property: every hom from
    q.source into T is constant on the classes of q.projection."""
    return all(len({f(a) for a in q.source.elements if q.class_of[a] == c}) == 1
               for f in enumerate_homs(q.source, T)
               for c in range(q.quotient.size))


def test_universal_property_matches_the_lift_definition():
    """On ab_reg and on the one-class quotient of each monoid of
    monoid_sweep(3), against each target of commutative_regular_sweep(3),
    the comparison of hom sets agrees with lifting each hom by hand."""
    from monoidpcsp.regularize import _quotient_from_roots
    targets = commutative_regular_sweep(3)
    verdicts = set()
    for M in monoid_sweep(3):
        collapsed = _quotient_from_roots(
            M, congruence_closure(M, [(0, a) for a in M.elements]))
        assert collapsed.quotient.size == 1
        for q in (ab_reg(M), collapsed):
            for T in targets:
                verdict = verify_universal_property(q, [T])
                assert verdict == factors_by_lifting(q, T), (M.table, T.table)
                verdicts.add((q is collapsed, verdict))
    assert verdicts == {(False, True), (True, True), (True, False)}


def test_make_normal_form_validates_monotonicity():
    N = semilattice_chain(2)
    from monoidpcsp.zlinalg import lattice_from_generators
    zero = lattice_from_generators(1, [])
    with pytest.raises((ValidationError, MonoidError)):
        # support must shrink downward: lambda(identity) > lambda(bottom)
        make_normal_form(N, 1, [frozenset({0}), frozenset()],
                         [zero, zero], [1])


def all_pairs_verdict(N, q, lam, xi, anchors):
    """The error make_normal_form raises, or None, with monotonicity checked
    on every pair a <= b of the semilattice."""
    pairs = [(a, b) for a in N.elements for b in N.elements
             if semilattice_leq(N, a, b)]
    if any(not lam[b] <= lam[a] for a, b in pairs):
        return "coordinate supports are not monotone"
    if any(row[j] for d in N.elements for row in xi[d].basis
           for j in range(q) if j not in lam[d]):
        return "relation lattice not supported on lam(d)"
    if any(not lattice_member(list(row), xi[a])
           for a, b in pairs for row in xi[b].basis):
        return "relation lattices are not monotone"
    if any(alpha not in lam[d] for alpha, d in enumerate(anchors)):
        return "anchor"
    return None


def test_covering_pairs_are_the_pairs_with_nothing_between():
    semilattices = [to_normal_form(M).nf.semilattice
                    for M in commutative_regular_sweep(4)]
    semilattices += [semilattice_chain(5),
                     direct_product(semilattice_chain(2), semilattice_chain(3))]
    for N in semilattices:
        less = {(a, b) for a in N.elements for b in N.elements
                if a != b and semilattice_leq(N, a, b)}
        covers = {(a, b) for a, b in less
                  if not any((a, c) in less and (c, b) in less for c in N.elements)}
        assert sorted(covering_pairs(N)) == sorted(covers)


def test_monotonicity_on_covers_agrees_with_all_pairs():
    """On the normal forms of the commutative completely regular monoids of
    order up to 4, and on seeded corruptions of their lambda and xi, the
    verdict of make_normal_form is the all-pairs one."""
    rng = random.Random(37)
    verdicts = set()
    for M in commutative_regular_sweep(4):
        NF = to_normal_form(M).nf
        N, q = NF.semilattice, NF.num_coords
        for trial in range(12):
            lam, xi = list(NF.lam), list(NF.xi)
            if trial:
                d, e = rng.randrange(N.size), rng.randrange(N.size)
                k = rng.randrange(3)
                if k == 0:
                    lam[d], lam[e] = lam[e], lam[d]
                elif k == 1:
                    xi[d], xi[e] = xi[e], xi[d]
                else:
                    gen = [rng.randint(-2, 2) if j in lam[d] else 0
                           for j in range(q)]
                    xi[d] = lattice_from_generators(q, [gen])
            want = all_pairs_verdict(N, q, lam, xi, NF.anchors)
            try:
                make_normal_form(N, q, lam, xi, NF.anchors)
                got = None
            except MonoidError as e:
                got = str(e)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.startswith(want)
            verdicts.add(want)
    assert {None, "coordinate supports are not monotone",
            "relation lattices are not monotone"} <= verdicts


def test_integers_nf_arithmetic():
    Z = integers_nf()
    one = nf_generator(Z, 0)
    two = Z.mul(one, one)
    assert two.v == (2,)
    assert nf_power(Z, one, 5) == nf_element(Z, 0, [5])
    assert Z.mul(two, nf_power(Z, two, -1)) == Z.identity
    assert nf_power(Z, two, 0) == Z.identity
    assert two != one


def test_to_normal_form_cyclic3():
    M = cyclic(3)
    iso = to_normal_form(M)
    NF = iso.nf
    assert NF.semilattice.size == 1
    assert NF.num_coords == 1
    assert NF.xi[0].basis == ((3,),)
    a = nf_generator(NF, 0)
    assert NF.mul(nf_power(NF, a, 2), nf_power(NF, a, 2)) == nf_power(NF, a, 1)


def test_to_normal_form_round_trip():
    for M in (cyclic(3), cyclic(6), semilattice_chain(3),
              direct_product(cyclic(2), semilattice_chain(2)),
              direct_product(cyclic(2), cyclic(3))):
        iso = to_normal_form(M)
        for a in M.elements:
            assert iso.decode(iso.encode(a)) == a
        for a in M.elements:
            for b in M.elements:
                lhs = iso.encode(M.mul(a, b))
                rhs = iso.nf.mul(iso.encode(a), iso.encode(b))
                assert lhs == rhs


def test_lambda_from_the_idempotent_order_agrees_with_green_leq():
    """On a commutative completely regular M, an idempotent e lies in gM
    exactly when e*e_g = e; green_leq is the reference.  to_normal_form
    reads lambda from the walk's edges: g_k is in lam(d) when an edge
    a -> a*g_k keeps the idempotent d."""
    pairs = 0
    for M in commutative_regular_sweep(6):
        for e in idempotents(M):
            for g in M.elements:
                assert (M.mul(e, d_of(M, g)) == e) == green_leq(M, e, g)
                pairs += 1
        iso = to_normal_form(M)
        for d, od in enumerate(iso.idem_of_new):
            assert iso.nf.lam[d] == {alpha for alpha, g in enumerate(iso.generators)
                                     if green_leq(M, od, g)}
    assert pairs == 732


def box_normal_form(M):
    """The normal form read off evaluation boxes, a reference for
    to_normal_form: lam(d) holds the generators g with d*e_g = d, xi(d) is
    spanned by the vectors m*e_g for g's order m in d's group and by the
    points of the box prod(range(m)) that evaluate to d, and each element
    is encoded by the first box point that evaluates to it."""
    gens = generator_walk(M)[0]
    q = len(gens)
    N, idem_of_new, new_of_idem = submonoid(M, idempotents(M))
    lam = [frozenset(alpha for alpha, g in enumerate(gens)
                     if M.mul(od, d_of(M, g)) == od) for od in idem_of_new]
    xi = []
    encode_of = {}
    for d, od in enumerate(idem_of_new):
        supp = sorted(lam[d])
        gs = [M.mul(od, gens[alpha]) for alpha in supp]
        orders = [len(power_walk(M, g)) for g in gs]
        kernel_gens = []
        for alpha, m in zip(supp, orders):
            vec = [0] * q
            vec[alpha] = m
            kernel_gens.append(vec)
        for expo in product(*(range(m) for m in orders)):
            val = eval_exponents(M, od, gs, expo)
            vec = [0] * q
            for alpha, n in zip(supp, expo):
                vec[alpha] = n
            if val == od and any(expo):
                kernel_gens.append(vec)
            encode_of.setdefault(val, (d, vec))
        xi.append(lattice_from_generators(q, kernel_gens))
    NF = make_normal_form(N, q, lam, xi, [new_of_idem[d_of(M, g)] for g in gens])
    return NFIsomorphism(M, NF, tuple(gens), tuple(idem_of_new),
                         tuple(nf_element(NF, *encode_of[a]) for a in M.elements))


def test_to_normal_form_matches_the_evaluation_boxes():
    """The relators of the walk's closed edges span the same relation
    lattices as the boxes, so the whole isomorphism, encode table
    included, is the same record."""
    monoids = commutative_regular_sweep(6, unique=True) + [
        direct_product(semilattice_chain(3), cyclic(2)),
        direct_product(cyclic(3), semilattice_chain(2)),
        direct_product(cyclic(6), semilattice_chain(3)),
        direct_product(direct_product(cyclic(2), semilattice_chain(3)),
                       semilattice_chain(2)),
        direct_product(cyclic(2), semilattice_chain(16)),
    ] + [clifford(t) for t in range(7)]
    for M in monoids:
        assert to_normal_form(M) == box_normal_form(M)


def test_to_normal_form_of_a_clifford_monoid_is_fast(deadline):
    """C_24's 24 generators of order 2 meet in one group of two elements,
    where an evaluation box would list 2^24 exponent vectors."""
    M = clifford(24)
    with deadline(2):
        iso = to_normal_form(M)
    assert all(iso.decode(iso.encode(a)) == a for a in M.elements)


def test_to_normal_form_trivial():
    M = FiniteMonoid(((0,),), 0)
    iso = to_normal_form(M)
    assert iso.nf.num_coords == 0
    assert iso.nf.semilattice.size == 1


def test_nf_semilattice_element():
    M = semilattice_chain(2)
    iso = to_normal_form(M)
    NF = iso.nf
    d = iso.encode(1).d
    e = nf_element(NF, d, [0] * NF.num_coords)
    assert NF.mul(e, e) == e


def test_nf_homs_integers_to_cyclic():
    Z = integers_nf()
    homs = nf_homs_to_finite(Z, cyclic(4))
    images = sorted(h.gen_images[0] for h in homs)
    assert images == [0, 1, 2, 3]


def test_nf_homs_cyclic3_to_cyclic2_is_constant():
    iso = to_normal_form(cyclic(3))
    homs = nf_homs_to_finite(iso.nf, cyclic(2))
    assert len(homs) == 1
    assert homs[0].gen_images == (0,)


def test_nf_homs_to_trivial():
    iso = to_normal_form(direct_product(cyclic(2), semilattice_chain(2)))
    homs = nf_homs_to_finite(iso.nf, FiniteMonoid(((0,),), 0))
    assert len(homs) == 1


def test_nf_homs_complete_against_enumeration():
    """Homs out of the normal form biject with homs out of the source."""
    sources = [cyclic(3), cyclic(4), semilattice_chain(3),
               direct_product(cyclic(2), semilattice_chain(2))]
    targets = [cyclic(2), cyclic(6), semilattice_chain(2), flipflop1(),
               null_extension()]
    for M in sources:
        iso = to_normal_form(M)
        for F in targets:
            direct = {tuple(h.images) for h in enumerate_homs(M, F)}
            via_nf = set()
            for h in nf_homs_to_finite(iso.nf, F):
                via_nf.add(tuple(h(iso.encode(a)) for a in M.elements))
            assert via_nf == direct


def reference_nf_homs(NF, F):
    """The product-and-filter definition of the homs NF -> F, as sorted
    (phi_images, gen_images) pairs: each semilattice hom phi into commuting
    idempotents, and each tuple of regular generator images in the subgroups
    phi(anchor) that commute with each other and with phi's images and
    satisfy every relation-lattice identity."""
    idem_F = idempotents(F)
    regular_of = {}
    for a in F.elements:
        e = d_of(F, a)
        if F.mul(e, a) == a:
            regular_of.setdefault(e, []).append(a)
    out = []
    for phi in enumerate_homs(NF.semilattice, F):
        phis = phi.images
        if not (set(phis) <= idem_F and commute(F, phis, phis)):
            continue
        for gens in product(*(regular_of[phis[d]] for d in NF.anchors)):
            if commute(F, gens, gens + phis) and all(
                    eval_exponents(F, phis[d], gens, row) == phis[d]
                    for d in NF.semilattice.elements for row in NF.xi[d].basis):
                out.append((phis, gens))
    return sorted(out)


def test_nf_homs_match_the_product_and_filter_definition():
    """On sweep normal forms with a non-zero relation lattice, on intro_M,
    and on Z/2 x chain2 with the chain's bottom no anchor (so g_alpha must
    be tested against phi's images, not just the other g), nf_homs_to_finite
    gives the reference list in the same order, into every sweep monoid of
    size at most 4, non-commutative ones included."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "monoidpcsp", "data", "intro_M.nf")
    with open(path, encoding="utf-8") as fh:
        sources = [parse_template(fh.read()).carrier]
    two = lattice_from_generators(1, [[2]])
    sources.append(make_normal_form(semilattice_chain(2), 1, [{0}, {0}],
                                    [two, two], [0]))
    for M in commutative_regular_sweep(5, unique=True):
        NF = to_normal_form(M).nf
        if any(NF.xi[d].basis for d in NF.semilattice.elements):
            sources.append(NF)
    targets = monoid_sweep(4, unique=True)
    assert len(sources) > 5
    assert any(F.table == flipflop1().table for F in targets)
    for NF in sources:
        for F in targets:
            got = [(h.phi_images, h.gen_images) for h in nf_homs_to_finite(NF, F)]
            assert got == reference_nf_homs(NF, F)
