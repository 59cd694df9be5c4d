import functools
import os
import random
from collections import Counter
from itertools import combinations, product

import pytest

from monoidpcsp import regularize
from monoidpcsp.classify import (
    Classification,
    _try_witness,
    classify,
    classify_via_abreg,
    nf_hom_image,
    nf_relation_image,
    relation_preserving_homs,
    sandwich_check,
)
from monoidpcsp.core import (
    CartesianPower,
    FiniteMonoid,
    closed_under,
    cyclic,
    direct_product,
    eval_exponents,
    inverse,
    semilattice_chain,
    submonoid,
)
from monoidpcsp.cosets import coset_closure
from monoidpcsp.errors import ArityMismatch, PromiseViolation
from monoidpcsp.model import (
    Template,
    is_nf_template,
    make_finite_template,
    parse_template,
)
from monoidpcsp.regularize import (
    homs_into,
    nf_element,
    nf_homs_to_finite,
    to_normal_form,
)
from monoidpcsp.solver import finite_template_to_nf
from monoidpcsp.sweep import commutative_regular_sweep, monoid_sweep
from conftest import intro_nf_template, nonconstant_triples


DATA = os.path.join(os.path.dirname(__file__), os.pardir,
                    "src", "monoidpcsp", "data")


def data_template(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return parse_template(fh.read())


def intro_target(n):
    return make_finite_template(cyclic(n), 3, nonconstant_triples(n))


def test_intro_dichotomy():
    T = intro_nf_template()
    for n in range(2, 10):
        verdict = classify(T, intro_target(n)).verdict
        expected = "Tractable" if n % 3 == 0 else "NPHard"
        assert verdict == expected, n


def test_intro_tractable_witness_is_validated():
    T = intro_nf_template()
    c = classify(T, intro_target(6))
    assert c.verdict == "Tractable"
    assert sandwich_check(c, T, intro_target(6))


def test_trivial_pair_is_tractable():
    M = FiniteMonoid(((0,),), 0)
    T = make_finite_template(M, 1, [(0,)])
    c = classify(T, T)
    assert c.verdict == "Tractable"
    assert sandwich_check(c, T, T)


def test_a_template_needing_eleven_generators_classifies_at_once(deadline):
    """C2 x chain:11 has 22 elements and needs 11 generators; a search for
    the least generating set by increasing size would run for seconds."""
    T = make_finite_template(direct_product(cyclic(2), semilattice_chain(11)),
                             1, [(0,), (1,)])
    Z2 = make_finite_template(cyclic(2), 1, [(0,), (1,)])
    with deadline(1):
        c = classify(T, Z2)
        assert c.verdict == "Tractable"
        assert sandwich_check(c, T, Z2)


def test_nonconstant_triples_self_pair_is_np_hard():
    T = intro_target(3)
    assert classify(T, T).verdict == "NPHard"


def test_promise_violation():
    # the only hom Z/2 -> Z/3 is constant 0, which misses {1}
    TA = make_finite_template(cyclic(2), 1, [(1,)])
    TB = make_finite_template(cyclic(3), 1, [(1,)])
    with pytest.raises(PromiseViolation):
        classify(TA, TB)
    with pytest.raises(PromiseViolation):
        classify_via_abreg(TA, TB)


def test_arity_mismatch():
    TA = make_finite_template(cyclic(2), 1, [(0,)])
    TB = make_finite_template(cyclic(2), 2, [(0, 0)])
    with pytest.raises(ArityMismatch):
        classify(TA, TB)


def test_nf_hom_image_matches_pointwise_evaluation():
    T = intro_nf_template()
    target = intro_target(6)
    for h in relation_preserving_homs(T, target):
        image = nf_hom_image(h)
        from monoidpcsp.regularize import nf_element
        seen = {h(nf_element(T.carrier, 0, [k])) for k in range(-12, 13)}
        assert seen <= image


def test_nf_hom_image_is_the_image_of_every_element():
    # a finite S in normal form: the image is h applied to S's elements
    for S in commutative_regular_sweep(3, unique=True):
        iso = to_normal_form(S)
        for F in monoid_sweep(3, unique=True):
            for h in nf_homs_to_finite(iso.nf, F):
                assert nf_hom_image(h) == {h(iso.encode(a)) for a in S.elements}


def test_nf_relation_image_inside_target_relation():
    T = intro_nf_template()
    target = intro_target(3)
    homs = relation_preserving_homs(T, target)
    assert homs
    for h in homs:
        assert nf_relation_image(h, T) <= target.relation


def relation_image_by_definition(h, T):
    """h(R) per block as the image of the offset closed under the images W
    of the lattice generators and their inverses W^-1."""
    NF, F = h.source, h.target
    r, q = T.arity, NF.num_coords
    P = CartesianPower(F, r)
    out = set()
    for block in T.relation:
        o = tuple(h(nf_element(NF, block.d_tuple[i],
                               block.coset.offset[i * q:(i + 1) * q]))
                  for i in range(r))
        words = []
        for u in block.coset.lattice.basis:
            w = tuple(eval_exponents(F, F.identity, h.gen_images, u[i * q:(i + 1) * q])
                      for i in range(r))
            words += [w, tuple(inverse(F, a) for a in w)]
        out |= closed_under(P, (o,), words)
    return frozenset(out)


def test_nf_relation_image_matches_its_definition():
    """Closing under W alone gives the closure under W and W^-1: for every
    hom from intro_M.nf into introN_2..9, and from the normal forms of small
    commutative regular monoids, with a seeded coset relation, into every
    monoid of size at most 3."""
    T = data_template("intro_M.nf")
    cases = [(T, h) for n in range(2, 10)
             for h in nf_homs_to_finite(T.carrier, data_template(f"introN_{n}.mon").carrier)]
    rng = random.Random(14)
    for S in commutative_regular_sweep(3, unique=True):
        P = CartesianPower(S, 2)
        seeds = rng.sample(list(P.elements), rng.randint(1, 3))
        T, _ = finite_template_to_nf(
            make_finite_template(S, 2, coset_closure(P, seeds).members))
        cases += [(T, h) for F in monoid_sweep(3, unique=True)
                  for h in nf_homs_to_finite(T.carrier, F)]
    assert len(cases) > 100
    for T, h in cases:
        assert nf_relation_image(h, T) == relation_image_by_definition(h, T)


def unary_templates(M, max_rel=7):
    out = []
    elems = list(M.elements)
    for r in range(1, len(elems) + 1):
        for rel in combinations(elems, r):
            out.append(make_finite_template(M, 1, [(a,) for a in rel]))
    return out[:max_rel * 4]


def test_direct_and_regularized_paths_agree_on_small_pairs():
    monoids = monoid_sweep(2, unique=True) + [cyclic(3), semilattice_chain(3)]
    templates = [T for M in monoids for T in unary_templates(M)]
    checked = 0
    for TA in templates:
        for TB in templates:
            if TB.carrier.size > 3:
                continue
            try:
                c1 = classify(TA, TB).verdict
            except PromiseViolation:
                c1 = "PromiseViolation"
            try:
                c2 = classify_via_abreg(TA, TB).verdict
            except PromiseViolation:
                c2 = "PromiseViolation"
            assert c1 == c2, (TA, TB)
            checked += 1
    assert checked > 100


def filtered_over_every_hom(relM, relN):
    """relation_preserving_homs by its definition: every hom, its full
    relation image, and the filter on it."""
    homs = list(homs_into(relM.carrier, relN.carrier))
    return [h for h in homs if h.relation_image(relM) <= relN.relation], len(homs)


def test_relation_preserving_homs_matches_the_filter_over_every_hom():
    rng = random.Random(5)
    sweep = monoid_sweep(3, unique=True)
    products = [direct_product(cyclic(2), cyclic(2)),
                direct_product(cyclic(2), semilattice_chain(2)),
                direct_product(cyclic(3), cyclic(2))]
    pool = sweep + products
    cut = 0
    for _ in range(300):
        M, N = rng.choice(pool), rng.choice(pool)
        arity = rng.randint(1, 3)
        rel_M = {tuple(rng.randrange(M.size) for _ in range(arity))
                 for _ in range(rng.randint(1, 4))}
        rel_N = {tuple(rng.randrange(N.size) for _ in range(arity))
                 for _ in range(rng.randint(0, 4))}
        homs = homs_into(M, N)
        if rng.random() < 0.7:   # relN holds the image of relM under some hom
            h = rng.choice(homs)
            rel_N |= {tuple(h(a) for a in t) for t in rel_M}
        relM = make_finite_template(M, arity, rel_M)
        relN = make_finite_template(N, arity, rel_N)
        expected, _ = filtered_over_every_hom(relM, relN)
        assert relation_preserving_homs(relM, relN) == expected, (relM, relN)
        cut += 0 < len(expected) < len(homs)
    assert cut > 50


def seeded_coset_template(S, arity, rng):
    """A seeded coset relation of the given arity over the finite
    commutative regular monoid S."""
    P = CartesianPower(S, arity)
    elems = list(P.elements)
    seeds = rng.sample(elems, rng.randint(1, min(3, len(elems))))
    return make_finite_template(S, arity, coset_closure(P, seeds).members)


@functools.cache
def seeded_nf_corpus():
    """(pairs, twins), seeded: intro_M.nf into Z/1..Z/12 with the
    non-constant triples and with seeded relations, some of which hold a
    hom's full image, and the normal forms (up to three coordinates) of
    seeded coset templates of arity 1 and 2 over small commutative regular
    monoids into every monoid of size at most 3, Z/4 and C2 x C2.  twins
    holds (TF, TS, iso, relN) for the coset templates TF of arity 1 and 2,
    whose normal form TS is paired with relN in pairs."""
    rng = random.Random(25)
    T = data_template("intro_M.nf")
    pairs, twins = [], []
    for n in range(1, 13):
        pairs.append((T, intro_target(n)))
        homs = list(homs_into(T.carrier, cyclic(n)))
        cube = list(product(range(n), repeat=3))
        for _ in range(3):
            rel = set(rng.sample(cube, rng.randint(0, len(cube))))
            if rng.random() < 0.7:
                rel |= rng.choice(homs).relation_image(T)
            pairs.append((T, make_finite_template(cyclic(n), 3, rel)))
    for S in commutative_regular_sweep(3, unique=True):
        TS, _ = finite_template_to_nf(seeded_coset_template(S, 2, rng))
        for F in monoid_sweep(3, unique=True):
            square = list(product(F.elements, repeat=2))
            rel = set(rng.sample(square, rng.randint(0, len(square))))
            homs = list(homs_into(TS.carrier, F))
            if rng.random() < 0.7:
                rel |= rng.choice(homs).relation_image(TS)
            pairs.append((TS, make_finite_template(F, 2, rel)))
    targets = monoid_sweep(3, unique=True) + [
        cyclic(4), direct_product(cyclic(2), cyclic(2))]
    for S in commutative_regular_sweep(4, unique=True):
        for arity in (1, 2):
            TF = seeded_coset_template(S, arity, rng)
            TS, iso = finite_template_to_nf(TF)
            for F in targets:
                power = list(product(F.elements, repeat=arity))
                rel = set(rng.sample(power, rng.randint(0, len(power))))
                if rng.random() < 0.7:
                    rel |= rng.choice(list(homs_into(TS.carrier, F))).relation_image(TS)
                relN = make_finite_template(F, arity, rel)
                pairs.append((TS, relN))
                twins.append((TF, TS, iso, relN))
    return pairs, twins


def test_relation_preserving_homs_on_nf_matches_the_filter_over_every_hom():
    """The search that keeps a hom only when every block's image lies in
    relN loses no hom and keeps none that leaves relN, on the seeded
    normal-form corpus.  On its coset templates of arity 1 and 2, the
    finite search on the template keeps the same homs as the search on its
    normal form, each NF hom read through the isomorphism's encode."""
    pairs, twins = seeded_nf_corpus()
    for TF, TS, iso, relN in twins:
        finite = sorted(h.images for h in relation_preserving_homs(TF, relN))
        nf = sorted(tuple(h(iso.encode(a)) for a in TF.carrier.elements)
                    for h in relation_preserving_homs(TS, relN))
        assert finite == nf, (TF, relN)
    cut = 0
    for relM, relN in pairs:
        expected, count = filtered_over_every_hom(relM, relN)
        assert relation_preserving_homs(relM, relN) == expected, (relM, relN)
        cut += 0 < len(expected) < count
    assert cut > 120, cut


def eager_classify(relM, relN):
    """The eager reference for classify: the list of preserving homs, each
    tried as a witness with its full relation image, the first that passes
    taken."""
    nf = is_nf_template(relM)
    preserving = relation_preserving_homs(relM, relN)
    if not preserving and not nf:
        raise PromiseViolation("no relational homomorphism between the templates")
    for h in preserving:
        got = _try_witness(relN, h.image_set(), h.relation_image(relM))
        if got is not None:
            return Classification("Tractable", h, *got)
    return Classification("NPHard")


def outcome(classifier, relM, relN):
    try:
        return classifier(relM, relN)
    except PromiseViolation:
        return "PromiseViolation"


def finite_slice():
    """Seeded pairs of unary and binary templates over the monoids of size
    at most 3, each pair of carriers twice; most relN hold the image of relM
    under some hom."""
    rng = random.Random(31)
    sweep = monoid_sweep(3, unique=True)
    pairs = []
    for M, N in product(sweep, repeat=2):
        for arity in (1, 2):
            rel_M = {tuple(rng.randrange(M.size) for _ in range(arity))
                     for _ in range(rng.randint(1, 3))}
            rel_N = {tuple(rng.randrange(N.size) for _ in range(arity))
                     for _ in range(rng.randint(0, 4))}
            if rng.random() < 0.7:
                h = rng.choice(homs_into(M, N))
                rel_N |= {tuple(h(a) for a in t) for t in rel_M}
            pairs.append((make_finite_template(M, arity, rel_M),
                          make_finite_template(N, arity, rel_N)))
    return pairs


def intro_family():
    T = data_template("intro_M.nf")
    return [(T, intro_target(n)) for n in range(2, 13)]


def test_classify_matches_the_eager_reference():
    """The lazy search returns the eager reference's Classification
    (verdict, witness, sandwich and embedding), or raises where it raises,
    on the intro family Z/2..Z/12, the seeded normal-form corpus and a
    finite slice over the monoids of size at most 3."""
    seen = Counter()
    for relM, relN in intro_family() + seeded_nf_corpus()[0] + finite_slice():
        got = outcome(classify, relM, relN)
        assert got == outcome(eager_classify, relM, relN), (relM, relN)
        seen[getattr(got, "verdict", got)] += 1
    assert min(seen[k] for k in ("Tractable", "NPHard", "PromiseViolation")) > 20, seen


def test_relation_generators_have_the_relation_image_closure():
    """U' = h.relation_generators(T) lies in h(R), and inside h's image,
    which is commutative and completely regular for an NF hom, [U'] =
    [h(R)]: for every preserving NF hom on the intro family and the seeded
    normal-form corpus."""
    checked = 0
    for relM, relN in intro_family() + seeded_nf_corpus()[0]:
        for h in relation_preserving_homs(relM, relN):
            full = h.relation_image(relM)
            gens = h.relation_generators(relM)
            assert gens <= full, (h, relM)
            A, _, new_of_old = submonoid(h.target, h.image_set())
            P = CartesianPower(A, relM.arity)

            def closure(U):
                return coset_closure(P, {tuple(new_of_old[a] for a in t) for t in U})

            assert closure(gens) == closure(full), (h, relM)
            checked += len(gens) < len(full)
    assert checked > 100, checked


def test_classify_stops_at_the_first_witness(monkeypatch):
    """On intro_M against Z/9, the first hom (g = 0) leaves relN and the
    second (g = 1) is the witness: classify builds two block images where a
    search listing every preserving hom builds nine.  The list of
    relation_preserving_homs still holds every one of the eight."""
    built = []
    block_image = regularize._block_image

    def counting(*args, **kwargs):
        built.append(args[2])
        return block_image(*args, **kwargs)

    monkeypatch.setattr(regularize, "_block_image", counting)
    T, N = data_template("intro_M.nf"), data_template("introN_9.mon")
    assert classify(T, N).verdict == "Tractable"
    assert len(built) <= 2, built
    expected, count = filtered_over_every_hom(T, N)
    assert relation_preserving_homs(T, N) == expected
    assert (len(expected), count) == (8, 9)


def test_an_np_hard_intro_target_classifies_at_once(deadline):
    """intro_M.nf against Z/32 with the non-constant triples: every hom
    leaves relN, and each relation image stops at its first tuple outside
    it, where a full image has up to 32^3 tuples."""
    T = data_template("intro_M.nf")
    with deadline(1):
        assert classify(T, intro_target(32)).verdict == "NPHard"


def test_sandwich_check_rejects_corrupted_witness():
    T = intro_target(3)
    M = cyclic(3)
    TA = make_finite_template(M, 3, [t for t in product(range(3), repeat=3)
                                     if sum(t) % 3 == 1])
    c = classify(TA, T)
    assert c.verdict == "Tractable"
    assert sandwich_check(c, TA, T)
    smaller = frozenset(list(sorted(c.sandwich.relation))[1:])
    corrupted = type(c)(c.verdict, c.witness,
                        Template(c.sandwich.carrier, c.sandwich.arity, smaller),
                        c.sandwich_embedding)
    assert not sandwich_check(corrupted, TA, T)
