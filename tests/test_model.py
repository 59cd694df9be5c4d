import random
from itertools import product

import pytest

from monoidpcsp.classify import classify, classify_via_abreg
from monoidpcsp.core import CartesianPower, cyclic, semilattice_chain
from monoidpcsp.cosets import coset_closure, is_coset
from monoidpcsp.errors import (
    ArityMismatch,
    BudgetExceeded,
    NotACoset,
    ParseError,
    TooLarge,
    ValidationError,
)
from monoidpcsp import model
from monoidpcsp.model import (
    Identity,
    Product,
    Relation,
    check_assignment,
    is_nf_template,
    make_finite_template,
    make_instance,
    make_nf_template,
    oracle_solve,
    parse_carrier,
    parse_instance,
    parse_template,
    serialize_instance,
)
from monoidpcsp.polymorph import (
    all_table_polymorphisms,
    find_block_symmetric,
    is_satisfiable_in_pol,
    make_minor_condition,
    parse_minor_condition,
    pmc_reduce,
)
from monoidpcsp.regularize import nf_element, to_normal_form
from monoidpcsp.solver import finite_template_to_nf
from monoidpcsp.sweep import commutative_regular_sweep
from conftest import intro_instance, intro_nf_template, nonconstant_triples


def test_make_instance_rejects_bad_indices():
    with pytest.raises(ValidationError):
        make_instance(2, [Product(0, 1, 2)])
    with pytest.raises(ValidationError):
        make_instance(1, [Identity(-1)])
    with pytest.raises(ValidationError):
        make_instance(-2, [])


def test_make_instance_refuses_a_variable_count_over_the_bound():
    """Every pass over an instance sizes its lists by the variable count,
    so the count is bounded before anything is allocated."""
    with pytest.raises(TooLarge):
        make_instance(10**12, [])
    bound = model.MAX_VARIABLES
    assert make_instance(bound, []).var_count == bound
    with pytest.raises(TooLarge):
        make_instance(bound + 1, [])


def test_make_finite_template_validates_tuples():
    M = cyclic(3)
    T = make_finite_template(M, 2, [(0, 1), (1, 2)])
    assert not is_nf_template(T)
    with pytest.raises(ValidationError):
        make_finite_template(M, 2, [(0, 5)])


def test_nf_template_block_membership():
    T = intro_nf_template()
    Z = T.carrier
    triple = [nf_element(Z, 0, [a]) for a in (4, -1, 1)]  # sum 4 = 1 mod 3
    assert tuple(triple) in T.relation
    bad = [nf_element(Z, 0, [a]) for a in (1, 1, 1)]  # sum 3 = 0 mod 3
    assert tuple(bad) not in T.relation


def test_check_assignment_finite():
    M = cyclic(4)
    T = make_finite_template(M, 1, [(2,)])
    I = make_instance(3, [Product(0, 0, 1), Relation((1,)), Identity(2)])
    assert check_assignment(T, I, [1, 2, 0])
    assert check_assignment(T, I, [3, 2, 0])
    assert not check_assignment(T, I, [1, 2, 1])
    assert not check_assignment(T, I, [2, 2, 0])


def test_check_assignment_nf():
    # the relation holds iff the three integers sum to 1 mod 3
    T = intro_nf_template()
    Z = T.carrier

    def z(*ns):
        return [nf_element(Z, 0, [n]) for n in ns]

    I = make_instance(4, [Product(0, 1, 2), Identity(3), Relation((0, 1, 2))])
    assert check_assignment(T, I, z(4, -2, 2, 0))
    assert not check_assignment(T, I, z(4, -2, 5, 0))  # only the Product fails
    assert not check_assignment(T, I, z(4, -2, 2, 1))  # only the Identity fails
    assert not check_assignment(T, I, z(1, 2, 3, 0))   # only the Relation fails
    with pytest.raises(ArityMismatch):
        check_assignment(T, make_instance(2, [Relation((0, 1))]), z(0, 1))


def test_check_assignment_checks_arities_before_constraints():
    # the Identity fails first, and the wrong-arity REL is still refused
    T = make_finite_template(cyclic(4), 1, [(2,)])
    I = make_instance(2, [Identity(0), Relation((0, 1))])
    with pytest.raises(ArityMismatch):
        check_assignment(T, I, [1, 0])


def test_oracle_matches_exhaustive_search():
    rng = random.Random(5)
    for M in (cyclic(3), semilattice_chain(2)):
        for _ in range(40):
            n = rng.randint(1, 3)
            rel = [t for t in product(range(M.size), repeat=2)
                   if rng.random() < 0.5]
            if not rel:
                rel = [(0, 0)]
            T = make_finite_template(M, 2, rel)
            cs = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                if kind == 0:
                    cs.append(Product(rng.randrange(n), rng.randrange(n),
                                      rng.randrange(n)))
                elif kind == 1:
                    cs.append(Identity(rng.randrange(n)))
                else:
                    cs.append(Relation((rng.randrange(n), rng.randrange(n))))
            I = make_instance(n, cs)
            got = oracle_solve(T, I)
            brute = next((list(a) for a in product(M.elements, repeat=n)
                          if check_assignment(T, I, list(a))), None)
            assert (got is None) == (brute is None)
            if got is not None:
                assert check_assignment(T, I, got)


def test_oracle_budget():
    M = cyclic(5)
    T = make_finite_template(M, 1, [(1,)])
    I = make_instance(6, [Relation((i,)) for i in range(6)])
    with pytest.raises(BudgetExceeded):
        oracle_solve(T, I, budget=3)
    # one node per value tried: intro.inst over introN_9.mon visits 86
    T9 = make_finite_template(cyclic(9), 3, nonconstant_triples(9))
    assert oracle_solve(T9, intro_instance(), budget=86) == [0, 0, 1, 8, 0]
    with pytest.raises(BudgetExceeded):
        oracle_solve(T9, intro_instance(), budget=85)


def test_intro_instance_satisfiable_over_cyclic():
    I = intro_instance()
    for n in range(2, 7):
        T = make_finite_template(cyclic(n), 3, nonconstant_triples(n))
        assert oracle_solve(T, I) is not None


def test_parse_instance_round_trip():
    I = intro_instance()
    I2 = parse_instance(serialize_instance(I))
    assert I2 == I


def test_parse_keyword_carriers():
    T = parse_template("cyclic:4\nrel 1\ntuple 2\n")
    assert T.carrier.table == cyclic(4).table
    Z = parse_carrier("integers\n")
    assert Z.num_coords == 1


def test_parse_comments_and_errors():
    T = parse_template("# comment\ncyclic:2\nrel 1\ntuple 1 # trailing\n")
    assert T.relation == frozenset({(1,)})
    with pytest.raises(ParseError):
        parse_instance("instance x\n")
    with pytest.raises(ParseError):
        parse_instance("instance 2\nFOO 0\n")
    with pytest.raises((ParseError, ValidationError)):
        parse_template("cyclic:2\n")


def test_multi_rel_concatenation():
    text = "cyclic:2\nrel 1\ntuple 0\nrel 1\ntuple 0\ntuple 1\n"
    T = parse_template(text)
    assert T.arity == 2
    assert T.relation == frozenset({(0, 0), (0, 1)})


UNARY_COND = make_minor_condition([("f", 1)], [("g", 1)], [("f", "g", (0,))])

# each finite-only function with a normal-form carrier in a slot it refuses;
# F is a finite template and NF a normal-form one, both of arity 3
REFUSALS = {
    "oracle_solve": lambda F, NF: oracle_solve(NF, intro_instance()),
    "classify-rhs": lambda F, NF: classify(F, NF),
    "classify-both": lambda F, NF: classify(NF, NF),
    "classify_via_abreg-lhs": lambda F, NF: classify_via_abreg(NF, F),
    "classify_via_abreg-rhs": lambda F, NF: classify_via_abreg(F, NF),
    "find_block_symmetric-rhs": lambda F, NF: find_block_symmetric(F, NF, 1),
    "find_block_symmetric-both": lambda F, NF: find_block_symmetric(NF, NF, 1),
    "all_table_polymorphisms-lhs": lambda F, NF: all_table_polymorphisms(NF, F, 1),
    "all_table_polymorphisms-rhs": lambda F, NF: all_table_polymorphisms(F, NF, 1),
    "is_satisfiable_in_pol-lhs": lambda F, NF: is_satisfiable_in_pol(UNARY_COND, NF, F),
    "is_satisfiable_in_pol-rhs": lambda F, NF: is_satisfiable_in_pol(UNARY_COND, F, NF),
    "pmc_reduce-lhs": lambda F, NF: pmc_reduce(UNARY_COND, NF, F, 1),
    "pmc_reduce-rhs": lambda F, NF: pmc_reduce(UNARY_COND, F, NF, 1),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_finite_only_functions_refuse_nf_carriers(name):
    F = make_finite_template(cyclic(3), 3, nonconstant_triples(3))
    with pytest.raises(ValidationError, match="needs a finite carrier"):
        REFUSALS[name](F, intro_nf_template())


# a valid normal-form template over a one-element semilattice and one
# coordinate; each malformed variant below breaks one of its lines
NF_TEXT = ("nf\nsemilattice 1 0\n0\ncoords 1\nlambda 0 0\nanchor 0 0\n"
           "rel 1\nblock 1\nd 0\noffset 0\ngen 3\n")
FINITE_TEXT = "monoid 2 0\n0 1\n1 0\nrel 1\ntuple 1\n"
MC_TEXT = "sym f 1 U\nsym g 1 V\nedge f g 0\n"

MALFORMED = [
    (parse_template, FINITE_TEXT, "monoid 2 0", "monoid 2"),
    (parse_template, FINITE_TEXT, "1 0\n", "1\n"),
    (parse_template, FINITE_TEXT, "rel 1", "rel"),
    (parse_template, FINITE_TEXT, "rel 1", "rel 1 2"),
    (parse_template, FINITE_TEXT, "tuple 1", "tuple 1 0"),
    (parse_template, FINITE_TEXT, "tuple 1", "tuple 1\nfoo 0"),
    (parse_template, NF_TEXT, "coords 1", "coords"),
    (parse_template, NF_TEXT, "lambda 0 0", "lambda"),
    (parse_template, NF_TEXT, "lambda 0 0", "lambda 0 0 5 -3"),
    (parse_template, NF_TEXT, "anchor", "xi 0\nanchor"),
    (parse_template, NF_TEXT, "anchor", "xi 0 1\n1 2\nanchor"),
    (parse_template, NF_TEXT, "anchor 0 0", "anchor 0"),
    (parse_template, NF_TEXT, "block 1", "block"),
    (parse_template, NF_TEXT, "block 1", "block 1 2"),
    (parse_template, NF_TEXT, "d 0", "d 0 0"),
    (parse_template, NF_TEXT, "offset 0", "offset"),
    (parse_template, NF_TEXT, "gen 3", "gen 3 3"),
    (parse_instance, "instance 2\nMUL 0 0 1\n", "instance 2", "instance"),
    (parse_instance, "instance 2\nMUL 0 0 1\n", "MUL 0 0 1", "MUL 0 0"),
    (parse_instance, "instance 2\nMUL 0 0 1\n", "MUL 0 0 1", "ID"),
    (parse_instance, "instance 2\nMUL 0 0 1\n", "MUL 0 0 1", "REL 0 x"),
    (parse_minor_condition, MC_TEXT, "sym f 1 U", "sym f x U"),
    (parse_minor_condition, MC_TEXT, "sym f 1 U", "sym f 1"),
    (parse_minor_condition, MC_TEXT, "edge f g 0", "edge f g a b"),
    (parse_minor_condition, MC_TEXT, "edge f g 0", "edge f g"),
]


@pytest.mark.parametrize("parse, text, line, bad", MALFORMED,
                         ids=[bad for _, _, _, bad in MALFORMED])
def test_parsers_reject_malformed_lines(parse, text, line, bad):
    parse(text)
    with pytest.raises(ParseError):
        parse(text.replace(line, bad, 1))


def test_make_nf_template_refuses_exactly_the_non_cosets():
    """The coset rule of make_nf_template against cosets.is_coset.  Seeded
    random relations of arity 1 and 2 over the commutative regular monoids
    of size at most 5 have each d-tuple group closed to a coset, so the
    blocks, built as finite_template_to_nf builds them, are exactly the
    relation, and it is a coset exactly when the union of its groups is."""
    rng = random.Random(35)
    verdicts = {True: 0, False: 0}
    for M in commutative_regular_sweep(5, unique=True):
        iso = to_normal_form(M)
        for arity in (1, 2):
            power = CartesianPower(M, arity)
            tuples = list(product(M.elements, repeat=arity))
            for _ in range(60):
                groups = {}
                for t in rng.sample(tuples, rng.randint(1, min(4, len(tuples)))):
                    groups.setdefault(tuple(iso.encode(a).d for a in t), []).append(t)
                rel = frozenset().union(*(coset_closure(power, g).members
                                          for g in groups.values()))
                vecs = {}
                for t in sorted(rel):
                    enc = [iso.encode(a) for a in t]
                    vecs.setdefault(tuple(x.d for x in enc), []).append(
                        [a for x in enc for a in x.v])
                blocks = [(d_tuple, vs[0], [[a - b for a, b in zip(v, vs[0])]
                                            for v in vs[1:]])
                          for d_tuple, vs in sorted(vecs.items())]
                coset = is_coset(power, rel)
                try:
                    make_nf_template(iso.nf, arity, blocks)
                    refused = False
                except NotACoset:
                    refused = True
                assert refused != coset, (M.table, sorted(rel))
                verdicts[coset] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 200, verdicts


def test_the_coset_rule_tests_containment_over_generators(deadline):
    """The full ternary relation over the 8-element chain has 512 blocks,
    one per d-tuple.  Its d-tuples are generated by 22 of them, so the
    containments the rule tests are at most 512 * 22, not the 262 144
    pairs of blocks."""
    M = semilattice_chain(8)
    T = make_finite_template(M, 3, product(M.elements, repeat=3))
    with deadline(2):
        TN, _ = finite_template_to_nf(T)
    assert len(TN.relation.cosets) == 512
