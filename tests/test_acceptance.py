"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion before asserting,
so the harness output lists every criterion verdict at a glance.
"""

import io
import os
import random
import time
from contextlib import redirect_stdout
from itertools import combinations, product

from monoidpcsp.classify import classify, classify_via_abreg, sandwich_check
from monoidpcsp.cli import main as cli_main
from monoidpcsp.core import (
    CartesianPower,
    cyclic,
    is_completely_regular,
)
from monoidpcsp.cosets import (
    coset_closure,
    dagger_splitting_bound,
    splitting_index,
    tensor_power,
    verify_dagger_splitting,
)
from monoidpcsp.errors import PromiseViolation
from monoidpcsp.model import (
    Identity,
    Product,
    Relation,
    make_finite_template,
    make_instance,
    oracle_solve,
)
from monoidpcsp.polymorph import (
    find_block_symmetric,
    is_satisfiable_in_pol,
    is_trivial,
    make_minor_condition,
    pmc_reduce,
)
from monoidpcsp.regularize import ab_reg, verify_universal_property
from monoidpcsp.solver import finite_template_to_nf, solve_tractable
from monoidpcsp.sweep import (
    commutative_regular_sweep,
    commutative_sweep,
    monoid_sweep,
)
from monoidpcsp.zlinalg import hermite_normal_form, smith_normal_form
from conftest import intro_instance, intro_nf_template, nonconstant_triples

DATA = os.path.join(os.path.dirname(__file__), os.pardir,
                    "src", "monoidpcsp", "data")


def data(name):
    return os.path.join(DATA, name)


def report(num, name, ok, capsys=None):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_intro_dichotomy(capsys):
    """classify on the integer template vs Z/n non-constant triples is
    tractable exactly when 3 divides n, within 5 seconds."""
    t0 = time.monotonic()
    ok = True
    for n in range(2, 10):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["classify", "--lhs", data("intro_M.nf"),
                             "--rhs", data(f"introN_{n}.mon")])
        expected = 0 if n % 3 == 0 else 10
        if code != expected:
            ok = False
    elapsed = time.monotonic() - t0
    report(1, "intro dichotomy", ok and elapsed < 5.0, capsys)


def test_acceptance_2_intro_instance_facts(capsys):
    """The flattened equation instance is refuted over the integer template
    but satisfiable over Z/n non-constant triples for n in 2..6."""
    T = intro_nf_template()
    I = intro_instance()
    ok = solve_tractable(T, I) is None
    for n in range(2, 7):
        TN = make_finite_template(cyclic(n), 3, nonconstant_triples(n))
        ok = ok and oracle_solve(TN, I) is not None
    report(2, "intro instance facts", ok, capsys)


def _random_instance(rng, arity, max_vars=5):
    n = rng.randint(1, max_vars)
    cs = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(3)
        if k == 0:
            cs.append(Product(rng.randrange(n), rng.randrange(n),
                              rng.randrange(n)))
        elif k == 1:
            cs.append(Identity(rng.randrange(n)))
        else:
            cs.append(Relation(tuple(rng.randrange(n) for _ in range(arity))))
    return make_instance(n, cs)


def test_acceptance_3_oracle_equivalence(capsys):
    """Fast solver and brute-force oracle agree on satisfiability over every
    commutative regular sweep monoid of size <= 6, seeded coset relations of
    arity <= 2, and at least 200 instances per monoid, within 60 seconds."""
    t0 = time.monotonic()
    monoids = commutative_regular_sweep(6, unique=True)
    violations = 0
    checks = 0
    for mi, M in enumerate(monoids):
        rng = random.Random(1000 + mi)
        rels = []
        for arity in (1, 2):
            ops = M if arity == 1 else CartesianPower(M, arity)
            seen = set()
            for _ in range(12):
                if len(seen) >= 5:
                    break
                if arity == 1:
                    seed = frozenset(rng.randrange(M.size)
                                     for _ in range(rng.randint(1, 2)))
                else:
                    seed = frozenset(
                        tuple(rng.randrange(M.size) for _ in range(arity))
                        for _ in range(rng.randint(1, 2)))
                C = coset_closure(ops, seed).members
                if C not in seen:
                    seen.add(C)
                    rels.append((arity, C))
        per_rel = -(-210 // len(rels))  # at least 200 instances per monoid
        monoid_checks = 0
        for arity, C in rels:
            rel = [(t,) if arity == 1 else t for t in C]
            T = make_finite_template(M, arity, rel)
            TN, _ = finite_template_to_nf(T)
            for _ in range(per_rel):
                I = _random_instance(rng, arity)
                fast = solve_tractable(TN, I)
                slow = oracle_solve(T, I)
                monoid_checks += 1
                if (fast is None) != (slow is None):
                    violations += 1
        if monoid_checks < 200:
            violations += 1
        checks += monoid_checks
    elapsed = time.monotonic() - t0
    report(3, "oracle equivalence",
           violations == 0 and checks >= 200 * len(monoids) and elapsed < 60.0,
           capsys)


def test_acceptance_4_splitting(capsys):
    """Power splitting: [R]^xn = R^xn from the splitting index on, and the
    regular-part variant from the derived bound on, for every commutative
    sweep monoid of size <= 4 and every non-empty subset."""
    violations = 0
    for M in commutative_sweep(4, unique=True):
        if is_completely_regular(M):
            L = splitting_index(M)
            for mask in range(1, 1 << M.size):
                R = frozenset(a for a in M.elements if mask >> a & 1)
                C = coset_closure(M, R).members
                for n in range(L, L + 4):
                    if tensor_power(M, C, n) != tensor_power(M, R, n):
                        violations += 1
        K = dagger_splitting_bound(M)
        if not verify_dagger_splitting(M, K, K + 1):
            violations += 1
    report(4, "splitting", violations == 0, capsys)


def test_acceptance_5_universal_property(capsys):
    """The commutative regularization satisfies its universal property
    against every commutative regular target of size <= 4, and generator
    images generate the quotient."""
    from monoidpcsp.core import generated_subset, generator_walk
    targets = commutative_regular_sweep(4, unique=True)
    ok = True
    for M in monoid_sweep(4, unique=True):
        q = ab_reg(M)
        if not verify_universal_property(q, targets):
            ok = False
        for gens in (generator_walk(M)[0], list(M.elements)):
            images = {q.class_of[g] for g in gens}
            if generated_subset(q.quotient, images) != \
                    frozenset(q.quotient.elements):
                ok = False
    report(5, "regularization universal property", ok, capsys)


def test_acceptance_6_structure_suite(capsys):
    """Structure theory on the size <= 5 sweep: subgroup membership equals
    regularity, complete regularity equals the regular retraction being the
    identity, projection laws, inverse uniqueness, and minimality of the
    idempotent constant."""
    from monoidpcsp.core import (
        d_of,
        idempotent_constant,
        idempotents,
        inverse,
        is_commutative,
        is_hom_map,
        is_regular_element,
        pi_I,
        pi_dagger,
    )
    violations = 0
    for M in monoid_sweep(5, unique=True):
        idem = idempotents(M)
        for a in M.elements:
            # a lies in a subgroup iff some higher power returns to a
            in_subgroup = any(M.power(a, k) == a
                              for k in range(2, 2 * M.size + 3))
            if in_subgroup != is_regular_element(M, a):
                violations += 1
        reg_identity = all(M.mul(a, d_of(M, a)) == a for a in M.elements)
        if reg_identity != is_completely_regular(M):
            violations += 1
        C = idempotent_constant(M)
        if not all(M.power(a, C) in idem for a in M.elements):
            violations += 1
        if any(all(M.power(a, c) in idem for a in M.elements)
               for c in range(2, C)):
            violations += 1
        if is_commutative(M):
            for p in (pi_I(M), pi_dagger(M)):
                if not is_hom_map(M, M, p.images):
                    violations += 1
                if any(p(p(a)) != p(a) for a in M.elements):
                    violations += 1
            if is_completely_regular(M):
                for a in M.elements:
                    b = inverse(M, a)
                    cands = [c for c in M.elements
                             if M.mul(a, c) == d_of(M, a)
                             and M.mul(c, d_of(M, a)) == c
                             and d_of(M, c) == d_of(M, a)]
                    if cands != [b]:
                        violations += 1
    report(6, "structure theory suite", violations == 0, capsys)


def _unary_templates(M):
    out = []
    elems = list(M.elements)
    for r in range(1, len(elems) + 1):
        for rel in combinations(elems, r):
            out.append(make_finite_template(M, 1, [(a,) for a in rel]))
    return out


def test_acceptance_7_classifier_consistency(capsys):
    """Direct classification agrees with the regularize-first path on the
    exhaustive size <= 3 unary template sweep; tractable verdicts yield
    block symmetric polymorphisms at arities 3, 5, 7 and a valid sandwich."""
    templates = [T for M in monoid_sweep(3, unique=True)
                 for T in _unary_templates(M)]
    violations = 0
    pairs = 0
    for TA in templates:
        for TB in templates:
            pairs += 1
            try:
                c1 = classify(TA, TB)
            except PromiseViolation:
                c1 = None
            try:
                c2 = classify_via_abreg(TA, TB)
            except PromiseViolation:
                c2 = None
            if (c1 is None) != (c2 is None):
                violations += 1
                continue
            if c1 is None:
                continue
            if c1.verdict != c2.verdict:
                violations += 1
            if c1.verdict == "Tractable":
                if not sandwich_check(c1, TA, TB):
                    violations += 1
                for i in (1, 2, 3):
                    if find_block_symmetric(TA, TB, i) is None:
                        violations += 1
    report(7, "classifier consistency",
           violations == 0 and pairs == len(templates) ** 2, capsys)


def test_acceptance_8_integer_linear_algebra(capsys, solve_matrix):
    """On 500 seeded random matrices: normal form reconstruction identities,
    the divisibility chain, and agreement of the system solver with boxed
    brute force on the small-dimension subset."""

    def mat_mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
                 for j in range(len(B[0]))] for i in range(len(A))]

    rng = random.Random(99)
    failures = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        H, U = hermite_normal_form(A)
        if mat_mul(U, A) != [list(r) for r in H]:
            failures += 1
        P, S, Q = smith_normal_form(A)
        if mat_mul(mat_mul(P, A), Q) != [list(r) for r in S]:
            failures += 1
        # a square integer matrix is unimodular iff its Hermite form is I
        for M in (P, Q):
            if hermite_normal_form(M)[0] != [[int(i == j) for j in range(len(M))]
                                             for i in range(len(M))]:
                failures += 1
        diag = [S[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if (a and b % a != 0) or (not a and b):
                failures += 1
        if rows <= 3 and cols <= 3:
            b = [rng.randint(-5, 5) for _ in range(rows)]
            brute = next(
                (x for x in product(range(-6, 7), repeat=cols)
                 if all(sum(A[i][j] * x[j] for j in range(cols)) == b[i]
                        for i in range(rows))), None)
            got = solve_matrix(A, b)
            if brute is not None and got is None:
                failures += 1
            if got is not None:
                x0, _ = got
                if not all(sum(A[i][j] * x0[j] for j in range(cols)) == b[i]
                           for i in range(rows)):
                    failures += 1
    report(8, "integer linear algebra certificates", failures == 0, capsys)


def test_acceptance_9_pmc_reduction(capsys):
    """Minor condition reduction over the exhaustive two-element family at
    power 2: trivial conditions produce source-satisfiable instances, and
    conditions with no satisfying polymorphisms produce target-refuted
    instances."""
    from monoidpcsp.core import semilattice_chain

    conditions = []
    for phis in ([(0, 0)], [(0, 1)], [(1, 0)], [(0, 0), (1, 1)],
                 [(0, 1), (1, 0)], [(0, 0), (1, 0)]):
        edges = [("f", "g", phi) for phi in phis]
        conditions.append(make_minor_condition(
            [("f", 2)], [("g", 2)], edges))
    conditions.append(make_minor_condition(
        [("f", 2)], [("g", 1)], [("f", "g", (0, 0))]))
    conditions.append(make_minor_condition([("f", 1)], [("g", 1)], []))

    pairs = []
    for M in (cyclic(2), semilattice_chain(2)):
        for rel in ([(0,)], [(1,)], [(0,), (1,)]):
            T = make_finite_template(M, 1, rel)
            pairs.append((T, T))
    sum_odd = make_finite_template(
        cyclic(2), 3, [t for t in product(range(2), repeat=3)
                       if sum(t) % 2 == 1])
    pairs.append((sum_odd, sum_odd))

    violations = 0
    pol_unsat_seen = 0
    for relM, relN in pairs:
        for cond in conditions:
            I = pmc_reduce(cond, relM, relN, 2)
            if is_trivial(cond):
                if oracle_solve(relM, I) is None:
                    violations += 1
            if not is_satisfiable_in_pol(cond, relM, relN):
                pol_unsat_seen += 1
                if oracle_solve(relN, I) is not None:
                    violations += 1
    report(9, "pmc reduction contract",
           violations == 0 and pol_unsat_seen > 0, capsys)
