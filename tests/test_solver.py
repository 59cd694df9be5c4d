import random
from collections import Counter
from itertools import product

import pytest

from monoidpcsp.core import (
    CartesianPower,
    cyclic,
    direct_product,
    is_semilattice,
    semilattice_chain,
)
from monoidpcsp.cli import assignment_rows
from monoidpcsp.cosets import coset_closure
from monoidpcsp.errors import NotACoset
from monoidpcsp.model import (
    Identity,
    Product,
    Relation,
    Template,
    check_assignment,
    make_finite_template,
    make_instance,
    make_nf_template,
    oracle_solve,
)
from monoidpcsp.regularize import integers_nf, nf_element
from monoidpcsp.solver import (
    build_sigma,
    finite_template_to_nf,
    minimal_homomorphism,
    projected_semilattice_template,
    solve_tractable,
)
from monoidpcsp.sweep import commutative_regular_sweep, monoid_sweep
from monoidpcsp.zlinalg import solve_congruences, solve_integer
from conftest import (
    clifford,
    greedy_set_is_larger,
    intro_instance,
    intro_m_template,
    intro_nf_template,
    planted_intro_instance,
)


def test_minimal_homomorphism_is_pointwise_least():
    N = semilattice_chain(3)
    # a coset of a semilattice is a sub-semilattice: the binary relation is
    # closed under the product of N^2, and it is not a product of two sets
    pairs = frozenset({(0, 0), (1, 2), (2, 1), (2, 2)})
    assert all((N.mul(a, c), N.mul(b, d)) in pairs
               for a, b in pairs for c, d in pairs)
    rng = random.Random(3)
    repeated = set()
    for TI in (Template(N, 1, frozenset({(0,), (1,)})), Template(N, 2, pairs)):
        for _ in range(60):
            n = rng.randint(1, 3)
            cs = []
            for _ in range(rng.randint(0, 3)):
                k = rng.randrange(3)
                if k == 0:
                    cs.append(Product(rng.randrange(n), rng.randrange(n),
                                      rng.randrange(n)))
                elif k == 1:
                    cs.append(Identity(rng.randrange(n)))
                else:
                    cs.append(Relation(tuple(rng.randrange(n)
                                             for _ in range(TI.arity))))
            repeated |= {type(c) for c in cs if len(set(c.vars)) < len(c.vars)}
            I = make_instance(n, cs)
            h = minimal_homomorphism(TI, I)
            sols = []
            for a in product(N.elements, repeat=n):
                ok = all(
                    (N.mul(a[c.x], a[c.y]) == a[c.z]) if isinstance(c, Product)
                    else (a[c.x] == N.identity) if isinstance(c, Identity)
                    else tuple(a[v] for v in c.vars) in TI.relation
                    for c in cs)
                if ok:
                    sols.append(a)
            if not sols:
                assert h is None
            else:
                assert h is not None
                assert tuple(h) in sols
                # least under the semilattice order a <= b iff ab = a
                for s in sols:
                    for x in range(n):
                        assert N.mul(h[x], s[x]) == h[x]
    # the draws repeat a variable in a MUL and in a binary REL
    assert repeated == {Product, Relation}


def sweep_minimal_homomorphism(TI, I, sweeps):
    """minimal_homomorphism as a plain sweep: narrow every constraint in
    turn, by the same rule, until a whole sweep changes no domain.  Appends
    the number of sweeps to the list sweeps."""
    N = TI.carrier
    domains = [set(N.elements) for _ in range(I.var_count)]

    def narrow(c):
        vs = c.vars
        if isinstance(c, Product):
            rows = [(a, b, N.mul(a, b)) for a in domains[c.x] for b in domains[c.y]
                    if N.mul(a, b) in domains[c.z]]
        elif isinstance(c, Identity):
            rows = [(N.identity,)]
        else:
            rows = [t for t in TI.relation
                    if all(a in domains[v] for v, a in zip(vs, t))]
        rows = [t for t in rows
                if all(t[i] == t[vs.index(v)] for i, v in enumerate(vs))]
        changed = False
        for i, v in enumerate(vs):
            keep = domains[v] & {t[i] for t in rows}
            changed |= keep != domains[v]
            domains[v] = keep
        return changed

    changed, count = True, 0
    while changed:
        changed, count = False, count + 1
        for c in I.constraints:
            changed |= narrow(c)
        if any(not d for d in domains):
            break
    sweeps.append(count)
    if any(not d for d in domains):
        return None
    h = [N.prod(sorted(domains[x])) for x in range(I.var_count)]
    return h if check_assignment(TI, I, h) else None


def test_the_worklist_reaches_the_sweep_fixpoint():
    """minimal_homomorphism's worklist gives the plain sweep's answer on
    seeded instances over every semilattice of monoid_sweep(4, unique=True),
    with random relations of arity 1 to 3 and every shape of MUL (x x z,
    x y x, x y y, x x x and distinct), ID and REL constraints (a REL may
    repeat a variable).  Some cases are unsatisfiable and some need the
    domains narrowed over several sweeps, so a worklist that did not narrow
    a constraint again after a domain of its variables shrank would give a
    different answer."""
    rng = random.Random(89)
    semilattices = [M for M in monoid_sweep(4, unique=True) if is_semilattice(M)]
    assert len(semilattices) == 5
    verdicts, sweeps = Counter(), []
    for N in semilattices:
        for arity in (1, 2, 3):
            tuples = list(product(N.elements, repeat=arity))
            for _ in range(25):
                TI = Template(N, arity, frozenset(
                    rng.sample(tuples, rng.randint(1, len(tuples)))))
                n = rng.randint(2, 7)
                cs = []
                for _ in range(rng.randint(1, 2 * n)):
                    x, y, z = (rng.randrange(n) for _ in range(3))
                    shape = rng.randrange(8)
                    if shape < 5:
                        cs.append(Product(*((x, x, z), (x, y, x), (x, y, y),
                                            (x, x, x), (x, y, z))[shape]))
                    elif shape == 5:
                        cs.append(Identity(x))
                    else:
                        cs.append(Relation(tuple(rng.choice((x, y, z))
                                                 for _ in range(arity))))
                I = make_instance(n, cs)
                h = minimal_homomorphism(TI, I)
                assert h == sweep_minimal_homomorphism(TI, I, sweeps), (N.table, TI, I)
                verdicts[h is not None] += 1
    assert verdicts[True] > 250 and verdicts[False] > 40, verdicts
    assert sum(k >= 3 for k in sweeps) > 40, Counter(sweeps)


def test_unsat_when_domains_empty():
    N = semilattice_chain(2)
    TI = Template(N, 1, frozenset({(1,)}))
    I = make_instance(1, [Relation((0,)), Identity(0)])
    assert minimal_homomorphism(TI, I) is None


def test_intro_instance_refuted_over_integers():
    T = intro_nf_template()
    assert solve_tractable(T, intro_instance()) is None


def test_simple_nf_instances():
    T = intro_nf_template()
    # a single relation constraint is satisfiable
    I = make_instance(3, [Relation((0, 1, 2))])
    sol = solve_tractable(T, I)
    assert sol is not None
    assert check_assignment(T, I, sol)
    # relation plus all-identity is unsat: (0,0,0) sums to 0, not 1 mod 3
    I2 = make_instance(3, [Relation((0, 1, 2)),
                           Identity(0), Identity(1), Identity(2)])
    assert solve_tractable(T, I2) is None


def test_empty_instance_is_satisfiable():
    T = intro_nf_template()
    I = make_instance(0, [])
    assert solve_tractable(T, I) == []


def test_projected_template_rejects_non_coset():
    N = direct_product(semilattice_chain(2), semilattice_chain(2))
    atoms = sorted(a for a in N.elements
                   if a != N.identity
                   and not all(N.mul(a, b) == a for b in N.elements))
    from monoidpcsp.regularize import to_normal_form
    iso = to_normal_form(N)
    NF = iso.nf
    q = NF.num_coords
    blocks = [((iso.encode(a).d,), list(iso.encode(a).v), []) for a in atoms]
    T = make_nf_template(NF, 1, blocks)
    with pytest.raises(NotACoset):
        projected_semilattice_template(T)


def seeded_instances(rng, count, max_vars, arity):
    out = []
    for _ in range(count):
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
                cs.append(Relation(tuple(rng.randrange(n)
                                         for _ in range(arity))))
        out.append(make_instance(n, cs))
    return out


def test_solver_agrees_with_oracle_on_coset_templates():
    rng = random.Random(17)
    monoids = [cyclic(4), semilattice_chain(2),
               direct_product(cyclic(2), semilattice_chain(2)), cyclic(6)]
    # templates over which the generator walk's greedy set is larger than
    # the least one
    greedy_larger = greedy_set_is_larger(commutative_regular_sweep(4, unique=True))
    assert len(greedy_larger) == 7
    monoids += greedy_larger
    monoids.append(direct_product(cyclic(2), cyclic(3)))
    for M in monoids:
        for arity in (1, 2):
            P = CartesianPower(M, arity)
            seeds = [tuple(rng.randrange(M.size) for _ in range(arity))
                     for _ in range(2)]
            rel = coset_closure(P, seeds).members
            T = make_finite_template(M, arity, rel)
            TN, iso = finite_template_to_nf(T)
            for I in seeded_instances(rng, 12, 4, arity):
                fast = solve_tractable(TN, I)
                slow = oracle_solve(T, I)
                assert (fast is None) == (slow is None), (M.table, I)
                # given the finite template itself, solve_tractable answers
                # over its carrier: the decoded normal-form answer
                finite = solve_tractable(T, I)
                if fast is None:
                    assert finite is None
                else:
                    decoded = [iso.decode(x) for x in fast]
                    assert check_assignment(T, I, decoded)
                    assert finite == decoded


def test_a_template_needing_eleven_generators_solves_at_once(deadline):
    """C2 x chain:11 has 22 elements and needs 11 generators; a search for
    the least generating set by increasing size would run for seconds."""
    T = make_finite_template(direct_product(cyclic(2), semilattice_chain(11)),
                             1, [(0,), (1,)])
    I = make_instance(4, [Relation((0,)), Relation((1,)),
                          Product(0, 1, 2), Product(2, 2, 3)])
    with deadline(1):
        assignment = solve_tractable(T, I)
        assert assignment is not None
        assert check_assignment(T, I, assignment)


def test_a_clifford_template_with_a_large_bottom_group_solves_at_once(deadline):
    """C_24's 24 generators of order 2 all meet in its bottom group, where
    an evaluation box would list 2^24 exponent vectors."""
    T = make_finite_template(clifford(24), 1, [(0,)])
    I = make_instance(2, [Relation((0,)), Product(0, 1, 1)])
    with deadline(2):
        assignment = solve_tractable(T, I)
        assert assignment is not None
        assert check_assignment(T, I, assignment)


def test_shuffled_planted_instances_solve(deadline):
    T = intro_m_template()
    rng = random.Random(29)
    for _ in range(6):
        I = planted_intro_instance(rng, rng.randint(24, 40))
        with deadline(10):
            sol = solve_tractable(T, I)
        assert sol is not None and check_assignment(T, I, sol)


def test_shuffled_planted_instance_at_scale(deadline):
    """The sparse presolve of the integer layer leaves the dense Hermite
    form a small core.  A dense Hermite form of the whole system took about
    40 s on this instance."""
    T = intro_m_template()
    I = planted_intro_instance(random.Random(41), 320)
    with deadline(5):
        sol = solve_tractable(T, I)
    assert sol is not None and check_assignment(T, I, sol)


def test_relation_d_tuples_under_the_least_hom_name_blocks():
    """Every REL constraint's d-tuple under minimal_homomorphism is a
    block's d-tuple: h passes check_assignment over the projected template,
    whose relation is exactly the blocks' d-tuples.  build_sigma reads each
    block by that d-tuple, with no path for a missing one."""
    rng = random.Random(5)
    cases = [(intro_m_template(),
              [planted_intro_instance(rng, rng.randint(6, 12)) for _ in range(6)])]
    for M in (semilattice_chain(2), semilattice_chain(3),
              direct_product(cyclic(2), semilattice_chain(2))):
        for arity in (1, 2):
            seeds = [tuple(rng.randrange(M.size) for _ in range(arity))
                     for _ in range(2)]
            rel = coset_closure(CartesianPower(M, arity), seeds).members
            TN, _ = finite_template_to_nf(make_finite_template(M, arity, rel))
            cases.append((TN, seeded_instances(rng, 20, 4, arity)))
    checked = {False: 0, True: 0}    # by whether the semilattice is trivial
    for T, instances in cases:
        blocks = {b.d_tuple for b in T.relation}
        for I in instances:
            h = minimal_homomorphism(projected_semilattice_template(T), I)
            if h is None:
                continue
            for c in I.constraints:
                if isinstance(c, Relation):
                    assert tuple(h[v] for v in c.vars) in blocks
                    checked[T.carrier.semilattice.size == 1] += 1
            build_sigma(T, I, h)
    assert checked[False] > 0 and checked[True] > 0


def generator_sigma(T, I, h):
    """Sigma written with one fresh multiplier per generator of each block
    lattice and each xi lattice: a REL tuple is offset + sum m_k * b_k
    coordinate by coordinate, a MUL residual is sum m_k * w_k.  Returns
    (matrix, rhs, cols) as solve_integer reads them."""
    NF = T.carrier
    q = NF.num_coords
    rows, cols = [], I.var_count * q
    blocks = {b.d_tuple: b.coset for b in T.relation}
    for x in range(I.var_count):
        rows += [({x * q + a: 1}, 0) for a in range(q) if a not in NF.lam[h[x]]]
    for c in I.constraints:
        if isinstance(c, Identity):
            rows += [({c.x * q + a: 1}, 0) for a in range(q)]
            continue
        if isinstance(c, Product):
            basis, offset = NF.xi[h[c.z]].basis, [0] * q
            slots = [(a, [(c.x, 1), (c.y, 1), (c.z, -1)]) for a in range(q)]
        else:
            coset = blocks[tuple(h[v] for v in c.vars)]
            basis, offset = coset.lattice.basis, coset.offset
            slots = [(a, [(v, 1)]) for v in c.vars for a in range(q)]
        for pos, (a, terms) in enumerate(slots):
            coeffs = {cols + k: -b[pos] for k, b in enumerate(basis)}
            for v, sign in terms:
                coeffs[v * q + a] = coeffs.get(v * q + a, 0) + sign
            rows.append((coeffs, offset[pos]))
        cols += len(basis)
    matrix = [tuple(sorted((j, a) for j, a in coeffs.items() if a)) for coeffs, _ in rows]
    return matrix, [r for _, r in rows], cols


def with_intro_gadget(I):
    """I with intro.inst on fresh variables: unsatisfiable over intro_M."""
    n, G = I.var_count, intro_instance()
    shifted = [Product(c.x + n, c.y + n, c.z + n) if isinstance(c, Product)
               else Relation(tuple(v + n for v in c.vars)) for c in G.constraints]
    return make_instance(n + G.var_count, list(I.constraints) + shifted)


def planted_instance(rng, T, n):
    """A satisfiable instance over the finite template T on n variables: a
    hidden assignment of tuples of T's relation and two identities, and
    REL, MUL and ID constraints that it meets, in a shuffled order."""
    M, tuples = T.carrier, sorted(T.relation)
    values = [a for _ in range(n) for a in rng.choice(tuples)][:n - 2]
    values += [M.identity, M.identity]
    by_value = {}
    for x, a in enumerate(values):
        by_value.setdefault(a, []).append(x)
    cs = [Identity(n - 2), Identity(n - 1)]
    while len(cs) < n:
        x, y = rng.randrange(n), rng.randrange(n)
        zs = by_value.get(M.mul(values[x], values[y]))
        if zs:
            cs.append(Product(x, y, rng.choice(zs)))
    present = [t for t in tuples if all(a in by_value for a in t)]
    cs += [Relation(tuple(rng.choice(by_value[a]) for a in rng.choice(present)))
           for _ in range(n // 2)]
    rng.shuffle(cs)
    return make_instance(n, cs)


def test_congruence_sigma_agrees_with_the_generator_sigma():
    """build_sigma and the generator-multiplier Sigma are solvable on the
    same instances: planted and shuffled intro_M instances, the same with
    intro.inst on fresh variables, random instances over an integer block
    of rank 2 in Z^3 (x + y + z = 1 and x + y = 0 mod 3, so one congruence
    is an equality), and planted and random instances over coset templates
    of the commutative completely regular monoids of
    monoid_sweep(4, unique=True).  No row of build_sigma is empty, every
    coefficient of v^x lies on lam(h[x]), and every x0 decodes through
    nf_element.

    solve_congruences reads each multiplier column as lying in exactly one
    row, as its last entry, with coefficient -d and d > 1; on every case it
    agrees with solve_integer on the whole Sigma, and its answer meets each
    equality row exactly and each congruence row mod its d."""
    rng = random.Random(59)
    intro = intro_m_template()
    planted = [planted_intro_instance(rng, rng.randint(6, 30)) for _ in range(12)]
    cases = [(intro, I) for I in planted]
    cases += [(intro, with_intro_gadget(I)) for I in planted[:6]]
    rank_two = make_nf_template(integers_nf(), 3, [
        ((0, 0, 0), [0, 0, 1], [[1, -1, 0], [0, 3, -3]])])
    cases += [(rank_two, I) for I in seeded_instances(rng, 40, 5, 3)]
    for M in commutative_regular_sweep(4, unique=True):
        for arity in (1, 2):
            seeds = [tuple(rng.randrange(M.size) for _ in range(arity))
                     for _ in range(2)]
            T = make_finite_template(
                M, arity, coset_closure(CartesianPower(M, arity), seeds).members)
            TN, _ = finite_template_to_nf(T)
            instances = [planted_instance(rng, T, rng.randint(4, 12)) for _ in range(3)]
            cases += [(TN, I) for I in instances + seeded_instances(rng, 6, 4, arity)]
    verdicts = {True: 0, False: 0}
    for T, I in cases:
        h = minimal_homomorphism(projected_semilattice_template(T), I)
        if h is None:
            continue
        system = build_sigma(T, I, h)
        q, NF = system.num_coords, T.carrier
        base = I.var_count * q
        assert all(system.matrix), I
        assert all(j % q in NF.lam[h[j // q]]
                   for row in system.matrix for j, _ in row if j < base), I
        multipliers = [row[-1] for row in system.matrix if row[-1][0] >= base]
        assert sorted(j for j, _ in multipliers) == \
            list(range(base, base + system.num_multipliers)), I
        assert all(a < -1 for _, a in multipliers), I
        assert all(j < base for row in system.matrix for j, _ in row[:-1]), I
        solved = solve_integer(system.matrix, system.rhs, base + system.num_multipliers)
        sat = solved is not None
        assert sat == (solve_integer(*generator_sigma(T, I, h)) is not None), I
        x = solve_congruences(system.matrix, system.rhs, base)
        assert (x is not None) == sat, I
        if sat:
            for row, r in zip(system.matrix, system.rhs):
                j, a = row[-1]
                value = sum(c * x[k] for k, c in row if k < base) - r
                assert (value % a if j >= base else value) == 0, I
            for v in (solved[0], x):
                for y in range(I.var_count):
                    nf_element(NF, h[y], v[y * q:(y + 1) * q])
        verdicts[sat] += 1
    assert verdicts[True] > 300 and verdicts[False] > 40, verdicts


def per_constraint_sigma(T, I, h):
    """build_sigma's rows written constraint by constraint, each from its
    lattice's congruences, with no pattern shared between constraints:
    (matrix, rhs, multipliers)."""
    NF = T.carrier
    q = NF.num_coords
    base = I.var_count * q
    rows, multipliers = [], 0
    blocks = {b.d_tuple: b.coset for b in T.relation}

    def add(coeffs, r):
        row = tuple(sorted((j, a) for j, a in coeffs.items() if a))
        if row or r:
            rows.append((row, r))

    for c in I.constraints:
        if isinstance(c, Identity):
            for alpha in NF.lam[h[c.x]]:
                add({c.x * q + alpha: 1}, 0)
            continue
        if isinstance(c, Product):
            lattice, offset = NF.xi[h[c.z]], ()
            terms = [(1, c.x, 0), (1, c.y, 0), (-1, c.z, 0)]
        else:
            coset = blocks[tuple(h[v] for v in c.vars)]
            lattice, offset = coset.lattice, coset.offset
            terms = [(1, v, i * q) for i, v in enumerate(c.vars)]
        for u, d in lattice.congruences:
            coeffs = {}
            for sign, x, start in terms:
                for alpha in NF.lam[h[x]]:
                    j = x * q + alpha
                    coeffs[j] = coeffs.get(j, 0) + sign * u[start + alpha]
            if d:
                coeffs[base + multipliers] = -d
                multipliers += 1
            add(coeffs, sum(a * b for a, b in zip(u, offset)))
    return tuple(r for r, _ in rows), tuple(b for _, b in rows), multipliers


def test_sigma_patterns_give_the_per_constraint_rows():
    """build_sigma, which writes each constraint from its shape's pattern,
    equals the Sigma written constraint by constraint, on planted and
    random instances over the four solve-finite carriers (c3xc2, z3xc2,
    z6xc3, z2xc3xc2, through finite_template_to_nf, whose lam is not
    constant) and over intro_M, every case also with REL x x y and
    MUL x x z constraints, which add up a repeated variable's
    coefficients."""
    rng = random.Random(97)
    chain, Z = semilattice_chain, cyclic
    shapes = [(direct_product(chain(3), chain(2)), 3),
              (direct_product(Z(3), chain(2)), 3),
              (direct_product(Z(6), chain(3)), 2),
              (direct_product(direct_product(Z(2), chain(3)), chain(2)), 2)]
    cases = [(intro_m_template(), planted_intro_instance(rng, rng.randint(6, 30)))
             for _ in range(10)]
    for M, arity in shapes:
        seeds = [tuple(rng.randrange(M.size) for _ in range(arity)) for _ in range(2)]
        T = make_finite_template(
            M, arity, coset_closure(CartesianPower(M, arity), seeds).members)
        TN, _ = finite_template_to_nf(T)
        assert len(set(TN.carrier.lam)) > 1
        cases += [(TN, planted_instance(rng, T, rng.randint(6, 24))) for _ in range(10)]
        cases += [(TN, I) for I in seeded_instances(rng, 30, 5, arity)]
    repeats = Counter()
    for T, I in cases:
        n, arity = I.var_count, T.arity
        for _ in range(3):
            x, y, z = (rng.randrange(n) for _ in range(3))
            extra = [Product(x, x, z),
                     Relation((x, x) + tuple(rng.randrange(n) for _ in range(arity - 2)))
                     if arity >= 2 else Relation((x,))]
            J = make_instance(n, list(I.constraints) + extra)
            for K in (I, J):
                h = minimal_homomorphism(projected_semilattice_template(T), K)
                if h is None:
                    continue
                system = build_sigma(T, K, h)
                assert (system.matrix, system.rhs, system.num_multipliers) == \
                    per_constraint_sigma(T, K, h), K
                repeats[K is J] += 1
    assert repeats[False] > 100 and repeats[True] > 100, repeats


def test_an_intro_m_relation_is_one_row_with_one_multiplier():
    """Over intro_M a REL is the one row x + y + z - 3m = 1, where a
    repeated variable adds up its coefficients; a MUL is the one row
    x + y - z = 0 and an ID the one row x = 0, with no multiplier."""
    T = intro_m_template()
    I = make_instance(3, [Relation((0, 1, 2)), Relation((0, 0, 2))])
    system = build_sigma(T, I, [0, 0, 0])
    assert system.num_multipliers == 2
    assert system.matrix == (((0, 1), (1, 1), (2, 1), (3, -3)),
                             ((0, 2), (2, 1), (4, -3)))
    assert system.rhs == (1, 1)
    I = planted_intro_instance(random.Random(61), 30)
    h = minimal_homomorphism(projected_semilattice_template(T), I)
    system = build_sigma(T, I, h)
    rels = sum(isinstance(c, Relation) for c in I.constraints)
    assert system.num_multipliers == rels
    assert len(system.matrix) == len(I.constraints)


def test_free_variables_cost_no_kernel(deadline):
    """With one ID constraint over 4000 variables nearly every column of
    Sigma is free; solve_tractable reads only x0, so no kernel vector of
    length cols is lifted.  Lifting all of them took about 3.3 s."""
    T = intro_m_template()
    I = make_instance(4000, [Identity(0)])
    with deadline(1):
        sol = solve_tractable(T, I)
    assert sol is not None and check_assignment(T, I, sol)


def integer_block_template(u, d, offset):
    """A template on the integers whose one block is the w with
    u.w = u.offset (mod d), for u[0] = 1: its lattice is spanned by d*e_0
    and e_i - u_i*e_0."""
    n = len(u)
    gens = [[d] + [0] * (n - 1)]
    gens += [[-u[i] if j == 0 else int(j == i) for j in range(n)] for i in range(1, n)]
    return make_nf_template(integers_nf(), n, [((0,) * n, list(offset), gens)])


def agrees_with_the_integer_path(T, I):
    """solve_tractable's verdict, checked against solve_integer on the
    whole Sigma."""
    h = minimal_homomorphism(projected_semilattice_template(T), I)
    system = build_sigma(T, I, h)
    cols = I.var_count * system.num_coords + system.num_multipliers
    sol = solve_tractable(T, I)
    assert (sol is None) == (solve_integer(system.matrix, system.rhs, cols) is None)
    assert sol is None or check_assignment(T, I, sol)
    return sol


def test_a_prime_power_sigma_is_refuted_only_mod_nine():
    """Over the integers with x + y + z = 3 (mod 9), ID e, R(x, x, x) and
    R(x, x, e) ask 3x = 3 and 2x = 3 (mod 9): x = 6 by the second, and then
    3x = 0.  Mod 3 both hold at x = 0, so only the 9 refutes it; a planted
    instance over the same template is solved."""
    T9 = integer_block_template((1, 1, 1), 9, (0, 0, 3))
    T3 = integer_block_template((1, 1, 1), 3, (0, 0, 3))
    I = make_instance(2, [Identity(0), Relation((1, 1, 1)), Relation((1, 1, 0))])
    assert agrees_with_the_integer_path(T9, I) is None
    assert agrees_with_the_integer_path(T3, I) is not None
    assert agrees_with_the_integer_path(T9, make_instance(2, [
        Identity(0), Relation((1, 1, 1))])) is not None
    rng = random.Random(79)
    for _ in range(10):
        n = rng.randint(4, 12)
        values, cs = [0] + [rng.randint(-9, 9) for _ in range(n - 1)], [Identity(0)]
        for _ in range(2 * n):
            x, y, z = (rng.randrange(n) for _ in range(3))
            if values[x] + values[y] == values[z]:
                cs.append(Product(x, y, z))
            if (values[x] + values[y] + values[z]) % 9 == 3:
                cs.append(Relation((x, y, z)))
        assert agrees_with_the_integer_path(T9, make_instance(n, cs)) is not None


def test_a_modulus_with_two_large_prime_factors_is_never_factored(deadline):
    """x + p*y = 1 (mod D) with p = 2^61 - 1 and D = p * (2^89 - 1), two
    Mersenne primes: a planted instance solves, and R(e, x) with e pinned to
    0 and x fresh asks p*x = 1 (mod D), which the pivot of gcd p with D
    refutes through its annihilator row.  Factoring D would not finish in
    the deadline."""
    p = 2 ** 61 - 1
    D = p * (2 ** 89 - 1)
    T = integer_block_template((1, p), D, (1, 0))
    (block,) = T.relation
    assert [d for _, d in block.coset.lattice.congruences] == [D]
    rng = random.Random(83)
    values, cs = [0], [Identity(0)]
    for v in range(1, 30):
        if rng.random() < 0.5:
            y = rng.randrange(v)
            values.append(1 - p * values[y])
            cs.append(Relation((v, y)))
        else:
            x, y = rng.randrange(v), rng.randrange(v)
            values.append(values[x] + values[y])
            cs.append(Product(x, y, v))
    rng.shuffle(cs)
    with deadline(1):
        assert agrees_with_the_integer_path(T, make_instance(30, cs)) is not None
        assert agrees_with_the_integer_path(
            T, make_instance(31, cs + [Relation((0, 30))])) is None


def test_finite_template_to_nf_preserves_relation():
    M = cyclic(6)
    rel = coset_closure(M, {1}).members
    T = make_finite_template(M, 1, [(a,) for a in rel])
    TN, iso = finite_template_to_nf(T)
    for a in M.elements:
        assert ((iso.encode(a),) in TN.relation) == ((a,) in T.relation)


def test_format_assignment_lines():
    T = intro_nf_template()
    I = make_instance(3, [Relation((0, 1, 2))])
    sol = solve_tractable(T, I)
    rows = assignment_rows(sol)
    assert len(rows) == 3
    assert " ".join(map(str, rows[0])).startswith("x0 = d:0 v:(")

    assert assignment_rows([1, 2]) == [("x0", "=", 1), ("x1", "=", 2)]
