import random
from collections import Counter
from itertools import product

import pytest

from monoidpcsp import zlinalg
from monoidpcsp.errors import DimensionMismatch
from monoidpcsp.zlinalg import (
    Lattice,
    LatticeCoset,
    _solve_dense,
    _solve_mod,
    coset_member,
    hermite_normal_form,
    lattice_from_generators,
    lattice_member,
    reduce_mod_lattice,
    smith_normal_form,
    solve_congruences,
    solve_integer,
)
from monoidpcsp.regularize import to_normal_form
from monoidpcsp.solver import (
    build_sigma,
    minimal_homomorphism,
    projected_semilattice_template,
)
from monoidpcsp.sweep import commutative_regular_sweep
from conftest import intro_m_template, planted_intro_instance


def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def det(A):
    n = len(A)
    if n == 0:
        return 1
    if n == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] *
               det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(n))


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_hnf_reconstruction_and_shape():
    rng = random.Random(7)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = random_matrix(rng, rows, cols)
        H, U = hermite_normal_form(A)
        assert mat_mul(U, A) == [list(r) for r in H]
        assert abs(det(U)) == 1
        # echelon with positive pivots
        last = -1
        for row in H:
            nz = [j for j, v in enumerate(row) if v]
            if nz:
                assert nz[0] > last
                assert row[nz[0]] > 0
                last = nz[0]


# A fixed input on which an elimination that pivots on the smallest entry,
# without reducing the others, never returns.
SNF_STALL = [[8, 5, -2, -2, -6, 8], [-4, 3, 9, 6, 9, 5], [-9, 9, 6, -8, -6, -3],
             [-6, 9, 9, 6, -8, 4], [5, 8, 5, -8, 8, -2]]


def test_snf_reconstruction_and_divisibility(deadline):
    rng = random.Random(11)
    inputs = [SNF_STALL] + [random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
                            for _ in range(100)]
    for A in inputs:
        rows, cols = len(A), len(A[0])
        with deadline(10):
            P, S, Q = smith_normal_form(A)
        assert mat_mul(mat_mul(P, A), Q) == [list(r) for r in S]
        assert abs(det(P)) == 1 and abs(det(Q)) == 1
        diag = [S[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(i, len(diag)):
                assert S[i][j] == 0 or i == j
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_lattice_basis_is_the_nonzero_hermite_rows():
    rng = random.Random(17)
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        G = random_matrix(rng, rows, cols)
        H = hermite_normal_form(G)[0] if G else []
        assert lattice_from_generators(cols, G).basis == \
            tuple(tuple(r) for r in H if any(r))


def test_lattice_basis_builds_no_transform(monkeypatch):
    widths = []
    echelon = zlinalg._echelon

    def spy(rows, width):
        widths.extend(len(r) for r in rows)
        return echelon(rows, width)

    monkeypatch.setattr(zlinalg, "_echelon", spy)
    lattice_from_generators(4, random_matrix(random.Random(19), 9, 4))
    assert widths == [4] * 9


def test_snf_known_values():
    _, S, _ = smith_normal_form([[1, 0], [0, 1]])
    assert [S[0][0], S[1][1]] == [1, 1]
    _, S, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [S[0][0], S[1][1]] == [2, 4]
    _, S, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]


def test_snf_invariant_under_unimodular_factors():
    rng = random.Random(13)
    A = [[2, 4, 0], [0, 6, 2], [2, 2, 2]]
    _, S0, _ = smith_normal_form(A)
    for _ in range(20):
        B = random_matrix(rng, 3, 3, -2, 2)
        _, P, _ = smith_normal_form(B)  # not used, just exercise
        E = [[1 if i == j else rng.randint(-1, 1) * (i < j)
              for j in range(3)] for i in range(3)]
        _, S1, _ = smith_normal_form(mat_mul(E, A))
        assert [r[:] for r in S1] == [r[:] for r in S0]


def test_solve_integer_examples(solve_matrix):
    x0, K = solve_matrix([[2]], [4])
    assert x0 == [2] and K == []
    assert solve_matrix([[2]], [3]) is None
    x0, K = solve_matrix([[1, 1]], [5])
    assert sum(x0) == 5
    assert len(K) == 1 and sum(K[0]) == 0 and K[0] != [0, 0]


def test_solve_integer_against_boxed_brute_force(solve_matrix):
    rng = random.Random(23)
    for _ in range(120):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = random_matrix(rng, rows, cols, -5, 5)
        b = [rng.randint(-5, 5) for _ in range(rows)]
        boxed = [list(x) for x in product(range(-6, 7), repeat=cols)
                 if all(sum(A[i][j] * x[j] for j in range(cols)) == b[i]
                        for i in range(rows))]
        got = solve_matrix(A, b)
        if boxed:
            assert got is not None
            x0, K = got
            assert all(sum(A[i][j] * x0[j] for j in range(cols)) == b[i]
                       for i in range(rows))
            for k in K:
                assert all(sum(A[i][j] * k[j] for j in range(cols)) == 0
                           for i in range(rows))
            # the kernel basis spans: every solution is x0 plus a member
            rank = sum(any(r) for r in hermite_normal_form(A)[0])
            assert len(K) == cols - rank
            L = lattice_from_generators(cols, K)
            assert all(lattice_member([a - c for a, c in zip(x, x0)], L)
                       for x in boxed)
        elif got is not None:
            # a solution may exist outside the box; verify it is genuine
            x0, _ = got
            assert all(sum(A[i][j] * x0[j] for j in range(cols)) == b[i]
                       for i in range(rows))
            assert any(abs(v) > 6 for v in x0)


def sparse_matrix(rng, rows, cols):
    """Mostly zero, mostly +-1, with some entries of 2 or 3."""
    entries = [1, -1, 1, -1, 1, -1, 2, -2, 3, -3]
    return [[rng.choice(entries) if rng.random() < 0.35 else 0
             for _ in range(cols)] for _ in range(rows)]


def kernel_hnf(cols, K):
    return lattice_from_generators(cols, K).basis


def check_solution(A, b, got):
    """got is a solution with a kernel basis of the right size."""
    cols = len(A[0])
    x0, K = got
    assert [sum(a * x for a, x in zip(row, x0)) for row in A] == list(b)
    for k in K:
        assert len(k) == cols
        assert not any(sum(a * x for a, x in zip(row, k)) for row in A)
    rank = sum(any(r) for r in hermite_normal_form(A)[0])
    assert len(K) == cols - rank


def test_presolve_agrees_with_the_dense_solve(solve_matrix):
    rng = random.Random(31)
    for _ in range(400):
        rows, cols = rng.randint(1, 8), rng.randint(1, 10)
        A = sparse_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            planted = [rng.randint(-3, 3) for _ in range(cols)]
            b = [sum(a * x for a, x in zip(row, planted)) for row in A]
        else:
            b = [rng.randint(-3, 3) for _ in range(rows)]
        got, ref = solve_matrix(A, b), _solve_dense(A, b)
        assert (got is None) == (ref is None), (A, b)
        if got is None:
            continue
        check_solution(A, b, got)
        x0, K = got
        assert kernel_hnf(cols, K) == kernel_hnf(cols, ref[1])
        L = lattice_from_generators(cols, K)
        assert lattice_member([a - c for a, c in zip(x0, ref[0])], L)


def test_presolve_finds_an_inconsistent_row(solve_matrix):
    # subtracting the first row from the second leaves 0 = 1
    A, b = [[1, 1, 0], [1, 1, 0], [0, 2, 3]], [1, 2, 0]
    assert solve_matrix(A, b) is None
    assert _solve_dense(A, b) is None


def test_presolve_with_no_core_left(solve_matrix):
    # both rows are pivot rows: columns 2 and 3 are free, and the kernel
    # is their two lifted unit vectors
    A, b = [[1, 0, 2, 1], [0, -1, 3, -1]], [3, 1]
    got = solve_matrix(A, b)
    check_solution(A, b, got)
    _, K = got
    assert sorted(k[2:] for k in K) == [[0, 1], [1, 0]]
    assert kernel_hnf(4, K) == kernel_hnf(4, _solve_dense(A, b)[1])


def markowitz_reference(A, b, cols):
    """x0 of the elimination solve_integer's docstring defines, done
    plainly: at each step scan every live +-1 entry for the least (cost,
    row, column), pivot there, solve the rows left by _solve_dense on the
    columns they hold, and lift back through the pivots.  None when
    unsolvable."""
    if any(r for row, r in zip(A, b) if not row):
        return None
    live, rhs = {i: dict(row) for i, row in enumerate(A) if row}, list(b)
    pivots = []
    while True:
        count = Counter(j for row in live.values() for j in row)
        best = min((((len(row) - 1) * (count[j] - 1), i, j)
                    for i, row in live.items()
                    for j, a in row.items() if a in (1, -1)), default=None)
        if best is None:
            break
        _, p, j = best
        sign = live[p][j]
        row = {k: sign * a for k, a in live.pop(p).items()}
        c = sign * rhs[p]
        pivots.append((j, row, c))
        for i in [i for i, target in live.items() if j in target]:
            target, f = live[i], live[i][j]
            for k, a in row.items():
                target[k] = target.get(k, 0) - f * a
                if not target[k]:
                    del target[k]
            rhs[i] -= f * c
            if not target:
                if rhs[i]:
                    return None
                del live[i]
    x = [0] * cols
    core_rows = sorted(live)
    core_cols = sorted({j for row in live.values() for j in row})
    if core_rows:
        solved = _solve_dense([[live[i].get(j, 0) for j in core_cols]
                               for i in core_rows], [rhs[i] for i in core_rows])
        if solved is None:
            return None
        for j, v in zip(core_cols, solved[0]):
            x[j] = v
    for j, row, c in reversed(pivots):
        x[j] = c - sum(a * x[k] for k, a in row.items())
    return x


def seeded_sparse_systems():
    """(A, b, cols): seeded sparse systems, a quarter of them with a random
    right-hand side, then the Sigma of shuffled planted instances over
    intro_M.nf at n = 40 and 80."""
    rng = random.Random(37)
    systems = []
    for _ in range(200):
        rows, cols = rng.randint(1, 30), rng.randint(1, 40)
        A = [tuple((j, a) for j, a in enumerate(row) if a)
             for row in sparse_matrix(rng, rows, cols)]
        planted = [rng.randint(-3, 3) for _ in range(cols)]
        b = [sum(a * planted[j] for j, a in row) for row in A]
        if rng.random() < 0.25:
            b = [rng.randint(-2, 2) for _ in A]
        systems.append((A, b, cols))
    T = intro_m_template()
    for n in (40, 80):
        I = planted_intro_instance(random.Random(n), n)
        h = minimal_homomorphism(projected_semilattice_template(T), I)
        system = build_sigma(T, I, h)
        cols = n * system.num_coords + system.num_multipliers
        systems.append((system.matrix, system.rhs, cols))
    return systems


def test_presolve_pivots_in_exact_markowitz_order():
    """solve_integer gives the x0 of the plain elimination, on seeded sparse
    systems and on the Sigma of shuffled planted instances over intro_M.nf,
    so its heap takes the pivots in exactly the least (cost, row, column)
    order.  The same systems with an empty column beside each column give
    the same x0 there and 0 in every column in no row."""
    systems = seeded_sparse_systems()
    for A, b, cols in systems:
        got, ref = solve_integer(A, b, cols), markowitz_reference(A, b, cols)
        assert (got is None) == (ref is None), (A, b)
        # column j moved to 2j: every odd column is in no row
        wide = solve_integer([tuple((2 * j, a) for j, a in row) for row in A], b,
                             2 * cols + 1)
        assert (wide is None) == (got is None), (A, b)
        if got is not None:
            assert got[0] == ref, (A, b)
            assert wide[0] == [a for x in ref for a in (x, 0)] + [0], (A, b)
    assert all(solve_integer(*s) is not None for s in systems[-2:])


def check_pivot_form(A, b, cols, rng):
    """The rows of _eliminate on A*x = b, when solvable, are in pivot-row
    form: each holds its own column with coefficient 1, and otherwise only
    later pivot columns and free columns, all below width; and seeded free
    values lift to a solution.  Returns the core's new column count, or
    None when unsolvable."""
    eliminated = zlinalg._eliminate(A, b, cols)
    if eliminated is None:
        return None
    pivots, width = eliminated
    at = {j: t for t, (j, _, _) in enumerate(pivots)}
    assert len(at) == len(pivots)
    for t, (j, row, _) in enumerate(pivots):
        assert row[j] == 1
        assert all(0 <= k < width and at.get(k, len(pivots)) > t for k in row if k != j)
    x = zlinalg._lift(pivots, [0 if j in at else rng.randint(-3, 3) for j in range(width)])
    assert all(sum(a * x[j] for j, a in row) == r for row, r in zip(A, b))
    return width - cols


def test_elimination_rows_are_in_pivot_row_form():
    """On the seeded sparse systems and the Sigma of planted intro_M.nf
    instances, the presolve pivots and the core's rows form one list in
    pivot-row form, so that _lift solves the system from any free values;
    some of the cores have a kernel, whose columns come after cols."""
    rng = random.Random(39)
    extra = [check_pivot_form(A, b, cols, rng) for A, b, cols in seeded_sparse_systems()]
    # both intro_M.nf Sigmas are solvable and leave a core with a kernel
    assert all(extra[-2:])
    assert sum(k is None for k in extra) > 10 and sum(bool(k) for k in extra) > 50


def test_solve_integer_kernel_is_lazy():
    """The kernel is an iterator that lifts each basis vector when it is
    read."""
    x0, K = solve_integer([((0, 1), (1, 1))], [5], 3)
    assert iter(K) is K
    assert x0 == [5, 0, 0]
    assert kernel_hnf(3, list(K)) == ((1, -1, 0), (0, 0, 1))
    assert list(K) == []


def test_solve_integer_dimension_mismatch(solve_matrix):
    with pytest.raises(DimensionMismatch):
        solve_matrix([[1, 2]], [1, 2])
    for row in (((0, 1), (2, 3)), ((-1, 1),)):
        with pytest.raises(DimensionMismatch):
            solve_integer([row], [1], 2)
    # a column named twice
    with pytest.raises(DimensionMismatch):
        solve_integer([((0, 1), (0, 1))], [2], 1)
    # solve_congruences: a multiplier column in two rows, two multipliers
    # in one row, a negative column, a short right-hand side, a column
    # named twice in an equality and in a congruence
    for A, b in ([((0, 1), (2, -3)), ((1, 1), (2, -3))], [0, 0]), \
                ([((0, 1), (2, -3), (3, -3))], [0]), \
                ([((-1, 1), (2, -3))], [0]), \
                ([((0, 1), (2, -3))], []), \
                ([((0, 1), (0, 1))], [2]), \
                ([((0, 1), (0, 1), (2, -3))], [0]):
        with pytest.raises(DimensionMismatch):
            solve_congruences(A, b, 2)
    # a congruence column past base that is not the row's multiplier
    with pytest.raises(DimensionMismatch):
        solve_congruences([((5, 1), (0, 1), (3, -3))], [1], 3)
    # a coefficient 0: on a multiplier, on an equality's last entry and in
    # solve_integer
    for A in ([((0, 1), (2, 0))], [((0, 1), (1, 0))]):
        with pytest.raises(DimensionMismatch):
            solve_congruences(A, [1], 2)
    with pytest.raises(DimensionMismatch):
        solve_integer([((0, 1), (1, 0))], [1], 2)


def mod_brute_force(rows, rhs, N, cols):
    """Every y in (Z/N)^cols that meets each row mod N."""
    return [y for y in product(range(N), repeat=cols)
            if all((sum(a * y[j] for j, a in row.items()) - r) % N == 0
                   for row, r in zip(rows, rhs))]


def test_solve_mod_against_brute_force():
    """_solve_mod is solvable exactly when brute force finds a solution, on
    seeded small systems over Z/N for composite and prime-power N, and each
    answer meets every row mod N.  Coefficients are drawn from the
    multiples of N's divisors too, so that pivots of every gcd with N
    occur."""
    rng = random.Random(71)
    verdicts = Counter()
    for N in (2, 4, 6, 8, 9, 12, 27, 36):
        divisors = [k for k in range(1, N + 1) if N % k == 0]
        cols = 3 if N <= 12 else 2
        for _ in range(200):
            width = rng.randint(1, cols)
            rows = [{j: rng.choice(divisors) * rng.randrange(N) for j in range(width)
                     if rng.random() < 0.7} for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                y = [rng.randrange(N) for _ in range(width)]
                rhs = [sum(a * y[j] for j, a in row.items()) for row in rows]
            else:
                rhs = [rng.randrange(N) for _ in rows]
            got = _solve_mod(rows, rhs, N)
            found = mod_brute_force(rows, rhs, N, width)
            assert (got is None) == (not found), (N, rows, rhs)
            if got is not None:
                y = [got.get(j, 0) for j in range(width)]
                assert all(0 <= v < N for v in got.values())
                assert tuple(y) in found, (N, rows, rhs)
            verdicts[got is not None] += 1
    assert verdicts[True] > 800 and verdicts[False] > 300, verdicts


def test_solve_mod_appends_the_annihilator_row():
    """3x + y = 0 and y = 1 over Z/9: x alone is cleared first, with gcd 3,
    and the annihilator 3*(3x + y) = 3y = 0 is what refutes y = 1."""
    assert _solve_mod([{0: 3, 1: 1}, {1: 1}], [0, 1], 9) is None
    y = _solve_mod([{0: 3, 1: 1}, {1: 1}], [0, 3], 9)
    assert (3 * y.get(0, 0) + y.get(1, 0)) % 9 == 0 and y.get(1, 0) == 3


def test_solve_congruences_agrees_with_solve_integer():
    """On seeded sparse systems with a multiplier column -d for some rows,
    solve_congruences and solve_integer on the whole system agree on
    solvability, and each answer meets every equality exactly and every
    congruence mod d.  Entries of 2 and 3 leave a core after the +-1
    presolve, so the congruences are also reduced through x0 + K*s."""
    rng = random.Random(73)
    verdicts, cores = Counter(), 0
    for _ in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 10)
        A = [tuple((j, a) for j, a in enumerate(row) if a)
             for row in sparse_matrix(rng, rows, cols)]
        moduli = [rng.choice((0, 0, 2, 3, 4, 6, 9)) for _ in A]
        A = [row + (((cols + i, -d),) if d else ()) for i, (row, d) in enumerate(zip(A, moduli))]
        b = [rng.randint(-3, 3) for _ in A]
        got = solve_congruences(A, b, cols)
        ref = solve_integer(A, b, cols + len(A))
        assert (got is None) == (ref is None), (A, b)
        equalities = [(row, r) for row, r, d in zip(A, b, moduli) if not d]
        reduced = zlinalg._presolve([row for row, _ in equalities],
                                    [r for _, r in equalities], cols)
        cores += bool(reduced and reduced[1])
        if got is not None:
            assert len(got) == cols
            for row, r, d in zip(A, b, moduli):
                value = sum(a * got[j] for j, a in row if j < cols) - r
                assert (value % d if d else value) == 0, (A, b)
        verdicts[got is not None] += 1
    assert verdicts[True] > 60 and verdicts[False] > 60 and cores > 30, (verdicts, cores)


def pivot_chain_system(rng, length, count, sat):
    """Equalities x_i + x_(i+1) = c_i for i < length, whose presolve pivots
    row i on column i, so that pivot row i holds column i + 1, the next
    pivot; and count congruences on the chain's head x_0, each with its
    multiplier column from base = length + 1 + count.  Most also hold a
    column of their own; every 50th holds x_0 alone, with an even modulus,
    and the first asks x_0's parity, which the others fix: met by a
    planted x when sat, one off when not.  Returns (A, b, base)."""
    base = length + 1 + count
    x = [rng.randint(-5, 5) for _ in range(base)]
    A = [((i, 1), (i + 1, 1)) for i in range(length)]
    b = [x[i] + x[i + 1] for i in range(length)]
    for k in range(count):
        if k % 50:
            d, own = rng.choice((4, 6, 9, 10)), length + 1 + k
            A.append(((0, 1), (own, 1), (base + k, -d)))
            b.append(x[0] + x[own] + d * rng.randint(-2, 2))
        else:
            d = rng.choice((4, 6, 10)) if k else 2
            A.append(((0, 1), (base + k, -d)))
            b.append(x[0] + (0 if sat or k else 1))
    return A, b, base


def test_congruences_read_a_long_pivot_chain_once(deadline):
    """Each congruence reads the head of a chain of 2000 pivots; the chain
    is reduced mod D once, so 8 systems of 400 congruences each solve in
    well under the deadline (about 0.13 s; walking the chain's pivot rows
    for each congruence apart took 3.3 to 5.2 s).  Each answer meets every row, and the verdict
    is solve_integer's on the whole system."""
    rng = random.Random(101)
    systems = [pivot_chain_system(rng, 2000, 400, sat) for sat in (True, False) * 4]
    pivots = zlinalg._presolve(systems[0][0][:2000], systems[0][1][:2000], 2001)[0]
    assert [(j, sorted(row)) for j, row, _ in pivots[:3]] == \
        [(0, [0, 1]), (1, [1, 2]), (2, [2, 3])]
    with deadline(1):
        answers = [solve_congruences(A, b, base) for A, b, base in systems]
    for (A, b, base), x, sat in zip(systems, answers, (True, False) * 4):
        assert (x is not None) == sat
        assert (solve_integer(A, b, base + 400) is not None) == sat
        if x is None:
            continue
        for row, r in zip(A, b):
            value = sum(a * x[j] for j, a in row if j < base) - r
            j, a = row[-1]
            assert (value % a if j >= base else value) == 0


def core_congruence_system(rng, sat):
    """Equalities that leave a core: two rows on columns 0 to 4 whose
    entries have no +-1, so no presolve pivot, and whose kernel has rank 3
    or more; and a chain x_5 + x_6 = c, ..., x_(5+L) + 2*x_c = c' that the
    presolve pivots from its head, x_5, down to a core column c.  Then
    congruences, each with its multiplier column from base, that read core
    columns directly, the chain's head and, when sat, free columns, met by
    a planted x when sat.  Returns (A, b, base, count)."""
    length = rng.randint(1, 6)
    base = 5 + length + 1 + 3
    count = rng.randint(2, 5)
    x = [rng.randint(-5, 5) for _ in range(base)]
    A = [tuple((j, rng.choice((2, -2, 3, -3, 4, 5))) for j in range(5)) for _ in range(2)]
    A += [((5 + i, 1), (6 + i, 1)) for i in range(length)]
    A.append(((rng.randrange(5), 2), (5 + length, 1)))
    b = [sum(a * x[j] for j, a in row) for row in A]
    free = range(6 + length, base)
    for k in range(count):
        u = {j: rng.choice((1, -1, 2, 3)) for j in rng.sample(range(5), rng.randint(1, 3))}
        u[5] = rng.choice((1, 2, -1))
        u.update({j: 1 for j in rng.sample(free, rng.randint(0, 2) if sat else 0)})
        d = rng.choice((2, 3, 4, 6, 9))
        A.append(tuple(sorted(u.items())) + ((base + k, -d),))
        value = sum(a * x[j] for j, a in u.items())
        b.append(value + d * rng.randint(-2, 2) if sat else rng.randint(-9, 9))
    return A, b, base, count


def test_congruences_read_the_core_directly_and_through_a_chain():
    """solve_congruences on systems whose congruences read core columns,
    both directly and through a chain of pivots, with a core kernel of rank
    3 or more: the equalities' rows are in pivot-row form, the verdict is
    solve_integer's on the whole system, and each answer meets every
    equality exactly and every congruence mod d."""
    rng = random.Random(83)
    verdicts = Counter()
    for k in range(300):
        A, b, base, count = core_congruence_system(rng, k % 2 == 0)
        equalities = len(A) - count
        assert check_pivot_form(A[:equalities], b[:equalities], base, rng) >= 3
        got = solve_congruences(A, b, base)
        assert (got is None) == (solve_integer(A, b, base + count) is None), (A, b)
        if got is not None:
            for row, r in zip(A, b):
                value = sum(a * got[j] for j, a in row if j < base) - r
                j, a = row[-1]
                assert (value % a if j >= base else value) == 0, (A, b)
        verdicts[got is not None] += 1
    assert verdicts[True] > 150 and verdicts[False] > 40, verdicts


def test_lattice_membership():
    # sublattice of Z^3 with coordinate sum divisible by 3
    L = lattice_from_generators(3, [[1, -1, 0], [0, 1, -1], [3, 0, 0]])
    assert lattice_member([1, 1, 1], L)
    assert not lattice_member([1, 0, 0], L)
    assert lattice_member([0, 0, 0], L)
    # rank 1 in Z^3: pivot in column 0 only
    K = lattice_from_generators(3, [[2, 1, 0]])
    assert lattice_member([4, 2, 0], K)
    assert not lattice_member([3, 1, 0], K)  # the pivot does not divide
    assert not lattice_member([4, 2, 1], K)  # pivot divides, column 2 is left


def test_reduce_mod_lattice_is_canonical():
    L = lattice_from_generators(2, [[2, 0], [0, 3]])
    r1 = reduce_mod_lattice([5, 7], L)
    r2 = reduce_mod_lattice([1, 1], L)
    assert r1 == r2
    assert lattice_member([5 - r1[0], 7 - r1[1]], L)


def test_reduce_mod_lattice_finds_the_pivots_once(monkeypatch):
    calls, pivot_col = [], zlinalg._pivot_col

    def counted(row):
        calls.append(row)
        return pivot_col(row)

    monkeypatch.setattr(zlinalg, "_pivot_col", counted)
    L = lattice_from_generators(3, [[2, 1, 0], [0, 3, 1]])
    assert lattice_member([2, 4, 1], L)
    assert len(calls) == len(L.basis)
    assert not lattice_member([2, 4, 0], L)
    assert len(calls) == len(L.basis)


def test_zero_lattice_membership_is_equality():
    Z = lattice_from_generators(2, [])
    assert lattice_member([0, 0], Z)
    assert not lattice_member([1, 0], Z)
    C = LatticeCoset((3, 4), Z)
    assert coset_member([3, 4], C)
    assert not coset_member([3, 5], C)


def test_coset_member():
    L = lattice_from_generators(2, [[2, 2]])
    C = LatticeCoset((1, 0), L)
    assert coset_member([3, 2], C)
    assert not coset_member([2, 2], C)


def congruence_member(w, congruences):
    """Membership read off (u, d) pairs: u.w = 0 (mod d), or u.w = 0 for
    d = 0."""
    for u, d in congruences:
        r = sum(a * b for a, b in zip(u, w))
        if (r % d if d else r):
            return False
    return True


def congruence_lattices():
    """The zero lattice, full-rank lattices of index > 1, rank-deficient
    ones, intro_M's block, and the xi lattices of the commutative
    completely regular monoids of monoid_sweep(4, unique=True)."""
    rng = random.Random(43)
    out = [lattice_from_generators(n, []) for n in (1, 3)]
    out.append(lattice_from_generators(2, [[2, 0], [0, 3]]))
    while len(out) < 12:
        n = rng.randint(1, 4)
        L = lattice_from_generators(n, random_matrix(rng, n, n, -4, 4))
        if len(L.basis) == n and abs(det([list(r) for r in L.basis])) > 1:
            out.append(L)
    while len(out) < 24:
        n = rng.randint(2, 4)
        L = lattice_from_generators(n, random_matrix(rng, rng.randint(1, n - 1), n, -4, 4))
        if 0 < len(L.basis) < n:
            out.append(L)
    out.append(intro_block_lattice())
    for M in commutative_regular_sweep(4, unique=True):
        out += to_normal_form(M).nf.xi
    return out


def intro_block_lattice():
    (block,) = intro_m_template().relation
    return block.coset.lattice


def disagreements(L, congruences, rng):
    """Seeded random vectors, planted members and members moved by a unit
    vector on which the congruences and lattice_member disagree."""
    n = L.ambient_dim
    vectors = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(150)]
    for _ in range(40):
        member = [sum(rng.randint(-3, 3) * row[j] for row in L.basis)
                  for j in range(n)]
        vectors.append(member)
        vectors += [[a + (i == j) for i, a in enumerate(member)] for j in range(n)]
    return [w for w in vectors
            if congruence_member(w, congruences) != lattice_member(w, L)]


def test_congruences_decide_lattice_membership():
    rng = random.Random(47)
    lattices = congruence_lattices()
    for L in lattices:
        k, n = len(L.basis), L.ambient_dim
        assert all(d != 1 and d >= 0 for _, d in L.congruences)
        assert sum(d == 0 for _, d in L.congruences) == n - k
        assert not disagreements(L, L.congruences, rng), L
    assert lattice_from_generators(3, []).congruences == \
        (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0))
    assert lattice_from_generators(2, [[2, 0], [0, 3]]).congruences[0][1] == 6
    # intro_M's block: x + y + z = 0 (mod 3), its entries taken in (-d/2, d/2]
    assert intro_block_lattice().congruences == (((1, 1, 1), 3),)
    # among them are rank-deficient lattices with a divisor > 1
    assert any(0 < len(L.basis) < L.ambient_dim and any(d > 1 for _, d in L.congruences)
               for L in lattices)


def test_congruences_read_the_kept_smith_transform(monkeypatch):
    """Lattice.congruences takes u from the column transform Q that
    smith_normal_form keeps, with no Hermite form of its own and none to
    invert a transform: on intro_M's block, whose row and column Hermite
    forms are already diagonal, that is two eliminations."""
    calls = []
    echelon = zlinalg._echelon

    def spy(rows, width):
        calls.append(width)
        return echelon(rows, width)

    monkeypatch.setattr(zlinalg, "_echelon", spy)
    L = intro_block_lattice()
    calls.clear()
    assert Lattice(L.ambient_dim, L.basis).congruences == (((1, 1, 1), 3),)
    assert len(calls) == 2


def test_dropping_a_divisor_fails_the_membership_check():
    """A mutated copy of each congruence list with one pair (u, d) left out,
    the 3 of intro_M's block among them, accepts a non-member: a w with u.w
    = 1 (mod d) that meets the other pairs, found by solve_integer."""
    mutants = 0
    for L in congruence_lattices():
        n, pairs = L.ambient_dim, L.congruences
        for i in range(len(pairs)):
            rows = [tuple((j, a) for j, a in enumerate(u) if a)
                    + (((n + k, -d),) if d else ()) for k, (u, d) in enumerate(pairs)]
            x0, _ = solve_integer(rows, [int(k == i) for k in range(len(pairs))],
                                  n + len(pairs))
            mutant = pairs[:i] + pairs[i + 1:]
            assert congruence_member(x0[:n], mutant) and not lattice_member(x0[:n], L)
            mutants += 1
    assert mutants > 40
