"""Exact integer linear algebra: Hermite and Smith normal forms with
unimodular certificates, integer linear systems, and lattice(-coset)
membership.

Matrices are plain lists of lists of Python ints, so intermediate
coefficient growth is handled by arbitrary precision automatically.
"""

import heapq
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionMismatch
from .record import record


# ---------------------------------------------------------------------------
# Hermite normal form: the one elimination


def _echelon(rows, width):
    """Bring rows, in place, to Hermite form on their first width columns,
    applying each row operation to the whole row; return the rank.  Each
    column is reduced by its smallest non-zero entry until none is left
    below the pivot, which is made positive and reduces those above it."""
    n = len(rows)
    r = 0
    for c in range(width):
        if r >= n:
            break
        while True:
            nz = [i for i in range(r, n) if rows[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[piv] = rows[piv], rows[r]
            if len(nz) == 1:
                break
            p = rows[r]
            for i in range(r + 1, n):
                q = rows[i][c] // p[c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], p)]
        p = rows[r]
        if p[c]:
            if p[c] < 0:
                p = rows[r] = [-a for a in p]
            for i in range(r):
                q = rows[i][c] // p[c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], p)]
            r += 1
    return r


def _hermite_with(A, B):
    """(H, W*B) for the Hermite form W*A = H: one :func:`_echelon` on the
    rows of [A | B], split after A's columns."""
    width = len(A[0]) if A else 0
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    _echelon(rows, width)
    return [r[:width] for r in rows], [r[width:] for r in rows]


def hermite_normal_form(A):
    """Row-style HNF. Returns (H, U) with U unimodular and U*A = H.

    H is in row echelon form over Z with positive pivots; entries above a
    pivot are reduced into [0, pivot).
    """
    n = len(A)
    return _hermite_with(A, ([int(i == j) for j in range(n)] for i in range(n)))


# ---------------------------------------------------------------------------
# Smith normal form and integer systems, both on the Hermite form


def _transpose(A):
    return [list(c) for c in zip(*A)]


def smith_normal_form(A):
    """Return (P, S, Q) with P, Q unimodular, S diagonal with d1 | d2 | ...,
    and P*A*Q = S exactly.

    Row and column Hermite forms alternate, keeping P*A*Q = S, until S is
    diagonal (as in Kannan-Bachem): a row step is the Hermite form of
    [S | P], a column step that of [S^T | Q^T].  A pair di, dj with di not
    dividing dj is merged by adding column j to column i of S and Q, after
    which the row form replaces di by gcd(di, dj).  The transforms are
    returned as they are kept, with no inversion.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    S, P = hermite_normal_form(A)
    if not cols:
        return P, S, []
    T, Qt = hermite_normal_form(_transpose(S))    # T = S^T, Qt = Q^T
    while True:
        if not any(T[j][i] for i in range(rows) for j in range(cols) if i != j):
            diag = [T[i][i] for i in range(min(rows, cols))]
            pair = next(((i, j) for i, d in enumerate(diag) if d
                         for j in range(i + 1, len(diag)) if diag[j] % d), None)
            if pair is None:
                return P, _transpose(T), _transpose(Qt)
            i, j = pair
            for M in (T, Qt):
                M[i] = [a + b for a, b in zip(M[i], M[j])]
        S, P = _hermite_with(_transpose(T), P)
        T, Qt = _hermite_with(_transpose(S), Qt)


def _entries(row, cols):
    """A row of (column, coefficient) pairs as a dict, under the one row
    rule of both integer solves: each column lies in range(cols), is named
    once and has a non-zero coefficient, else DimensionMismatch is raised."""
    entries = dict(row)
    if len(entries) != len(row) or not all(0 <= j < cols and a for j, a in row):
        raise DimensionMismatch("a row names a column twice, out of range or with 0")
    return entries


def _presolve(A, b, cols):
    """Eliminate the equalities A*x = b on sparse rows (Markowitz 1957):
    repeatedly take a +-1 entry of least cost (row length - 1) *
    (column count - 1), make it +1, and subtract its row from every other
    row holding its column.  Returns None when a row is left as 0 = c with
    c non-zero, otherwise (pivots, live, rhs): the pivots (column, row with
    coefficient 1 there, right-hand side) in the order taken, the rows left
    (the core) by index, and the right-hand sides by index.

    A pivot row holds no column of an earlier pivot, so it fixes its
    variable integrally once the later columns are known.  Only the columns
    that lie in some row are counted.
    """
    if len(b) != len(A):
        raise DimensionMismatch("right-hand side length mismatch")
    live, rhs = {}, list(b)
    holders = {}       # column -> live rows holding it
    for i, row in enumerate(A):
        entries = _entries(row, cols)
        if entries:
            live[i] = entries
            for j in entries:
                holders.setdefault(j, set()).add(i)
        elif rhs[i]:
            return None
    # Every live +-1 entry (i, j) has one live key (keys[i, j], i, j) in the
    # heap, no greater than its current cost; any other key popped for it is
    # stale and dropped.  So a live key popped at its entry's cost is the
    # least (cost, row, column) of all live +-1 entries, and the pivots are
    # taken in exactly that order.  A key is pushed only when an entry's
    # cost falls below its live key, or it has none, and a live key popped
    # below its entry's cost is pushed again at it.  Once no row is left,
    # every key left is stale.
    keys = {(i, j): (len(row) - 1) * (len(holders[j]) - 1)
            for i, row in live.items() for j, a in row.items() if a in (1, -1)}
    heap = [(cost, i, j) for (i, j), cost in keys.items()]
    heapq.heapify(heap)
    pivots = []
    while heap and live:
        cost, p, j = heapq.heappop(heap)
        if keys.get((p, j)) != cost:
            continue
        row = live.get(p)
        if row is None or row.get(j) not in (1, -1):
            del keys[p, j]
            continue
        now = (len(row) - 1) * (len(holders[j]) - 1)
        if now != cost:
            keys[p, j] = now
            heapq.heappush(heap, (now, p, j))
            continue
        c = rhs[p]
        if row[j] == -1:
            row = {k: -a for k, a in row.items()}
            c = -c
        del live[p]
        for k in row:
            holders[k].discard(p)
        pivots.append((j, row, c))
        # the columns whose count fell: those of the pivot row, and those
        # cancelled in a changed row
        fallen = set(row)
        shorter = set()    # changed rows that lost length
        for i in list(holders[j]):
            target = live[i]
            f = target[j]
            before = len(target)
            for k, a in row.items():
                v = target.get(k, 0) - f * a
                if v:
                    if k not in target:
                        holders[k].add(i)
                    target[k] = v
                else:
                    del target[k]
                    holders[k].discard(i)
                    fallen.add(k)
            rhs[i] -= f * c
            if not target:
                if rhs[i]:
                    return None
                del live[i]
            elif len(target) < before:
                shorter.add(i)
        # an entry got cheaper only where its row got shorter or its
        # column's count fell; an entry that changed, and so may have become
        # +-1, lies in a column of the pivot row, which is among the fallen
        for i in shorter:
            target = live[i]
            n = len(target) - 1
            for k, a in target.items():
                if a in (1, -1):
                    now = n * (len(holders[k]) - 1)
                    if now < keys.get((i, k), now + 1):
                        keys[i, k] = now
                        heapq.heappush(heap, (now, i, k))
        for k in fallen:
            m = len(holders[k]) - 1
            for i in holders[k] - shorter if shorter else holders[k]:
                target = live[i]
                if target[k] in (1, -1):
                    now = (len(target) - 1) * m
                    if now < keys.get((i, k), now + 1):
                        keys[i, k] = now
                        heapq.heappush(heap, (now, i, k))
    return pivots, live, rhs


def _solve_core(live, rhs, cols):
    """The integer solutions of the core rows that :func:`_presolve` leaves,
    as pivot rows in its form.  With x0 + K*Z^k the solutions that
    :func:`_solve_dense` finds on the columns the core holds, core column j
    gets the row x_j - sum_t K[t][j] * s_t = x0_j, where s_t is a new free
    column cols + t.  Returns (rows, k), or None when there is none."""
    rows = sorted(live)
    if not rows:
        return [], 0
    core_cols = sorted({j for i in rows for j in live[i]})
    solved = _solve_dense([[live[i].get(j, 0) for j in core_cols] for i in rows],
                          [rhs[i] for i in rows])
    if solved is None:
        return None
    x0, kernel = solved
    return [(j, {j: 1, **{cols + t: -k[i] for t, k in enumerate(kernel) if k[i]}}, x0[i])
            for i, j in enumerate(core_cols)], len(kernel)


def _eliminate(A, b, cols):
    """The integer solutions of A*x = b, x in Z^cols, as (pivots, width):
    the pivot rows of :func:`_presolve`, then those of :func:`_solve_core`,
    on width = cols + k columns.  None when there is no solution.  A pivot
    row holds no column of an earlier pivot, so :func:`_lift` maps each
    choice of the free columns (those no pivot fixes) to a solution, and
    every solution is the lift of its own free columns."""
    reduced = _presolve(A, b, cols)
    if reduced is None:
        return None
    pivots, live, rhs = reduced
    core = _solve_core(live, rhs, cols)
    return None if core is None else (pivots + core[0], cols + core[1])


def _lift(pivots, x):
    """x with each pivot column set, last pivot first, from the columns its
    row holds; x holds the free columns, and 0 at every pivot column."""
    for j, row, c in reversed(pivots):
        x[j] = c - sum(a * x[k] for k, a in row.items())
    return x


def solve_integer(A, b, cols):
    """Solve A*x = b over the integers, x in Z^cols.

    A row of A is (column, coefficient) pairs, as in SigmaSystem, that name
    each column once, in range(cols), with a non-zero coefficient; any other
    row raises DimensionMismatch.  Returns None when unsolvable, otherwise
    (x0, kernel) where A*x0 = b and kernel is an iterator over a basis of
    {x : A*x = 0}.  Each basis vector is lifted only when it is read, so a
    caller that drops the kernel pays nothing for it; callers that keep it
    take ``list(kernel)``.

    The solutions are :func:`_eliminate`'s pivot rows: x0 is the lift of
    0 on every free column, and the kernel has one vector per free column
    j, the lift of the unit vector e_j less x0, cut to Z^cols.  A column
    in no row of A is 0 in x0.
    """
    eliminated = _eliminate(A, b, cols)
    if eliminated is None:
        return None
    pivots, width = eliminated
    x0 = _lift(pivots, [0] * width)[:cols]

    def kernel():
        fixed = {j for j, _, _ in pivots}
        for j in range(width):
            if j not in fixed:
                x = _lift(pivots, [int(k == j) for k in range(width)])
                yield [a - c for a, c in zip(x, x0)]

    return x0, kernel()


def solve_congruences(A, b, base):
    """Solve A*x = b over the integers, where each column from base up is a
    multiplier: it lies in one row only, with a non-zero coefficient, as
    the last entry of a row by ascending column.  This is Sigma's layout,
    with base = var_count * num_coords.  Returns x in Z^base that
    multiplier values extend to a solution, or None when there is none.
    Past its multiplier, a row follows :func:`solve_integer`'s row rule
    with cols = base.

    A row u.x - d*m = r with multiplier m is the congruence u.x = r
    (mod d), and every other row is an equality.  The equalities are
    solved over Z by :func:`_eliminate`.  Each pivot column that a
    congruence reads is reduced once, mod the lcm D of the moduli, to a
    form over the free columns (:func:`_pivot_forms`); each congruence,
    scaled by D/d, reads those forms, and the result is solved over Z/D
    by :func:`_solve_mod`, which never factors D.  The solution is lifted
    over Z, with 0 for every free value.

    Proof that this is exact.
    - A row whose multiplier m lies in no other row is a congruence: m is
      constrained by that row alone, so x meets the row for some integer m
      iff d divides u.x - r.
    - Scaling by D/d moves each congruence to Z/D: d | u.x - r iff
      D | (D/d)(u.x - r).  So the congruences ask a system over Z/D, whose
      coefficients matter only mod D.
    - The equality solutions are the lifts of the free columns through
      :func:`_eliminate`'s pivot rows, the core's among them: substituting
      them, last pivot first, writes each pivot column as an integral
      affine form in the free columns, needed mod D only, as it enters the
      scaled congruences only.  The map from the free values to x is
      integral and onto the equality solutions, so any solution mod D of
      the reduced congruences, read as integers, lifts to an integer x that
      meets every row, and there is one iff the reduced congruences are
      solvable mod D.
    - :func:`_solve_mod` is exact over Z/D: its row operations are
      invertible, and the annihilator row it appends to a pivot row of
      gcd h with D is that row's solvability condition.
    """
    if len(b) != len(A):
        raise DimensionMismatch("right-hand side length mismatch")
    eq_rows, eq_rhs, congruences, seen = [], [], [], set()
    for row, r in zip(A, b):
        if not row or row[-1][0] < base:
            eq_rows.append(row)
            eq_rhs.append(r)
            continue
        m, a = row[-1]
        if m in seen or not a:
            raise DimensionMismatch("a multiplier column is 0 or in more than one row")
        seen.add(m)
        congruences.append((_entries(row[:-1], base), r, abs(a)))
    eliminated = _eliminate(eq_rows, eq_rhs, base)
    if eliminated is None:
        return None
    pivots, width = eliminated
    D = lcm(*(d for _, _, d in congruences))
    form = _pivot_forms(pivots, {j for u, _, _ in congruences for j in u}, D)
    mod_rows, mod_rhs = [], []
    for u, r, d in congruences:
        scale = D // d
        row, r = {}, scale * r
        for j, a in u.items():
            a *= scale
            if j in form:
                c, coeffs = form[j]
                r -= a * c
                for k, e in coeffs.items():
                    row[k] = row.get(k, 0) + a * e
            else:
                row[j] = row.get(j, 0) + a
        mod_rows.append(row)
        mod_rhs.append(r)
    y = _solve_mod(mod_rows, mod_rhs, D)
    if y is None:
        return None
    return _lift(pivots, [y.get(j, 0) for j in range(width)])[:base]


def _pivot_forms(pivots, wanted, D):
    """The reduced form mod D of each pivot column in wanted and of every
    pivot that one reads: j -> (c, coefficients) with x_j = c + the sum of
    coefficient * x_k (mod D) over the free columns k, for every solution
    of the pivot rows.  A pivot row x_j + sum a_k x_k = c holds
    only later pivots, so the form of x_j is c - sum a_k * (form of x_k),
    with x_k itself where k is no pivot: the pivots read are found on an
    explicit stack (a chain of pivots can be as long as the system), and
    their forms are found last pivot first."""
    at = {j: t for t, (j, _, _) in enumerate(pivots)}
    read, stack = set(), [at[j] for j in wanted if j in at]
    while stack:
        t = stack.pop()
        if t not in read:
            read.add(t)
            stack += [at[k] for k in pivots[t][1] if k in at]
    forms = {}
    for t in sorted(read, reverse=True):
        j, row, c = pivots[t]
        coeffs = {}
        for k, a in row.items():
            if k == j:
                continue
            if k in forms:
                kc, kcoeffs = forms[k]
                c -= a * kc
                for m, e in kcoeffs.items():
                    coeffs[m] = coeffs.get(m, 0) - a * e
            else:
                coeffs[k] = coeffs.get(k, 0) - a
        forms[j] = (c % D, {m: e % D for m, e in coeffs.items() if e % D})
    return forms


def _solve_mod(rows, rhs, N):
    """Solve the rows (column -> coefficient dicts) against rhs over Z/N by
    a sparse Howell-style elimination (Howell 1986; Storjohann-Mulders
    1998) that never factors N.  Returns y as a dict of the columns that
    are not 0, or None when there is none.

    The column with the fewest rows left is cleared first, smallest column
    first among equals.  Euclid steps clear it: the row with the least
    entry there (the shortest such row among equals) is subtracted from
    the others until only one row P holds the column.  These row
    operations are invertible over Z/N.  P, with entry g and
    h = gcd(g, N), fixes its column once the other columns are known iff
    their part t of P's equation is 0 mod h; this is (N/h)*P, which has 0
    in the column, so (N/h)*P is appended as a new row (it is 0 when
    h = 1).  Back-substitution sets each free column to 0 and the pivot
    column to (t/h) * (g/h)^-1 mod N/h.
    """
    live, rhs, holders = {}, list(rhs), {}

    def add(i, row, r):
        row = {j: a % N for j, a in row.items() if a % N}
        rhs[i] = r % N
        if not row:
            return not rhs[i]
        live[i] = row
        for j in row:
            holders.setdefault(j, set()).add(i)
        return True

    for i, row in enumerate(rows):
        if not add(i, row, rhs[i]):
            return None
    heap = [(len(s), j) for j, s in holders.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        count, c = heapq.heappop(heap)
        rows_c = holders.get(c)
        if not rows_c:
            continue
        if len(rows_c) != count:
            heapq.heappush(heap, (len(rows_c), c))
            continue
        touched = set()
        while True:
            p = min(rows_c, key=lambda i: (live[i][c], len(live[i]), i))
            if len(rows_c) == 1:
                break
            prow, g = live[p], live[p][c]
            for i in [i for i in rows_c if i != p]:
                target = live[i]
                f = target[c] // g
                for k, a in prow.items():
                    v = (target.get(k, 0) - f * a) % N
                    if v:
                        if k not in target:
                            holders[k].add(i)
                        target[k] = v
                    else:
                        target.pop(k, None)
                        holders[k].discard(i)
                    touched.add(k)
                rhs[i] = (rhs[i] - f * rhs[p]) % N
                if not target:
                    if rhs[i]:
                        return None
                    del live[i]
        prow = live.pop(p)
        for k in prow:
            holders[k].discard(p)
            touched.add(k)
        g = prow[c]
        h = gcd(g, N)
        pivots.append((c, prow, rhs[p], g, h))
        if h > 1:
            i = len(rhs)
            rhs.append(0)
            if not add(i, {k: N // h * a for k, a in prow.items()}, N // h * rhs[p]):
                return None
        for k in touched:
            if holders[k]:
                heapq.heappush(heap, (len(holders[k]), k))
    y = {}
    for c, prow, r, g, h in reversed(pivots):
        t = (r - sum(a * y.get(k, 0) for k, a in prow.items() if k != c)) % N
        m = N // h
        if v := (t // h) * pow(g // h, -1, m) % m:
            y[c] = v
    return y


def _solve_dense(A, b):
    """Solve A*x = b over the integers by one Hermite form: the core of
    :func:`_solve_core`, and the tests' reference solve.

    With U*A^T = H in Hermite form, A*U^T = H^T is in column echelon form:
    forward substitution along the pivot rows of H gives y with H^T*y = b,
    and x0 = U^T*y.  The rows of U past the rank span the kernel.
    """
    H, U = hermite_normal_form(_transpose(A))
    cols = len(A[0])
    residual = list(b)
    x0 = [0] * cols
    rank = 0
    for h, u in zip(H, U):
        p = _pivot_col(h)
        if p is None:
            break
        y, rem = divmod(residual[p], h[p])
        if rem:
            return None
        if y:
            residual = [a - y * c for a, c in zip(residual, h)]
            x0 = [a + y * c for a, c in zip(x0, u)]
        rank += 1
    if any(residual):
        return None
    return x0, U[rank:]


# ---------------------------------------------------------------------------
# Lattices and lattice cosets


@record
class Lattice:
    """Sublattice of Z^ambient_dim spanned by the (Hermite-reduced) basis rows.

    An empty basis is the zero lattice.
    """

    ambient_dim: int
    basis: tuple

    @cached_property
    def pivots(self):
        """The pivot column of each basis row, found once per lattice."""
        return tuple(_pivot_col(row) for row in self.basis)

    @cached_property
    def congruences(self):
        """The membership test of the lattice as pairs (u, d): w lies in L
        iff u.w = 0 (mod d) for every pair, where d = 0 asks u.w = 0.
        Found once per lattice, from one Smith form.

        Proof.  Let B be the k x n basis, with P*B*Q = S by
        :func:`smith_normal_form`.  The basis rows are independent, so
        d_0, ..., d_k-1 are non-zero.  w lies in L iff w = y*B for some
        integer row y, that is iff w*Q = (y*P^-1)*S; as y*P^-1 runs over all
        of Z^k, this says (w*Q)_j is a multiple of d_j for j < k and is 0
        for j >= k.  So u_j is column j of Q, with d_j for j < k and 0 past
        k.  A pair with d = 1 asks nothing and is left out.  For d > 1 the
        entries of u matter only mod d, and they are taken in (-d/2, d/2];
        intro_M's block gives ((1, 1, 1), 3).  The zero lattice gives the n
        unit equalities.
        """
        n, k = self.ambient_dim, len(self.basis)
        if not k:
            return tuple((tuple(int(i == j) for i in range(n)), 0)
                         for j in range(n))
        _, S, Q = smith_normal_form(self.basis)
        out = []
        for j in range(n):
            d = S[j][j] if j < k else 0
            if d == 1:
                continue
            u = [row[j] for row in Q]
            if d:
                u = [(a + (d - 1) // 2) % d - (d - 1) // 2 for a in u]
            out.append((tuple(u), d))
        return tuple(out)


def lattice_from_generators(ambient_dim, generators):
    gens = [list(g) for g in generators]
    for g in gens:
        if len(g) != ambient_dim:
            raise DimensionMismatch("generator has wrong length")
    rank = _echelon(gens, ambient_dim)
    return Lattice(ambient_dim, tuple(tuple(r) for r in gens[:rank]))


def _pivot_col(row):
    for j, v in enumerate(row):
        if v != 0:
            return j
    return None


def reduce_mod_lattice(v, L):
    """Canonical representative of v modulo L (unique coset representative)."""
    if len(v) != L.ambient_dim:
        raise DimensionMismatch("vector has wrong length")
    w = list(v)
    for row, p in zip(L.basis, L.pivots):
        q = w[p] // row[p]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return w


def lattice_member(v, L):
    return not any(reduce_mod_lattice(v, L))


@record
class LatticeCoset:
    offset: tuple
    lattice: Lattice

    def __post_init__(self):
        if len(self.offset) != self.lattice.ambient_dim:
            raise DimensionMismatch("offset has wrong length")


def coset_member(v, C):
    if len(v) != len(C.offset):
        raise DimensionMismatch("vector has wrong length")
    return lattice_member([a - b for a, b in zip(v, C.offset)], C.lattice)
