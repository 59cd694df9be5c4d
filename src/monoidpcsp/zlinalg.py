"""Exact integer linear algebra: Hermite and Smith normal forms with
unimodular certificates, integer linear systems, and lattice(-coset)
membership.

Matrices are plain lists of lists of Python ints, so intermediate
coefficient growth is handled by arbitrary precision automatically.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return [[] for _ in A]
    rows, inner, cols = len(A), len(B), len(B[0])
    if any(len(r) != inner for r in A):
        raise DimensionMismatch("matrix product shape mismatch")
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(A, v):
    if any(len(r) != len(v) for r in A):
        raise DimensionMismatch("matrix-vector shape mismatch")
    return [sum(r[k] * v[k] for k in range(len(v))) for r in A]


# ---------------------------------------------------------------------------
# Hermite normal form


def hermite_normal_form(A):
    """Row-style HNF. Returns (H, U) with U unimodular and U*A = H.

    H is in row echelon form over Z with positive pivots; entries above a
    pivot are reduced into [0, pivot).
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(r) for r in A]
    U = identity_matrix(rows)

    def swap(i, j):
        H[i], H[j] = H[j], H[i]
        U[i], U[j] = U[j], U[i]

    def addrow(src, dst, k):
        # dst += k * src
        H[dst] = [a + k * b for a, b in zip(H[dst], H[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def negate(i):
        H[i] = [-a for a in H[i]]
        U[i] = [-a for a in U[i]]

    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # repeatedly reduce by the smallest nonzero entry in the column
        while True:
            nz = [i for i in range(r, rows) if H[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(H[i][c]))
            if piv != r:
                swap(r, piv)
            if len(nz) == 1:
                break
            for i in range(r + 1, rows):
                if H[i][c] != 0:
                    addrow(r, i, -(H[i][c] // H[r][c]))
        if H[r][c] != 0:
            if H[r][c] < 0:
                negate(r)
            for i in range(r):
                if H[i][c] % H[r][c] != 0 or not (0 <= H[i][c] < H[r][c]):
                    addrow(r, i, -(H[i][c] // H[r][c]))
            r += 1
    return H, U


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_with_transforms(A):
    """Return (P, S, Q, U, V) with P*A*Q = S, U = P^-1, V = Q^-1.

    S is diagonal with non-negative entries d1 | d2 | ...
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    S = [list(r) for r in A]
    P = identity_matrix(rows)
    Q = identity_matrix(cols)
    U = identity_matrix(rows)
    V = identity_matrix(cols)

    def row_add(src, dst, k):
        S[dst] = [a + k * b for a, b in zip(S[dst], S[src])]
        P[dst] = [a + k * b for a, b in zip(P[dst], P[src])]
        for row in U:  # column op: col[src] -= k * col[dst]
            row[src] -= k * row[dst]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        P[i], P[j] = P[j], P[i]
        for row in U:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        P[i] = [-a for a in P[i]]
        for row in U:
            row[i] = -row[i]

    def col_add(src, dst, k):
        # col[dst] += k * col[src]
        for row in S:
            row[dst] += k * row[src]
        for row in Q:
            row[dst] += k * row[src]
        V[src] = [a - k * b for a, b in zip(V[src], V[dst])]

    def col_swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in Q:
            row[i], row[j] = row[j], row[i]
        V[i], V[j] = V[j], V[i]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = find_pivot(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if S[i][t] != 0:
                    row_add(t, i, -(S[i][t] // S[t][t]))
                    if S[i][t] != 0:
                        row_swap(t, i)
                    dirty = True
            for j in range(t + 1, cols):
                if S[t][j] != 0:
                    col_add(t, j, -(S[t][j] // S[t][t]))
                    if S[t][j] != 0:
                        col_swap(t, j)
                    dirty = True
        if S[t][t] < 0:
            row_neg(t)
        # enforce divisibility of the remaining block by S[t][t]
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if S[i][j] % S[t][t] != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_add(culprit, t, 1)
            continue
        t += 1
    return P, S, Q, U, V


def smith_normal_form(A):
    """Return (U, S, V) with U, V unimodular, S diagonal with d1 | d2 | ...,
    and A = U*S*V exactly."""
    _, S, _, U, V = _snf_with_transforms(A)
    return U, S, V


def solve_integer(A, b):
    """Solve A*x = b over the integers.

    Returns None when unsolvable, otherwise (x0, kernel) where A*x0 = b and
    kernel is a basis of {x : A*x = 0}.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(b) != rows:
        raise DimensionMismatch("right-hand side length mismatch")
    if rows == 0:
        return [0] * cols, [unit_vector(cols, j) for j in range(cols)]
    P, S, Q, _, _ = _snf_with_transforms(A)
    c = mat_vec(P, b)
    z = [0] * cols
    free = []
    for j in range(cols):
        d = S[j][j] if j < rows else 0
        if d == 0:
            if j < rows and c[j] != 0:
                return None
            free.append(j)
        else:
            if c[j] % d != 0:
                return None
            z[j] = c[j] // d
    for i in range(min(rows, cols), rows):
        if c[i] != 0:
            return None
    x0 = mat_vec(Q, z)
    kernel = [[Q[i][j] for i in range(cols)] for j in free]
    return x0, kernel


def unit_vector(n, j):
    v = [0] * n
    v[j] = 1
    return v


# ---------------------------------------------------------------------------
# Lattices and lattice cosets


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^ambient_dim spanned by the (Hermite-reduced) basis rows.

    An empty basis is the zero lattice.
    """

    ambient_dim: int
    basis: tuple


def lattice_from_generators(ambient_dim, generators):
    gens = [list(g) for g in generators]
    for g in gens:
        if len(g) != ambient_dim:
            raise DimensionMismatch("generator has wrong length")
    if not gens:
        return Lattice(ambient_dim, ())
    H, _ = hermite_normal_form(gens)
    basis = tuple(tuple(r) for r in H if any(v != 0 for v in r))
    return Lattice(ambient_dim, basis)


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
    for row in L.basis:
        p = _pivot_col(row)
        q = w[p] // row[p]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return w


def lattice_member(v, L):
    if len(v) != L.ambient_dim:
        raise DimensionMismatch("vector has wrong length")
    w = list(v)
    for row in L.basis:
        p = _pivot_col(row)
        if w[p] % row[p] != 0:
            return False
        q = w[p] // row[p]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return all(a == 0 for a in w)


@dataclass(frozen=True)
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
