"""Finite monoid arithmetic written for the benchmark alone.

The generator builds its inputs with it and the checks re-evaluate the
program's outputs with it, so no check relies on the code under test.
A monoid is a Cayley table over the elements 0..n-1 plus an identity.
"""

from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class Table:
    rows: tuple
    identity: int

    @property
    def size(self):
        return len(self.rows)

    def mul(self, a, b):
        return self.rows[a][b]

    def power(self, a, k):
        acc = self.identity
        for _ in range(k):
            acc = self.rows[acc][a]
        return acc


def cyclic(k):
    return Table(tuple(tuple((a + b) % k for b in range(k)) for a in range(k)), 0)


def chain(k):
    return Table(tuple(tuple(max(a, b) for b in range(k)) for a in range(k)), 0)


def flipflop():
    return Table(((0, 1, 2), (1, 1, 2), (2, 1, 2)), 0)


FACTORS = {
    **{f"z{k}": cyclic(k) for k in range(2, 7)},
    **{f"c{k}": chain(k) for k in range(2, 5)},
    "ff": flipflop(),
}


def direct_product(A, B):
    """A x B with element (a, b) at index a * |B| + b."""
    nb = B.size
    rows = tuple(
        tuple(A.mul(a1, a2) * nb + B.mul(b1, b2)
              for a2 in range(A.size) for b2 in range(nb))
        for a1 in range(A.size) for b1 in range(nb))
    return Table(rows, A.identity * nb + B.identity)


def from_shape(shape):
    """'z3xc2' -> Z/3 x chain(2); factors multiply left to right."""
    out = None
    for name in shape.split("x"):
        f = FACTORS[name]
        out = f if out is None else direct_product(out, f)
    return out


def format_table(M):
    lines = [f"monoid {M.size} {M.identity}"]
    lines += [" ".join(map(str, row)) for row in M.rows]
    return "\n".join(lines) + "\n"


def format_template(M, arity, tuples):
    lines = [format_table(M).rstrip("\n"), f"rel {arity}"]
    lines += ["tuple " + " ".join(map(str, t)) for t in sorted(tuples)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structure


def is_hom(M, N, images):
    if images[M.identity] != N.identity:
        return False
    return all(images[M.mul(a, b)] == N.mul(images[a], images[b])
               for a in range(M.size) for b in range(M.size))


def homs(M, N):
    """Every monoid hom M -> N, by brute force over maps fixing the
    identity; meant for the small factor monoids only."""
    others = [a for a in range(M.size) if a != M.identity]
    out = []
    for imgs in product(range(N.size), repeat=len(others)):
        images = [N.identity] * M.size
        for a, i in zip(others, imgs):
            images[a] = i
        if is_hom(M, N, images):
            out.append(tuple(images))
    return out


def generated(M, gens):
    """The submonoid of M generated by gens."""
    seen = {M.identity}
    frontier = [M.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = M.mul(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def is_commutative_on(M, elems):
    return all(M.mul(a, b) == M.mul(b, a) for a in elems for b in elems)


def group_inverse(M, a):
    """Inverse of a inside its maximal subgroup, or None when a lies in no
    subgroup (a is a group element iff a = a^(p+1) for some p >= 1)."""
    x = M.mul(a, a)
    p = 1
    while x != a:
        x = M.mul(x, a)
        p += 1
        if p > M.size:
            return None
    return M.power(a, 2 * p - 1)


# ---------------------------------------------------------------------------
# Tuples over a monoid and coset closure


def tuple_mul(M, s, t):
    return tuple(M.mul(a, b) for a, b in zip(s, t))


def coset_closure(M, U):
    """[U] = U x <U^-1 x U> inside M^r, for a set U of r-tuples whose
    entries lie in commuting subgroups of M."""
    U = set(U)
    if not U:
        return set()
    inv = {u: tuple(group_inverse(M, a) for a in u) for u in U}
    diffs = {tuple_mul(M, inv[u], v) for u in U for v in U}
    r = len(next(iter(U)))
    sub = {(M.identity,) * r}
    frontier = list(sub)
    while frontier:
        nxt = []
        for s in frontier:
            for g in diffs:
                c = tuple_mul(M, s, g)
                if c not in sub:
                    sub.add(c)
                    nxt.append(c)
        frontier = nxt
    return {tuple_mul(M, u, s) for u in U for s in sub}
