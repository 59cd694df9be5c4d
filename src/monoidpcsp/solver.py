"""Polynomial-time solver for instances over a template whose relation is a
coset: arc-consistency on the idempotent projection, then an integer linear
system on the coordinate vectors of the normal form.
"""

from .core import CartesianPower
from .cosets import is_coset
from .errors import NotACoset, ValidationError
from .model import (
    Identity,
    Product,
    Template,
    check_arities,
    check_assignment,
    is_nf_template,
    make_nf_template,
)
from .record import record
from .regularize import nf_element, to_normal_form
from .zlinalg import solve_congruences


# ---------------------------------------------------------------------------
# The minimal homomorphism into a semilattice template


def minimal_homomorphism(TI, I):
    """The pointwise least homomorphism from the instance into the
    template TI over a finite semilattice, or None when no homomorphism
    exists.

    Arc-consistency prunes per-variable domains to a fixpoint; the least
    homomorphism is the product of each variable's surviving values.
    """
    N = TI.carrier
    domains = [set(N.elements) for _ in range(I.var_count)]

    def narrow(c):
        """Cut the domain of each variable of c to the values that the
        tuples of c inside the current domains take at its positions; True
        when a domain shrank.  Only the source of the tuples depends on the
        kind of c."""
        vs = c.vars
        if isinstance(c, Product):
            dz = domains[c.z]
            rows = [(a, b, p) for a in domains[c.x] for b in domains[c.y]
                    if (p := N.mul(a, b)) in dz]
        elif isinstance(c, Identity):
            rows = [(N.identity,)]
        else:
            rows = [t for t in TI.relation
                    if all(a in domains[v] for v, a in zip(vs, t))]
        repeats = [(vs.index(v), i) for i, v in enumerate(vs)
                   if vs.index(v) < i]
        if repeats:
            rows = [t for t in rows if all(t[i] == t[j] for i, j in repeats)]
        changed = False
        for i, v in enumerate(vs):
            keep = domains[v] & {t[i] for t in rows}
            changed |= keep != domains[v]
            domains[v] = keep
        return changed

    changed = True
    while changed:
        changed = False
        for c in I.constraints:
            changed |= narrow(c)
        if any(not d for d in domains):
            return None
    h = [N.prod(sorted(domains[x])) for x in range(I.var_count)]
    return h if check_assignment(TI, I, h) else None


# ---------------------------------------------------------------------------
# The integer system


@record
class SigmaSystem:
    """Linear system over Z whose solvability decides the instance above a
    fixed minimal homomorphism h.

    Column x*q + alpha holds coordinate alpha of v^x, and is in a row only
    for alpha in lam(h[x]); further columns hold fresh multipliers, one per
    divisor d > 1 of a lattice's congruences, each in one row only, where
    it is the last entry.  A row is a tuple of non-zero (column,
    coefficient) pairs by ascending column.
    """

    var_count: int
    num_coords: int
    num_multipliers: int
    matrix: tuple
    rhs: tuple


def build_sigma(T, I, h):
    """The system Sigma of T and I above the least hom h of
    :func:`minimal_homomorphism`.

    Sigma asks each REL tuple w to lie in its block's offset + L, and each
    MUL residual v^x + v^y - v^z to lie in xi(h[z]).  Both are written by
    one rule from the lattice's :attr:`Lattice.congruences`: one row
    u.w - d*m = u.offset per pair (u, d), with a fresh multiplier m only
    for d > 1.  Over intro_M a REL is the one row x + y + z - 3m = 1.

    v^x is read on lam(h[x]) only, where a normal-form vector over h[x]
    lives; a column off it is in no row, so the solve leaves it 0.  A
    row with no coefficient and right-hand side 0 is not written: over a
    finite carrier every d = 0 congruence gives one, as block and xi
    lattices have full rank on their support.

    Every relation constraint's d-tuple under h names a block: h is returned
    only after check_assignment(TI, I, h), and the relation of TI is exactly
    the blocks' d-tuples.
    """
    NF = T.carrier
    q = NF.num_coords
    base = I.var_count * q
    rows = []          # (sorted non-zero (col, coeff) pairs, rhs)
    multipliers = 0
    blocks = {b.d_tuple: b.coset for b in T.relation}

    def add(coeffs, rhs):
        row = tuple(sorted((j, a) for j, a in coeffs.items() if a))
        if row or rhs:
            rows.append((row, rhs))

    def congruent(lattice, terms, rhs):
        # w is the sum of the terms (sign, x, start): sign * v^x, read
        # against u's coordinates from start
        nonlocal multipliers
        for u, d in lattice.congruences:
            coeffs = {}
            for sign, x, start in terms:
                for alpha in NF.lam[h[x]]:
                    if a := u[start + alpha]:
                        cc = x * q + alpha
                        coeffs[cc] = coeffs.get(cc, 0) + sign * a
            if d:
                coeffs[base + multipliers] = -d
                multipliers += 1
            add(coeffs, sum(a * b for a, b in zip(u, rhs)))

    for c in I.constraints:
        if isinstance(c, Identity):
            for alpha in NF.lam[h[c.x]]:
                add({c.x * q + alpha: 1}, 0)
        elif isinstance(c, Product):
            congruent(NF.xi[h[c.z]], ((1, c.x, 0), (1, c.y, 0), (-1, c.z, 0)), ())
        else:
            coset = blocks[tuple(h[v] for v in c.vars)]
            congruent(coset.lattice, [(1, v, i * q) for i, v in enumerate(c.vars)],
                      coset.offset)
    return SigmaSystem(I.var_count, q, multipliers,
                       tuple(r for r, _ in rows), tuple(b for _, b in rows))


def projected_semilattice_template(T):
    """The idempotent projection of a coset-relation NF template, validated
    as a coset on the semilattice level."""
    NF = T.carrier
    d_tuples = frozenset(b.d_tuple for b in T.relation)
    power = CartesianPower(NF.semilattice, T.arity)
    if not is_coset(power, d_tuples):
        raise NotACoset("projected relation fails the coset equation")
    return Template(NF.semilattice, T.arity, d_tuples)


def solve_tractable(T, I):
    """Decide and solve an instance over a coset-relation template.

    A finite template is solved over its normal form
    (:func:`finite_template_to_nf`) and the answer decoded.  On both
    carrier kinds Sigma is solved by :func:`zlinalg.solve_congruences`:
    its multiplier rows as congruences over Z/D, the other rows over Z.
    Returns a satisfying assignment over T's carrier (NFElements for a
    normal-form template) or None.
    """
    check_arities(T, I)
    NT, iso = (T, None) if is_nf_template(T) else finite_template_to_nf(T)
    NF = NT.carrier
    TI = projected_semilattice_template(NT)
    h = minimal_homomorphism(TI, I)
    if h is None:
        return None
    system = build_sigma(NT, I, h)
    q = NF.num_coords
    base = I.var_count * q
    x0 = solve_congruences(system.matrix, system.rhs, base)
    if x0 is None:
        return None
    assignment = [nf_element(NF, h[x], x0[x * q:(x + 1) * q])
                  for x in range(I.var_count)]
    if iso is not None:
        assignment = [iso.decode(x) for x in assignment]
    if not check_assignment(T, I, assignment):
        raise ValidationError("internal: decoded assignment fails verification")
    return assignment


# ---------------------------------------------------------------------------
# Finite template conversion


def finite_template_to_nf(T):
    """Convert a template over a finite commutative regular monoid whose
    relation is a coset into an equivalent normal-form template.  Returns
    (nf_template, iso); a relation that is not a coset raises NotACoset."""
    M = T.carrier
    iso = to_normal_form(M)
    if not is_coset(CartesianPower(M, T.arity), T.relation):
        raise NotACoset("template relation fails the coset equation")
    NF = iso.nf
    q = NF.num_coords
    groups = {}
    for t in sorted(T.relation):
        enc = [iso.encode(a) for a in t]
        d_tuple = tuple(x.d for x in enc)
        flat = [a for x in enc for a in x.v]
        groups.setdefault(d_tuple, []).append(flat)
    blocks = []
    for d_tuple in sorted(groups):
        vecs = groups[d_tuple]
        offset = vecs[0]
        gens_block = [[a - b for a, b in zip(v, offset)] for v in vecs[1:]]
        blocks.append((d_tuple, offset, gens_block))
    return make_nf_template(NF, T.arity, blocks), iso
