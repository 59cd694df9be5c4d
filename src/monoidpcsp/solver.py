"""Polynomial-time solver for instances over a template whose relation is a
coset: arc-consistency on the idempotent projection, then an integer linear
system on the coordinate vectors of the normal form.
"""

from collections import deque

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

    Arc consistency prunes per-variable domains to the greatest fixpoint,
    which is unique, so the order of the narrowing steps does not change
    it; the least homomorphism is the product of each variable's
    surviving values.  A worklist (AC-3, Mackworth 1977) narrows a
    constraint again only when another constraint shrank a domain of one
    of its variables (narrowing is idempotent: every tuple that it reads
    stays inside the cut domains).

    The worklist starts with the REL and ID constraints only, as a MUL
    over full domains of a finite semilattice narrows nothing.  With 1 the
    identity and 0 the bottom element (the product of all elements), each
    value a has a supporting tuple (x, y, z) in every shape of MUL:
    (a, 1, a) for x and z and (1, a, a) for y when x, y, z are distinct;
    (a, a, a) for MUL x x z and MUL x x x, as a*a = a; (a, 1, a) for x
    and (0, a, 0) for y in MUL x y x; (a, 0, 0) for x and (1, a, a) for y
    in MUL x y y.
    """
    N = TI.carrier
    domains = [set(N.elements) for _ in range(I.var_count)]
    constraints = I.constraints
    watchers = [[] for _ in range(I.var_count)]
    for k, c in enumerate(constraints):
        for v in c.vars:
            watchers[v].append(k)

    def narrow(c):
        """Cut the domain of each variable of c to the values that the
        tuples of c inside the current domains take at its positions;
        return the variables whose domain shrank.  Only the source of the
        tuples depends on the kind of c."""
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
        shrank = []
        for i, v in enumerate(vs):
            keep = domains[v] & {t[i] for t in rows}
            if keep != domains[v]:
                domains[v] = keep
                shrank.append(v)
        return shrank

    queue = deque(k for k, c in enumerate(constraints)
                  if not isinstance(c, Product))
    queued = set(queue)
    while queue:
        k = queue.popleft()
        queued.discard(k)
        for v in narrow(constraints[k]):
            if not domains[v]:
                return None
            for w in watchers[v]:
                if w != k and w not in queued:
                    queued.add(w)
                    queue.append(w)
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
    coefficient) pairs by strictly ascending column, so it names each
    column once, as the row rule of the integer solves in zlinalg asks.
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

    Every relation constraint's d-tuple under h names a block, read from
    ``T.relation.cosets``: h is returned only after check_assignment(TI, I,
    h), and the relation of TI is exactly the blocks' d-tuples.

    The rows of a constraint depend only on its kind, its d-tuple under h
    and which of its variables repeat, so they are found once per such
    shape, as a pattern: per row, the entries (slot, alpha, coefficient),
    where slot is the first position of the variable and the coefficients
    of a repeated variable are summed there, with d and u.offset.  Each
    constraint then only places its variables into its shape's pattern.
    """
    NF = T.carrier
    q = NF.num_coords
    base = I.var_count * q
    matrix, rhs = [], []
    multipliers = 0
    patterns = {}

    def pattern(kind, ds, slots):
        if kind is Identity:
            return [([(0, alpha, 1)], 0, 0) for alpha in NF.lam[ds[0]]]
        if kind is Product:
            lattice, offset = NF.xi[ds[2]], ()
            starts = (0, 0, 0)
        else:
            coset = T.relation.cosets[ds]
            lattice, offset = coset.lattice, coset.offset
            starts = [i * q for i in range(len(ds))]
        signs = (1, 1, -1) if kind is Product else (1,) * len(ds)
        rows = []
        for u, d in lattice.congruences:
            coeffs = {}
            for sign, start, slot, dx in zip(signs, starts, slots, ds):
                for alpha in NF.lam[dx]:
                    if a := u[start + alpha]:
                        coeffs[slot, alpha] = coeffs.get((slot, alpha), 0) + sign * a
            entries = [(slot, alpha, a) for (slot, alpha), a in coeffs.items() if a]
            r = sum(a * b for a, b in zip(u, offset))
            if entries or d or r:
                rows.append((entries, d, r))
        return rows

    for c in I.constraints:
        vs = c.vars
        key = (type(c), tuple(map(h.__getitem__, vs)), tuple(map(vs.index, vs)))
        rows = patterns.get(key)
        if rows is None:
            rows = patterns[key] = pattern(*key)
        starts = [v * q for v in vs]
        for entries, d, r in rows:
            row = [(starts[slot] + alpha, a) for slot, alpha, a in entries]
            row.sort()
            if d:
                row.append((base + multipliers, -d))
                multipliers += 1
            matrix.append(tuple(row))
            rhs.append(r)
    return SigmaSystem(I.var_count, q, multipliers, tuple(matrix), tuple(rhs))


def projected_semilattice_template(T):
    """The idempotent projection TI of an NF template: its semilattice, with
    the blocks' d-tuples as relation.  :func:`model.make_nf_template` built
    T only if its relation is a coset, so these d-tuples are closed under
    products, and :func:`minimal_homomorphism` finds the least hom into TI.
    """
    return Template(T.carrier.semilattice, T.arity, frozenset(T.relation.cosets))


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
