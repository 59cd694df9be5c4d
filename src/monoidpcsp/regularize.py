"""Commutative regularization of finite monoids, and the
semilattice-with-integer-coordinates normal form for finitely generated
commutative regular monoids.
"""

from operator import add, sub

from .core import (
    CartesianPower,
    FiniteMonoid,
    MonoidHom,
    backtrack,
    closed_under,
    commute,
    d_of,
    enumerate_homs,
    eval_exponents,
    generated_subset,
    generator_walk,
    idempotents,
    is_commutative,
    is_completely_regular,
    is_semilattice,
    make_hom,
    submonoid,
)
from .errors import (
    MonoidError,
    NotCommutative,
    NotRegular,
    TargetNotRegularCommutative,
)
from .record import record
from .zlinalg import Lattice, lattice_from_generators, lattice_member, reduce_mod_lattice


# ---------------------------------------------------------------------------
# Congruence quotients


@record
class CongruenceQuotient:
    source: FiniteMonoid
    class_of: tuple
    quotient: FiniteMonoid
    projection: MonoidHom


def _quotient_from_roots(M, root_of):
    """Build a quotient monoid from a product-compatible equivalence,
    given as a map element -> canonical representative."""
    reps = []
    index = {}
    for a in M.elements:
        r = root_of[a]
        if r not in index:
            index[r] = len(reps)
            reps.append(r)
    class_of = tuple(index[root_of[a]] for a in M.elements)
    table = []
    for r in reps:
        row = []
        for s in reps:
            row.append(class_of[M.mul(r, s)])
        table.append(tuple(row))
    quotient = FiniteMonoid(tuple(table), class_of[M.identity])
    # the table is read off one representative per class; make_hom raises
    # unless class_of respects every product, i.e. unless root_of is a
    # congruence
    projection = make_hom(M, quotient, class_of)
    return CongruenceQuotient(M, class_of, quotient, projection)


def congruence_closure(M, pairs):
    """Smallest monoid congruence containing the given pairs, as a map from
    each element to the least member of its class.

    A union-find worklist: each pair (a, b) that merges two classes queues
    (ac, bc) and (ca, cb) for every c.  That is enough, as the classes are
    the connected components of the merging pairs: a path from x to y
    through merging pairs gives one from xc to yc and one from cx to cy."""
    parent = list(M.elements)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = sorted((find(a), find(b)))
        if ra == rb:
            continue
        parent[rb] = ra
        for c in M.elements:
            work.append((M.mul(a, c), M.mul(b, c)))
            work.append((M.mul(c, a), M.mul(c, b)))
    return [find(a) for a in M.elements]


def ab_reg(M):
    """The commutative regularization: the quotient of M by the congruence
    theta generated by the pairs (ab, ba) and (a, a*d_a).

    M/theta is commutative and completely regular: each class [a] equals
    [a]*[d_a] with [d_a] = [a]^k idempotent, so [a] = [a]^(k+1) lies in a
    group.  A hom f from M into a commutative completely regular T kills
    both kinds of pair: f(ab) = f(a)f(b) = f(b)f(a) = f(ba), and f(d_a) = f(a)^k is the
    idempotent of the group that holds f(a), so f(a)f(d_a) = f(a).  So f
    factors, uniquely as the projection is onto, through M/theta, which is
    the universal property."""
    pairs = [(M.mul(a, b), M.mul(b, a)) for a in M.elements for b in M.elements]
    pairs += [(a, M.mul(a, d_of(M, a))) for a in M.elements]
    return _quotient_from_roots(M, congruence_closure(M, pairs))


def verify_universal_property(q, targets):
    """True iff every hom from q.source into each commutative completely
    regular target factors (necessarily uniquely) through q.projection:
    as the projection pi is onto, a hom factors through pi exactly when it
    is g o pi for a hom g from the quotient, and each g o pi is a hom."""
    for T in targets:
        if not (is_commutative(T) and is_completely_regular(T)):
            raise TargetNotRegularCommutative(
                "universal-property targets must be commutative and regular")
        lifted = {g.compose(q.projection) for g in enumerate_homs(q.quotient, T)}
        if set(enumerate_homs(q.source, T)) != lifted:
            return False
    return True


# ---------------------------------------------------------------------------
# Normal form for finitely generated commutative regular monoids


@record
class NormalFormMonoid:
    """A finitely generated commutative regular monoid presented by a finite
    semilattice, coordinate supports, and relation lattices.

    Elements are pairs [d, v] with d a semilattice index and v an integer
    vector over the coordinates, supported on lam[d] and canonical modulo
    xi[d], so ``==`` on :class:`NFElement` is equality in the monoid.
    """

    semilattice: FiniteMonoid
    num_coords: int
    lam: tuple        # per semilattice element: frozenset of coordinate indices
    xi: tuple         # per semilattice element: Lattice over Z^num_coords
    anchors: tuple    # per coordinate: the designated idempotent d(alpha)

    @property
    def identity(self):
        return NFElement(self, self.semilattice.identity, (0,) * self.num_coords)

    def mul(self, x, y):
        d = self.semilattice.mul(x.d, y.d)
        return nf_element(self, d, [a + b for a, b in zip(x.v, y.v)])


def semilattice_leq(N, a, b):
    """a <= b in the semilattice order (a absorbs b)."""
    return N.mul(a, b) == a


def covering_pairs(N):
    """The pairs a < b of the semilattice order with nothing strictly
    between.  Elements are scanned by the size of their down-sets, which
    grows along the order, so b covers a exactly when a < b and no cover
    of a found before b lies below b."""
    elements = N.elements
    size = {b: sum(semilattice_leq(N, a, b) for a in elements) for b in elements}
    ordered = sorted(elements, key=size.__getitem__)
    pairs = []
    for a in elements:
        covers = []
        for b in ordered:
            if (b != a and semilattice_leq(N, a, b)
                    and not any(semilattice_leq(N, c, b) for c in covers)):
                covers.append(b)
        pairs += [(a, b) for b in covers]
    return pairs


def supported(lam_d, v):
    """Whether the vector v is zero off the coordinate set lam_d."""
    return all(j in lam_d for j, a in enumerate(v) if a)


def make_normal_form(semilattice, num_coords, lam, xi, anchors):
    if not is_semilattice(semilattice):
        raise MonoidError("carrier of a normal form must be a semilattice")
    N = semilattice
    lam = tuple(frozenset(s) for s in lam)
    xi = tuple(xi)
    anchors = tuple(anchors)
    if len(lam) != N.size or len(xi) != N.size or len(anchors) != num_coords:
        raise MonoidError("normal form component sizes do not match")
    if any(not 0 <= j < num_coords for s in lam for j in s):
        raise MonoidError("support coordinate out of range")
    # inclusion is transitive, so monotonicity along the covering pairs is
    # monotonicity along the whole order
    covers = covering_pairs(N)
    if any(not (lam[b] <= lam[a]) for a, b in covers):
        raise MonoidError("coordinate supports are not monotone")
    for d in N.elements:
        L = xi[d]
        if L.ambient_dim != num_coords:
            raise MonoidError("relation lattice has wrong dimension")
        if not all(supported(lam[d], row) for row in L.basis):
            raise MonoidError("relation lattice not supported on lam(d)")
    for a, b in covers:
        for row in xi[b].basis:
            if not lattice_member(list(row), xi[a]):
                raise MonoidError("relation lattices are not monotone")
    for alpha, d in enumerate(anchors):
        if alpha not in lam[d]:
            raise MonoidError(f"anchor of coordinate {alpha} does not support it")
    return NormalFormMonoid(N, num_coords, lam, xi, anchors)


@record
class NFElement:
    nf: NormalFormMonoid
    d: int
    v: tuple

    def __post_init__(self):
        if len(self.v) != self.nf.num_coords:
            raise MonoidError("vector has wrong length")


def nf_element(NF, d, v):
    """Construct the canonical element [d, v]."""
    v = list(v)
    if not supported(NF.lam[d], v):
        raise MonoidError("vector is not supported on lam(d)")
    return NFElement(NF, d, tuple(reduce_mod_lattice(v, NF.xi[d])))


def nf_power(NF, x, n):
    """x^n for any integer n; negative powers use the group inverse."""
    if n == 0:
        return NF.identity
    return nf_element(NF, x.d, [n * a for a in x.v])


def nf_generator(NF, alpha):
    """The element corresponding to coordinate alpha: [d(alpha), e_alpha]."""
    v = [0] * NF.num_coords
    v[alpha] = 1
    return nf_element(NF, NF.anchors[alpha], v)


def integers_nf():
    """The monoid of integers under addition as a normal form: trivial
    semilattice, one coordinate, zero relation lattice."""
    trivial = FiniteMonoid(((0,),), 0)
    return make_normal_form(trivial, 1, [frozenset({0})],
                            [Lattice(1, ())], [0])


# ---------------------------------------------------------------------------
# Finite -> normal form conversion


@record
class NFIsomorphism:
    """Isomorphism data between a finite commutative regular monoid and its
    normal form: encode/decode round-trip maps."""

    monoid: FiniteMonoid
    nf: NormalFormMonoid
    generators: tuple            # coordinate alpha -> generator element of M
    idem_of_new: tuple           # semilattice index -> idempotent element of M
    _encode_table: tuple

    def encode(self, a):
        return self._encode_table[a]

    def decode(self, x):
        return eval_exponents(self.monoid, self.idem_of_new[x.d], self.generators, x.v)


def to_normal_form(M):
    """Present a finite commutative completely regular monoid over the
    generators of :func:`core.generator_walk`, read off the walk in one
    pass; returns an :class:`NFIsomorphism`.

    A tree edge (c, a, k) gives vec(c) = vec(a) + e_k and idem(c) =
    idem(a)*d(g_k), as d(ab) = d(a)*d(b).  The k-edges leave the group G_d
    of d unless d*d(g_k) = d, and then permute G_d; at most |G_d| - 1 of
    them are tree edges, so a closed one (a, k, c) puts k in lam(d) and
    the relator vec(a) + e_k - vec(c) in xi(d).  These relators span the
    kernel K of Z^lam(d) -> G_d, v -> d*prod g^v (Schreier's lemma, abelian
    form): each lies in K, and modulo their span every k-edge inside G_d
    gives vec(a) + e_k = vec(a*g_k), so vec(a) - e_k = vec(a*g_k^-1), and
    by induction vec(d) + v = vec(d*prod g^v), which is vec(d) for v in K.
    The Hermite basis of K is the same for every spanning set."""
    if not is_commutative(M):
        raise NotCommutative("normal form needs a commutative monoid")
    if not is_completely_regular(M):
        raise NotRegular("normal form needs a completely regular monoid")
    gens, steps = generator_walk(M)
    q = len(gens)
    N, idem_of_new, new_of_idem = submonoid(M, idempotents(M))
    anchors = [new_of_idem[d_of(M, g)] for g in gens]
    unit = [(0,) * k + (1,) + (0,) * (q - 1 - k) for k in range(q)]
    vec = {M.identity: [0] * q}
    idem = {M.identity: N.identity}    # the semilattice index of d(a)
    lam, relators = ([set() for _ in N.elements] for _ in range(2))
    for new, closed in steps:
        for c, a, k in new:
            idem[c] = N.table[idem[a]][anchors[k]]
            vec[c] = list(map(add, vec[a], unit[k]))
        for a, k, c in closed:
            d = idem[a]
            if idem[c] == d:
                lam[d].add(k)
                relators[d].add(unit[k] if a == c else
                                tuple(map(sub, map(add, vec[a], unit[k]), vec[c])))
    xi = [lattice_from_generators(q, rs) for rs in relators]
    NF = make_normal_form(N, q, lam, xi, anchors)
    encode_table = tuple(nf_element(NF, idem[a], vec[a]) for a in M.elements)
    return NFIsomorphism(M, NF, tuple(gens), tuple(idem_of_new), encode_table)


# ---------------------------------------------------------------------------
# Homomorphisms from a normal form into a finite monoid


@record
class NFHom:
    """Homomorphism from a normal-form monoid into a finite monoid, given by
    images of the semilattice elements and of the coordinate generators.

    It shares one protocol with :class:`core.MonoidHom`, so callers never ask
    which kind of hom they hold: ``h(x)``, ``generating_images()``,
    ``image_set()``, ``relation_image(T)``, ``relation_generators(T)``,
    ``pointwise_product(other)`` and ``constant()``.
    """

    source: NormalFormMonoid
    target: FiniteMonoid
    phi_images: tuple   # per semilattice element
    gen_images: tuple   # per coordinate

    def __call__(self, x):
        return eval_exponents(self.target, self.phi_images[x.d], self.gen_images, x.v)

    def generating_images(self):
        """A finite set whose generated submonoid is the image: the images
        of the semilattice elements and of the generators.  A generator
        image g is regular, so its inverse is a positive power of g (g^(m-1)
        for g of order m >= 2 in its group, g itself when m = 1), and the
        images of the generators' inverses add nothing."""
        return set(self.phi_images) | set(self.gen_images)

    def image_set(self):
        return nf_hom_image(self)

    def relation_image(self, T):
        return nf_relation_image(self, T)

    def relation_generators(self, T):
        """U', a subset of h(R) with the same coset closure: for each block,
        its offset's image o and o*h(w) for each lattice basis vector w.

        U' <= h(R), as o*h(w) is the image of offset + w.  The block's image
        is o*<W>, W = {h(w)} (:func:`_block_image`).  Inside a commutative,
        completely regular A^r holding h(R), let e be o's idempotent; then
        o^-1 * (o*h(w)) = e*h(w) lies in U'^-1 x U', and as o*e = o,
        o*(e*h(w))^k = o*h(w)^k lies in [U'] for every k >= 0; so does o
        times any product of such powers: o*<W> <= [U'].  Hence h(R) <= [U']
        <= [h(R)], and [U'] = [h(R)]."""
        F, q = self.target, self.source.num_coords
        out = set()
        for block in T.relation:
            o, words = _block_generators(F, self.phi_images, self.gen_images, block, q)
            out.add(o)
            out.update(tuple(map(F.mul, o, w)) for w in words)
        return frozenset(out)

    def pointwise_product(self, other):
        F = self.target
        return NFHom(self.source, F,
                     tuple(F.mul(a, b) for a, b in zip(self.phi_images, other.phi_images)),
                     tuple(F.mul(a, b) for a, b in zip(self.gen_images, other.gen_images)))

    def constant(self):
        """The hom sending everything to the target identity."""
        NF, F = self.source, self.target
        return NFHom(NF, F, (F.identity,) * NF.semilattice.size,
                     (F.identity,) * NF.num_coords)


def nf_hom_image(h):
    """The (finite) image set of an NFHom inside its target: the submonoid
    generated by its generating images."""
    return generated_subset(h.target, h.generating_images())


def _block_generators(F, phis, gens, block, q):
    """(o, W) for one block of an NF relation under the hom with semilattice
    images ``phis`` and generator images ``gens``: the image o of the offset
    (its slices evaluated unreduced, as a hom kills xi(d)) and the images W
    of the lattice basis vectors."""
    r = len(block.d_tuple)
    o = tuple(eval_exponents(F, phis[d], gens, block.coset.offset[i * q:(i + 1) * q])
              for i, d in enumerate(block.d_tuple))
    words = [tuple(eval_exponents(F, F.identity, gens, u[i * q:(i + 1) * q])
                   for i in range(r))
             for u in block.coset.lattice.basis]
    return o, words


def _block_image(F, phis, gens, block, q, within=None):
    """The image of one block of an NF relation: the offset's image o closed
    under the images W of the lattice generators (:func:`_block_generators`),
    or None once it leaves ``within``.

    Closing under W alone gives the closure under W and W^-1.  Each w in W
    is a product of the commuting regular generator images and their
    inverses, so w lies in a subgroup of F^r, of some finite order m there.
    Then w^-1 = w^j with j >= 1: j = m - 1 when m >= 2, and j = 1 when w is
    idempotent.  A word in W and W^-1 therefore equals a word in W."""
    o, words = _block_generators(F, phis, gens, block, q)
    return closed_under(CartesianPower(F, len(o)), (o,), words, within)


def nf_relation_image(h, T):
    """h(R) for an NF template relation: the union of its blocks' images."""
    q = h.source.num_coords
    return frozenset().union(*(_block_image(h.target, h.phi_images, h.gen_images, block, q)
                               for block in T.relation))


def homs_into(M, F, relation=(), allowed=frozenset()):
    """Every homomorphism from a carrier (finite or normal form) into the
    finite monoid F that maps ``relation`` (the tuples of a finite M, the
    blocks of an NF M) into ``allowed``, in deterministic order: a list for
    a finite M, and for an NF M an iterator that tests a hom's blocks only
    when it is asked for that hom."""
    if isinstance(M, NormalFormMonoid):
        return nf_homs(M, F, relation, allowed)
    return enumerate_homs(M, F, relation, allowed)


def nf_homs_to_finite(NF, F, blocks=(), allowed=frozenset()):
    """The list of :func:`nf_homs`."""
    return list(nf_homs(NF, F, blocks, allowed))


def nf_homs(NF, F, blocks=(), allowed=frozenset()):
    """The monoid homomorphisms from NF into the finite monoid F that map
    each of ``blocks`` into ``allowed``, yielded in (phi_images, gen_images)
    order.

    A hom is a semilattice hom phi: N -> F and regular generator images
    g_alpha, d_{g_alpha} = phi(anchor(alpha)), that commute with each other
    and with phi's images and satisfy the relation-lattice identities.  phi
    needs no more test: phi(d)^2 = phi(d^2) = phi(d) and phi(a)phi(b) =
    phi(ab) = phi(ba).  :func:`core.backtrack` tests g_alpha against the
    earlier g and phi's images, and against each row of xi whose last
    non-zero coordinate is alpha; a complete hom is yielded when every
    block's image stays in ``allowed``, tested when the caller asks for the
    next hom.  enumerate_homs lists phi in image order and backtrack yields
    the g in lexicographic order, so the order needs no sort.
    """
    regular_of = {}     # idempotent e -> its maximal subgroup, in element order
    for a in F.elements:
        e = d_of(F, a)
        if F.mul(e, a) == a:
            regular_of.setdefault(e, []).append(a)
    q = NF.num_coords
    relators_at = [[] for _ in range(q)]   # by last non-zero alpha
    for d in NF.semilattice.elements:
        for row in NF.xi[d].basis:
            last = max(j for j, n in enumerate(row) if n)
            relators_at[last].append((d, row))

    def accept(alpha, g):
        x = g[alpha]
        return (commute(F, (x,), g[:alpha]) and commute(F, (x,), phis)
                and all(eval_exponents(F, phis[d], g, row) == phis[d]
                        for d, row in relators_at[alpha]))

    for phi in enumerate_homs(NF.semilattice, F):
        phis = phi.images
        candidates = [regular_of[phis[d]] for d in NF.anchors]
        for g in backtrack(candidates, accept):
            if all(_block_image(F, phis, g, block, q, allowed) is not None
                   for block in blocks):
                yield NFHom(NF, F, phis, g)
