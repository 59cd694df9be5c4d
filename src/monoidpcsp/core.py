"""Finite monoids as Cayley tables, Green's preorder, idempotent structure,
projections, the one generator walk, the one backtracking search and
homomorphism enumeration.

Elements of a monoid of size n are the integers 0..n-1.  All operations are
pure; monoids and homomorphisms are immutable after construction.
"""

from itertools import product

from .errors import (
    MonoidError,
    NoIdentity,
    NotAssociative,
    NotCommutative,
    NotRegular,
    TooLarge,
)
from .record import record


@record
class FiniteMonoid:
    """A finite monoid given by its multiplication table.

    ``table[a][b]`` is the product a*b.  Use :func:`validate_monoid` to
    construct one from untrusted data.
    """

    table: tuple
    identity: int

    @property
    def size(self):
        return len(self.table)

    @property
    def elements(self):
        return range(len(self.table))

    def mul(self, a, b):
        return self.table[a][b]

    def power(self, a, n):
        if n < 0:
            raise ValueError("negative power on a plain monoid element")
        acc = self.identity
        base = a
        while n:
            if n & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            n >>= 1
        return acc

    def prod(self, elems):
        acc = self.identity
        for x in elems:
            acc = self.table[acc][x]
        return acc


def validate_monoid(table, identity):
    """Check the identity laws and associativity and return a
    :class:`FiniteMonoid`.

    Associativity is Light's test: (a*b)*g = a*(b*g) is checked for every
    a, b and for g in a generating set only.  It is exact.  Let G be the set
    of g that pass for every a and b.  The identity is in G by the identity
    laws.  For g, h in G and any a, b,
    (a*b)*(g*h) = ((a*b)*g)*h = (a*(b*g))*h = a*((b*g)*h) = a*(b*(g*h)),
    using h, g, h and h in turn, so G is closed under products.  Every
    element is a product of generators, so G holds every element.

    Raises :class:`NotAssociative` with the lexicographically first failing
    triple, or :class:`NoIdentity` with a witness element.
    """
    n = len(table)
    if n == 0:
        raise MonoidError("empty table")
    tab = tuple(tuple(row) for row in table)
    for row in tab:
        if len(row) != n:
            raise MonoidError("table is not square")
        for v in row:
            if not (0 <= v < n):
                raise MonoidError(f"table entry {v} out of range")
    if not (0 <= identity < n):
        raise MonoidError(f"identity index {identity} out of range")
    for a in range(n):
        if tab[identity][a] != a or tab[a][identity] != a:
            raise NoIdentity(a)
    M = FiniteMonoid(tab, identity)
    for g in generator_walk(M)[0]:
        column = [row[g] for row in tab]
        # (a*b)*g against a*(b*g), over all b at once
        for row_a in tab:
            if [column[ab] for ab in row_a] != [row_a[bg] for bg in column]:
                raise NotAssociative(_first_non_associative_triple(tab))
    return M


def _first_non_associative_triple(tab):
    n = len(tab)
    for a in range(n):
        for b in range(n):
            row_ab = tab[tab[a][b]]
            row_b = tab[b]
            for c in range(n):
                if row_ab[c] != tab[a][row_b[c]]:
                    return (a, b, c)


@record
class MonoidHom:
    """A monoid homomorphism between two finite monoids, stored as the full
    image tuple ``images[a] = f(a)``.

    It shares one protocol with :class:`regularize.NFHom`, so callers never
    ask which kind of hom they hold: ``h(a)``, ``generating_images()``,
    ``image_set()``, ``relation_image(T)``, ``relation_generators(T)``,
    ``pointwise_product(other)`` and ``constant()``.
    """

    source: FiniteMonoid
    target: FiniteMonoid
    images: tuple

    def __call__(self, a):
        return self.images[a]

    def generating_images(self):
        """A finite set whose generated submonoid is the image."""
        return set(self.images)

    def image_set(self):
        return frozenset(self.images)

    def relation_image(self, T):
        """The image of a finite template's relation, as a tuple set."""
        return frozenset(tuple(self.images[a] for a in t) for t in T.relation)

    def relation_generators(self, T):
        """A subset of the relation image with the same coset closure: the
        whole image, as a finite relation has no smaller presentation."""
        return self.relation_image(T)

    def pointwise_product(self, other):
        F = self.target
        return make_hom(self.source, F,
                        tuple(F.mul(a, b) for a, b in zip(self.images, other.images)))

    def constant(self):
        """The hom sending everything to the target identity."""
        return make_hom(self.source, self.target,
                        (self.target.identity,) * self.source.size)

    def compose(self, other):
        """Return self o other (other applied first)."""
        return MonoidHom(other.source, self.target,
                         tuple(self.images[other.images[a]] for a in other.source.elements))


def make_hom(source, target, images):
    images = tuple(images)
    if not is_hom_map(source, target, images):
        raise MonoidError("map is not a monoid homomorphism")
    return MonoidHom(source, target, images)


def is_hom_map(source, target, images):
    """True iff images sends the identity to the identity and every product
    a*b to images[a]*images[b]: the one all-pairs product check."""
    if images[source.identity] != target.identity:
        return False
    return all(images[source.mul(a, b)] == target.mul(images[a], images[b])
               for a in source.elements for b in source.elements)


# ---------------------------------------------------------------------------
# Green's preorder and the idempotent structure


def green_leq(M, a, b):
    """a <= b in Green's preorder: some c1, c2 satisfy c1*b = b*c2 = a."""
    left = any(M.mul(c1, b) == a for c1 in M.elements)
    if not left:
        return False
    return any(M.mul(b, c2) == a for c2 in M.elements)


def green_classes(M):
    """Partition of the elements into classes of mutual green_leq, ordered by
    smallest member."""
    classes = []
    seen = [False] * M.size
    for a in M.elements:
        if seen[a]:
            continue
        cls = [a]
        seen[a] = True
        for b in range(a + 1, M.size):
            if not seen[b] and green_leq(M, a, b) and green_leq(M, b, a):
                cls.append(b)
                seen[b] = True
        classes.append(cls)
    return classes


def idempotents(M):
    return frozenset(a for a in M.elements if M.mul(a, a) == a)


def commute(M, xs, ys):
    """True iff every x in xs commutes with every y in ys."""
    return all(M.mul(x, y) == M.mul(y, x) for x in xs for y in ys)


def is_commutative(M):
    return commute(M, M.elements, M.elements)


def is_semilattice(M):
    return is_commutative(M) and len(idempotents(M)) == M.size


def idempotent_constant(M):
    """Smallest C > 1 with a^C idempotent for every element a."""
    idem = idempotents(M)
    C = 2
    while True:
        if all(M.power(a, C) in idem for a in M.elements):
            return C
        C += 1
        if C > 4 ** M.size + 2:
            raise MonoidError("no idempotent constant found; table is not a monoid")


# The element-level primitives below use only ``mul`` and ``identity``, so
# they serve a FiniteMonoid and a CartesianPower alike.


def power_walk(M, a):
    """[a, a^2, ..., a^m], ending at the first idempotent power a^m.  Every
    element fact below reads this one walk."""
    walk = [a]
    x = a
    while M.mul(x, x) != x:
        x = M.mul(x, a)
        walk.append(x)
    return walk


def d_of(M, a):
    """The unique idempotent power of a."""
    return power_walk(M, a)[-1]


def is_regular_element(M, a):
    """True iff a lies in a subgroup, i.e. a^m * a = a for its idempotent
    power a^m."""
    return M.mul(d_of(M, a), a) == a


def is_completely_regular(M):
    return all(is_regular_element(M, a) for a in M.elements)


def inverse(M, a):
    """Group inverse of a regular element inside its maximal subgroup: the
    power a^(m-1) just below the idempotent power a^m, or a itself when a is
    idempotent.  A carrier with an inverse of its own (a CartesianPower)
    computes it there."""
    own = getattr(M, "inverse", None)
    if own is not None:
        return own(a)
    walk = power_walk(M, a)
    if M.mul(walk[-1], a) != a:
        raise NotRegular(a)
    return walk[-2] if len(walk) > 1 else a


def eval_exponents(M, base, gens, vec):
    """base * prod_alpha gens[alpha]^vec[alpha]; a negative exponent uses the
    group inverse of its generator."""
    acc = base
    for g, n in zip(gens, vec):
        if n > 0:
            acc = M.mul(acc, M.power(g, n))
        elif n < 0:
            acc = M.mul(acc, M.power(inverse(M, g), -n))
    return acc


def pi_I(M):
    """The projection a -> d_a onto the idempotents, for commutative M."""
    if not is_commutative(M):
        raise NotCommutative("pi_I needs a commutative monoid")
    return make_hom(M, M, tuple(d_of(M, a) for a in M.elements))


def pi_dagger(M):
    """The retraction a -> a*d_a onto the regular part, for commutative M."""
    if not is_commutative(M):
        raise NotCommutative("pi_dagger needs a commutative monoid")
    return make_hom(M, M, tuple(M.mul(a, d_of(M, a)) for a in M.elements))


# ---------------------------------------------------------------------------
# Submonoids and powers


def generated_subset(M, gens):
    """The submonoid generated by gens, as a set."""
    return closed_under(M, (M.identity,), gens)


def closed_under(M, start, gens, within=None):
    """The least superset of start closed under right multiplication by each
    of gens.  Every element is a member of start times a left-folded word in
    the generators, so the frontier is multiplied by the generators only.

    Given a set ``within``, it returns None at the first element it holds
    outside ``within``, a member of start included, so it returns the
    closure exactly when the closure lies in ``within``."""
    gens = list(gens)
    closed = set(start)
    if within is not None and not closed <= within:
        return None
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = M.mul(a, g)
                if c not in closed:
                    closed.add(c)
                    if within is not None and c not in within:
                        return None
                    nxt.append(c)
        frontier = nxt
    return frozenset(closed)


def submonoid(M, members):
    """Reindex a product-closed subset containing the identity as a monoid.

    Returns (monoid, old_of_new, new_of_old).
    """
    elems = sorted(members)
    if M.identity not in members:
        raise MonoidError("subset does not contain the identity")
    new_of_old = {a: i for i, a in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = M.mul(a, b)
            if c not in new_of_old:
                raise MonoidError("subset is not closed under products")
            row.append(new_of_old[c])
        table.append(tuple(row))
    sub = FiniteMonoid(tuple(table), new_of_old[M.identity])
    return sub, elems, new_of_old


class CartesianPower:
    """Coordinatewise monoid structure on n-tuples over a finite monoid.

    The arithmetic never builds the full table: a product reads the base
    table coordinate by coordinate, and the group inverse of a tuple is the
    tuple of its coordinates' inverses, each computed once per base element.
    """

    def __init__(self, M, n):
        if n < 1:
            raise ValueError("power must be at least 1")
        self.base = M
        self.n = n
        self.identity = (M.identity,) * n
        self._inverse_of = {}

    @property
    def elements(self):
        return product(self.base.elements, repeat=self.n)

    def mul(self, xs, ys):
        table = self.base.table
        return tuple([table[x][y] for x, y in zip(xs, ys)])

    def inverse(self, xs):
        """The group inverse of a tuple: it is regular exactly when every
        coordinate is, and raises NotRegular naming the whole tuple when one
        is not."""
        inv = self._inverse_of
        try:
            for x in xs:
                if x not in inv:
                    inv[x] = inverse(self.base, x)
        except NotRegular:
            raise NotRegular(xs) from None
        return tuple([inv[x] for x in xs])


def direct_product(M, N):
    """Cayley table of M x N, elements ordered lexicographically."""
    elems = [(a, b) for a in M.elements for b in N.elements]
    index = {t: i for i, t in enumerate(elems)}
    table = tuple(
        tuple(index[(M.mul(a1, a2), N.mul(b1, b2))] for (a2, b2) in elems)
        for (a1, b1) in elems
    )
    return FiniteMonoid(table, index[(M.identity, N.identity)])


# ---------------------------------------------------------------------------
# Backtracking search and homomorphism enumeration


def backtrack(domains, accept):
    """Every assignment whose position i holds a value of domains[i] and for
    which accept(i, assignment) holds once positions 0..i are set, as
    tuples in lexicographic order (each domain in its own order).

    The one backtracking search: it keeps its own stack of value iterators,
    so the number of positions is not bounded by the recursion limit.
    accept sees the live list, where positions past i hold stale values."""
    n = len(domains)
    if n == 0:
        yield ()
        return
    assignment = [None] * n
    stack = [iter(domains[0])]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            assignment[i] = v
            if accept(i, assignment):
                break
        else:
            stack.pop()
            continue
        if i + 1 == n:
            yield tuple(assignment)
        else:
            stack.append(iter(domains[i + 1]))


def generator_walk(M):
    """(gens, steps): a greedy generating set, each generator the least
    element that the earlier ones do not reach, and the Cayley graph it
    spans.  steps[j] holds the elements gens[j] newly reaches, as (element,
    parent, generator index) along a BFS, and the Cayley edges (a, generator
    index, a*gens[k]) it newly closes.  Each element is multiplied by each
    generator once.  M need not be associative; every reached element is
    still a product of generators."""
    reached = {M.identity}
    order = [M.identity]
    gens, steps = [], []
    for g in M.elements:
        if g in reached:
            continue
        j = len(gens)
        gens.append(g)
        new, closed = [], []
        edges = [(a, j) for a in order]
        for a, k in edges:  # grows as the BFS reaches new elements
            c = M.mul(a, gens[k])
            if c in reached:
                closed.append((a, k, c))
            else:
                reached.add(c)
                new.append((c, a, k))
                edges.extend((c, i) for i in range(j + 1))
        order.extend(c for c, _, _ in new)
        steps.append((new, closed))
    return gens, steps


def enumerate_homs(M, N, tuples=(), allowed=frozenset()):
    """The list of all monoid homomorphisms M -> N that map every tuple of
    ``tuples`` into ``allowed`` (every hom when there are no tuples),
    ordered lexicographically by their full image tuples.

    Generator images are chosen one at a time by :func:`backtrack`.  The
    elements a generator prefix newly reaches take their images along BFS
    tree edges, and a branch is cut as soon as a Cayley edge it closes fails
    img[a*g] == img[a]*img[g].  A map sending the identity to the identity
    and respecting every Cayley edge respects every product, by induction
    on word length.  A branch is cut only when the coordinates of a tuple
    reached so far lie outside the projection of ``allowed`` onto their
    positions, so no completion of it could map the tuple into ``allowed``.

    No sort follows: backtrack yields the homs in lexicographic order of
    their generator images, and that is image-tuple order.  gens[k] is the
    least element that gens[:k] do not reach (:func:`generator_walk`), so
    the images of gens[:k] fix the image of every element below gens[k].
    Two homs whose generator images first differ at k thus agree below
    gens[k], and their image tuples first differ at gens[k], the same way.
    """
    steps = generator_walk(M)[1]
    step_of = {M.identity: -1}
    for j, (new, _) in enumerate(steps):
        step_of.update((c, j) for c, _, _ in new)
    projections = {}
    checks = [[] for _ in range(len(steps) + 1)]   # checks[j + 1]: at step j
    for t in set(tuples):
        for j in {step_of[a] for a in t}:
            positions = tuple(i for i, a in enumerate(t) if step_of[a] <= j)
            if positions not in projections:
                projections[positions] = frozenset(
                    tuple(s[i] for i in positions) for s in allowed)
            checks[j + 1].append(([t[i] for i in positions], projections[positions]))
    table = N.table
    img = [None] * M.size
    img[M.identity] = N.identity

    def maps_into(j):
        return all(tuple(img[a] for a in coords) in allowed_part
                   for coords, allowed_part in checks[j + 1])

    def accept(j, gen_imgs):
        new, closed = steps[j]
        for c, a, k in new:
            img[c] = table[img[a]][gen_imgs[k]]
        for a, k, c in closed:
            if img[c] != table[img[a]][gen_imgs[k]]:
                return False
        return maps_into(j)

    if not maps_into(-1):
        return []
    return [MonoidHom(M, N, tuple(img))
            for _ in backtrack([N.elements] * len(steps), accept)]


# ---------------------------------------------------------------------------
# Built-in monoids and the text format


def cyclic(k):
    """The cyclic group Z/k under addition."""
    if k < 1:
        raise ValueError("cyclic group order must be positive")
    table = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    return FiniteMonoid(table, 0)


def semilattice_chain(k):
    """Chain semilattice on 0..k-1 with product max (0 is the identity)."""
    if k < 1:
        raise ValueError("chain length must be positive")
    table = tuple(tuple(max(a, b) for b in range(k)) for a in range(k))
    return FiniteMonoid(table, 0)


def flipflop1():
    """The right-zero two-element semigroup with an identity adjoined; the
    smallest non-commutative monoid."""
    # elements: 0 = e, 1 = a, 2 = b with x*y = y for x, y in {a, b}
    table = ((0, 1, 2), (1, 1, 2), (2, 1, 2))
    return FiniteMonoid(table, 0)


def null_extension():
    """{e, a, 0} with a*a = 0 and 0 absorbing; a is not regular."""
    table = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    return FiniteMonoid(table, 0)


# cyclic:k and semilattice:chain:k build a k x k table from a few bytes of
# input, so k is bounded; cyclic(1024) builds in about 0.2 s.
MAX_KEYWORD_ORDER = 1024


def monoid_from_keyword(word):
    if word == "flipflop1":
        return flipflop1()
    kind, _, order = word.rpartition(":")
    build = {"cyclic": cyclic, "semilattice:chain": semilattice_chain}.get(kind)
    if build is None:
        raise MonoidError(f"unknown monoid keyword {word!r}")
    k = int(order)
    if k > MAX_KEYWORD_ORDER:
        raise TooLarge(f"carrier {word!r} has more than {MAX_KEYWORD_ORDER} elements")
    return build(k)


def format_monoid(M):
    lines = [f"monoid {M.size} {M.identity}"]
    for row in M.table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
