"""Polymorphism machinery: componentwise polymorphisms and their minors,
2-block symmetric polymorphisms, minor conditions, and the reduction from
promise minor conditions to instances.
"""

from functools import reduce
from itertools import combinations, product

from .core import (
    CartesianPower,
    backtrack,
    commute,
    direct_product,
    enumerate_homs,
    generated_subset,
)
from .cosets import setprod, tensor_power
from .errors import (
    ArityMismatch,
    MonoidError,
    NonCommutingImages,
    ParseError,
    TooLarge,
    ValidationError,
)
from .model import (
    Identity,
    Product,
    Relation,
    check_pair,
    content_lines,
    finite_carrier,
    make_instance,
    parse_ints,
)
from .record import record
from .regularize import homs_into

# bound on every brute-force search over tables and assignments below
SEARCH_CAP = 200_000


# ---------------------------------------------------------------------------
# Componentwise polymorphisms


@record
class HomPolymorphism:
    """The map (x_1, ..., x_n) -> f_1(x_1) * ... * f_n(x_n) given by component
    homomorphisms with pairwise commuting images."""

    components: tuple

    @property
    def arity(self):
        return len(self.components)

    @property
    def target(self):
        return self.components[0].target

    def __call__(self, args):
        F = self.target
        acc = F.identity
        for f, x in zip(self.components, args):
            acc = F.mul(acc, f(x))
        return acc


def _images_commute(F, h1, h2):
    return commute(F, h1.generating_images(), h2.generating_images())


def make_hom_polymorphism(components):
    components = tuple(components)
    if not components:
        raise ValidationError("a polymorphism needs at least one component")
    F = components[0].target
    for i, h1 in enumerate(components):
        for h2 in components[i:]:
            if not _images_commute(F, h1, h2):
                raise NonCommutingImages(
                    "component images do not commute pairwise")
    return HomPolymorphism(components)


def minor(f, sigma, m=None):
    """The minor f^sigma for sigma: [n] -> [m], given as a length-n tuple of
    indices below m.  Component i of the minor is the product of the f_j with
    sigma(j) = i."""
    n = f.arity
    if len(sigma) != n:
        raise ArityMismatch("sigma must assign every coordinate")
    if m is None:
        m = max(sigma) + 1
    if any(not 0 <= s < m for s in sigma):
        raise ValidationError("sigma image out of range")
    out = []
    for i in range(m):
        acc = None
        for j in range(n):
            if sigma[j] == i:
                acc = f.components[j] if acc is None else \
                    acc.pointwise_product(f.components[j])
        out.append(acc if acc is not None else f.components[0].constant())
    return make_hom_polymorphism(out)


# ---------------------------------------------------------------------------
# Polymorphism checking


@record
class TableMap:
    """An explicit finite map M^arity -> N, for polymorphism work at small
    sizes."""

    arity: int
    table: dict

    def __call__(self, args):
        return self.table[tuple(args)]


def is_polymorphism(f, relM, relN):
    """True iff the componentwise polymorphism f maps n-fold relation
    combinations of relM into relN's relation."""
    check_pair(relM, relN)
    images = [h.relation_image(relM) for h in f.components]
    P = CartesianPower(relN.carrier, relN.arity)
    acc = images[0]
    for S in images[1:]:
        acc = setprod(P, acc, S)
    return acc <= relN.relation


# ---------------------------------------------------------------------------
# 2-block symmetric polymorphisms


def find_block_symmetric(relM, relN, i):
    """Search for an arity-(2i+1) polymorphism with components constant on
    the two blocks; returns the first hit in lexicographic order or None.

    The components g1 (i+1 times) and g2 (i times) map the relation
    combinations onto A x B, with A the (i+1)-fold set product of g1's
    relation image and B the i-fold one of g2's; each pair is the
    :func:`is_polymorphism` test on these two sets, stopping at the first
    product outside relN's relation."""
    check_pair(relM, relN)
    homs = list(homs_into(relM.carrier, relN.carrier))
    if len(homs) ** 2 > SEARCH_CAP:
        raise TooLarge("too many homomorphism pairs")
    F, rel = relN.carrier, relN.relation
    P = CartesianPower(F, relN.arity)
    images = [h.relation_image(relM) for h in homs]
    # B for each g2; at i = 0 there is no second block, and A alone is tested
    second = [tensor_power(P, S, i) for S in images] if i else images
    for g1, S1 in zip(homs, images):
        A = tensor_power(P, S1, i + 1)
        for g2, B in zip(homs, second):
            if not _images_commute(F, g1, g2):
                continue
            if A <= rel if i == 0 else all(P.mul(x, y) in rel for x in A for y in B):
                # a hit has one component per argument; the search itself
                # only takes set powers, so it answers at any arity
                if 2 * i + 1 > SEARCH_CAP:
                    raise TooLarge("polymorphism arity exceeds the cap")
                return HomPolymorphism(tuple([g1] * (i + 1) + [g2] * i))
    return None


# ---------------------------------------------------------------------------
# Minor conditions


@record
class MinorCondition:
    """Symbols with arities on two sides, and edges (u, v, phi) asserting
    that the v-function is the phi-minor of the u-function, with
    phi: [ar(u)] -> [ar(v)] as an image tuple."""

    u_symbols: tuple   # (name, arity) pairs
    v_symbols: tuple
    edges: tuple       # (u_name, v_name, phi)


def make_minor_condition(u_symbols, v_symbols, edges):
    arity = dict(u_symbols)
    arity.update(dict(v_symbols))
    if len(arity) != len(u_symbols) + len(v_symbols):
        raise ValidationError("symbol names must be unique")
    for name, k in arity.items():
        if k < 1:
            raise ValidationError(f"symbol {name} needs positive arity")
    for u, v, phi in edges:
        if u not in dict(u_symbols) or v not in dict(v_symbols):
            raise ValidationError(f"edge ({u}, {v}) references unknown symbols")
        if len(phi) != arity[u]:
            raise ValidationError(f"edge map for ({u}, {v}) has wrong length")
        if any(not 0 <= x < arity[v] for x in phi):
            raise ValidationError(f"edge map for ({u}, {v}) is out of range")
    return MinorCondition(tuple(u_symbols), tuple(v_symbols),
                          tuple((u, v, tuple(phi)) for u, v, phi in edges))


def all_symbols(cond):
    return list(cond.u_symbols) + list(cond.v_symbols)


def _satisfiable(cond, domains, edge_holds):
    """True iff each symbol x can take a value of domains[x] so that
    edge_holds(value of u, value of v, phi) for every edge (u, v, phi).
    :func:`core.backtrack` assigns the symbols in name order and tests each
    edge once, when its later end is set."""
    names = sorted(domains)
    at = {x: i for i, x in enumerate(names)}
    edges_at = [[] for _ in names]
    for u, v, phi in cond.edges:
        edges_at[max(at[u], at[v])].append((at[u], at[v], phi))

    def accept(i, chosen):
        return all(edge_holds(chosen[u], chosen[v], phi)
                   for u, v, phi in edges_at[i])

    return next(backtrack([domains[x] for x in names], accept), None) is not None


def is_trivial(cond):
    """True iff coordinates i_x can be chosen for every symbol so that every
    edge map sends i_u to i_v: satisfiability in the projections."""
    return _satisfiable(cond, {x: range(k) for x, k in all_symbols(cond)},
                        lambda i_u, i_v, phi: phi[i_u] == i_v)


def _table_minor(f, phi, m, M):
    table = {}
    for args in product(M.elements, repeat=m):
        table[args] = f(tuple(args[phi[j]] for j in range(f.arity)))
    return TableMap(m, table)


def all_table_polymorphisms(relM, relN, arity):
    """Every polymorphism M^arity -> N as an explicit table, in the order
    of :func:`core.enumerate_homs`: the homs from the power, a finite monoid
    numbered in ``product(M.elements, repeat=arity)`` order, into N that
    map relM's relation, arity rows at a time column by column, into relN's."""
    check_pair(relM, relN)
    M, N = finite_carrier(relM.carrier, "table polymorphism search"), relN.carrier
    keys = list(product(M.elements, repeat=arity))
    if N.size ** len(keys) > SEARCH_CAP:
        raise TooLarge("polymorphism enumeration exceeds the cap")
    if (M.size ** (2 * arity) > SEARCH_CAP
            or (len(relM.relation) or 1) ** arity > SEARCH_CAP):
        raise TooLarge("table polymorphism check exceeds the cap")
    if arity < 1:
        raise ValueError("power must be at least 1")
    index = {k: i for i, k in enumerate(keys)}
    columns = [tuple(index[tuple(row[j] for row in rows)] for j in range(relN.arity))
               for rows in product(relM.relation, repeat=arity)]
    homs = enumerate_homs(reduce(direct_product, [M] * arity), N,
                          columns, relN.relation)
    return [TableMap(arity, dict(zip(keys, h.images))) for h in homs]


def is_satisfiable_in_pol(cond, relM, relN):
    """Exhaustive search for polymorphisms assigned to the symbols so that
    every edge identity holds as a table equality."""
    M = finite_carrier(relM.carrier, "satisfiability search")
    arity = dict(all_symbols(cond))
    by_arity = {k: all_table_polymorphisms(relM, relN, k)
                for k in set(arity.values())}
    domains = {x: by_arity[k] for x, k in arity.items()}
    total = 1
    for polys in domains.values():
        total *= max(len(polys), 1)
        if total > SEARCH_CAP:
            raise TooLarge("assignment search exceeds the cap")

    def edge_holds(fu, fv, phi):
        return _table_minor(fu, phi, fv.arity, M).table == fv.table

    return _satisfiable(cond, domains, edge_holds)


def parse_minor_condition(text):
    u_symbols, v_symbols, edges = [], [], []
    for no, toks in content_lines(text):
        if toks[0] == "sym":
            if len(toks) != 4 or toks[3] not in ("U", "V"):
                raise ParseError(no, "sym line needs a name, arity, and side")
            (k,) = parse_ints(no, toks[2:3])
            (u_symbols if toks[3] == "U" else v_symbols).append((toks[1], k))
        elif toks[0] == "edge":
            if len(toks) < 4:
                raise ParseError(no, "edge line needs two symbols and a map")
            edges.append((toks[1], toks[2], tuple(parse_ints(no, toks[3:]))))
        else:
            raise ParseError(no, f"unknown line {toks[0]!r}")
    return make_minor_condition(u_symbols, v_symbols, edges)


def serialize_minor_condition(cond):
    lines = []
    for name, k in cond.u_symbols:
        lines.append(f"sym {name} {k} U")
    for name, k in cond.v_symbols:
        lines.append(f"sym {name} {k} V")
    for u, v, phi in cond.edges:
        lines.append(f"edge {u} {v} " + " ".join(str(i) for i in phi))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The reduction from promise minor conditions to instances


def minimal_generating_set(M, fits):
    """Smallest generating set, the first of its size in index order, or
    None once fits(k) fails at a size k no larger than the least one.

    An element a other than the identity lies in every generating set
    exactly when no x, y other than a give x*y = a, so one scan of the table
    finds these forced elements, and the search by increasing size chooses
    only among the rest.  The order is unchanged: of two sets of one size, A
    comes first exactly when the least element of the symmetric difference
    lies in A, and the forced elements never lie in it."""
    factored = set()
    for x in M.elements:
        for y in M.elements:
            c = M.mul(x, y)
            if c != x and c != y:
                factored.add(c)
    forced = [a for a in M.elements if a != M.identity and a not in factored]
    rest = [a for a in M.elements if a == M.identity or a in factored]
    for k in range(len(rest) + 1):
        if not fits(len(forced) + k):
            return None
        for combo in combinations(rest, k):
            gens = sorted(forced + list(combo))
            if len(generated_subset(M, gens)) == M.size:
                return gens
    raise MonoidError("unreachable: the whole element set generates")


def _unit_insertion_generators(M, N_arity, gens):
    """Generating set of M^N closed under coordinate re-mapping: tuples that
    are a fixed generator on a subset of coordinates and identity elsewhere."""
    out = {(M.identity,) * N_arity}
    for g in gens:
        for mask in range(1, 1 << N_arity):
            out.add(tuple(g if mask >> i & 1 else M.identity
                          for i in range(N_arity)))
    return sorted(out)


def _cayley_walk(P, U):
    """Breadth-first walk of the power P from its identity by right
    multiplication with U.  Returns (element -> position) in visiting order,
    the canonical word over U-indices at each position, and every edge
    (a, k, b) with b = a * U[k], as positions, in the order it was walked."""
    elems = [P.identity]
    pos = {P.identity: 0}
    words = [()]
    edges = []
    for a, x in enumerate(elems):
        for k, u in enumerate(U):
            y = P.mul(x, u)
            b = pos.get(y)
            if b is None:
                b = pos[y] = len(elems)
                elems.append(y)
                words.append(words[a] + (k,))
            edges.append((a, k, b))
    return pos, words, edges


def pmc_reduce(cond, relM, relN, N_arity, cap=SEARCH_CAP):
    """Translate a minor condition into an instance over the template
    signature.

    If the condition is trivial, the instance is satisfiable over relM; if
    the instance is satisfiable over relN, the condition is satisfiable in
    the polymorphisms of the pair.
    """
    check_pair(relM, relN)
    M, B = finite_carrier(relM.carrier, "the reduction"), relN.carrier
    r = relM.arity
    arity = dict(all_symbols(cond))
    if N_arity < 1:
        raise ValidationError("the reduction needs a positive arity")
    if any(k > N_arity for k in arity.values()):
        raise ValidationError("symbol arity exceeds the padding arity")
    # 2^N > cap once N exceeds the bit length of cap, so a huge power is
    # refused without being formed
    if (N_arity > cap or (M.size > 1 and N_arity > cap.bit_length())
            or M.size ** N_arity > cap):
        raise TooLarge("carrier power exceeds the cap")
    # the variables are numbered by the least generating set: a larger one
    # grows |U| = 1 + |gens| * (2^N - 1), and with it the B^|U| maps below
    gens = minimal_generating_set(
        M, lambda k: B.size ** (1 + k * ((1 << N_arity) - 1)) <= cap)
    if gens is None:
        raise TooLarge("map enumeration exceeds the cap")
    P = CartesianPower(M, N_arity)
    U = _unit_insertion_generators(M, N_arity, gens)
    pos, words, edges = _cayley_walk(P, U)

    # replay the walk for every map f: U -> B.  The first edge whose two
    # values disagree gives two words for one element of P, which every hom
    # must send to one value; a map with no such edge extends to a hom.
    conflicts = []      # word pairs from non-extending maps
    homs = []           # value lists, by position, of extending maps
    for f_values in product(B.elements, repeat=len(U)):
        val = [B.identity] + [None] * (len(words) - 1)
        for a, k, b in edges:
            v = B.table[val[a]][f_values[k]]
            if val[b] is None:
                val[b] = v
            elif val[b] != v:
                pair = (words[a] + (k,), words[b])
                if pair not in conflicts:
                    conflicts.append(pair)
                break
        else:
            homs.append(val)

    # witnesses against homs of the power that are not polymorphisms
    rel_rows = sorted(relM.relation)
    if rel_rows and len(rel_rows) ** N_arity > cap:
        raise TooLarge("relation witness search exceeds the cap")
    rel_witnesses = []  # lists of m words, one per relation position
    for val in homs:
        for rows in product(rel_rows, repeat=N_arity):
            at = [pos[tuple(row[j] for row in rows)] for j in range(r)]
            if tuple(val[a] for a in at) not in relN.relation:
                witness = tuple(words[a] for a in at)
                if witness not in rel_witnesses:
                    rel_witnesses.append(witness)
                break

    symbols = sorted(arity)
    var_of = {}
    for x in symbols:
        for u in U:
            var_of[(x, u)] = len(var_of)
    e_aux = len(var_of)
    next_var = e_aux + 1
    constraints = [Identity(e_aux)]

    def word_result(x, w):
        nonlocal next_var
        if not w:
            return e_aux
        acc = var_of[(x, U[w[0]])]
        for k in w[1:]:
            fresh = next_var
            next_var += 1
            constraints.append(Product(acc, var_of[(x, U[k])], fresh))
            acc = fresh
        return acc

    def equate(a, b):
        constraints.append(Product(a, e_aux, b))

    for x in symbols:
        for ws, wt in conflicts:
            equate(word_result(x, ws), word_result(x, wt))
        for witness in rel_witnesses:
            constraints.append(Relation(tuple(word_result(x, w)
                                              for w in witness)))

    for u, v, phi in cond.edges:
        padded = tuple(phi) + (phi[-1],) * (N_arity - len(phi))
        for alpha in U:
            alpha_phi = tuple(alpha[padded[i]] for i in range(N_arity))
            equate(var_of[(v, alpha)], var_of[(u, alpha_phi)])

    return make_instance(next_var, constraints)
