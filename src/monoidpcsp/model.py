"""Templates, instances, their text formats, and a brute-force
satisfiability oracle.

A template is a carrier monoid (finite, or a normal form with integer
coordinates) together with a single relation.  Finite relations are tuple
sets; normal-form relations are finite unions of lattice-coset blocks over
the concatenated coordinates.  Both kinds of template answer a constraint
the same way: ``T.carrier.mul(a, b)``, ``T.carrier.identity``, element
``==`` and ``t in T.relation``.

Each input rule has one home here: ``parse_ints`` reads the integer fields
of every line of the text formats (a carrier's element table reads the
canonical spellings of its elements first, in table rows and tuple lines,
and hands every line it misses to ``parse_ints``), ``make_finite_template``
checks a finite relation, ``make_nf_template`` checks that a normal-form
relation is a coset, ``finite_carrier`` refuses a normal-form
carrier where a finite one is needed, ``check_pair`` checks a promise pair
(relN finite, one arity), and ``check_arities`` checks the relation
constraints of an instance against a template.
"""

from itertools import chain

from .core import backtrack, monoid_from_keyword, validate_monoid
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    NotACoset,
    ParseError,
    TooLarge,
    ValidationError,
)
from .record import record
from .regularize import (
    NormalFormMonoid,
    integers_nf,
    make_normal_form,
    supported,
)
from .zlinalg import (
    LatticeCoset,
    coset_member,
    lattice_from_generators,
    lattice_member,
    reduce_mod_lattice,
)


# ---------------------------------------------------------------------------
# Constraints and instances


@record
class Product:
    x: object
    y: object
    z: object

    @property
    def vars(self):
        return (self.x, self.y, self.z)


@record
class Identity:
    x: object

    @property
    def vars(self):
        return (self.x,)


@record
class Relation:
    vars: tuple


@record
class Instance:
    var_count: int
    constraints: tuple


# every pass over an instance sizes its lists by the variable count, and a
# variable need not occur in a constraint, so the count is bounded
MAX_VARIABLES = 1_000_000


def make_instance(var_count, constraints):
    if var_count < 0:
        raise ValidationError(f"variable count {var_count} is negative")
    if var_count > MAX_VARIABLES:
        raise TooLarge(f"instance has more than {MAX_VARIABLES} variables")
    for c in constraints:
        if not isinstance(c, (Product, Identity, Relation)):
            raise ValidationError(f"unknown constraint {c!r}")
        for v in c.vars:
            if not isinstance(v, int) or not 0 <= v < var_count:
                raise ValidationError(f"variable index {v!r} out of range")
    return Instance(var_count, tuple(constraints))


# ---------------------------------------------------------------------------
# Templates


@record
class Block:
    """One lattice-coset block of a normal-form relation: the elements
    [d_1, v_1], ..., [d_r, v_r] whose concatenated vector lies in the coset."""

    d_tuple: tuple
    coset: LatticeCoset


@record
class BlockRelation:
    """A normal-form relation that is a coset: one lattice coset of the
    concatenated vectors per d-tuple, keyed by it.  Only
    :func:`make_nf_template` builds one.  Iterating yields the blocks; ``in``
    tests a tuple of NFElements by one lookup of its d-tuple."""

    cosets: dict  # d-tuple -> LatticeCoset

    def __iter__(self):
        return map(Block, self.cosets, self.cosets.values())

    def __contains__(self, elems):
        coset = self.cosets.get(tuple(x.d for x in elems))
        return coset is not None and coset_member([a for x in elems for a in x.v], coset)


@record
class Template:
    carrier: object
    arity: int
    relation: object  # frozenset of tuples, or a BlockRelation


def is_nf_template(T):
    return isinstance(T.carrier, NormalFormMonoid)


def finite_carrier(M, what):
    """M, when it is a finite monoid; ``what`` names the step that needs
    one in the ValidationError raised for a normal-form carrier."""
    if isinstance(M, NormalFormMonoid):
        raise ValidationError(f"{what} needs a finite carrier")
    return M


def check_pair(relM, relN):
    """The input rules of a promise pair: relN has a finite carrier, and
    the two relations have one arity.  relM may be finite or normal form."""
    finite_carrier(relN.carrier, "the target template")
    if relM.arity != relN.arity:
        raise ArityMismatch("template arities differ")


def make_finite_template(M, arity, tuples):
    if arity < 1:
        raise ValidationError("arity must be at least 1")
    tuples = list(map(tuple, tuples))
    # one bulk check; only a failure walks the tuples, in input order, for
    # the first bad one
    if not (set(map(len, tuples)) <= {arity}
            and set(chain.from_iterable(tuples)) <= set(M.elements)):
        size = M.size
        for t in tuples:
            if len(t) != arity:
                raise ArityMismatch(f"tuple {t} does not have arity {arity}")
            if any(not 0 <= a < size for a in t):
                raise ValidationError(f"tuple {t} is not over the carrier")
    return Template(M, arity, frozenset(tuples))


def _embed_slice(vec, slot, arity, q):
    out = [0] * (arity * q)
    out[slot * q:(slot + 1) * q] = list(vec)
    return out


def _saturate_block(NF, arity, d_tuple, offset, generators):
    """A block's coset: its lattice closed under the per-coordinate relation
    lattices, and its offset canonicalized."""
    q = NF.num_coords
    gens = [list(g) for g in generators]
    for i, d in enumerate(d_tuple):
        for row in NF.xi[d].basis:
            gens.append(_embed_slice(row, i, arity, q))
    L = lattice_from_generators(arity * q, gens)
    return LatticeCoset(tuple(reduce_mod_lattice(list(offset), L)), L)


def make_nf_template(NF, arity, blocks):
    """The template over NF whose relation R is the union of the blocks,
    each a (d_tuple, offset, generators): the elements over the d-tuple
    whose concatenated vector lies in offset + <generators>.  This is the
    one home of the rule that R is a coset; NotACoset is raised unless

    (a) each d-tuple has one block B_d = c_d + L_d (an identical repeat is
        dropped),
    (b) the d-tuples D are closed under coordinatewise products, and
    (c) B_d <= B_p, that is c_d - c_p in L_p and L_d <= L_p, whenever p <= d
        in D.

    Proof that (b) and (c) say that R is a coset, R x R^-1 x R <= R (its
    members are regular, as every element of NF is).  A member over d is
    (d, v) with v in B_d (L_d holds the xi lattices, so reducing v does not
    matter), with inverse (d, -v).  Necessity: for x over d and y over e,
    x*y^-1*y = (d*e, v_x) lies in R, so d*e is in D, and every v_x in B_d
    lies in B_(d*e), where d*e runs over all p <= d in D as e does.
    Sufficiency: for x, y, z over d, e, f, the product p = d*e*f is in D by
    (b) and lies below d, e and f, so by (c) v_x - v_y + v_z = c_p + (c_d -
    c_p) - (c_e - c_p) + (c_f - c_p) + (l_x - l_y + l_z) lies in c_p + L_p,
    and x*y^-1*z lies in B_p.  Only (a) is a rule of the format rather than
    of cosets: a union of cosets over one d-tuple may be a coset, but it is
    written as one block.

    The checks run over generators G of D picked in block order, each d
    not yet a product of earlier ones; their product closure S grows by
    S*g and g, and D is closed exactly when S = D.  Then (c) is tested on
    the pairs (d, d*g) for g in G alone, at most |D|*|G| containments: for
    p <= d in D, p = g_1*...*g_k, and the chain d >= d*g_1 >= ... >= d*p = p
    stays in D, so containment along each step gives B_d <= B_p.
    """
    if arity < 1:
        raise ValidationError("arity must be at least 1")
    q = NF.num_coords
    N = NF.semilattice
    cosets = {}
    for d_tuple, offset, generators in blocks:
        d_tuple = tuple(d_tuple)
        if len(d_tuple) != arity:
            raise ArityMismatch(f"d-tuple {d_tuple} does not have arity {arity}")
        if any(not 0 <= d < N.size for d in d_tuple):
            raise ValidationError(f"d-tuple {d_tuple} is not over the semilattice")
        offset = list(offset)
        if len(offset) != arity * q:
            raise ValidationError("block offset has wrong length")
        for vec in [offset] + [list(g) for g in generators]:
            if len(vec) != arity * q:
                raise ValidationError("block vector has wrong length")
            for i, d in enumerate(d_tuple):
                if not supported(NF.lam[d], vec[i * q:(i + 1) * q]):
                    raise ValidationError(
                        f"block vector not supported on lam({d}) in slot {i}")
        coset = _saturate_block(NF, arity, d_tuple, offset, generators)
        if cosets.setdefault(d_tuple, coset) != coset:
            raise NotACoset(f"two different blocks for d-tuple {d_tuple}")
    closure, gens = set(), []
    for d in cosets:
        if d not in closure:
            gens.append(d)
            closure |= {tuple(map(N.mul, s, d)) for s in closure} | {d}
    if closure != cosets.keys():
        raise NotACoset(f"the product {min(closure - cosets.keys())} of "
                        "d-tuples has no block")
    for d, C in cosets.items():
        for p in sorted({tuple(map(N.mul, d, g)) for g in gens} - {d}):
            P = cosets[p]
            if not (coset_member(C.offset, P) and all(
                    lattice_member(row, P.lattice) for row in C.lattice.basis)):
                raise NotACoset(f"the block at {d} does not lie in the block at {p}")
    return Template(NF, arity, BlockRelation(cosets))


# ---------------------------------------------------------------------------
# Assignment checking


def check_arities(T, I):
    """Raise ArityMismatch unless every relation constraint of I has T's
    arity."""
    if any(isinstance(c, Relation) and len(c.vars) != T.arity
           for c in I.constraints):
        raise ArityMismatch("relation constraint arity mismatch")


def holds(T, c, assignment):
    """True iff the constraint c holds under the assignment (indexable by
    c's variables) over T."""
    if isinstance(c, Product):
        return T.carrier.mul(assignment[c.x], assignment[c.y]) == assignment[c.z]
    if isinstance(c, Identity):
        return assignment[c.x] == T.carrier.identity
    return tuple(assignment[v] for v in c.vars) in T.relation


def check_assignment(T, I, assignment):
    """True iff the assignment (a sequence indexed by variable) satisfies
    every constraint of I over the template carrier."""
    check_arities(T, I)
    if len(assignment) < I.var_count:
        raise ValidationError("assignment is not total")
    return all(holds(T, c, assignment) for c in I.constraints)


# ---------------------------------------------------------------------------
# Brute-force oracle


DEFAULT_ORACLE_BUDGET = 2_000_000


def oracle_solve(T, I, budget=DEFAULT_ORACLE_BUDGET):
    """Exhaustive search for a satisfying assignment over a finite carrier,
    by :func:`core.backtrack`.  Returns a list (variable -> element) or
    None.

    Deterministic: variables in index order, values in element order.  The
    budget bounds visited search nodes, one per value tried.
    """
    M = finite_carrier(T.carrier, "the oracle")
    check_arities(T, I)
    n = I.var_count
    # constraints become checkable once their last variable is assigned
    by_last = [[] for _ in range(n + 1)]
    for c in I.constraints:
        by_last[max(c.vars, default=0)].append(c)
    nodes = 0

    def accept(v, assignment):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"oracle exceeded {budget} nodes")
        return all(holds(T, c, assignment) for c in by_last[v])

    found = next(backtrack([M.elements] * n, accept), None)
    return None if found is None else list(found)


# ---------------------------------------------------------------------------
# Text formats


def content_lines(text):
    """The (line number, tokens) of each line with content, comments cut."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return [(no, toks) for no, toks in enumerate(map(str.split, lines), 1) if toks]


class _Cursor:
    def __init__(self, text):
        self.lines = content_lines(text)
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, expect=None):
        if self.pos >= len(self.lines):
            raise ParseError(None, f"expected {expect!r}" if expect
                             else "expected another line")
        no, toks = self.lines[self.pos]
        self.pos += 1
        if expect is not None and toks[0] != expect:
            raise ParseError(no, f"expected {expect!r}, got {toks[0]!r}")
        return no, toks

    def done(self):
        return self.pos >= len(self.lines)


def parse_ints(no, toks, count=None):
    """The fields toks of line no, read as integers; with a count, the line
    must hold exactly that many."""
    try:
        vals = [int(t) for t in toks]
    except ValueError:
        raise ParseError(no, f"expected integers, got {toks}")
    if count is not None and len(vals) != count:
        raise ParseError(no, f"expected {count} integer(s), got {len(vals)}")
    return vals


def _fields(cur, keyword, count):
    """The integer fields after the keyword of the next line, which must
    start with that keyword and hold count of them."""
    no, toks = cur.take(keyword)
    return parse_ints(no, toks[1:], count)


def _in_range(no, value, bound, what):
    """Raise a ParseError for line no, naming the field, unless
    0 <= value < bound."""
    if not 0 <= value < bound:
        raise ParseError(no, f"{what} {value} out of range")


def _count(no, value, what):
    """Raise a ParseError for line no, naming the field, if the count value
    is negative."""
    if value < 0:
        raise ParseError(no, f"{what} {value} is negative")


def _element_table(elements):
    """The element table of a carrier: each element under its canonical
    spelling, the decimal digits that ``str`` gives it."""
    return dict(zip(map(str, elements), elements))


def _read_elements(lines, skip, count, table):
    """The fields after the first skip tokens of each (line number, tokens)
    of lines, as tuples of count values.  The element table reads each
    line in one call; a line it does not read in full (a token it lacks, or
    the wrong count) goes through parse_ints, so a non-canonical spelling
    keeps its value and a bad token its error.  A line the table reads in
    full has the values parse_ints gives it."""
    get = table.get
    rows = [tuple(map(get, toks[skip:])) for _, toks in lines]
    return [row if len(row) == count and None not in row
            else tuple(parse_ints(no, toks[skip:], count))
            for row, (no, toks) in zip(rows, lines)]


def _parse_table(cur, keyword):
    """A Cayley table: a '<keyword> <size> <identity>' header and its rows."""
    size, identity = _fields(cur, keyword, 2)
    # the lines left bound the rows and the element table, so size sizes
    # no allocation
    lines = cur.lines[cur.pos:cur.pos + max(size, 0)]
    cur.pos += len(lines)
    rows = _read_elements(lines, 0, size, _element_table(range(len(lines))))
    if len(lines) < size:
        cur.take()  # raises: the input ends inside the table
    try:
        return validate_monoid(rows, identity)
    except Exception as e:
        raise ValidationError(str(e)) from e


def _parse_nf(cur):
    cur.take("nf")
    N = _parse_table(cur, "semilattice")
    size = N.size
    no, toks = cur.take("coords")
    (q,) = parse_ints(no, toks[1:], 1)
    _count(no, q, "coordinate count")
    lam = {}
    xi_gens = [[] for _ in range(size)]
    anchors = {}  # filled line by line, so q never sizes an allocation
    while not cur.done() and cur.peek()[1][0] in ("lambda", "xi", "anchor"):
        no, toks = cur.take()
        if toks[0] == "lambda":
            (d,) = parse_ints(no, toks[1:2], 1)
            _in_range(no, d, size, "semilattice index")
            if d in lam:
                raise ParseError(no, f"second lambda line for semilattice index {d}")
            lam[d] = frozenset(parse_ints(no, toks[2:]))
            for j in sorted(lam[d]):
                _in_range(no, j, q, "coordinate")
        elif toks[0] == "xi":
            d, count = parse_ints(no, toks[1:], 2)
            _in_range(no, d, size, "semilattice index")
            _count(no, count, "row count")
            xi_gens[d].extend(parse_ints(*cur.take(), q) for _ in range(count))
        else:
            alpha, d = parse_ints(no, toks[1:], 2)
            _in_range(no, alpha, q, "coordinate")
            _in_range(no, d, size, "semilattice index")
            if alpha in anchors:
                raise ParseError(no, f"second anchor line for coordinate {alpha}")
            anchors[alpha] = d
    if len(anchors) != q:
        raise ValidationError("every coordinate needs an anchor line")
    xi = [lattice_from_generators(q, g) for g in xi_gens]
    try:
        return make_normal_form(N, q, [lam.get(d, frozenset()) for d in range(size)],
                                xi, [anchors[a] for a in range(q)])
    except Exception as e:
        raise ValidationError(str(e)) from e


def _parse_carrier(cur):
    no, toks = cur.take()
    word = toks[0]
    cur.pos -= 1
    if word == "monoid":
        return _parse_table(cur, "monoid")
    if word == "nf":
        return _parse_nf(cur)
    cur.pos += 1
    if word == "integers":
        return integers_nf()
    try:
        return monoid_from_keyword(word)
    except TooLarge as e:
        raise ParseError(no, str(e)) from e
    except Exception as e:
        raise ParseError(no, f"unknown carrier {word!r}") from e


def _parse_rel_finite(cur, M, arity):
    """The run of 'tuple' lines after a rel header, read in one pass."""
    lines, start = cur.lines, cur.pos
    stop = start
    while stop < len(lines) and lines[stop][1][0] == "tuple":
        stop += 1
    cur.pos = stop
    return make_finite_template(M, arity, _read_elements(
        lines[start:stop], 1, arity, _element_table(M.elements)))


def _parse_rel_nf(cur, NF, arity):
    width = arity * NF.num_coords
    blocks = []
    while not cur.done() and cur.peek()[1][0] == "block":
        no, toks = cur.take("block")
        (ngens,) = parse_ints(no, toks[1:], 1)
        _count(no, ngens, "generator count")
        d_tuple = _fields(cur, "d", arity)
        offset = _fields(cur, "offset", width)
        gens = [_fields(cur, "gen", width) for _ in range(ngens)]
        blocks.append((d_tuple, offset, gens))
    return make_nf_template(NF, arity, blocks)


def _concat_templates(T1, T2):
    if is_nf_template(T1):
        blocks = []
        q = T1.carrier.num_coords
        for b1 in T1.relation:
            for b2 in T2.relation:
                blocks.append((
                    b1.d_tuple + b2.d_tuple,
                    list(b1.coset.offset) + list(b2.coset.offset),
                    [list(g) + [0] * (T2.arity * q) for g in b1.coset.lattice.basis]
                    + [[0] * (T1.arity * q) + list(g) for g in b2.coset.lattice.basis],
                ))
        return make_nf_template(T1.carrier, T1.arity + T2.arity, blocks)
    rel = frozenset(t1 + t2 for t1 in T1.relation for t2 in T2.relation)
    return Template(T1.carrier, T1.arity + T2.arity, rel)


def parse_template(text):
    cur = _Cursor(text)
    carrier = _parse_carrier(cur)
    parse_rel = _parse_rel_nf if isinstance(carrier, NormalFormMonoid) else _parse_rel_finite
    T = None
    while not cur.done():
        (arity,) = _fields(cur, "rel", 1)
        part = parse_rel(cur, carrier, arity)
        T = part if T is None else _concat_templates(T, part)
    if T is None:
        raise ValidationError("template needs at least one rel block")
    return T


def parse_carrier(text):
    """Parse a file holding just a carrier (finite monoid, nf section, or a
    keyword); any relation sections after it are ignored."""
    cur = _Cursor(text)
    carrier = _parse_carrier(cur)
    if not cur.done() and cur.peek()[1][0] != "rel":
        no, toks = cur.peek()
        raise ParseError(no, f"unexpected line {toks[0]!r}")
    return carrier


def parse_instance(text):
    cur = _Cursor(text)
    (var_count,) = _fields(cur, "instance", 1)
    constraints = []
    for no, toks in cur.lines[cur.pos:]:
        kind = toks[0]
        if kind == "MUL":
            constraints.append(Product(*parse_ints(no, toks[1:], 3)))
        elif kind == "ID":
            constraints.append(Identity(*parse_ints(no, toks[1:], 1)))
        elif kind == "REL":
            constraints.append(Relation(tuple(parse_ints(no, toks[1:]))))
        else:
            raise ParseError(no, f"unknown constraint kind {kind!r}")
    return make_instance(var_count, constraints)


def serialize_instance(I):
    lines = [f"instance {I.var_count}"]
    for c in I.constraints:
        if isinstance(c, Product):
            lines.append(f"MUL {c.x} {c.y} {c.z}")
        elif isinstance(c, Identity):
            lines.append(f"ID {c.x}")
        else:
            lines.append("REL " + " ".join(str(v) for v in c.vars))
    return "\n".join(lines) + "\n"
