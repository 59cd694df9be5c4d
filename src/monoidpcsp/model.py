"""Templates, instances, their text formats, and a brute-force
satisfiability oracle.

A template is a carrier monoid (finite, or a normal form with integer
coordinates) together with a single relation.  Finite relations are tuple
sets; normal-form relations are finite unions of lattice-coset blocks over
the concatenated coordinates.  Both kinds of template answer a constraint
the same way: ``T.carrier.mul(a, b)``, ``T.carrier.identity``, element
``==`` and ``t in T.relation``.

Each input rule has one home here: ``parse_ints`` reads the integer fields
of every line of the text formats, ``finite_carrier`` refuses a normal-form
carrier where a finite one is needed, ``check_pair`` checks a promise pair
(relN finite, one arity), and ``check_arities`` checks the relation
constraints of an instance against a template.
"""

from .core import backtrack, monoid_from_keyword, validate_monoid
from .errors import (
    ArityMismatch,
    BudgetExceeded,
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
    """A normal-form relation: the union of its blocks.  Iterating yields the
    blocks; ``in`` tests a tuple of NFElements."""

    blocks: tuple

    def __iter__(self):
        return iter(self.blocks)

    def __contains__(self, elems):
        d_tuple = tuple(x.d for x in elems)
        for block in self.blocks:
            if block.d_tuple != d_tuple:
                continue
            flat = [a for x in elems for a in x.v]
            if coset_member(flat, block.coset):
                return True
        return False


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
    rel = set()
    for t in tuples:
        t = tuple(t)
        if len(t) != arity:
            raise ArityMismatch(f"tuple {t} does not have arity {arity}")
        if any(not 0 <= a < M.size for a in t):
            raise ValidationError(f"tuple {t} is not over the carrier")
        rel.add(t)
    return Template(M, arity, frozenset(rel))


def _embed_slice(vec, slot, arity, q):
    out = [0] * (arity * q)
    out[slot * q:(slot + 1) * q] = list(vec)
    return out


def _saturate_block(NF, arity, d_tuple, offset, generators):
    """Close a block's lattice under the per-coordinate relation lattices and
    canonicalize the offset."""
    q = NF.num_coords
    gens = [list(g) for g in generators]
    for i, d in enumerate(d_tuple):
        for row in NF.xi[d].basis:
            gens.append(_embed_slice(row, i, arity, q))
    L = lattice_from_generators(arity * q, gens)
    off = tuple(reduce_mod_lattice(list(offset), L))
    return Block(tuple(d_tuple), LatticeCoset(off, L))


def make_nf_template(NF, arity, blocks):
    """blocks: iterable of (d_tuple, offset, generators)."""
    if arity < 1:
        raise ValidationError("arity must be at least 1")
    q = NF.num_coords
    out = []
    for d_tuple, offset, generators in blocks:
        d_tuple = tuple(d_tuple)
        if len(d_tuple) != arity:
            raise ArityMismatch(f"d-tuple {d_tuple} does not have arity {arity}")
        if any(not 0 <= d < NF.semilattice.size for d in d_tuple):
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
        out.append(_saturate_block(NF, arity, d_tuple, offset, generators))
    return Template(NF, arity, BlockRelation(tuple(out)))


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
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line.split()))
    return out


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


def _parse_table(cur, keyword):
    """A Cayley table: a '<keyword> <size> <identity>' header and its rows."""
    size, identity = _fields(cur, keyword, 2)
    rows = [tuple(parse_ints(*cur.take(), size)) for _ in range(size)]
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
    tuples = []
    while not cur.done() and cur.peek()[1][0] == "tuple":
        tuples.append(tuple(_fields(cur, "tuple", arity)))
    return make_finite_template(M, arity, tuples)


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
    while not cur.done():
        no, toks = cur.take()
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
