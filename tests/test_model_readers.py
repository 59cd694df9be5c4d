"""The readers of the text formats against a per-line reference.

The reference is the reader that checked and converted each field in its
own Python step: each line of a table or of a run of ``tuple`` lines went
through ``parse_ints`` alone, and ``make_finite_template`` checked each
tuple on its own.  On a seeded corpus of well-formed and broken inputs, the
readers in ``model`` must give an equal template or instance, or raise the
same exception class with the same message.
"""

import random
import re
from itertools import product

import pytest

from monoidpcsp import model
from monoidpcsp.core import (
    cyclic,
    direct_product,
    flipflop1,
    format_monoid,
    semilattice_chain,
    validate_monoid,
)
from monoidpcsp.errors import (
    ArityMismatch,
    ParseError,
    ValidationError,
)
from monoidpcsp.model import Identity, Product, Relation, Template, make_instance
from monoidpcsp.sweep import monoid_sweep


# ---------------------------------------------------------------------------
# The reference readers


def ref_content_lines(text):
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line.split()))
    return out


def ref_make_finite_template(M, arity, tuples):
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


def ref_parse_table(cur, keyword):
    size, identity = model._fields(cur, keyword, 2)
    rows = [tuple(model.parse_ints(*cur.take(), size)) for _ in range(size)]
    try:
        return validate_monoid(rows, identity)
    except Exception as e:
        raise ValidationError(str(e)) from e


def ref_parse_rel_finite(cur, M, arity):
    tuples = []
    while not cur.done() and cur.peek()[1][0] == "tuple":
        tuples.append(tuple(model._fields(cur, "tuple", arity)))
    return ref_make_finite_template(M, arity, tuples)


def ref_parse_instance(text):
    cur = model._Cursor(text)
    (var_count,) = model._fields(cur, "instance", 1)
    constraints = []
    while not cur.done():
        no, toks = cur.take()
        kind = toks[0]
        if kind == "MUL":
            constraints.append(Product(*model.parse_ints(no, toks[1:], 3)))
        elif kind == "ID":
            constraints.append(Identity(*model.parse_ints(no, toks[1:], 1)))
        elif kind == "REL":
            constraints.append(Relation(tuple(model.parse_ints(no, toks[1:]))))
        else:
            raise ParseError(no, f"unknown constraint kind {kind!r}")
    return make_instance(var_count, constraints)


REFERENCE = {
    "content_lines": ref_content_lines,
    "_parse_table": ref_parse_table,
    "_parse_rel_finite": ref_parse_rel_finite,
}


def outcome(parse, text):
    """The value parse(text) returns, or the class and message of what it
    raises."""
    try:
        return parse(text)
    except Exception as e:
        return (type(e), str(e))


def reference_outcome(parse, text):
    """outcome(parse, text) with the reference readers in place of
    model's: the rest of the reader (cursor, carriers, normal forms and
    blocks) is shared."""
    if parse is model.parse_instance:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "content_lines", ref_content_lines)
            return outcome(ref_parse_instance, text)
    with pytest.MonkeyPatch.context() as mp:
        for name, ref in REFERENCE.items():
            mp.setattr(model, name, ref)
        return outcome(parse, text)


# ---------------------------------------------------------------------------
# The corpus

# spellings int() reads that the element table does not hold
NON_CANONICAL = [
    lambda v: "0" + str(v),
    lambda v: "+" + str(v),
    lambda v: "-0" if v == 0 else "-0" + str(-v) if v < 0 else "00" + str(v),
    lambda v: "0_" + str(v) if v >= 0 else str(v),
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda v: str(v).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
]
BAD_TOKENS = ["x", "1.5", "0x1", "--1", "1_", "٣x", "1e3"]


def template_text(rng, M, arities, header=None):
    """M's table (or the header line) and one rel section per arity, with
    a drawn set of tuples."""
    lines = (header or format_monoid(M)).splitlines()
    for arity in arities:
        rows = list(product(M.elements, repeat=arity))
        lines.append(f"rel {arity}")
        for t in rng.sample(rows, rng.randint(1, min(len(rows), 12))):
            lines.append("tuple " + " ".join(map(str, t)))
    return "\n".join(lines) + "\n"


def nf_texts():
    chain = format_monoid(semilattice_chain(4)).replace("monoid", "semilattice", 1)
    return [
        "nf\nsemilattice 1 0\n0\ncoords 1\nlambda 0 0\nanchor 0 0\n"
        "rel 1\nblock 1\nd 0\noffset 0\ngen 3\n",
        "nf\nsemilattice 2 0\n0 1\n1 1\ncoords 0\nrel 2\nblock 0\nd 0 1\noffset\n",
        "nf\n" + chain + "coords 0\nrel 2\nblock 0\nd 1 3\noffset\n"
        "block 0\nd 2 2\noffset\n",
        "integers\nrel 3\nblock 3\nd 0 0 0\noffset 0 0 1\n"
        "gen 1 1 1\ngen 1 -1 0\ngen 0 1 -1\n",
    ]


def instance_text(rng):
    n = rng.randint(1, 8)
    lines = [f"instance {n}"]
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(["MUL", "ID", "REL"])
        count = {"MUL": 3, "ID": 1, "REL": rng.randint(1, 3)}[kind]
        lines.append(kind + "".join(f" {rng.randrange(n)}" for _ in range(count)))
    return "\n".join(lines) + "\n"


def base_texts(rng):
    carriers = list(monoid_sweep(3)) + [cyclic(5), flipflop1(),
                                        direct_product(cyclic(2), cyclic(3)),
                                        semilattice_chain(11)]
    out = []
    for M in carriers:
        out.append((model.parse_template, template_text(rng, M, [rng.randint(1, 3)])))
        out.append((model.parse_template, template_text(rng, M, [1, 2])))
    for word, M in (("cyclic:12", cyclic(12)), ("flipflop1", flipflop1()),
                    ("semilattice:chain:3", semilattice_chain(3))):
        out.append((model.parse_template, template_text(rng, M, [2], word)))
    out.extend((model.parse_template, t) for t in nf_texts())
    out.extend((model.parse_instance, instance_text(rng)) for _ in range(10))
    return out


def mutate(rng, text):
    """text with one drawn change: a field respelled, made bad, out of
    range or another small value, a field dropped or added, a comment or a blank line put in, or a
    line removed."""
    lines = text.splitlines()
    no = rng.randrange(len(lines))
    toks = lines[no].split()
    fields = [i for i, t in enumerate(toks) if re.fullmatch("-?[0-9]+", t)]
    kind = rng.choice(["respell", "bad", "range", "value", "drop", "add",
                       "comment", "blank", "remove"])
    if kind in ("respell", "bad", "range", "value") and fields:
        i = rng.choice(fields)
        v = int(toks[i])
        if kind == "respell":
            toks[i] = rng.choice(NON_CANONICAL)(v)
        elif kind == "bad":
            toks[i] = rng.choice(BAD_TOKENS)
        elif kind == "range":
            toks[i] = str(rng.choice([-1, v + 3, v + 12, 10**6]))
        else:
            toks[i] = str(rng.randrange(abs(v) + 2))
        lines[no] = rng.choice([" ", "\t", "  "]).join(toks)
    elif kind == "drop" and len(toks) > 1:
        del toks[rng.randrange(1, len(toks))]
        lines[no] = " ".join(toks)
    elif kind == "add":
        lines[no] += " " + str(rng.randrange(4))
    elif kind == "comment":
        lines[no] += rng.choice(["  # 1 2 3", "#", "\t# x"])
        lines.insert(rng.randrange(len(lines) + 1), "# tuple 9 9 9")
    elif kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t \t"]))
    else:
        del lines[no]
    return "\n".join(lines) + "\n"


def corpus(seed, mutants=20):
    """The base texts and, for each, mutants with one to three changes."""
    rng = random.Random(seed)
    out = []
    for parse, text in base_texts(rng):
        out.append((parse, text))
        for _ in range(mutants):
            t = text
            for _ in range(rng.randint(1, 3)):
                t = mutate(rng, t)
            out.append((parse, t))
    return out


# ---------------------------------------------------------------------------
# Tests


def test_readers_match_the_per_line_reference_on_a_seeded_corpus():
    cases = corpus(34)
    kinds = set()
    for parse, text in cases:
        expected = reference_outcome(parse, text)
        assert outcome(parse, text) == expected, text
        kinds.add(expected[0].__name__ if isinstance(expected, tuple)
                  else type(expected).__name__)
    # the corpus reaches accepted inputs and every kind of refusal
    assert {"Template", "Instance", "ParseError", "ValidationError"} <= kinds


def test_non_canonical_spellings_keep_their_values():
    """Every spelling int() reads gives its value, in a table row and in a
    tuple line: the template equals the canonical one and the reference's."""
    canonical = format_monoid(cyclic(3)) + "rel 2\ntuple 1 2\n"
    for spell in NON_CANONICAL:
        text = canonical.replace("tuple 1 2", f"tuple {spell(1)} {spell(2)}") \
                        .replace("\n1 2 0\n", f"\n{spell(1)} 2 {spell(0)}\n")
        assert text != canonical
        got = outcome(model.parse_template, text)
        assert got == model.parse_template(canonical)
        assert got == reference_outcome(model.parse_template, text)


def test_the_first_bad_tuple_in_input_order_is_named():
    """Of two tuples outside the carrier, the one on the earlier line is
    named, whichever comes first in any set order."""
    for first, second in (("5 0", "0 7"), ("0 7", "5 0"), ("2 9", "9 9")):
        text = f"cyclic:3\nrel 2\ntuple 0 1\ntuple {first}\ntuple 1 1\ntuple {second}\n"
        got = outcome(model.parse_template, text)
        assert got == reference_outcome(model.parse_template, text)
        expected = tuple(int(x) for x in first.split())
        assert got == (ValidationError, f"tuple {expected} is not over the carrier")


def test_a_bad_token_after_a_bad_tuple_is_the_error():
    """Fields are read before any tuple is checked, so a token that is no
    integer on a later line wins over an earlier tuple outside the
    carrier."""
    text = "cyclic:3\nrel 2\ntuple 5 0\ntuple 1 x\n"
    got = outcome(model.parse_template, text)
    assert got == reference_outcome(model.parse_template, text)
    assert got[0] is ParseError and "line 4" in got[1]


def test_a_short_table_row_and_a_cut_table_match_the_reference():
    for text in ("monoid 3 0\n0 1 2\n1 2\n2 0 1\n",
                 "monoid 3 0\n0 1 2\n1 2 0\n",
                 "monoid 3 0\n0 1 2\n1 2 0\nrel 1\n",
                 "monoid 3 0\n0 1 2\n1 2 3\n2 0 x\n",
                 "monoid 3 0\n0 1 2\n1 2 3\n2 0 1\nrel 1\ntuple 0\n",
                 "monoid -2 0\nrel 1\ntuple 0\n",
                 "monoid 1000000000 0\n0 1\n"):
        got = outcome(model.parse_template, text)
        assert got == reference_outcome(model.parse_template, text), text
        assert isinstance(got, tuple)


def test_make_finite_template_matches_the_reference():
    """Direct calls, with lists and generators as tuples, wrong arities and
    elements outside the carrier, give the reference's template or error."""
    rng = random.Random(7)
    seen = set()
    for _ in range(600):
        M = rng.choice([cyclic(1), cyclic(3), flipflop1(), semilattice_chain(5)])
        arity = rng.randint(0, 3)
        tuples = [[rng.randrange(-1, M.size + 1) if rng.random() < 0.1
                   else rng.randrange(M.size)
                   for _ in range(arity + (rng.random() < 0.05) - (rng.random() < 0.05))]
                  for _ in range(rng.randint(0, 6))]
        expected = outcome(lambda ts: ref_make_finite_template(M, arity, ts), tuples)
        assert outcome(lambda ts: model.make_finite_template(M, arity, iter(ts)),
                       tuples) == expected
        seen.add(expected[0] if isinstance(expected, tuple) else Template)
    assert seen == {Template, ArityMismatch, ValidationError}
