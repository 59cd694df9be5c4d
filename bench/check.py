"""Output checks that do not rely on the code under test.

``check(op, rc, out)`` returns None when the exit code and standard output
of one operation are right, else a one-line reason.  Assignments are
evaluated with integer or Cayley-table arithmetic, witnesses are re-checked
with the benchmark's own coset closure, and the one verdict this module
cannot decide by itself (a finite NP-HARD) is compared with the
program's independent regularization path, ``classify_via_abreg``.
"""

from algebra import coset_closure, generated, group_inverse, is_commutative_on, is_hom

EXIT_OK, EXIT_NPHARD, EXIT_UNSAT = 0, 10, 11


def check(op, rc, out):
    return CHECKS[op.kind](op.data, rc, out.splitlines())


def _fields(lines, i, key):
    if i >= len(lines):
        raise ValueError(f"missing line {key!r}")
    toks = lines[i].split()
    if not toks or toks[0] != key:
        raise ValueError(f"line {i + 1} should start with {key!r}")
    return toks[1:]


def _ints(toks):
    return [int(t) for t in toks]


def _sandwich(lines, i, image, closure):
    """The three sandwich lines must describe the witness image and the
    closed relation image."""
    if _ints(_fields(lines, i, "sandwich-size")) != [len(image)]:
        return "sandwich size is not the witness image size"
    if _ints(_fields(lines, i + 1, "sandwich-relation")) != [len(closure)]:
        return "sandwich relation size is not the closed image size"
    if _ints(_fields(lines, i + 2, "sandwich-embedding")) != sorted(image):
        return "sandwich embedding is not the witness image"
    if len(lines) != i + 3:
        return "trailing output"
    return None


def _tractable_image(N, relN, image, rel_image):
    """The conditions on a witness: commutative completely regular image
    and a coset closure of the relation image inside relN."""
    if not is_commutative_on(N, image):
        return None, "witness image is not commutative"
    if any(group_inverse(N, a) is None for a in image):
        return None, "witness image is not completely regular"
    closure = coset_closure(N, rel_image)
    if not closure <= relN:
        return None, "closed relation image escapes relN"
    return closure, None


def check_classify_intro(data, rc, lines):
    """intro_M against Z/n: TRACTABLE iff 3 divides n, with a witness
    x -> g^x whose closed image of x+y+z = 1 (mod 3) lies in relN."""
    n, F, relN = data["n"], data["F"], data["relN"]
    try:
        if n % 3:
            if rc != EXIT_NPHARD or lines != ["NP-HARD"]:
                return f"n={n}: expected NP-HARD (exit 10), got exit {rc}"
            return None
        if rc != EXIT_OK or lines[:2] != ["TRACTABLE", "witness nf-hom"]:
            return f"n={n}: expected TRACTABLE (exit 0), got exit {rc}"
        if _ints(_fields(lines, 2, "phi")) != [F.identity]:
            return "phi must send the only idempotent to the identity"
        gens = _ints(_fields(lines, 3, "gen"))
        if len(gens) != 1 or not 0 <= gens[0] < F.size:
            return "expected one generator image in range"
        g = gens[0]
        image = generated(F, [g])
        m = len(image)
        # a, b, c range over whole periods of both m and 3
        rel_image = {(F.power(g, a), F.power(g, b), F.power(g, c))
                     for a in range(3 * m) for b in range(3 * m)
                     for c in range(3 * m) if (a + b + c) % 3 == 1}
        closure, why = _tractable_image(F, relN, image, rel_image)
        return why or _sandwich(lines, 4, image, closure)
    except ValueError as e:
        return f"n={n}: unparsable output: {e}"


def check_classify_finite(data, rc, lines):
    M, N, relM, relN = data["M"], data["N"], data["relM"], data["relN"]
    try:
        if rc == EXIT_NPHARD:
            if lines != ["NP-HARD"]:
                return "NP-HARD verdict with extra output"
            return _abreg_verdict(data)
        if rc != EXIT_OK or lines[:2] != ["TRACTABLE", "witness hom"]:
            return f"expected TRACTABLE or NP-HARD, got exit {rc}"
        images = _ints(_fields(lines, 2, "images"))
        if len(images) != M.size or not all(0 <= a < N.size for a in images):
            return "witness images do not map the carrier"
        if not is_hom(M, N, images):
            return "witness is not a monoid hom"
        rel_image = {tuple(images[a] for a in t) for t in relM}
        if not rel_image <= relN:
            return "witness does not preserve the relation"
        image = set(images)
        closure, why = _tractable_image(N, relN, image, rel_image)
        return why or _sandwich(lines, 3, image, closure)
    except ValueError as e:
        return f"unparsable output: {e}"


def _abreg_verdict(data):
    """NP-HARD must agree with classification through the commutative
    regularization, a separate path of the program."""
    from monoidpcsp.classify import classify_via_abreg
    from monoidpcsp.model import parse_template

    with open(data["lhs"], encoding="utf-8") as fh:
        relM = parse_template(fh.read())
    with open(data["rhs"], encoding="utf-8") as fh:
        relN = parse_template(fh.read())
    if classify_via_abreg(relM, relN).verdict != "NPHard":
        return "NP-HARD, but the regularization path finds the pair tractable"
    return None


def _assignment(lines, n, parse):
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} assignment lines, got {len(lines) - 1}")
    values = []
    for i, line in enumerate(lines[1:]):
        toks = line.split()
        if len(toks) < 3 or toks[0] != f"x{i}" or toks[1] != "=":
            raise ValueError(f"bad assignment line {line!r}")
        values.append(parse(toks[2:]))
    return values


def _int_value(toks):
    # "d:0 v:(k)" over the integers normal form
    if len(toks) != 2 or toks[0] != "d:0" or not toks[1].startswith("v:("):
        raise ValueError(f"bad integer value {' '.join(toks)!r}")
    return int(toks[1][3:-1])


def check_solve_int(data, rc, lines):
    """Planted instances over intro_M are satisfiable; those with the
    gadget are not.  Assignments are evaluated over the integers."""
    try:
        if not data["sat"]:
            if rc != EXIT_UNSAT or lines != ["unsat"]:
                return f"gadget instance must be unsat (exit 11), got exit {rc}"
            return None
        if rc != EXIT_OK or lines[:1] != ["sat"]:
            return f"planted instance must be sat (exit 0), got exit {rc}"
        v = _assignment(lines, data["n"], _int_value)
    except ValueError as e:
        return f"unparsable output: {e}"
    for c in data["constraints"]:
        kind, args = c[0], c[1:]
        if kind == "ID" and v[args[0]] != 0:
            return f"ID x{args[0]} fails"
        if kind == "MUL" and v[args[0]] + v[args[1]] != v[args[2]]:
            return f"MUL {args} fails"
        if kind == "REL" and sum(v[x] for x in args) % 3 != 1:
            return f"REL {args} fails"
    return None


def _element(toks):
    if len(toks) != 1:
        raise ValueError(f"bad element {' '.join(toks)!r}")
    return int(toks[0])


def check_solve_finite(data, rc, lines):
    """Planted instances are satisfiable; the decoded assignment is
    evaluated with the template's Cayley table."""
    M, rel = data["M"], data["rel"]
    try:
        if rc != EXIT_OK or lines[:1] != ["sat"]:
            return f"planted instance must be sat (exit 0), got exit {rc}"
        v = _assignment(lines, data["n"], _element)
    except ValueError as e:
        return f"unparsable output: {e}"
    if not all(0 <= a < M.size for a in v):
        return "assignment value outside the carrier"
    for c in data["constraints"]:
        kind, args = c[0], c[1:]
        if kind == "ID" and v[args[0]] != M.identity:
            return f"ID x{args[0]} fails"
        if kind == "MUL" and M.mul(v[args[0]], v[args[1]]) != v[args[2]]:
            return f"MUL {args} fails"
        if kind == "REL" and tuple(v[x] for x in args) not in rel:
            return f"REL {args} fails"
    return None


CHECKS = {
    "classify-intro": check_classify_intro,
    "classify-finite": check_classify_finite,
    "solve-int": check_solve_int,
    "solve-finite": check_solve_finite,
}
