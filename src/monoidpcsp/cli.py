"""Command-line front end.

Subcommands: classify, solve, oracle, regularize, polysearch, pmc-reduce,
coset-closure.  Exit codes: 0 success / tractable / satisfiable, 10 NP-hard,
11 unsatisfiable, 2 promise violation or input error, 3 cap exceeded.
Output is deterministic; --format tab switches the field separator from
spaces to tabs for machine consumption.
"""

import argparse
import functools
import sys

from .classify import classify
from .core import CartesianPower, format_monoid
from .cosets import coset_closure
from .errors import (
    BudgetExceeded,
    MonoidError,
    PromiseViolation,
    TooLarge,
)
from .model import (
    DEFAULT_ORACLE_BUDGET,
    finite_carrier,
    oracle_solve,
    parse_carrier,
    parse_instance,
    parse_template,
    serialize_instance,
)
from .regularize import NFElement, ab_reg
from .polymorph import (
    SEARCH_CAP,
    find_block_symmetric,
    parse_minor_condition,
    pmc_reduce,
)
from .solver import solve_tractable

EXIT_OK = 0
EXIT_NPHARD = 10
EXIT_UNSAT = 11
EXIT_INPUT = 2
EXIT_CAP = 3


class _Out:
    def __init__(self, fmt):
        self.sep = "\t" if fmt == "tab" else " "

    def row(self, *fields):
        print(self.sep.join(str(f) for f in fields))


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _hom_rows(h, finite_label):
    """The kind of a hom and the rows that print it: a ``phi`` and a ``gen``
    row of images for a normal-form source, one row of images after
    finite_label for a finite one."""
    if hasattr(h, "phi_images"):
        return "nf-hom", [("phi", *h.phi_images), ("gen", *h.gen_images)]
    return "hom", [(*finite_label, *h.images)]


def cmd_classify(args, out):
    relM = parse_template(_read(args.lhs))
    relN = parse_template(_read(args.rhs))
    try:
        c = classify(relM, relN)
    except PromiseViolation:
        out.row("PROMISE-VIOLATION")
        return EXIT_INPUT
    if c.verdict != "Tractable":
        out.row("NP-HARD")
        return EXIT_NPHARD
    out.row("TRACTABLE")
    kind, rows = _hom_rows(c.witness, ["images"])
    out.row("witness", kind)
    for fields in rows:
        out.row(*fields)
    out.row("sandwich-size", c.sandwich.carrier.size)
    out.row("sandwich-relation", len(c.sandwich.relation))
    out.row("sandwich-embedding", *c.sandwich_embedding)
    return EXIT_OK


def assignment_rows(assignment):
    """Output fields of an assignment, one row per variable: ``x<i> = a``
    for a finite element, ``x<i> = d:<d> v:(<v>)`` for a normal-form one."""
    rows = []
    for i, x in enumerate(assignment):
        if isinstance(x, NFElement):
            vec = ",".join(str(a) for a in x.v)
            rows.append((f"x{i}", "=", f"d:{x.d}", f"v:({vec})"))
        else:
            rows.append((f"x{i}", "=", x))
    return rows


def cmd_solve(args, out):
    T = parse_template(_read(args.template))
    I = parse_instance(_read(args.instance))
    return _assignment_out(out, solve_tractable(T, I))


def cmd_oracle(args, out):
    T = parse_template(_read(args.template))
    I = parse_instance(_read(args.instance))
    return _assignment_out(out, oracle_solve(T, I, budget=args.budget))


def _assignment_out(out, assignment):
    if assignment is None:
        out.row("unsat")
        return EXIT_UNSAT
    out.row("sat")
    for fields in assignment_rows(assignment):
        out.row(*fields)
    return EXIT_OK


def cmd_regularize(args, out):
    M = finite_carrier(parse_carrier(_read(args.template)), "regularization")
    quot = ab_reg(M)
    out.row("size", quot.quotient.size)
    out.row("classes", *quot.class_of)
    for line in format_monoid(quot.quotient).rstrip("\n").splitlines():
        print(line)
    return EXIT_OK


def cmd_polysearch(args, out):
    relM = parse_template(_read(args.lhs))
    relN = parse_template(_read(args.rhs))
    if args.arity < 1 or args.arity % 2 == 0:
        raise MonoidError("polysearch arity must be odd")
    i = (args.arity - 1) // 2
    f = find_block_symmetric(relM, relN, i)
    if f is None:
        out.row("none")
        return EXIT_UNSAT
    out.row("found", "arity", f.arity)
    for k, comp in enumerate(f.components):
        for fields in _hom_rows(comp, [])[1]:
            out.row(f"f{k}", *fields)
    return EXIT_OK


def cmd_pmc_reduce(args, out):
    cond = parse_minor_condition(_read(args.instance))
    relM = parse_template(_read(args.lhs))
    relN = parse_template(_read(args.rhs))
    I = pmc_reduce(cond, relM, relN, args.arity, cap=args.cap_power)
    sys.stdout.write(serialize_instance(I))
    return EXIT_OK


def cmd_coset_closure(args, out):
    T = parse_template(_read(args.template))
    power = CartesianPower(finite_carrier(T.carrier, "coset closure output"), T.arity)
    closed = coset_closure(power, T.relation).members
    out.row("size", len(closed))
    for t in sorted(closed):
        out.row("tuple", *t)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing never changes
    it."""
    p = argparse.ArgumentParser(
        prog="monoidpcsp",
        description="Promise equation templates over monoids: classification "
                    "and solving.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("human", "tab"), default="human")

    sp = sub.add_parser("classify", help="decide the tractability dichotomy")
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("solve", help="polynomial-time coset solver")
    sp.add_argument("--template", required=True)
    sp.add_argument("--instance", required=True)
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="brute-force satisfiability check")
    sp.add_argument("--template", required=True)
    sp.add_argument("--instance", required=True)
    sp.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("regularize",
                        help="commutative regular quotient of a monoid")
    sp.add_argument("--template", required=True)
    common(sp)
    sp.set_defaults(func=cmd_regularize)

    sp = sub.add_parser("polysearch",
                        help="search a 2-block symmetric polymorphism")
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--arity", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_polysearch)

    sp = sub.add_parser("pmc-reduce",
                        help="reduce a minor condition to an instance")
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--instance", required=True,
                    help="minor condition file")
    sp.add_argument("--arity", type=int, required=True,
                    help="power exponent of the reduction")
    sp.add_argument("--cap-power", dest="cap_power", type=int,
                    default=SEARCH_CAP)
    common(sp)
    sp.set_defaults(func=cmd_pmc_reduce)

    sp = sub.add_parser("coset-closure",
                        help="smallest coset containing a finite relation")
    sp.add_argument("--template", required=True)
    common(sp)
    sp.set_defaults(func=cmd_coset_closure)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "cap_power", 1) <= 0 or getattr(args, "budget", 1) <= 0:
        print("error: caps must be positive", file=sys.stderr)
        return EXIT_INPUT
    out = _Out(args.format)
    try:
        return args.func(args, out)
    except (BudgetExceeded, TooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (MonoidError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
