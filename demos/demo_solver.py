"""The polynomial-time solver versus the brute-force oracle on the
flagship example: x+y = u+v with three ternary relation constraints."""

import os

from monoidpcsp.cli import assignment_rows
from monoidpcsp.model import oracle_solve, parse_instance, parse_template
from monoidpcsp.solver import solve_tractable

DATA = os.path.join(os.path.dirname(__file__), os.pardir,
                    "src", "monoidpcsp", "data")

with open(os.path.join(DATA, "intro_M.nf")) as fh:
    TZ = parse_template(fh.read())
with open(os.path.join(DATA, "intro.inst")) as fh:
    I = parse_instance(fh.read())


def show(assignment):
    return "  ".join(" ".join(map(str, row)) for row in assignment_rows(assignment))


print("instance: x*y = w, u*v = w, R(x,y,u), R(u,v,x), R(u,v,y)")
print("over the integers with R = sum congruent to 1 mod 3:")
sol = solve_tractable(TZ, I)
print("  ", "unsatisfiable" if sol is None else show(sol))

for n in (2, 4, 5):
    with open(os.path.join(DATA, f"introN_{n}.mon")) as fh:
        TN = parse_template(fh.read())
    sol = oracle_solve(TN, I)
    print(f"over Z/{n} with R = non-constant triples:")
    if sol is None:
        print("   unsatisfiable")
    else:
        print("  ", show(sol))

from monoidpcsp.model import make_instance, Relation  # noqa: E402

one = make_instance(3, [Relation((0, 1, 2))])
sol = solve_tractable(TZ, one)
print("\na single relation constraint over the integers:")
print("  ", show(sol))
