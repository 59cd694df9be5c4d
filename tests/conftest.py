import os
import signal
from contextlib import contextmanager
from itertools import product

import pytest

from monoidpcsp.core import FiniteMonoid, generator_walk
from monoidpcsp.model import (
    Identity,
    Product,
    Relation,
    make_instance,
    make_nf_template,
    parse_template,
)
from monoidpcsp.polymorph import minimal_generating_set
from monoidpcsp.regularize import integers_nf
from monoidpcsp.zlinalg import solve_integer


def nonconstant_triples(n):
    """The triples over {0, ..., n-1} that are not constant: the relation
    of the paper's introductory target over Z/n."""
    return [t for t in product(range(n), repeat=3)
            if not (t[0] == t[1] == t[2])]


def greedy_set_is_larger(monoids):
    """The monoids whose generator walk picks more generators than their
    least generating set has."""
    return [M for M in monoids if len(generator_walk(M)[0])
            > len(minimal_generating_set(M, lambda k: True))]


def clifford(t):
    """C_t: the identity e, then (0, i) and (1, i) for each i < t, then
    (0, bottom) and (1, bottom), with (x, i)(y, j) = (x + y mod 2, i if
    i = j else bottom).  Its generator walk picks (0, i) and (1, i) for
    each i < t, and the t generators of order 2 all meet in the two-element
    bottom group."""
    elements = [None] + [(x, i) for i in range(t + 1) for x in (0, 1)]  # i = t: bottom

    def mul(a, b):
        if a is None or b is None:
            return b if a is None else a
        return ((a[0] + b[0]) % 2, a[1] if a[1] == b[1] else t)

    index = {a: n for n, a in enumerate(elements)}
    return FiniteMonoid(tuple(tuple(index[mul(a, b)] for b in elements)
                              for a in elements), 0)


def intro_nf_template():
    """intro_M: the integers with x + y + z = 1 (mod 3), as one
    lattice-coset block."""
    Z = integers_nf()
    return make_nf_template(Z, 3, [
        ((0, 0, 0), [0, 0, 1], [[1, 1, 1], [1, -1, 0], [0, 1, -1]]),
    ])


def intro_instance():
    """x + y = u + v with R(x, y, u), R(u, v, x), R(u, v, y): unsatisfiable
    over intro_M, since adding the last two gives 3(x + y) = 2 (mod 3)."""
    return make_instance(5, [
        Product(0, 1, 4), Product(2, 3, 4),
        Relation((0, 1, 2)), Relation((2, 3, 0)), Relation((2, 3, 1)),
    ])


def planted_intro_instance(rng, n):
    """A satisfiable instance over intro_M.nf (integers, relation
    x + y + z = 1 mod 3) on n variables, with its constraints listed in a
    shuffled order."""
    values = [rng.randint(-4, 4) for _ in range(n)]
    pins = rng.sample(range(n), 2)
    for x in pins:
        values[x] = 0
    cs = [Identity(x) for x in pins]
    while len(cs) < 2 + n:
        x, y, z = (rng.randrange(n) for _ in range(3))
        if values[x] + values[y] == values[z]:
            cs.append(Product(x, y, z))
    while len(cs) < 2 + n + n // 2:
        x, y, z = (rng.randrange(n) for _ in range(3))
        if (values[x] + values[y] + values[z]) % 3 == 1:
            cs.append(Relation((x, y, z)))
    rng.shuffle(cs)
    return make_instance(n, cs)


def intro_m_template():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "monoidpcsp", "data", "intro_M.nf")
    with open(path, encoding="utf-8") as fh:
        return parse_template(fh.read())


@pytest.fixture
def deadline():
    """``with deadline(seconds): ...`` fails the test when the body is still
    running after that many seconds, so an elimination that never returns
    fails instead of hanging the suite.  The seconds may be a fraction.
    Where the platform has no SIGALRM the body runs without a deadline."""

    @contextmanager
    def arm(seconds):
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return arm


@pytest.fixture
def solve_matrix():
    """``solve_matrix(A, b)`` is :func:`solve_integer` on a dense matrix A,
    passed as the (column, coefficient) rows that it reads, with its lazy
    kernel read out into a list."""

    def solve(A, b):
        rows = [tuple((j, a) for j, a in enumerate(row) if a) for row in A]
        solved = solve_integer(rows, b, len(A[0]))
        if solved is None:
            return None
        x0, kernel = solved
        return x0, list(kernel)

    return solve
