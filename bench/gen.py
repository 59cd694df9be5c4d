"""Seeded inputs for the four workloads, written in the CLI's file formats.

``build(workload, seed, workdir)`` writes the template and instance files
and returns the pass: the fixed list of operations, each a CLI argument
vector plus what its output must satisfy.  The same seed gives the same
files byte for byte; the program sees nothing but these files.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path

from algebra import (
    FACTORS,
    coset_closure,
    cyclic,
    format_template,
    from_shape,
    group_inverse,
    homs,
    is_commutative_on,
)

# intro_M.nf of the paper's introduction: the integers with the relation
# x + y + z = 1 (mod 3), as one lattice-coset block.
INTRO_M = """integers
rel 3
block 3
d 0 0 0
offset 0 0 1
gen 1 1 1
gen 1 -1 0
gen 0 1 -1
"""

# intro.inst: x+y = u+v with R(x,y,u), R(u,v,x), R(u,v,y); unsatisfiable
# over intro_M because adding the last two gives 3(x+y) = 2 (mod 3).
GADGET = (("MUL", 0, 1, 4), ("MUL", 2, 3, 4), ("REL", 0, 1, 2),
          ("REL", 2, 3, 0), ("REL", 2, 3, 1))

# Per-operation deadlines (seconds): 6 to 37 times the slowest successful
# operation seen over 40 to 60 seeds of the workload, so a large slowdown
# still completes, while an operation that never returns is cut.
DEADLINE = {
    "classify-intro": 20.0,
    "classify-finite": 10.0,
    "solve-int": 2.0,
    "solve-finite": 20.0,
}

# classify-finite: (lhs carrier, rhs carrier, arity), one pair of each per
# pass.  Carriers have 6 to 36 elements; ff (flipflop1) makes a carrier
# non-commutative.
FINITE_PAIRS = (
    ("z2xz4", "z4xz6", 3),
    ("z2xz2xz3", "z2xz2xz6", 3),
    ("ffxc2", "ffxz3xc2", 3),
    ("z3xz3", "z3xz3xz3", 3),
    ("c2xz2xz2", "c2xz2xz6", 2),
    ("z2xz2xz2", "z2xz2xz6", 3),
    ("z2xz2xz2", "z6xz6", 2),
    ("c3xz2", "z6xz6", 3),
    ("ffxz2", "ffxz2xz6", 2),
    ("c2xc2xc2", "c3xc3xc2", 2),
    ("ffxff", "ffxz6", 2),
)

# solve-int: planted instance sizes of one pass, four of each so that the
# median latency of a run does not hang on a few instances; every third
# instance also carries the gadget and is unsatisfiable.
INT_SIZES = (16, 20, 24, 28, 32, 36, 40, 44, 48) * 4

# solve-finite: commutative completely regular carriers with non-trivial
# semilattices (cN is a chain, zN a cyclic group), arity and instance size;
# sized so that every operation costs about the same and the median
# operation is not a different one from seed to seed.
FINITE_SOLVE = (
    ("c3xc2", 3, 20),
    ("z3xc2", 3, 32),
    ("z6xc3", 2, 28),
    ("z2xc3xc2", 2, 20),
)


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    name: str
    argv: list
    deadline: float
    kind: str
    data: dict


def build(workload, seed, workdir):
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return BUILDERS[workload](rng, workdir)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# classify-intro


def _classify_intro(rng, workdir):
    """The paper's family as written in src/monoidpcsp/data; the seed only
    orders the operations.  (Relabelling the carriers would change which
    witness the search meets first, and with it the cost of n = 6 and
    n = 9 by up to 2.7x from seed to seed.)"""
    lhs = _write(workdir / "intro_M.nf", INTRO_M)
    sizes = list(range(2, 10))
    rng.shuffle(sizes)
    ops = []
    for n in sizes:
        F = cyclic(n)
        rel = {(a, b, c) for a in range(n) for b in range(n) for c in range(n)
               if not a == b == c}
        text = f"cyclic:{n}\nrel 3\n" + "".join(
            f"tuple {a} {b} {c}\n" for a, b, c in sorted(rel))
        rhs = _write(workdir / f"introN_{n}.mon", text)
        ops.append(Op(f"intro-{n}", ["classify", "--lhs", lhs, "--rhs", rhs],
                      DEADLINE["classify-intro"], "classify-intro",
                      {"n": n, "F": F, "relN": frozenset(rel)}))
    return ops


# ---------------------------------------------------------------------------
# classify-finite


def _random_hom(rng, lhs_shape, rhs_shape):
    """A hom between products: each target factor is a random factor hom
    applied to a random source factor."""
    src = lhs_shape.split("x")
    dst = rhs_shape.split("x")
    parts = []
    for name in dst:
        i = rng.randrange(len(src))
        maps = homs(FACTORS[src[i]], FACTORS[name])
        parts.append((i, rng.choice(maps)))
    src_sizes = [FACTORS[f].size for f in src]
    dst_sizes = [FACTORS[f].size for f in dst]

    def digits(a, sizes):
        out = []
        for s in reversed(sizes):
            out.append(a % s)
            a //= s
        return out[::-1]

    images = []
    for a in range(math.prod(src_sizes)):
        coords = digits(a, src_sizes)
        b = 0
        for (i, f), s in zip(parts, dst_sizes):
            b = b * s + f[coords[i]]
        images.append(b)
    return tuple(images)


def _classify_finite(rng, workdir):
    ops = []
    for k, (lhs_shape, rhs_shape, arity) in enumerate(FINITE_PAIRS):
        M, N = from_shape(lhs_shape), from_shape(rhs_shape)
        unit = (N.identity,) * arity
        # the all-identity tuple in relN makes the trivial hom a witness;
        # keep it out unless the draws force it in
        for _ in range(20):
            relM = {tuple(rng.randrange(M.size) for _ in range(arity))
                    for _ in range(rng.randint(2, 5))}
            h = _random_hom(rng, lhs_shape, rhs_shape)
            image_rel = {tuple(h[a] for a in t) for t in relM}
            if unit not in image_rel:
                break
        relN = set(image_rel)
        image = set(h)
        closable = is_commutative_on(N, image) and all(
            group_inverse(N, a) is not None for a in image)
        # half of the pairs get the closure of the image relation, which
        # makes them tractable; the rest are left to the classifier
        if closable and rng.random() < 0.5:
            relN |= coset_closure(N, image_rel)
        for _ in range(rng.randint(0, 3)):
            t = tuple(rng.randrange(N.size) for _ in range(arity))
            if t != unit:
                relN.add(t)
        lhs = _write(workdir / f"pair{k:02d}_M.mon",
                     format_template(M, arity, relM))
        rhs = _write(workdir / f"pair{k:02d}_N.mon",
                     format_template(N, arity, relN))
        ops.append(Op(f"pair-{k:02d}-{lhs_shape}-{rhs_shape}",
                      ["classify", "--lhs", lhs, "--rhs", rhs],
                      DEADLINE["classify-finite"], "classify-finite",
                      {"M": M, "N": N, "relM": frozenset(relM),
                       "relN": frozenset(relN), "lhs": lhs, "rhs": rhs}))
    return ops


# ---------------------------------------------------------------------------
# Planted instances


def _format_instance(var_count, constraints):
    lines = [f"instance {var_count}"]
    lines += [" ".join(map(str, c)) for c in constraints]
    return "\n".join(lines) + "\n"


def planted_int(rng, n):
    """A satisfiable instance over intro_M, as (variables, constraints).

    Constraints are listed by kind: identity pins, then products, then
    relation constraints."""
    values = [rng.randint(-4, 4) for _ in range(n)]
    pins = rng.sample(range(n), 2)
    for x in pins:
        values[x] = 0
    by_value, by_residue = {}, {}
    for x, v in enumerate(values):
        by_value.setdefault(v, []).append(x)
        by_residue.setdefault(v % 3, []).append(x)
    muls = []
    while len(muls) < n:
        x, y = rng.randrange(n), rng.randrange(n)
        zs = by_value.get(values[x] + values[y])
        if zs:
            muls.append(("MUL", x, y, rng.choice(zs)))
    rels = []
    while len(rels) < n // 2:
        x, y = rng.randrange(n), rng.randrange(n)
        zs = by_residue.get((1 - values[x] - values[y]) % 3)
        if zs:
            rels.append(("REL", x, y, rng.choice(zs)))
    constraints = [("ID", x) for x in pins] + muls + rels
    return n, constraints


def with_gadget(n, constraints):
    """Append intro.inst on fresh variables n..n+4."""
    shifted = [(c[0],) + tuple(v + n for v in c[1:]) for c in GADGET]
    return n + 5, list(constraints) + shifted


# The constraints of a planted instance, listed in a shuffled order: the
# dense Smith form of the integer layer then still runs after 30 s, where
# the same constraints listed by kind solve in about 60 ms.  It does not
# depend on --seed, so every pass of every run attempts it and fails it.
BLOWUP_SEED = 1
BLOWUP_SIZE = 40


def blowup_instance():
    rng = random.Random(f"blowup/{BLOWUP_SEED}")
    n, constraints = planted_int(rng, BLOWUP_SIZE)
    rng.shuffle(constraints)
    return n, constraints


def _solve_int(rng, workdir):
    tmpl = _write(workdir / "intro_M.nf", INTRO_M)
    ops = []
    for k, size in enumerate(INT_SIZES):
        n, constraints = planted_int(rng, size)
        sat = k % 3 != 2
        if not sat:
            n, constraints = with_gadget(n, constraints)
        inst = _write(workdir / f"int{k:02d}.inst",
                      _format_instance(n, constraints))
        ops.append(Op(f"int-{k:02d}-n{n}{'' if sat else '-gadget'}",
                      ["solve", "--template", tmpl, "--instance", inst],
                      DEADLINE["solve-int"], "solve-int",
                      {"n": n, "constraints": constraints, "sat": sat}))
    n, constraints = blowup_instance()
    inst = _write(workdir / "blowup.inst", _format_instance(n, constraints))
    ops.append(Op("int-blowup", ["solve", "--template", tmpl, "--instance", inst],
                  DEADLINE["solve-int"], "solve-int",
                  {"n": n, "constraints": constraints, "sat": True}))
    return ops


# ---------------------------------------------------------------------------
# solve-finite


def planted_finite(rng, M, rel, n):
    """A satisfiable instance over the finite template (M, rel)."""
    tuples = sorted(rel)
    values = []
    while len(values) < n - 2:
        values.extend(rng.choice(tuples))
    values = values[:n - 2] + [M.identity, M.identity]
    pins = [n - 2, n - 1]
    by_value = {}
    for x, v in enumerate(values):
        by_value.setdefault(v, []).append(x)
    muls = []
    while len(muls) < n:
        x, y = rng.randrange(n), rng.randrange(n)
        zs = by_value.get(M.mul(values[x], values[y]))
        if zs:
            muls.append(("MUL", x, y, rng.choice(zs)))
    present = [t for t in tuples if all(a in by_value for a in t)]
    rels = []
    for _ in range(n // 2):
        t = rng.choice(present)
        rels.append(("REL",) + tuple(rng.choice(by_value[a]) for a in t))
    return [("ID", x) for x in pins] + muls + rels


def _solve_finite(rng, workdir):
    ops = []
    for k, (shape, arity, n) in enumerate(FINITE_SOLVE):
        M = from_shape(shape)
        # the templates do not depend on --seed: a seeded relation moved
        # an operation's cost by a coefficient of variation of 0.2, a
        # seeded instance on a fixed template by 0.1
        fixed = random.Random(f"solve-finite/template/{k}")
        seed_tuples = {tuple(fixed.randrange(M.size) for _ in range(arity))
                       for _ in range(2)}
        rel = frozenset(coset_closure(M, seed_tuples))
        tmpl = _write(workdir / f"fin{k}_{shape}.mon",
                      format_template(M, arity, rel))
        constraints = planted_finite(rng, M, rel, n)
        inst = _write(workdir / f"fin{k}_{shape}.inst",
                      _format_instance(n, constraints))
        ops.append(Op(f"fin-{k}-{shape}-n{n}",
                      ["solve", "--template", tmpl, "--instance", inst],
                      DEADLINE["solve-finite"], "solve-finite",
                      {"M": M, "rel": rel, "n": n, "constraints": constraints}))
    return ops


BUILDERS = {
    "classify-intro": _classify_intro,
    "classify-finite": _classify_finite,
    "solve-int": _solve_int,
    "solve-finite": _solve_finite,
}
