"""Golden CLI output: standard output and exit code of every subcommand on
the shipped data files, compared byte for byte with tests/golden_cli.json.

A refactor must leave every entry unchanged.  When an output change is
intended, rewrite the file with ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from monoidpcsp.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, os.pardir, "src", "monoidpcsp", "data")
GOLDEN = os.path.join(HERE, "golden_cli.json")

TEMPLATES = ["intro_M.nf", "trivial.mon"] + [f"introN_{n}.mon" for n in range(2, 10)]
INSTANCES = ["intro.inst", "empty.inst", "one.inst"]
FINITE_PAIRS = [("introN_3.mon", "introN_3.mon"), ("introN_2.mon", "introN_4.mon"),
                ("introN_2.mon", "introN_6.mon"), ("introN_3.mon", "introN_2.mon"),
                ("trivial.mon", "trivial.mon"), ("introN_6.mon", "intro_M.nf")]
POLYSEARCH = [("introN_3.mon", "introN_3.mon", 3), ("introN_5.mon", "introN_5.mon", 5),
              ("introN_2.mon", "introN_4.mon", 3), ("introN_3.mon", "introN_3.mon", 4),
              ("intro_M.nf", "introN_3.mon", 1), ("intro_M.nf", "introN_6.mon", 3),
              ("intro_M.nf", "introN_2.mon", 3)]
# files written next to the run: minor conditions for pmc-reduce (no data
# file holds one) and a satisfiable instance, so that solve prints assignments
WRITTEN = {
    "trivial.mc": "sym f 2 U\nsym g 1 V\nedge f g 0 0\n",
    "swap.mc": "sym f 2 U\nsym g 2 V\nedge f g 1 0\n",
    "one.inst": "instance 4\nREL 0 1 2\nMUL 0 1 3\n",
    "ff.mon": "flipflop1\nrel 1\ntuple 1\n",
    "chain.mon": "semilattice:chain:3\nrel 2\ntuple 0 1\ntuple 2 2\n",
    "cycle.mc": "sym f 3 U\nsym g 3 V\nedge f g 1 2 0\n",
}
PMC = [("trivial.mc", "introN_2.mon", 2), ("swap.mc", "introN_2.mon", 2),
       ("trivial.mc", "introN_3.mon", 2), ("trivial.mc", "trivial.mon", 2),
       ("trivial.mc", "intro_M.nf", 2), ("swap.mc", "ff.mon", 2),
       ("swap.mc", "chain.mon", 2), ("cycle.mc", "introN_3.mon", 3)]


def operations():
    """Every recorded operation, as argv lists whose file names are
    resolved by :func:`resolve`."""
    ops = []
    for fmt in ("human", "tab"):
        for n in range(2, 10):
            ops.append(["classify", "--lhs", "intro_M.nf", "--rhs", f"introN_{n}.mon",
                        "--format", fmt])
        for lhs, rhs in FINITE_PAIRS:
            ops.append(["classify", "--lhs", lhs, "--rhs", rhs, "--format", fmt])
        for t in TEMPLATES:
            for inst in INSTANCES:
                ops.append(["solve", "--template", t, "--instance", inst, "--format", fmt])
    for t in TEMPLATES:
        for inst in INSTANCES:
            ops.append(["oracle", "--template", t, "--instance", inst])
        ops.append(["regularize", "--template", t])
        ops.append(["coset-closure", "--template", t])
    for lhs, rhs, arity in POLYSEARCH:
        ops.append(["polysearch", "--lhs", lhs, "--rhs", rhs, "--arity", str(arity)])
    for cond, rel, arity in PMC:
        ops.append(["pmc-reduce", "--lhs", rel, "--rhs", rel, "--instance", cond,
                    "--arity", str(arity)])
    return ops


def key(argv):
    return " ".join(argv)


def resolve(argv, written_dir):
    out = []
    for a in argv:
        if a in WRITTEN:
            out.append(os.path.join(written_dir, a))
        elif os.path.exists(os.path.join(DATA, a)):
            out.append(os.path.join(DATA, a))
        else:
            out.append(a)
    return out


def write_files(written_dir):
    for name, text in WRITTEN.items():
        with open(os.path.join(written_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run(argv, written_dir):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(resolve(argv, written_dir))
    return {"code": code, "stdout": buf.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def written_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("written")
    write_files(str(d))
    return str(d)


def test_golden_covers_every_operation(golden):
    assert sorted(golden) == sorted(key(a) for a in operations())


@pytest.mark.parametrize("argv", operations(), ids=key)
def test_cli_output_matches_golden(argv, golden, written_dir):
    assert run(argv, written_dir) == golden[key(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        write_files(d)
        record = {key(a): run(a, d) for a in operations()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record)} operations to {GOLDEN}", file=sys.stderr)
