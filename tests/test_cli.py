import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from monoidpcsp.cli import main

DATA = os.path.join(os.path.dirname(__file__), os.pardir,
                    "src", "monoidpcsp", "data")


def data(name):
    return os.path.join(DATA, name)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_classify_tractable():
    code, out = run(["classify", "--lhs", data("intro_M.nf"),
                     "--rhs", data("introN_6.mon")])
    assert code == 0
    assert out.splitlines()[0] == "TRACTABLE"
    assert any(line.startswith("sandwich-size") for line in out.splitlines())


def test_classify_np_hard():
    code, out = run(["classify", "--lhs", data("intro_M.nf"),
                     "--rhs", data("introN_5.mon")])
    assert code == 10
    assert out.strip() == "NP-HARD"


def test_classify_promise_violation(tmp_path):
    a = tmp_path / "a.mon"
    b = tmp_path / "b.mon"
    a.write_text("cyclic:2\nrel 1\ntuple 1\n")
    b.write_text("cyclic:3\nrel 1\ntuple 1\n")
    code, out = run(["classify", "--lhs", str(a), "--rhs", str(b)])
    assert code == 2
    assert out.strip() == "PROMISE-VIOLATION"


def test_solve_unsat_and_sat():
    code, out = run(["solve", "--template", data("intro_M.nf"),
                     "--instance", data("intro.inst")])
    assert code == 11
    assert out.strip() == "unsat"
    code, out = run(["solve", "--template", data("trivial.mon"),
                     "--instance", data("empty.inst")])
    assert code == 0
    assert out.strip() == "sat"


def test_solve_assignment_format(tmp_path):
    inst = tmp_path / "one.inst"
    inst.write_text("instance 3\nREL 0 1 2\n")
    code, out = run(["solve", "--template", data("intro_M.nf"),
                     "--instance", str(inst)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith("x0 = d:0 v:(")


def test_oracle():
    code, out = run(["oracle", "--template", data("introN_4.mon"),
                     "--instance", data("intro.inst")])
    assert code == 0
    assert out.splitlines()[0] == "sat"
    assert len(out.splitlines()) == 6
    code, out = run(["oracle", "--template", data("introN_4.mon"),
                     "--instance", data("intro.inst"), "--budget", "2"])
    assert code == 3


def test_solve_rejects_non_coset_finite_template():
    # introN_6's relation (non-constant triples) is not a coset, so solve
    # may not answer for its coset closure; the oracle still solves it
    args = ["--template", data("introN_6.mon"), "--instance", data("intro.inst")]
    assert run(["solve"] + args) == (2, "")
    code, out = run(["oracle"] + args)
    assert code == 0
    assert out.splitlines()[0] == "sat"


def test_oracle_rejects_nf_template(capsys):
    code, _ = run(["oracle", "--template", data("intro_M.nf"),
                   "--instance", data("intro.inst")])
    assert code == 2
    assert capsys.readouterr().err == "error: the oracle needs a finite carrier\n"


# a valid normal-form template over a one-element semilattice and one
# coordinate; each malformed variant breaks one of its lines
NF_TEXT = ("nf\nsemilattice 1 0\n0\ncoords 1\nlambda 0 0\nanchor 0 0\n"
           "rel 1\nblock 0\nd 0\noffset 0\n")
UNARY_MC = "sym f 1 U\nsym g 1 V\nedge f g 0\n"


def _solve_nf(text):
    return (["solve", "--template", "bad.nf", "--instance", data("empty.inst")],
            {"bad.nf": text})


# normal-form relations that are not cosets: two blocks over one d-tuple
# (x0 = 0 lies in the first), and a block over the top d-tuple that the
# block below it does not contain (x0 = x1 = [0, (0)] satisfies MUL 0 0 1)
TWO_BLOCKS_NF = ("integers\nrel 1\nblock 1\nd 0\noffset 0\ngen 3\n"
                 "block 1\nd 0\noffset 1\ngen 3\n")
LOWER_BLOCK_NF = ("nf\nsemilattice 2 0\n0 1\n1 1\ncoords 1\nlambda 0 0\n"
                  "lambda 1 0\nanchor 0 0\nrel 1\nblock 1\nd 0\noffset 0\n"
                  "gen 2\nblock 1\nd 1\noffset 1\ngen 2\n")


def _solve_and_classify(name, template, instance):
    """Solve the instance over the template file, and classify the template
    against a finite arity-1 one."""
    return {
        f"{name}-solve": (["solve", "--template", "t.nf", "--instance", "i.inst"],
                          {"t.nf": template, "i.inst": instance}),
        f"{name}-classify": (["classify", "--lhs", "t.nf", "--rhs", "c2.mon"],
                             {"t.nf": template, "c2.mon": "cyclic:2\nrel 1\ntuple 0\n"}),
    }


def _pmc_reduce(rhs, cond):
    return (["pmc-reduce", "--lhs", data("introN_3.mon"), "--rhs", data(rhs),
             "--arity", "1", "--instance", "cond.mc"], {"cond.mc": cond})


# argv and the files it names, written to a temporary directory
BAD_INPUTS = {
    "polysearch-nf-rhs": (["polysearch", "--lhs", data("introN_3.mon"),
                           "--rhs", data("intro_M.nf"), "--arity", "3"], {}),
    "polysearch-nf-both": (["polysearch", "--lhs", data("intro_M.nf"),
                            "--rhs", data("intro_M.nf"), "--arity", "1"], {}),
    "pmc-reduce-nf-rhs": _pmc_reduce("intro_M.nf", UNARY_MC),
    "nf-anchor": _solve_nf(NF_TEXT.replace("anchor 0 0", "anchor 0")),
    "nf-anchor-twice": _solve_nf(NF_TEXT.replace("anchor 0 0", "anchor 0 0\nanchor 0 0")),
    "nf-lambda": _solve_nf(NF_TEXT.replace("lambda 0 0", "lambda")),
    "nf-lambda-twice": _solve_nf(NF_TEXT.replace("lambda 0 0", "lambda 0 0\nlambda 0")),
    "nf-xi": _solve_nf(NF_TEXT.replace("anchor", "xi 0\nanchor")),
    "nf-block": _solve_nf(NF_TEXT.replace("block 0", "block")),
    "nf-block-two": _solve_nf(NF_TEXT.replace("block 0", "block 1 2")),
    "nf-block-negative": _solve_nf(NF_TEXT.replace("block 0", "block -1")),
    "nf-xi-negative": _solve_nf(NF_TEXT.replace("anchor", "xi 0 -1\nanchor")),
    "nf-anchor-range": _solve_nf(NF_TEXT.replace("anchor 0 0", "anchor 0 7")),
    "nf-coords-negative": _solve_nf(NF_TEXT.replace("coords 1", "coords -1")),
    "nf-coords-negative-bare": _solve_nf(
        NF_TEXT.replace("coords 1", "coords -1").replace("anchor 0 0\n", "")),
    "empty-template": (["classify", "--lhs", "empty.mon", "--rhs", data("introN_3.mon")],
                       {"empty.mon": ""}),
    "comment-template": (["classify", "--lhs", "comment.mon", "--rhs", data("introN_3.mon")],
                         {"comment.mon": "# no carrier\n"}),
    "table-cut-short": (["classify", "--lhs", "cut.mon", "--rhs", data("introN_3.mon")],
                        {"cut.mon": "monoid 2 0\n0 1\n"}),
    "mc-sym-arity": _pmc_reduce("introN_3.mon", "sym f x U\n"),
    "mc-edge-map": _pmc_reduce("introN_3.mon", UNARY_MC.replace("0\n", "a b\n")),
    **_solve_and_classify("nf-two-blocks", TWO_BLOCKS_NF, "instance 1\nID 0\nREL 0\n"),
    **_solve_and_classify("nf-lower-block", LOWER_BLOCK_NF,
                          "instance 2\nREL 0\nREL 1\nMUL 0 0 1\n"),
    **_solve_and_classify("not-utf8", b"\xff\xfe", "instance 0\n"),
}


def _write(argv, files, tmp_path):
    """argv with the names of files replaced by their written paths."""
    for fname, text in files.items():
        (tmp_path / fname).write_bytes(text if isinstance(text, bytes) else text.encode())
    return [str(tmp_path / a) if a in files else a for a in argv]


def test_bad_input_baselines_are_valid(tmp_path):
    """The well-formed texts the bad inputs are made from run to exit 0."""
    assert run(_write(*_solve_nf(NF_TEXT), tmp_path)) == (0, "sat\n")
    assert run(_write(*_pmc_reduce("introN_3.mon", UNARY_MC), tmp_path))[0] == 0


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(name, tmp_path, capsys):
    assert main(_write(*BAD_INPUTS[name], tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# inputs the program accepts or refuses with an answer, never a traceback:
# (argv, files, exit code, stdout)
NO_TRACEBACK = {
    "pmc-reduce-arity-0": (
        ["pmc-reduce", "--lhs", data("introN_2.mon"), "--rhs", data("introN_2.mon"),
         "--arity", "0", "--instance", "empty.mc"], {"empty.mc": ""}, 2, ""),
    "nf-coords-huge": (*_solve_nf(NF_TEXT.replace(
        "coords 1", "coords 10000000000000000000")), 2, ""),
    "oracle-1200-free": (
        ["oracle", "--template", data("introN_3.mon"), "--instance", "free.inst"],
        {"free.inst": "instance 1200\n"}, 0,
        "sat\n" + "".join(f"x{i} = 0\n" for i in range(1200))),
    "polysearch-arity-huge": (
        ["polysearch", "--lhs", data("introN_3.mon"), "--rhs", data("introN_3.mon"),
         "--arity", "100000001"], {}, 11, "none\n"),
    # a polymorphism exists at every arity here, so only the cap stops the
    # search from building one of 10^8 components
    "polysearch-arity-huge-hit": (
        ["polysearch", "--lhs", "c3.mon", "--rhs", "one.mon", "--arity", "100000001"],
        {"c3.mon": "cyclic:3\nrel 1\ntuple 0\ntuple 1\n",
         "one.mon": "monoid 1 0\n0\nrel 1\ntuple 0\n"}, 3, ""),
    "pmc-reduce-power-huge": (
        ["pmc-reduce", "--lhs", data("introN_3.mon"), "--rhs", data("introN_3.mon"),
         "--arity", "10000000", "--cap-power", "1000000000", "--instance", "empty.mc"],
        {"empty.mc": ""}, 3, ""),
}


@pytest.mark.parametrize("name", sorted(NO_TRACEBACK))
def test_cli_answers_without_a_traceback(name, tmp_path, capsys, deadline):
    argv, files, code, stdout = NO_TRACEBACK[name]
    with deadline(10):
        got = main(_write(argv, files, tmp_path))
    out, err = capsys.readouterr()
    assert got in (0, 2, 3, 10, 11) and got == code
    assert err == "" or err.startswith("error: ")
    assert out == stdout


def test_pmc_reduce_refuses_a_huge_power_without_forming_it(tmp_path, deadline):
    # 3^(10^7) has about 1.6 * 10^7 bits and takes seconds to form, so the
    # refusal must come before it
    argv, files, code, _ = NO_TRACEBACK["pmc-reduce-power-huge"]
    with deadline(1):
        assert main(_write(argv, files, tmp_path)) == code


@pytest.mark.parametrize("name", ["nf-anchor-range", "nf-block-negative",
                                  "nf-xi-negative"])
def test_bad_nf_field_error_names_its_line(name, tmp_path, capsys):
    main(_write(*BAD_INPUTS[name], tmp_path))
    assert capsys.readouterr().err.startswith("error: line ")


@pytest.mark.parametrize("name, line", [("nf-anchor-twice", 7), ("nf-lambda-twice", 6)])
def test_a_repeated_nf_line_is_refused_at_that_line(name, line, tmp_path, capsys):
    assert main(_write(*BAD_INPUTS[name], tmp_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: second ")


@pytest.mark.parametrize("name", ["empty-template", "comment-template"])
def test_a_template_without_a_carrier_names_no_expectation(name, tmp_path, capsys):
    assert main(_write(*BAD_INPUTS[name], tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "None" not in err


@pytest.mark.parametrize("name", ["empty-template", "comment-template", "table-cut-short"])
def test_an_input_that_ends_early_names_no_line(name, tmp_path, capsys):
    """No file has a line 0: an input that ends where a line is wanted is
    reported at the end of the input."""
    assert main(_write(*BAD_INPUTS[name], tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at end of input: ") and "line 0" not in err


@pytest.mark.parametrize("name", ["nf-coords-negative",
                                  "nf-coords-negative-bare"])
def test_negative_coords_error_names_the_coords_line(name, tmp_path, capsys):
    assert main(_write(*BAD_INPUTS[name], tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: line 4: coordinate count")


def test_caps_must_be_positive(tmp_path, capsys):
    code, out = run(["oracle", "--template", data("introN_4.mon"),
                     "--instance", data("intro.inst"), "--budget", "0"])
    assert (code, out) == (2, "")
    cond = tmp_path / "cond.mc"
    cond.write_text("sym f 2 U\nsym g 1 V\nedge f g 0 0\n")
    rel = tmp_path / "rel.mon"
    rel.write_text("cyclic:2\nrel 1\ntuple 1\n")
    code, out = run(["pmc-reduce", "--lhs", str(rel), "--rhs", str(rel),
                     "--instance", str(cond), "--arity", "2",
                     "--cap-power", "0"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.count("error: caps must be positive") == 2


def test_cap_options_only_where_read():
    # --budget belongs to oracle, --cap-power to pmc-reduce
    with pytest.raises(SystemExit):
        run(["solve", "--template", data("trivial.mon"),
             "--instance", data("empty.inst"), "--budget", "5"])
    with pytest.raises(SystemExit):
        run(["polysearch", "--lhs", data("trivial.mon"), "--rhs", data("trivial.mon"),
             "--arity", "1", "--budget", "5"])
    with pytest.raises(SystemExit):
        run(["oracle", "--template", data("trivial.mon"),
             "--instance", data("empty.inst"), "--cap-power", "5"])


def test_regularize(tmp_path):
    f = tmp_path / "ff.mon"
    f.write_text("flipflop1\n")
    code, out = run(["regularize", "--template", str(f)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 2"
    assert lines[1] == "classes 0 1 1"


def test_polysearch():
    code, out = run(["polysearch", "--lhs", data("introN_3.mon"),
                     "--rhs", data("introN_3.mon"), "--arity", "3"])
    assert code == 0
    assert out.splitlines()[0].startswith("found")
    code, out = run(["polysearch", "--lhs", data("introN_5.mon"),
                     "--rhs", data("introN_5.mon"), "--arity", "5"])
    assert code == 11
    code, out = run(["polysearch", "--lhs", data("introN_3.mon"),
                     "--rhs", data("introN_3.mon"), "--arity", "4"])
    assert code == 2


def test_pmc_reduce_round_trips_through_parser(tmp_path):
    cond = tmp_path / "cond.mc"
    cond.write_text("sym f 2 U\nsym g 1 V\nedge f g 0 0\n")
    rel = tmp_path / "rel.mon"
    rel.write_text("cyclic:2\nrel 1\ntuple 1\n")
    code, out = run(["pmc-reduce", "--lhs", str(rel), "--rhs", str(rel),
                     "--instance", str(cond), "--arity", "2"])
    assert code == 0
    from monoidpcsp.model import parse_instance
    I = parse_instance(out)
    assert I.var_count >= 1


def test_coset_closure(tmp_path):
    rel = tmp_path / "rel.mon"
    rel.write_text("cyclic:6\nrel 1\ntuple 2\ntuple 4\n")
    code, out = run(["coset-closure", "--template", str(rel)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 3"
    assert "tuple 0" in lines


def test_keyword_carrier_order_is_bounded(tmp_path, deadline):
    """cyclic:k and semilattice:chain:k build a k x k table from a few bytes,
    so an order above 1024 is bad input, refused before any table is built."""
    rel = tmp_path / "big.mon"
    for word in ("cyclic:100000", "semilattice:chain:1025"):
        rel.write_text(f"{word}\nrel 1\ntuple 1\n")
        with deadline(5):
            assert run(["coset-closure", "--template", str(rel)]) == (2, "")
    rel.write_text("cyclic:1024\nrel 1\ntuple 1\n")
    assert run(["coset-closure", "--template", str(rel)]) == (0, "size 1\ntuple 1\n")


def test_keyword_carrier_with_extra_fields_is_unknown(tmp_path, capsys):
    """A keyword carrier has exactly one field after its kind, so a trailing
    field is bad input, not the plain keyword."""
    rel = tmp_path / "extra.mon"
    for word in ("cyclic:3:junk", "semilattice:chain:4:1"):
        rel.write_text(f"{word}\nrel 1\ntuple 1\n")
        assert run(["coset-closure", "--template", str(rel)]) == (2, "")
        assert f"unknown carrier {word!r}" in capsys.readouterr().err


def test_solve_on_a_long_chain_keyword(tmp_path, deadline):
    """Normal-form monotonicity is checked on the covering pairs of the
    chain's order, not on all of its pairs a <= b."""
    rel = tmp_path / "chain.mon"
    rel.write_text("semilattice:chain:64\nrel 1\ntuple 0\ntuple 1\n")
    with deadline(2):
        code, out = run(["solve", "--template", str(rel),
                         "--instance", data("empty.inst")])
    assert (code, out) == (0, "sat\n")


def test_classify_on_a_long_chain_keyword(tmp_path, deadline):
    """Every generator of a chain is forced, so classify finds the chain's
    generating set with one scan of its table, not a subset search."""
    lhs, rhs = tmp_path / "lhs.mon", tmp_path / "rhs.mon"
    lhs.write_text("semilattice:chain:20\nrel 2\ntuple 0 1\ntuple 19 3\n")
    rhs.write_text("semilattice:chain:2\nrel 2\ntuple 0 1\ntuple 1 1\n")
    with deadline(2):
        code, out = run(["classify", "--lhs", str(lhs), "--rhs", str(rhs)])
    assert code == 0
    assert out == ("TRACTABLE\nwitness hom\nimages 0" + " 1" * 19 + "\n"
                   "sandwich-size 2\nsandwich-relation 2\nsandwich-embedding 0 1\n")


def test_tab_format():
    code, out = run(["classify", "--lhs", data("intro_M.nf"),
                     "--rhs", data("introN_6.mon"), "--format", "tab"])
    assert code == 0
    assert "sandwich-size\t6" in out.splitlines()


def test_output_is_byte_identical_across_runs():
    args = ["classify", "--lhs", data("intro_M.nf"),
            "--rhs", data("introN_6.mon")]
    assert run(args) == run(args)


def test_missing_file_is_input_error():
    code, _ = run(["solve", "--template", "/nonexistent.mon",
                   "--instance", data("empty.inst")])
    assert code == 2


def test_parse_error_is_input_error(tmp_path):
    bad = tmp_path / "bad.mon"
    bad.write_text("monoid 2 0\n0 1\n")
    code, _ = run(["classify", "--lhs", str(bad), "--rhs", str(bad)])
    assert code == 2
    # a negative variable count is bad input, not an empty satisfiable instance
    neg = tmp_path / "neg.inst"
    neg.write_text("instance -2\n")
    code, out = run(["solve", "--template", data("trivial.mon"),
                     "--instance", str(neg)])
    assert (code, out) == (2, "")
    # a normal-form relM whose projected relation is not a coset is outside
    # the theorem for classify as for solve
    lhs = tmp_path / "nocoset.nf"
    lhs.write_text("nf\nsemilattice 2 0\n0 1\n1 1\ncoords 0\nrel 2\n"
                   "block 0\nd 0 1\noffset\nblock 0\nd 1 0\noffset\n")
    rhs = tmp_path / "chain.mon"
    rhs.write_text("semilattice:chain:2\nrel 2\ntuple 0 1\ntuple 1 0\n")
    code, out = run(["classify", "--lhs", str(lhs), "--rhs", str(rhs)])
    assert (code, out) == (2, "")
    inst = tmp_path / "one.inst"
    inst.write_text("instance 2\nREL 0 1\n")
    code, out = run(["solve", "--template", str(lhs), "--instance", str(inst)])
    assert (code, out) == (2, "")


def test_cli_import_path_keeps_off_dataclasses_and_inspect():
    # a fresh interpreter imports the CLI; the modules it adds are the ones
    # every CLI call pays for at start-up
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; b = set(sys.modules); import monoidpcsp.cli; "
            "print(*sorted(set(sys.modules) - b))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = out.split()
    assert "monoidpcsp.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
