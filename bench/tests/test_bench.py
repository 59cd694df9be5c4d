"""Tests of the benchmark itself: seeded generation, the output checks and
the per-operation deadline.

    python3 -m pytest bench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from monoidpcsp.cli import main  # noqa: E402

WORKLOADS = sorted(gen.BUILDERS)


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def call(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(op.argv)
    return rc, out.getvalue()


def ops_of(workload, tmp_path, seed=1):
    return {op.name: op for op in gen.build(workload, seed, tmp_path / workload)}


# ---------------------------------------------------------------------------
# Generation


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic(workload, tmp_path):
    a = gen.build(workload, 7, tmp_path / "a")
    b = gen.build(workload, 7, tmp_path / "b")
    c = gen.build(workload, 8, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert [op.name for op in a] == [op.name for op in b]
    assert (files(tmp_path / "a"), [op.name for op in a]) != \
        (files(tmp_path / "c"), [op.name for op in c])


def test_intro_family_is_the_papers(tmp_path):
    gen.build("classify-intro", 1, tmp_path)
    for name in ["intro_M.nf"] + [f"introN_{n}.mon" for n in range(2, 10)]:
        with open(ROOT / "src/monoidpcsp/data" / name, encoding="utf-8") as fh:
            text = "".join(line for line in fh if not line.startswith("#"))
        assert (tmp_path / name).read_text(encoding="utf-8") == text


def test_blowup_instance_does_not_depend_on_the_seed(tmp_path):
    a = gen.build("solve-int", 1, tmp_path / "a")
    b = gen.build("solve-int", 2, tmp_path / "b")
    assert a[-1].name == b[-1].name == "int-blowup"
    assert (tmp_path / "a/blowup.inst").read_bytes() == \
        (tmp_path / "b/blowup.inst").read_bytes()


# ---------------------------------------------------------------------------
# Checks: each accepts the program's output and rejects a corrupted
# assignment or a flipped verdict


def test_classify_intro_checks(tmp_path):
    ops = ops_of("classify-intro", tmp_path)
    tractable, hard = ops["intro-6"], ops["intro-4"]
    rc, out = call(tractable)
    assert rc == 0 and check.check(tractable, rc, out) is None
    assert check.check(tractable, 10, "NP-HARD\n") is not None
    lines = out.splitlines()
    size_at = next(i for i, line in enumerate(lines) if line.startswith("sandwich-size"))
    lines[size_at] = "sandwich-size 99"
    assert check.check(tractable, rc, "\n".join(lines) + "\n") is not None
    # the trivial hom sends the relation to the constant triple, not in relN
    lines = out.splitlines()
    lines[3] = f"gen {tractable.data['F'].identity}"
    assert check.check(tractable, rc, "\n".join(lines) + "\n") is not None
    rc, out = call(hard)
    assert rc == 10 and check.check(hard, rc, out) is None
    assert check.check(hard, 0, "TRACTABLE\n") is not None


def test_classify_finite_checks(tmp_path):
    ops = gen.build("classify-finite", 1, tmp_path)
    seen = set()
    for op in ops:
        rc, out = call(op)
        assert check.check(op, rc, out) is None, op.name
        if rc == 0 and "tractable" not in seen:
            seen.add("tractable")
            assert check.check(op, 10, "NP-HARD\n") is not None
            lines = out.splitlines()
            images = lines[2].split()
            # map some non-identity element elsewhere: no longer a hom
            # with this image, or the sandwich no longer matches
            images[2] = str((int(images[2]) + 1) % op.data["N"].size)
            lines[2] = " ".join(images)
            assert check.check(op, rc, "\n".join(lines) + "\n") is not None
        if rc == 10 and "hard" not in seen:
            seen.add("hard")
            fake = ("TRACTABLE\nwitness hom\nimages "
                    + " ".join(["0"] * op.data["M"].size) + "\n")
            assert check.check(op, 0, fake) is not None
    assert seen == {"tractable", "hard"}


def test_finite_np_hard_is_compared_with_the_regularization_path(tmp_path):
    ops = gen.build("classify-finite", 1, tmp_path)
    for op in ops:
        rc, out = call(op)
        if rc == 0:
            assert check.check(op, 10, "NP-HARD\n") == (
                "NP-HARD, but the regularization path finds the pair tractable")
            return
    pytest.fail("no tractable pair at seed 1")


def _corrupt_first_value(out):
    lines = out.splitlines()
    head, value = lines[1].rsplit(" ", 1)
    if value.startswith("v:("):
        value = f"v:({int(value[3:-1]) + 1})"
    else:
        value = str(int(value) + 1)
    lines[1] = f"{head} {value}"
    return "\n".join(lines) + "\n"


def test_solve_int_checks(tmp_path):
    ops = gen.build("solve-int", 1, tmp_path)
    planted = next(op for op in ops if op.data["sat"] and op.name != "int-blowup")
    gadget = next(op for op in ops if not op.data["sat"])
    rc, out = call(planted)
    assert rc == 0 and check.check(planted, rc, out) is None
    assert check.check(planted, rc, _corrupt_first_value(out)) is not None
    assert check.check(planted, 11, "unsat\n") is not None
    rc2, out2 = call(gadget)
    assert rc2 == 11 and check.check(gadget, rc2, out2) is None
    zeros = "sat\n" + "".join(f"x{i} = d:0 v:(0)\n" for i in range(gadget.data["n"]))
    assert check.check(gadget, 0, zeros) is not None


def test_solve_finite_checks(tmp_path):
    op = gen.build("solve-finite", 1, tmp_path)[2]
    rc, out = call(op)
    assert rc == 0 and check.check(op, rc, out) is None
    M = op.data["M"]
    lines = out.splitlines()
    for i in range(1, len(lines)):
        # change one value to another element; some constraint must break
        head, value = lines[i].rsplit(" ", 1)
        bad = lines[:i] + [f"{head} {(int(value) + 1) % M.size}"] + lines[i + 1:]
        verdict = check.check(op, rc, "\n".join(bad) + "\n")
        if verdict is not None:
            break
    else:
        pytest.fail("no corrupted value was caught")
    assert check.check(op, 11, "unsat\n") is not None


# ---------------------------------------------------------------------------
# The deadline


def test_deadline_overrun_fails_the_operation_and_the_pass_goes_on(tmp_path):
    ops = gen.build("solve-int", 1, tmp_path)
    blowup, small = ops[-1], ops[0]
    spec = tmp_path / "pass.json"
    spec.write_text(json.dumps([[blowup.name, blowup.argv, 0.5],
                                [small.name, small.argv, 5.0]]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "passrun.py"), str(spec)], cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    statuses = [r["status"] for r in report["ops"]]
    assert statuses == ["deadline", "done"]
    assert 0.5 <= report["ops"][0]["seconds"] < 2.0
    # the machine's speed is timed before each operation and after the last
    assert len(report["reference_s"]) == 3
    attempted, failed, wrong, ok_seconds, _ = run.tally([blowup, small], [report])
    assert (attempted, failed, wrong) == (2, 1, 0)
    assert [len(times) for times in ok_seconds] == [0, 1]
