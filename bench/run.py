"""The monoidpcsp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Writes the seeded inputs under bench/work/,
then runs passes one after another for S seconds (a closed loop with one
client): each pass is a fresh interpreter that imports monoidpcsp.cli and
runs the workload's fixed list of operations once (bench/passrun.py).  The
last pass to start runs to its end, so every run attempts whole passes.
Outputs are checked after the timed loop (bench/check.py).

With --trace 0 the run reports the end-to-end metrics.  Their times are
scaled to a reference speed of the machine: each pass also times a fixed
piece of work that does not use the program, and a time measured in a pass
is multiplied by REFERENCE_S over that pass's median reference time.  With
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (bench/spans.py), with the share of
operation time the spans cover and the tracing overhead against the
untraced passes.  The last line of standard output is one JSON object.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "monoidpcsp"

# op_s.p90 is printed only from at least this many successful operations,
# so that ten samples lie beyond it.
P90_MIN_SAMPLES = 100

# margin, over the sum of a pass's deadlines, after which the pass process
# itself is killed
PASS_MARGIN_S = 60.0

# The time of passrun.reference_work that scaled times are scaled to: its
# median on the 2-vCPU machine the benchmark was tuned on, so that scaled
# times read as seconds there.  The shared machine's speed drifts by up to
# 40 % over tens of seconds; a pass's time over its own reference time
# drifts much less.
REFERENCE_S = 0.010


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(spec, env, traced, timeout):
    """Set-up time, scaled pass time and report of one pass process."""
    cmd = [sys.executable, str(BENCH / "passrun.py"), str(spec)]
    if traced:
        cmd.append("--trace")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"pass process still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}:\n{err[-2000:]}")
    report = json.loads(out)
    setup = report["imported_at"] - start
    scale = REFERENCE_S / statistics.median(report["reference_s"])
    # time up to a deadline is a fixed wall-clock time, not scaled
    cut = sum(r["seconds"] for r in report["ops"] if r["status"] == "deadline")
    work = setup + sum(r["seconds"] for r in report["ops"]) - cut
    return {"setup": setup, "scale": scale,
            "pass_s": scale * work + cut, "unscaled_pass_s": work + cut,
            "traced": traced, **report}


def main(argv):
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no program to measure at {PACKAGE}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # for the one check that compares with another path of the program
    sys.path.insert(0, str(ROOT / "src"))
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: the program does not compile", file=sys.stderr)
        return 2
    workdir = Path("bench", "work", f"{args.workload}-s{args.seed}")
    ops = gen.build(args.workload, args.seed, workdir)
    spec = workdir / "pass.json"
    spec.write_text(json.dumps([[op.name, op.argv, op.deadline] for op in ops]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = sum(op.deadline for op in ops) + PASS_MARGIN_S

    passes = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(spec, env, traced, timeout))
        done = time.monotonic() - start >= args.seconds
        if done and (not args.trace or len(passes) >= 2):
            break

    attempted, failed, wrong, ok_seconds, failures = tally(ops, passes)
    if args.trace:
        metrics = trace_metrics(passes, workdir)
    else:
        metrics = end_to_end_metrics(passes, ok_seconds)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    for line in sorted(set(failures)):
        print(f"  failed: {line}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print_unscaled(passes, ok_seconds)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def tally(ops, passes):
    """Check every operation of every pass, outside the timed loop.

    An operation fails when it hits its deadline or crashes, or when its
    exit code or output is wrong; the wrong ones are also counted apart.
    Returns (attempted, failed, wrong, the successful runs of each
    operation as (pass index, seconds), reasons)."""
    verdicts = {}  # outputs repeat from pass to pass; check each once
    attempted = failed = wrong = 0
    ok_seconds = [[] for _ in ops]
    failures = []
    for k, p in enumerate(passes):
        for i, (op, res) in enumerate(zip(ops, p["ops"])):
            attempted += 1
            if res["status"] != "done":
                failed += 1
                failures.append(f"{op.name}: {res['status']}")
                continue
            key = (op.name, res["rc"], res["out"])
            if key not in verdicts:
                verdicts[key] = check.check(op, res["rc"], res["out"])
            if verdicts[key] is not None:
                failed += 1
                wrong += 1
                failures.append(f"{op.name}: wrong output: {verdicts[key]}")
                continue
            ok_seconds[i].append((k, res["seconds"]))
    return attempted, failed, wrong, ok_seconds, failures


def end_to_end_metrics(passes, ok_seconds):
    """Medians over the run, of times scaled to the reference speed."""
    latencies = [passes[k]["scale"] * t for times in ok_seconds for k, t in times]
    return {
        "pass_s": {"value": statistics.median(p["pass_s"] for p in passes),
                   "unit": "s"},
        "op_s.p50": {"value": statistics.median(latencies) if latencies else 0.0,
                     "unit": "s"},
        "setup_s": {"value": statistics.median(p["scale"] * p["setup"] for p in passes),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_kb"] for p in passes)
                        / 1024, "unit": "MB"},
    }


def print_unscaled(passes, ok_seconds):
    """Ungated: the tail of the scaled latencies, where enough samples lie
    beyond it, and the times as measured."""
    scaled = [passes[k]["scale"] * t for times in ok_seconds for k, t in times]
    if len(scaled) >= P90_MIN_SAMPLES:
        print(f"  op_s.p90 = {statistics.quantiles(scaled, n=10)[-1]:.6g} s "
              f"(ungated, of {len(scaled)} successful operations)")
    else:
        print(f"  no op_s.p90 from {len(scaled)} successful operations, "
              f"fewer than {P90_MIN_SAMPLES}")
    raw = [t for times in ok_seconds for _, t in times]
    print("  as measured: median pass "
          f"{statistics.median(p['unscaled_pass_s'] for p in passes):.6g} s, op p50 "
          f"{statistics.median(raw) if raw else 0.0:.6g} s, set-up "
          f"{statistics.median(p['setup'] for p in passes):.6g} s; median reference "
          f"{statistics.median(REFERENCE_S / p['scale'] for p in passes):.6g} s")


def trace_metrics(passes, workdir):
    """Medians over the traced passes of the per-layer totals of a pass."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [spans.layer_metrics(p["spans"]) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        unit = spans.unit_of(name)
        metrics[name] = {"value": statistics.median(m[name] for m in per_pass),
                         "unit": unit}

    # unscaled: the spans held in memory may slow the reference work of a
    # traced pass; passes alternate, so both sides see the same drift
    def op_time(p):
        return sum(r["seconds"] for r in p["ops"])

    plain = statistics.median(op_time(p) for p in passes if not p["traced"])
    with_spans = statistics.median(op_time(p) for p in traced)
    metrics["trace.overhead"] = {"value": with_spans / plain - 1, "unit": "ratio"}
    (workdir / "spans.json").write_text(json.dumps(
        [{"pass": i, "spans": p["spans"]} for i, p in enumerate(passes)
         if p["traced"]]))
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
