"""One pass: run a workload's operations once, in this fresh interpreter.

    python3 bench/passrun.py SPEC.json [--trace]

SPEC.json holds the operations as ``[name, argv, deadline]``.  Each
operation is one in-process call of ``monoidpcsp.cli.main(argv)`` with its
standard output captured.  An operation still running at its deadline is
interrupted and reported as such; the pass goes on with the next one.
Before each operation, and after the last, the pass times a fixed piece of
work that does not use the program (``reference_work``): how fast the
machine ran during the pass.  The report, one JSON object, is this
process's only standard output.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time

import monoidpcsp.cli

IMPORTED_AT = time.monotonic()

# A cut-off operation may have grown large integers; keep a runaway from
# taking the machine's memory.
MEMORY_LIMIT = 4 << 30

# about 10 ms on the machine the benchmark was tuned on
REFERENCE_ITERATIONS = 20000


class DeadlineExceeded(BaseException):
    """Raised from the timer signal; a BaseException, so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_op(argv, deadline):
    """(status, exit code, stdout, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = sys.modules["monoidpcsp.cli"].main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "done"
    except DeadlineExceeded:
        status = "deadline"
    except MemoryError:
        status = "memory"
    except Exception as e:  # a crash of the program is a failed operation
        status = f"crash: {type(e).__name__}: {e}"
    return status, rc, out.getvalue(), time.perf_counter() - start


def reference_work():
    """Seconds taken by a fixed piece of pure-Python work on tuples, dicts,
    sets and small integers, the kind of work the program does, without
    calling the program."""
    start = time.perf_counter()
    counts, products = {}, set()
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 89, i * 7 % 101)
        counts[key] = counts.get(key, 0) + i
        products.add(key[0] * key[1])
    return time.perf_counter() - start


def main(argv):
    spec_path, trace = argv[0], "--trace" in argv[1:]
    with open(spec_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)
    recorder = None
    if trace:
        import spans
        recorder = spans.install()
    results = []
    reference = []
    rss_kb = None
    for i, (_, op_argv, deadline) in enumerate(ops):
        reference.append(reference_work())
        if recorder is not None:
            recorder.op = i
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        status, rc, out, seconds = run_op(op_argv, deadline)
        if status != "done" and rss_kb is None:
            # the peak before the first cut-off operation: what a cut-off
            # operation allocated must not count
            rss_kb = before
        results.append({"status": status, "rc": rc, "out": out, "seconds": seconds})
    reference.append(reference_work())
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "imported_at": IMPORTED_AT,
        "peak_rss_kb": rss_kb,
        "reference_s": reference,
        "ops": results,
        "spans": recorder.spans if recorder is not None else None,
    }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
