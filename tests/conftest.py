import signal
from contextlib import contextmanager

import pytest

from monoidpcsp.zlinalg import solve_integer


@pytest.fixture
def deadline():
    """``with deadline(seconds): ...`` fails the test when the body is still
    running after that many seconds, so an elimination that never returns
    fails instead of hanging the suite.  Where the platform has no SIGALRM
    the body runs without a deadline."""

    @contextmanager
    def arm(seconds):
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
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
