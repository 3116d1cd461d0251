import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager under which SIGALRM fails
    the test after the given seconds, so a slow regression fails instead
    of stalling the suite.  pytest.fail raises a BaseException, which
    the code under test's `except Exception` clauses cannot swallow."""

    @contextlib.contextmanager
    def limit(seconds):
        def hang(signum, frame):
            pytest.fail(f"no answer within {seconds} s")

        old = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return limit
