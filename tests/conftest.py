"""Fixtures shared by the test modules."""

import signal

import pytest

WATCHDOG_SECONDS = 120


@pytest.fixture
def watchdog():
    """Fail the test once it has run for `WATCHDOG_SECONDS`, so that a run
    that never ends fails instead of hanging the suite. It uses SIGALRM,
    so it needs the main thread; where `setitimer` is missing it does
    nothing."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("still running after %d s" % WATCHDOG_SECONDS)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
