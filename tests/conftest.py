"""A time limit per test, so that a search that hangs fails its own test
instead of stalling the whole run without a word.

The limit uses SIGALRM from the standard library and is skipped on
platforms without it.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
