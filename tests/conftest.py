import signal

import pytest


@pytest.fixture
def alarm():
    """`alarm(seconds)` arms SIGALRM for the rest of the test: a computation
    still running after that raises TimeoutError, so a loop that never ends
    fails the test instead of hanging the suite."""

    def stuck(signum, frame):
        raise TimeoutError("time limit exceeded")

    previous = signal.signal(signal.SIGALRM, stuck)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
