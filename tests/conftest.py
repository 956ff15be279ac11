import signal

import pytest

from adorep import exact_linalg
from adorep.exact_linalg import Echelon


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


@pytest.fixture
def eliminations(monkeypatch):
    """Counts of the Echelons built, the rows added to them and the Hermite
    loops run, from the moment the fixture is set up."""
    counts = {"Echelon": 0, "add": 0, "_hermite": 0}
    init, add, hermite = Echelon.__init__, Echelon.add, exact_linalg._hermite

    def counting_init(self):
        counts["Echelon"] += 1
        init(self)

    def counting_add(self, v):
        counts["add"] += 1
        return add(self, v)

    def counting_hermite(*args):
        counts["_hermite"] += 1
        return hermite(*args)

    monkeypatch.setattr(Echelon, "__init__", counting_init)
    monkeypatch.setattr(Echelon, "add", counting_add)
    monkeypatch.setattr(exact_linalg, "_hermite", counting_hermite)
    return counts
