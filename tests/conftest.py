import signal

import pytest


@pytest.fixture
def alarm():
    """Turn a request that runs away into a failure: the test gets 30 s."""

    def expired(signum, frame):
        raise TimeoutError("request ran past 30 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
