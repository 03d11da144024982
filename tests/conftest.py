import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def disk9():
    # 13-pixel diamond: |dr| + |dc| <= 2 around the center of a 9x9 grid
    from segnoise import centered_disk

    return centered_disk((9, 9), radius=2)


@pytest.fixture
def deadline():
    """Fail the test after 60 s rather than let a process wait forever."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
