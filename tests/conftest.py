"""Shared test configuration."""

import faulthandler
import os

import pytest
from hypothesis import HealthCheck, Verbosity, settings

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.register_profile("debug", max_examples=10, verbosity=Verbosity.verbose)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "fast"))

# A test still running after this many seconds ends the process with a
# traceback of every thread. The slowest acceptance budget is 180 s.
_WATCHDOG_SECONDS = 600
_TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 only while a test runs, so this copy reaches the terminal
    config.stash[_TERMINAL] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.fixture(autouse=True)
def _watchdog(request):
    """End the run if this test hangs, naming it, rather than stall the suite.

    faulthandler's timer runs in a C thread, so it also ends a process stuck
    inside LAPACK, where no Python signal handler would run. pytest's
    ``faulthandler_timeout`` is left unset: it would re-arm the same timer.
    """
    faulthandler.dump_traceback_later(_WATCHDOG_SECONDS, exit=True, file=request.config.stash[_TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()
