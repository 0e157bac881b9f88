"""A time limit on every test under this directory, tests/ and bench/ alike.

A wrong group-law step can make point_order walk without end, and a run
that hangs reports nothing.  So each test (setup, call and teardown) runs
under faulthandler.dump_traceback_later: past LIMIT_S seconds it writes
every thread's traceback, the hung test's frame among them, to the real
stderr and ends the process with exit code 1.  The traceback goes to a dup
of stderr taken while pytest's capture is suspended, because under fd
capture fd 2 is a temporary file that is lost when the process exits.  The
watchdog is a thread, not a signal: bench/probe.py owns SIGALRM.
"""

import contextlib
import faulthandler
import os
import sys

import pytest

# the slowest test takes about 5 s
LIMIT_S = 60

# a dup of the real stderr, open for the session
STDERR = pytest.StashKey()


def pytest_configure(config):
    capture = config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        config.stash[STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later(LIMIT_S, exit=True, file=item.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
