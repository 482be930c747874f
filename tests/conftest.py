"""Test-suite settings shared by every module."""

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a Tier-1 failure
# always reproduces; such runs need no example database.
settings.register_profile("plmoves", derandomize=True, deadline=None, database=None)
settings.load_profile("plmoves")

# Every reference check needs only the standard library and the test
# dependencies, so a skipped test is a check that silently did not run:
# the run fails.
_skipped = []


def pytest_runtest_logreport(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        _skipped.append(report.nodeid)


def pytest_terminal_summary(terminalreporter):
    for nodeid in _skipped:
        terminalreporter.write_line("skipped, which fails the run: %s" % nodeid, red=True)


def pytest_sessionfinish(session):
    if _skipped and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
