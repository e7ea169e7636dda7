"""Shared test plumbing.

Loads the Hypothesis profile: ``tier1`` (the default) derandomizes every
property, so each run checks the same examples and the suite is
repeatable; ``HYPOTHESIS_PROFILE=explore`` draws fresh random examples.
Neither changes a property's example count. Also holds the
acceptance-criterion report registry so the one-line verdicts survive
output capture: the terminal summary hook replays them after the run
regardless of -s.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
