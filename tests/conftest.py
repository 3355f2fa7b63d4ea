"""Shared test plumbing: acceptance verdict lines survive output capture, the
numbers of an SVG's coordinates are read back, and a test that hangs fails
after WATCHDOG_S seconds instead of stalling the run."""

import re
import signal

import pytest

ACCEPTANCE_LINES: list[str] = []

# the slowest test takes a few seconds; one still running after this hangs
WATCHDOG_S = 300


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def svg_coordinates(svg: str) -> list[float]:
    """Every number in the placing attributes of ``svg`` (x, y, x1 ... height,
    points, transform), a ``nan`` or ``inf`` written there included."""
    values = re.findall(r'\s(?:x|y|x1|y1|x2|y2|width|height|points|transform)="([^"]*)"', svg)
    number = r"-?(?:nan|inf|\d[\d.]*(?:e[-+]?\d+)?)"
    return [float(t) for v in values for t in re.findall(number, v)]


@pytest.fixture(autouse=True)
def watchdog():
    """Fail the test if it is still running after WATCHDOG_S seconds, where the
    platform has SIGALRM; the previous handler is restored after the test."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test still running after {WATCHDOG_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
