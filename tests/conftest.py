"""Shared test plumbing: per-criterion result lines in the final summary,
and a Boltzmann oracle fed spoiled Fourier coefficients."""

from dataclasses import replace

import pytest

from trottergibbs import thermal

_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion_report():
    """Record one pass/fail line for an acceptance criterion.

    The line is printed in a dedicated terminal section after the run, so
    it stays visible regardless of output capturing.
    """

    def _record(number: int, ok: bool, details: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number:2d} {status}: {details}"
        _CRITERION_LINES.append(line)
        print(line)

    return _record


@pytest.fixture
def shrunk_fourier(monkeypatch):
    """Scale every coefficient that gibbs_fourier hands the oracle by 1 - 1e-4.

    A uniform shrink keeps the target admissible (|P| <= 1 on the circle),
    so synthesis still succeeds and only the block's accuracy changes: its
    block_deviation lands near 1e-4 times the Gibbs weight, past an eps_qsp
    of 1e-6 and within one of 1e-3.
    """
    real = thermal.gibbs_fourier

    def shrunk(*args):
        fa = real(*args)
        return replace(fa, c=fa.c * (1.0 - 1e-4))

    monkeypatch.setattr(thermal, "gibbs_fourier", shrunk)


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
