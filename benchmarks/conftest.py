"""Benchmark harness support: paper-vs-measured report tables.

Every benchmark records its comparison rows through the ``report`` fixture;
the collected tables are printed in the pytest terminal summary (so they
survive output capturing) and, on a regeneration run
(``REPRO_WRITE_BASELINE=1``), written to ``benchmarks/results/*.txt`` for
the record. EXPERIMENTS.md is the curated version of these outputs.
"""

import time
from pathlib import Path

import pytest

from benchmarks import writing_baseline

RESULTS_DIR = Path(__file__).parent / "results"
_TABLES = []


class Report:
    """Accumulates one benchmark's comparison table."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def header(self, text: str) -> None:
        self.lines.append("")
        self.lines.append(text)
        self.lines.append("-" * len(text))

    def row(self, *cells, widths=None) -> None:
        widths = widths or [18] * len(cells)
        self.lines.append("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)))


@pytest.fixture
def report(request):
    rep = Report(request.node.name)
    yield rep
    if rep.lines:
        _TABLES.append(rep)
    if rep.lines and writing_baseline():
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"{rep.name}.txt"
        out.write_text("\n".join(rep.lines) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line("PAPER-VS-MEASURED REPORT (written to "
                                "benchmarks/results/ when REPRO_WRITE_BASELINE=1)")
    terminalreporter.write_line("=" * 78)
    for table in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {table.name}")
        for line in table.lines:
            terminalreporter.write_line(line)


@pytest.fixture
def timer():
    """Simple wall-clock timer for one-shot long operations."""

    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.seconds = time.perf_counter() - self.start

    return Timer
