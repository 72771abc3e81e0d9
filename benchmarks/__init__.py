"""Benchmarks package — makes ``python -m benchmarks.<name>`` runnable.

A plain ``pytest`` run checks only the structural results of these
benchmarks (swap counts, recall, bit-parity, equivalence) and writes no
tracked file. Regeneration runs — ``REPRO_WRITE_BASELINE=1 pytest ...``
or a non-``--smoke`` ``python -m benchmarks.<name>`` — also rewrite
``BENCH_*.json`` / ``benchmarks/results/`` and assert the wall-clock
floors and timing comparisons.
"""

import os

WRITE_BASELINE_ENV = "REPRO_WRITE_BASELINE"


def writing_baseline() -> bool:
    """True on a regeneration run (see the module docstring)."""
    return os.environ.get(WRITE_BASELINE_ENV) == "1"


def enable_baseline_writes() -> None:
    """Turn this process into a regeneration run."""
    os.environ[WRITE_BASELINE_ENV] = "1"
