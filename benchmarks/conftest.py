"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_figXX_*`` module regenerates one figure of the paper:
it first asserts the regenerated artifact equals the paper's rows
*exactly*, then times the operation that produces it.  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated figures printed next to the timings.
"""

from __future__ import annotations

import time

import pytest

from repro.workloads import (
    employment_setting,
    employment_source_abstract,
    employment_source_concrete,
)


@pytest.fixture(scope="session")
def setting():
    return employment_setting()


@pytest.fixture
def source():
    return employment_source_concrete()


@pytest.fixture
def abstract_source():
    return employment_source_abstract()


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact in a recognizable block."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}")


def record_twin(benchmark, fast, cold, rounds: int = 3) -> float:
    """Time a replayed/cached call against its cold twin, same input and
    run, and write both times and the ratio into ``extra_info``.

    Each side is the fastest of *rounds* calls.  Returns
    ``fast_ms / cold_ms`` (below 1 means the fast path wins).  A smoke
    run (timings disabled) times each side once.
    """
    if getattr(benchmark, "disabled", False):
        rounds = 1

    def best_ms(call) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - started)
        return best * 1000.0

    fast_ms = best_ms(fast)
    cold_ms = best_ms(cold)
    ratio = fast_ms / cold_ms
    benchmark.extra_info.update(
        twin_fast_ms=round(fast_ms, 3),
        twin_cold_ms=round(cold_ms, 3),
        twin_fast_over_cold=round(ratio, 4),
    )
    return ratio
