"""Benchmark arithmetic and bookkeeping shared by every workload.

* :func:`percentile` — nearest-rank percentiles, reported only when at
  least :data:`MIN_BEYOND` samples lie beyond the percentile;
* :class:`OpLog` — every attempted operation with its outcome; refused,
  raising or non-2xx operations count as failed and carry no latency;
* :func:`fingerprint` / :func:`git_commit` — what a result file records
  about the machine and the code.
"""

from __future__ import annotations

import math
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class NotEnoughSamples(ValueError):
    pass


def samples_needed(p: float) -> int:
    """The fewest samples for which :func:`percentile` reports *p*."""
    n = MIN_BEYOND
    while n - math.ceil(p / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: list[float], p: float) -> float:
    """The nearest-rank *p*-th percentile of *samples*.

    Raises :class:`NotEnoughSamples` unless at least :data:`MIN_BEYOND`
    samples rank above it — a tail figure resting on fewer outliers
    than that is one slow sample away from a different number.
    """
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        raise NotEnoughSamples(
            f"p{p:g} needs {samples_needed(p)} samples, have {n}"
        )
    return sorted(samples)[rank - 1]


@dataclass
class Op:
    kind: str
    ms: float | None  # None when the operation failed
    ok: bool


@dataclass
class OpLog:
    """Attempted operations, their latencies and failures."""

    ops: list[Op] = field(default_factory=list)

    def record(self, kind: str, ms: float | None, ok: bool = True) -> None:
        self.ops.append(Op(kind, ms if ok else None, ok))

    def timed(self, kind: str, call):
        """Run *call*, record it under *kind*; return ``(ok, result, ms)``.

        Any exception counts the operation as failed (and is returned in
        place of the result, for the caller to report).
        """
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            self.record(kind, None, ok=False)
            return False, exc, None
        ms = (time.perf_counter() - started) * 1000.0
        self.record(kind, ms)
        return True, result, ms

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.ops else 0.0

    def latencies(self, *kinds: str) -> list[float]:
        return [op.ms for op in self.ops if op.ok and op.kind in kinds]


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's high-water resident set (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_model": model,
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``root/.git``, or ``"unknown"``.

    A benchmark checkout exported from git (not a clone) has no
    ``.git``; its result files then say ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
