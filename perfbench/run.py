"""The exchange-pipeline benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {exchange,revise,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` sets the workload up several times (reporting the median
set-up time), drives it for S seconds — longer if an operation has not
yet gathered the samples its reported percentile needs — checks the
outputs, and prints the end-to-end metrics of ``BENCHMARK.json``.  Its
times are scaled to a nominal machine speed by the reference loop of
``speed.py``, run after every cycle and before every set-up; the raw
times go to the result file.

``--trace 1`` drives two instances of the workload on the same inputs
for S seconds, taking turns cycle by cycle: one plain, one with span
probes on every layer's entry points (for ``serve``, inside its own
daemon).  It prints the per-layer metrics of the probed instance, and
``trace.overhead_ratio`` compares the two instances' cycle times.

Either way the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full result file
(machine fingerprint, commit, seed, sample counts, the per-workload
figures such as ``delta_p50_ms``) goes to ``perfbench/results/``.  The exit code is
non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program under test is the checkout's own source tree, never an
# installed copy: without ROOT/src there is nothing to measure.
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no program source under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    NotEnoughSamples,
    fingerprint,
    git_commit,
    percentile,
    samples_needed,
)
from probes import LAYER_UNITS, Probes, layer_metrics  # noqa: E402
from spans import SpanRecorder, load_spans  # noqa: E402
from speed import cycle_scales, reference_loop, reference_scale  # noqa: E402
from workloads import Exchange, Revise, Serve  # noqa: E402

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: Measurement must end this long after start, whatever the sample counts,
#: leaving time for the checks and teardown inside the 180 s run limit.
DEADLINE_S = 140.0

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "query_p50_ms": "ms",
    "cycles_per_s": "1/s",
}


def make_workload(name: str, seed: int, results: Path, **options):
    if name == "serve":
        return Serve(seed, ROOT, results, spans_path=options.get("spans_path"))
    if name == "revise":
        return Revise(seed, options.get("recorder"), twins=options.get("twins", False))
    return Exchange(seed, options.get("recorder"))


def enough_samples(workload) -> bool:
    return all(
        len(workload.ops.latencies(kind)) >= samples_needed(level)
        for kind, level in workload.needs.items()
    )


def timed_cycle(workload, index: int) -> float:
    """Run one cycle; its time in ms, untimed work (input generation,
    checks) taken out."""
    untimed = workload.untimed
    started = time.perf_counter()
    workload.cycle(index)
    return (time.perf_counter() - started - (workload.untimed - untimed)) * 1000.0


def measure(workload, seconds: float, deadline: float):
    """Drive cycles for *seconds* and until every operation kind has
    the samples its percentile needs, timing the reference loop before
    the first cycle and after each.

    Returns each cycle's time in ms, the index in ``workload.ops.ops``
    where each cycle's operations start (plus one past the last), and
    the reference times.
    """
    cycle_ms: list[float] = []
    first_op: list[int] = []
    reference_ms = [reference_loop()]
    start = time.monotonic()
    while time.monotonic() - start < seconds or not enough_samples(workload):
        if time.monotonic() > deadline:
            raise NotEnoughSamples(
                f"{workload.name}: too few samples after {time.monotonic() - start:.0f} s"
            )
        first_op.append(len(workload.ops.ops))
        cycle_ms.append(timed_cycle(workload, len(cycle_ms)))
        reference_ms.append(reference_loop())
    first_op.append(len(workload.ops.ops))
    return cycle_ms, first_op, reference_ms


def scaled_latencies(workload, first_op: list[int], scales: list[float], kind: str) -> list[float]:
    """The measured latencies of *kind*, each times its cycle's scale."""
    out = []
    for cycle, scale in enumerate(scales):
        ops = workload.ops.ops[first_op[cycle] : first_op[cycle + 1]]
        out.extend(op.ms * scale for op in ops if op.ok and op.kind == kind)
    return out


def p50(workload, kind: str) -> float:
    return percentile(workload.ops.latencies(kind), 50)


def named_metrics(workload, cycle_ms: list[float]) -> dict[str, float]:
    """The figures under their per-workload names (``chase_p50_ms``,
    ``hit_p50_ms``, ...); written to the result file and the report,
    not gated."""
    out = {"failed_ratio": workload.ops.failed_ratio}
    updates = workload.ops.latencies("update")
    if workload.name == "exchange":
        out.update(
            chase_p50_ms=percentile(updates, 50),
            achase_p50_ms=p50(workload, "achase"),
            aquery_p50_ms=p50(workload, "aquery"),
        )
    elif workload.name == "revise":
        out.update(revise_p50_ms=percentile(updates, 50), revise_p90_ms=percentile(updates, 90))
    else:
        requests = sum(1 for op in workload.ops.ops if op.kind != "admin")
        out.update(
            delta_p50_ms=percentile(updates, 50),
            delta_p90_ms=percentile(updates, 90),
            hit_p50_ms=p50(workload, "hit"),
            events_p50_ms=p50(workload, "events"),
            replay_p50_ms=p50(workload, "replay"),
            requests_per_s=requests / (sum(cycle_ms) / 1000.0),
        )
    return out


def untraced_run(args, results: Path, deadline: float):
    setups = []
    setup_scales = []
    workload = None
    try:
        for _ in range(SETUPS):
            if workload is not None:
                workload.teardown()
            workload = make_workload(args.workload, args.seed, results)
            setup_scales.append(reference_scale())
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        cycle_ms, first_op, reference_ms = measure(workload, args.seconds, deadline)
        workload.check()
        rss = workload.peak_rss_mb()
    finally:
        if workload is not None:
            workload.teardown()
    updates = workload.ops.latencies("update")
    raw = {
        "setup_s": statistics.median(setups),
        "update_p50_ms": percentile(updates, 50),
        "update_p90_ms": percentile(updates, 90),
        "query_p50_ms": p50(workload, "query"),
        "cycles_per_s": len(cycle_ms) / (sum(cycle_ms) / 1000.0),
    }
    scales = cycle_scales(reference_ms)
    scaled_updates = scaled_latencies(workload, first_op, scales, "update")
    metrics = {
        "setup_s": statistics.median(s * k for s, k in zip(setups, setup_scales)),
        "peak_rss_mb": rss,
        "update_p50_ms": percentile(scaled_updates, 50),
        "update_p90_ms": percentile(scaled_updates, 90),
        "query_p50_ms": percentile(scaled_latencies(workload, first_op, scales, "query"), 50),
        "cycles_per_s": len(cycle_ms) / (sum(map(float.__mul__, cycle_ms, scales)) / 1000.0),
    }
    extra = {
        "named": named_metrics(workload, cycle_ms),
        "raw": raw,
        "reference_p50_ms": statistics.median(reference_ms),
        "setup_samples_s": setups,
        "cycles": len(cycle_ms),
    }
    return workload, [workload], metrics, E2E_UNITS, extra


def _in_windows(point: float, windows) -> bool:
    return any(start <= point <= end for start, end in windows)


def traced_run(args, results: Path, deadline: float):
    """Two workload instances on the same inputs, one probed, take turns
    cycle by cycle (alternating which goes first), so drift in machine
    speed hits both alike; ``trace.overhead_ratio`` compares them."""
    recorder = SpanRecorder()
    spans_path = results / f"{args.workload}-s{args.seed}.spans.jsonl"
    plain = make_workload(args.workload, args.seed, results)
    # The probed instance also times revise's cold twins; they run as
    # untimed work, so their spans are dropped below.
    traced = make_workload(
        args.workload, args.seed, results, recorder=recorder, spans_path=spans_path, twins=True
    )
    # In-process probes go on around the probed instance's cycles only;
    # serve's probes live in its traced daemon.
    probes = Probes(recorder) if args.workload != "serve" else None
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    try:
        plain.setup()
        traced.setup()
        # perf_counter is CLOCK_MONOTONIC: comparable with the daemon's spans.
        window_start = time.perf_counter()
        start = time.monotonic()
        while time.monotonic() - start < args.seconds and time.monotonic() < deadline:
            index = len(plain_ms)
            for workload in (plain, traced) if index % 2 == 0 else (traced, plain):
                # Each cycle starts with no garbage left by the other
                # instance (or revise's twins), so neither pays the other's
                # collections.
                gc.collect()
                if workload is plain:
                    plain_ms.append(timed_cycle(plain, index))
                    continue
                if probes is not None:
                    probes.install()
                try:
                    traced_ms.append(timed_cycle(traced, index))
                finally:
                    if probes is not None:
                        probes.uninstall()
        window_end = time.perf_counter()
        plain.check()
        traced.check()
    finally:
        plain.teardown()
        traced.teardown()
    if probes is None:
        spans = load_spans(spans_path)
    else:
        recorder.dump(spans_path)
        spans = recorder.spans
    spans = [
        span
        for span in spans
        if window_start <= span.start <= window_end
        and not _in_windows(span.start, traced.untimed_windows)
    ]
    gains = getattr(traced, "gains", [])
    metrics = layer_metrics(
        spans,
        client_ms=getattr(traced, "client_ms", None),
        replay_gain=statistics.median(gains) if gains else 0.0,
        overhead_ratio=sum(traced_ms) / sum(plain_ms) - 1.0,
    )
    extra = {"cycles": len(traced_ms), "spans": len(spans), "spans_file": spans_path.name}
    return traced, [plain, traced], metrics, LAYER_UNITS, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="exchange-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=("exchange", "revise", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    results = HERE / "results"
    results.mkdir(exist_ok=True)

    run = traced_run if args.trace else untraced_run
    workload, passes, metrics, units, extra = run(args, results, deadline)
    problems = [problem for each in passes for problem in each.problems]
    failures = [failure for each in passes for failure in each.failures]
    attempted = sum(each.ops.attempted for each in passes)
    failed = sum(each.ops.failed for each in passes)
    correct = not problems

    samples = {
        kind: len(workload.ops.latencies(kind))
        for kind in sorted({op.kind for op in workload.ops.ops})
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "commit": git_commit(ROOT),
        "correct": correct,
        "problems": problems[:20],
        "failures": failures[:20],
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        **extra,
    }
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for failure in failures[:20]:
        print(f"OPERATION FAILED: {failure}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} samples={samples}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:12.4f} {units[key]}")
    for key, value in extra.get("raw", {}).items():
        print(f"  [raw] {key:28s} {value:12.4f}")
    for key, value in extra.get("named", {}).items():
        print(f"  [{args.workload}] {key:23s} {value:12.4f}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
