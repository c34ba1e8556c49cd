"""The benchmark's own arithmetic: percentiles, self time, failure counts.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import gc
import json
import socket
from pathlib import Path

import pytest

from harness import NotEnoughSamples, OpLog, percentile, samples_needed
from run import E2E_UNITS
from probes import LAYER_UNITS, Probes, layer_metrics, transport_gaps
from spans import Span, SpanRecorder, self_times
import speed

from repro.concrete import cchase
from repro.server import ClientError, ServerClient, ServerThread
from repro.workloads import employment_setting, employment_source_concrete

# -- the percentile rule ---------------------------------------------------


def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000


def test_median_needs_twenty_samples():
    with pytest.raises(NotEnoughSamples):
        percentile(list(range(19)), 50)
    assert percentile([float(x) for x in range(1, 21)], 50) == 10.0


def test_p90_needs_a_hundred_samples():
    with pytest.raises(NotEnoughSamples):
        percentile(list(range(99)), 90)
    samples = [float(x) for x in range(100, 0, -1)]  # order does not matter
    assert percentile(samples, 90) == 90.0
    beyond = [x for x in samples if x > percentile(samples, 90)]
    assert len(beyond) == 10


def test_empty_samples_report_nothing():
    with pytest.raises(NotEnoughSamples):
        percentile([], 50)


# -- self time over nested spans ---------------------------------------------


def _span(span_id, start, end, parent=None, name="s"):
    return Span(id=span_id, name=name, start=start, end=end, parent=parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling: counted once
        _span(3, 9.0, 12.0, parent=0),  # runs past the parent: clipped
        _span(4, 1.5, 2.5, parent=1),  # a grandchild: only its parent's
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx((10 - 4 - 1) * 1000.0)
    assert own[1] == pytest.approx((2 - 1) * 1000.0)
    assert own[2] == pytest.approx(3 * 1000.0)
    assert own[4] == pytest.approx(1 * 1000.0)


def test_recorder_nests_per_thread_and_shares_request_ids():
    recorder = SpanRecorder()
    outer = recorder.open("outer", request=recorder.new_request())
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.id
    assert inner.request == outer.request is not None
    assert recorder.current() is None
    assert self_times(recorder.spans)[outer.id] <= outer.ms


def test_transport_pairs_handlers_with_client_requests_in_order():
    handlers = {
        "server.delta": [
            Span(id=1, name="server.delta", start=0.0, end=0.010, request=2),
            Span(id=0, name="server.delta", start=0.0, end=0.004, request=1),
        ]
    }
    gaps = list(transport_gaps(handlers, {"delta": [5.0, 12.0]}))
    assert gaps == pytest.approx([1.0, 2.0])
    with pytest.raises(RuntimeError):
        list(transport_gaps(handlers, {"delta": [5.0]}))


# -- failure counting -----------------------------------------------------


def test_failed_ratio_counts_raising_operations():
    log = OpLog()
    log.record("update", 3.0)
    ok, error, ms = log.timed("update", lambda: 1 / 0)
    assert not ok and isinstance(error, ZeroDivisionError) and ms is None
    ok, result, ms = log.timed("query", lambda: 42)
    assert ok and result == 42 and ms >= 0
    assert (log.attempted, log.failed) == (3, 1)
    assert log.failed_ratio == pytest.approx(1 / 3)
    assert log.latencies("update") == [3.0]  # a failure carries no latency


def test_refused_and_non_2xx_requests_count_as_failed():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    log = OpLog()
    with ServerClient(port=closed_port, timeout=5) as client:
        ok, error, _ = log.timed("query", client.healthz)
    assert not ok and isinstance(error, ConnectionRefusedError)
    with ServerThread() as server, ServerClient(port=server.port) as client:
        ok, error, _ = log.timed("query", lambda: client.info("no-such-session"))
        assert not ok and isinstance(error, ClientError) and error.status == 404
        ok, _, _ = log.timed("query", client.healthz)
        assert ok
    assert (log.attempted, log.failed) == (3, 2)


# -- probes ------------------------------------------------------------------


def test_probes_span_each_chase_phase_and_restore_the_originals():
    original = cchase.c_chase
    recorder = SpanRecorder()
    probes = Probes(recorder)
    probes.install()
    try:
        cchase.c_chase(employment_source_concrete(), employment_setting()).unwrap()
    finally:
        probes.uninstall()
    assert cchase.c_chase is original
    names = [span.name for span in sorted(recorder.spans, key=lambda span: span.start)]
    assert names == [
        "cchase",
        "normalize.source",
        "tgd_pass",
        "normalize.target",
        "egd_fixpoint",
    ]
    metrics = layer_metrics(recorder.spans)
    assert list(metrics) == list(LAYER_UNITS)
    assert metrics["egd_steps"] == 3  # the Figure 9 chase's three egd steps
    assert metrics["server.delta_ms"] == 0.0


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["exchange", "revise", "serve"]


# -- the speed scale ---------------------------------------------------------


def test_reference_loop_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert speed.reference_loop() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.reference_loop()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reference_scale_is_nominal_over_the_median(monkeypatch):
    times = iter([4.0, 10.0, 2.5, 20.0, 5.0])
    monkeypatch.setattr(speed, "reference_loop", lambda: next(times))
    assert speed.reference_scale(5) == pytest.approx(speed.REFERENCE_MS / 5.0)


def test_cycle_scales_use_the_reference_runs_around_each_cycle():
    nominal = speed.REFERENCE_MS
    # Five cycles, bracketed by six reference runs; a slow spell in the middle.
    reference = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, nominal]
    assert speed.cycle_scales(reference, window=0) == pytest.approx([1.0, 2 / 3, 0.5, 0.5, 2 / 3])
    assert speed.cycle_scales(reference, window=1) == pytest.approx([1.0, 2 / 3, 0.5, 0.5, 0.5])
