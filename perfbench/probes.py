"""Span probes around each layer's public entry points.

The program is not edited: :class:`Probes` replaces each entry point
*at the name where callers look it up* with a wrapper that opens a span,
calls the original and records the counts the layer reports, then puts
every original back on :meth:`Probes.uninstall`.  The same probe set
serves the in-process workloads (which call through the module
attributes below) and the traced daemon (:mod:`traced_daemon`), whose
handlers look names up in :mod:`repro.server.sessions` and
:mod:`repro.server.app`.

:func:`layer_metrics` reduces a run's spans to the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import types

from spans import Span, SpanRecorder, self_times

# -- counts read at the boundaries -------------------------------------------


def _trace_arg(args, kwargs):
    return kwargs["trace"] if "trace" in kwargs else args[2]


def _steps_before(args, kwargs):
    return len(_trace_arg(args, kwargs))


def _steps_after(span, before, args, kwargs, result):
    span.attrs["steps"] = len(_trace_arg(args, kwargs)) - before


def _normalize_after(span, before, args, kwargs, result):
    report = result[1]
    if report is not None:
        span.attrs.update(
            input=report.input_size,
            output=report.output_size,
            groups=report.groups,
            groups_replayed=report.groups_replayed,
        )


def _achase_after(span, before, args, kwargs, result):
    totals = result.reuse_totals()
    span.attrs.update(
        regions=len(result.region_results),
        replayed=totals.replayed_matches,
        live=totals.live_matches,
    )


def _log_arg(args, kwargs):
    return kwargs.get("log", args[3] if len(args) > 3 else None)


def _ledger_before(args, kwargs):
    log = _log_arg(args, kwargs)
    return log.answers.counters() if log is not None else None


def _ledger_after(span, before, args, kwargs, result):
    if before is not None:
        hits, misses = _log_arg(args, kwargs).answers.delta_since(before)
        span.attrs.update(hits=hits, misses=misses)


def _delta_size(span, before, args, kwargs, result):
    span.attrs["facts"] = len(args[0])


def _result_size(span, before, args, kwargs, result):
    span.attrs["facts"] = len(result)


def _cache_get_after(span, before, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _pending_after(span, before, args, kwargs, result):
    span.attrs["pending"] = result.pending


def _bytes_after(span, before, args, kwargs, result):
    span.attrs["bytes"] = len(result)


# (module, attribute path, span name, before hook, after hook, new request)
_TARGETS = [
    # concrete.cchase + chase.engine + concrete.normalization
    ("repro.concrete.cchase", "c_chase", "cchase", None, None, False),
    ("repro.server.sessions", "c_chase", "cchase", None, None, False),
    ("repro.concrete.cchase", "normalize_with_report", "normalize", None, _normalize_after, False),
    ("repro.concrete.cchase", "run_tgd_pass", "tgd_pass", _steps_before, _steps_after, False),
    ("repro.concrete.cchase", "run_egd_fixpoint", "egd_fixpoint", _steps_before, _steps_after, False),
    # abstract_view
    ("repro.abstract_view", "semantics", "achase.semantics", None, None, False),
    ("repro.abstract_view", "abstract_chase", "achase", None, _achase_after, False),
    # query
    ("repro.query.naive_eval", "naive_evaluate_concrete", "query.concrete", _ledger_before, _ledger_after, False),
    ("repro.server.sessions", "naive_evaluate_concrete", "query.concrete", _ledger_before, _ledger_after, False),
    ("repro.query.naive_eval", "naive_evaluate_abstract", "query.abstract", None, None, False),
    # deltas
    ("repro.deltas", "SourceDelta.applied_to", "delta.apply", None, _delta_size, False),
    ("repro.deltas", "SourceDelta.between", "delta.between", None, _result_size, False),
    # serialize
    ("repro.server.sessions", "chase_request_digest", "digest", None, None, False),
    # server
    ("repro.server.cache", "CachedChase.from_result", "cache.store", None, None, False),
    ("repro.server.cache", "CachedChase.materialize", "cache.materialize", None, None, False),
    ("repro.server.cache", "ChaseCache.get", "cache.get", None, _cache_get_after, False),
    ("repro.server.sessions", "SessionManager.delta", "server.delta", None, None, True),
    ("repro.server.sessions", "SessionManager.events", "server.events", None, None, True),
    ("repro.server.sessions", "SessionManager.query", "server.query", None, None, True),
    # events
    ("repro.events.log", "EventLog.ingest", "events.ingest", None, _pending_after, False),
    ("repro.events.log", "FollowCursor.peek", "events.compile", None, None, False),
]


class Probes:
    """Installs and removes the span wrappers of one process."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, function, name, before, after, new_request):
        recorder = self.recorder

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "normalize":
                # c_chase normalizes the source first, then the target.
                parent = recorder.current()
                if parent is not None and parent.name == "cchase":
                    seen = parent.attrs.get("normalizations", 0)
                    parent.attrs["normalizations"] = seen + 1
                    span_name = "normalize.source" if seen == 0 else "normalize.target"
            state = before(args, kwargs) if before is not None else None
            span = recorder.open(
                span_name, request=recorder.new_request() if new_request else None
            )
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, state, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        # Import every module before patching any: a module imported
        # later would bind an already-wrapped name and nest the spans.
        modules = {name: importlib.import_module(name) for name, *_ in _TARGETS}
        for module_name, path, name, before, after, new_request in _TARGETS:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, before, after, new_request))
            else:
                wrapped = self._wrap(raw, name, before, after, new_request)
            self._patch(owner, attr, wrapped)
        self._install_json()

    def _install_json(self) -> None:
        """The daemon's JSON codec, looked up as ``json`` in the app module."""
        app = importlib.import_module("repro.server.app")
        proxy = types.SimpleNamespace(
            dumps=self._wrap(json.dumps, "json.encode", None, _bytes_after, False),
            loads=self._wrap(json.loads, "json.decode", None, None, False),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._patch(app, "json", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- reduction to per-layer metrics --------------------------------------------

#: Per-layer metric name → unit, in BENCHMARK.json order.
LAYER_UNITS = {
    "normalize.source_ms": "ms",
    "normalize.target_ms": "ms",
    "normalize.blowup": "ratio",
    "normalize.groups_replayed_ratio": "ratio",
    "tgd_pass_ms": "ms",
    "egd_fixpoint_ms": "ms",
    "tgd_steps": "count",
    "egd_steps": "count",
    "cchase.self_ms": "ms",
    "cchase.replay_gain": "ratio",
    "achase.semantics_ms": "ms",
    "achase.self_ms": "ms",
    "achase.regions": "count",
    "achase.replayed_match_ratio": "ratio",
    "query.concrete_ms": "ms",
    "query.abstract_ms": "ms",
    "query.ledger_hit_ratio": "ratio",
    "delta.apply_ms": "ms",
    "delta.between_ms": "ms",
    "delta.diff_amplification": "ratio",
    "digest_ms": "ms",
    "json.encode_ms": "ms",
    "json.decode_ms": "ms",
    "cache.store_ms": "ms",
    "cache.materialize_ms": "ms",
    "server.cache_hit_ratio": "ratio",
    "server.delta_ms": "ms",
    "server.events_ms": "ms",
    "server.query_ms": "ms",
    "server.transport_ms": "ms",
    "server.response_kb": "KiB",
    "events.ingest_ms": "ms",
    "events.compile_ms": "ms",
    "events.pending": "count",
    "trace.overhead_ratio": "ratio",
}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span],
    client_ms: dict[str, list[float]] | None = None,
    replay_gain: float = 0.0,
    overhead_ratio: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics from one traced phase's spans.

    Times and counts are means per call (self time where the name says
    so) — a layer serves calls of different sizes (``serve`` chases an
    org session and a feed session), and means of such mixtures stay
    steady and add up; ratios are pooled over the run.  A layer
    the workload never reaches reports 0.  *client_ms* maps a server
    handler kind (``"delta"``, ``"events"``, ``"query"``) to the
    client-side latencies of those requests, in order, for
    ``server.transport_ms``.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    names = {span.id: span.name for span in spans}
    own = self_times(spans)

    def ms(name):
        return _mean(span.ms for span in by_name.get(name, []))

    def attr_sum(name, key, where=lambda span: True):
        return sum(span.attrs.get(key, 0) for span in by_name.get(name, []) if where(span))

    normalizations = by_name.get("normalize.source", []) + by_name.get("normalize.target", [])
    out = {
        "normalize.source_ms": ms("normalize.source"),
        "normalize.target_ms": ms("normalize.target"),
        "normalize.blowup": _ratio(
            sum(span.attrs.get("output", 0) for span in normalizations),
            sum(span.attrs.get("input", 0) for span in normalizations),
        ),
        "normalize.groups_replayed_ratio": _ratio(
            sum(span.attrs.get("groups_replayed", 0) for span in normalizations),
            sum(span.attrs.get("groups", 0) for span in normalizations),
        ),
        "tgd_pass_ms": ms("tgd_pass"),
        "egd_fixpoint_ms": ms("egd_fixpoint"),
        "tgd_steps": _mean(span.attrs["steps"] for span in by_name.get("tgd_pass", [])),
        "egd_steps": _mean(span.attrs["steps"] for span in by_name.get("egd_fixpoint", [])),
        "cchase.self_ms": _mean(own[span.id] for span in by_name.get("cchase", [])),
        "cchase.replay_gain": replay_gain,
        "achase.semantics_ms": ms("achase.semantics"),
        "achase.self_ms": _mean(own[span.id] for span in by_name.get("achase", [])),
        "achase.regions": _mean(span.attrs["regions"] for span in by_name.get("achase", [])),
        "achase.replayed_match_ratio": _ratio(
            attr_sum("achase", "replayed"),
            attr_sum("achase", "replayed") + attr_sum("achase", "live"),
        ),
        "query.concrete_ms": ms("query.concrete"),
        "query.abstract_ms": ms("query.abstract"),
        "query.ledger_hit_ratio": _ratio(
            attr_sum("query.concrete", "hits"),
            attr_sum("query.concrete", "hits") + attr_sum("query.concrete", "misses"),
        ),
        "delta.apply_ms": ms("delta.apply"),
        # The target diff only: the event cursor's own diffs sit inside
        # events.compile and are that layer's time.
        "delta.between_ms": _mean(
            span.ms
            for span in by_name.get("delta.between", [])
            if names.get(span.parent) != "events.compile"
        ),
        "delta.diff_amplification": _ratio(
            attr_sum("delta.between", "facts", lambda s: names.get(s.parent) == "server.delta"),
            attr_sum("delta.apply", "facts", lambda s: names.get(s.parent) == "server.delta"),
        ),
        "digest_ms": ms("digest"),
        "json.encode_ms": ms("json.encode"),
        "json.decode_ms": ms("json.decode"),
        "cache.store_ms": ms("cache.store"),
        "cache.materialize_ms": ms("cache.materialize"),
        "server.cache_hit_ratio": _ratio(
            sum(1 for span in by_name.get("cache.get", []) if span.attrs["hit"]),
            len(by_name.get("cache.get", [])),
        ),
        "server.delta_ms": ms("server.delta"),
        "server.events_ms": ms("server.events"),
        "server.query_ms": ms("server.query"),
        "server.transport_ms": _mean(transport_gaps(by_name, client_ms or {})),
        "server.response_kb": _mean(
            span.attrs["bytes"] / 1024.0 for span in by_name.get("json.encode", [])
        ),
        "events.ingest_ms": ms("events.ingest"),
        "events.compile_ms": ms("events.compile"),
        "events.pending": _mean(span.attrs["pending"] for span in by_name.get("events.ingest", [])),
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(out) == list(LAYER_UNITS), "layer metrics out of step with LAYER_UNITS"
    return out


def transport_gaps(by_name: dict[str, list[Span]], client_ms: dict[str, list[float]]):
    """Client latency minus handler span, request by request.

    One closed-loop client on one connection: the daemon runs a kind's
    handlers in the order the client sent them, so the *k*-th handler
    span of a kind answers the client's *k*-th request of that kind.
    """
    for kind, latencies in client_ms.items():
        handlers = sorted(by_name.get(f"server.{kind}", []), key=lambda span: span.request)
        if len(handlers) != len(latencies):
            raise RuntimeError(
                f"{len(latencies)} client {kind} requests but {len(handlers)} handler spans"
            )
        for latency, span in zip(latencies, handlers):
            yield latency - span.ms
