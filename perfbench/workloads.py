"""The three benchmark workloads: ``exchange``, ``revise`` and ``serve``.

Each is one seeded, single-threaded closed loop over the public API,
run with the defaults a user gets (serial abstract chase, default
c-chase engine, ``repro serve`` with its default flags).  A workload
object is set up, then driven one :meth:`~Workload.cycle` at a time by
``run.py``; every operation goes through an :class:`~harness.OpLog`
under one of these kinds:

``update``  a new source becomes a chased target — a cold ``c_chase``
            (exchange), ``applied_to`` + incremental ``c_chase``
            (revise), a fresh ``/delta`` request (serve);
``query``   the concrete-route query that evaluates (all three);
``achase``, ``aquery`` the abstract route (exchange);
``hit``, ``replay``, ``events`` the cache-hit revert, the ledger-
            replayed query and the event batch (serve).

Correctness checks run untimed: their time is added to
``Workload.untimed`` and left out of every latency and cycle time.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import subprocess
import sys
import time
from pathlib import Path

from harness import OpLog, peak_rss_mb
from spans import SpanRecorder

from repro import abstract_view
from repro.concrete import cchase
from repro.concrete.concrete_fact import ConcreteFact, concrete_fact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.deltas import SourceDelta
from repro.events import EventLog
from repro.query import ConjunctiveQuery, QueryLog
from repro.query import naive_eval
from repro.serialize import (
    concrete_fact_to_json,
    concrete_instance_to_json,
    setting_to_json,
)
from repro.relational.terms import Constant
from repro.server import ServerClient
from repro.temporal.interval import Interval, interval
from repro.workloads import (
    employment_setting,
    exchange_setting_org,
    late_arrival_batches,
    org_event_mapping,
    org_event_stream,
    random_employment_history,
    random_org_history,
)

HERE = Path(__file__).resolve().parent

#: One ``Emp`` query for both employment workloads.
EMP_QUERY = "q(n, c, s) :- Emp(n, c, s)"


def _canonical(instance: ConcreteInstance) -> str:
    return json.dumps(concrete_instance_to_json(instance), sort_keys=True)


def _sub_seed(seed: int, *parts: int) -> int:
    value = seed
    for part in parts:
        value = value * 1_000_003 + part
    return value


class Workload:
    name = ""
    #: op kind → the percentile its latencies must be able to report.
    needs: dict[str, int] = {}

    def __init__(self, seed: int, recorder: SpanRecorder | None = None):
        self.seed = seed
        self.recorder = recorder
        self.ops = OpLog()
        #: Output-check mismatches: any makes the run incorrect.
        self.problems: list[str] = []
        #: Operations that raised (counted in ``ops`` as failed).
        self.failures: list[str] = []
        self.untimed = 0.0
        #: (start, end) perf_counter windows of untimed work.
        self.untimed_windows: list[tuple[float, float]] = []
        self._untimed_depth = 0

    # -- driving -----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Final untimed correctness check; appends to ``problems``."""

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    # -- helpers -----------------------------------------------------------

    def op(self, kind: str, call):
        """Run one timed operation; returns its result or ``None`` on failure."""
        span = None
        if self.recorder is not None:
            span = self.recorder.open(f"op.{kind}", request=self.recorder.new_request())
        try:
            ok, result, _ms = self.ops.timed(kind, call)
        finally:
            if span is not None:
                self.recorder.close(span)
        if not ok:
            self.failures.append(f"{kind}: {type(result).__name__}: {result}")
            return None
        return result

    def untimed_call(self, call):
        if self._untimed_depth:
            return call()
        self._untimed_depth += 1
        started = time.perf_counter()
        try:
            return call()
        finally:
            ended = time.perf_counter()
            self.untimed += ended - started
            self.untimed_windows.append((started, ended))
            self._untimed_depth -= 1

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# exchange: cold batch exchange, both routes, per fresh history
# ---------------------------------------------------------------------------


class Exchange(Workload):
    """Fresh seeded employment history per cycle, egds active.

    c-chase it, abstract-chase its semantics, evaluate one query on both
    solutions and check the answers agree (Corollary 22).
    """

    name = "exchange"
    needs = {"update": 90, "query": 50, "achase": 50, "aquery": 50}
    PEOPLE = 32
    TIMELINE = 64

    def _history(self, index: int) -> ConcreteInstance:
        return random_employment_history(
            people=self.PEOPLE, timeline=self.TIMELINE, seed=_sub_seed(self.seed, index)
        ).instance

    def setup(self) -> None:
        self.setting = employment_setting()
        self.query = ConjunctiveQuery.parse(EMP_QUERY)
        # One warm-up exchange builds lazy per-setting state here; its
        # operations are not part of the measurement.
        self._exchange(self._history(-1))
        self.ops = OpLog()

    def _exchange(self, source: ConcreteInstance) -> None:
        target = self.op("update", lambda: cchase.c_chase(source, self.setting).unwrap())
        universal = self.op(
            "achase",
            lambda: abstract_view.abstract_chase(
                abstract_view.semantics(source), self.setting
            ).unwrap(),
        )
        if target is None or universal is None:
            return
        concrete = self.op(
            "query",
            lambda: naive_eval.naive_evaluate_concrete(self.query, target).to_temporal(),
        )
        abstract = self.op(
            "aquery", lambda: naive_eval.naive_evaluate_abstract(self.query, universal)
        )
        self.expect(
            concrete is not None and concrete == abstract,
            "concrete and abstract certain answers differ",
        )

    def cycle(self, index: int) -> None:
        source = self.untimed_call(lambda: self._history(index))
        self._exchange(source)


# ---------------------------------------------------------------------------
# revise: a chain of small revisions chased incrementally
# ---------------------------------------------------------------------------


class Revise(Workload):
    """Small seeded revisions of one employment history, chased with
    ``c_chase(..., incremental=previous)`` and queried through a
    ``QueryLog``.

    Revisions change a value, shift an interval, add or remove one
    fact; each keeps the source coalesced and every person's salaries
    non-overlapping, so no chase fails.  Every ``REVISIONS`` revisions
    the chain starts again from a new base history, after the last
    target of the old chain is checked; pooling several histories per
    run keeps one history's cost from setting the run's figures.
    """

    name = "revise"
    needs = {"update": 90, "query": 50}
    PEOPLE = 128
    TIMELINE = 64
    COMPANIES = 8
    SALARIES = 12
    #: Revisions per base history.
    REVISIONS = 48
    #: Every how many revisions a twinned run times a cold twin chase.
    TWIN_EVERY = 4

    def __init__(self, seed: int, recorder: SpanRecorder | None = None, twins: bool = False):
        super().__init__(seed, recorder)
        self.twins = twins
        self.gains: list[float] = []

    def setup(self) -> None:
        self.setting = employment_setting()
        self.query = ConjunctiveQuery.parse(EMP_QUERY)
        self.rng = random.Random(_sub_seed(self.seed, 2))
        self.base = -1
        self._next_base()

    def _next_base(self) -> None:
        self.base += 1
        self.source = random_employment_history(
            people=self.PEOPLE, timeline=self.TIMELINE, seed=_sub_seed(self.seed, 7, self.base)
        ).instance
        self.result = cchase.c_chase(self.source, self.setting, incremental=True)
        self.log = QueryLog()
        self.answers = naive_eval.naive_evaluate_concrete(
            self.query, self.result.target, log=self.log
        ).to_temporal()

    # -- revision generator --------------------------------------------------

    def _value(self, relation: str) -> str:
        if relation == "E":
            return f"co{self.rng.randrange(self.COMPANIES)}"
        return f"{10 + self.rng.randrange(self.SALARIES)}k"

    def _fits(self, new: ConcreteFact, old: ConcreteFact | None) -> bool:
        """*new* keeps the source coalesced and salaries non-overlapping."""
        for item in self.source.facts_of(new.relation):
            if item == old or item.data[0] != new.data[0]:
                continue
            if item.data == new.data and (
                item.interval.overlaps(new.interval) or item.interval.adjacent(new.interval)
            ):
                return False
            if new.relation == "S" and item.interval.overlaps(new.interval):
                return False
        return True

    def _revision(self) -> SourceDelta:
        rng = self.rng
        while True:
            kind = rng.choices(("value", "shift", "add", "remove"), (3, 3, 2, 2))[0]
            relation = rng.choice(("E", "S"))
            old = None
            if kind == "add":
                start = rng.randrange(self.TIMELINE)
                new = concrete_fact(
                    relation,
                    f"p{rng.randrange(self.PEOPLE)}",
                    self._value(relation),
                    interval=interval(start, start + rng.randint(2, 6)),
                )
            else:
                facts = sorted(self.source.facts_of(relation), key=ConcreteFact.sort_key)
                old = rng.choice(facts)
                if kind == "remove":
                    return SourceDelta(remove=(old,))
                if kind == "value":
                    value = Constant(self._value(relation))
                    new = ConcreteFact(relation, (old.data[0], value), old.interval)
                else:
                    start = old.interval.start + rng.choice((-2, -1, 1, 2))
                    end = old.interval.end
                    if not old.interval.is_unbounded:
                        end += rng.choice((-2, -1, 0, 1, 2))
                    if start < 0 or not start < end:
                        continue
                    new = ConcreteFact(relation, old.data, Interval(start, end))
            if new != old and self._fits(new, old):
                return SourceDelta(add=(new,), remove=(old,) if old is not None else ())

    # -- driving ---------------------------------------------------------------

    def cycle(self, index: int) -> None:
        delta = self.untimed_call(self._revision)
        timings = {}

        def revise():
            source = delta.applied_to(self.source)
            started = time.perf_counter()
            result = cchase.c_chase(source, self.setting, incremental=self.result)
            timings["chase"] = time.perf_counter() - started
            result.unwrap()
            return source, result

        revised = self.op("update", revise)
        if revised is None:
            return
        self.source, self.result = revised
        answers = self.op(
            "query",
            lambda: naive_eval.naive_evaluate_concrete(
                self.query, self.result.target, log=self.log
            ).to_temporal(),
        )
        if answers is not None:
            self.answers = answers
        if self.twins and index % self.TWIN_EVERY == 0:
            self.untimed_call(lambda: self._twin(timings["chase"]))
        if index % self.REVISIONS == self.REVISIONS - 1:
            self.check()
            self.untimed_call(self._next_base)

    def _twin(self, incremental_s: float) -> None:
        started = time.perf_counter()
        cchase.c_chase(self.source, self.setting)
        self.gains.append((time.perf_counter() - started) / incremental_s)

    def check(self) -> None:
        def compare():
            cold = cchase.c_chase(self.source, self.setting).unwrap()
            self.expect(
                _canonical(cold) == _canonical(self.result.target),
                "final incremental target differs from a cold c_chase of the final source",
            )
            answers = naive_eval.naive_evaluate_concrete(self.query, cold).to_temporal()
            self.expect(
                answers == self.answers,
                "final answers differ from the cold chase's answers",
            )

        self.untimed_call(compare)


# ---------------------------------------------------------------------------
# serve: a `repro serve` daemon, two sessions, one keep-alive client
# ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess on a free port, stopped by SIGTERM.

    Not SIGINT: a process started in the background inherits SIGINT
    ignored, and Python then never turns it into KeyboardInterrupt.
    """

    START_TIMEOUT_S = 60

    def __init__(self, root: Path, results: Path, spans_path: Path | None = None):
        env = dict(os.environ)
        paths = [str(root / "src"), str(HERE)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(HERE / "traced_daemon.py"), "--spans", str(spans_path)]
        with open(results / "daemon.log", "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log
            )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + self.START_TIMEOUT_S
        line = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("daemon did not report its port in time")
                chunk = os.read(self.process.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("daemon exited before listening (see daemon.log)")
                line += chunk
        # "repro server listening on http://127.0.0.1:PORT"
        return int(line.decode().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Serve(Workload):
    """Session ``org-<k>`` takes fresh ``Task`` deltas and, every third
    cycle, a revert that is a cache hit; each cycle queries ``Reports``
    (ledger replay) and ``Log`` (re-evaluated); session ``feed-<n>``
    takes one late-arrival event batch per cycle.  A fresh org session
    on a new history starts every ``ORG_CYCLES`` cycles, a fresh feed
    session every ``BATCHES`` batches, each after the served target of
    the one it replaces is checked.  Pooling several histories per run
    keeps one history's cost from setting the run's figures.
    """

    name = "serve"
    needs = {"update": 90, "query": 50, "hit": 50, "events": 50}
    ORG_PEOPLE = 64
    ORG_TIMELINE = 256
    #: Cycles per org session; a multiple of 3, so it ends on a revert.
    ORG_CYCLES = 48
    FEED_PEOPLE = 24
    FEED_TIMELINE = 64
    BATCHES = 24
    REPORTS_QUERY = "answer(e, m) :- Reports(e, m)"
    LOG_QUERY = "answer(e, t) :- Log(e, t, s)"

    def __init__(
        self,
        seed: int,
        root: Path,
        results: Path,
        spans_path: Path | None = None,
    ):
        super().__init__(seed)
        self.root = root
        self.results = results
        self.spans_path = spans_path
        self.daemon: Daemon | None = None
        self.client: ServerClient | None = None
        #: Client-side latency per handler kind, in request order.
        self.client_ms: dict[str, list[float]] = {"delta": [], "events": [], "query": []}

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        self.setting = exchange_setting_org()
        self.setting_json = setting_to_json(self.setting)
        self.mapping = org_event_mapping()
        self.rng = random.Random(_sub_seed(self.seed, 3))
        self.new_tasks = 0
        self.org_epoch = -1
        self.epoch = -1
        # The reference loop of speed.py runs in this process but must
        # time the CPU the daemon works on: pin both (the daemon
        # inherits it) to one CPU.  The client waits for every reply, so
        # the two never need two CPUs at once.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.daemon = Daemon(self.root, self.results, self.spans_path)
        self.client = ServerClient(port=self.daemon.port)
        self._next_org()
        self._next_epoch()

    def _next_org(self) -> None:
        self.org_epoch += 1
        self.org_name = f"org-{self.org_epoch}"
        self.org = random_org_history(
            people=self.ORG_PEOPLE,
            timeline=self.ORG_TIMELINE,
            seed=_sub_seed(self.seed, 6, self.org_epoch),
        ).instance
        self.removable = sorted(self.org.facts_of("Task"), key=ConcreteFact.sort_key)
        self.rng.shuffle(self.removable)
        self.last_fresh: SourceDelta | None = None
        self._admin(lambda: self.client.create(
            self.org_name, self.setting_json, concrete_instance_to_json(self.org)
        ))
        # Record the Reports answers once, so every cycle can replay them.
        self._admin(lambda: self.client.query(self.org_name, self.REPORTS_QUERY))

    def _admin(self, call):
        """An untimed request (session create/evict/fetch); failures count."""
        ok, result, _ms = self.untimed_call(lambda: self.ops.timed("admin", call))
        if not ok:
            self.problems.append(f"admin request failed: {result}")
            return None
        return result

    def _next_epoch(self) -> None:
        self.epoch += 1
        events = org_event_stream(
            people=self.FEED_PEOPLE,
            timeline=self.FEED_TIMELINE,
            seed=_sub_seed(self.seed, 4, self.epoch),
        )
        self.feed_batches = late_arrival_batches(
            events, batches=self.BATCHES, late_fraction=0.2, seed=_sub_seed(self.seed, 5, self.epoch)
        )
        self.feed_sent = 0
        self.feed = f"feed-{self.epoch}"
        self._admin(lambda: self.client.create(self.feed, self.setting_json, {"facts": []}))

    # -- the request mix ---------------------------------------------------------

    def _fresh_delta(self) -> SourceDelta:
        """1–3 Task facts: one never-used add, so the new source was
        never chased before, and 0–2 removals.

        Removals pop ``Task`` facts of the source that no pending
        revert depends on: base facts, the adds of fresh deltas that
        can no longer be reverted, and facts a revert put back.  With
        0, 1 or 2 removals equally likely, the source keeps its size
        on average, so the work per request does not drift with the
        number of cycles a run gets through.
        """
        rng = self.rng
        if self.last_fresh is not None:
            # The previous fresh delta is never reverted now.
            self._removable_again(self.last_fresh.add)
        self.new_tasks += 1
        start = rng.randrange(self.ORG_TIMELINE)
        add = concrete_fact(
            "Task",
            f"p{rng.randrange(self.ORG_PEOPLE)}",
            f"x{self.new_tasks}",
            interval=interval(start, start + rng.randint(2, 10)),
        )
        removals = min(rng.randint(0, 2), len(self.removable))
        remove = tuple(self.removable.pop() for _ in range(removals))
        return SourceDelta(add=(add,), remove=remove)

    def _removable_again(self, facts) -> None:
        for fact in facts:
            self.removable.insert(self.rng.randrange(len(self.removable) + 1), fact)

    def _timed_request(self, kind: str, handler: str, call):
        started = time.perf_counter()
        result = self.op(kind, call)
        self.client_ms[handler].append((time.perf_counter() - started) * 1000.0)
        return result

    def _send_delta(self, kind: str, delta: SourceDelta) -> None:
        add = [concrete_fact_to_json(item) for item in delta.add]
        remove = [concrete_fact_to_json(item) for item in delta.remove]
        response = self._timed_request(
            kind, "delta", lambda: self.client.delta(self.org_name, add=add, remove=remove)
        )
        if response is None:
            return
        self.org = delta.applied_to(self.org)
        self.expect(
            response["cached"] is (kind == "hit"),
            f"{kind} request answered with cached={response['cached']}",
        )

    def cycle(self, index: int) -> None:
        if index % 3 == 2 and self.last_fresh is not None:
            self._send_delta("hit", self.last_fresh.inverse())
            self._removable_again(self.last_fresh.remove)
            self.last_fresh = None
        else:
            delta = self.untimed_call(self._fresh_delta)
            self._send_delta("update", delta)
            self.last_fresh = delta
        replay = self._timed_request(
            "replay", "query", lambda: self.client.query(self.org_name, self.REPORTS_QUERY)
        )
        self._timed_request(
            "query", "query", lambda: self.client.query(self.org_name, self.LOG_QUERY)
        )
        if replay is not None:
            self.expect(
                replay["replayed"] > 0 and replay["evaluated"] == 0,
                "the Reports query did not replay its ledger",
            )
        batch = self.feed_batches[self.feed_sent]
        mapping = self.mapping.to_json() if self.feed_sent == 0 else None
        self._timed_request(
            "events", "events", lambda: self.client.events(self.feed, batch, mapping=mapping)
        )
        self.feed_sent += 1
        if self.feed_sent == len(self.feed_batches):
            self.untimed_call(self._rotate_feed)
        if index % self.ORG_CYCLES == self.ORG_CYCLES - 1:
            self.untimed_call(self._rotate_org)

    def _rotate_org(self) -> None:
        self._check_target(self.org_name, self.org)
        self._admin(lambda: self.client.evict(self.org_name))
        self._next_org()

    def _rotate_feed(self) -> None:
        self._check_feed()
        self._admin(lambda: self.client.evict(self.feed))
        self._next_epoch()

    # -- correctness ---------------------------------------------------------------

    def _check_target(self, session: str, source: ConcreteInstance) -> None:
        served = self._admin(lambda: self.client.target(session))
        cold = self.untimed_call(lambda: _canonical(cchase.c_chase(source, self.setting).unwrap()))
        self.expect(
            served is not None and json.dumps(served, sort_keys=True) == cold,
            f"served target of {session!r} differs from a cold in-process chase",
        )

    def _check_feed(self) -> None:
        if self.feed_sent == 0:
            return
        log = EventLog(self.mapping)
        for batch in self.feed_batches[: self.feed_sent]:
            log.ingest(batch)
        self._check_target(self.feed, log.snapshot_at(log.horizon))

    def check(self) -> None:
        self.untimed_call(
            lambda: (self._check_target(self.org_name, self.org), self._check_feed())
        )

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
