"""Hostile byte streams at the daemon's front door, swept by Hypothesis.

Each example opens a fresh socket, sends raw bytes — pure noise, or a
valid request with its method, path, headers, ``Content-Length`` or
body broken — and half-closes the socket (``shutdown(SHUT_WR)``), so
the server sees end-of-stream instead of waiting out its read timeout.
Four things must hold for every example:

* every reply is a sequence of well-formed ``HTTP/1.1 NNN`` responses
  (or the server just closes the connection);
* no status is a 5xx — malformed input is the client's fault;
* ``GET /healthz`` still answers 200 afterwards;
* the event loop logged no unhandled exception (a connection dropped on
  one closes without a reply, which the first check cannot tell from a
  clean close).
"""

from __future__ import annotations

import json
import logging
import re
import socket

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serialize import concrete_instance_to_json, setting_to_json
from repro.server import ServerThread
from repro.workloads import exchange_setting_org, random_org_history

ORG_SETTING_JSON = setting_to_json(exchange_setting_org())
ORG_SOURCE_JSON = concrete_instance_to_json(
    random_org_history(people=3, timeline=8, seed=2).instance
)
SESSION = "fuzz"

_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*\r\n")

FUZZ_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class _Collect(logging.Handler):
    """Keeps the event loop's error records: a request that escapes the
    handler's error mapping is logged there, not answered."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


LOOP_ERRORS = _Collect()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    spool = tmp_path_factory.mktemp("fuzz-spool")
    loop_logger = logging.getLogger("asyncio")
    loop_logger.addHandler(LOOP_ERRORS)
    with ServerThread(snapshot_dir=str(spool)) as thread:
        body = json.dumps(
            {"v": 1, "name": SESSION, "setting": ORG_SETTING_JSON, "source": ORG_SOURCE_JSON}
        ).encode()
        reply = _exchange(thread.port, _request(b"POST", b"/sessions", body))
        assert reply.startswith(b"HTTP/1.1 200 "), reply[:200]
        yield thread
    loop_logger.removeHandler(LOOP_ERRORS)


def _request(method: bytes, path: bytes, body: bytes, headers: bytes | None = None) -> bytes:
    if headers is None:
        headers = b"Host: x\r\nContent-Length: %d\r\n" % len(body)
    return method + b" " + path + b" HTTP/1.1\r\n" + headers + b"\r\n" + body


def _exchange(port: int, data: bytes) -> bytes:
    """Send *data*, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=20) as raw:
        try:
            raw.sendall(data)
            raw.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may close first (e.g. after a 400 head)
        reply = b""
        try:
            while chunk := raw.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


def _statuses(reply: bytes) -> list[int]:
    """The status of every response in *reply*; asserts each is well formed."""
    statuses = []
    position = 0
    while position < len(reply):
        match = _STATUS_LINE.match(reply, position)
        assert match is not None, reply[position : position + 120]
        end = reply.index(b"\r\n\r\n", match.end() - 2) + 4
        head = reply[match.end() : end].decode("ascii")
        lengths = [
            int(line.split(":", 1)[1])
            for line in head.split("\r\n")
            if line.lower().startswith("content-length:")
        ]
        assert len(lengths) == 1, head
        statuses.append(int(match.group(1)))
        position = end + lengths[0]
    assert position == len(reply)
    return statuses


def _check(server, data: bytes) -> None:
    for status in _statuses(_exchange(server.port, data)):
        assert status < 500, data[:300]
    health = _exchange(server.port, _request(b"GET", b"/healthz", b""))
    assert health.startswith(b"HTTP/1.1 200 "), health[:120]
    # A connection the server dropped on an unhandled exception closes
    # without a reply, which the checks above accept; the loop logs it.
    errors = [record.getMessage() for record in LOOP_ERRORS.records]
    LOOP_ERRORS.records.clear()
    assert errors == [], (errors, data[:300])


# -- strategies -----------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

FIELDS = (
    "v", "name", "setting", "source", "replace", "delta", "add", "remove",
    "events", "mapping", "query", "shards", "incremental",
)


@st.composite
def envelope_bodies(draw) -> bytes:
    """A JSON object built from the real field names with random values,
    usually inside a ``v: 1`` envelope."""
    fields = draw(st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=5))
    if draw(st.booleans()):
        fields["v"] = 1
    return json.dumps(fields).encode()


valid_bodies = st.sampled_from(
    [
        b'{"v": 1, "query": "answer(e, m) :- Reports(e, m)"}',
        b'{"v": 1, "delta": {"add": [], "remove": []}}',
        b'{"v": 1, "shards": 2, "incremental": true}',
        b'{"v": 1, "events": []}',
        b"{}",
        b"",
    ]
)

bodies = st.one_of(
    valid_bodies,
    envelope_bodies(),
    st.binary(max_size=64),
    valid_bodies.map(lambda body: body[: len(body) // 2]),
)

methods = st.one_of(
    st.sampled_from([b"GET", b"POST", b"DELETE", b"PUT", b"get", b""]),
    st.binary(min_size=1, max_size=8),
)

_SESSION_PATHS = [
    f"/sessions/{SESSION}{rest}".encode()
    for rest in ("", "/target", "/source", "/delta", "/events", "/query", "/abstract")
]

paths = st.one_of(
    st.sampled_from([b"/healthz", b"/stats", b"/sessions", b"/sessions/ghost/delta", *_SESSION_PATHS]),
    st.sampled_from(_SESSION_PATHS).map(lambda path: path + b"?snapshot=1&x"),
    st.binary(max_size=24),
)


@st.composite
def headers(draw, body: bytes) -> bytes:
    length = draw(
        st.one_of(
            st.just(str(len(body)).encode()),
            st.integers(min_value=0, max_value=len(body) + 8).map(lambda n: str(n).encode()),
            st.sampled_from([b"-1", b"+3", b"abc", b"", b"99999999999999999999", b"1e3", b" 2"]),
        )
    )
    lines = [b"Host: x"]
    if draw(st.booleans()) or not body:
        lines.append(b"Content-Length: " + length)
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from([b"Connection: close", b"Connection: keep-alive"])))
    lines.extend(draw(st.lists(st.binary(max_size=20).filter(lambda b: b"\n" not in b), max_size=3)))
    return b"".join(line + b"\r\n" for line in lines)


@st.composite
def mutated_requests(draw) -> bytes:
    body = draw(bodies)
    return _request(draw(methods), draw(paths), body, draw(headers(body)))


# -- the suite ------------------------------------------------------------------


class TestFrontDoorFuzz:
    @FUZZ_SETTINGS
    @given(data=st.binary(max_size=256))
    def test_random_bytes(self, server, data):
        _check(server, data)

    @FUZZ_SETTINGS
    @given(data=mutated_requests())
    # A body that is not UTF-8 once escaped the JSON error mapping.
    @example(data=_request(b"POST", b"/sessions", b"\x83\xcf{}"))
    def test_mutated_requests(self, server, data):
        _check(server, data)

    @FUZZ_SETTINGS
    @given(body=envelope_bodies(), path=st.sampled_from([b"/sessions", *_SESSION_PATHS[3:]]))
    def test_well_framed_posts_with_random_fields(self, server, body, path):
        _check(server, _request(b"POST", path, body))
