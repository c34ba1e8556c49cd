"""Request/response vocabulary of the chase service.

The wire format is the JSON codec of :mod:`repro.serialize.jsonio` —
facts, instances and settings travel exactly as they do in the CLI's
files — wrapped in **one versioned request envelope**.  A POST body is
either::

    {"v": 1, ...fields...}

or, for backward compatibility, the bare ``{...fields...}`` object PR 9
clients send (treated as the legacy pre-envelope dialect).  Unknown
versions are a 400; :func:`unwrap_envelope` is the single place that
rule lives.  This module holds the pieces both sides of the wire share:
payload validation that turns malformed requests into
:class:`ProtocolError` (an HTTP 4xx, never a 5xx), fact-list decoding,
source-delta decoding onto :class:`repro.deltas.SourceDelta`, and the
target-diff encoding every delta response uses.

A target **diff** travels as the :class:`~repro.deltas.SourceDelta`
codec (``{"add": [...], "remove": [...]}``, facts in canonical
:meth:`ConcreteFact.sort_key` order) on versioned requests; legacy
requests still receive the pre-envelope ``{"added": [...],
"removed": [...]}`` shape from :func:`diff_to_json`.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

from repro.concrete.concrete_fact import ConcreteFact
from repro.deltas import SourceDelta
from repro.errors import DeltaError
from repro.serialize.jsonio import concrete_fact_from_json, concrete_fact_to_json

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SESSION_NAME_PATTERN",
    "check_session_name",
    "delta_from_payload",
    "diff_to_json",
    "facts_from_json",
    "require_bool",
    "require_list",
    "require_positive_int",
    "require_str",
    "unwrap_envelope",
]

#: The one request-envelope version this server speaks.
PROTOCOL_VERSION = 1

#: Session names are path components (URLs, snapshot file names) and are
#: validated on both sides of the wire.
SESSION_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ProtocolError(Exception):
    """A malformed or unsatisfiable request; maps to an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def check_session_name(name: object) -> str:
    if not isinstance(name, str) or not SESSION_NAME_PATTERN.match(name):
        raise ProtocolError(
            "session name must be 1-64 characters of [A-Za-z0-9._-] "
            "starting with an alphanumeric, got "
            f"{name!r}"
        )
    return name


def require_str(payload: dict, key: str, default: str | None = None) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"request field {key!r} must be a non-empty string")
    return value


def require_bool(payload: dict, key: str, default: bool) -> bool:
    """A JSON boolean field; strings such as ``"false"`` are refused."""
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"request field {key!r} must be a boolean, got {value!r}")
    return value


def require_positive_int(payload: dict, key: str, default: int) -> int:
    """A JSON integer field ≥ 1; booleans and floats are refused."""
    value = payload.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ProtocolError(
            f"request field {key!r} must be an integer >= 1, got {value!r}"
        )
    return value


def require_list(payload: dict, key: str, default: "list | None" = None) -> list:
    if key not in payload:
        if default is not None:
            return default
        raise ProtocolError(f"request field {key!r} is required")
    value = payload[key]
    if not isinstance(value, list):
        raise ProtocolError(f"request field {key!r} must be a list")
    return value


def unwrap_envelope(payload: dict) -> tuple[int | None, dict]:
    """Split a request body into ``(version, fields)``.

    A body carrying ``"v"`` must carry :data:`PROTOCOL_VERSION`; any
    other value — including non-integers — is a 400, so a future client
    never has a v2 request misread as v1.  A body without ``"v"`` is
    the legacy pre-envelope dialect: version ``None``, fields as-is.
    """
    if "v" not in payload:
        return None, payload
    version = payload["v"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"envelope field 'v' must be an integer, got {version!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    fields = {key: value for key, value in payload.items() if key != "v"}
    return version, fields


def delta_from_payload(version: int | None, payload: dict) -> SourceDelta:
    """Decode a delta request body into a :class:`SourceDelta`.

    Versioned bodies carry the canonical codec under ``"delta"``;
    legacy bodies carry bare top-level ``add``/``remove`` fact lists.
    Either way a malformed delta (bad fact, duplicate, fact on both
    sides) is a 400 via :class:`ProtocolError`.
    """
    try:
        if version is not None:
            if "delta" not in payload:
                raise ProtocolError(
                    "a versioned delta request carries the delta under "
                    "the 'delta' field"
                )
            unknown = set(payload) - {"delta"}
            if unknown:
                raise ProtocolError(
                    f"unknown delta request field(s) {sorted(unknown)!r}"
                )
            return SourceDelta.from_json(payload["delta"])
        return SourceDelta(
            add=tuple(facts_from_json(require_list(payload, "add", []), "add")),
            remove=tuple(
                facts_from_json(require_list(payload, "remove", []), "remove")
            ),
        )
    except DeltaError as exc:
        raise ProtocolError(str(exc)) from exc


def facts_from_json(items: Sequence[Any], what: str) -> list[ConcreteFact]:
    """Decode a fact list, reporting the offending index on failure."""
    facts = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ProtocolError(f"{what}[{index}] must be a fact object")
        try:
            facts.append(concrete_fact_from_json(item))
        except Exception as exc:  # parse errors come in several types
            raise ProtocolError(f"{what}[{index}] is not a valid fact: {exc}") from exc
    return facts


def diff_to_json(
    added: Iterable[ConcreteFact], removed: Iterable[ConcreteFact]
) -> dict[str, Any]:
    return {
        "added": [concrete_fact_to_json(item) for item in added],
        "removed": [concrete_fact_to_json(item) for item in removed],
    }
