"""Load/attach/persist lifecycle for pickled replay state.

Three consumers chain recorded-replay state across runs: ``repro chase
--norm-log`` and ``repro query --query-log`` persist one pickle per
chain between CLI invocations, and the resident server
(:mod:`repro.server`) keeps the same objects warm in memory and
snapshots whole sessions to disk.  Before this module each consumer
hand-rolled the identical load/validate/save dance inline; now they
share one implementation, so the CLI and the server cannot drift — a
ledger file written by one is readable by the other (regression-tested
in ``tests/integration/test_server.py``).

Trust boundary (the ``--norm-log`` warning, generalized): these files
are **pickles** — they hold live fact/conjunction objects, and
unpickling runs code.  Only load state files this software wrote for
you; never one from an untrusted source.  The server applies the same
rule by only loading session snapshots from its own spool directory.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

from repro.concrete import CChaseReplayState
from repro.errors import ReproError
from repro.query import QueryLog

__all__ = [
    "StateError",
    "load_chase_state",
    "load_query_log",
    "save_chase_state",
    "save_query_log",
    "write_pickle_atomically",
]


class StateError(ReproError):
    """A replay-state file could not be read, parsed, or written."""


def _load_pickle(path: str | Path, expected: type, what: str) -> object:
    try:
        with open(path, "rb") as handle:
            state = pickle.load(handle)
    except Exception as exc:  # pickle raises a zoo of types
        raise StateError(f"cannot read {what} from {path}: {exc}") from exc
    if not isinstance(state, expected):
        raise StateError(f"{path} does not contain a {what}")
    return state


def write_pickle_atomically(path: str | Path, state: object) -> None:
    """Pickle *state* to *path* so that a crash mid-write cannot truncate it.

    The pickle is written to a temp file beside *path*, ``fsync``ed, then
    renamed over *path* with :func:`os.replace`.  If anything fails the
    previous file is left intact, the temp file is removed, and the
    error propagates unchanged.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "wb") as handle:
            pickle.dump(state, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _save_pickle(path: str | Path, state: object, what: str) -> None:
    try:
        write_pickle_atomically(path, state)
    except OSError as exc:
        raise StateError(f"cannot write {what} to {path}: {exc}") from exc


def load_chase_state(path: str | Path) -> CChaseReplayState | bool:
    """The previous c-chase replay state at *path*, or ``True`` if absent.

    ``True`` asks :func:`~repro.concrete.c_chase` to record this run's
    state without replaying anything — the first run of a chain.  The
    return value feeds ``c_chase(..., incremental=)`` directly.
    """
    if not Path(path).exists():
        return True
    state = _load_pickle(path, CChaseReplayState, "normalization log")
    return state  # type: ignore[return-value]


def save_chase_state(path: str | Path, state: CChaseReplayState | None) -> None:
    """Persist *state* for the next run; a ``None`` state is a no-op."""
    if state is None:
        return
    _save_pickle(path, state, "normalization log")


def load_query_log(path: str | Path) -> QueryLog:
    """The previous query log at *path*, or a fresh one when absent.

    A fresh log records this run's state without replaying anything —
    the first run of a chain.
    """
    if not Path(path).exists():
        return QueryLog()
    return _load_pickle(path, QueryLog, "query log")  # type: ignore[return-value]


def save_query_log(path: str | Path, log: QueryLog) -> None:
    """Persist *log* for the next run."""
    _save_pickle(path, log, "query log")
