"""``repro serve`` with the benchmark's span probes installed.

Run as ``python perfbench/traced_daemon.py --spans FILE`` with the
checkout's ``src`` and ``perfbench`` directories on ``PYTHONPATH``.  It
starts the daemon exactly as ``python -m repro serve --port 0`` does
(every other flag at its default) and writes the recorded spans to
FILE, one JSON object per line, when the daemon stops (SIGTERM).
"""

from __future__ import annotations

import argparse
import signal

from probes import Probes
from spans import SpanRecorder


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    args = parser.parse_args()

    # serve() shuts down cleanly on KeyboardInterrupt; SIGTERM raises it.
    signal.signal(signal.SIGTERM, _interrupt)
    recorder = SpanRecorder()
    Probes(recorder).install()
    from repro.server import serve

    try:
        serve(port=0)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    main()
