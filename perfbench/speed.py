"""Machine-speed normalization of the end-to-end times.

On a shared machine the CPU speed itself drifts — by 40 % between
ten-second windows at times — and every operation of the program
slows down with it.  A per-run median inherits that drift, so two runs
of the same code can differ by more than any useful regression bound.

The benchmark therefore runs :func:`reference_loop`, a fixed piece of
pure-Python work with the program's kind of instruction mix (tuple
hashing, dict lookups and stores, a sort, and lookups in a table
larger than the per-core caches), between measured cycles and before
every set-up.  A cycle's times are scaled by
``REFERENCE_MS / t_ref``, where ``t_ref`` is the median time of the
reference runs around the cycle (before a set-up, for a set-up time):
the gated times are milliseconds on a machine on which the reference
loop takes :data:`REFERENCE_MS`.  The speed switches between levels
that last seconds, so a local median follows it where one median over
the run would scale a slow spell's tail by the run's typical speed.  The
reference loop never calls the program, so a change to the program
moves the scaled times exactly as it moves the raw ones; the raw times
go to the result file next to them.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The reference loop's time on the nominal machine the gated times
#: are scaled to, in ms.
REFERENCE_MS = 8.0
#: Reference runs on each side of a cycle's own two that give its scale.
WINDOW = 8
#: The reference loop's fixed data, built once: the loop itself then
#: allocates almost nothing, so the program's heap (its size and how
#: fragmented the allocator's free lists are) cannot change its time.
_KEYS = [(i % 97, i % 13, "k") for i in range(4000)]
_BUCKETS = {key: 0 for key in _KEYS}
_ROUNDS = 3
#: A table of about 10 MB, probed in a fixed random order: the part of
#: the work that waits on memory.  With only the part above, a slow
#: spell slowed the program about twice as much as the loop.
_TABLE = {(i, str(i)): i & 255 for i in range(1 << 16)}
_PROBES = random.Random(0).sample(list(_TABLE), 12000)


def reference_loop() -> float:
    """Run the fixed reference work once; its wall time in ms.

    Tuple hashing, dict lookups and stores, comparisons, a sort and
    table probes over fixed data, with the collector off: the work
    makes no garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        buckets = _BUCKETS
        for _ in range(_ROUNDS):
            for key in _KEYS:
                buckets[key] = (buckets[key] + key[1]) & 127
                if key in buckets and key[0] > key[1]:
                    buckets[key] ^= 1
        sorted(_KEYS)
        table = _TABLE
        total = 0
        for key in _PROBES:
            total += table[key]
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


def reference_scale(samples: int = 5) -> float:
    """The scale factor from *samples* back-to-back reference runs."""
    return REFERENCE_MS / statistics.median(reference_loop() for _ in range(samples))


def cycle_scales(reference_ms: list[float], window: int = WINDOW) -> list[float]:
    """Per cycle, the scale from the reference runs around it.

    ``reference_ms[i]`` and ``reference_ms[i + 1]`` bracket cycle *i*;
    its scale uses those and *window* more on each side.
    """
    return [
        REFERENCE_MS / statistics.median(reference_ms[max(0, i - window) : i + 2 + window])
        for i in range(len(reference_ms) - 1)
    ]
