"""Host-speed reference for normalising times.

Identical runs on a shared host drift by ±18-25% in raw seconds, and CPU
time drifts with them, so the host itself changes speed. Timing this loop
next to every measured interval and dividing by it removes most of that
drift. The loop does the same kind of work camatch does (tuple keys, dict
and set traffic, small sorts, string splitting); an arithmetic-only loop
tracked parse time poorly. It imports nothing from camatch, keeps no object
alive after it returns and runs with the garbage collector paused, so no
change to camatch can move it.
"""

from __future__ import annotations

import gc
import time

# Nominal duration of one reference loop, in ms. A time t measured next to
# a reference r is reported as t / r * REF_NOMINAL_MS, which reads as the
# time at nominal host speed. Fixed once; changing it rescales every figure.
REF_NOMINAL_MS = 25.0

_ROUNDS = 520
_LINE = "applicant a17 quota=2 prefs: ( c3 c9 ) ( c4 ) ( c11 c2 c7 )"


def _work(rounds: int) -> int:
    acc = 0
    for r in range(rounds):
        table: dict[tuple, int] = {}
        for i in range(40):
            key = ("tie", f"a{i % 23}", i % 5)
            table[key] = table.get(key, 0) + i
        seen = set()
        for (_, a, t), v in sorted(table.items()):
            if (a, t & 1) not in seen:
                seen.add((a, t & 1))
                acc += v
        tokens = _LINE.split()
        groups = frozenset(tok for tok in tokens if tok[0] == "c")
        acc += len(groups) + r
    return acc


def reference_seconds() -> float:
    """Run the reference loop once and return its duration in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(_ROUNDS)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
