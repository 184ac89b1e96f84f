"""Host-speed reference: fixed work timed between the benchmark's runs.

The shared host this benchmark was built on changes speed by itself, by up
to 2x within minutes and by about 10% within one, and interpreter-bound code
slows nearly in step with it. A raw timing then says more about the host's
state than about the program. So the benchmark runs a fixed reference chunk
(a small event loop over ``heapq``, a dict and numpy scalar draws, the
operations mhlogsim's kernel is made of) between its timed runs, for a fixed
share of the time those runs took, and reports every gated timing at the
nominal host speed:

    normalised time = measured time * NOMINAL_CHUNK_MS / mean chunk ms

Set-up time does not follow the chunk; it follows a fresh interpreter that
imports the program's heavy dependencies. So each set-up probe is paired
with one such import, and set-up is reported as the median probe/import
ratio times NOMINAL_IMPORT_S.

The references are benchmark code, so no change to ``src/`` moves them. The
report still prints every raw timing and the mean chunk time.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

import numpy as np

# Mean chunk time that defines the nominal host: normalised seconds are
# seconds on a host that runs one chunk in this many milliseconds.
NOMINAL_CHUNK_MS = 5.0
# Reference seconds run per timed second.
SHARE = 0.25
CHUNK_STEPS = 2000
CELLS = 16
# os._exit skips interpreter teardown, which the set-up probe skips too.
IMPORT_REF = "import os, numpy, scipy.stats; os._exit(0)"
# Seconds IMPORT_REF takes on the nominal host.
NOMINAL_IMPORT_S = 1.3


def import_ref_s() -> float:
    """Wall seconds of a fresh interpreter running IMPORT_REF."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_REF], capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def _chunk() -> tuple[int, float]:
    """One fixed unit of event-loop work; returns a checksum of it."""
    rng = np.random.default_rng(20090801)
    heap = [(rng.random(), cell) for cell in range(CELLS)]
    heapq.heapify(heap)
    visits: dict[int, int] = {}
    t = 0.0
    for _ in range(CHUNK_STEPS):
        t, cell = heapq.heappop(heap)
        visits[cell] = visits.get(cell, 0) + 1
        nxt = (cell * 7 + visits[cell]) % CELLS
        heapq.heappush(heap, (t - 0.5 * float(np.log(1.0 - rng.random())), nxt))
    return sum(k * v for k, v in visits.items()), t


class HostRef:
    """Runs reference chunks on demand and keeps their total time."""

    def __init__(self):
        self.spent_s = 0.0
        self.chunks = 0
        self._checksum = None  # every chunk must return the first one's

    def follow(self, timed_s: float) -> None:
        """Run chunks for ``SHARE * timed_s`` seconds, at least one."""
        end = time.perf_counter() + SHARE * timed_s
        while True:
            t0 = time.perf_counter()
            result = _chunk()
            self.spent_s += time.perf_counter() - t0
            self.chunks += 1
            if self._checksum is None:
                self._checksum = result
            elif result != self._checksum:
                raise RuntimeError(f"reference chunk returned {result}, not {self._checksum}")
            if time.perf_counter() >= end:
                return

    @property
    def chunk_ms(self) -> float:
        return self.spent_s / self.chunks * 1e3

    @property
    def scale(self) -> float:
        """Factor that turns a time measured here into nominal-host time."""
        return NOMINAL_CHUNK_MS / self.chunk_ms
