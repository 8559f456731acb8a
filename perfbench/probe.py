"""Host-speed probe and host-normalized time.

On a shared machine the host's speed drifts by tens of percent within
minutes, and every pure-Python program drifts with it.  The probe is a
fixed piece of work mixing the kinds the workloads do:

- an integer loop (interpreter dispatch),
- a numpy stream over a 1 MiB array (memory bandwidth),
- object churn: dict/list building and sorting (allocator, hashing),
- thread handoffs: a ping-pong with a helper thread through
  ``threading.Event`` (GIL handoff, futex wake-ups and context switches
  — the virtual GPU runtime's kernels synchronize this way, and a large
  share of the ``train`` op is kernel time spent on it).

It runs between ops, while the program is idle.  One reading is the
median of :data:`_REPEATS` sub-probes, so one sub-probe hit by an
interrupt does not move it; the garbage collector is paused meanwhile.

An op's *host-normalized* time is its raw time scaled by
``REFERENCE_PROBE_S / mean(probe before, probe after)``: what the op
would have taken on a host running the probe in the reference time.

The probe also guards against being gamed: if any thread of the program
burns CPU while the probe runs, the probe is slowed by work that is not
the host's, which would flatter the op.  ``foreign_cpu_share`` is the
process CPU time minus the CPU time of the probe's own two threads, as a
share of the probe's wall time; the harness fails an op whose bracketing
probes read above :data:`FOREIGN_CPU_LIMIT`.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Typical probe reading between ops on the machine the benchmark was
#: defined on (2-core Intel Xeon VM, Python 3.11, numpy 2.4).  A
#: constant: it only fixes the unit, so it must never be re-measured
#: once baselines exist.
REFERENCE_PROBE_S = 0.0015

#: Foreign CPU share above which a probe is considered contaminated.
FOREIGN_CPU_LIMIT = 0.05

# Sizes give each kind of work a similar share (~0.3 ms each on the
# reference machine), so no single kind dominates the reading.
_REPEATS = 5
_INT_ITERS = 2_500
_STREAM_ELEMS = 1 << 17  # 1 MiB of float64
_STREAM_PASSES = 2
_CHURN_ITEMS = 500
_HANDOFFS = 15


@dataclass(frozen=True)
class ProbeReading:
    """One probe: median sub-probe seconds, and the foreign CPU share
    over the whole probe."""

    seconds: float
    foreign_cpu_share: float


class Probe:
    """The fixed host-speed probe.

    Owns its numpy buffers and a helper thread (blocked between probes);
    :meth:`close` stops the helper.
    """

    def __init__(self) -> None:
        self._a = np.linspace(0.0, 1.0, _STREAM_ELEMS)
        self._b = np.empty_like(self._a)
        self._ping = threading.Event()
        self._pong = threading.Event()
        self._stop = False
        self._helper_cpu = 0.0
        self._helper = threading.Thread(
            target=self._serve, name="perfbench-probe", daemon=True
        )
        self._helper.start()

    def _serve(self) -> None:
        while True:
            self._ping.wait()
            self._ping.clear()
            self._helper_cpu = time.thread_time()
            self._pong.set()
            if self._stop:
                return

    def _handoff(self) -> None:
        self._ping.set()
        self._pong.wait()
        self._pong.clear()

    def close(self) -> None:
        self._stop = True
        self._handoff()
        self._helper.join(timeout=5)

    def _work(self) -> int:
        x = 0
        for i in range(_INT_ITERS):
            x = (x * 1103515245 + i) & 0x7FFFFFFF
        a, b = self._a, self._b
        for _ in range(_STREAM_PASSES):
            np.multiply(a, 1.0000001, out=b)
            np.add(b, a, out=b)
        table: dict[int, list] = {}
        for i in range(_CHURN_ITEMS):
            table[(i * 7919) % 4099] = [i, i & 7]
        ordered = sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))
        for _ in range(_HANDOFFS):
            self._handoff()
        return x + len(ordered) + int(b[-1])

    def read(self) -> ProbeReading:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._handoff()
            helper0 = self._helper_cpu
            proc0 = time.process_time()
            thread0 = time.thread_time()
            wall0 = time.perf_counter()
            laps = []
            for _ in range(_REPEATS):
                lap0 = time.perf_counter()
                self._work()
                laps.append(time.perf_counter() - lap0)
            wall = time.perf_counter() - wall0
            thread1 = time.thread_time()
            proc1 = time.process_time()
            self._handoff()
            helper1 = self._helper_cpu
        finally:
            if gc_was_enabled:
                gc.enable()
        own = (thread1 - thread0) + (helper1 - helper0)
        foreign = max(0.0, (proc1 - proc0) - own)
        return ProbeReading(
            seconds=statistics.median(laps), foreign_cpu_share=foreign / wall
        )


def normalization(before: ProbeReading, after: ProbeReading) -> float:
    """Factor turning raw seconds between two probes into normalized."""
    return REFERENCE_PROBE_S / (0.5 * (before.seconds + after.seconds))
