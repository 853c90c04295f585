"""Host seconds corrected for the machine's speed while they were spent.

On a shared VM a vCPU's speed changes by up to ~1.8x from one second to
the next, with CPU time still equal to wall time: other load on the host
slows it down, not the guest's scheduler.  An op that takes 1.4 s in a
quiet second takes 2.4 s in a busy one, so wall seconds alone measure
the neighbours more than the program.

:class:`SpeedSampler` measures the speed as the work runs.  Every
:data:`INTERVAL_S` of wall time, ``SIGALRM`` runs a fixed probe on the
main thread, i.e. on the vCPU doing the work at that moment, and records
how long the probe took.  A timed interval's *normalised* seconds are
its wall seconds less the probes' own time, scaled by the mean over its
probes of ``PROBE_REF_S / probe``: the seconds the work would take on a
machine where the probe takes :data:`PROBE_REF_S`.

The probe is what the simulator's hot loops are made of: many NumPy
calls on arrays of a few dozen elements, gathered from a table larger
than L1, so their cost is mostly interpreter and call overhead.  It
is not the program's code, so a faster program does not make it faster.
``hostbench/README.md`` says how it was chosen and how well it tracks.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Wall seconds between two probes.
INTERVAL_S = 0.01
#: The reference probe time: a typical fastest probe of a run on the
#: 2-vCPU Xeon VM (2.1 GHz, KVM) this benchmark was written on.
PROBE_REF_S = 120e-6

_TABLE = np.arange(1 << 16, dtype=np.int64)            # 512 KiB
_ROWS = np.random.default_rng(0).integers(0, 1 << 16, (64, 32))


def _probe() -> int:
    acc = 0
    for row in _ROWS:
        acc += int(_TABLE[row].sum())
    return acc


class SpeedSampler:
    """Probe durations taken every :data:`INTERVAL_S` while started.

    Time an interval as ``k0 = s.mark()``, the work, ``k1 = s.mark()``:
    the probes ``k0:k1`` ran inside it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe()
        self.probes.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> int:
        return len(self.probes)

    def normalised(self, wall: float, k0: int, k1: int) -> float:
        """Seconds at the reference speed of an interval of ``wall``
        seconds that holds probes ``k0:k1`` (its wall seconds if it
        holds none)."""
        probes = self.probes[k0:k1]
        if not probes:
            return wall
        busy = wall - sum(probes)
        return busy * statistics.fmean(PROBE_REF_S / p for p in probes)
