"""Sampling how fast the machine runs while a pass runs.

The benchmark shares its host with other machines' work. On a small shared
VM one vCPU can run 40% slower for a few seconds and then recover, with no
relation to what the other vCPU sees, and process CPU time stretches with
wall time. A probe timed before and after a pass misses this, so the pass
carries its own: ``Sampler`` runs a fixed, roughly 1 ms piece of pure-Python
integer and float arithmetic from an interval timer every ``PERIOD_S``
seconds, in the pass's own process and thread. It calls no cnpchar code and
builds no container, so it touches neither the pass's heap nor its garbage
collector, and a change to the package's memory footprint does not move it.

The benchmark takes the time of a phase less the samples taken in it, and
scales it by ``REFERENCE_S`` over the samples' median time: a phase reads as
the seconds it would take on a machine where one sample takes
``REFERENCE_S``. On the 2-core VM the benchmark was defined on, over five
runs of the sweep workload, this cut the spread of the median pass time
(interquartile range over median) from 17% to 1.3%. A deliberate slowdown
passes through the scaling: a wider window on the wide workload (degree cap
13 for 12) made pass times 1.75 times as long both scaled and unscaled, and
holding 2.7 times the heap on the suite left the scale factor unchanged
within its noise (median ratio over 16 paired passes 1.01).
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.03
# roughly a sample's typical time on the 2-core, 2.1 GHz VM the benchmark was defined on
REFERENCE_S = 0.0008


def _work():
    total, x = 0, 0.5
    for i in range(1, 5000):
        total = (total + i * i) & 0xFFFFFFFF
        x = x * 0.999 + 1.0 / i
    return total, x


class Sampler:
    """Times ``_work`` from a SIGALRM interval timer; keeps (start, seconds) pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def within(samples: list, start: float, end: float) -> list[float]:
    """Durations of the samples that started in [start, end)."""
    return [d for t, d in samples if start <= t < end]


def factor(inside: list[float], fallback: list[float]) -> float:
    """Reference speed over the speed the samples ``inside`` a phase saw.

    Takes the median sample, so one sample that a pause or preemption hit
    does not move a whole phase. Uses ``fallback`` when the phase was too
    short to hold a sample.
    """
    return REFERENCE_S / statistics.median(inside or fallback)
