"""Host-speed correction for the benchmark's timings.

On a shared host the same fixed Python work can take up to 2x longer at
one time than at another, in spells that last from a second to minutes.
A run of 40 s can fall wholly into one such spell, so timings compared
between runs would mostly compare the host's states.

Every timing the benchmark reports is therefore scaled by the host's speed
measured right around it: a fixed kernel (the reference oracle deciding a
few formulas over a fresh set of worlds, no engine code) runs before and
after the timed interval, in the same process, and the interval is
multiplied by ``KERNEL_NOMINAL_S`` divided by the mean of the two kernel
times. A reported time thus reads as it would at the speed the kernel had
when ``KERNEL_NOMINAL_S`` was measured; a faster engine still reads
faster, because the kernel does not depend on the engine. The kernel must
run on the CPU the timed work runs on, so ``run.py`` binds itself and its
subprocesses to one CPU.
"""

from __future__ import annotations

import gc
from time import perf_counter

from reforacle import Reference

# About the median kernel time on a 2-vCPU Intel Xeon virtual machine, Python 3.11.7.
KERNEL_NOMINAL_S = 0.005
_WARMUP = 3
_FORMS = ("(some p (and-conc q (not r)))", "(most p q)", "(all p (not r))",
          "(only (some p q))", "(or (some p q) (all p r))", "(and (most p r) (no p q))",
          "(qi p (and-conc q r))", "(not (all p q))")


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now.

    The garbage collector is off meanwhile: a collection would scan the
    engine's heap, and the kernel must not depend on the engine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        ref = Reference(("p", "q", "r"), 4, [("some", "most", "all")])
        for form in _FORMS:
            ref.truth(form)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Scales consecutive intervals by the kernel times around each.

    Call ``restart`` just before an interval (the constructor does) and
    ``scale`` just after it; the kernel that ends one interval also starts
    the next. ``log`` keeps every interval as (seconds, kernel before,
    kernel after), so a run's raw timings stay on record.
    """

    def __init__(self):
        for _ in range(_WARMUP):
            kernel_s()
        self.log: list[tuple[float, float, float]] = []
        self.restart()

    def restart(self):
        """Start the next interval here instead of at the last ``scale``."""
        self.before = kernel_s()

    def scale(self, pieces: list[float]) -> list[float]:
        """The pieces of the interval just ended, at nominal host speed."""
        after = kernel_s()
        self.log.append((sum(pieces), self.before, after))
        factor = KERNEL_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return [piece * factor for piece in pieces]
