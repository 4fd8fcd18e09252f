"""Host speed reference: timings are scaled to a fixed host speed.

On a shared host the CPU time of a fixed piece of work changes with
what the other tenants do: the same 20 pipeline systems took between
1.4 and 2.6 s of CPU time in one process, seconds apart, and the host
switches between a fast and a slow spell every fraction of a second.
So the benchmark times a fixed reference chunk next to the work it
measures, and reports the work's time scaled by ``nominal / reference
time``: the time it would have taken on a host that runs the chunk in
its nominal time.  A program change moves the work's time and not the
chunk's, so it shows in full.

The chunk is stdlib-only ``Fraction`` arithmetic, the kind of work the
pipelines do, and it tracks them closely: pipeline systems are scaled
by the chunks right before and after each one.  Imports and cold CLI
calls track it only over a whole run, so they are scaled by the mean
of all the chunks a run samples (:func:`scaled_by_run`).  The census is
not scaled: neither this chunk nor a numpy one tracked it.

Import this module only after ``moduli_sys``, so that a timed
``import moduli_sys`` still imports ``fractions`` itself.
"""

from __future__ import annotations

from fractions import Fraction
from time import process_time

NOMINAL_S = 1.0e-3  # about the chunk's CPU time in the fast spells of a 2-core Xeon host


def chunk() -> Fraction:
    x = Fraction(1)
    for i in range(1, 300):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + 1
    return x


def sample() -> float:
    """CPU seconds of one reference chunk, now."""
    start = process_time()
    chunk()
    return process_time() - start


def scaled(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at nominal host speed, from the chunks around the work."""
    return raw_s * NOMINAL_S * 2 / (before_s + after_s)


def scaled_by_run(raw_s: float, samples: list[float]) -> float:
    """``raw_s`` at nominal host speed, from chunks spread over the run."""
    return raw_s * NOMINAL_S * len(samples) / sum(samples)

