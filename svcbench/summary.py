"""Statistics rules shared by the runner and its tests."""

from __future__ import annotations

import math
import statistics
import time

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  The value is the
    nearest-rank percentile.  With fewer than 21 samples no percentile
    qualifies and the median is returned, with ``percentile`` 50.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_LADDER:
        rank = max(1, math.ceil(percentile * count / 100.0 - 1e-9))
        beyond = count - rank
        if beyond >= TAIL_MIN_BEYOND:
            if percentile == 50.0:
                return statistics.median(ordered), percentile, beyond
            return ordered[rank - 1], percentile, beyond
    return statistics.median(ordered), 50.0, count // 2


#: Steps of the speed-probe kernel: well under a millisecond per probe.
SPEED_PROBE_STEPS = 2000

#: Seconds one speed probe takes on the reference machine.  A scaled
#: time reads as if every probe taken while it was measured had taken
#: this long.
REFERENCE_PROBE_S = 0.001

#: How the service's CPU work follows the probe's speed: it goes as that
#: speed to this power.  Measured on a 2-core VM: in each of four
#: ``ogis-closed`` sets of five or ten runs, log raw ``jobs_per_s`` against
#: log probe speed had a slope of 1.36-1.51 (correlation 0.97-0.998); the
#: solver slows more than the small probe kernel when the host is busy.
#: ``timing-sdk``'s CPU seconds gave a slope near 1.2.
SPEED_SENSITIVITY = 1.4


def probe_kernel(steps: int) -> float:
    """Seconds taken by ``steps`` steps of a fixed pure-Python kernel (integer arithmetic and a dict)."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    value = 1
    for step in range(steps):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        table[value & 0xFFF] = table.get(value & 0xFFF, 0) + step
    return time.perf_counter() - started


def machine_probe() -> float:
    """Median seconds of five runs of the probe kernel at 100 000 steps.

    Timed before and after every run and printed beside the metrics, so
    a change in machine speed can be told apart from a regression.
    """
    return statistics.median(probe_kernel(100_000) for _ in range(5))


def speed_scale(
    probe_seconds: list[float], sensitivity: float = SPEED_SENSITIVITY, reference: float = REFERENCE_PROBE_S
) -> float:
    """The factor that turns a time measured during ``probe_seconds`` into reference-machine time.

    Probes taken at even intervals sample the machine's speed relative
    to the reference, ``reference / probe``.  A workload whose work goes
    as that speed to the power ``sensitivity`` did, over the interval,
    the mean of ``(reference / probe) ** sensitivity`` times the work it
    would have done at the reference speed.  A time multiplied by the
    factor (a rate divided by it) reads as if the machine had run at the
    reference speed throughout.
    """
    if not probe_seconds:
        raise ValueError("no probes")
    return statistics.fmean((reference / seconds) ** sensitivity for seconds in probe_seconds)
