"""Small numeric helpers shared by the parent and the timed children.

Imports nothing from the program, so the parent stays light.
"""

from __future__ import annotations

import resource
import statistics
from time import perf_counter


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (both the one value when there is only one)."""
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, third = quartiles(values)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def peak_rss_mb() -> float:
    """Max RSS over this process and the children it has waited for (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: What :func:`calibration_s` reads on the baseline host when it is quiet.
REFERENCE_CALIBRATION_S = 0.144


def calibration_s() -> float:
    """A fixed pure-python loop: how fast this host runs the interpreter now.

    Float arithmetic, because it allocates from the interpreter's free list
    only: the same loop over growing integers read 8 % apart from one call
    to the next on a quiet host, this one 2 %.
    """
    started = perf_counter()
    x = 0.5
    for _ in range(4_000_000):
        x = x * 0.999 + 0.25
    return perf_counter() - started


def calibrate() -> list[float]:
    """Two readings of the calibration loop: one side of a run's bracket."""
    return [calibration_s(), calibration_s()]


def host_speed(calibrations: list[float]) -> float:
    """Host speed around a run, as a share of the reference host's.

    The sandbox's CPU speed wanders by tens of percent in plateaus of a few
    seconds (see README, "Host noise"), so every timed run is bracketed by
    calibration readings and its wall-clock numbers are read at the
    reference speed: ``wall * host_speed``.
    """
    return REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)
