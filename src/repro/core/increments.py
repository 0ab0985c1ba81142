"""Splitting datasets into data increments and describing streams.

The paper evaluates PIER over sequences of equi-sized increments arriving at
a fixed rate (e.g. 30000 increments at 32 ΔD/s).  This module produces those
increment sequences deterministically and bundles them with arrival times
into a :class:`StreamPlan` consumed by the streaming engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.dataset import Dataset
from repro.core.profile import EntityProfile

__all__ = [
    "Increment",
    "StreamPlan",
    "split_into_increments",
    "make_stream_plan",
    "make_poisson_stream_plan",
    "make_bursty_stream_plan",
]


@dataclass(frozen=True, slots=True)
class Increment:
    """A data increment ΔD_i: the profiles that become available together."""

    index: int
    profiles: tuple[EntityProfile, ...]

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self) -> Iterator[EntityProfile]:
        return iter(self.profiles)

    @property
    def is_empty(self) -> bool:
        return not self.profiles


def split_into_increments(
    dataset: Dataset,
    n_increments: int,
    seed: int = 0,
    shuffle: bool = True,
) -> list[Increment]:
    """Split a dataset into ``n_increments`` (nearly) equi-sized increments.

    For Clean-Clean datasets the two source collections are interleaved so
    that matches span increments — the situation PIER's *globality* property
    is designed for.  The split is deterministic for a given seed.
    """
    if n_increments < 1:
        raise ValueError("n_increments must be >= 1")
    profiles = list(dataset.profiles)
    if shuffle:
        rng = random.Random(seed)
        rng.shuffle(profiles)
    n_increments = min(n_increments, max(1, len(profiles)))
    base, extra = divmod(len(profiles), n_increments)
    increments: list[Increment] = []
    cursor = 0
    for index in range(n_increments):
        size = base + (1 if index < extra else 0)
        chunk = tuple(profiles[cursor : cursor + size])
        cursor += size
        increments.append(Increment(index=index, profiles=chunk))
    return increments


@dataclass(frozen=True, slots=True)
class StreamPlan:
    """A sequence of increments together with their arrival times.

    ``arrival_times[i]`` is the (virtual) time at which ``increments[i]``
    becomes available to the pipeline.  ``rate`` is retained for reporting.

    Plans are validated at construction: arrival times must be finite,
    non-negative and non-decreasing (the engines' ``bisect``-based backlog
    computation silently corrupts otherwise), and increment ids must be
    unique — unless ``allow_redelivery`` is set, which plans use to model
    at-least-once delivery (the engines deduplicate by id).
    """

    increments: tuple[Increment, ...]
    arrival_times: tuple[float, ...]
    rate: float | None = None
    allow_redelivery: bool = False

    def __post_init__(self) -> None:
        if len(self.increments) != len(self.arrival_times):
            raise ValueError("increments and arrival_times must align")
        previous = 0.0
        for time in self.arrival_times:
            if not math.isfinite(time):
                raise ValueError(f"arrival times must be finite, got {time}")
            if time < 0.0:
                raise ValueError(f"arrival times must be non-negative, got {time}")
            if time < previous:
                raise ValueError("arrival times must be non-decreasing")
            previous = time
        if not self.allow_redelivery:
            ids = [increment.index for increment in self.increments]
            if len(set(ids)) != len(ids):
                raise ValueError(
                    "increment ids must be unique (pass allow_redelivery=True "
                    "for at-least-once delivery plans)"
                )

    def __len__(self) -> int:
        return len(self.increments)

    def __iter__(self) -> Iterator[tuple[float, Increment]]:
        return iter(zip(self.arrival_times, self.increments))

    @property
    def total_profiles(self) -> int:
        return sum(len(increment) for increment in self.increments)

    @property
    def last_arrival(self) -> float:
        return self.arrival_times[-1] if self.arrival_times else 0.0


def make_stream_plan(
    increments: Sequence[Increment],
    rate: float | None = None,
    start_time: float = 0.0,
) -> StreamPlan:
    """Attach arrival times to increments.

    ``rate`` is the increment input rate in ΔD per virtual second; ``None``
    means a *static* setting where every increment is available at
    ``start_time`` (the batch/progressive experiments of the paper).
    """
    if rate is not None and rate <= 0:
        raise ValueError("rate must be positive (or None for static data)")
    if rate is None:
        times = tuple(start_time for _ in increments)
    else:
        interval = 1.0 / rate
        times = tuple(start_time + i * interval for i in range(len(increments)))
    return StreamPlan(increments=tuple(increments), arrival_times=times, rate=rate)


def make_poisson_stream_plan(
    increments: Sequence[Increment],
    rate: float,
    seed: int = 0,
    start_time: float = 0.0,
) -> StreamPlan:
    """Arrival times from a Poisson process with mean ``rate`` ΔD/s.

    The paper's problem statement allows "a possibly varying rate"; a
    Poisson process is the standard model for irregular arrivals.  The plan
    is deterministic for a given seed.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    times: list[float] = []
    clock = start_time
    for _ in increments:
        times.append(clock)
        clock += rng.expovariate(rate)
    return StreamPlan(increments=tuple(increments), arrival_times=tuple(times), rate=rate)


def make_bursty_stream_plan(
    increments: Sequence[Increment],
    burst_size: int,
    burst_interval: float,
    start_time: float = 0.0,
) -> StreamPlan:
    """Arrivals in bursts: ``burst_size`` increments land simultaneously
    every ``burst_interval`` virtual seconds.

    Models batch-exporting upstream sources (e.g. periodic sensor dumps in
    the paper's construction scenario).
    """
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    if burst_interval <= 0:
        raise ValueError("burst_interval must be positive")
    times = tuple(
        start_time + (index // burst_size) * burst_interval
        for index in range(len(increments))
    )
    return StreamPlan(increments=tuple(increments), arrival_times=times, rate=None)
