"""Seeded stream perturbation: the arrival faults a real upstream produces.

:func:`apply_faults` perturbs a :class:`~repro.core.increments.StreamPlan`
according to a :class:`FaultSpec` — increments are dropped, redelivered
(duplicated), swapped with their neighbour (reordered), coalesced into
bursts, emptied, and their profiles corrupted — and returns a
:class:`FaultReport` with the perturbed plan and what was done to it.  The
same seed gives the same perturbation on every host.

Redelivered increments keep their original ``Increment.index``: the engines
treat the increment id as an exactly-once sequence number and drop
redeliveries, which is why a perturbed plan is constructed with
``allow_redelivery=True``.  Feeding the plan through ``PushRun.feed``
reaches the same dedup a caller that numbers its own increments does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.increments import Increment, StreamPlan
from repro.core.profile import EntityProfile

__all__ = ["FaultReport", "FaultSpec", "apply_faults"]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Seeded perturbation parameters for one stream plan.

    All rates are probabilities in ``[0, 1]`` drawn independently per
    increment (``corrupt_rate``: per profile) from ``random.Random(seed)``.
    """

    seed: int = 0
    drop_rate: float = 0.0          # increment never delivered
    duplicate_rate: float = 0.0     # increment redelivered later (same id)
    duplicate_delay: float = 1.0    # mean redelivery lag [virtual s]
    reorder_rate: float = 0.0       # adjacent increments swap arrival slots
    coalesce_rate: float = 0.0      # a burst starts here: next increments pile up
    coalesce_span: int = 3          # increments merged into one burst
    corrupt_rate: float = 0.0       # profile scrambled or blanked (pid kept)
    empty_rate: float = 0.0         # increment delivered with no profiles

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate",
                     "coalesce_rate", "corrupt_rate", "empty_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.duplicate_delay < 0:
            raise ValueError("duplicate_delay must be non-negative")
        if self.coalesce_span < 2:
            raise ValueError("coalesce_span must be >= 2")

    @classmethod
    def chaos(cls, seed: int = 0) -> "FaultSpec":
        """The default chaos profile: a bit of everything."""
        return cls(
            seed=seed,
            drop_rate=0.08,
            duplicate_rate=0.12,
            reorder_rate=0.15,
            coalesce_rate=0.1,
            corrupt_rate=0.1,
            empty_rate=0.05,
        )

    @property
    def is_noop(self) -> bool:
        return not any((self.drop_rate, self.duplicate_rate, self.reorder_rate,
                        self.coalesce_rate, self.corrupt_rate, self.empty_rate))


@dataclass(frozen=True, slots=True)
class FaultReport:
    """The perturbed plan plus an account of every injected fault."""

    plan: StreamPlan
    dropped: tuple[int, ...] = ()
    duplicated: tuple[int, ...] = ()
    emptied: tuple[int, ...] = ()
    reordered_swaps: int = 0
    coalesced_bursts: int = 0
    corrupted_profiles: int = 0

    def summary(self) -> str:
        return (
            f"faults: dropped={len(self.dropped)} duplicated={len(self.duplicated)} "
            f"emptied={len(self.emptied)} swaps={self.reordered_swaps} "
            f"bursts={self.coalesced_bursts} corrupted_profiles={self.corrupted_profiles}"
        )


def _corrupt_profile(profile: EntityProfile, rng: random.Random) -> EntityProfile:
    """A corrupted copy of ``profile``: blanked or character-scrambled values."""
    if rng.random() < 0.5 or not profile.attributes:
        return EntityProfile(profile.pid, {}, source=profile.source)
    attributes = []
    for attribute in profile.attributes:
        characters = list(attribute.value)
        rng.shuffle(characters)
        attributes.append((attribute.name, "".join(characters)))
    return EntityProfile(profile.pid, attributes, source=profile.source)


def apply_faults(plan: StreamPlan, spec: FaultSpec) -> FaultReport:
    """Perturb ``plan`` according to ``spec``, deterministically.

    The perturbed plan keeps arrival times non-decreasing: reorders swap the
    *increments* between two adjacent arrival slots (the slot times stay
    put), coalesced bursts move a run of increments to the run's latest
    arrival time, and redeliveries are inserted in timestamp order.
    """
    rng = random.Random(spec.seed)
    dropped: list[int] = []
    duplicated: list[int] = []
    emptied: list[int] = []
    corrupted_profiles = 0

    # Per-increment faults: drop, empty, corrupt, schedule redelivery.
    events: list[tuple[float, int, Increment]] = []   # (time, tiebreak, increment)
    redeliveries: list[tuple[float, int, Increment]] = []
    sequence = 0
    for time, increment in zip(plan.arrival_times, plan.increments):
        if rng.random() < spec.drop_rate:
            dropped.append(increment.index)
            continue
        if rng.random() < spec.empty_rate:
            emptied.append(increment.index)
            increment = Increment(index=increment.index, profiles=())
        elif spec.corrupt_rate > 0.0 and increment.profiles:
            profiles = []
            for profile in increment.profiles:
                if rng.random() < spec.corrupt_rate:
                    profiles.append(_corrupt_profile(profile, rng))
                    corrupted_profiles += 1
                else:
                    profiles.append(profile)
            increment = Increment(index=increment.index, profiles=tuple(profiles))
        if rng.random() < spec.duplicate_rate:
            duplicated.append(increment.index)
            delay = spec.duplicate_delay * (0.5 + rng.random())
            redeliveries.append((time + delay, len(plan) + sequence, increment))
        events.append((time, sequence, increment))
        sequence += 1

    # Reorder: swap the increments of adjacent arrival slots.
    reordered_swaps = 0
    for i in range(len(events) - 1):
        if rng.random() < spec.reorder_rate:
            time_a, seq_a, inc_a = events[i]
            time_b, seq_b, inc_b = events[i + 1]
            events[i] = (time_a, seq_a, inc_b)
            events[i + 1] = (time_b, seq_b, inc_a)
            reordered_swaps += 1

    # Burst-coalesce: a run of increments arrives together at the run's end.
    coalesced_bursts = 0
    i = 0
    while i < len(events):
        if rng.random() < spec.coalesce_rate:
            run = events[i : i + spec.coalesce_span]
            if len(run) > 1:
                burst_time = run[-1][0]
                for offset, (_, seq, increment) in enumerate(run):
                    events[i + offset] = (burst_time, seq, increment)
                coalesced_bursts += 1
            i += spec.coalesce_span
        else:
            i += 1

    events.extend(redeliveries)
    events.sort(key=lambda event: (event[0], event[1]))
    perturbed = StreamPlan(
        increments=tuple(increment for _, _, increment in events),
        arrival_times=tuple(time for time, _, _ in events),
        rate=plan.rate,
        allow_redelivery=True,
    )
    return FaultReport(
        plan=perturbed,
        dropped=tuple(dropped),
        duplicated=tuple(duplicated),
        emptied=tuple(emptied),
        reordered_swaps=reordered_swaps,
        coalesced_bursts=coalesced_bursts,
        corrupted_profiles=corrupted_profiles,
    )
