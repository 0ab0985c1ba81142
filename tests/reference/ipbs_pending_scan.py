"""I-PBS as it was before the member cursor: ``pending × all members``.

The profile index ``PI`` is a set of pending pids per block, filled at
ingestion.  Opening a block walks every pending profile against every
member, so two pending profiles meet twice — ``(x, y)`` and again as
``(y, x)`` — and the second meeting is left to the already-generated test
to drop (exact membership in ``queued ∪ executed``, as in production).
Weights come from one ``scheme.weight`` call per surviving pair.

Everything but the scan is the production :class:`~repro.pier.ipbs.IPBS`,
which must add the same runs in the same places and leave the same
``queued`` set and cardinality index behind; it may only ask less often.
:attr:`PendingScanIPBS.probes` counts the pairs this scan built, mirrors
included.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.comparison import canonical_pair
from repro.core.profile import EntityProfile
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS


class PendingScanIPBS(IPBS):
    """Block-centric prioritization with a pending-set scan per block."""

    def __init__(self, scheme: WeightingScheme | None = None) -> None:
        super().__init__(scheme)
        self.profile_index: dict[str, set[int]] = {}
        self.probes = 0

    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        profiles = list(profiles)
        collection = system.collection
        for profile in profiles:
            for key in collection.blocks_of(profile.pid):
                if collection.get(key) is not None:
                    self.profile_index.setdefault(key, set()).add(profile.pid)
        return super().ingest_profiles(system, profiles)

    def _process_block(self, system: PierSystem, key: str, block, front: bool) -> float:
        costs = system.costs
        collection = system.collection
        metrics = system.metrics
        pending = self.profile_index.get(key, set())
        cost = costs.per_block_open
        metrics.count("strategy.blocks_processed")
        redundant = 0
        survivors: list[tuple[int, int]] = []
        for pid_x in sorted(pending):
            profile_x = system.profiles[pid_x]
            if collection.clean_clean:
                partners = block.members(1 - profile_x.source)
            else:
                partners = [pid for pid in block if pid != pid_x]
            for pid_y in partners:
                self.probes += 1
                pair = canonical_pair(pid_x, pid_y)
                if pair in self.queued or system.store.was_executed(*pair):
                    redundant += 1
                    continue
                self.queued.add(pair)  # its mirror comes later in this scan
                survivors.append(pair)
        if redundant:
            metrics.count("strategy.redundant_pairs", redundant)
        weighted = []
        for pair in survivors:
            weighted.append((-self.scheme.weight(collection, *pair), len(weighted), pair))
            cost += costs.per_weight + costs.per_enqueue
        self._reset_block(key, block)
        if not survivors:
            return cost
        run = (len(block), tuple(pair for _, _, pair in sorted(weighted)))
        if front:
            self.runs.appendleft(run)
        else:
            self.runs.append(run)
        metrics.count("strategy.comparisons_enqueued", len(survivors))
        return cost

    def _reset_block(self, key: str, block) -> None:
        super()._reset_block(key, block)
        self.profile_index.pop(key, None)

    def snapshot_state(self) -> dict[str, object]:
        return {
            **super().snapshot_state(),
            "profile_index": {key: set(pids) for key, pids in self.profile_index.items()},
            "probes": self.probes,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        super().restore_state(state)
        self.profile_index = {key: set(pids) for key, pids in state["profile_index"].items()}
        self.probes = state["probes"]
