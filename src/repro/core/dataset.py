"""Datasets and ground truth.

A :class:`Dataset` bundles entity profiles with the ground-truth match set
used for evaluation.  Two ER task kinds are supported, mirroring the paper:

* **Dirty ER** — one collection that contains duplicates; every pair of
  distinct profiles is a potential comparison.
* **Clean-Clean ER** — two duplicate-free collections; only cross-source
  pairs are potential comparisons.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.comparison import canonical_pair
from repro.core.profile import EntityProfile

__all__ = ["ERKind", "GroundTruth", "Dataset"]


class ERKind(enum.Enum):
    """The ER task flavour of a dataset."""

    DIRTY = "dirty"
    CLEAN_CLEAN = "clean-clean"


class GroundTruth:
    """The set of true matches of a dataset, as canonical pid pairs."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()) -> None:
        self._pairs: frozenset[tuple[int, int]] = frozenset(
            canonical_pair(x, y) for x, y in pairs
        )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return canonical_pair(*pair) in self._pairs

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The canonical pairs themselves, for callers that canonicalize
        their probes already."""
        return self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def pair_completeness(self, found: Iterable[tuple[int, int]]) -> float:
        """PC = |found ∩ truth| / |truth| (1.0 for an empty truth set)."""
        if not self._pairs:
            return 1.0
        hits = sum(1 for pair in found if canonical_pair(*pair) in self._pairs)
        return hits / len(self._pairs)


class Dataset:
    """A named collection of profiles plus ground truth.

    Parameters
    ----------
    name:
        Human-readable dataset key (e.g. ``"movies"``).
    profiles:
        All profiles.  For Clean-Clean ER, profiles carry ``source`` 0 or 1.
    ground_truth:
        True matches, used only for evaluation — never by the algorithms.
    kind:
        Dirty or Clean-Clean.
    """

    __slots__ = ("name", "profiles", "ground_truth", "kind", "_by_pid")

    def __init__(
        self,
        name: str,
        profiles: Sequence[EntityProfile],
        ground_truth: GroundTruth,
        kind: ERKind,
    ) -> None:
        self.name = name
        self.profiles: tuple[EntityProfile, ...] = tuple(profiles)
        self.ground_truth = ground_truth
        self.kind = kind
        self._by_pid: dict[int, EntityProfile] = {p.pid: p for p in self.profiles}
        if len(self._by_pid) != len(self.profiles):
            raise ValueError(f"dataset {name!r} contains duplicate profile ids")
        if kind is ERKind.CLEAN_CLEAN:
            sources = {p.source for p in self.profiles}
            if not sources <= {0, 1}:
                raise ValueError(
                    f"clean-clean dataset {name!r} must use sources 0/1, got {sorted(sources)}"
                )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self) -> Iterator[EntityProfile]:
        return iter(self.profiles)

    def __getitem__(self, pid: int) -> EntityProfile:
        return self._by_pid[pid]

    def get(self, pid: int) -> EntityProfile | None:
        return self._by_pid.get(pid)

    def source_sizes(self) -> dict[int, int]:
        """Number of profiles per source collection."""
        sizes: dict[int, int] = {}
        for profile in self.profiles:
            sizes[profile.source] = sizes.get(profile.source, 0) + 1
        return sizes

    # ------------------------------------------------------------------
    # Comparison validity
    # ------------------------------------------------------------------
    def comparison_predicate(self) -> Callable[[EntityProfile, EntityProfile], bool]:
        """Return the predicate deciding whether a pair is a valid candidate.

        Dirty ER admits every pair of distinct profiles; Clean-Clean ER only
        admits cross-source pairs.  All blocking/prioritization components
        consult this predicate so that Clean-Clean never generates
        intra-source comparisons (matching the paper's setup).
        """
        if self.kind is ERKind.DIRTY:
            return lambda px, py: px.pid != py.pid
        return lambda px, py: px.pid != py.pid and px.source != py.source

    def describe(self) -> dict[str, object]:
        """Summary statistics in the style of the paper's Table 1."""
        sizes = self.source_sizes()
        return {
            "name": self.name,
            "kind": self.kind.value,
            "profiles": len(self.profiles),
            "profiles_by_source": sizes,
            "matches": len(self.ground_truth),
        }

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, kind={self.kind.value}, "
            f"profiles={len(self.profiles)}, matches={len(self.ground_truth)})"
        )
