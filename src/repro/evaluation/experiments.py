"""Experiment harness: systems and matchers by paper name, and the cell spec.

A :class:`ExperimentConfig` pins everything that defines one paper
experiment cell (dataset, increments, input rate, matcher, algorithms,
virtual budget); :meth:`repro.api.ERSession.from_config` turns it into a
session whose ``compare()`` returns one ``RunResult`` per algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import EngineOptions

from repro.blocking.substrate import BlockingConfig
from repro.core.dataset import Dataset, ERKind
from repro.datasets.registry import load_dataset
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher, Matcher
from repro.pier.base import PierSystem
from repro.pier.heuristic import make_chosen_strategy
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.progressive.batch import BatchERSystem
from repro.progressive.pbs import PBSSystem
from repro.progressive.pps import PPSSystem
from repro.progressive.psn import GSPSNSystem, LSPSNSystem
from repro.streaming.system import ERSystem

__all__ = ["SYSTEM_NAMES", "BATCH_SYSTEMS", "ExperimentConfig"]

# Systems that require the full dataset upfront (single-increment plans in
# static experiments); all others consume the increment stream as-is.
BATCH_SYSTEMS = frozenset({"PPS", "PBS", "BATCH", "LS-PSN", "GS-PSN"})

SYSTEM_NAMES = (
    "I-PES",
    "I-PCS",
    "I-PBS",
    "I-AUTO",
    "I-BASE",
    "PPS",
    "PBS",
    "LS-PSN",
    "GS-PSN",
    "PPS-GLOBAL",
    "PPS-LOCAL",
    "PBS-GLOBAL",
    "BATCH",
)


def _build_matcher(name: str) -> Matcher:
    """JS (cheap) or ED (expensive) matcher with experiment thresholds."""
    if name.upper() == "JS":
        return JaccardMatcher(threshold=0.35)
    if name.upper() == "ED":
        return EditDistanceMatcher(threshold=0.7)
    raise ValueError(f"unknown matcher {name!r}; use 'JS' or 'ED'")


def _build_system(
    name: str,
    dataset: Dataset,
    *,
    blocking: "BlockingConfig | None" = None,
    **overrides,
) -> ERSystem:
    """Instantiate an ER system by its paper name for a given dataset.

    ``blocking`` selects the candidate-generation substrate
    (token / lsh) for every system; ``None`` keeps the
    paper's token blocking.  For the PIER strategies it lands on the host
    :class:`PierSystem` (the strategy objects never see the substrate —
    they read it through the protocol).
    """
    clean_clean = dataset.kind is ERKind.CLEAN_CLEAN
    key = name.upper()
    if key == "I-PES":
        return PierSystem(IPES(**overrides), clean_clean=clean_clean, blocking=blocking)
    if key == "I-PCS":
        return PierSystem(IPCS(**overrides), clean_clean=clean_clean, blocking=blocking)
    if key == "I-PBS":
        return PierSystem(IPBS(**overrides), clean_clean=clean_clean, blocking=blocking)
    if key == "I-AUTO":
        # The future-work heuristic: inspect a data sample, pick a strategy.
        sample = dataset.profiles[: min(len(dataset.profiles), 256)]
        system = PierSystem(
            make_chosen_strategy(sample, **overrides),
            clean_clean=clean_clean,
            blocking=blocking,
        )
        system.name = f"I-AUTO[{system.strategy.name}]"
        return system
    if key == "I-BASE":
        return IBaseSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    if key in ("PPS", "PPS-GLOBAL"):
        system = PPSSystem(
            clean_clean=clean_clean, scope="all", blocking=blocking, **overrides
        )
        system.name = key
        return system
    if key == "PPS-LOCAL":
        return PPSSystem(
            clean_clean=clean_clean, scope="last", blocking=blocking, **overrides
        )
    if key in ("PBS", "PBS-GLOBAL"):
        system = PBSSystem(
            clean_clean=clean_clean, scope="all", blocking=blocking, **overrides
        )
        system.name = key
        return system
    if key == "LS-PSN":
        return LSPSNSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    if key == "GS-PSN":
        return GSPSNSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    if key == "BATCH":
        return BatchERSystem(clean_clean=clean_clean, blocking=blocking, **overrides)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One experiment cell: dataset x stream shape x matcher x algorithms.

    ``rate=None`` is the *static* setting (everything available at t=0);
    otherwise increments arrive at ``rate`` ΔD per virtual second.  Batch
    baselines (PPS/PBS/BATCH) always receive the full dataset as one
    increment in the static setting, matching how the paper runs them.
    """

    dataset_name: str
    systems: tuple[str, ...]
    matcher: str = "JS"
    scale: float = 1.0
    n_increments: int = 100
    rate: float | None = None
    budget: float = 300.0
    seed: int = 0
    dataset: Dataset | None = field(default=None, compare=False)
    #: Engine knobs — see :class:`repro.api.EngineOptions` for the full
    #: set: the engine choice (``pipelined``), the fleet (``workers``), and
    #: the blocking-substrate choice (``blocking``, ``lsh_bands``,
    #: ``lsh_rows``, ``lsh_seed`` — the one group that changes *what* is
    #: computed).  ``None`` means all
    #: defaults: serial engine, one worker, token blocking.
    engine: "EngineOptions | None" = None

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def load(self) -> Dataset:
        if self.dataset is not None:
            return self.dataset
        return load_dataset(self.dataset_name, scale=self.scale)
