"""Match functions and their virtual-time cost models.

A :class:`Matcher` classifies a pair of profiles as duplicate / non-duplicate
by thresholding a similarity function (Definition: match function ``M`` in
the paper).  Each matcher also carries a :class:`CostModel` that charges
*virtual seconds* per comparison; the streaming engine uses these charges to
reproduce the throughput regimes of the paper (cheap JS → large adaptive
``K``; expensive ED → small ``K`` and back-pressure) deterministically,
independent of the host machine.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.core.profile import EntityProfile
from repro.matching.similarity import (
    lane_table,
    lane_width,
    levenshtein_lanes,
    normalized_edit_similarity,
)
from repro.observability.metrics import MetricsRegistry

__all__ = [
    "CostModel",
    "Matcher",
    "JaccardMatcher",
    "EditDistanceMatcher",
    "KERNEL_COUNTERS",
]

#: Hot-path outcome counters kept by matchers with staged scoring kernels
#: (plain ints on the matcher — the engine flushes them to the metrics
#: registry as ``matcher.kernel.<name>`` at finalize).  The names double as
#: the fixed key set of :attr:`Matcher.kernel_counts` so the counter schema
#: never varies with the data.  Listed in stage order: every comparison is
#: counted by exactly one of them, the first stage that decides it.
KERNEL_COUNTERS = (
    "short_texts", "prefilter_rejects", "length_cuts", "qgram_cuts", "bag_cuts", "dp_calls",
)


#: A batch of comparisons as the engine emits them, and the read-only
#: pid → profile lookup (``ERSystem.profiles``) they are read through.
PidPairs = Sequence[tuple[int, int]]
Profiles = Mapping[int, EntityProfile]


@dataclass(frozen=True, slots=True)
class CostModel:
    """Virtual cost of evaluating one comparison.

    ``base`` is charged for every comparison; ``per_unit`` is multiplied by a
    matcher-specific size measure (token count for JS, character-product for
    ED).  All values are in virtual seconds.
    """

    base: float
    per_unit: float

    def charge(self, units: float) -> float:
        return self.base + self.per_unit * units


class _PidRecords(dict):
    """pid → ``derive(profile)``, built by the first lookup that misses (a
    hit is one dict lookup, no membership test) from the profile read
    through :attr:`profiles`, which the matcher sets before each batch.  A
    worker stores records it derived itself and never misses."""

    __slots__ = ("derive", "profiles")

    def __init__(self, derive: Callable[[EntityProfile], object]) -> None:
        super().__init__()
        self.derive = derive

    def __missing__(self, pid: int) -> object:
        record = self[pid] = self.derive(self.profiles[pid])
        return record


class _BitMasks(dict):
    """element → its one-bit mask; each new element takes the next bit.
    Distinct elements have distinct bits, so a set's mask is the ``sum`` of
    its elements' masks."""

    __slots__ = ()

    def __missing__(self, element: object) -> int:
        mask = self[element] = 1 << len(self)
        return mask


class _BitRuns(dict):
    """``(element, n)`` → the masks of the element's occurrences ``first``
    … ``n - 1`` summed, each ``(element, k)`` an element of
    :attr:`occurrences`.  Keyed by ``Counter`` items, it turns a multiset
    into a set of ``(element, k)``: the popcount of the ``AND`` of two
    multisets' summed runs is the size of their intersection, less
    ``first`` for each element they share."""

    __slots__ = ("first", "occurrences")

    def __init__(self, first: int) -> None:
        super().__init__()
        self.first = first
        self.occurrences = _BitMasks()

    def __missing__(self, key: tuple[object, int]) -> int:
        element, n = key
        bit = self.occurrences.__getitem__
        run = self[key] = sum(bit((element, k)) for k in range(self.first, n))
        return run


class Matcher:
    """Base class: thresholded similarity classification with cost accounting.

    A matcher is pure: scoring a pair never fails, and a pair costs exactly
    its estimate.  That is what lets the engines plan an emission round's
    deadline cut from estimates and score the surviving prefix as one batch.
    A batch is the emitted ``(pid, pid)`` tuples plus the system's pid →
    profile lookup; what a matcher derives from a profile it keeps in the
    pid-keyed :class:`_PidRecords` ``_records``.  A record is derived from
    one input, :meth:`wire` of the profile, by :meth:`_derive`: that input
    is all a worker receives of a profile.  Subclasses implement those two,
    :meth:`estimate_cost_batch` (the virtual cost of each pair) and
    :meth:`_batch_scores` (their similarities).
    """

    name = "matcher"

    #: Attribute names that are pure functions of other state (derivable
    #: caches).  They are excluded from checkpoints and worker templates —
    #: they are rebuilt deterministically by :meth:`_init_derived_state` —
    #: which keeps checkpoint payloads bounded no matter how many profiles
    #: a long stream has touched.
    _DERIVED_STATE: tuple[str, ...] = ("_records",)

    def __init__(self, threshold: float, cost_model: CostModel) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.cost_model = cost_model
        self.comparisons_executed = 0
        self.matches_found = 0
        self.total_cost = 0.0
        #: Staged-kernel outcome counts (see :data:`KERNEL_COUNTERS`).
        #: Matchers without a staged kernel leave this empty.
        self.kernel_counts: dict[str, int] = {}
        self._metrics: MetricsRegistry | None = None
        self._init_derived_state()

    # -- hooks ----------------------------------------------------------
    def _init_derived_state(self) -> None:
        """(Re)build the attributes named in :attr:`_DERIVED_STATE`, empty."""
        self._records = _PidRecords(self._record)

    def wire(self, profile: EntityProfile) -> object:
        """The one input this matcher's record of ``profile`` is derived
        from: what the profile travels to a worker as."""
        raise NotImplementedError

    def _derive(self, wire: object) -> object:
        """The record of a profile whose :meth:`wire` input is ``wire``."""
        raise NotImplementedError

    def _record(self, profile: EntityProfile) -> object:
        return self._derive(self.wire(profile))

    def estimate_cost_batch(self, pairs: PidPairs, profiles: Profiles) -> list[float]:
        """The virtual cost of each ``(pid, pid)`` pair, never negative;
        scoring a pair charges exactly this."""
        raise NotImplementedError

    def _batch_scores(self, pairs: PidPairs, profiles: Profiles) -> list[float]:
        """The similarities of a batch of ``(pid, pid)`` pairs, in order,
        read off the pids' records.  Costs are not its business: they come
        from :meth:`estimate_cost_batch`, once per pair."""
        raise NotImplementedError

    # -- API ------------------------------------------------------------
    def evaluate_batch(
        self, pairs: PidPairs, profiles: Profiles, costs: Sequence[float]
    ) -> list[bool]:
        """Classify many ``(pid, pid)`` pairs at once; returns their match flags.

        ``costs`` are the pairs' :meth:`estimate_cost_batch` values, which
        the caller already holds (it planned the round from them).  The
        batch is accounted through the two halves below, back to back,
        around one :meth:`_batch_scores` call.  A caller that scores a
        batch somewhere else, or later, calls the halves itself:
        :meth:`account_costs` when the batch is charged and
        :meth:`account_scores` when its similarities arrive.
        """
        self.account_costs(costs)
        return self.account_scores(self._batch_scores(pairs, profiles))

    def account_costs(self, costs: Sequence[float]) -> None:
        """Cost side of a batch: evaluation count and virtual cost.

        The costs are added one by one from the previous total (``reduce``
        folds left in C; ``sum`` compensates from Python 3.12 on), so a
        batch accounts the same floats as the same pairs charged one at a
        time: ``total_cost`` and ``matcher.virtual_cost_s`` are float
        accumulations whose order is observable (mean cost feeds the
        adaptive K), which is also why this half cannot wait for the
        scores.
        """
        self.comparisons_executed += len(costs)
        self.total_cost = reduce(add, costs, self.total_cost)
        metrics = self._metrics
        if metrics is not None and costs:
            metrics.count("matcher.evaluations", len(costs))
            metrics.count_each("matcher.virtual_cost_s", costs)

    def account_scores(self, similarities: list[float]) -> list[bool]:
        """Result side of a batch: threshold the similarities, count the
        matches; returns the per-pair match flags."""
        threshold = self.threshold
        flags = [similarity >= threshold for similarity in similarities]
        found = sum(flags)
        self.matches_found += found
        if found and self._metrics is not None:
            # (the counter exists only once a match was seen)
            self._metrics.count("matcher.matches", found)
        return flags

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Attach the engine's per-run registry; evaluation counters go there."""
        self._metrics = registry

    def reset_stats(self) -> None:
        """Zero the counters and empty the pid-keyed records, whose pids
        are unique only within the dataset of the run that built them."""
        self.comparisons_executed = 0
        self.matches_found = 0
        self.total_cost = 0.0
        for key in self.kernel_counts:
            self.kernel_counts[key] = 0
        self._init_derived_state()

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Deep copy of all matcher state except the metrics binding and
        :attr:`_DERIVED_STATE` caches.

        The generic ``__dict__`` walk also captures subclass state.
        Derived caches are dropped (rebuilt deterministically on demand),
        which keeps checkpoint payloads bounded on long streams.
        """
        excluded = self._DERIVED_STATE
        return {
            key: copy.deepcopy(value)
            for key, value in self.__dict__.items()
            if key != "_metrics" and key not in excluded
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Rewind to a snapshot, keeping the current metrics binding."""
        metrics = self._metrics
        for key, value in state.items():
            self.__dict__[key] = copy.deepcopy(value)
        self._metrics = metrics
        self._init_derived_state()

    @property
    def mean_cost(self) -> float:
        """Average virtual cost per executed comparison (0 before first call)."""
        if self.comparisons_executed == 0:
            return 0.0
        return self.total_cost / self.comparisons_executed


class JaccardMatcher(Matcher):
    """The paper's cheap configuration: Jaccard similarity over token sets.

    Default virtual costs make one JS comparison ~50 µs — fast enough that
    the matcher is rarely the bottleneck, so the adaptive ``K`` stays large.
    A profile's record is ``(token count, token mask)``, derived from its
    token set: each token gets a bit the first time the matcher sees it,
    and a pair's common tokens are one ``AND`` + popcount of the two masks.
    """

    name = "JS"
    _DERIVED_STATE = (*Matcher._DERIVED_STATE, "_token_masks")

    def __init__(
        self,
        threshold: float = 0.5,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(threshold, cost_model or CostModel(base=2e-5, per_unit=1e-6))

    def _init_derived_state(self) -> None:
        super()._init_derived_state()
        self._token_masks = _BitMasks()

    def wire(self, profile: EntityProfile) -> frozenset[str]:
        return profile.tokens()

    def _derive(self, tokens: frozenset[str]) -> tuple[int, int]:
        return len(tokens), sum(map(self._token_masks.__getitem__, tokens))

    def estimate_cost_batch(self, pairs: PidPairs, profiles: Profiles) -> list[float]:
        records = self._records
        records.profiles = profiles
        base = self.cost_model.base
        per_unit = self.cost_model.per_unit
        # ``cost_model.charge`` of the pair's token count, inlined.
        return [base + per_unit * (records[x][0] + records[y][0]) for x, y in pairs]

    def _batch_scores(self, pairs: PidPairs, profiles: Profiles) -> list[float]:
        """:func:`~repro.matching.similarity.jaccard` of each pair, inlined
        over the batch: the popcount of the masks' ``AND`` counts what the
        scalar generator sum counts, and the division has the same operands."""
        records = self._records
        records.profiles = profiles
        return [
            (common := (mask_x & mask_y).bit_count()) / (count_x + count_y - common)
            if count_x and count_y
            else 0.0
            for x, y in pairs
            for (count_x, mask_x), (count_y, mask_y) in ((records[x], records[y]),)
        ]


def _float_text_length(profile: EntityProfile) -> float:
    return float(profile.text_length())


class _Signature(NamedTuple):
    """What :class:`EditDistanceMatcher` derives once per profile.

    The three ``*_bits`` integers are sets stored as bit masks, sums of the
    matcher's memoized :class:`_BitMasks` / :class:`_BitRuns`; which bit
    stands for which element is private to the matcher that built them, and
    only popcounts of ANDs of two signatures of one matcher are ever read.
    """

    text: str  # truncated to ``max_text_length``
    grams: int  # number of distinct bigrams
    gram_bits: int  # the distinct bigrams
    repeat_bits: int  # ``(bigram, k)`` for its occurrences ``k >= 1``
    char_bits: int  # ``(char, k)`` for its occurrences ``k >= 0``
    table: dict[str, bytes]  # :func:`lane_table` of ``text``


class EditDistanceMatcher(Matcher):
    """The paper's expensive configuration: normalized edit distance.

    The quadratic character-product work term makes comparisons of long
    profiles drastically more expensive — this is exactly the effect that
    hurts CBS-guided strategies (I-PCS, I-PBS) in the paper, because CBS
    over-prioritizes long non-matching profiles.

    Implementation note: the *virtual* cost always reflects the full
    quadratic DP over the complete texts.  The actual similarity computation
    truncates texts to ``max_text_length`` characters and runs a staged
    funnel over per-profile :class:`_Signature` records, each stage before
    the DP costing one big-int ``AND`` + popcount: a heuristic bigram-Dice
    prefilter, then three *exact* lower bounds on the distance (length
    difference, q-gram lemma, bag distance) that answer "not within the
    band" with the very float the bounded DP would return, and the
    bit-parallel DP only for the pairs none of them decides — so host
    wall-clock time stays bounded without altering classifications near the
    threshold.  Texts shorter than one bigram bypass the funnel entirely
    (their empty bigram set carries no signal) and go straight to the —
    then O(1) — exact DP.
    """

    name = "ED"
    _DERIVED_STATE = (
        *Matcher._DERIVED_STATE, "_lengths", "_gram_masks", "_repeat_runs", "_char_runs",
    )

    def __init__(
        self,
        threshold: float = 0.8,
        cost_model: CostModel | None = None,
        max_text_length: int = 160,
        prefilter_floor: float = 0.3,
    ) -> None:
        super().__init__(threshold, cost_model or CostModel(base=1e-4, per_unit=5e-7))
        if max_text_length < 8:
            raise ValueError("max_text_length must be >= 8")
        self.max_text_length = max_text_length
        self.prefilter_floor = prefilter_floor
        self.kernel_counts = dict.fromkeys(KERNEL_COUNTERS, 0)

    def _init_derived_state(self) -> None:
        super()._init_derived_state()
        # pid → the full text's length as a float: the pricing input.
        self._lengths: _PidRecords = _PidRecords(_float_text_length)
        self._gram_masks = _BitMasks()
        self._repeat_runs = _BitRuns(first=1)
        self._char_runs = _BitRuns(first=0)

    def wire(self, profile: EntityProfile) -> str:
        """The text, truncated to ``max_text_length``."""
        return profile.text()[: self.max_text_length]

    def _derive(self, text: str) -> _Signature:
        grams = Counter(map(str.__add__, text, text[1:]))
        return _Signature(
            text,
            len(grams),
            sum(map(self._gram_masks.__getitem__, grams)),
            sum(map(self._repeat_runs.__getitem__, grams.items())),
            sum(map(self._char_runs.__getitem__, Counter(text).items())),
            lane_table(text, lane_width(self.max_text_length)),
        )

    def estimate_cost_batch(self, pairs: PidPairs, profiles: Profiles) -> list[float]:
        """The character product of the full texts, read off the pids'
        float lengths: pricing a pair builds no :class:`_Signature`, so a
        fleet master pays for none of the signatures its workers score."""
        lengths = self._lengths
        lengths.profiles = profiles
        base = self.cost_model.base
        per_unit = self.cost_model.per_unit
        return [base + per_unit * (lengths[x] * lengths[y]) for x, y in pairs]

    def _batch_scores(self, pairs: PidPairs, profiles: Profiles) -> list[float]:
        """The staged funnel, run over the batch in one loop on the pids'
        :class:`_Signature` records (``_records``); a pair scores (and
        counts) the same in any batch, a batch of one included.
        Stages run cheapest-first; the first that decides a pair counts it:

        1. *short texts* — a text shorter than one bigram has no bigrams,
           which reads as overlap 0.0 and used to reject even *identical*
           texts.  The funnel has no signal here; run the — then O(1) — DP
           exactly.
        2. *bigram prefilter* (heuristic) — Dice overlap of the distinct
           bigrams far below any plausible threshold; the overlap itself is
           the (pessimistic) reject similarity.
        3. *length*, 4. *q-gram lemma*, 5. *bag distance* — exact lower
           bounds on the edit distance ``d`` (one edit changes the length by
           at most 1, destroys at most 2 of the longer text's ``longest - 1``
           bigrams, and repairs at most 1 unmatched character of the longer
           text); a bound above the DP's band proves ``d > bound``, for
           which the bounded DP returns ``bound + 1``.
        6. *DP* — Myers scans the shorter text against the longer text's
           cached table, so the final cell's diagonal starts at the length
           difference and a full scan is the shorter length.  The batch's
           survivors are collected with their output slots and scored
           together, one lane each, by :func:`levenshtein_lanes`.
        """
        signatures = self._records
        signatures.profiles = profiles
        threshold = self.threshold
        slack = 1.0 - threshold
        floor = self.prefilter_floor
        short_texts = prefilter_rejects = length_cuts = qgram_cuts = bag_cuts = dp_calls = 0
        similarities = []
        lanes = []  # the DP survivors, ``(table, longest, text, bound)``
        slots = []  # and where their similarities go
        for x, y in pairs:
            text_x, grams_x, gram_bits_x, repeat_bits_x, char_bits_x, table_x = signatures[x]
            text_y, grams_y, gram_bits_y, repeat_bits_y, char_bits_y, table_y = signatures[y]
            if not grams_x or not grams_y:
                short_texts += 1
                similarities.append(
                    normalized_edit_similarity(text_x, text_y, min_similarity=threshold)
                )
                continue
            common = (gram_bits_x & gram_bits_y).bit_count()
            overlap = 2.0 * common / (grams_x + grams_y)
            if overlap < floor:
                prefilter_rejects += 1
                similarities.append(overlap)
                continue
            shortest = len(text_x)
            longest = len(text_y)
            if shortest > longest:
                shortest, longest = longest, shortest
                text_x, text_y, table_y = text_y, text_x, table_x
            bound = int(slack * longest) + 1
            if longest - shortest > bound:
                length_cuts += 1
            elif common + (repeat_bits_x & repeat_bits_y).bit_count() < longest - 1 - 2 * bound:
                qgram_cuts += 1
            elif longest - (char_bits_x & char_bits_y).bit_count() > bound:
                bag_cuts += 1
            else:
                dp_calls += 1
                slots.append(len(similarities))
                lanes.append((table_y, longest, text_x, bound))
            distance = bound + 1  # a DP survivor's is overwritten below
            similarities.append(1.0 - (distance if distance < longest else longest) / longest)
        distances = levenshtein_lanes(lanes, lane_width(self.max_text_length))
        for slot, (_, longest, _, _), distance in zip(slots, lanes, distances):
            similarities[slot] = 1.0 - (distance if distance < longest else longest) / longest
        counts = self.kernel_counts
        for name, count in zip(
            KERNEL_COUNTERS,
            (short_texts, prefilter_rejects, length_cuts, qgram_cuts, bag_cuts, dp_calls),
        ):
            counts[name] += count
        return similarities
