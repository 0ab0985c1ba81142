"""The blocking graph by brute force: which pairs share a block, and how often.

Every progressive strategy orders the same comparison universe — the valid
pairs of profiles that co-occur in at least one block.  This walks every
block and every pair of its members, with no index, cursor or cleaning step
in between, and imports nothing from the code it judges (``repro.pier``,
``repro.progressive``).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations


def co_block_pairs(collection) -> Counter:
    """Canonical valid pair → number of blocks of ``collection`` that hold it.

    The keys are the comparison universe; the values sum to ``Σ_b ‖b‖``.  A
    pair is valid when its profiles differ and, for Clean-Clean ER, come
    from different sources.
    """
    pairs: Counter = Counter()
    for block in collection:
        members = [
            (pid, source)
            for source, pids in block.members_by_source.items()
            for pid in pids
        ]
        for (pid_x, source_x), (pid_y, source_y) in combinations(members, 2):
            if pid_x == pid_y or (collection.clean_clean and source_x == source_y):
                continue
            pairs[(pid_x, pid_y) if pid_x < pid_y else (pid_y, pid_x)] += 1
    return pairs
