"""Similarity functions used by the matching step.

The paper evaluates two pipeline configurations: a *cheap* matcher based on
Jaccard similarity (JS) over token sets and an *expensive* matcher based on
edit distance (ED) over the concatenated profile text.  Both are implemented
here from scratch.  The edit distance is the Myers bit-parallel algorithm
run over *lanes*: many pairs share one scan, each pair a fixed-width field
of the same arbitrary-precision bit-vectors, so a column step costs the same
~19 big-int operations for a group of pairs as for one, and CPython's
big-int limb arithmetic carries every lane at once.  With a bound a lane
stops at the first checked column whose cell on its final cell's diagonal
is beyond it.  :func:`levenshtein` is a group of one lane.  The oracle is
the textbook dynamic-programming table in ``tests/reference/levenshtein.py``.
"""

from __future__ import annotations

from itertools import islice, repeat, zip_longest
from typing import Sequence

#: One pair for :func:`levenshtein_lanes`: ``(table, m, text, bound)``.
Lane = tuple[dict[str, bytes], int, str, int | None]

__all__ = [
    "jaccard",
    "dice",
    "levenshtein",
    "lane_table",
    "lane_width",
    "levenshtein_lanes",
    "normalized_edit_similarity",
]


def jaccard(tokens_x: frozenset[str] | set[str], tokens_y: frozenset[str] | set[str]) -> float:
    """Jaccard similarity of two token sets, in [0, 1].

    Two empty sets are defined to have similarity 0 (no evidence of a
    match), which avoids classifying empty profiles as duplicates.
    """
    if not tokens_x or not tokens_y:
        return 0.0
    if len(tokens_x) > len(tokens_y):
        tokens_x, tokens_y = tokens_y, tokens_x
    intersection = sum(1 for token in tokens_x if token in tokens_y)
    union = len(tokens_x) + len(tokens_y) - intersection
    return intersection / union


def dice(tokens_x: frozenset[str] | set[str], tokens_y: frozenset[str] | set[str]) -> float:
    """Sørensen-Dice coefficient of two token sets, in [0, 1]."""
    if not tokens_x or not tokens_y:
        return 0.0
    if len(tokens_x) > len(tokens_y):
        tokens_x, tokens_y = tokens_y, tokens_x
    intersection = sum(1 for token in tokens_x if token in tokens_y)
    return 2.0 * intersection / (len(tokens_x) + len(tokens_y))


def levenshtein(text_x: str, text_y: str, max_distance: int | None = None) -> int:
    """Levenshtein edit distance between two strings.

    Parameters
    ----------
    max_distance:
        Optional bound ``k``.  If the true distance exceeds ``k`` the
        function returns ``k + 1``; with a bound the kernel stops as soon
        as the distance provably exceeds ``k``, which keeps the expensive
        matcher affordable for clearly different strings.
    """
    if text_x == text_y:
        return 0
    cap = None if max_distance is None else max_distance + 1
    if not text_x:
        return len(text_y) if cap is None else min(len(text_y), cap)
    if not text_y:
        return len(text_x) if cap is None else min(len(text_x), cap)
    # text_x is the shorter string: the text the Myers kernel scans (the
    # longer one is its bit-vector pattern).
    if len(text_x) > len(text_y):
        text_x, text_y = text_y, text_x
    if max_distance is not None and len(text_y) - len(text_x) > max_distance:
        return max_distance + 1
    width = lane_width(len(text_y))
    lane = (lane_table(text_y, width), len(text_y), text_x, max_distance)
    return levenshtein_lanes([lane], width)[0]


def lane_width(length: int) -> int:
    """Bits of one lane of :func:`levenshtein_lanes` for patterns of up to
    ``length`` characters: whole bytes, two guard bits at least."""
    return (length + 9) // 8 * 8


def lane_table(pattern: str, width: int) -> dict[str, bytes]:
    """The Myers match table of ``pattern`` as lane bytes: character → the
    bitmask of the positions it occupies, ``width // 8`` little-endian bytes.
    It depends on the pattern alone, so a caller that compares one text many
    times builds it once — and, holding the tables of both texts of a pair,
    passes the *longer* text's to :func:`levenshtein_lanes`."""
    masks: dict[str, int] = {}
    bit = 1
    for char in pattern:
        masks[char] = masks.get(char, 0) | bit
        bit <<= 1
    size = width // 8
    return {char: mask.to_bytes(size, "little") for char, mask in masks.items()}


#: Lanes side by side in one scan of :func:`levenshtein_lanes`.  A measured
#: constant, not an option: a column costs ~19 big-int operations whatever
#: the number of lanes, plus one C-level byte join, so a lane costs little
#: until the integers grow long.  Replay of the 9,513 DP calls ``stream_ed``
#: makes (dblp_acm x0.6, dataset seed 3, 2-core build host, CPU seconds, min
#: of 7 interleaved passes, cadence 16; a one-pair kernel, each survivor
#: scanned alone, read 0.170 s on the same replay):
#:
#:   lanes          1       2       4       6      12      32      64
#:   replay s   0.290   0.202   0.131   0.108   0.083   0.071   0.070
#:
#: Flat from 32 on.  A batch's survivors are cut into near-equal groups of
#: at most this many, so 33 survivors scan as 16 + 17, never 32 + 1.
_LANES = 32

#: Columns between two looks at the lanes' diagonals.  A measured constant,
#: not an option: a look is two ANDs and two byte dumps for the pack and
#: two popcounts per live lane, and a late look scans at most ``cadence -
#: 1`` columns too many in every lane it would have stopped.  The same
#: replay at 32 lanes (lane-columns: columns the lanes advanced, done lanes
#: that still hold a slot included, of 1,004,400 in the scanned texts):
#:
#:   cadence              4        8       16       32
#:   lane-columns   423,011  438,872  477,761  588,678
#:   replay s         0.097    0.079    0.071    0.072
_CHECK_EVERY = 16


def levenshtein_lanes(lanes: Sequence[Lane], width: int) -> list[int]:
    """Myers (1999) bit-parallel edit distances of many pairs at once: the
    exact distance of each lane up to its bound, ``bound + 1`` beyond it,
    always exact without a bound.  A lane is ``(table, m, text, bound)``:
    a pattern of ``m`` characters given as its :func:`lane_table` of this
    ``width`` (``m + 2 <= width``), and a ``text`` no longer than the
    pattern, only ever measured (``len``) and iterated.

    The lanes are sorted by text length and cut into near-equal groups of
    at most :data:`_LANES`, each scanned by :func:`_scan_lanes`; a lane's
    result does not depend on the lanes beside it.
    """
    order = sorted(range(len(lanes)), key=lambda lane: len(lanes[lane][2]))
    distances = [0] * len(lanes)
    groups = -(-len(order) // _LANES)
    start = 0
    for left in range(groups, 0, -1):
        stop = start + (len(order) - start) // left
        ids = order[start:stop]
        for lane, distance in zip(ids, _scan_lanes([lanes[lane] for lane in ids], width)):
            distances[lane] = distance
        start = stop
    return distances


def _low_bits(bits: int, size: int) -> bytes:
    """The lane bytes of ``(1 << bits) - 1``."""
    return ((1 << bits) - 1).to_bytes(size, "little")


def _scan_lanes(group: list[Lane], width: int) -> list[int]:
    """One Myers scan for a group of lanes sorted by text length.

    *Lanes.*  Lane ``s`` of the pack is bits ``s * width`` to ``(s + 1) *
    width - 1`` of every vector, its pattern's row ``i`` at bit ``i - 1``.
    A column's match vector is the lanes' table bytes for their texts' next
    characters, joined in pack order (zero bytes past a text's end), and
    Hyyrö's (2001) step runs once for the pack: ``| lows`` (bit 0 of every
    lane) stands for ``| 1`` and ``^ mask`` (the low ``m`` bits of every
    lane) for the complement, so nothing is ever negative.

    *Guard bits.*  Information in the step only moves upward (the carry of
    its one addition, its two left shifts), so a lane's low ``m`` bits are
    those of its own scan.  ``vp`` is masked every column: the carry then
    stops at bit ``m``, no intermediate reaches bit ``m + 2 <= width``, and
    ``vn`` holds at most the carry's bit ``m``, which every read masks.

    *Per-lane diagonal.*  Edit-distance tables are non-decreasing along
    diagonals (Ukkonen 1985), so every cell on the diagonal of a lane's
    final cell ``D[m][n]`` bounds its distance from below.  ``diag`` holds
    each lane's rows below that diagonal (``m - n`` at column 0, grown by
    the cadence at every look, capped at ``m``): after column ``j`` the cell
    is ``j + popcount(vp & diag) - popcount(vn & diag)`` in the lane, and
    past its bound the lane answers ``bound + 1``.  At column ``n`` a lane
    reads its distance, ``n + popcount(vp) - popcount(vn)`` in its bits.

    *Re-pack.*  A done lane keeps its slot until half the pack is done; then
    the live lanes' bytes are packed together.  The columns run in segments
    between two events (a look, a text's end), so the loop that advances
    them tests nothing.
    """
    size = width // 8
    zero = bytes(size)
    from_bytes = int.from_bytes
    join = b"".join
    count = len(group)
    lengths = [m for _, m, _, _ in group]
    ends = [len(text) for _, _, text, _ in group]
    # No cell exceeds ``m``: a bound of ``m`` (or none) never cuts a lane.
    bounds = [m if bound is None or bound > m else bound for _, m, _, bound in group]
    sources = [map(table.get, text, repeat(zero)) for table, _, text, _ in group]
    mask = from_bytes(join([_low_bits(m, size) for m in lengths]), "little")
    diag = from_bytes(join([_low_bits(m - end, size) for m, end in zip(lengths, ends)]), "little")
    vp = mask
    vn = 0
    distances: list[int | None] = [None] * count
    pack = list(range(count))
    live = count
    column = 0
    look = _CHECK_EVERY
    finishing = 0  # lanes before it are done; its text ends next
    while True:
        lows = from_bytes(_low_bits(1, size) * len(pack), "little")
        columns = zip_longest(*[sources[lane] for lane in pack], fillvalue=zero)
        while 2 * live > len(pack):
            end = ends[finishing]
            stop = look if look < end else end
            for eq in islice(columns, stop - column):
                x = from_bytes(join(eq), "little") | vn
                d0 = ((vp + (x & vp)) ^ vp) | x
                hn = vp & d0
                hp = vn | ((vp | d0) ^ mask)
                x = (hp << 1) | lows
                vn = x & d0
                vp = ((hn << 1) | ((x | d0) ^ mask)) & mask
            column = stop
            if column == look:
                look += _CHECK_EVERY
                diag = ((diag << _CHECK_EVERY) | lows * ((1 << _CHECK_EVERY) - 1)) & mask
                above = (vp & diag).to_bytes(len(pack) * size, "little")
                below = (vn & diag).to_bytes(len(pack) * size, "little")
                offset = 0
                for lane in pack:
                    if distances[lane] is None and (
                        column
                        + from_bytes(above[offset : offset + size], "little").bit_count()
                        - from_bytes(below[offset : offset + size], "little").bit_count()
                        > bounds[lane]
                    ):
                        distances[lane] = bounds[lane] + 1
                        live -= 1
                    offset += size
            while finishing < count and ends[finishing] == column:
                if distances[finishing] is None:
                    shift = pack.index(finishing) * width
                    distance = (
                        column
                        + ((vp >> shift) & ((1 << width) - 1)).bit_count()
                        - ((vn >> shift) & ((1 << lengths[finishing]) - 1)).bit_count()
                    )
                    bound = bounds[finishing]
                    distances[finishing] = distance if distance <= bound else bound + 1
                    live -= 1
                finishing += 1
            if not live:
                return distances
            while distances[finishing] is not None:
                finishing += 1
        keep = [slot * size for slot, lane in enumerate(pack) if distances[lane] is None]
        vp, vn, mask, diag = [
            from_bytes(join([data[offset : offset + size] for offset in keep]), "little")
            for data in [v.to_bytes(len(pack) * size, "little") for v in (vp, vn, mask, diag)]
        ]
        pack = [lane for lane in pack if distances[lane] is None]


def normalized_edit_similarity(
    text_x: str, text_y: str, min_similarity: float | None = None
) -> float:
    """Edit-distance similarity ``1 - dist / max_len`` in [0, 1].

    Two empty strings are defined to have similarity 0, consistent with
    :func:`jaccard` on empty token sets.

    Parameters
    ----------
    min_similarity:
        When the caller only needs exact values at or above some threshold
        (e.g. a matcher deciding ``sim >= t``), passing ``t`` narrows the DP
        band accordingly; values below the threshold are then clamped
        pessimistically (still in [0, 1], still below ``t``).
    """
    longest = max(len(text_x), len(text_y))
    if longest == 0:
        return 0.0
    if min_similarity is None:
        # Keep exact values for similarities >= 0.5 — ample for thresholding.
        bound = longest // 2 + 1
    else:
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError("min_similarity must be in [0, 1]")
        bound = int((1.0 - min_similarity) * longest) + 1
    distance = levenshtein(text_x, text_y, max_distance=bound)
    distance = min(distance, longest)
    return 1.0 - distance / longest
