"""Similarity functions used by the matching step.

The paper evaluates two pipeline configurations: a *cheap* matcher based on
Jaccard similarity (JS) over token sets and an *expensive* matcher based on
edit distance (ED) over the concatenated profile text.  Both are implemented
here from scratch.  The edit distance is the Myers bit-parallel algorithm
(one arbitrary-precision bit-vector, so patterns of any length ride
CPython's big-int limb arithmetic; with a bound it stops at the first column
whose cell on the final cell's diagonal is beyond it).  Its oracle is the
textbook dynamic-programming table in ``tests/reference/levenshtein.py``.
"""

from __future__ import annotations

__all__ = [
    "jaccard",
    "dice",
    "levenshtein",
    "myers_table",
    "levenshtein_myers",
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
    return levenshtein_myers(myers_table(text_y), len(text_y), text_x, max_distance)


def myers_table(pattern: str) -> dict[str, int]:
    """The Myers match table of ``pattern``: character → bitmask of the
    positions it occupies.  It depends on the pattern alone, so a caller
    that compares one text many times builds it once — and, holding the
    tables of both texts of a pair, passes the *longer* text's to
    :func:`levenshtein_myers`."""
    peq: dict[str, int] = {}
    bit = 1
    for char in pattern:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    return peq


#: Columns between two looks at the final cell's diagonal (and two trims of
#: the bit-vectors) in :func:`levenshtein_myers`.  A measured constant, not
#: an option: the check is one shift, four ANDs and two popcounts, so it
#: only has to be rare against the ~17 big-int operations of a column, and
#: a late look scans at most ``cadence - 1`` columns too many.  Replay of the
#: 9,513 DP calls ``stream_ed`` makes (dblp_acm x0.6, dataset seed 3, 2-core
#: build host, CPU seconds, min of 25 interleaved passes):
#:
#:   cadence                1        2        4        8       16       32
#:   columns scanned  386,822  391,403  400,601  419,140  456,705  554,113
#:   replay s           0.354    0.299    0.274    0.275    0.286    0.324
#:
#: of 1,004,400 columns in the scanned texts.  Flat from 4 to 16 (passes of
#: one cadence spread by ~0.01 s); 8 is the middle of the plateau.
#: A power of two, so the test is one AND of the column number.
_CHECK_EVERY = 8


def levenshtein_myers(peq: dict[str, int], length: int, text: str, bound: int | None) -> int:
    """Myers (1999) bit-parallel edit distance between a non-empty pattern,
    given as its :func:`myers_table` ``peq`` and its ``length`` ``m``, and
    ``text`` (``n`` characters, only ever iterated): the exact distance up
    to ``bound``, ``bound + 1`` beyond it, always exact without a bound.
    Either text may be the pattern; the longer one makes the shorter scan.

    One DP column's vertical deltas ``D[i][j] - D[i-1][j]`` live in two
    bitmasks (``vp``: +1, ``vn``: -1, bit ``i - 1`` for row ``i``) and a
    whole column advances per text character in ~17 big-int operations,
    written in Hyyrö's (2001) form.  Python integers are arbitrary-precision,
    so CPython's C-level limb arithmetic *is* the blocked variant for
    patterns beyond one machine word, carries included (measured ~2× faster
    than an explicit Python-level block loop at 160 chars).

    *Sign-free, lazily trimmed.*  Complements are taken as ``^ mask``, never
    ``~``: every intermediate stays non-negative (CPython's ``&``/``|`` copy
    a negative operand into two's complement first).  ``^ mask`` leaves bits
    at and above ``m`` as they were, and nothing clears them per column —
    information in the recurrence only ever moves *upward* (the carry of the
    one addition, the two left shifts; everything else is bitwise), so bits
    ``>= m`` cannot reach bits ``< m`` and the low ``m`` bits are those of
    the textbook masked step.  A column widens the vectors by at most two
    bits; they are trimmed every :data:`_CHECK_EVERY` columns, so they never
    exceed ``m + 2 * _CHECK_EVERY`` bits.

    *Diagonal cut-off.*  Edit-distance tables are non-decreasing along
    diagonals (``D[i+1][j+1] - D[i][j]`` is 0 or 1, Ukkonen 1985), so every
    cell on the diagonal ``row - column = m - n`` of the final cell
    ``D[m][n]`` is a lower bound on the distance.  After column ``j`` that
    cell is ``D[j+m-n][j] = j + popcount(vp & low) - popcount(vn & low)``
    with ``low = (1 << (j+m-n)) - 1`` — row 0 holds ``j``, the deltas below
    the diagonal row add up to the rest — and once it exceeds the bound the
    answer is ``bound + 1``.  The bottom-row test ``D[m][j] - (n - j) >
    bound`` can never fire first: the two cells are ``n - j`` rows apart in
    one column and vertical deltas are at most 1, so ``D[m][j] - (n - j) <=
    D[j+m-n][j]``.  No running score is kept: the distance is read once,
    from the last column's popcounts.
    """
    mask = (1 << length) - 1
    vp = mask
    vn = 0
    peq_get = peq.get
    columns = len(text)
    offset = length - columns
    between_checks = _CHECK_EVERY - 1
    for column, char in enumerate(text, 1):
        x = peq_get(char, 0) | vn
        d0 = ((vp + (x & vp)) ^ vp) | x
        hn = vp & d0
        hp = vn | ((vp | d0) ^ mask)
        x = (hp << 1) | 1
        vn = x & d0
        vp = (hn << 1) | ((x | d0) ^ mask)
        if not column & between_checks:
            vp &= mask
            vn &= mask
            row = column + offset
            if bound is not None and row > 0:
                low = (1 << row) - 1
                if column + (vp & low).bit_count() - (vn & low).bit_count() > bound:
                    return bound + 1
    distance = columns + (vp & mask).bit_count() - (vn & mask).bit_count()
    if bound is not None and distance > bound:
        return bound + 1
    return distance


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
