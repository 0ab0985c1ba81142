"""What the edit-distance signature's three masks count, as ``Counter``
multisets.

Shares no code with ``repro.matching`` — no bits, no memo — so a defect in
how the matcher turns a multiset into a mask cannot hide behind it.  The
funnel reads a pair's signatures only through these three numbers (and the
distinct-bigram count): the q-gram bound adds the first two, the bag bound
uses the third.
"""

from __future__ import annotations

from collections import Counter


def bigrams(text: str) -> Counter:
    """The text's bigrams with their occurrence counts."""
    return Counter(text[i : i + 2] for i in range(len(text) - 1))


def common_bigrams(text_x: str, text_y: str) -> int:
    """Distinct bigrams the two texts share."""
    return len(bigrams(text_x).keys() & bigrams(text_y).keys())


def common_repeats(text_x: str, text_y: str) -> int:
    """Shared bigram occurrences past each bigram's first: the size of the
    bigram multisets' intersection less one per shared bigram."""
    return sum((bigrams(text_x) & bigrams(text_y)).values()) - common_bigrams(text_x, text_y)


def common_chars(text_x: str, text_y: str) -> int:
    """The size of the character multisets' intersection."""
    return sum((Counter(text_x) & Counter(text_y)).values())
