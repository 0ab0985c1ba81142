"""The Myers kernel against an independent oracle, as a result and as work.

``levenshtein_myers`` stops at the first checked column whose cell on the
final cell's diagonal is beyond the bound, on bit-vectors that are trimmed
only now and then, and takes either text as the pattern.  These tests hold
its return value to the textbook table of ``tests/reference/levenshtein.py``
(no code shared with ``src/``) in both orientations and on both sides of
every bound, with lengths pinned where CPython's 30-bit digits, the 64-bit
word and the check cadence end; two mutants of the kernel's own source show
that the pinned examples see the two mistakes the derivation invites; and a
text that counts how much of it was iterated pins the cut-off as *work* —
the kernel's only access to its text is ``len`` and ``iter``.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.matcher as matcher_module
from repro.evaluation.experiments import _build_matcher
from repro.matching import similarity
from repro.matching.similarity import levenshtein_myers, myers_table

from tests.reference.levenshtein import levenshtein
from tests.test_ed_funnel import _alphabets  # the signature filters' adversaries

# One below, at and above: multiples of CPython's 30-bit big-int digit, the
# 64-bit word, and the first two diagonal checks (cadence 8).
PINNED_LENGTHS = [
    7, 8, 9, 15, 16, 17, 29, 30, 31, 59, 60, 61, 63, 64, 65,
    89, 90, 91, 119, 120, 121, 149, 150, 151,
]  # fmt: skip
BLOCK_SWAP = ("a" * 75 + "b" * 75, "b" * 75 + "a" * 75)

_lengths = st.sampled_from(PINNED_LENGTHS) | st.integers(0, 200)


def _spread_edits(text: str, edits: int, kinds: list[str], alphabet: str) -> str:
    """``text`` after ``edits`` edits at evenly spaced positions (the
    neighbour a cut-off sees last: its distance builds up across the whole
    scan instead of at one end)."""
    chars = list(text)
    for index in reversed(range(edits)):  # right to left: positions stay valid
        position = index * len(text) // edits
        kind = kinds[index % len(kinds)]
        if kind == "insert":
            chars.insert(position, alphabet[index % len(alphabet)])
        elif kind == "delete":
            del chars[position]
        else:  # substitute, by a character that differs
            chars[position] = next(c for c in alphabet if c != chars[position])
    return "".join(chars)


@st.composite
def _text(draw, alphabet):
    length = draw(_lengths)
    if draw(st.booleans()):
        return draw(st.text(alphabet=alphabet, min_size=length, max_size=length))
    runs = draw(
        st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, 80)), min_size=1, max_size=6)
    )
    return "".join(char * run for char, run in runs)[:length]


@st.composite
def _text_pair(draw):
    alphabet = draw(_alphabets)
    text_x = draw(_text(alphabet))
    shape = draw(st.sampled_from(["unrelated", "spread", "spread", "swap"]))
    if shape == "unrelated":
        return text_x, draw(_text(alphabet))
    if shape == "swap" or not text_x:
        head = alphabet[0] * draw(st.integers(0, 100))
        tail = alphabet[1] * draw(st.integers(0, 100))
        return head + tail, tail + head
    edits = draw(st.integers(0, max(1, len(text_x) // 3)))
    kinds = draw(
        st.lists(st.sampled_from(["insert", "delete", "substitute"]), min_size=1, max_size=3)
    )
    return text_x, _spread_edits(text_x, edits, kinds, alphabet)


def _assert_kernel(text_x, text_y, bounds=None):
    """The kernel returns ``min(d, bound + 1)`` (``d`` for ``None``) with
    either text as the pattern; ``bounds`` defaults to every one there is."""
    distance = levenshtein(text_x, text_y)
    longest = max(len(text_x), len(text_y))
    if bounds is None:
        bounds = range(longest + 1)
    else:
        bounds = sorted({0, 1, distance - 1, distance, distance + 1, longest, *bounds} - {-1})
    for pattern, text in ((text_x, text_y), (text_y, text_x)):
        if not pattern:  # the pattern is non-empty by contract
            continue
        table = myers_table(pattern)
        assert levenshtein_myers(table, len(pattern), text, None) == distance, (pattern, text)
        for bound in bounds:
            assert levenshtein_myers(table, len(pattern), text, bound) == min(
                distance, bound + 1
            ), (pattern, text, bound)


@given(pair=_text_pair(), drawn_bound=st.integers(0, 200))
@settings(max_examples=500, deadline=None)
def test_kernel_against_textbook_levenshtein(pair, drawn_bound):
    """Unbounded, at the ends of the range, on both sides of the true
    distance, and at one drawn bound."""
    text_x, text_y = pair
    _assert_kernel(text_x, text_y, [min(drawn_bound, max(len(text_x), len(text_y)))])


@pytest.mark.parametrize("length", PINNED_LENGTHS)
def test_every_bound_at_pinned_lengths(length):
    """All of ``None, 0, 1, ..., max(len)`` where the vectors gain a digit
    or a check falls, against a neighbour a few spread edits away (one text
    longer, one equal, one shorter) and against a block swap."""
    text = ("abbab" * length)[:length]
    for kind in ("insert", "substitute", "delete"):
        _assert_kernel(text, _spread_edits(text, 1 + length // 10, [kind], "ab"))
    half = length // 2
    _assert_kernel("a" * half + "b" * (length - half), "b" * (length - half) + "a" * half)


# ----------------------------------------------------------------------
# Mutants: the pinned examples see what the derivation can get wrong
# ----------------------------------------------------------------------
def _mutant(original: str, mutated: str):
    """The kernel with one expression of its source replaced."""
    source = inspect.getsource(levenshtein_myers)
    assert source.count(original) == 1, f"kernel source no longer has {original!r}"
    namespace = dict(vars(similarity))
    exec(source.replace(original, mutated), namespace)
    return namespace["levenshtein_myers"]


def test_mutant_diagonal_row_off_by_one_is_caught():
    """One row too low reads ``D[j+1][j] = 1`` on identical texts."""
    text = "abbab" * 8
    table = myers_table(text)
    mutant = _mutant("row = column + offset", "row = column + offset + 1")
    assert levenshtein_myers(table, len(text), text, 0) == 0
    assert mutant(table, len(text), text, 0) == 1


def test_mutant_bottom_row_for_diagonal_is_caught():
    """Without ``& low`` the popcounts read the bottom row ``D[m][j]``,
    which after 8 of 40 identical columns is still 32."""
    text = "abbab" * 8
    table = myers_table(text)
    mutant = _mutant(
        "(vp & low).bit_count() - (vn & low).bit_count()", "vp.bit_count() - vn.bit_count()"
    )
    assert levenshtein_myers(table, len(text), text, 5) == 0
    assert mutant(table, len(text), text, 5) == 6


# ----------------------------------------------------------------------
# The cut-off as work: columns consumed, not only the value returned
# ----------------------------------------------------------------------
class _CountedText:
    """A text that counts the characters iterated out of it."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.consumed = 0

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self):
        for char in self.text:
            self.consumed += 1
            yield char


def test_block_swap_is_given_up_after_the_bound_not_after_the_block():
    """``D[j][j] = j`` while the scan is inside the first blocks, so the
    diagonal proves ``> 31`` at column 32 — the bottom-row test
    ``D[m][j] - (n - j) > 31`` needs column 91."""
    for pattern, text in (BLOCK_SWAP, BLOCK_SWAP[::-1]):
        counted = _CountedText(text)
        assert levenshtein_myers(myers_table(pattern), len(pattern), counted, 31) == 32
        assert counted.consumed <= 40
    assert levenshtein(*BLOCK_SWAP) == 150


def test_identical_texts_are_scanned_to_the_end():
    text = "abbab" * 30
    counted = _CountedText(text)
    assert levenshtein_myers(myers_table(text), len(text), counted, 0) == 0
    assert counted.consumed == len(text)


def test_dp_survivors_are_cut_off_early_through_the_matcher(small_dblp_acm, monkeypatch):
    """Columns the DP consumes, as a share of the texts it is given to scan,
    over every cross-source pair of the fixture through ``_batch_scores``
    (the experiments' ED matcher: 1,196 of 13,392 pairs reach the DP).
    Measured 53,806 of 119,192 columns = 45.1 %; pinned with ~15 % headroom.
    (The bottom-row test on the shorter text's table read 86,560 of 129,314
    = 66.9 %.)"""
    consumed = scanned = 0

    def counting_kernel(peq, length, text, bound):
        nonlocal consumed, scanned
        counted = _CountedText(text)
        distance = levenshtein_myers(peq, length, counted, bound)
        consumed += counted.consumed
        scanned += len(text)
        return distance

    monkeypatch.setattr(matcher_module, "levenshtein_myers", counting_kernel)
    matcher = _build_matcher("ED")
    left = [profile for profile in small_dblp_acm.profiles if profile.source == 0]
    right = [profile for profile in small_dblp_acm.profiles if profile.source == 1]
    lookup = {profile.pid: profile for profile in small_dblp_acm.profiles}
    matcher._batch_scores([(x.pid, y.pid) for x in left for y in right], lookup)
    assert matcher.kernel_counts["dp_calls"] > 1000
    assert consumed <= 0.52 * scanned
