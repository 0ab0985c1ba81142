"""The lane kernel against an independent oracle, as a result and as work.

``levenshtein_lanes`` scores many pairs in one Myers scan, one pair per
*lane* of a big int: it stops a lane at the first checked column whose cell
on the lane's final diagonal is beyond its bound, and re-packs the live
lanes once half the pack is done.  These tests hold every lane's return
value to the textbook table of ``tests/reference/levenshtein.py`` (no code
shared with ``src/``), whatever the lanes beside it and their order, on both
sides of every bound, with lengths pinned where CPython's 30-bit digits, the
64-bit word, the check cadence and the matcher's lane width end; five
mutants of the kernel's own source show that pinned multi-lane examples see
the mistakes the derivation invites; and texts that count how much of them
was iterated pin the cut-off as *work* — the kernel's only access to a text
is ``len`` and ``iter``, and a lane advances one character per column for as
long as it holds a slot in the pack.
"""

from __future__ import annotations

import inspect
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.matcher as matcher_module
from repro.evaluation.experiments import _build_matcher
from repro.matching import similarity
from repro.matching.similarity import lane_table, lane_width, levenshtein_lanes

from tests.reference.levenshtein import levenshtein
from tests.test_ed_funnel import _alphabets  # the signature filters' adversaries

CADENCE = similarity._CHECK_EVERY
LANES = similarity._LANES
MATCHER_WIDTH = lane_width(160)  # the ED matcher's lanes: 168 bits

# One below, at and above: multiples of CPython's 30-bit big-int digit, the
# 64-bit word and the diagonal checks, the matcher's ``max_text_length``,
# and the longest pattern that fits its lanes (two guard bits) and one more.
PINNED_LENGTHS = [
    7, 8, 9, 15, 16, 17, 29, 30, 31, 59, 60, 61, 63, 64, 65,
    89, 90, 91, 119, 120, 121, 149, 150, 151,
    32, 33, 47, 48, 49, 159, 160, 161,
    MATCHER_WIDTH - 2, MATCHER_WIDTH - 1,
]  # fmt: skip
BLOCK_SWAP = ("a" * 75 + "b" * 75, "b" * 75 + "a" * 75)

_lengths = st.sampled_from(PINNED_LENGTHS) | st.integers(0, 200)


@lru_cache(maxsize=None)
def _distance(text_x: str, text_y: str) -> int:
    return levenshtein(text_x, text_y)


def _expected(pattern: str, text: str, bound: int | None) -> int:
    distance = _distance(pattern, text)
    return distance if bound is None else min(distance, bound + 1)


def _lanes(triples, width=None):
    """``(pattern, text, bound)`` triples as kernel lanes and their width
    (the narrowest that holds the longest pattern, unless given)."""
    if width is None:
        width = lane_width(max(len(pattern) for pattern, _, _ in triples))
    return [(lane_table(p, width), len(p), text, bound) for p, text, bound in triples], width


def _run(triples, kernel=levenshtein_lanes):
    return kernel(*_lanes(triples))


def _oriented(text_x: str, text_y: str) -> tuple[str, str]:
    """``(pattern, text)``: the longer text is the pattern, by contract."""
    return (text_x, text_y) if len(text_x) >= len(text_y) else (text_y, text_x)


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
    shape = draw(st.sampled_from(["unrelated", "identical", "spread", "spread", "swap"]))
    if shape == "unrelated":
        return _oriented(text_x, draw(_text(alphabet)))
    if shape == "identical":  # never exits: scanned to its end
        return text_x, text_x
    if shape == "swap" or not text_x:
        head = alphabet[0] * draw(st.integers(0, 100))
        tail = alphabet[1] * draw(st.integers(0, 100))
        return head + tail, tail + head
    edits = draw(st.integers(0, max(1, len(text_x) // 3)))
    kinds = draw(
        st.lists(st.sampled_from(["insert", "delete", "substitute"]), min_size=1, max_size=3)
    )
    return _oriented(text_x, _spread_edits(text_x, edits, kinds, alphabet))


@st.composite
def _group(draw):
    """1-80 lanes over a pool of 1-6 pairs, each with its own bound: none,
    0, a drawn ``k``, or one below, at or above the true distance — so one
    pair exits at different columns in different lanes, and groups where
    most lanes exit early force re-packs."""
    pool = draw(st.lists(_text_pair(), min_size=1, max_size=6))
    count = draw(st.sampled_from([1, 2, LANES, LANES + 1, 2 * LANES + 1]) | st.integers(1, 80))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pool) - 1),
                st.sampled_from(["none", "zero", "k", "below", "at", "above"]),
                st.integers(0, 200),
            ),
            min_size=count,
            max_size=count,
        )
    )
    triples = []
    for index, kind, k in picks:
        pattern, text = pool[index]
        distance = _distance(pattern, text)
        bound = {
            "none": None, "zero": 0, "k": k,
            "below": max(distance - 1, 0), "at": distance, "above": distance + 1,
        }[kind]  # fmt: skip
        triples.append((pattern, text, bound))
    order = draw(st.permutations(range(len(triples))))
    return triples, order


@given(group=_group())
@settings(max_examples=150, deadline=None)
def test_kernel_against_textbook_levenshtein(group):
    """Every lane returns ``min(d, bound + 1)`` (``d`` for ``None``) in the
    drawn order and in a shuffled one: a lane's result does not depend on
    the lanes beside it, their number or their order."""
    triples, order = group
    expected = [_expected(*triple) for triple in triples]
    assert _run(triples) == expected
    assert _run([triples[i] for i in order]) == [expected[i] for i in order]


@pytest.mark.parametrize("length", PINNED_LENGTHS)
def test_every_bound_at_pinned_lengths(length):
    """All of ``None, 0, 1, ..., max(len)`` where the vectors gain a digit,
    a check falls or a lane runs out of guard bits, against a neighbour a
    few spread edits away (one text longer, one equal, one shorter) and
    against a block swap — every pair and bound one lane of one call, and
    the group of lanes re-packed as they exit."""
    text = ("abbab" * length)[:length]
    pairs = [
        _oriented(text, _spread_edits(text, 1 + length // 10, [kind], "ab"))
        for kind in ("insert", "substitute", "delete")
    ]
    half = length // 2
    pairs.append(("a" * half + "b" * (length - half), "b" * (length - half) + "a" * half))
    triples = [
        (pattern, other, bound)
        for pattern, other in pairs
        for bound in [None, *range(len(pattern) + 1)]
    ]
    assert _run(triples) == [_expected(*triple) for triple in triples]


def test_groups_are_near_equal(monkeypatch):
    """A batch is cut into groups of at most ``_LANES`` lanes whose sizes
    differ by at most one: 33 survivors scan as 16 + 17, never 32 + 1."""
    sizes = []
    scan = similarity._scan_lanes

    def recording_scan(group, width):
        sizes.append(len(group))
        return scan(group, width)

    monkeypatch.setattr(similarity, "_scan_lanes", recording_scan)
    for count in (1, 2, LANES, LANES + 1, 2 * LANES + 1, 80):
        sizes.clear()
        levenshtein_lanes(*_lanes([("abba", "ab", None)] * count))
        assert sum(sizes) == count and max(sizes) <= LANES
        assert max(sizes) - min(sizes) <= 1, (count, sizes)


# ----------------------------------------------------------------------
# Mutants: pinned multi-lane examples see what the derivation can get wrong
# ----------------------------------------------------------------------
def _mutant(*edits: tuple[str, str]):
    """The kernel with expressions of its scan's source replaced."""
    source = inspect.getsource(similarity._scan_lanes)
    for original, mutated in edits:
        assert source.count(original) == 1, f"kernel source no longer has {original!r}"
        source = source.replace(original, mutated)
    namespace = dict(vars(similarity))
    exec(source, namespace)
    exec(inspect.getsource(levenshtein_lanes), namespace)  # calls the mutated scan
    return namespace["levenshtein_lanes"]


TEXT = "abbab" * 8


def test_mutant_diagonal_row_off_by_one_is_caught():
    """One row too low reads ``D[j+1][j] = 1`` on identical texts, in every
    lane."""
    triples = [(TEXT, TEXT, 0)] * 4
    mutant = _mutant(("_low_bits(m - end, size)", "_low_bits(m - end + 1, size)"))
    assert _run(triples) == [0, 0, 0, 0]
    assert _run(triples, mutant) == [1, 1, 1, 1]


def test_mutant_bottom_row_for_diagonal_is_caught():
    """Without ``& diag`` the popcounts read each lane's bottom row
    ``D[m][j]``, which after 16 of 40 identical columns is still 24."""
    triples = [(TEXT, TEXT, 5)] * 4
    mutant = _mutant(
        ("(vp & diag).to_bytes", "vp.to_bytes"), ("(vn & diag).to_bytes", "vn.to_bytes")
    )
    assert _run(triples) == [0, 0, 0, 0]
    assert _run(triples, mutant) == [6, 6, 6, 6]


def test_mutant_unmasked_lane_leaks_into_the_next_is_caught():
    """Without the per-column ``& mask`` a lane's bits above its pattern
    grow by up to two a column; across 40 columns they reach the lane
    above, whose identical texts then read 41 — more than its 40 rows."""
    triples = [(TEXT, TEXT, None)] * 2
    mutant = _mutant(
        ("vp = ((hn << 1) | ((x | d0) ^ mask)) & mask", "vp = (hn << 1) | ((x | d0) ^ mask)")
    )
    assert _run(triples) == [0, 0]
    assert _run(triples, mutant)[1] == 41


def test_mutant_row_zero_delta_in_the_lowest_lane_only_is_caught():
    """``| 1`` gives only lane 0 its row-0 horizontal delta; the lanes
    above read identical texts as a row of mismatches."""
    triples = [(TEXT, TEXT, 0)] * 4
    mutant = _mutant(("x = (hp << 1) | lows", "x = (hp << 1) | 1"))
    assert _run(triples) == [0, 0, 0, 0]
    assert _run(triples, mutant) == [0, 1, 1, 1]


def test_mutant_diagonal_from_another_lanes_length_is_caught():
    """Each lane's diagonal starts ``m - n`` rows down its own column 0.
    Paired with the other lane's text length, the identical lane's starts
    32 rows down and reads ``D[j+32][j] = 32`` against its bound of 0."""
    triples = [("a" * 40, "a" * 8, 40), ("a" * 40, "a" * 40, 0)]
    mutant = _mutant(("zip(lengths, ends)", "zip(lengths, ends[::-1])"))
    assert _run(triples) == [32, 0]
    assert _run(triples, mutant) == [32, 1]


# ----------------------------------------------------------------------
# The cut-off as work: columns each lane advanced, not only its value
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


def _counted(triples):
    counted = [(pattern, _CountedText(text), bound) for pattern, text, bound in triples]
    return _run(counted), [text.consumed for _, text, _ in counted]


def test_block_swap_is_given_up_after_the_bound_not_after_the_block():
    """``D[j][j] = j`` while the scan is inside the first blocks, so the
    diagonal proves ``> 31`` at column 32 in both lanes — the bottom-row
    test ``D[m][j] - (n - j) > 31`` needs column 91."""
    distances, consumed = _counted([(BLOCK_SWAP[0], BLOCK_SWAP[1], 31), (*BLOCK_SWAP[::-1], 31)])
    assert distances == [32, 32]
    assert max(consumed) <= 40
    assert levenshtein(*BLOCK_SWAP) == 150


def test_identical_texts_are_scanned_to_the_end():
    text = "abbab" * 30
    distances, consumed = _counted([(text, text, 0)] * 3)
    assert distances == [0, 0, 0]
    assert consumed == [len(text)] * 3


def test_done_lanes_hold_their_slot_until_half_the_pack_is_done():
    """Two block swaps that exit at column 32 beside two identical texts
    make half the pack: it is re-packed and they advance no further.  One
    beside three is a quarter: it keeps its slot, and advances, to the end."""
    swap = (*BLOCK_SWAP, 31)
    same = (BLOCK_SWAP[0], BLOCK_SWAP[0], 0)
    assert _counted([swap, swap, same, same]) == ([32, 32, 0, 0], [32, 32, 150, 150])
    assert _counted([swap, same, same, same]) == ([32, 0, 0, 0], [150] * 4)


def test_dp_survivors_are_cut_off_early_through_the_matcher(small_dblp_acm, monkeypatch):
    """Columns the DP's lanes advance, as a share of the texts they are
    given to scan, over every cross-source pair of the fixture through
    ``_batch_scores`` (the experiments' ED matcher: 1,196 of 13,392 pairs
    reach the DP).  Measured 61,461 of 119,192 columns = 51.6 %, done
    lanes' columns until their re-pack included (47.6 % at cadence 8; the
    scalar kernel this replaced read 45.1 % at cadence 8, and the
    bottom-row test on the shorter text's table 66.9 %)."""
    consumed = scanned = 0

    def counting_kernel(lanes, width):
        nonlocal consumed, scanned
        counted = [(table, m, _CountedText(text), bound) for table, m, text, bound in lanes]
        distances = levenshtein_lanes(counted, width)
        consumed += sum(text.consumed for _, _, text, _ in counted)
        scanned += sum(len(text) for _, _, text, _ in counted)
        return distances

    monkeypatch.setattr(matcher_module, "levenshtein_lanes", counting_kernel)
    matcher = _build_matcher("ED")
    left = [profile for profile in small_dblp_acm.profiles if profile.source == 0]
    right = [profile for profile in small_dblp_acm.profiles if profile.source == 1]
    lookup = {profile.pid: profile for profile in small_dblp_acm.profiles}
    matcher._batch_scores([(x.pid, y.pid) for x in left for y in right], lookup)
    assert matcher.kernel_counts["dp_calls"] > 1000
    assert consumed <= 0.52 * scanned
