"""Textbook Levenshtein distance: the full (m+1) × (n+1) table.

Shares no code with ``repro.matching`` — no band, no bit vectors, no early
exit, no filters — so a defect common to the production kernels and the
filter stages in front of them cannot hide behind it.
"""

from __future__ import annotations


def levenshtein(text_x: str, text_y: str) -> int:
    rows, columns = len(text_x), len(text_y)
    table = [[0] * (columns + 1) for _ in range(rows + 1)]
    for i in range(rows + 1):
        table[i][0] = i
    for j in range(columns + 1):
        table[0][j] = j
    for i in range(1, rows + 1):
        for j in range(1, columns + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (text_x[i - 1] != text_y[j - 1]),
            )
    return table[rows][columns]
