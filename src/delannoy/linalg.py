"""Fraction-free exact rank computation for small dense matrices."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvariantError


def _integer_rows(rows: Sequence[Sequence[int | Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank is unchanged)."""
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over the rationals, by Bareiss fraction-free elimination.

    Every intermediate entry is a minor of the integer matrix, so all
    divisions are exact; this is checked rather than assumed.
    """
    m = _integer_rows(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, nrows):
            factor = m[r][col]
            for c in range(col, ncols):
                num = m[r][c] * pivot - factor * m[rank][c]
                q, rem = divmod(num, prev)
                if rem:
                    raise InvariantError("fraction-free elimination produced a non-exact division")
                m[r][c] = q
        prev = pivot
        rank += 1
        if rank == nrows:
            break
    return rank
