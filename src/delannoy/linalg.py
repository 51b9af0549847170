"""Fraction-free exact rank and determinant of small dense matrices."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm, prod

from .errors import InvariantError
from .linear import number


def _integer_rows(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], int]:
    """Each row scaled by the lcm of its denominators, and the product of the scales.

    Scaling leaves the rank unchanged and multiplies the determinant by that product.
    """
    out, scales = [], []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
        scales.append(scale)
    return out, prod(scales)


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Bareiss fraction-free elimination of an integer matrix, in place.

    Returns (rank, row swaps, last pivot).  Every intermediate entry is a
    minor of the matrix, so all divisions are exact; this is checked rather
    than assumed.  When a square matrix has full rank, its last pivot is its
    determinant up to the sign of the swaps.
    """
    if not m or not m[0]:
        return 0, 0, 1
    nrows, ncols = len(m), len(m[0])
    rank = swaps = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            swaps += 1
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
    return rank, swaps, prev


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over the rationals, by Bareiss fraction-free elimination."""
    return _bareiss(_integer_rows(rows)[0])[0]


def determinant(rows: Sequence[Sequence[int | Fraction]]) -> int | Fraction:
    """Determinant of a square matrix over the rationals, by the same elimination.

    The empty matrix has determinant 1.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant requires a square matrix")
    m, scale = _integer_rows(rows)
    rank, swaps, last = _bareiss(m)
    if rank < len(m):
        return 0
    return number(Fraction(-last if swaps % 2 else last, scale))
