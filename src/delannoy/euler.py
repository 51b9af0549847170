"""Exact functions on ordered tuples, integrated against Euler characteristic.

The model: a function on the ordered tuples x_1 < ... < x_n is determined,
relative to a finite set of breakpoints b_0 < ... < b_{m-1}, by its value on
each *cell*.  A cell records, for every coordinate, whether it sits on a
breakpoint or in one of the m+1 open gaps between them.  We index slots as

    slot 0      the gap (-inf, b_0)
    slot 2k+1   the point b_k
    slot 2k     the gap (b_{k-1}, b_k),   slot 2m the gap (b_{m-1}, +inf)

and a cell signature is a weakly increasing tuple of n slots, strictly
increasing at point slots (a point hosts at most one coordinate).  A cell with
j coordinates in gap slots is a product of points and open simplices and has
Euler volume (-1)^j: points count 1, open intervals count -1.

Everything is exact.  Coefficients and breakpoints follow the number rule of
`linear`: an `int` when integral, a `Fraction` otherwise.  Functions are
stored sparsely as cell -> coefficient maps; two functions are equal, add and
multiply after refining to a common breakpoint set.

The pairing does not refine: pair(f, g) = sum of f_a * g_b * prod_i
sign(a_i, b_i) over cells a of f and b of g, where the sign of two slots is
0 if they do not meet, +1 if they meet in a point and -1 if they meet in an
open interval.  Integer coefficients give an integer sum.

Indicators are written down cell by cell, with no search over the cells: a
word of length n has the 2^n cells that pick, per letter, one of its two
slots, and a tuple of half-open intervals has the product of the slot runs
that the intervals cover.  `category.multiplicity_rank` reads the same two
slots per letter (`_key_slots`) to pair with the key indicator factor by
factor.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .linear import (Combination, Frozen, _arity, frac_str, json_field, json_int, linear_map,
                     number, parse_frac)
from .paths import check_weight

Signature = tuple[int, ...]


def _check_breakpoints(breakpoints: Sequence[Fraction]) -> tuple[int | Fraction, ...]:
    bp = tuple(map(number, breakpoints))
    if any(not a < b for a, b in zip(bp, bp[1:])):
        raise ValueError(f"breakpoints {bp} are not strictly increasing")
    return bp


def iter_signatures(arity: int, num_breakpoints: int) -> Iterator[Signature]:
    """All cell signatures of the given arity over 2*num_breakpoints+1 slots."""
    return _iter_over_slots(tuple(range(2 * _arity(num_breakpoints) + 1)), _arity(arity))


def _iter_over_slots(slots: tuple[int, ...], count: int) -> Iterator[Signature]:
    """Weakly increasing count-tuples from an ordered slot list, points unrepeated."""
    if count == 0:
        yield ()
        return

    def rec(start: int, k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        for i in range(start, len(slots)):
            s = slots[i]
            nxt = i + 1 if s % 2 == 1 else i
            for rest in rec(nxt, k - 1):
                yield (s,) + rest

    yield from rec(0, count)


@lru_cache(maxsize=None, typed=True)  # so that 2.0 misses the entry of 2, and is refused
def cell_count(arity: int, num_breakpoints: int) -> int:
    """Number of cell signatures, counted by a slot-by-slot recursion."""
    arity, num_breakpoints = _arity(arity), _arity(num_breakpoints)

    @lru_cache(maxsize=None)
    def count(slot: int, k: int) -> int:
        if k == 0:
            return 1
        if slot > 2 * num_breakpoints:
            return 0
        if slot % 2 == 1:
            # point slot: used once or skipped
            return count(slot + 1, k - 1) + count(slot + 1, k)
        # gap slot: any number of coordinates may sit here
        return sum(count(slot + 1, k - j) for j in range(k + 1))

    return count(0, arity)


def cell_volume(sig: Signature) -> int:
    """Euler volume of a cell: (-1) for every coordinate in a gap slot."""
    return -1 if sum(1 for s in sig if s % 2 == 0) % 2 else 1


def cell_representative(breakpoints: Sequence[Fraction], sig: Signature) -> tuple[Fraction, ...]:
    """A deterministic exact point of the cell, the tests' reference point.

    Coordinates on point slots sit on the breakpoint itself; k coordinates
    sharing a gap are spread at rational positions inside it.  The engine
    reads a cell's layout among the breakpoints from its path instead, in the
    cell table of `category`.
    """
    bp = tuple(breakpoints)
    m = len(bp)
    out: list[Fraction] = []
    i = 0
    while i < len(sig):
        s = sig[i]
        if s % 2 == 1:
            out.append(bp[(s - 1) // 2])
            i += 1
            continue
        j = i
        while j < len(sig) and sig[j] == s:
            j += 1
        k = j - i
        left = bp[s // 2 - 1] if s > 0 else None
        right = bp[s // 2] if s < 2 * m else None
        if left is None and right is None:
            pts = [t + 1 for t in range(k)]
        elif left is None:
            pts = [right - (k - t) for t in range(k)]
        elif right is None:
            pts = [left + (t + 1) for t in range(k)]
        else:
            width = right - left
            pts = [left + width * Fraction(t + 1, k + 1) for t in range(k)]
        out.extend(pts)
        i = j
    return tuple(out)


class SchwartzFn(Combination):
    """A finitely presented function on ordered n-tuples: cells + coefficients.

    Two functions are equal, and add, after refining both to the union of
    their breakpoints.
    """

    __slots__ = ("arity", "breakpoints")

    def __init__(
        self,
        arity: int,
        breakpoints: Sequence[Fraction],
        coeffs: dict[Signature, Fraction],
    ):
        object.__setattr__(self, "arity", _arity(arity))
        object.__setattr__(self, "breakpoints", _check_breakpoints(breakpoints))
        super().__init__(coeffs)

    def _check_key(self, sig: Signature) -> Signature:
        sig = tuple(sig)
        if len(sig) != self.arity:
            raise ValueError(f"signature {sig} does not have arity {self.arity}")
        num_breakpoints = len(self.breakpoints)
        top = 2 * num_breakpoints
        prev = -1
        for s in sig:
            if not 0 <= s <= top:
                raise ValueError(f"slot {s} out of range for {num_breakpoints} breakpoints")
            if s < prev or (s == prev and s % 2 == 1):
                raise ValueError(f"signature {sig} is not valid (order / repeated point)")
            prev = s
        return sig

    def _space(self) -> tuple:
        return (self.arity, self.breakpoints)

    def _align(self, other):
        if not isinstance(other, SchwartzFn):
            return None
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        common = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        return refine(self, common), refine(other, common)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "SchwartzFn":
        return cls(arity, (), {})

    @classmethod
    def constant(cls, value: Fraction, arity: int = 0) -> "SchwartzFn":
        return cls(arity, (), {(0,) * arity: value})

    # -- basic structure -----------------------------------------------------

    def value_at_cell(self, sig: Signature) -> Fraction:
        return Fraction(self.coeffs.get(tuple(sig), 0))

    def scalar_value(self) -> Fraction:
        """The single value of an arity-0 function."""
        if self.arity != 0:
            raise ValueError("scalar_value requires arity 0")
        return Fraction(self.coeffs.get((), 0))

    def __mul__(self, other):
        if isinstance(other, SchwartzFn):
            return multiply(self, other)
        return super().__mul__(other)

    def __repr__(self) -> str:
        return (
            f"SchwartzFn(arity={self.arity}, breakpoints={[str(b) for b in self.breakpoints]}, "
            f"{len(self.coeffs)} cells)"
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.arity,
            "breakpoints": [frac_str(b) for b in self.breakpoints],
            "cells": [{"slots": list(sig), "coeff": frac_str(c)} for sig, c in self.terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SchwartzFn":
        return cls(
            json_field(data, "n", json_int),
            json_field(data, "breakpoints", lambda bps: tuple(parse_frac(b) for b in bps)),
            {json_field(c, "slots", lambda s: tuple(map(json_int, s))):
             json_field(c, "coeff", parse_frac)
             for c in json_field(data, "cells", list)},
        )


def point_mass(a: Sequence[Fraction]) -> SchwartzFn:
    """Indicator of the single tuple a (every coordinate on its breakpoint)."""
    bp = _check_breakpoints(a)
    sig = tuple(2 * k + 1 for k in range(len(bp)))
    return SchwartzFn(len(bp), bp, {sig: 1})


def indicator_of_cell(
    arity: int, breakpoints: Sequence[Fraction], sig: Signature
) -> SchwartzFn:
    return SchwartzFn(arity, breakpoints, {tuple(sig): 1})


def integrate(f: SchwartzFn) -> Fraction:
    """Total Euler integral: sum of coefficient times cell volume."""
    return Fraction(sum(c * cell_volume(sig) for sig, c in f.coeffs.items()))


def _merge_points(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[list[int], list[int], int]:
    """The point slots of p's and of q's breakpoints over the union of both,
    and the union's top slot; a merge by comparison, hashing no breakpoint."""
    slots_p: list[int] = []
    slots_q: list[int] = []
    i = j = 0
    slot = 1
    while i < len(p) and j < len(q):
        a, b = p[i], q[j]
        if not b < a:
            slots_p.append(slot)
            i += 1
        if not a < b:
            slots_q.append(slot)
            j += 1
        slot += 2
    for rest, slots in ((len(p) - i, slots_p), (len(q) - j, slots_q)):
        slots.extend(range(slot, slot + 2 * rest, 2))
        slot += 2 * rest
    return slots_p, slots_q, slot - 1


def _slot_spans(points: list[int], top: int) -> list[tuple[int, int]]:
    """For each slot over some breakpoints, the range [lo, hi] of slots over a
    finer set that it covers, given the breakpoints' point slots over the
    finer set and its top slot."""
    spans = []
    lo = 0
    for p in points:
        spans += [(lo, p - 1), (p, p)]
        lo = p + 1
    spans.append((lo, top))
    return spans


def refine(f: SchwartzFn, finer: Sequence[Fraction]) -> SchwartzFn:
    """Re-express f over a superset of its breakpoints.

    A gap slot splits into the alternating run gap/point/gap/... of new slots
    it contains; coordinates sharing a gap redistribute over the run in all
    weakly increasing ways.  Each (slot, group size) is expanded once per
    call, into a table that every cell reads.
    """
    fine = _check_breakpoints(finer)
    if fine == f.breakpoints:
        return f
    points, _, top = _merge_points(f.breakpoints, fine)
    if top != 2 * len(fine):
        raise ValueError("refinement must contain the original breakpoints")
    expansion = [tuple(range(lo, hi + 1)) for lo, hi in _slot_spans(points, top)]
    groups: dict[tuple[int, int], tuple[Signature, ...]] = {}  # (slot, group size) -> images

    def image(sig: Signature) -> list[tuple[Signature, int]]:
        out = [()]
        for s in dict.fromkeys(sig):
            key = (s, sig.count(s))
            parts = groups.get(key)
            if parts is None:
                parts = groups[key] = tuple(_iter_over_slots(expansion[s], key[1]))
            out = [head + part for head in out for part in parts]
        return [(t, 1) for t in out]

    return linear_map(SchwartzFn, (f.arity, fine), image, f)


def multiply(f: SchwartzFn, g: SchwartzFn) -> SchwartzFn:
    """Pointwise product, computed cellwise over the common refinement."""
    a, b = f._align(g)
    small, large = (a, b) if len(a.coeffs) <= len(b.coeffs) else (b, a)
    coeffs = {}
    for sig, c in small.coeffs.items():
        d = large.coeffs.get(sig)
        if d is not None:
            coeffs[sig] = c * d
    return a._new(coeffs)


def pair(f: SchwartzFn, g: SchwartzFn) -> Fraction:
    """The bilinear pairing: the Euler integral of the pointwise product.

    Coordinate i of the meet of a cell a of f and a cell b of g ranges over
    the meet of the slots a_i and b_i.  Coordinates whose slot pairs differ
    lie in disjoint intervals, already in order; coordinates sharing a slot
    pair share one open interval.  So the meet of the cells is a product of
    points and open simplices, with Euler characteristic prod_i sign(a_i, b_i)
    (see the module docstring).  Over the union of the breakpoints a point
    slot spans one odd slot and a gap slot a range with even ends, so the
    meet of the two spans gives the sign.
    """
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    points_f, points_g, top = _merge_points(f.breakpoints, g.breakpoints)
    spans_f, spans_g = _slot_spans(points_f, top), _slot_spans(points_g, top)
    left = (([spans_f[s] for s in a], c) for a, c in f.coeffs.items())
    right = [([spans_g[t] for t in b], d) for b, d in g.coeffs.items()]
    return Fraction(_pair_spans(left, right))


def _pair_spans(left: Iterable[tuple[list, int | Fraction]],
                right: list[tuple[list, int | Fraction]]) -> int | Fraction:
    """The pairing of two sets of cells, each given as the spans of its slots
    over one common set of breakpoints, with its coefficient."""
    total = 0
    for a, c in left:
        for b, d in right:
            sign = 1
            for (lo, hi), (lo2, hi2) in zip(a, b):
                if lo2 > lo:
                    lo = lo2
                if hi2 < hi:
                    hi = hi2
                if lo > hi:  # the slots do not meet
                    break
                if lo < hi or not lo % 2:  # an open interval
                    sign = -sign
            else:
                total += sign * c * d
    return total


def pushforward_coordinate(f: SchwartzFn, i: int) -> SchwartzFn:
    """Integrate out coordinate i (0-based).

    The fiber of a cell over the remaining coordinates is a single point
    (volume 1) or a single open interval (volume -1), so each cell contributes
    its coefficient with that sign to the signature with slot i dropped.
    """
    if not 0 <= i < f.arity:
        raise ValueError(f"coordinate {i} out of range for arity {f.arity}")
    return linear_map(SchwartzFn, (f.arity - 1, f.breakpoints),
                      lambda sig: ((sig[:i] + sig[i + 1 :], 1 if sig[i] % 2 else -1),), f)


def integrate_fully(f: SchwartzFn, order: Sequence[int] | None = None) -> Fraction:
    """Integrate by iterated one-coordinate pushforwards, in any order."""
    g = f
    remaining = list(range(f.arity))
    order = list(order) if order is not None else list(range(f.arity))
    if sorted(order) != list(range(f.arity)):
        raise ValueError("order must be a permutation of the coordinates")
    for coord in order:
        g = pushforward_coordinate(g, remaining.index(coord))
        remaining.remove(coord)
    return g.scalar_value()


class HalfOpenInterval(Frozen):
    """An interval containing exactly one of its endpoints.

    kind 'b' is (lo, closed] with the right endpoint included (lo may be None
    for -inf); kind 'w' is [closed, hi) with the left endpoint included (hi
    may be None for +inf).  Intervals equal and hash as the triple
    (kind, closed, open_end).
    """

    __slots__ = ("kind", "closed", "open_end")

    def __init__(self, kind: str, closed: int | Fraction,
                 open_end: int | Fraction | None) -> None:
        if kind not in ("b", "w"):
            raise ValueError("kind must be 'b' (right-closed) or 'w' (left-closed)")
        closed = number(closed)
        if open_end is not None:
            open_end = number(open_end)
            if kind == "b" and not open_end < closed:
                raise ValueError("right-closed interval needs open_end < closed")
            if kind == "w" and not closed < open_end:
                raise ValueError("left-closed interval needs closed < open_end")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "open_end", open_end)

    def contains(self, x: Fraction) -> bool:
        if self.kind == "b":
            return x <= self.closed and (self.open_end is None or self.open_end < x)
        return self.closed <= x and (self.open_end is None or x < self.open_end)

    def finite_endpoints(self) -> list[Fraction]:
        out = [self.closed]
        if self.open_end is not None:
            out.append(self.open_end)
        return out


def interval_indicator(intervals: Sequence[HalfOpenInterval]) -> SchwartzFn:
    """Indicator of an increasing tuple of disjoint half-open intervals.

    Over the sorted finite endpoints each interval covers a contiguous run of
    slots, and the indicator is the product of these runs.  The intervals are
    disjoint and increasing exactly when each run ends before the next one
    starts.  The empty tuple gives the constant 1 in arity 0.  Each factor
    integrates to 0 (open part -1, closed endpoint +1), so the total integral
    vanishes for every nonempty tuple.
    """
    bp = sorted({e for iv in intervals for e in iv.finite_endpoints()})
    point = {b: 2 * k + 1 for k, b in enumerate(bp)}
    runs = []
    for iv in intervals:
        if iv.kind == "b":  # (open_end, closed]: from the gap after open_end
            lo = 0 if iv.open_end is None else point[iv.open_end] + 1
            hi = point[iv.closed]
        else:  # [closed, open_end): up to the gap before open_end
            lo = point[iv.closed]
            hi = 2 * len(bp) if iv.open_end is None else point[iv.open_end] - 1
        runs.append(range(lo, hi + 1))
    if any(r[-1] >= s[0] for r, s in zip(runs, runs[1:])):
        raise ValueError("intervals must be disjoint and increasing")
    return SchwartzFn(len(runs), bp, dict.fromkeys(product(*runs), 1))


def key_indicator(word: str, a: Sequence[Fraction]) -> SchwartzFn:
    """Indicator of the one-sided region attached to a weight word at basepoints a.

    Coordinate i is tied to a_i on the side named by the letter ('b': x_i <=
    a_i, 'w': a_i <= x_i) and interleaves strictly with the neighboring
    basepoints (x_i < a_{i+1} and a_i < x_{i+1}).  So letter i allows two
    slots: the gap before a_i or a_i itself for 'b', a_i or the gap after it
    for 'w'.  The indicator is 1 on the 2^n cells that pick one slot per letter.
    """
    check_weight(word)
    bp = _check_breakpoints(a)
    if len(word) != len(bp):
        raise ValueError("word length must match the number of basepoints")
    return SchwartzFn(len(bp), bp, dict.fromkeys(product(*_key_slots(word)), 1))


def _key_slots(word: str) -> list[tuple[int, int]]:
    """The two slots letter i of a word allows, over its basepoints."""
    return [(2 * i, 2 * i + 1) if letter == "b" else (2 * i + 1, 2 * i + 2)
            for i, letter in enumerate(word)]
