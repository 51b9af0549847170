"""Sparse exact linear combinations over a fixed basis, and their JSON fields.

Hom spaces of the path category, the Grothendieck ring and its tensor square,
and Schwartz functions are all vector spaces with a fixed basis (paths, weight
words, pairs of words, cells).  `Combination` holds the arithmetic they share;
a subclass supplies its space, its key check, its canonical term order and
its JSON shape.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(value) -> Fraction:
    """An exact rational read from JSON: an integer, or a string such as "-3/2".

    A float or a bool is refused: a float holds a binary approximation (0.1
    would become 3602879701896397/36028797018963968), and JSON's true and
    false are no numbers.
    """
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"expected an integer or a fraction string, got {value!r}")


def json_int(value) -> int:
    """An integer read from JSON; a float or a bool is refused."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def exact(c: Fraction) -> int | Fraction:
    """An integral coefficient as an int, so that products stay in int arithmetic."""
    return c.numerator if c.denominator == 1 else c


def json_field(data, name: str, convert: Optional[Callable] = None):
    """`convert(data[name])` for a JSON object; ValueError naming the field otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with field {name!r}, got {type(data).__name__}")
    if name not in data:
        raise ValueError(f"missing field {name!r}")
    if convert is None:
        return data[name]
    try:
        return convert(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


class Combination:
    """A finitely supported rational combination of basis keys.

    Construction keeps the nonzero terms, each key passed through the
    subclass's `_check_key`.  Operands of `+`, `-` and `==` are brought to one
    space by `_align`; results are built by `_new`, so through the subclass's
    `__init__`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None) -> None:
        check = self._check_key
        clean = {}
        for k, c in (coeffs or {}).items():
            if type(c) is not Fraction:  # a Fraction is immutable and kept as it is
                c = Fraction(c)
            if c:
                clean[check(k)] = c
        self.coeffs = clean

    def _check_key(self, key):
        """The key, validated for this space (ValueError if it does not belong)."""
        raise NotImplementedError

    @staticmethod
    def _sort_key(key):
        """The canonical order of basis keys."""
        return key

    def _space(self) -> tuple:
        """The constructor arguments that come before `coeffs`."""
        return ()

    def _new(self, coeffs: dict):
        return type(self)(*self._space(), coeffs)

    def _align(self, other):
        """(self, other) over one common space, or None if `other` is no operand."""
        if not isinstance(other, type(self)):
            return None
        if self._space() != other._space():
            raise ValueError(
                f"{type(self).__name__} spaces differ: {self._space()} vs {other._space()}"
            )
        return self, other

    def terms(self) -> list:
        """(key, coeff) pairs in the canonical order of the basis."""
        key = self._sort_key
        return sorted(self.coeffs.items(), key=lambda kv: key(kv[0]))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        try:
            pair = self._align(other)
        except ValueError:  # combinations over different spaces
            return False
        if pair is None:
            return NotImplemented
        return pair[0].coeffs == pair[1].coeffs

    __hash__ = None  # mutable; a SchwartzFn also equals its refinements

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        coeffs = dict(a.coeffs)
        for k, c in b.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c
        return a._new(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return self._new({k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def loads(cls, text: str):
        return cls.from_json(json.loads(text))
