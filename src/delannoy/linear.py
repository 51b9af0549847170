"""Sparse exact linear combinations over a fixed basis, and their JSON fields.

Hom spaces of the path category, the Grothendieck ring and its tensor square,
and Schwartz functions are all vector spaces with a fixed basis (paths, weight
words, pairs of words, cells).  `Combination` holds the arithmetic they share;
a subclass supplies its space, its key check, its canonical term order and
its JSON shape.

One number rule holds for every coefficient and breakpoint: `number` stores
an integral value as an `int` and any other rational as a `Fraction`.  Most
values in the category are integers (composition signs, dimensions +-1,
binomial multiplicities), so arithmetic stays in `int` until a real division
makes a `Fraction`.

`Frozen` is the base of every immutable value: the combinations, and the
paths, intervals and polynomials, which are plain slotted classes rather
than dataclasses so that importing the package does not load `dataclasses`.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction
from types import MappingProxyType


def number(value) -> int | Fraction:
    """The stored form of a rational: an int when it is integral, a Fraction otherwise."""
    if type(value) is int:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def frac_str(q: int | Fraction) -> str:
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


def json_field(data, name: str, convert: Callable | None = None):
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


class Frozen:
    """A value whose slots are set once, in `__init__`, and never again.

    A subclass sets its slots through `object.__setattr__`.  Unless it says
    otherwise in `__reduce__`, its `__slots__` are its constructor arguments
    in order, so that pickle and copy rebuild a value through the constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):  # for pickle and copy, which would set the slots one by one
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Combination(Frozen):
    """A finitely supported rational combination of basis keys.

    Construction keeps the nonzero terms, each key passed through the
    subclass's `_check_key` and each coefficient through `number`, and holds
    them in a read-only `coeffs` mapping; no attribute can be set afterwards.
    Operands of `+`, `-` and `==` are brought to one space by `_align`;
    results are built by `_new`, so through the subclass's `__init__`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None) -> None:
        check = self._check_key
        clean = {}
        for k, c in (coeffs or {}).items():
            if type(c) is not int:
                c = number(c)
            if c:
                clean[check(k)] = c
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    def __reduce__(self):
        return type(self), (*self._space(), dict(self.coeffs))

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

    __hash__ = None  # a SchwartzFn equals its refinements, which have other cells

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        coeffs = a.coeffs.copy()
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
        s = number(scalar)
        return self._new({k: c * s for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def loads(cls, text: str):
        return cls.from_json(json.loads(text))
