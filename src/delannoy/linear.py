"""Sparse exact linear combinations over a fixed basis, and their JSON fields.

Hom spaces of the path category, the Grothendieck ring and its tensor square,
and Schwartz functions are all vector spaces with a fixed basis (paths, weight
words, pairs of words, cells).  `Combination` holds the arithmetic they share;
a subclass supplies its space, its key check, its canonical term order and
its JSON shape.  A rule on basis keys (a ring product, the antipode, the
pushforward of a cell) acts on combinations through `linear_map` or
`bilinear_map`.

One number rule holds for every coefficient, breakpoint and scalar result
(a trace, a pairing, an integral, a determinant): `number` gives an integral
value as an `int` and any other rational as a `Fraction`.  Most values in the
category are integers (composition signs, dimensions +-1, binomial
multiplicities), so arithmetic stays in `int` until a real division makes a
`Fraction`.

`Frozen` is the base of every immutable value: the combinations, and the
paths, intervals and polynomials, which are plain slotted classes rather
than dataclasses so that importing the package does not load `dataclasses`.
It gives them equality, hashing and repr over their slots, and JSON text.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction
from operator import index
from types import MappingProxyType


def number(value) -> int | Fraction:
    """The stored form of a rational: an int when it is integral, a Fraction otherwise."""
    if type(value) is int:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _arity(n, name: str = "arity") -> int:
    """n as an arity or other count; ValueError unless it is a non-negative int (not a bool)."""
    if type(n) is bool or not hasattr(n, "__index__") or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")
    return index(n)


def frac_str(q: int | Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(value) -> int | Fraction:
    """An exact rational read from JSON: an integer, or a string such as "-3/2",
    in the form `number` gives.

    A float or a bool is refused: a float holds a binary approximation (0.1
    would become 3602879701896397/36028797018963968), and JSON's true and
    false are no numbers.
    """
    if type(value) is int or isinstance(value, str):
        try:
            return number(value)
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
    """A value whose slots are set once, when it is built, and never again.

    `__setattr__` refuses every assignment, so a subclass sets its slots
    around it, through `object.__setattr__` or, in its hot builds, through
    the slot descriptors themselves.  Unless it says otherwise in
    `__reduce__`, its `__slots__` are its constructor arguments in order, so
    that pickle and copy rebuild a value through the constructor.  Values
    equal when they have one class and equal slots, hash as the tuple of
    their slots and print as `Cls(slot=value, ...)`, like a frozen dataclass;
    a subclass with `to_json` and `from_json` reads and writes JSON text.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):  # for pickle and copy, which would set the slots one by one
        return type(self), self._fields()

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def loads(cls, text: str):
        return cls.from_json(json.loads(text))


class Combination(Frozen):
    """A finitely supported rational combination of basis keys.

    Construction keeps the nonzero terms, each key passed through the
    subclass's `_check_key` and each coefficient through `number`, and holds
    them in a read-only `coeffs` mapping; no attribute can be set afterwards.
    Operands of `+`, `-` and `==` are brought to one space by `_align`.
    `_trusted` builds the engine's results, and `_new` the results of
    arithmetic, whose keys come from checked operands: without the space and
    key checks, but with the number rule, and zero terms are dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None) -> None:
        check, coeffs = self._check_key, coeffs or {}
        clean = {check(k): c for k, c in zip(coeffs, map(number, coeffs.values())) if c}
        _set_coeffs(self, MappingProxyType(clean))

    @classmethod
    def _trusted(cls, *args):
        """`cls(*args)` for results whose space and keys are already valid.

        The object is built without `__init__`, its space and keys stored
        unchecked, so only for keys made in that space.  It takes ownership
        of its dict, which no one else may hold: when every value is a nonzero
        `int`, the dict itself becomes `coeffs`, with no key inserted or hashed
        again.  Otherwise the number rule is applied (a sum of Fractions can
        be integral) and zero terms are dropped.
        """
        *space, coeffs = args
        values = coeffs.values()
        if not (_INT.issuperset(map(type, values)) and 0 not in values):
            coeffs = {k: c for k, c in zip(coeffs, map(number, values)) if c}
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, space):
            getattr(cls, name).__set__(self, value)
        _set_coeffs(self, MappingProxyType(coeffs))
        return self

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
        return self._trusted(*self._space(), coeffs)

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


_INT = frozenset((int,))  # the one coefficient type `_trusted` adopts as it is
_set_coeffs = Combination.coeffs.__set__


def linear_map(cls, space: tuple, image: Callable, x: Combination):
    """The linear extension of a basis rule, applied to x, as `cls(*space, ...)`.

    `image(key)` gives one key's image as (key, coeff) pairs.  The result is
    built by `_trusted`, so the rule must map valid keys to valid keys.
    """
    out: dict = {}
    for k, c in x.coeffs.items():
        for t, d in image(k):
            out[t] = out.get(t, 0) + c * d
    return cls._trusted(*space, out)


def bilinear_map(cls, space: tuple, image: Callable, x: Combination, y: Combination):
    """The bilinear extension of a basis rule `image(key of x, key of y)`,
    applied to (x, y), as `linear_map` does it for one argument."""
    out: dict = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            scale = cu * cv
            for t, d in image(u, v):
                out[t] = out.get(t, 0) + scale * d
    return cls._trusted(*space, out)
