"""The Grothendieck ring on weight words, with all of its products and operators.

Basis elements are words over the two-letter alphabet {'b', 'w'}.  The ring
carries:

  * the concatenation product (word concatenation, non-commutative);
  * the standard product, summing over interleavings of the two words in
    which letters may collide: equal letters keep the letter, and a mixed
    collision expands to b + w + (deletion);
  * induction K (x) K -> K and restriction K -> K (x) K (splitting a word
    between letters, plus splittings that delete one letter);
  * the counit word -> (-1)^length, the antipode defined by its recursion,
    and the involution swapping the two letters;
  * binomial operations binom(x, n), Adams operations via Newton's
    identities, and Schur operations through integer-valued polynomials
    given by the hook content formula.

Coefficients follow the number rule of `linear`: an `int` when integral, a
`Fraction` otherwise, so a `Fraction` appears only after a real division (the
/j step of the binomial chain) or where a caller supplies one.  In the product
engine, `_tensor_basis` is a bottom-up dynamic programme over suffix pairs
(Hoffman's quasi-shuffle recursion), and it and `_antipode_word` keep
immutable (word, int) tuples in LRU caches of `_CACHE_SIZE` entries.  Outputs
that must be integral raise `InvariantError` if they are not.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from numbers import Rational

from .errors import InvariantError
from .linear import Combination, Frozen, frac_str, json_field, parse_frac
from .paths import check_weight

_CACHE_SIZE = 4096  # entries per memo; a ring-products round uses about 600 pairs
_MIXED = ("b", "w", "")  # the words of b + w + 1: what a b/w collision emits


class KClass(Combination):
    """A finitely supported rational combination of weight words.

    A rational scalar in `+`, `-` or `==` stands for that multiple of the unit.
    """

    __slots__ = ()

    def _check_key(self, w: str) -> str:
        return check_weight(w)

    @staticmethod
    def _sort_key(w: str):
        return (len(w), w)

    def _align(self, other):
        if isinstance(other, Rational):
            other = KClass({"": other})
        return super()._align(other)

    @classmethod
    def unit(cls) -> "KClass":
        return cls({"": 1})

    @classmethod
    def word(cls, w: str) -> "KClass":
        return cls({w: 1})

    def degree(self):
        """Filtration degree: longest word in the support (-inf for zero)."""
        return max((len(w) for w in self.coeffs), default=float("-inf"))

    def __mul__(self, other):
        if isinstance(other, KClass):
            return tensor_mul(self, other)
        return super().__mul__(other)

    def concat(self, other: "KClass") -> "KClass":
        return concat_mul(self, other)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def __repr__(self) -> str:
        """The terms as coeff*word joined by +, the empty word written 1."""
        return " + ".join(f"{c}*{w or '1'}" for w, c in self.terms()) or "0"

    def to_json(self) -> dict:
        return {"terms": [{"word": w, "coeff": frac_str(c)} for w, c in self.terms()]}

    @classmethod
    def from_json(cls, data: dict) -> "KClass":
        return cls({json_field(t, "word"): json_field(t, "coeff", parse_frac)
                    for t in json_field(data, "terms", list)})


class KTensorClass(Combination):
    """A finitely supported rational combination of pairs of weight words."""

    __slots__ = ()

    def _check_key(self, key: tuple[str, str]) -> tuple[str, str]:
        u, v = key
        return (check_weight(u), check_weight(v))

    @staticmethod
    def _sort_key(key: tuple[str, str]):
        u, v = key
        return (len(u), u, len(v), v)

    @classmethod
    def pure(cls, x: KClass, y: KClass) -> "KTensorClass":
        return cls(
            {(u, v): cx * cy for u, cx in x.coeffs.items() for v, cy in y.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, KTensorClass):
            out: dict[tuple[str, str], int | Fraction] = {}
            for (u1, v1), c1 in self.coeffs.items():
                for (u2, v2), c2 in other.coeffs.items():
                    scale = c1 * c2
                    right = _tensor_basis(v1, v2)
                    for lu, cl in _tensor_basis(u1, u2):
                        for rv, cr in right:
                            key = (lu, rv)
                            out[key] = out.get(key, 0) + scale * cl * cr
            return KTensorClass(out)
        return super().__mul__(other)

    def term_texts(self) -> list[str]:
        """Each term as num/den*(u (x) v), the empty word written 1."""
        return [f"{frac_str(c)}*({u or '1'} (x) {v or '1'})" for (u, v), c in self.terms()]

    def __repr__(self) -> str:
        return " + ".join(self.term_texts()) or "0"

    def to_json(self) -> dict:
        return {"terms": [{"left": u, "right": v, "coeff": frac_str(c)}
                          for (u, v), c in self.terms()]}

    @classmethod
    def from_json(cls, data: dict) -> "KTensorClass":
        return cls({
            (json_field(t, "left"), json_field(t, "right")): json_field(t, "coeff", parse_frac)
            for t in json_field(data, "terms", list)
        })


def concat_mul(x: KClass, y: KClass) -> KClass:
    """Bilinear extension of word concatenation."""
    coeffs: dict[str, int | Fraction] = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            w = u + v
            coeffs[w] = coeffs.get(w, 0) + cu * cv
    return KClass(coeffs)


@lru_cache(maxsize=_CACHE_SIZE)
def _tensor_basis(lam: str, mu: str) -> tuple[tuple[str, int], ...]:
    """Standard product of two basis words, as immutable (word, count) pairs.

    Bottom-up over suffix pairs: the cell for (lam[i:], mu[j:]) sums its
    three neighbours by cases on the first emitted letter: lam[i], mu[j], or
    a collision of both (equal letters keep the letter; b with w gives b, w
    or nothing).  Only two rows of cells are alive at once.  The recursion is
    symmetric in its arguments, so the rows run along the shorter word.
    """
    if len(mu) > len(lam):
        lam, mu = mu, lam
    below = [{mu[j:]: 1} for j in range(len(mu) + 1)]
    for i in range(len(lam) - 1, -1, -1):
        a = lam[i]
        row = [None] * len(mu) + [{lam[i:]: 1}]
        for j in range(len(mu) - 1, -1, -1):
            b = mu[j]
            cell = {a + w: c for w, c in below[j].items()}
            get = cell.get
            for w, c in row[j + 1].items():
                k = b + w
                cell[k] = get(k, 0) + c
            for h in (a,) if a == b else _MIXED:
                for w, c in below[j + 1].items():
                    k = h + w
                    cell[k] = get(k, 0) + c
            row[j] = cell
        below = row
    return tuple(below[0].items())


def tensor_mul(x: KClass, y: KClass) -> KClass:
    """The standard (tensor) product, extended bilinearly from basis words."""
    coeffs: dict[str, int | Fraction] = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            scale = cu * cv
            for w, c in _tensor_basis(u, v):
                coeffs[w] = coeffs.get(w, 0) + scale * c
    return KClass(coeffs)


def line_class() -> KClass:
    """The class of functions on the line: b + w + 1."""
    return KClass({"b": 1, "w": 1, "": 1})


def schwartz_class(n: int) -> KClass:
    """The class of functions on ordered n-tuples: the n-th concat power of b+w+1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = KClass.unit()
    for _ in range(n):
        out = concat_mul(out, line_class())
    return out


def induce(t: KTensorClass) -> KClass:
    """Induction along the point stabilizer: x (x) y -> x . (b+w+1) . y (concat)."""
    out: dict[str, int | Fraction] = {}
    for (u, v), c in t.coeffs.items():
        for w in (u + mid + v for mid in _MIXED):
            out[w] = out.get(w, 0) + c
    return KClass(out)


def restrict(x: KClass) -> KTensorClass:
    """Split each word between letters, plus splits that delete one letter."""
    out: dict[tuple[str, str], int | Fraction] = {}
    for w, c in x.coeffs.items():
        splits = [(w[:i], w[i:]) for i in range(len(w) + 1)]
        for key in splits + [(w[: i - 1], w[i:]) for i in range(1, len(w) + 1)]:
            out[key] = out.get(key, 0) + c
    return KTensorClass(out)


def counit(x: KClass) -> Fraction:
    """The ring homomorphism sending every word to (-1)^length."""
    return Fraction(sum(c * (-1 if len(w) % 2 else 1) for w, c in x.coeffs.items()))


@lru_cache(maxsize=_CACHE_SIZE)
def _antipode_word(w: str) -> tuple[tuple[str, int], ...]:
    """S(w) = (-1)^|w| - sum over i of (w[:i] + w[:i-1]) * S(w[i:]), as (word, int) pairs."""
    out = {"": -1 if len(w) % 2 else 1}
    for i in range(1, len(w) + 1):
        tail = _antipode_word(w[i:])
        for head in (w[:i], w[: i - 1]):
            for v, c in tail:
                for t, d in _tensor_basis(head, v):
                    out[t] = out.get(t, 0) - c * d
    return tuple((t, c) for t, c in out.items() if c)


def antipode(x: KClass) -> KClass:
    """The antipode, computed by its defining recursion on word length."""
    out: dict[str, int | Fraction] = {}
    for w, c in x.coeffs.items():
        for v, d in _antipode_word(w):
            out[v] = out.get(v, 0) + c * d
    return KClass(out)


def dual(x: KClass) -> KClass:
    """Swap the two letters in every word."""
    table = str.maketrans("bw", "wb")
    return KClass({w.translate(table): c for w, c in x.coeffs.items()})


def inner(x: KClass, y: KClass) -> Fraction:
    """The pairing making the words (or the pairs of words) an orthonormal basis."""
    small, large = (x, y) if len(x.coeffs) <= len(y.coeffs) else (y, x)
    other = large.coeffs
    return Fraction(sum(c * other[w] for w, c in small.coeffs.items() if w in other))


inner_tensor = inner


def _binomial_chain(x: KClass, top: int) -> list[KClass]:
    """binom(x, 0), ..., binom(x, top), computed incrementally over rationals."""
    chain = [KClass.unit()]
    for j in range(1, top + 1):
        chain.append(tensor_mul(chain[-1], x - (j - 1)) * Fraction(1, j))
    return chain


def lambda_binomial(x: KClass, i: int) -> KClass:
    """binom(x, i) = x(x-1)...(x-i+1)/i!; coefficients must come out integral."""
    if i < 0:
        raise ValueError("exterior power index must be non-negative")
    out = _binomial_chain(x, i)[i]
    if not out.is_integral():
        raise InvariantError(f"binom(x, {i}) has non-integral coefficients: {out!r}")
    return out


def adams(x: KClass, i: int) -> KClass:
    """The i-th Adams operation via Newton's identities on binom(x, j).

    The computed value is returned as-is.  In this ring the result always
    works out to x itself; the test suite checks that identity rather than
    this function assuming it.
    """
    if i < 1:
        raise ValueError("Adams operations are indexed by positive integers")
    e = _binomial_chain(x, i)
    p: list[KClass] = [KClass.unit(), e[1]]
    for k in range(2, i + 1):
        acc = sum(((-1) ** (j - 1) * tensor_mul(e[j], p[k - j]) for j in range(1, k)), KClass())
        p.append(acc + (-1) ** (k - 1) * k * e[k])
    return p[i]


# -- integer-valued polynomials and Schur operations -------------------------


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def binom_at(t: int | Fraction, i: int) -> Fraction:
    """binom(t, i) for an arbitrary rational t."""
    return Fraction(prod(t - j for j in range(i)), factorial(i))


class IntValuedPoly(Frozen):
    """A polynomial in the binomial basis with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r})"

    def evaluate(self, t) -> Fraction:
        return Fraction(sum(c * binom_at(t, i) for i, c in enumerate(self.coeffs)))

    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c), default=-1)


def _hook_content_value(parts: tuple[int, ...], t: int) -> Fraction:
    """Product over the diagram of (t + col - row) / hook length (1-based)."""
    conj = [sum(1 for p in parts if p >= c) for c in range(1, (parts[0] if parts else 0) + 1)]
    num = den = 1
    for r, width in enumerate(parts, start=1):
        for c in range(1, width + 1):
            num *= t + c - r
            den *= (width - c) + (conj[c - 1] - r) + 1  # the hook length
    return Fraction(num, den)


def schur_dimension_poly(parts: Sequence[int]) -> IntValuedPoly:
    """Dimension of the Schur construction on a t-dimensional space, in t.

    Computed by the hook content formula, then converted to the binomial
    basis by finite differences.
    """
    parts = check_partition(parts)
    size = sum(parts)
    values = [_hook_content_value(parts, j) for j in range(size + 1)]
    if any(v.denominator != 1 for v in values):
        raise InvariantError(f"hook content gave non-integers for {parts}")
    return IntValuedPoly(tuple(
        sum((-1) ** (i - j) * comb(i, j) * int(values[j]) for j in range(i + 1))
        for i in range(size + 1)
    ))


def schur_apply(parts: Sequence[int], x: KClass) -> KClass:
    """Evaluate the Schur polynomial of a partition at a ring element."""
    poly = schur_dimension_poly(parts)
    chain = _binomial_chain(x, len(poly.coeffs) - 1)
    out = sum((c * chain[i] for i, c in enumerate(poly.coeffs) if c), KClass())
    if not out.is_integral():
        raise InvariantError(f"Schur value has non-integral coefficients: {out!r}")
    return out


def hilbert_value(x: KClass, n: int) -> Fraction:
    """Dimension of the invariants under an n-point stabilizer, by class."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return Fraction(sum(c * comb(n, len(w)) for w, c in x.coeffs.items() if len(w) <= n))


def is_lyndon(word: str) -> bool:
    """Nonempty and strictly smaller than every proper suffix ('b' < 'w')."""
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_weights(n: int) -> list[str]:
    """All Lyndon words of length n over the ordered alphabet b < w."""
    from .paths import all_weights

    return [w for w in all_weights(n) if is_lyndon(w)]


def shuffle_words(u: str, v: str) -> Iterable[str]:
    """All collision-free interleavings of two words, with multiplicity."""
    if not u:
        yield v
        return
    if not v:
        yield u
        return
    for rest in shuffle_words(u[1:], v):
        yield u[0] + rest
    for rest in shuffle_words(u, v[1:]):
        yield v[0] + rest
