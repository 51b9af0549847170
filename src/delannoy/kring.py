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

Each product and operator is a rule on basis words, extended (bi)linearly by
`linear`.  Coefficients and scalars (counit, pairing, Hilbert values) follow
its number rule: an `int` when integral, a `Fraction` otherwise, so a
`Fraction` appears only after a real division (a /j step of the binomial
chain that leaves a remainder) or where a caller supplies one.
`_tensor_basis`, a bottom-up dynamic programme over suffix pairs (Hoffman's
quasi-shuffle recursion) that reads memoised pairs, and `_antipode_word` keep
immutable (word, int) tuples in two `_Memo`s: the first keyed by the
unordered pair, each bounded by the terms it stores (`_MEMO_TERMS`).
Outputs that must be integral raise `InvariantError` if they are not.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from numbers import Rational

from .errors import InvariantError
from .linear import (Combination, Frozen, _arity, bilinear_map, frac_str, json_field,
                     json_int, linear_map, number, parse_frac)
from .paths import check_weight

# Terms (word, count) each memo stores over all its entries.  A ring-products round
# stores 14 039 in 386 pairs; `verify all` peaks at about 125 MiB, b^150's antipode takes 12 s.
_MEMO_TERMS = 750_000
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_MIXED = ("b", "w", "")  # the words of b + w + 1: what a b/w collision emits
_SWAP = str.maketrans("bw", "wb")


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
        return bilinear_map(cls, (), lambda u, v: (((u, v), 1),), x, y)

    def __mul__(self, other):
        if isinstance(other, KTensorClass):
            return bilinear_map(KTensorClass, (), _tensor_square_basis, self, other)
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


class _Memo(dict):
    """Immutable tuples by key, at most `_MEMO_TERMS` terms in all.  A store past
    the bound first drops the oldest half of the entries; a longer tuple is not
    kept.  No lock: a race costs a count or a recomputation until an eviction."""

    __slots__ = ("terms", "counts")

    def __init__(self) -> None:  # dict.__new__ has made it empty
        self.terms, self.counts = 0, [0, 0]  # terms stored; hits, misses

    def lookup(self, key):
        out = self.get(key)
        self.counts[out is None] += 1
        return out

    def store(self, key, value: tuple) -> tuple:
        if len(value) <= _MEMO_TERMS:
            while self.terms + len(value) > _MEMO_TERMS:  # ends once the memo is empty
                for old in list(self)[: (len(self) + 1) // 2]:  # in insertion order
                    self.pop(old, None)
                self.terms = sum(map(len, self.values()))
            self[key] = value
            self.terms += len(value)
        return value

    def clear(self) -> None:
        super().clear()
        self.terms = 0

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(*self.counts, _MEMO_TERMS, len(self))


_pairs, _antipodes = _Memo(), _Memo()  # (u, v) with u <= v -> `_tensor_basis(u, v)`; w -> S(w)


def concat_mul(x: KClass, y: KClass) -> KClass:
    """Bilinear extension of word concatenation."""
    return bilinear_map(KClass, (), lambda u, v: ((u + v, 1),), x, y)


def _tensor_basis(lam: str, mu: str) -> tuple[tuple[str, int], ...]:
    """Standard product of two basis words, as immutable (word, count) pairs.

    Memoised in `_pairs` under the unordered pair: the product commutes.  A
    miss runs bottom-up over suffix pairs.  The cell for (lam[i:], mu[j:]) is
    read from the memo if it is there; otherwise it sums its three neighbours
    by cases on the first emitted letter: lam[i], mu[j], or a collision of
    both (equal letters keep the letter; b with w gives b, w or nothing), and
    stays local as an item view.  Two rows are alive at once, along the
    shorter word.
    """
    key = (lam, mu) if lam <= mu else (mu, lam)
    if (out := _pairs.lookup(key)) is not None:
        return out
    if len(mu) > len(lam):
        lam, mu = mu, lam
    memo, tails = _pairs.get, [mu[j:] for j in range(len(mu) + 1)]
    below = [((t, 1),) for t in tails]
    for i in range(len(lam) - 1, -1, -1):
        a, head = lam[i], lam[i:]
        row = [None] * len(mu) + [((head, 1),)]
        for j in range(len(mu) - 1, -1, -1):
            tail = tails[j]
            cell = memo((head, tail) if head <= tail else (tail, head))
            if cell is None:
                b = mu[j]
                cell = {a + w: c for w, c in below[j]}
                get = cell.get
                for w, c in row[j + 1]:
                    k = b + w
                    cell[k] = get(k, 0) + c
                for h in (a,) if a == b else _MIXED:
                    for w, c in below[j + 1]:
                        k = h + w
                        cell[k] = get(k, 0) + c
                cell = cell.items()
            row[j] = cell
        below = row
    return _pairs.store(key, tuple(below[0]))


def tensor_mul(x: KClass, y: KClass) -> KClass:
    """The standard (tensor) product, extended bilinearly from basis words."""
    return bilinear_map(KClass, (), _tensor_basis, x, y)


def _tensor_square_basis(a: tuple[str, str], b: tuple[str, str]):
    """The product of two basis pairs of K (x) K, factor by factor."""
    right = _tensor_basis(a[1], b[1])
    return [((lu, rv), cl * cr) for lu, cl in _tensor_basis(a[0], b[0]) for rv, cr in right]


def line_class() -> KClass:
    """The class of functions on the line: b + w + 1."""
    return KClass({"b": 1, "w": 1, "": 1})


def schwartz_class(n: int) -> KClass:
    """The class of functions on ordered n-tuples: the n-th concat power of b+w+1."""
    out, line = KClass.unit(), line_class()
    for _ in range(_arity(n, "n")):
        out = concat_mul(out, line)
    return out


def induce(t: KTensorClass) -> KClass:
    """Induction along the point stabilizer: x (x) y -> x . (b+w+1) . y (concat)."""
    return linear_map(KClass, (), lambda uv: [(uv[0] + mid + uv[1], 1) for mid in _MIXED], t)


def restrict(x: KClass) -> KTensorClass:
    """Split each word between letters, plus splits that delete one letter."""
    return linear_map(KTensorClass, (), _restrict_word, x)


def _restrict_word(w: str) -> list[tuple[tuple[str, str], int]]:
    cuts = range(len(w) + 1)
    return [((w[:i], w[i:]), 1) for i in cuts] + [((w[: i - 1], w[i:]), 1) for i in cuts[1:]]


def counit(x: KClass) -> int | Fraction:
    """The ring homomorphism sending every word to (-1)^length."""
    return number(sum(c * (-1 if len(w) % 2 else 1) for w, c in x.coeffs.items()))


def _antipode_word(w: str) -> tuple[tuple[str, int], ...]:
    """S(w) as (word, int) pairs, from S(s) = (-1)^|s| - sum over i of
    (s[:i] + s[:i-1]) * S(s[i:]), filled in for the suffixes s of w from the
    shortest up, so that the stack does not grow with the word."""
    if (out := _antipodes.lookup(w)) is not None:
        return out
    tails = [(("", 1),)]  # tails[n]: S of the suffix of w with n letters
    for k in range(len(w) - 1, -1, -1):
        s = w[k:]
        out = {"": -1 if len(s) % 2 else 1}
        for i in range(1, len(s) + 1):
            for head in (s[:i], s[: i - 1]):
                for v, c in tails[len(s) - i]:
                    for t, d in _tensor_basis(head, v):
                        out[t] = out.get(t, 0) - c * d
        tails.append(tuple((t, c) for t, c in out.items() if c))
    return _antipodes.store(w, tails[-1])


_tensor_basis.cache_info, _antipode_word.cache_info = _pairs.cache_info, _antipodes.cache_info


def antipode(x: KClass) -> KClass:
    """The antipode, computed by its defining recursion on word length."""
    return linear_map(KClass, (), _antipode_word, x)


def dual(x: KClass) -> KClass:
    """Swap the two letters in every word."""
    return linear_map(KClass, (), lambda w: ((w.translate(_SWAP), 1),), x)


def inner(x: KClass | KTensorClass, y: KClass | KTensorClass) -> int | Fraction:
    """The pairing making the words (or the pairs of words) an orthonormal basis."""
    small, large = (x, y) if len(x.coeffs) <= len(y.coeffs) else (y, x)
    other = large.coeffs
    return number(sum(c * other[w] for w, c in small.coeffs.items() if w in other))


def _binomial_chain(x: KClass, top: int) -> list[KClass]:
    """binom(x, 0), ..., binom(x, top), incrementally: step j divides by j in
    `int`, with a `Fraction` only where a remainder is left (never for integral x)."""
    chain = [KClass.unit()]
    for j in range(1, top + 1):
        step = {}
        for w, c in tensor_mul(chain[-1], x - (j - 1)).coeffs.items():
            q, r = divmod(c, j)
            step[w] = Fraction(c, j) if r else q
        chain.append(KClass._trusted(step))
    return chain


def lambda_binomial(x: KClass, i: int) -> KClass:
    """binom(x, i) = x(x-1)...(x-i+1)/i!; coefficients must come out integral."""
    i = _arity(i, "exterior power index")
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
    if _arity(i, "Adams index") < 1:
        raise ValueError("Adams operations are indexed by positive integers")
    e = _binomial_chain(x, i)
    p: list[KClass] = [KClass.unit(), e[1]]
    for k in range(2, i + 1):
        acc = sum(((-1) ** (j - 1) * tensor_mul(e[j], p[k - j]) for j in range(1, k)), KClass())
        p.append(acc + (-1) ** (k - 1) * k * e[k])
    return p[i]


# -- integer-valued polynomials and Schur operations -------------------------


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(_arity(p, "partition part") for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def binom_at(t: int | Fraction, i: int) -> int | Fraction:
    """binom(t, i) for an arbitrary rational t."""
    return number(Fraction(prod(t - j for j in range(i)), factorial(i)))


class IntValuedPoly(Frozen):
    """A polynomial in the binomial basis with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        object.__setattr__(self, "coeffs", tuple(map(json_int, coeffs)))  # fixed and hashable

    def evaluate(self, t) -> int | Fraction:
        return number(sum(c * binom_at(t, i) for i, c in enumerate(self.coeffs)))

    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c), default=-1)


def _hook_content_value(parts: tuple[int, ...], t: int) -> int | Fraction:
    """Product over the diagram of (t + col - row) / hook length (1-based)."""
    conj = [sum(1 for p in parts if p >= c) for c in range(1, (parts[0] if parts else 0) + 1)]
    num = den = 1
    for r, width in enumerate(parts, start=1):
        for c in range(1, width + 1):
            num *= t + c - r
            den *= (width - c) + (conj[c - 1] - r) + 1  # the hook length
    return number(Fraction(num, den))


def schur_dimension_poly(parts: Sequence[int]) -> IntValuedPoly:
    """Dimension of the Schur construction on a t-dimensional space, in t.

    Computed by the hook content formula, then converted to the binomial
    basis by finite differences.
    """
    parts = check_partition(parts)
    size = sum(parts)
    values = [_hook_content_value(parts, j) for j in range(size + 1)]
    if any(type(v) is not int for v in values):
        raise InvariantError(f"hook content gave non-integers for {parts}")
    return IntValuedPoly(tuple(
        sum((-1) ** (i - j) * comb(i, j) * values[j] for j in range(i + 1))
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


def hilbert_value(x: KClass, n: int) -> int | Fraction:
    """Dimension of the invariants under an n-point stabilizer, by class."""
    n = _arity(n, "n")
    return number(sum(c * comb(n, len(w)) for w, c in x.coeffs.items() if len(w) <= n))


def shuffle_words(u: str, v: str) -> Iterable[str]:
    """All collision-free interleavings of two words, with multiplicity: one
    per choice of the positions of u's letters, in lexicographic order of the
    positions, so those starting with u[0] come first."""
    for picks in combinations(range(len(u) + len(v)), len(u)):
        letters = list(v)
        for k, letter in zip(picks, u):  # in increasing order, so each lands at k
            letters.insert(k, letter)
        yield "".join(letters)
