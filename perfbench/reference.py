"""Reference computations the benchmark checks the program against.

Everything here is plain integer (or, where a division really happens,
`Fraction`) code written apart from the `delannoy` package: it imports
nothing from it. Words are strings over 'b' and 'w'; paths are tuples of
0-1 step tuples; a linear combination is a dict from basis element to its
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

STEPS3 = tuple(
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1) if a or b or c
)


def sign(n: int) -> int:
    return -1 if n % 2 else 1


def add_into(acc: dict, key, value) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


# -- path counts -------------------------------------------------------------


def delannoy_2d(n: int, m: int) -> int:
    """D(n, m) = sum_k C(n, k) C(m, k) 2^k."""
    return sum(comb(n, k) * comb(m, k) * 2**k for k in range(min(n, m) + 1))


@lru_cache(maxsize=None)
def delannoy_3d(a: int, b: int, c: int) -> int:
    """Paths to (a, b, c): the recurrence over the seven nonzero 0-1 steps."""
    if min(a, b, c) < 0:
        return 0
    if a == b == c == 0:
        return 1
    return sum(delannoy_3d(a - s, b - t, c - u) for s, t, u in STEPS3)


def path_count(target: tuple[int, ...]) -> int:
    if len(target) == 2:
        return delannoy_2d(*target)
    return delannoy_3d(*target)


# -- the path category ---------------------------------------------------------


def compose_basis(p1: tuple, p2: tuple) -> dict:
    """Signed composition of two 2-D paths through their 3-D lifts.

    A lift q has steps (a, b, c) whose (1, 2)-projection spells p1 and whose
    (2, 3)-projection spells p2; it contributes (-1)^(len q + len p13) to its
    (1, 3)-projection p13.
    """
    return dict(_compose_basis(p1, p2))


@lru_cache(maxsize=None)
def _compose_basis(p1: tuple, p2: tuple) -> tuple:
    out: dict = {}
    prefix: list = []

    def search(i: int, j: int) -> None:
        if i == len(p1) and j == len(p2):
            p13 = tuple((a, c) for a, _, c in prefix if a or c)
            add_into(out, p13, sign(len(prefix) + len(p13)))
            return
        for a, b, c in STEPS3:
            ni, nj = i, j
            if a or b:
                if ni == len(p1) or p1[ni] != (a, b):
                    continue
                ni += 1
            if b or c:
                if nj == len(p2) or p2[nj] != (b, c):
                    continue
                nj += 1
            prefix.append((a, b, c))
            search(ni, nj)
            prefix.pop()

    search(0, 0)
    return tuple(out.items())


def compose(f: dict, g: dict) -> dict:
    """Bilinear extension of compose_basis to {path: coeff} dicts."""
    out: dict = {}
    for p1, c1 in f.items():
        for p2, c2 in g.items():
            for p3, s in compose_basis(p1, p2).items():
                add_into(out, p3, s * c1 * c2)
    return out


def projector(word: str) -> dict:
    """The 2^n quasi-diagonal paths of a word's projector, each with coefficient 1."""
    paths = [()]
    for letter in word:
        turn = ((1, 0), (0, 1)) if letter == "b" else ((0, 1), (1, 0))
        paths = [p + choice for p in paths for choice in (((1, 1),), turn)]
    return {p: 1 for p in paths}


# -- the ring on weight words --------------------------------------------------

_MIXED = {"b": 1, "w": 1, "": 1}


def _prepend(prefix: dict, words: dict, scale: int, acc: dict) -> None:
    for g, cg in prefix.items():
        for w, c in words.items():
            add_into(acc, g + w, scale * cg * c)


def quasi_shuffle(u: str, v: str) -> dict:
    """Product of two words: interleavings in which equal letters may merge
    and a mixed pair of letters merges into b + w + 1.

    Tabulated over suffix pairs from the ends of the words, so there is no
    recursion.
    """
    nu, nv = len(u), len(v)
    table = [[None] * (nv + 1) for _ in range(nu + 1)]
    for i in range(nu + 1):
        table[i][nv] = {u[i:]: 1}
    for j in range(nv + 1):
        table[nu][j] = {v[j:]: 1}
    for i in range(nu - 1, -1, -1):
        for j in range(nv - 1, -1, -1):
            acc: dict = {}
            _prepend({u[i]: 1}, table[i + 1][j], 1, acc)
            _prepend({v[j]: 1}, table[i][j + 1], 1, acc)
            merged = {u[i]: 1} if u[i] == v[j] else _MIXED
            _prepend(merged, table[i + 1][j + 1], 1, acc)
            table[i][j] = acc
    return table[0][0]


def shuffles(u: str, v: str) -> dict:
    """The multiset of plain interleavings of two words, as {word: count}."""
    if not u or not v:
        return {u + v: 1}
    out: dict = {}
    for w, c in shuffles(u[1:], v).items():
        add_into(out, u[0] + w, c)
    for w, c in shuffles(u, v[1:]).items():
        add_into(out, v[0] + w, c)
    return out


def product(x: dict, y: dict) -> dict:
    out: dict = {}
    for u, cu in x.items():
        for v, cv in y.items():
            for w, c in quasi_shuffle(u, v).items():
                add_into(out, w, cu * cv * c)
    return out


def counit(x: dict):
    return sum(c * sign(len(w)) for w, c in x.items())


@lru_cache(maxsize=None)
def _antipode_word(w: str) -> tuple:
    if not w:
        return (("", 1),)
    out: dict = {"": sign(len(w))}
    for i in range(1, len(w) + 1):
        head = {w[:i]: 1}
        add_into(head, w[: i - 1], 1)
        for v, c in product(head, dict(_antipode_word(w[i:]))).items():
            add_into(out, v, -c)
    return tuple(out.items())


def antipode(x: dict) -> dict:
    """S(w) = (-1)^|w| - sum_i (w[:i] + w[:i-1]) S(w[i:]), extended linearly."""
    out: dict = {}
    for w, c in x.items():
        for v, d in _antipode_word(w):
            add_into(out, v, c * d)
    return out


def object_product_coeff(n: int, m: int, j: int) -> int:
    """Coefficient of each length-j word in schwartz_class(n) * schwartz_class(m).

    R^(n) x R^(m) splits into N(n, m, k) copies of R^(n+m-k), where
    N(n, m, k) = (n+m-k)! / (k! (n-k)! (m-k)!), and the class of R^(p) has
    coefficient C(p, j) on every word of length j.
    """
    total = 0
    for k in range(min(n, m) + 1):
        pieces = factorial(n + m - k) // (factorial(k) * factorial(n - k) * factorial(m - k))
        total += pieces * comb(n + m - k, j)
    return total


def binomial_chain(x: dict, top: int) -> list[dict]:
    """binom(x, 0..top) by binom(x, j) = binom(x, j-1) (x - j + 1) / j."""
    chain = [{"": Fraction(1)}]
    for j in range(1, top + 1):
        shifted = dict(x)
        add_into(shifted, "", -(j - 1))
        step = product(chain[-1], shifted)
        chain.append({w: Fraction(c, 1) / j for w, c in step.items()})
    return chain


def generalized_binomial(t: int, i: int) -> int:
    """t (t-1) ... (t-i+1) / i! for any integer t."""
    num = 1
    for j in range(i):
        num *= t - j
    return num // factorial(i)


def hook_content(parts: tuple[int, ...], t: int) -> Fraction:
    """prod over the boxes (r, c) of (t + c - r) / hook(r, c)."""
    num, den = 1, 1
    for r, width in enumerate(parts, start=1):
        for c in range(1, width + 1):
            below = sum(1 for p in parts[r:] if p >= c)
            num *= t + c - r
            den *= (width - c) + below + 1
    return Fraction(num, den)


def restriction(w: str) -> dict:
    """Splits of w between letters, plus splits that delete one letter."""
    out: dict = {}
    for i in range(len(w) + 1):
        add_into(out, (w[:i], w[i:]), 1)
    for i in range(1, len(w) + 1):
        add_into(out, (w[: i - 1], w[i:]), 1)
    return out


# -- Euler calculus ------------------------------------------------------------


def cell_volume(sig: tuple[int, ...]) -> int:
    """(-1) per coordinate in a gap slot (even slot index)."""
    return sign(sum(1 for s in sig if s % 2 == 0))


def integral(cells: dict) -> Fraction:
    return sum((c * cell_volume(sig) for sig, c in cells.items()), Fraction(0))


def signatures(arity: int, num_breakpoints: int):
    """All cells: weakly increasing slot tuples with no point slot repeated."""
    top = 2 * num_breakpoints

    def rec(start: int, k: int):
        if k == 0:
            yield ()
            return
        for s in range(start, top + 1):
            nxt = s + 1 if s % 2 else s
            for rest in rec(nxt, k - 1):
                yield (s,) + rest

    return rec(0, arity)


def coarse_slot(fine: tuple, coarse: tuple, slot: int) -> int:
    """The slot over the coarse breakpoints that contains a slot over the fine ones."""
    if slot % 2:
        b = fine[(slot - 1) // 2]
        if b in coarse:
            return 2 * coarse.index(b) + 1
        return 2 * sum(1 for c in coarse if c < b)
    k = slot // 2
    if k == 0:
        return 0
    return 2 * sum(1 for c in coarse if c <= fine[k - 1])


def value_on_fine_cell(cells: dict, coarse: tuple, fine: tuple, sig: tuple):
    return cells.get(tuple(coarse_slot(fine, coarse, s) for s in sig), 0)


def pair(f: tuple, g: tuple) -> Fraction:
    """Euler integral of f * g, summed cell by cell over the common refinement.

    f and g are (arity, breakpoints, {signature: coeff}).
    """
    arity, bf, cf = f
    _, bg, cg = g
    common = tuple(sorted(set(bf) | set(bg)))
    total = Fraction(0)
    for sig in signatures(arity, len(common)):
        a = value_on_fine_cell(cf, bf, common, sig)
        if a:
            total += a * value_on_fine_cell(cg, bg, common, sig) * cell_volume(sig)
    return total
