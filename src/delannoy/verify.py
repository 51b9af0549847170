"""Verification suites: one per acceptance criterion, all exact equalities.

Each suite returns a report listing named checks with pass/fail status; a
suite passes when every check does.  Randomized checks draw from a seeded
generator so runs are reproducible.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import category, euler, kring
from .category import Morphism
from .euler import HalfOpenInterval, SchwartzFn
from .kring import KClass, KTensorClass
from .linalg import determinant, matrix_rank
from .paths import Path, all_weights, delannoy_number, enumerate_paths, weights_up_to


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))


def _random_schwartz(rng: random.Random, arity: int, max_breakpoints: int = 3) -> SchwartzFn:
    pts = sorted(rng.sample(range(-8, 9), rng.randint(0, max_breakpoints)))
    sigs = list(euler.iter_signatures(arity, len(pts)))
    coeffs = {
        sig: rng.randint(-5, 5)
        for sig in rng.sample(sigs, min(len(sigs), rng.randint(1, 6)))
    }
    return SchwartzFn(arity, pts, coeffs)


def _partitions_up_to(total: int) -> Iterator[tuple[int, ...]]:
    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    for size in range(1, total + 1):
        yield from rec(size, size)


def suite_delannoy_counts(report: VerificationReport, rng: random.Random) -> None:
    ok = all(
        len(enumerate_paths((n, n))) == delannoy_number(n, n) for n in range(7)
    )
    report.add("enumeration matches recurrence for n <= 6", ok)
    report.add("thirteen (2,2)-paths", len(enumerate_paths((2, 2))) == 13)
    ok = all(
        delannoy_number(n, n) == sum(comb(n, k) ** 2 * 2**k for k in range(n + 1))
        for n in range(9)
    )
    report.add("central numbers match the squared-binomial sum for n <= 8", ok)


def suite_oracle_equivalence(report: VerificationReport, rng: random.Random) -> None:
    ok = True
    pairs = 0
    for n, m, l in itertools.product(range(3), repeat=3):
        for p1 in enumerate_paths((n, m)):
            for p2 in enumerate_paths((m, l)):
                pairs += 1
                if category.compose_oracle(p1, p2) != Morphism.basis(p1) @ Morphism.basis(p2):
                    ok = False
    report.add(f"exhaustive at sizes <= 2 ({pairs} pairs)", ok)
    ok = True
    for _ in range(1000):
        n, m, l = (rng.randint(0, 3) for _ in range(3))
        p1 = rng.choice(enumerate_paths((n, m)))
        p2 = rng.choice(enumerate_paths((m, l)))
        if category.compose_oracle(p1, p2) != Morphism.basis(p1) @ Morphism.basis(p2):
            ok = False
    report.add("1000 random pairs at sizes <= 3", ok)


def suite_category_axioms(report: VerificationReport, rng: random.Random) -> None:
    ok = True
    for n, m, l, k in itertools.product(range(3), repeat=4):
        for p1 in enumerate_paths((n, m)):
            for p2 in enumerate_paths((m, l)):
                left = Morphism.basis(p1) @ Morphism.basis(p2)
                for p3 in enumerate_paths((l, k)):
                    b3 = Morphism.basis(p3)
                    if left @ b3 != Morphism.basis(p1) @ (Morphism.basis(p2) @ b3):
                        ok = False
    report.add("associativity, exhaustive at arities <= 2", ok)
    ok = True
    for n in range(4):
        for m in range(4):
            for p in enumerate_paths((n, m)):
                b = Morphism.basis(p)
                if category.identity(n) @ b != b or b @ category.identity(m) != b:
                    ok = False
    report.add("all-diagonal path is a two-sided identity at arities <= 3", ok)
    # Semisimple with simples of dimension +-1: the trace pairing
    # Hom(m -> n) x Hom(n -> m) -> Z is perfect in the path bases, so its Gram
    # determinant is a unit.
    ok = True
    for n, m in [*itertools.product(range(4), repeat=2), (3, 4), (4, 3)]:
        left = [Morphism.basis(p) for p in enumerate_paths((n, m))]
        right = [Morphism.basis(q) for q in enumerate_paths((m, n))]
        gram = [[category.trace(f @ g) for g in right] for f in left]
        if determinant(gram) != (-1) ** (n + m):
            ok = False
    report.add("trace pairing has Gram determinant (-1)^(n+m) at n, m <= 3, (3, 4), (4, 3)", ok)


def suite_projectors(report: VerificationReport, rng: random.Random) -> None:
    for n in range(7):
        words = all_weights(n)
        projs = {w: category.projector(w) for w in words}
        sign = (-1) ** n
        idem = all(projs[w] @ projs[w] == projs[w] for w in words)
        orth = all(
            (projs[u] @ projs[v]).is_zero()
            for u in words
            for v in words
            if u != v
        )
        tr = all(category.trace(projs[w]) == sign for w in words)
        report.add(f"idempotent at length {n}", idem)
        report.add(f"pairwise orthogonal at length {n}", orth)
        report.add(f"trace is (-1)^{n} at length {n}", tr)

    def quasi_diagonal(n: int):
        turns = {
            "d": ((1, 1),),
            "out_first": ((1, 0), (0, 1)),
            "in_first": ((0, 1), (1, 0)),
        }
        items = [((), ())]
        for _ in range(n):
            items = [
                (steps + turns[t], choice + (t,))
                for steps, choice in items
                for t in ("d", "out_first", "in_first")
            ]
        return [(Path(2, s), c) for s, c in items]

    ok = True
    for n in range(5):
        quasi = quasi_diagonal(n)
        quasi_set = {p for p, _ in quasi}
        for word in all_weights(n):
            pi = category.projector(word)
            for p, choices in quasi:
                val = 1
                for letter, turn in zip(word, choices):
                    if turn == "d":
                        continue
                    if (letter == "b" and turn == "in_first") or (
                        letter == "w" and turn == "out_first"
                    ):
                        val = -val
                    else:
                        val = 0
                        break
                if pi @ Morphism.basis(p) @ pi != val * pi:
                    ok = False
            for p in enumerate_paths((n, n)):
                if p not in quasi_set and not (pi @ Morphism.basis(p) @ pi).is_zero():
                    ok = False
    report.add("eigenvalue scalars for quasi-diagonal paths at length <= 4", ok)


def suite_multiplicities(report: VerificationReport, rng: random.Random) -> None:
    ok = True
    for m in range(4):
        for word in weights_up_to(m):
            if category.multiplicity_rank(word, m) != comb(m, len(word)):
                ok = False
    report.add("rank equals binom(m, len) for m <= 3", ok)
    ok = all(
        category.multiplicity_rank(word, 4) == comb(4, len(word)) for word in weights_up_to(3)
    )
    report.add("rank equals binom(4, len) for words of length <= 3", ok)
    ok = all(
        category.multiplicity_rank(word, 5) == comb(5, len(word)) for word in weights_up_to(4)
    )
    report.add("rank equals binom(5, len) for words of length <= 4", ok)
    ok = all(
        sum(category.multiplicity_rank(w, n) for w in weights_up_to(n)) == 3**n
        for n in range(4)
    )
    report.add("total length of the arity-n space is 3^n for n <= 3", ok)
    ok = True
    for n in range(4):
        total = sum(
            category.multiplicity_rank(w, n) ** 2 for w in weights_up_to(n)
        )
        if total != delannoy_number(n, n):
            ok = False
    report.add("sum of squared ranks is the central Delannoy number for n <= 3", ok)


def suite_euler_calculus(report: VerificationReport, rng: random.Random) -> None:
    report.add("point mass integrates to 1", euler.integrate(euler.point_mass((0,))) == 1)
    open_iv = SchwartzFn(1, (0, 1), {(2,): 1})
    report.add("open interval integrates to -1", euler.integrate(open_iv) == -1)
    half = euler.interval_indicator([HalfOpenInterval("b", 1, 0)])
    report.add("half-open interval integrates to 0", euler.integrate(half) == 0)
    ok = True
    for _ in range(100):
        f = _random_schwartz(rng, rng.randint(1, 3))
        order = list(range(f.arity))
        rng.shuffle(order)
        if euler.integrate_fully(f, order) != euler.integrate(f):
            ok = False
    report.add("iterated pushforward is order independent (100 random)", ok)
    ok = True
    for _ in range(50):
        f = _random_schwartz(rng, 2)
        g = _random_schwartz(rng, 2)
        if euler.integrate(f + g) != euler.integrate(f) + euler.integrate(g):
            ok = False
    report.add("additivity of the integral", ok)
    ok = True
    for sig in euler.iter_signatures(2, 2):
        cell = SchwartzFn(2, (0, 1), {sig: 1})
        factors = 1
        for s in sig:
            factors *= 1 if s % 2 == 1 else -1
        if euler.integrate(cell) != factors:
            ok = False
    report.add("product cells have multiplicative volume", ok)


def suite_ring(report: VerificationReport, rng: random.Random) -> None:
    b, w = KClass.word("b"), KClass.word("w")
    one = KClass.unit()
    report.add("b*b = 2bb + b", b * b == 2 * KClass.word("bb") + b)
    report.add(
        "b*w = bw + wb + b + w + 1",
        b * w == KClass.word("bw") + KClass.word("wb") + b + w + one,
    )
    expected = (
        2 * KClass.word("bbw")
        + KClass.word("bwb")
        + 2 * KClass.word("bw")
        + KClass.word("bb")
        + b
    )
    report.add("b*bw expansion", b * KClass.word("bw") == expected)
    words3 = weights_up_to(3)
    comm = all(
        KClass.word(u) * KClass.word(v) == KClass.word(v) * KClass.word(u)
        for u in words3
        for v in words3
    )
    unit_ok = all(one * KClass.word(u) == KClass.word(u) for u in words3)
    report.add("commutative with unit at degree <= 3", comm and unit_ok)
    ok = True
    for _ in range(200):
        x, y, z = (KClass.word(rng.choice(words3)) for _ in range(3))
        if (x * y) * z != x * (y * z):
            ok = False
    report.add("associativity on 200 random triples of degree <= 3", ok)
    ok = all(
        b * KClass.word("b" * n)
        == (n + 1) * KClass.word("b" * (n + 1)) + n * KClass.word("b" * n)
        for n in range(7)
    )
    report.add("one-letter times all-same-letter products for n <= 6", ok)
    ok = True
    for n in range(6):
        for m in range(6):
            lengths = Counter(len(p) for p in enumerate_paths((n, m)))
            rhs = sum((c * kring.schwartz_class(k) for k, c in lengths.items()), KClass())
            if kring.schwartz_class(n) * kring.schwartz_class(m) != rhs:
                ok = False
    report.add("object-level tensor identity for n, m <= 5", ok)


def suite_hopf(report: VerificationReport, rng: random.Random) -> None:
    one = KClass.unit()
    words4 = weights_up_to(4)
    ok = True
    for u in words4:
        res = kring.restrict(KClass.word(u))
        left = KClass()
        right = KClass()
        for (a, c), coeff in res.coeffs.items():
            left = left + coeff * kring.counit(KClass.word(a)) * KClass.word(c)
            right = right + coeff * kring.counit(KClass.word(c)) * KClass.word(a)
        if left != KClass.word(u) or right != KClass.word(u):
            ok = False
    report.add("counit axioms at degree <= 4", ok)
    ok = True
    for u in words4:
        res = kring.restrict(KClass.word(u))
        left = KClass()
        right = KClass()
        for (a, c), coeff in res.coeffs.items():
            left = left + coeff * (kring.antipode(KClass.word(a)) * KClass.word(c))
            right = right + coeff * (KClass.word(a) * kring.antipode(KClass.word(c)))
        target = kring.counit(KClass.word(u)) * one
        if left != target or right != target:
            ok = False
    report.add("antipode axioms at degree <= 4", ok)
    b, w = KClass.word("b"), KClass.word("w")
    ok = (
        kring.antipode(b) == -b - 2 * one
        and kring.antipode(KClass.word("bb")) == KClass.word("bb") + 3 * b + 3 * one
        and kring.antipode(KClass.word("bw"))
        == KClass.word("wb") + 2 * b + 2 * w + 4 * one
    )
    report.add("antipode on b, bb, bw", ok)

    def delta(x: KClass) -> KTensorClass:
        return (
            kring.restrict(x)
            - KTensorClass.pure(x, one)
            - KTensorClass.pure(one, x)
        )

    prim_ok = delta(b + one) == KTensorClass() and delta(w + one) == KTensorClass()
    basis_words = weights_up_to(2)
    index: dict[tuple[str, str], int] = {}
    images = []
    for u in basis_words:
        img = delta(KClass.word(u))
        images.append(img)
        for key in img.coeffs:
            index.setdefault(key, len(index))
    rows = []
    for img in images:
        row = [0] * len(index)
        for key, c in img.coeffs.items():
            row[index[key]] = c
        rows.append(row)

    kernel_dim = len(basis_words) - matrix_rank([list(col) for col in zip(*rows)])
    report.add(
        "primitives are exactly the span of b+1 and w+1",
        prim_ok and kernel_dim == 2,
    )
    ok = True
    for u in weights_up_to(3):
        for v in weights_up_to(3):
            prod = KClass.word(u) * KClass.word(v)
            top = {x: c for x, c in prod.coeffs.items() if len(x) == len(u) + len(v)}
            expected: dict[str, int] = {}
            for s in kring.shuffle_words(u, v):
                expected[s] = expected.get(s, 0) + 1
            if top != expected:
                ok = False
    report.add("associated graded product is the shuffle product at degree <= 3", ok)
    ok = True
    for u in words4:
        s = kring.antipode(KClass.word(u))
        top = {x: c for x, c in s.coeffs.items() if len(x) == len(u)}
        if top != {u[::-1]: (-1) ** len(u)}:
            ok = False
    report.add("antipode leading term is the signed reversal at degree <= 4", ok)


def suite_branching(report: VerificationReport, rng: random.Random) -> None:
    words2 = weights_up_to(2)
    ok = True
    for u in words2:
        for v in words2:
            t = KTensorClass.pure(KClass.word(u), KClass.word(v))
            for z in words2:
                if kring.inner(kring.induce(t), KClass.word(z)) != kring.inner(
                    t, kring.restrict(KClass.word(z))
                ):
                    ok = False
    report.add("Frobenius reciprocity on words of length <= 2", ok)
    ok = True
    for u in words2:
        for v in words2:
            for z in words2:
                t = KTensorClass.pure(KClass.word(v), KClass.word(z))
                lhs = kring.induce(kring.restrict(KClass.word(u)) * t)
                rhs = KClass.word(u) * kring.induce(t)
                if lhs != rhs:
                    ok = False
    report.add("projection formula on words of length <= 2", ok)

    def ind_12(x: KClass, t: KTensorClass) -> KTensorClass:
        out = KTensorClass()
        for (a, c), coeff in t.coeffs.items():
            out = out + coeff * KTensorClass.pure(
                kring.induce(KTensorClass.pure(x, KClass.word(a))), KClass.word(c)
            )
        return out

    def ind_23(t: KTensorClass, y: KClass) -> KTensorClass:
        out = KTensorClass()
        for (a, c), coeff in t.coeffs.items():
            out = out + coeff * KTensorClass.pure(
                KClass.word(a), kring.induce(KTensorClass.pure(KClass.word(c), y))
            )
        return out

    ok = True
    for u in words2:
        for v in words2:
            x, y = KClass.word(u), KClass.word(v)
            lhs = kring.restrict(kring.induce(KTensorClass.pure(x, y)))
            rhs = (
                KTensorClass.pure(x, y)
                + ind_12(x, kring.restrict(y))
                + ind_23(kring.restrict(x), y)
            )
            if lhs != rhs:
                ok = False
    report.add("Mackey identity on words of length <= 2", ok)
    ok = True
    for u in words2:
        for v in words2:
            if kring.restrict(KClass.word(u) * KClass.word(v)) != kring.restrict(
                KClass.word(u)
            ) * kring.restrict(KClass.word(v)):
                ok = False
    report.add("restriction is a ring homomorphism at degree <= 2", ok)
    ok = True
    for u in words2:
        for v in words2:
            induced = kring.induce(
                KTensorClass.pure(KClass.word(u), KClass.word(v))
            )
            for n in range(7):
                direct = kring.hilbert_value(induced, n)
                convolved = sum(
                    kring.hilbert_value(KClass.word(u), r)
                    * kring.hilbert_value(KClass.word(v), n - r)
                    for r in range(n + 1)
                ) + sum(
                    kring.hilbert_value(KClass.word(u), r)
                    * kring.hilbert_value(KClass.word(v), n - 1 - r)
                    for r in range(n)
                )
                if direct != convolved:
                    ok = False
    report.add("induction multiplies Hilbert functions (with the 1+t factor), N <= 6", ok)


def suite_lambda_adams(report: VerificationReport, rng: random.Random) -> None:
    b = KClass.word("b")
    ok = all(kring.lambda_binomial(b, n) == KClass.word("b" * n) for n in range(6))
    report.add("n-th exterior power of a letter is the n-letter word, n <= 5", ok)
    ok = True
    pool = weights_up_to(2)
    for _ in range(20):
        coeffs = {
            w: rng.randint(-3, 3)
            for w in rng.sample(pool, rng.randint(1, 3))
        }
        x = KClass(coeffs)
        for n in range(5):
            if not kring.lambda_binomial(x, n).is_integral():
                ok = False
    report.add("binom(x, n) integral for 20 random classes of degree <= 2, n <= 4", ok)
    ok = True
    for word in weights_up_to(3):
        x = KClass.word(word)
        for i in range(1, 5):
            if kring.adams(x, i) != x:
                ok = False
    report.add("Adams operations fix every word of length <= 3 for i <= 4", ok)


def suite_schur(report: VerificationReport, rng: random.Random) -> None:
    ok = True
    for parts in _partitions_up_to(5):
        poly = kring.schur_dimension_poly(parts)
        if any(poly.evaluate(t).denominator != 1 for t in range(11)):
            ok = False
        if any(c < 0 for c in poly.coeffs):
            ok = False
    report.add("hook content polynomials integer-valued with non-negative binomial coefficients, |partition| <= 5", ok)
    b = KClass.word("b")
    ok = (
        kring.schur_apply((1, 1), b) == KClass.word("bb")
        and kring.schur_apply((2,), b) == KClass.word("bb") + b
    )
    report.add("column pair and row pair on a single letter", ok)
    ok = True
    for parts in _partitions_up_to(4):
        poly = kring.schur_dimension_poly(parts)
        if kring.counit(kring.schur_apply(parts, b)) != poly.evaluate(-1):
            ok = False
    report.add("counit of a Schur value matches the polynomial at -1, |partition| <= 4", ok)


def suite_cross_module(report: VerificationReport, rng: random.Random) -> None:
    ok = True
    for n in range(5):
        for m in range(5):
            if euler.cell_count(n, m) != kring.hilbert_value(
                kring.schwartz_class(n), m
            ):
                ok = False
    report.add("cell counts match Hilbert values of the arity classes, n, m <= 4", ok)
    ok = True
    for word in weights_up_to(3):
        a = tuple(range(1, len(word) + 1))
        if category.invariant_extension(euler.key_indicator(word, a)) != category.projector(word):
            ok = False
    report.add("key indicators extend to the projectors, length <= 3", ok)
    ok = True
    table = str.maketrans("bw", "wb")
    for _ in range(50):
        n = rng.randint(1, 3)
        word = "".join(rng.choice("bw") for _ in range(n))
        cuts = sorted(rng.sample(range(-20, 21), 2 * n))
        intervals = []
        for i in range(n):
            lo, hi = cuts[2 * i], cuts[2 * i + 1]
            if word[i] == "b":
                intervals.append(HalfOpenInterval("b", hi, lo))
            else:
                intervals.append(HalfOpenInterval("w", lo, hi))
        phi = euler.interval_indicator(intervals)
        a = tuple(
            Fraction(v, 2) for v in sorted(rng.sample(range(-40, 41), n))
        )
        psi = euler.key_indicator(word.translate(table), a)
        evaluated = 1 if all(iv.contains(x) for iv, x in zip(intervals, a)) else 0
        if euler.pair(phi, psi) != evaluated:
            ok = False
    report.add("pairing against the dual key indicator evaluates at the basepoint, 50 random", ok)


SUITES: list[tuple[str, Callable[[VerificationReport, random.Random], None]]] = [
    ("01-delannoy-counts", suite_delannoy_counts),
    ("02-oracle-equivalence", suite_oracle_equivalence),
    ("03-category-axioms", suite_category_axioms),
    ("04-projectors", suite_projectors),
    ("05-multiplicities", suite_multiplicities),
    ("06-euler-calculus", suite_euler_calculus),
    ("07-ring", suite_ring),
    ("08-hopf", suite_hopf),
    ("09-branching", suite_branching),
    ("10-lambda-adams", suite_lambda_adams),
    ("11-schur", suite_schur),
    ("12-cross-module", suite_cross_module),
]

SUITE_NAMES = [name for name, _ in SUITES]


def run_suite(name: str, seed: int = 0) -> VerificationReport:
    """Run one suite by its identifier (number or full slug)."""
    for slug, fn in SUITES:
        if name in (slug, slug.split("-", 1)[0], str(int(slug.split("-", 1)[0]))):
            report = VerificationReport(slug)
            fn(report, random.Random(seed))
            return report
    raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")


def run_all(seed: int = 0) -> list[VerificationReport]:
    return [run_suite(slug, seed) for slug in SUITE_NAMES]
