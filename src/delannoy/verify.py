"""Verification suites: one per acceptance criterion, all exact equalities.

Each suite fills a report with named checks.  A check runs over a stream of
(label, got, want) cases and fails at the first case where got != want; its
detail names that case.  A suite passes when every check does.  Randomized
checks draw all their inputs from a seeded generator before they compare, so
runs are reproducible and a failing check leaves later checks the same draws.
Every case is computed inside its check, so an engine error fails only the
checks that read what raised, and the suite's later checks still run.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import cache
from math import comb, prod

from . import category, euler, kring
from .category import Morphism
from .euler import HalfOpenInterval, SchwartzFn
from .kring import KClass, KTensorClass
from .linalg import determinant, matrix_rank
from .paths import Path, all_weights, delannoy_number, enumerate_paths, project_path, weights_up_to

DETAIL_LIMIT = 300  # characters kept of a failing check's detail line


Check = namedtuple("Check", "name passed detail", defaults=("",))


class VerificationReport:
    __slots__ = ("suite", "checks")

    def __init__(self, suite: str, checks: list[Check] | None = None) -> None:
        self.suite = suite
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        if len(detail) > DETAIL_LIMIT:
            detail = detail[: DETAIL_LIMIT - 3] + "..."
        self.checks.append(Check(name, bool(passed), detail))

    def expect(self, name: str, cases: Iterable[tuple[object, object, object]]
               | Callable[[], Iterable[tuple[object, object, object]]]) -> None:
        """Add the check `name` over (label, got, want) cases: it stops at the
        first case with got != want, or at an exception raised while a case is
        computed or compared, and names that case in the detail.

        `cases` is an iterable, or a function that returns one: a list of
        cases is computed before its check starts, so a function called here
        keeps an error raised while computing them inside this check."""
        last = None
        try:
            for label, got, want in cases() if callable(cases) else cases:
                if got != want:
                    self.add(name, False, f"at {label}: got {got!r}, want {want!r}")
                    return
                last = label
        except Exception as exc:
            where = "before the first case" if last is None else f"after {last}"
            self.add(name, False, f"{where}: raised {type(exc).__name__}: {exc}")
            return
        self.add(name, True)


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


def _top(x: KClass, degree: int) -> dict[str, int]:
    """The terms of x whose words have the given length."""
    return {w: c for w, c in x.coeffs.items() if len(w) == degree}


def suite_delannoy_counts(report: VerificationReport, rng: random.Random) -> None:
    report.expect(
        "enumeration matches recurrence for n <= 6",
        (((n, n), len(enumerate_paths((n, n))), delannoy_number(n, n)) for n in range(7)),
    )
    report.expect("thirteen (2,2)-paths", lambda: [((2, 2), len(enumerate_paths((2, 2))), 13)])
    report.expect(
        "central numbers match the squared-binomial sum for n <= 8",
        ((n, delannoy_number(n, n), sum(comb(n, k) ** 2 * 2**k for k in range(n + 1)))
         for n in range(9)),
    )

    def recurrence():  # D(n, 0) = D(0, m) = 1, D(n, m) = D(n-1, m) + D(n, m-1) + D(n-1, m-1)
        d = {}
        for n, m in itertools.product(range(31), repeat=2):
            d[n, m] = d[n - 1, m] + d[n, m - 1] + d[n - 1, m - 1] if n and m else 1
            yield (n, m), delannoy_number(n, m), d[n, m]

    report.expect("closed form matches the recurrence for n, m <= 30", recurrence)


def suite_oracle_equivalence(report: VerificationReport, rng: random.Random) -> None:
    def cases(pairs):
        for p1, p2 in pairs:
            yield (p1, p2), category.compose_oracle(p1, p2), Morphism.basis(p1) @ Morphism.basis(p2)

    pairs = [
        (p1, p2)
        for n, m, l in itertools.product(range(3), repeat=3)
        for p1 in enumerate_paths((n, m))
        for p2 in enumerate_paths((m, l))
    ]
    report.expect(f"exhaustive at sizes <= 2 ({len(pairs)} pairs)", cases(pairs))
    pairs = []
    for _ in range(1000):
        n, m, l = (rng.randint(0, 3) for _ in range(3))
        pairs.append((rng.choice(enumerate_paths((n, m))), rng.choice(enumerate_paths((m, l)))))
    report.expect("1000 random pairs at sizes <= 3", cases(pairs))


def suite_category_axioms(report: VerificationReport, rng: random.Random) -> None:
    def associativity():
        for n, m, l, k in itertools.product(range(3), repeat=4):
            for p1 in enumerate_paths((n, m)):
                for p2 in enumerate_paths((m, l)):
                    left = Morphism.basis(p1) @ Morphism.basis(p2)
                    for p3 in enumerate_paths((l, k)):
                        b3 = Morphism.basis(p3)
                        right = Morphism.basis(p1) @ (Morphism.basis(p2) @ b3)
                        yield (p1, p2, p3), left @ b3, right

    def identities():
        for n, m in itertools.product(range(4), repeat=2):
            for p in enumerate_paths((n, m)):
                b = Morphism.basis(p)
                yield (p, "on the left"), category.identity(n) @ b, b
                yield (p, "on the right"), b @ category.identity(m), b

    report.expect("associativity, exhaustive at arities <= 2", associativity())
    report.expect("all-diagonal path is a two-sided identity at arities <= 3", identities())
    # Semisimple with simples of dimension +-1: the trace pairing
    # Hom(m -> n) x Hom(n -> m) -> Z is perfect in the path bases, so its Gram
    # determinant is a unit.  Entrywise, trace([p] o [q]) is the Euler integral
    # over O_p meet O_q transposed: (-1)^len(p) if q is p transposed, else 0.
    # Both checks read each block, built on first use.
    shapes = [*itertools.product(range(4), repeat=2), (3, 4), (4, 3)]

    @cache
    def gram(n: int, m: int) -> tuple:
        ps, qs = enumerate_paths((n, m)), enumerate_paths((m, n))
        right = [Morphism.basis(q) for q in qs]
        return ps, qs, [[category.trace(f @ g) for g in right] for f in map(Morphism.basis, ps)]

    def entries():
        for n, m in shapes:
            ps, qs, matrix = gram(n, m)
            for p, row in zip(ps, matrix):
                transposed = project_path(p, (1, 0))
                for q, entry in zip(qs, row):
                    yield (p, q), entry, (-1) ** len(p) if q == transposed else 0

    report.expect(
        "trace pairing has Gram determinant (-1)^(n+m) at n, m <= 3, (3, 4), (4, 3)",
        (((n, m), determinant(gram(n, m)[2]), (-1) ** (n + m)) for n, m in shapes),
    )
    report.expect("trace pairing is (-1)^len(p) at p transposed, else 0, same arities", entries())


def suite_projectors(report: VerificationReport, rng: random.Random) -> None:
    for n in range(7):
        words = all_weights(n)
        projs = {w: category.projector(w) for w in words}
        pairs = [(u, v) for u in words for v in words if u != v]
        report.expect(
            f"idempotent at length {n}", ((w, projs[w] @ projs[w], projs[w]) for w in words)
        )
        report.expect(
            f"pairwise orthogonal at length {n}",
            (((u, v), (projs[u] @ projs[v]).is_zero(), True) for u, v in pairs),
        )
        report.expect(
            f"trace is (-1)^{n} at length {n}",
            ((w, category.trace(projs[w]), (-1) ** n) for w in words),
        )

    # A quasi-diagonal path takes, in each diagonal square, the diagonal step
    # or one of the two turns.  Its eigenvalue is the product over the letters:
    # 1 for the diagonal step, -1 for the turn of the letter's own projector,
    # 0 for the other turn.
    turns = {"d": ((1, 1),), "out_first": ((1, 0), (0, 1)), "in_first": ((0, 1), (1, 0))}
    signs = {("b", "d"): 1, ("w", "d"): 1, ("b", "in_first"): -1, ("w", "out_first"): -1}

    def eigenvalues():
        for n in range(5):
            quasi = {
                Path(2, sum((turns[t] for t in choices), ())): choices
                for choices in itertools.product(turns, repeat=n)
            }
            for word in all_weights(n):
                pi = category.projector(word)
                for p, choices in quasi.items():
                    val = prod(signs.get((letter, t), 0) for letter, t in zip(word, choices))
                    yield (word, p), pi @ Morphism.basis(p) @ pi, val * pi
                for p in enumerate_paths((n, n)):
                    if p not in quasi:
                        yield (word, p), (pi @ Morphism.basis(p) @ pi).is_zero(), True

    report.expect("eigenvalue scalars for quasi-diagonal paths at length <= 4", eigenvalues())


def suite_multiplicities(report: VerificationReport, rng: random.Random) -> None:
    def binomial_ranks(m: int, max_length: int):
        for word in weights_up_to(max_length):
            yield (word, m), category.multiplicity_rank(word, m), comb(m, len(word))

    def hom_dimension(n: int, m: int) -> int:  # of Hom(m -> n), summed over the simples
        return sum(
            category.multiplicity_rank(w, n) * category.multiplicity_rank(w, m)
            for w in weights_up_to(min(n, m))
        )

    report.expect(
        "rank equals binom(m, len) for m <= 3",
        itertools.chain.from_iterable(binomial_ranks(m, m) for m in range(4)),
    )
    report.expect("rank equals binom(4, len) for words of length <= 3", binomial_ranks(4, 3))
    report.expect("rank equals binom(5, len) for words of length <= 4", binomial_ranks(5, 4))
    report.expect(
        "total length of the arity-n space is 3^n for n <= 3",
        ((n, sum(category.multiplicity_rank(w, n) for w in weights_up_to(n)), 3**n)
         for n in range(4)),
    )
    report.expect(
        "sum of squared ranks is the central Delannoy number for n <= 3",
        ((n, hom_dimension(n, n), delannoy_number(n, n)) for n in range(4)),
    )
    report.expect(
        "sum of rank products is the Delannoy number D(n, m) for n, m <= 3",
        (((n, m), hom_dimension(n, m), delannoy_number(n, m))
         for n, m in itertools.product(range(4), repeat=2)),
    )


def suite_euler_calculus(report: VerificationReport, rng: random.Random) -> None:
    point = euler.point_mass((0,))
    report.expect("point mass integrates to 1", lambda: [(point, euler.integrate(point), 1)])
    open_iv = SchwartzFn(1, (0, 1), {(2,): 1})
    report.expect("open interval integrates to -1",
                  lambda: [(open_iv, euler.integrate(open_iv), -1)])
    half = HalfOpenInterval("b", 1, 0)
    report.expect(
        "half-open interval integrates to 0",
        lambda: [(half, euler.integrate(euler.interval_indicator([half])), 0)],
    )
    ordered = []
    for _ in range(100):
        f = _random_schwartz(rng, rng.randint(1, 3))
        order = list(range(f.arity))
        rng.shuffle(order)
        ordered.append((f, order))
    report.expect(
        "iterated pushforward is order independent (100 random)",
        (((f, order), euler.integrate_fully(f, order), euler.integrate(f)) for f, order in ordered),
    )
    pairs = [(_random_schwartz(rng, 2), _random_schwartz(rng, 2)) for _ in range(50)]
    report.expect(
        "additivity of the integral",
        (((f, g), euler.integrate(f + g), euler.integrate(f) + euler.integrate(g))
         for f, g in pairs),
    )
    report.expect(
        "product cells have multiplicative volume",
        ((sig, euler.integrate(SchwartzFn(2, (0, 1), {sig: 1})),
          prod(1 if s % 2 else -1 for s in sig)) for sig in euler.iter_signatures(2, 2)),
    )


def suite_ring(report: VerificationReport, rng: random.Random) -> None:
    b, w = KClass.word("b"), KClass.word("w")
    bw, wb = KClass.word("bw"), KClass.word("wb")
    one = KClass.unit()
    report.expect("b*b = 2bb + b", lambda: [((b, b), b * b, 2 * KClass.word("bb") + b)])
    report.expect("b*w = bw + wb + b + w + 1", lambda: [((b, w), b * w, bw + wb + b + w + one)])
    expected = 2 * KClass.word("bbw") + KClass.word("bwb") + 2 * bw + KClass.word("bb") + b
    report.expect("b*bw expansion", lambda: [((b, bw), b * bw, expected)])
    words3 = weights_up_to(3)

    def commutes_with_unit():
        for u, v in itertools.product(words3, repeat=2):
            yield (u, v), KClass.word(u) * KClass.word(v), KClass.word(v) * KClass.word(u)
        for u in words3:
            yield (one, u), one * KClass.word(u), KClass.word(u)

    def tensor_identity():
        for n in range(7):  # (6, m) in one order only; commutativity has its own check
            for m in range(6):
                lengths = Counter(len(p) for p in enumerate_paths((n, m)))
                rhs = sum((c * kring.schwartz_class(k) for k, c in lengths.items()), KClass())
                yield (n, m), kring.schwartz_class(n) * kring.schwartz_class(m), rhs

    report.expect("commutative with unit at degree <= 3", commutes_with_unit())
    triples = [[KClass.word(rng.choice(words3)) for _ in range(3)] for _ in range(200)]
    report.expect(
        "associativity on 200 random triples of degree <= 3",
        (((x, y, z), (x * y) * z, x * (y * z)) for x, y, z in triples),
    )
    report.expect(
        "one-letter times all-same-letter products for n <= 6",
        ((n, b * KClass.word("b" * n),
          (n + 1) * KClass.word("b" * (n + 1)) + n * KClass.word("b" * n)) for n in range(7)),
    )
    report.expect("object-level tensor identity for n <= 6, m <= 5", tensor_identity())


def suite_hopf(report: VerificationReport, rng: random.Random) -> None:
    one = KClass.unit()

    def convolutions(degree, left_term, right_term, target):
        # per word u, the sums of coeff * term(a, c) over the terms coeff * (a, c) of restrict(u)
        for u in weights_up_to(degree):
            left = right = KClass()
            for (a, c), coeff in kring.restrict(KClass.word(u)).coeffs.items():
                left = left + coeff * left_term(KClass.word(a), KClass.word(c))
                right = right + coeff * right_term(KClass.word(a), KClass.word(c))
            yield u, (left, right), (target(KClass.word(u)),) * 2

    report.expect(
        "counit axioms at degree <= 4",
        convolutions(4, lambda x, y: kring.counit(x) * y, lambda x, y: kring.counit(y) * x,
                     lambda x: x),
    )
    report.expect(
        "antipode axioms at degree <= 6",
        convolutions(6, lambda x, y: kring.antipode(x) * y,
                     lambda x, y: x * kring.antipode(y), lambda x: kring.counit(x) * one),
    )
    b, w = KClass.word("b"), KClass.word("w")
    antipodes = {
        "b": -b - 2 * one,
        "bb": KClass.word("bb") + 3 * b + 3 * one,
        "bw": KClass.word("wb") + 2 * b + 2 * w + 4 * one,
    }
    report.expect(
        "antipode on b, bb, bw",
        ((u, kring.antipode(KClass.word(u)), s) for u, s in antipodes.items()),
    )

    def delta(x: KClass) -> KTensorClass:
        return kring.restrict(x) - KTensorClass.pure(x, one) - KTensorClass.pure(one, x)

    def primitives():
        yield b + one, delta(b + one), KTensorClass()
        yield w + one, delta(w + one), KTensorClass()
        basis_words = weights_up_to(2)
        images = [delta(KClass.word(u)) for u in basis_words]
        keys = dict.fromkeys(key for img in images for key in img.coeffs)
        matrix = [[img.coeffs.get(k, 0) for img in images] for k in keys]
        yield "the kernel of delta at degree <= 2", len(basis_words) - matrix_rank(matrix), 2

    report.expect("primitives are exactly the span of b+1 and w+1", primitives())

    def graded_products():
        for u, v in itertools.product(weights_up_to(3), repeat=2):
            top = _top(KClass.word(u) * KClass.word(v), len(u) + len(v))
            yield (u, v), top, dict(Counter(kring.shuffle_words(u, v)))

    report.expect(
        "associated graded product is the shuffle product at degree <= 3", graded_products()
    )
    report.expect(
        "antipode leading term is the signed reversal at degree <= 6",
        ((u, _top(kring.antipode(KClass.word(u)), len(u)), {u[::-1]: (-1) ** len(u)})
         for u in weights_up_to(6)),
    )


def suite_branching(report: VerificationReport, rng: random.Random) -> None:
    words2 = weights_up_to(2)

    def pure(u: str, v: str) -> KTensorClass:
        return KTensorClass.pure(KClass.word(u), KClass.word(v))

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

    def frobenius():
        for u, v, z in itertools.product(words2, repeat=3):
            t, y = pure(u, v), KClass.word(z)
            yield (u, v, z), kring.inner(kring.induce(t), y), kring.inner(t, kring.restrict(y))

    def projection_formula():
        for u, v, z in itertools.product(words2, repeat=3):
            x, t = KClass.word(u), pure(v, z)
            yield (u, v, z), kring.induce(kring.restrict(x) * t), x * kring.induce(t)

    def mackey():
        for u, v in itertools.product(words2, repeat=2):
            x, y = KClass.word(u), KClass.word(v)
            rhs = (
                KTensorClass.pure(x, y)
                + ind_12(x, kring.restrict(y))
                + ind_23(kring.restrict(x), y)
            )
            yield (u, v), kring.restrict(kring.induce(KTensorClass.pure(x, y))), rhs

    def homomorphism():
        for u, v in itertools.product(words2, repeat=2):
            x, y = KClass.word(u), KClass.word(v)
            yield (u, v), kring.restrict(x * y), kring.restrict(x) * kring.restrict(y)

    def hilbert_products():
        for u, v in itertools.product(words2, repeat=2):
            induced = kring.induce(pure(u, v))
            hu = [kring.hilbert_value(KClass.word(u), r) for r in range(7)]
            hv = [kring.hilbert_value(KClass.word(v), r) for r in range(7)]
            for n in range(7):
                convolved = sum(hu[r] * hv[n - r] for r in range(n + 1)) + sum(
                    hu[r] * hv[n - 1 - r] for r in range(n)
                )
                yield (u, v, n), kring.hilbert_value(induced, n), convolved

    report.expect("Frobenius reciprocity on words of length <= 2", frobenius())
    report.expect("projection formula on words of length <= 2", projection_formula())
    report.expect("Mackey identity on words of length <= 2", mackey())
    report.expect("restriction is a ring homomorphism at degree <= 2", homomorphism())
    report.expect(
        "induction multiplies Hilbert functions (with the 1+t factor), N <= 6", hilbert_products()
    )


def suite_lambda_adams(report: VerificationReport, rng: random.Random) -> None:
    b = KClass.word("b")
    report.expect(
        "n-th exterior power of a letter is the n-letter word, n <= 5",
        ((n, kring.lambda_binomial(b, n), KClass.word("b" * n)) for n in range(6)),
    )
    pool = weights_up_to(2)
    classes = [
        KClass({w: rng.randint(-3, 3) for w in rng.sample(pool, rng.randint(1, 3))})
        for _ in range(20)
    ]
    report.expect(
        "binom(x, n) integral for 20 random classes of degree <= 2, n <= 4",
        (((x, n), kring.lambda_binomial(x, n).is_integral(), True)
         for x in classes for n in range(5)),
    )
    report.expect(
        "Adams operations fix every word of length <= 3 for i <= 4",
        (((u, i), kring.adams(KClass.word(u), i), KClass.word(u))
         for u in weights_up_to(3) for i in range(1, 5)),
    )


def suite_schur(report: VerificationReport, rng: random.Random) -> None:
    def hook_content_polys():
        for parts in _partitions_up_to(5):
            poly = kring.schur_dimension_poly(parts)
            for t in range(11):
                yield (parts, f"denominator at {t}"), poly.evaluate(t).denominator, 1
            yield (parts, "negative coefficients"), [c for c in poly.coeffs if c < 0], []

    report.expect(
        "hook content polynomials integer-valued with non-negative binomial coefficients, "
        "|partition| <= 5",
        hook_content_polys(),
    )
    b = KClass.word("b")
    report.expect(
        "column pair and row pair on a single letter",
        lambda: [
            ((1, 1), kring.schur_apply((1, 1), b), KClass.word("bb")),
            ((2,), kring.schur_apply((2,), b), KClass.word("bb") + b),
        ],
    )
    report.expect(
        "counit of a Schur value matches the polynomial at -1, |partition| <= 4",
        ((parts, kring.counit(kring.schur_apply(parts, b)),
          kring.schur_dimension_poly(parts).evaluate(-1)) for parts in _partitions_up_to(4)),
    )


def suite_cross_module(report: VerificationReport, rng: random.Random) -> None:
    def key_extensions():
        for word in weights_up_to(3):
            key = euler.key_indicator(word, tuple(range(1, len(word) + 1)))
            yield word, category.invariant_extension(key), category.projector(word)

    report.expect(
        "cell counts match Hilbert values of the arity classes, n, m <= 4",
        (((n, m), sum(1 for _ in euler.iter_signatures(n, m)),
          kring.hilbert_value(kring.schwartz_class(n), m))
         for n, m in itertools.product(range(5), repeat=2)),
    )
    report.expect("key indicators extend to the projectors, length <= 3", key_extensions())
    draws = []
    for _ in range(50):
        n = rng.randint(1, 3)
        word = "".join(rng.choice("bw") for _ in range(n))
        cuts = sorted(rng.sample(range(-20, 21), 2 * n))
        a = tuple(Fraction(v, 2) for v in sorted(rng.sample(range(-40, 41), n)))
        draws.append((word, cuts, a))

    def pairings():
        table = str.maketrans("bw", "wb")
        for word, cuts, a in draws:
            intervals = [
                HalfOpenInterval("b", hi, lo) if letter == "b" else HalfOpenInterval("w", lo, hi)
                for letter, lo, hi in zip(word, cuts[::2], cuts[1::2])
            ]
            phi = euler.interval_indicator(intervals)
            psi = euler.key_indicator(word.translate(table), a)
            evaluated = 1 if all(iv.contains(x) for iv, x in zip(intervals, a)) else 0
            yield (word, cuts, a), euler.pair(phi, psi), evaluated

    report.expect(
        "pairing against the dual key indicator evaluates at the basepoint, 50 random", pairings()
    )


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
    """Run one suite by its identifier (number or full slug).

    An exception raised outside the suite's checks fails one more check,
    "suite runs to the end", whose detail names the last check before it."""
    for slug, fn in SUITES:
        if name in (slug, slug.split("-", 1)[0], str(int(slug.split("-", 1)[0]))):
            report = VerificationReport(slug)
            try:
                fn(report, random.Random(seed))
            except Exception as exc:
                last = report.checks[-1].name if report.checks else None
                where = "before the first check" if last is None else f"after {last}"
                report.add("suite runs to the end", False,
                           f"{where}: raised {type(exc).__name__}: {exc}")
            return report
    raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")


def run_all(seed: int = 0) -> Iterator[VerificationReport]:
    """Every suite in order, each run when the iterator reaches it."""
    return (run_suite(slug, seed) for slug in SUITE_NAMES)
