import contextlib
import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delannoy
from delannoy import kring
from delannoy.kring import (
    IntValuedPoly,
    KClass,
    KTensorClass,
    adams,
    antipode,
    binom_at,
    check_partition,
    concat_mul,
    counit,
    dual,
    hilbert_value,
    induce,
    inner,
    lambda_binomial,
    line_class,
    restrict,
    schur_apply,
    schur_dimension_poly,
    schwartz_class,
    shuffle_words,
    tensor_mul,
)
from delannoy.linalg import matrix_rank
from delannoy.paths import enumerate_paths, weights_up_to
from test_category import BAD_ARITIES

F = Fraction
ONE = KClass.unit()


def word(w):
    return KClass.word(w)


def random_class(rng, max_len=2, terms=3):
    pool = weights_up_to(max_len)
    coeffs = {}
    for w in rng.sample(pool, min(len(pool), terms)):
        coeffs[w] = F(rng.randint(-3, 3))
    return KClass(coeffs)


class TestConcat:
    def test_defining_relation(self):
        assert concat_mul(word("b"), word("w")) == word("bw")

    def test_unit(self):
        x = KClass({"bw": F(2), "": F(-1)})
        assert concat_mul(ONE, x) == x
        assert concat_mul(x, ONE) == x

    def test_bilinear(self):
        assert concat_mul(word("b") + ONE, word("w")) == word("bw") + word("w")

    def test_associative(self):
        rng = random.Random(1)
        for _ in range(30):
            x, y, z = (random_class(rng) for _ in range(3))
            assert concat_mul(concat_mul(x, y), z) == concat_mul(x, concat_mul(y, z))


class TestStandardProduct:
    def test_square_of_filled_letter(self):
        assert word("b") * word("b") == 2 * word("bb") + word("b")

    def test_mixed_letters(self):
        expected = word("bw") + word("wb") + word("b") + word("w") + ONE
        assert word("b") * word("w") == expected

    def test_letter_times_pair(self):
        expected = (
            2 * word("bbw")
            + word("bwb")
            + 2 * word("bw")
            + word("bb")
            + word("b")
        )
        assert word("b") * word("bw") == expected

    def test_open_square_by_duality(self):
        assert word("w") * word("w") == 2 * word("ww") + word("w")

    def test_commutative_exhaustive(self):
        for u in weights_up_to(3):
            for v in weights_up_to(3):
                assert word(u) * word(v) == word(v) * word(u)

    def test_unit(self):
        for u in weights_up_to(3):
            assert ONE * word(u) == word(u)

    def test_associative_random(self):
        rng = random.Random(2)
        for _ in range(200):
            x, y, z = (word(rng.choice(weights_up_to(3))) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_filtration_degree(self):
        rng = random.Random(3)
        for _ in range(40):
            x, y = random_class(rng), random_class(rng)
            prod = x * y
            if not prod.is_zero():
                assert prod.degree() <= x.degree() + y.degree()

    def test_special_products(self):
        for n in range(7):
            lhs = word("b") * word("b" * n)
            assert lhs == (n + 1) * word("b" * (n + 1)) + n * word("b" * n)

    def test_object_level_tensor_identity(self):
        for n in range(4):
            for m in range(4):
                rhs = KClass()
                for p in enumerate_paths((n, m)):
                    rhs = rhs + schwartz_class(len(p))
                assert schwartz_class(n) * schwartz_class(m) == rhs

    def test_matches_explicit_path_walk(self):
        # independent oracle: enumerate the interleavings as lattice paths and
        # concatenate one factor per step
        def collision(a, b):
            if a == b:
                return word(a)
            return word("b") + word("w") + ONE

        def path_walk_product(u, v):
            out = KClass()
            for p in enumerate_paths((len(u), len(v))):
                factor = ONE
                i = j = 0
                for su, sv in p.steps:
                    if su and sv:
                        factor = concat_mul(factor, collision(u[i], v[j]))
                        i, j = i + 1, j + 1
                    elif su:
                        factor = concat_mul(factor, word(u[i]))
                        i += 1
                    else:
                        factor = concat_mul(factor, word(v[j]))
                        j += 1
                out = out + factor
            return out

        for u in weights_up_to(3):
            for v in weights_up_to(3):
                assert word(u) * word(v) == path_walk_product(u, v)

    def test_top_degree_part_is_shuffle(self):
        for u in weights_up_to(3):
            for v in weights_up_to(3):
                top = len(u) + len(v)
                prod = word(u) * word(v)
                got = {w: c for w, c in prod.coeffs.items() if len(w) == top}
                expected = {}
                for s in shuffle_words(u, v):
                    expected[s] = expected.get(s, F(0)) + 1
                assert got == expected


def shuffle_reference(u, v):
    """The interleavings by first letter, recursively: those starting with u[0] first."""
    if not u or not v:
        return [u + v]
    return ([u[0] + rest for rest in shuffle_reference(u[1:], v)]
            + [v[0] + rest for rest in shuffle_reference(u, v[1:])])


class TestShuffleWords:
    def test_matches_the_recursion_in_order(self):
        words = ["", "b", "w", "bw", "wb", "bbw", "wwbw", "bwbwb", "bbbbb"]
        for u in words:
            for v in words:
                assert list(shuffle_words(u, v)) == shuffle_reference(u, v)

    def test_long_word_needs_no_recursion(self):
        # the recursive generator raised RecursionError past about 1000 letters
        got = list(shuffle_words("b" * 1100, "w"))
        assert got == ["b" * k + "w" + "b" * (1100 - k) for k in reversed(range(1101))]


def reference_product(u, v):
    """The product as its definition reads: every interleaving of u and v in
    which letters may collide (equal letters keep the letter, b with w gives
    b, w or nothing), counted with multiplicity."""
    out = Counter()

    def walk(i, j, prefix):
        if i == len(u) and j == len(v):
            out[prefix] += 1
        if i < len(u):
            walk(i + 1, j, prefix + u[i])
        if j < len(v):
            walk(i, j + 1, prefix + v[j])
        if i < len(u) and j < len(v):
            for g in (u[i],) if u[i] == v[j] else ("b", "w", ""):
                walk(i + 1, j + 1, prefix + g)

    walk(0, 0, "")
    return KClass(dict(out))


words5 = st.text(alphabet="bw", max_size=5)


def classes(max_len):
    """Classes of up to three words, with integral and non-integral coefficients."""
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    words = st.text(alphabet="bw", max_size=max_len)
    return st.dictionaries(words, coeffs, max_size=3).map(KClass)


class TestProductProperties:
    @settings(max_examples=150, deadline=None)
    @given(words5, words5)
    def test_matches_interleaving_definition(self, u, v):
        assert tensor_mul(word(u), word(v)) == reference_product(u, v)

    @settings(max_examples=100, deadline=None)
    @given(classes(5), classes(5))
    def test_commutative_and_counit_multiplicative(self, x, y):
        assert x * y == y * x
        assert counit(x * y) == counit(x) * counit(y)

    @settings(max_examples=50, deadline=None)
    @given(classes(3), classes(3), classes(3))
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)


class TestEngine:
    def test_cached_values_cannot_be_poisoned(self):
        b, w, bw = word("b"), word("w"), word("bw")
        product = word("bw") + word("wb") + word("b") + word("w") + ONE
        anti = word("wb") + 2 * word("b") + 2 * word("w") + 4 * ONE
        for _ in range(2):
            assert b * w == product
            assert antipode(bw) == anti
            with pytest.raises(TypeError):
                (b * w).coeffs["bw"] = F(99)
            with pytest.raises(TypeError):
                antipode(bw).coeffs["wb"] = F(99)
            for cached in (kring._tensor_basis("b", "w"), kring._antipode_word("bw")):
                with contextlib.suppress(AttributeError, TypeError):
                    cached.coeffs["bw"] = F(99)
        memoised = list(kring._pairs.values()) + [kring._antipode_word("bw")]
        for cached in memoised:
            assert type(cached) is tuple
            assert all(type(term) is tuple and len(term) == 2 for term in cached)

    def test_small_memo_gives_the_same_values(self, monkeypatch):
        rng = random.Random(11)
        pairs = [(random_class(rng, 4, 4), random_class(rng, 3, 4)) for _ in range(200)]
        square = schwartz_class(3) * schwartz_class(3)
        products = [x * y for x, y in pairs]
        monkeypatch.setattr(kring, "_MEMO_TERMS", 3)
        kring._pairs.clear()
        assert schwartz_class(3) * schwartz_class(3) == square
        assert [x * y for x, y in pairs] == products
        assert len(kring._pairs) <= 3

    def test_threads_share_a_small_memo(self, monkeypatch):
        rng = random.Random(12)
        pairs = [(random_class(rng, 4, 3), random_class(rng, 3, 3)) for _ in range(40)]
        want = [x * y for x, y in pairs]
        monkeypatch.setattr(kring, "_MEMO_TERMS", 3)  # every few misses evict half the memo
        results = [None] * 4

        def work(k):
            results[k] = [x * y for x, y in pairs[k:] + pairs[:k]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want[k:] + want[:k] for k in range(4)]

    def test_memo_keys_the_unordered_pair(self):
        u, v = "bwwbwbbwbwwbwbbw", "wbbwwb"  # a pair no other test multiplies
        first = kring._tensor_basis(u, v)
        before = kring._tensor_basis.cache_info()
        assert kring._tensor_basis(u, v) is first
        assert kring._tensor_basis(v, u) is first
        after = kring._tensor_basis.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)
        assert after.maxsize == kring._MEMO_TERMS and 1 <= after.currsize <= after.maxsize

    def test_term_count_is_the_stored_length(self, monkeypatch):
        rng = random.Random(13)
        monkeypatch.setattr(kring, "_MEMO_TERMS", 300)
        kring._pairs.clear()
        before = kring._tensor_basis.cache_info()
        for _ in range(60):
            random_class(rng, 4, 4) * random_class(rng, 4, 4)
            assert kring._pairs.terms == sum(map(len, kring._pairs.values())) <= 300
        info = kring._tensor_basis.cache_info()
        assert info.maxsize == 300 and info.misses - before.misses > info.currsize  # it evicted

    def test_store_drops_the_oldest_half(self, monkeypatch):
        monkeypatch.setattr(kring, "_MEMO_TERMS", 10)
        memo = kring._Memo()
        for k in range(6):
            memo.store(k, (("b", 1), ("w", 1)))
        assert list(memo) == [3, 4, 5] and memo.terms == 6
        assert memo.store("long", (("", 1),) * 11) and "long" not in memo
        assert (memo.lookup(5), memo.lookup(0)) == ((("b", 1), ("w", 1)), None)
        assert memo.cache_info() == (1, 1, 10, 3)
        memo.clear()
        assert memo.terms == 0 and memo.cache_info() == (1, 1, 10, 0)

    def test_newest_entry_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(kring, "_MEMO_TERMS", 40)
        kring._pairs.clear()
        keys = set()
        for u in weights_up_to(3):
            for v in weights_up_to(2):
                product = kring._tensor_basis(u, v)
                keys.add((u, v) if u <= v else (v, u))
                assert kring._pairs[(u, v) if u <= v else (v, u)] is product
        assert len(kring._pairs) < len(keys)  # it evicted

    def test_values_match_the_unbounded_memo(self, monkeypatch):
        rng = random.Random(14)
        pairs = [(random_class(rng, 5, 4), random_class(rng, 4, 4)) for _ in range(40)]
        words = ["".join(rng.choice("bw") for _ in range(7)) for _ in range(10)]
        monkeypatch.setattr(kring, "_MEMO_TERMS", float("inf"))
        kring._pairs.clear()
        kring._antipodes.clear()
        want = [x * y for x, y in pairs] + [antipode(word(w)) for w in words]
        monkeypatch.setattr(kring, "_MEMO_TERMS", 50)
        kring._pairs.clear()
        kring._antipodes.clear()
        assert [x * y for x, y in pairs] + [antipode(word(w)) for w in words] == want

    def test_antipode_computes_each_pair_once(self):
        kring._pairs.clear()
        kring._antipodes.clear()
        before = kring._tensor_basis.cache_info()
        antipode(word("b" * 60))
        after = kring._tensor_basis.cache_info()
        assert after.misses - before.misses == after.currsize == 31 ** 2
        assert kring._antipode_word.cache_info().currsize == 1

    def test_product_is_the_same_run_either_way(self):
        # the memo answers a swapped pair from one entry; emptied, each order runs its own programme
        for u in weights_up_to(3):
            for v in weights_up_to(3):
                kring._pairs.clear()
                uv = dict(kring._tensor_basis(u, v))
                kring._pairs.clear()
                assert dict(kring._tensor_basis(v, u)) == uv

    def test_antipode_needs_no_stack_for_a_long_word(self):
        code = (
            "import hashlib, sys\n"
            "from delannoy import KClass, antipode\n"
            "sys.setrecursionlimit(50)\n"
            "print(hashlib.sha256(antipode(KClass.word('b' * 60)).dumps().encode()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(delannoy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-500:]
        # the value that the recursive definition gave (sha256 of its JSON text)
        assert proc.stdout.strip() == (
            "fab8896def27f6f9f8a13d8dc96180b1d7241504f5d88aa7459b5a9e7b7eccf7")

    def test_binomial_chain_divides_in_int(self):
        rng = random.Random(5)
        for _ in range(20):
            x = random_class(rng, 2, 3)
            for link in kring._binomial_chain(x, 4):
                assert all(type(c) is int for c in link.coeffs.values())
        for _ in range(20):
            x = random_class(rng, 2, 3) * F(1, rng.choice((2, 3)))
            chain = [ONE]
            for j in range(1, 4):  # the chain as it was: multiplied by the Fraction 1/j
                chain.append(tensor_mul(chain[-1], x - (j - 1)) * F(1, j))
            for got, want in zip(kring._binomial_chain(x, 3), chain):
                assert dict(got.coeffs) == dict(want.coeffs)
                assert_same_as_checked(got)
        half = KClass({"b": F(1, 2)})
        with pytest.raises(delannoy.InvariantError):
            lambda_binomial(half, 2)
        with pytest.raises(delannoy.InvariantError):
            schur_apply((2,), half)

    def test_integrality_guard_survives_optimize_flag(self):
        code = (
            "from fractions import Fraction\n"
            "from delannoy import InvariantError, KClass, lambda_binomial\n"
            "try:\n"
            "    lambda_binomial(KClass({'': Fraction(1, 2)}), 2)\n"
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n"
        )
        src = os.path.dirname(os.path.dirname(delannoy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr


class TestInductionRestriction:
    def test_induce_unit(self):
        assert induce(KTensorClass.pure(ONE, ONE)) == line_class()

    def test_induce_pair_of_words(self):
        got = induce(KTensorClass.pure(word("b"), word("w")))
        assert got == word("bbw") + word("bww") + word("bw")

    def test_iterated_induction_gives_schwartz_classes(self):
        x = ONE
        for n in range(1, 4):
            x = induce(KTensorClass.pure(x, ONE))
            assert x == schwartz_class(n)
        # multiplicities at n=2: one copy of each pair, two of each letter, one unit
        expected = KClass(
            {
                "bb": F(1), "bw": F(1), "wb": F(1), "ww": F(1),
                "b": F(2), "w": F(2), "": F(1),
            }
        )
        assert schwartz_class(2) == expected

    def test_restrict_unit(self):
        assert restrict(ONE) == KTensorClass.pure(ONE, ONE)

    def test_restrict_single_letter(self):
        got = restrict(word("b"))
        expected = (
            KTensorClass.pure(word("b"), ONE)
            + KTensorClass.pure(ONE, word("b"))
            + KTensorClass.pure(ONE, ONE)
        )
        assert got == expected

    def test_restrict_pair(self):
        got = restrict(word("bw"))
        expected = (
            KTensorClass.pure(word("bw"), ONE)
            + KTensorClass.pure(word("b"), word("w"))
            + KTensorClass.pure(ONE, word("bw"))
            + KTensorClass.pure(ONE, word("w"))
            + KTensorClass.pure(word("b"), ONE)
        )
        assert got == expected

    def test_restriction_filtration(self):
        for u in weights_up_to(3):
            for (a, b), c in restrict(word(u)).coeffs.items():
                assert len(a) + len(b) <= len(u)

    def test_restrict_is_ring_homomorphism(self):
        for u in weights_up_to(2):
            for v in weights_up_to(2):
                lhs = restrict(word(u) * word(v))
                rhs = restrict(word(u)) * restrict(word(v))
                assert lhs == rhs

    def test_frobenius_reciprocity(self):
        for u in weights_up_to(2):
            for v in weights_up_to(2):
                t = KTensorClass.pure(word(u), word(v))
                for z in weights_up_to(2):
                    assert inner(induce(t), word(z)) == inner(
                        t, restrict(word(z))
                    )

    def test_projection_formula(self):
        for x in weights_up_to(2):
            for y in weights_up_to(2):
                for z in weights_up_to(2):
                    t = KTensorClass.pure(word(y), word(z))
                    lhs = induce(restrict(word(x)) * t)
                    rhs = word(x) * induce(t)
                    assert lhs == rhs

    def test_mackey_formula(self):
        def ind_12(x, t):
            out = KTensorClass()
            for (u, v), c in t.coeffs.items():
                out = out + c * KTensorClass.pure(
                    induce(KTensorClass.pure(x, word(u))), word(v)
                )
            return out

        def ind_23(t, y):
            out = KTensorClass()
            for (u, v), c in t.coeffs.items():
                out = out + c * KTensorClass.pure(
                    word(u), induce(KTensorClass.pure(word(v), y))
                )
            return out

        for u in weights_up_to(2):
            for v in weights_up_to(2):
                x, y = word(u), word(v)
                lhs = restrict(induce(KTensorClass.pure(x, y)))
                rhs = (
                    KTensorClass.pure(x, y)
                    + ind_12(x, restrict(y))
                    + ind_23(restrict(x), y)
                )
                assert lhs == rhs


class TestCounitAntipode:
    def test_counit_values(self):
        assert counit(word("b")) == -1
        assert counit(ONE) == 1
        assert counit(induce(KTensorClass.pure(ONE, ONE))) == -1

    def test_counit_axioms(self):
        for u in weights_up_to(4):
            res = restrict(word(u))
            left = KClass()
            right = KClass()
            for (a, b), c in res.coeffs.items():
                left = left + c * counit(word(a)) * word(b)
                right = right + c * counit(word(b)) * word(a)
            assert left == word(u)
            assert right == word(u)

    def test_antipode_examples(self):
        assert antipode(word("b")) == -word("b") - 2 * ONE
        assert antipode(word("bb")) == word("bb") + 3 * word("b") + 3 * ONE
        assert antipode(word("bw")) == (
            word("wb") + 2 * word("b") + 2 * word("w") + 4 * ONE
        )
        assert antipode(ONE) == ONE

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_antipode_axioms(self, side):
        for u in weights_up_to(4):
            res = restrict(word(u))
            acc = KClass()
            for (a, b), c in res.coeffs.items():
                if side == "left":
                    acc = acc + c * (antipode(word(a)) * word(b))
                else:
                    acc = acc + c * (word(a) * antipode(word(b)))
            assert acc == counit(word(u)) * ONE

    def test_antipode_leading_term(self):
        for u in weights_up_to(4):
            s = antipode(word(u))
            top = {w: c for w, c in s.coeffs.items() if len(w) == len(u)}
            assert top == {u[::-1]: F((-1) ** len(u))}

    def test_primitives_are_exactly_the_augmented_letters(self):
        def delta(x):
            return (
                restrict(x)
                - KTensorClass.pure(x, ONE)
                - KTensorClass.pure(ONE, x)
            )

        assert delta(word("b") + ONE) == KTensorClass()
        assert delta(word("w") + ONE) == KTensorClass()
        # the kernel of delta on the degree <= 2 slice has rank exactly 2
        basis_words = weights_up_to(2)
        pair_index = {}
        rows = []
        for u in basis_words:
            img = delta(word(u))
            for key in img.coeffs:
                pair_index.setdefault(key, len(pair_index))
        for u in basis_words:
            img = delta(word(u))
            row = [F(0)] * len(pair_index)
            for key, c in img.coeffs.items():
                row[pair_index[key]] = c
            rows.append(row)
        matrix = [list(col) for col in zip(*rows)]  # columns = basis classes
        assert len(basis_words) - matrix_rank(matrix) == 2


def assert_same_as_checked(x):
    """A result built by the trusted constructor equals its checked rebuild, number types too."""
    rebuilt = type(x)(*x._space(), dict(x.coeffs))
    assert x == rebuilt and all(x.coeffs.values())
    assert {w: type(c) for w, c in x.coeffs.items()} == {w: type(c) for w, c in rebuilt.coeffs.items()}
    with pytest.raises(TypeError):
        x.coeffs["b"] = 1
    with pytest.raises(AttributeError):
        x.coeffs = {}
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is type(x) and clone == x


class TestTrustedResults:
    @settings(max_examples=60, deadline=None)
    @given(classes(3), classes(3))
    def test_products_and_antipodes_equal_checked_rebuilds(self, x, y):
        whole = x * 6  # the sampled coefficients are multiples of 1/2 or 1/3
        for z in (tensor_mul(x, F(1, 2) * y), antipode(x * F(1, 3)), x * y,
                  concat_mul(x, y), concat_mul(whole, whole), restrict(x), restrict(whole),
                  induce(restrict(x)), induce(restrict(whole)), restrict(x) * restrict(y),
                  restrict(whole) * restrict(whole), whole, whole * 2, -whole, whole - whole,
                  whole + x, x - y, -restrict(x), restrict(x) + restrict(y), dual(x), dual(whole),
                  KTensorClass.pure(x, y), KTensorClass.pure(whole, whole)):
            assert_same_as_checked(z)

    def test_halves_summing_to_one_are_int(self):
        # bw comes once from b * w and once from w * b
        z = tensor_mul(KClass({"b": F(1, 2), "w": F(1, 2)}), KClass({"b": 1, "w": 1}))
        assert z.coeffs["bw"] == 1 and type(z.coeffs["bw"]) is int
        assert_same_as_checked(z)
        s = antipode(KClass({"b": F(1, 2), "w": F(1, 2)}))
        assert dict(s.coeffs) == {"": -2, "b": F(-1, 2), "w": F(-1, 2)}
        assert type(s.coeffs[""]) is int
        assert_same_as_checked(s)

    def test_cancelled_terms_are_dropped(self):
        # the standard product is commutative, so b * w - w * b is zero
        z = tensor_mul(word("b") - word("w"), word("b") + word("w"))
        assert dict(z.coeffs) == dict((word("b") * word("b") - word("w") * word("w")).coeffs)
        assert "bw" not in z.coeffs and "" not in z.coeffs
        assert_same_as_checked(z)
        s = antipode(word("b") - word("w"))  # S(b) = -b - 2 and S(w) = -w - 2
        assert dict(s.coeffs) == {"b": -1, "w": 1}
        assert_same_as_checked(s)


@pytest.mark.parametrize("bad", BAD_ARITIES)  # True among them
def test_integer_arguments_reject_non_integers(bad):
    # 2.7 and True were read as parts 2 and 1, and 2.0 raised TypeError elsewhere
    b = word("b")
    calls = [lambda: check_partition([bad]), lambda: check_partition([2, bad]),
             lambda: schur_apply((bad,), b), lambda: lambda_binomial(b, bad),
             lambda: adams(b, bad), lambda: hilbert_value(b, bad), lambda: schwartz_class(bad)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError, match="positive"):
        adams(b, 0)


class TestDualityPairing:
    def test_dual_swaps_letters(self):
        assert dual(word("bw")) == word("wb")
        assert dual(2 * word("b") + ONE) == 2 * word("w") + ONE

    def test_orthonormal_basis(self):
        for u in weights_up_to(2):
            for v in weights_up_to(2):
                assert inner(word(u), word(v)) == (1 if u == v else 0)

    def test_pairing_with_unit(self):
        assert inner(word("b") * word("b"), ONE) == 0
        assert inner(word("b"), word("w")) == 0

    def test_adjunction(self):
        for u in weights_up_to(2):
            for v in weights_up_to(2):
                for z in weights_up_to(2):
                    lhs = inner(word(u) * word(v), word(z))
                    rhs = inner(word(v), dual(word(u)) * word(z))
                    assert lhs == rhs


class TestLambdaOperations:
    def test_exterior_powers_of_a_letter(self):
        for n in range(6):
            assert lambda_binomial(word("b"), n) == word("b" * n)
        assert lambda_binomial(word("w"), 2) == word("ww")

    def test_degenerate_indices(self):
        x = random_class(random.Random(4))
        assert lambda_binomial(x, 0) == ONE
        assert lambda_binomial(x, 1) == x

    def test_integrality_on_random_classes(self):
        rng = random.Random(5)
        for _ in range(20):
            x = random_class(rng, max_len=2, terms=3)
            for n in range(5):
                assert lambda_binomial(x, n).is_integral()

    def test_adams_fixes_basis_words(self):
        assert adams(word("b"), 2) == word("b")
        assert adams(word("bw"), 2) == word("bw")
        for i in (1, 2, 3):
            assert adams(ONE, i) == ONE
        for u in weights_up_to(2):
            for i in (2, 3):
                assert adams(word(u), i) == word(u)

    def test_adams_additive_on_samples(self):
        rng = random.Random(6)
        for _ in range(10):
            x, y = random_class(rng, 1), random_class(rng, 1)
            assert adams(x + y, 2) == adams(x, 2) + adams(y, 2)


class TestSchur:
    def test_tiny_partitions(self):
        assert schur_dimension_poly((1,)).coeffs == (0, 1)
        assert schur_dimension_poly((1, 1)).coeffs == (0, 0, 1)
        assert schur_dimension_poly((2,)).coeffs == (0, 1, 1)

    def test_hook_content_integer_valued(self):
        partitions = [
            (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
            (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
        ]
        for parts in partitions:
            poly = schur_dimension_poly(parts)
            for t in range(11):
                assert poly.evaluate(t).denominator == 1
            assert all(c >= 0 for c in poly.coeffs)

    def test_schur_values_on_a_letter(self):
        assert schur_apply((1, 1), word("b")) == word("bb")
        assert schur_apply((2,), word("b")) == word("bb") + word("b")
        assert schur_apply((), word("b")) == ONE

    def test_counit_matches_poly_at_minus_one(self):
        partitions = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (4,)]
        for parts in partitions:
            poly = schur_dimension_poly(parts)
            assert counit(schur_apply(parts, word("b"))) == poly.evaluate(-1)

    def test_poly_evaluation(self):
        p = IntValuedPoly((1, 2, 1))  # 1 + 2t + t(t-1)/2
        assert p.evaluate(0) == 1
        assert p.evaluate(3) == 1 + 6 + 3
        assert binom_at(F(-1), 3) == -1

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            schur_dimension_poly((1, 2))
        with pytest.raises(ValueError):
            schur_dimension_poly((0,))


class TestHilbert:
    def test_basis_words(self):
        for u in weights_up_to(3):
            for n in range(6):
                assert hilbert_value(word(u), n) == comb(n, len(u))

    def test_unit_and_line(self):
        assert hilbert_value(ONE, 4) == 1
        for n in range(7):
            assert hilbert_value(line_class(), n) == 2 * n + 1


class TestSerialization:
    def test_kclass_round_trip(self):
        x = KClass({"bw": F(1, 3), "": F(-2)})
        assert KClass.loads(x.dumps()) == x

    def test_kclass_json_shape(self):
        x = KClass({"bw": F(1), "b": F(-2)})
        assert x.to_json() == {
            "terms": [
                {"word": "b", "coeff": "-2/1"},
                {"word": "bw", "coeff": "1/1"},
            ]
        }

    def test_ktensor_round_trip(self):
        t = restrict(word("bw"))
        assert KTensorClass.from_json(t.to_json()) == t

    def test_ktensor_json_shape(self):
        t = KTensorClass({("b", ""): F(1, 2), ("", "bw"): F(-1), ("", "w"): F(3)})
        assert t.to_json() == {
            "terms": [
                {"left": "", "right": "w", "coeff": "3/1"},
                {"left": "", "right": "bw", "coeff": "-1/1"},
                {"left": "b", "right": "", "coeff": "1/2"},
            ]
        }

    def test_rejects_bad_words(self):
        for bad in ("bx", "xb", "bxw", "x", 5, None):
            with pytest.raises(ValueError):
                KClass({bad: F(1)})
            with pytest.raises(ValueError):
                KTensorClass({("b", bad): F(1)})
