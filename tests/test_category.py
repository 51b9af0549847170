import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delannoy import category as category_module
from delannoy import paths as paths_module
from delannoy.category import (
    Morphism,
    _compose_basis,
    apply_kernel,
    compose,
    compose_oracle,
    epsilon,
    identity,
    invariant_extension,
    multiplicity_rank,
    projector,
    slice_kernel,
    trace,
)
from delannoy.euler import (
    SchwartzFn,
    cell_count,
    cell_representative,
    indicator_of_cell,
    integrate,
    iter_signatures,
    key_indicator,
    multiply,
    pair,
    point_mass,
    pushforward_coordinate,
    refine,
)
from delannoy.errors import InvariantError
from delannoy.linalg import matrix_rank
from delannoy.paths import (
    Path,
    all_weights,
    canonical_representative,
    delannoy_number,
    enumerate_paths,
    lift3,
    weights_up_to,
)

F = Fraction

A = Path(2, ((1, 0), (0, 1)))  # kernel 1_{out < in}
B = Path(2, ((0, 1), (1, 0)))  # kernel 1_{in < out}
DIAG = Path(2, ((1, 1),))


def basis(p):
    return Morphism.basis(p)


def random_morphism(rng, n, m, terms=3):
    pool = enumerate_paths((n, m))
    coeffs = {}
    for p in rng.sample(pool, min(len(pool), terms)):
        coeffs[p] = F(rng.randint(-3, 3))
    return Morphism(n, m, coeffs)


class TestComposition:
    def test_rank_one_table(self):
        # the three basis endomorphisms at arity one, composed pairwise
        assert (basis(A) @ basis(A)).coeffs == {A: F(-1)}
        assert (basis(B) @ basis(B)).coeffs == {B: F(-1)}
        minus_all = {A: F(-1), B: F(-1), DIAG: F(-1)}
        assert (basis(A) @ basis(B)).coeffs == minus_all
        assert (basis(B) @ basis(A)).coeffs == minus_all

    def test_identity_two_sided(self):
        for n in range(4):
            for m in range(4):
                for p in enumerate_paths((n, m)):
                    assert identity(n) @ basis(p) == basis(p)
                    assert basis(p) @ identity(m) == basis(p)

    def test_identity_on_random_morphisms(self):
        rng = random.Random(21)
        for _ in range(50):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            f = random_morphism(rng, n, m)
            assert compose(identity(n), f) == f
            assert compose(f, identity(m)) == f

    def test_associative_small(self):
        for n, m, l, k in itertools.product(range(3), repeat=4):
            for p1 in enumerate_paths((n, m)):
                for p2 in enumerate_paths((m, l)):
                    left = basis(p1) @ basis(p2)
                    for p3 in enumerate_paths((l, k)):
                        assert left @ basis(p3) == basis(p1) @ (basis(p2) @ basis(p3))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(1), identity(2))

    def test_structure_constants_match_lift_signs(self):
        # the composition row agrees with the per-triple signed-lift rule
        for n, m, l in itertools.product(range(3), repeat=3):
            for p1 in enumerate_paths((n, m)):
                for p2 in enumerate_paths((m, l)):
                    row = dict(_compose_basis(p1, p2))
                    for p3 in enumerate_paths((n, l)):
                        assert row.get(p3, 0) == epsilon(p1, p2, p3)

    def test_epsilon_vanishes_without_lift(self):
        assert lift3(A, A, DIAG) is None
        assert epsilon(A, A, DIAG) == 0

    def test_long_paths_compose(self):
        # the engine keeps its own stacks: no recursion limit on path length
        diag = Path(2, ((1, 1),) * 1200)
        assert basis(diag) @ basis(diag) == basis(diag)
        zigzag = Path(2, ((1, 0), (0, 1)) * 600)
        assert identity(600) @ basis(zigzag) == basis(zigzag) == basis(zigzag) @ identity(600)

    def test_two_lifts_with_one_projection_raise(self):
        # uniqueness is checked on the move table, not assumed: a table that
        # lets two lifts of one pair share a projection is caught
        check, moves = paths_module._check_moves, paths_module._MOVES
        check(moves)
        assert len(moves) == 7 and ((0, 1), (1, 0), None) in moves
        mutants = [
            moves * 2,  # every lift found twice
            tuple((s12, s23, (1, 0)) if (s12, s23) == ((1, 0), (0, 1)) else (s12, s23, s13)
                  for s12, s23, s13 in moves),  # (1, 0, 1) emits what (1, 0, 0) emits
            moves + (((0, 1), None, (0, 1)),),  # a move beside the one with no projection
            moves + ((None, None, (1, 1)),),  # a move that consumes nothing
        ]
        for mutant in mutants:
            with pytest.raises(InvariantError):
                check(mutant)

    def test_zero_composes_to_zero(self):
        rng = random.Random(5)
        for n, m, l in itertools.product(range(4), repeat=3):
            g = random_morphism(rng, m, l)
            assert compose(Morphism.zero(n, m), g) == Morphism.zero(n, l)
            assert compose(g, Morphism.zero(l, n)) == Morphism.zero(m, n)
        pi, zero = projector("bwb"), Morphism.zero(3, 3)
        assert compose(zero, pi) == zero == compose(pi, zero)

    def test_row_memo_clears_past_its_bound(self, monkeypatch):
        words = all_weights(3)
        pairs = [(projector(u), projector(v)) for u in words for v in words]
        pairs += [(basis(p), basis(q))
                  for p in enumerate_paths((2, 3)) for q in enumerate_paths((3, 2))]
        want = [compose(f, g) for f, g in pairs]
        engine = category_module._ENGINE
        monkeypatch.setattr(category_module, "_ROWS_LIMIT", 40)
        sizes = []
        for _ in range(2):
            for (f, g), expected in zip(pairs, want):
                before = len(engine.rows)
                assert compose(f, g) == expected
                sizes.append((before, len(engine.rows)))
                assert all(type(row) is tuple for row in engine.rows.values())
        # the memo passed its bound and was cleared at the start of a later call
        assert any(before > 40 for before, _ in sizes)
        assert any(after < before for before, after in sizes)


    def test_threads_share_the_engine(self, monkeypatch):
        # the interning tables and the row memo are shared: a lost update
        # would give two nodes one id, or clear the memo under a running call
        words = all_weights(2)
        pairs = [(projector(u), projector(v)) for u in words for v in words]
        pairs += [(basis(p), basis(q)) for p in enumerate_paths((2, 2))[::3]
                  for q in enumerate_paths((2, 2))[::2]]
        want = [compose(f, g) for f, g in pairs]
        monkeypatch.setattr(category_module, "_ROWS_LIMIT", 30)
        wrong = []

        def work():
            for _ in range(3):
                for (f, g), expected in zip(pairs, want):
                    try:
                        if compose(f, g) != expected:
                            wrong.append((f, g))
                    except (KeyError, IndexError) as exc:
                        wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


@st.composite
def path_to(draw, n, m):
    """A random basis path with target (n, m), built step by step and checked."""
    steps = []
    while n or m:
        s = draw(st.sampled_from([s for s in ((1, 0), (0, 1), (1, 1)) if s[0] <= n and s[1] <= m]))
        steps.append(s)
        n, m = n - s[0], m - s[1]
    return Path(2, tuple(steps))


@st.composite
def composable(draw, count, max_arity=4):
    """`count` basis paths p_1, ..., p_count with each p_i o p_(i+1) defined."""
    arities = draw(st.lists(st.integers(0, max_arity), min_size=count + 1, max_size=count + 1))
    return [draw(path_to(a, b)) for a, b in zip(arities, arities[1:])]


@st.composite
def sparse_morphism(draw, n, m, max_terms=3):
    """A random morphism to (n, m) with up to `max_terms` terms and Fraction coefficients."""
    ps = draw(st.lists(path_to(n, m), max_size=max_terms, unique=True))
    cs = draw(st.lists(st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 2)]),
                       min_size=len(ps), max_size=len(ps)))
    return Morphism(n, m, dict(zip(ps, cs)))


@st.composite
def composable_morphisms(draw, max_arity=4):
    n, m, l = (draw(st.integers(0, max_arity)) for _ in range(3))
    return draw(sparse_morphism(n, m)), draw(sparse_morphism(m, l))


class TestCompositionProperties:
    @settings(max_examples=60, deadline=None)
    @given(composable_morphisms())
    @example((projector("bw"), projector("wb")))  # all 16 basis products cancel
    @example((projector("bw") * F(1, 2), projector("bw") - basis(Path(2, ((1, 1), (1, 1))))))
    def test_compose_matches_lift3_sum(self, pair):
        # the merged recursion against the independent per-triple route
        f, g = pair
        want = {}
        for p1, c1 in f.coeffs.items():
            for p2, c2 in g.coeffs.items():
                for p3 in enumerate_paths((f.out_arity, g.in_arity)):
                    want[p3] = want.get(p3, 0) + c1 * c2 * epsilon(p1, p2, p3)
        assert compose(f, g) == Morphism(f.out_arity, g.in_arity, want)

    @settings(max_examples=150, deadline=None)
    @given(composable(2))
    def test_row_matches_oracle(self, pair):
        p1, p2 = pair
        row = Morphism(p1.target[0], p2.target[1], dict(_compose_basis(p1, p2)))
        assert row == compose_oracle(p1, p2)

    @settings(max_examples=150, deadline=None)
    @given(composable(3))
    def test_associative_with_identities(self, triple):
        f, g, h = (basis(p) for p in triple)
        assert (f @ g) @ h == f @ (g @ h)
        for x in (f, g, h):
            assert identity(x.out_arity) @ x == x
            assert x @ identity(x.in_arity) == x


def assert_same_as_checked(h):
    """A result built by the trusted constructor equals its checked rebuild, number types too."""
    rebuilt = type(h)(*h._space(), dict(h.coeffs))
    assert h == rebuilt and repr(h._space()) == repr(rebuilt._space())
    assert {k: type(c) for k, c in h.coeffs.items()} == {k: type(c) for k, c in rebuilt.coeffs.items()}
    assert all(h.coeffs.values())
    with pytest.raises(TypeError):
        h.coeffs[None] = 1
    for attr in ("coeffs", *type(h).__slots__):
        with pytest.raises(AttributeError):
            setattr(h, attr, getattr(h, attr))
    for clone in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
        assert type(clone) is type(h) and clone == h and clone._space() == h._space()


class TestTrustedResults:
    @settings(max_examples=60, deadline=None)
    @given(composable_morphisms(max_arity=3))
    def test_compose_equals_checked_rebuild(self, pair):
        f, g = pair
        assert_same_as_checked(compose(f, g))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_other_results_equal_checked_rebuilds(self, data):
        # the Euler route, the euler layer and the arithmetic of combinations
        f, phi = data.draw(morphism_and_function())
        p1, p2 = data.draw(composable(2, max_arity=3))
        psi = apply_kernel(f, phi)
        finer = sorted({*phi.breakpoints, F(-9, 4), F(9, 4)})
        whole = f * 6  # the sampled coefficients are multiples of 1/2
        word = data.draw(st.text("bw", max_size=4))
        results = [compose_oracle(p1, p2), psi, invariant_extension(psi), invariant_extension(phi),
                   projector(word), identity(len(word)),
                   refine(phi, finer), multiply(phi, psi if psi.arity == phi.arity else phi),
                   phi * F(1, 2), -phi, phi + phi, phi - phi,
                   whole, whole * 2, -whole, whole + f, whole - whole, f * F(2, 3)]
        if phi.arity:
            results.append(pushforward_coordinate(phi, phi.arity - 1))
        for h in results:
            assert_same_as_checked(h)

    def test_halves_summing_to_one_are_int(self):
        # B o B = -B and A o B = -B - A - DIAG, so the halves of B sum to -1
        h = compose(Morphism(1, 1, {B: F(1, 2), A: F(1, 2)}), basis(B))
        assert dict(h.coeffs) == {B: -1, A: F(-1, 2), DIAG: F(-1, 2)}
        assert type(h.coeffs[B]) is int
        assert_same_as_checked(h)

    def test_cancelled_terms_are_dropped(self):
        h = compose(Morphism(1, 1, {B: F(1), A: F(-1)}), basis(B))
        assert dict(h.coeffs) == {A: 1, DIAG: 1}
        assert_same_as_checked(h)


BAD_ARITIES = [-1, -3, 2.7, 2.0, "2", None]


class TestArities:
    @pytest.mark.parametrize("bad", BAD_ARITIES)
    def test_identity_and_morphism_reject_bad_arities(self, bad):
        with pytest.raises(ValueError, match="arity"):
            identity(bad)
        with pytest.raises(ValueError, match="arity"):
            Morphism(bad, 1, {})
        with pytest.raises(ValueError, match="arity"):
            Morphism(1, bad, {})

    def test_json_arities_are_checked(self):
        for n, m in ((-3, 1), (-1, -1), (1, -2)):
            with pytest.raises(ValueError, match="arity"):
                Morphism.from_json({"n": n, "m": m, "terms": []})
        with pytest.raises(ValueError, match="'n'"):
            Morphism.from_json({"n": 2.7, "m": 1, "terms": []})

    @pytest.mark.parametrize("bad", BAD_ARITIES)
    def test_paths_side_rejects_bad_arities(self, bad):
        # 2.5 and "2" were read as targets, and a cached D(2, 2) answered for 2.0
        assert len(enumerate_paths((2, 1))) == delannoy_number(2, 1) == 5
        assert delannoy_number(2, 2) == 13
        before = paths_module.enumerate_paths.cache_info()
        for target in ((bad, 1), (1, bad), (bad,), (1, 1, bad)):
            with pytest.raises(ValueError, match="target entries must be"):
                enumerate_paths(target)
        assert paths_module.enumerate_paths.cache_info() == before
        for args in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match="arguments must be"):
                delannoy_number(*args)

    @pytest.mark.parametrize("bad", BAD_ARITIES)
    def test_euler_side_rejects_bad_arities(self, bad):
        # 1.9 was truncated to 1, negatives were accepted or recursed without end,
        # and a cached 2 answered for 2.0
        assert cell_count(2, 1) == 5 and multiplicity_rank("b", 2) == 2
        calls = [lambda: SchwartzFn(bad, (), {}), lambda: iter_signatures(bad, 0),
                 lambda: iter_signatures(0, bad), lambda: cell_count(bad, 1),
                 lambda: cell_count(1, bad), lambda: multiplicity_rank("b", bad)]
        if isinstance(bad, int):
            calls.append(lambda: SchwartzFn.from_json({"n": bad, "breakpoints": [], "cells": []}))
        for call in calls:
            with pytest.raises(ValueError, match="arity"):
                call()


class TestOracle:
    def test_matches_combinatorial_rule_exhaustive(self):
        for n, m, l in itertools.product(range(3), repeat=3):
            for p1 in enumerate_paths((n, m)):
                for p2 in enumerate_paths((m, l)):
                    assert compose_oracle(p1, p2) == basis(p1) @ basis(p2)

    def test_matches_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(60):
            n, m, l = (rng.randint(0, 3) for _ in range(3))
            p1 = rng.choice(enumerate_paths((n, m)))
            p2 = rng.choice(enumerate_paths((m, l)))
            assert compose_oracle(p1, p2) == basis(p1) @ basis(p2)

    def test_matches_at_size_four(self):
        rng = random.Random(43)
        for _ in range(25):
            n, m, l = (rng.randint(0, 4) for _ in range(3))
            p1 = rng.choice(enumerate_paths((n, m)))
            p2 = rng.choice(enumerate_paths((m, l)))
            assert compose_oracle(p1, p2) == basis(p1) @ basis(p2)

    def test_diagonal_kernel_is_identity_matrix(self):
        for n in range(4):
            diag = Path(2, ((1, 1),) * n)
            assert compose_oracle(diag, diag) == Morphism.basis(diag)


class TestSliceKernel:
    def test_diagonal_slice_is_point_mass(self):
        assert slice_kernel(DIAG, (F(5),), axis=2) == point_mass((F(5),))

    def test_below_slice(self):
        got = slice_kernel(A, (F(0),), axis=2)  # x with x < 0
        assert got.coeffs == {(0,): F(1)}

    def test_integral_is_sign_of_lone_free_steps(self):
        rng = random.Random(29)
        for _ in range(100):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            p = rng.choice(enumerate_paths((n, m)))
            for axis, free_idx in ((1, 1), (2, 0)):
                fixed_len = p.target[axis - 1]
                fixed = tuple(F(i) for i in range(1, fixed_len + 1))
                lone_free = sum(
                    1 for s in p.steps if s[free_idx] and not s[1 - free_idx]
                )
                expected = -1 if lone_free % 2 else 1
                assert integrate(slice_kernel(p, fixed, axis)) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            slice_kernel(A, (F(0), F(1)), axis=1)
        with pytest.raises(ValueError):
            slice_kernel(A, (F(0),), axis=3)


class TestApplyKernel:
    def test_identity_acts_trivially(self):
        rng = random.Random(31)
        for _ in range(20):
            arity = rng.randint(0, 2)
            pts = sorted(rng.sample(range(-5, 6), rng.randint(0, 3)))
            bp = tuple(F(p) for p in pts)
            sigs = list(iter_signatures(arity, len(bp)))
            coeffs = {
                s: F(rng.randint(-3, 3))
                for s in rng.sample(sigs, min(len(sigs), 4))
            }
            phi = SchwartzFn(arity, bp, coeffs)
            assert apply_kernel(identity(arity), phi) == phi

    def test_strict_lower_kernel_on_point(self):
        out = apply_kernel(basis(A), point_mass((F(0),)))
        assert out.coeffs == {(0,): F(1)}  # indicator of (-inf, 0)

    def test_strict_lower_kernel_on_open_interval(self):
        phi = SchwartzFn(1, (F(0), F(1)), {(2,): F(1)})
        out = apply_kernel(basis(A), phi)
        # -1 on everything strictly below 1
        assert out == SchwartzFn(1, (F(1),), {(0,): F(-1)})

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            apply_kernel(identity(2), point_mass((F(0),)))


def quasi_diagonal_paths(n):
    """All 3^n paths through every diagonal vertex, with their square choices."""
    out = [((), ())]
    turns = {"d": ((1, 1),), "out_first": ((1, 0), (0, 1)), "in_first": ((0, 1), (1, 0))}
    for _ in range(n):
        out = [
            (steps + turns[t], choices + (t,))
            for steps, choices in out
            for t in ("d", "out_first", "in_first")
        ]
    return [(Path(2, steps), choices) for steps, choices in out]


def expected_eigenvalue(word, choices):
    val = 1
    for letter, turn in zip(word, choices):
        if turn == "d":
            continue
        if (letter == "b" and turn == "in_first") or (
            letter == "w" and turn == "out_first"
        ):
            val = -val
        else:
            return 0
    return val


class TestProjectors:
    def test_empty_word(self):
        assert projector("") == identity(0)

    def test_single_letter(self):
        assert projector("b").coeffs == {DIAG: F(1), A: F(1)}
        assert projector("w").coeffs == {DIAG: F(1), B: F(1)}

    def test_two_letters_have_four_paths(self):
        assert len(projector("bb").coeffs) == 4
        assert all(c == 1 for c in projector("bw").coeffs.values())

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_idempotent_orthogonal_with_trace(self, n):
        words = all_weights(n)
        sign = -1 if n % 2 else 1
        for w1 in words:
            p1 = projector(w1)
            assert trace(p1) == sign
            for w2 in words:
                prod = compose(p1, projector(w2))
                assert prod == (p1 if w1 == w2 else Morphism.zero(n, n))

    @pytest.mark.parametrize("n", [1, 2])
    def test_eigenvalue_scalars(self, n):
        for word in all_weights(n):
            pi = projector(word)
            for p, choices in quasi_diagonal_paths(n):
                got = pi @ basis(p) @ pi
                assert got == expected_eigenvalue(word, choices) * pi

    def test_non_quasi_diagonal_paths_are_killed(self):
        quasi = {p for p, _ in quasi_diagonal_paths(2)}
        for word in all_weights(2):
            pi = projector(word)
            for p in enumerate_paths((2, 2)):
                if p not in quasi:
                    assert (pi @ basis(p) @ pi).is_zero()

    def test_spot_checks_at_length_five(self):
        pi = projector("bwbwb")
        assert pi @ pi == pi
        assert trace(pi) == -1
        assert (pi @ projector("bwbww")).is_zero()


class TestTrace:
    def test_identity(self):
        for n in range(5):
            assert trace(identity(n)) == (-1) ** n

    def test_basis_paths(self):
        for p in enumerate_paths((2, 2)):
            expected = 1 if p == Path(2, ((1, 1), (1, 1))) else 0
            assert trace(basis(p)) == expected

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            trace(Morphism.zero(1, 2))


class TestInvariantExtension:
    def test_point_mass_gives_diagonal(self):
        a = (F(1), F(4))
        assert invariant_extension(point_mass(a)).coeffs == {
            Path(2, ((1, 1), (1, 1))): F(1)
        }

    @pytest.mark.parametrize("word", ["", "b", "w", "bw", "wb", "bbw", "www"])
    def test_key_indicator_extends_to_projector(self, word):
        a = tuple(F(i) for i in range(1, len(word) + 1))
        assert invariant_extension(key_indicator(word, a)) == projector(word)

    def test_column_reading_identity(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(1, 3)
            arity = rng.randint(0, 2)
            a = tuple(F(v) for v in sorted(rng.sample(range(-6, 7), n)))
            sigs = list(iter_signatures(arity, n))
            coeffs = {
                s: F(rng.randint(-3, 3))
                for s in rng.sample(sigs, min(len(sigs), 4))
            }
            x = SchwartzFn(arity, a, coeffs)
            assert apply_kernel(invariant_extension(x), point_mass(a)) == x


@st.composite
def morphism_and_function(draw, max_arity=3):
    """A sparse morphism to (n, m) and a function of arity m on 0-3 breakpoints,
    with Fraction coefficients and integer or half-integer breakpoints."""
    n, m = draw(st.integers(0, max_arity)), draw(st.integers(0, max_arity))
    bp = sorted(draw(st.sets(st.sampled_from([F(k, 2) for k in range(-4, 5)]), max_size=3)))
    sigs = list(iter_signatures(m, len(bp)))
    cells = draw(st.lists(st.sampled_from(sigs), max_size=6, unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return draw(sparse_morphism(n, m)), SchwartzFn(m, bp, {s: draw(coeffs) for s in cells})


class TestRawCellPairings:
    """The slices paired as raw cells, against the slices built as SchwartzFn objects."""

    @settings(max_examples=150, deadline=None)
    @given(morphism_and_function())
    @example((projector("bw") * F(1, 2), key_indicator("bw", (F(-1, 2), F(3, 2)))))
    def test_apply_kernel_matches_slice_objects(self, fphi):
        f, phi = fphi
        bp = phi.breakpoints
        got = apply_kernel(f, phi)
        assert got.breakpoints == bp
        for sig in iter_signatures(f.out_arity, len(bp)):
            x = cell_representative(bp, sig)
            want = sum(c * pair(slice_kernel(p, x, axis=1), phi) for p, c in f.coeffs.items())
            assert got.value_at_cell(sig) == want

    def test_oracle_matches_slice_objects_exhaustive(self):
        # every pair of paths with arities <= 3, on every p3 of the row
        for n, m, l in itertools.product(range(4), repeat=3):
            reps = [(p3, canonical_representative(p3)) for p3 in enumerate_paths((n, l))]
            right = {p2: [slice_kernel(p2, x, axis=2) for _, (_, x) in reps]
                     for p2 in enumerate_paths((m, l))}
            for p1 in enumerate_paths((n, m)):
                left = [slice_kernel(p1, z, axis=1) for _, (z, _) in reps]
                for p2, slices in right.items():
                    got = compose_oracle(p1, p2)
                    for (p3, _), a, b in zip(reps, left, slices):
                        assert got.coeffs.get(p3, 0) == pair(a, b)

    def test_multiplicity_matches_column_by_column_apply_kernel(self):
        for word in weights_up_to(2):
            n = len(word)
            a = tuple(range(1, n + 1))
            psi = key_indicator(word, a)
            for m in range(4):
                basis = list(iter_signatures(m, n))
                cols = []
                for sig in basis:
                    image = apply_kernel(invariant_extension(indicator_of_cell(m, a, sig)), psi)
                    cols.append([image.value_at_cell(out) for out in basis])
                assert multiplicity_rank(word, m) == matrix_rank(cols) == comb(m, n)


@st.composite
def moved_breakpoints(draw, bp):
    """Another strictly increasing tuple as long as bp: negative, Fraction or far apart."""
    values = st.one_of(st.integers(-10**12, 10**12),
                       st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
                       st.sampled_from([F(-10**15, 7), F(1, 10**9), 10**18]))
    return tuple(sorted(draw(st.sets(values, min_size=len(bp), max_size=len(bp)))))


class TestApplyKernelLayout:
    """apply_kernel reads each output cell's layout from its path, not from points."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_invariant_under_order_preserving_breakpoints(self, data):
        f, phi = data.draw(morphism_and_function())
        moved = SchwartzFn(phi.arity, data.draw(moved_breakpoints(phi.breakpoints)),
                           dict(phi.coeffs))
        got, want = apply_kernel(f, moved), apply_kernel(f, phi)
        assert got.breakpoints == moved.breakpoints
        assert dict(got.coeffs) == dict(want.coeffs)
        assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]

    def test_enumerates_no_paths(self):
        # out-arity 4 over 5 breakpoints: a target the path cache would otherwise keep
        f = Morphism(4, 1, {p: 1 for p in enumerate_paths((4, 1))[::3]})
        phi = SchwartzFn(1, (-3, F(1, 2), 2, 7, 10**9), {(1,): 1, (4,): F(-2, 3), (10,): 2})
        before = paths_module.enumerate_paths.cache_info()
        got = apply_kernel(f, phi)
        assert paths_module.enumerate_paths.cache_info() == before
        assert len(got.coeffs) > 0 and all(len(sig) == 4 for sig in got.coeffs)


class TestCellTable:
    """`category._cells`: each target's cells, paths and layouts, built once."""

    def test_entries_are_the_cells_paths_and_layouts(self):
        for n, m in itertools.product(range(4), repeat=2):
            table = category_module._cells(n, m)
            assert [sig for sig, *_ in table] == list(iter_signatures(n, m))
            assert {p for _, p, _, _ in table} == set(enumerate_paths((n, m)))
            for sig, p, spans_out, spans_in in table:
                assert p == category_module._cell_to_path(sig, m)
                assert (spans_out, spans_in) == category_module._layout(p)
                assert type(spans_out) is tuple and type(spans_in) is tuple
                assert all(type(span) is tuple for span in spans_out + spans_in)

    def test_stays_within_its_bound(self):
        cells = category_module._cells
        limit = category_module._CELLS_LIMIT
        assert cells.cache_info().maxsize == limit
        for n, m in itertools.islice(itertools.product(range(limit), range(2)), limit + 8):
            cells(n, m)
        assert cells.cache_info().currsize == limit
        assert cells(1, 1) is cells(1, 1)


class TestKeyRows:
    """The factored pairing with the key indicator, against the generic one."""

    @staticmethod
    def generic_rows(word, m):
        n = len(word)
        cells = category_module._cells(m, n)
        psi = key_indicator(word, tuple(range(1, n + 1)))
        return list(category_module._slice_pairings([p for _, p, _, _ in cells], cells, psi))

    @pytest.mark.parametrize("word, m", [(w, m) for w in weights_up_to(3) for m in range(5)]
                             + [("bw", 5), ("wbb", 5)])
    def test_rows_equal_generic_pairings(self, word, m):
        want = self.generic_rows(word, m)
        rows = category_module._key_rows(word, category_module._cells(m, len(word)))
        assert [[row.get(j, 0) for j in range(len(want))] for row in rows] == want
        assert 0 not in [v for row in rows for v in row.values()]

    def test_non_idempotent_operator_raises(self, monkeypatch):
        # both gaps around each basepoint, without the basepoint: not a projector
        def gaps(word):
            return [(2 * i, 2 * i + 2) for i in range(len(word))]

        monkeypatch.setattr(category_module, "_key_slots", gaps)
        with pytest.raises(InvariantError, match="'bw' at arity 3 is not idempotent"):
            multiplicity_rank.__wrapped__("bw", 3)

    def test_non_idempotent_operator_raises_under_O(self):
        code = ("from delannoy import category, errors\n"
                "category._key_slots = lambda w: [(2 * i, 2 * i + 2) for i in range(len(w))]\n"
                "try:\n"
                "    category.multiplicity_rank('bw', 3)\n"
                "except errors.InvariantError as exc:\n"
                "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(category_module.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.startswith("operator for 'bw' at arity 3 is not idempotent")


class TestMultiplicityRank:
    def test_trivial_weight(self):
        for m in range(4):
            assert multiplicity_rank("", m) == 1

    def test_single_letter_in_pairs(self):
        assert multiplicity_rank("b", 2) == 2
        assert multiplicity_rank("w", 2) == 2

    def test_too_long_weight(self):
        assert multiplicity_rank("bw", 1) == 0
        assert multiplicity_rank("bbb", 2) == 0

    def test_length_two_in_pairs(self):
        for word in all_weights(2):
            assert multiplicity_rank(word, 2) == 1


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(20):
            f = random_morphism(rng, rng.randint(0, 2), rng.randint(0, 2))
            assert Morphism.loads(f.dumps()) == f

    def test_json_shape(self):
        m = Morphism(1, 1, {A: F(-1, 2)})
        assert m.to_json() == {
            "n": 1,
            "m": 1,
            "terms": [{"path": {"d": 2, "steps": [[1, 0], [0, 1]]}, "coeff": "-1/2"}],
        }

    def test_rejects_wrong_target(self):
        with pytest.raises(ValueError):
            Morphism(1, 1, {Path(2, ((1, 1), (1, 1))): F(1)})
