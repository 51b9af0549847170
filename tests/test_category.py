import itertools
import random
import sys
import threading
from fractions import Fraction

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
    integrate,
    iter_signatures,
    key_indicator,
    point_mass,
)
from delannoy.errors import InvariantError
from delannoy.paths import Path, all_weights, enumerate_paths, lift3

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
