import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delannoy import paths as paths_module
from delannoy.category import _compose_basis, epsilon
from delannoy.errors import InvariantError
from delannoy.paths import (
    Path,
    all_weights,
    canonical_representative,
    delannoy_number,
    encode_orbit,
    enumerate_paths,
    lift3,
    project_path,
)


def brute_force_paths(target):
    """Independent enumeration: filter all step sequences of every length."""
    dim = len(target)
    steps = [
        tuple((mask >> (dim - 1 - i)) & 1 for i in range(dim))
        for mask in range(1, 1 << dim)
    ]
    found = set()
    for length in range(sum(target) + 1):
        for seq in itertools.product(steps, repeat=length):
            if all(sum(s[i] for s in seq) == target[i] for i in range(dim)):
                found.add(seq)
    return found


class TestEnumeration:
    def test_thirteen_planar_paths(self):
        assert len(enumerate_paths((2, 2))) == 13

    def test_zero_target_is_empty_path(self):
        assert enumerate_paths((0, 0)) == (Path(2, ()),)
        assert enumerate_paths(()) == (Path(0, ()),)

    def test_three_dimensional_unit_cube(self):
        oracle = brute_force_paths((1, 1, 1))
        got = enumerate_paths((1, 1, 1))
        assert len(got) == 13
        assert {p.steps for p in got} == oracle

    @pytest.mark.parametrize("target", [(2, 1), (0, 3), (1, 2, 1)])
    def test_matches_brute_force(self, target):
        assert {p.steps for p in enumerate_paths(target)} == brute_force_paths(target)

    def test_sorted_and_duplicate_free(self):
        for target in [(2, 2), (3, 1), (1, 1, 2)]:
            got = enumerate_paths(target)
            seqs = [p.steps for p in got]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            Path(2, ((0, 0),))
        with pytest.raises(ValueError):
            Path(2, ((1, 2),))
        with pytest.raises(ValueError):
            Path(2, ((1,),))
        with pytest.raises(ValueError):
            enumerate_paths((-1, 0))


class TestDelannoyNumbers:
    def test_base_cases(self):
        assert delannoy_number(2, 2) == 13
        assert delannoy_number(5, 0) == 1
        assert delannoy_number(0, 7) == 1
        assert delannoy_number(3, 3) == 63

    def test_counts_match_enumeration(self):
        for n in range(7):
            for m in range(7):
                assert len(enumerate_paths((n, m))) == delannoy_number(n, m)

    def test_central_numbers_spectral_identity(self):
        # D(n) also counts weighted square multiplicities: sum of C(n,k)^2 2^k.
        for n in range(9):
            assert delannoy_number(n, n) == sum(
                comb(n, k) ** 2 * 2**k for k in range(n + 1)
            )

    def test_known_large_value(self):
        assert delannoy_number(8, 8) == 265729


class TestProjection:
    def test_diagonal_projects_to_diagonal(self):
        p = Path(3, ((1, 1, 1),))
        assert project_path(p, (0, 1)) == Path(2, ((1, 1),))

    def test_zero_steps_are_deleted(self):
        p = Path(3, ((1, 1, 0), (0, 0, 1)))
        assert project_path(p, (0, 2)) == Path(2, ((1, 0), (0, 1)))

    def test_everything_deleted(self):
        p = Path(3, ((1, 0, 0),))
        out = project_path(p, (1, 2))
        assert out == Path(2, ()) and out.target == (0, 0)

    def test_rejects_non_injective(self):
        with pytest.raises(ValueError):
            project_path(Path(2, ((1, 1),)), (0, 0))

    def test_composition_of_injections(self):
        # projecting in stages agrees with projecting once
        injections_21 = list(itertools.permutations(range(2), 1))
        injections_32 = list(itertools.permutations(range(3), 2))
        targets = itertools.product(range(3), repeat=3)
        for target in targets:
            for p in enumerate_paths(target):
                for i in injections_32:
                    for j in injections_21:
                        composed = tuple(i[k] for k in j)
                        assert project_path(p, composed) == project_path(
                            project_path(p, i), j
                        )


class TestLift3:
    def test_diagonal_lift(self):
        for n in range(4):
            diag = Path(2, ((1, 1),) * n)
            q = lift3(diag, diag, diag)
            assert q == Path(3, ((1, 1, 1),) * n)

    def test_no_lift_exists(self):
        a = Path(2, ((1, 0), (0, 1)))
        d = Path(2, ((1, 1),))
        assert lift3(a, a, d) is None
        # independent check: nothing in the brute-force 3D list projects right
        for steps in brute_force_paths((1, 1, 1)):
            q = Path(3, steps)
            assert not (
                project_path(q, (0, 1)) == a
                and project_path(q, (1, 2)) == a
                and project_path(q, (0, 2)) == d
            )

    def test_rejects_inconsistent_targets(self):
        with pytest.raises(ValueError):
            lift3(Path(2, ((1, 1),)), Path(2, ((1, 1),) * 2), Path(2, ((1, 1),)))

    def test_exhaustive_uniqueness_small(self):
        # the search finds exactly the brute-force solution set, never two
        for n, m, l in itertools.product(range(3), repeat=3):
            cube = enumerate_paths((n, m, l))
            for p12 in enumerate_paths((n, m)):
                for p23 in enumerate_paths((m, l)):
                    for p13 in enumerate_paths((n, l)):
                        matches = [
                            q
                            for q in cube
                            if project_path(q, (0, 1)) == p12
                            and project_path(q, (1, 2)) == p23
                            and project_path(q, (0, 2)) == p13
                        ]
                        assert len(matches) <= 1
                        assert lift3(p12, p23, p13) == (
                            matches[0] if matches else None
                        )

    def test_two_lifts_with_one_projection_raise(self, monkeypatch):
        # uniqueness is checked, not assumed: a table with every move twice is caught
        monkeypatch.setattr(paths_module, "_MOVES", paths_module._MOVES * 2)
        diag = Path(2, ((1, 1),))
        with pytest.raises(InvariantError):
            lift3(diag, diag, diag)

    def test_long_random_lifts(self):
        # the walk is linear in path length and keeps no stack: a random 3-D
        # path of up to 1200 steps is recovered from its three projections
        rng = random.Random(11)
        steps3 = [s for s in itertools.product((0, 1), repeat=3) if any(s)]
        for _ in range(20):
            q = Path(3, [rng.choice(steps3) for _ in range(rng.randint(200, 1200))])
            p12, p23, p13 = (project_path(q, axes) for axes in ((0, 1), (1, 2), (0, 2)))
            assert lift3(p12, p23, p13) == q
        zigzag = Path(2, ((1, 0), (0, 1)) * 12)
        assert epsilon(zigzag, zigzag, zigzag) == 1
        assert lift3(zigzag, zigzag, zigzag) == Path(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)) * 12)

    def test_random_triples_consistency(self):
        rng = random.Random(7)
        for _ in range(500):
            n, m, l = (rng.randint(0, 3) for _ in range(3))
            p12 = rng.choice(enumerate_paths((n, m)))
            p23 = rng.choice(enumerate_paths((m, l)))
            p13 = rng.choice(enumerate_paths((n, l)))
            q = lift3(p12, p23, p13)  # internal assertion guards uniqueness
            if q is not None:
                assert project_path(q, (0, 1)) == p12
                assert project_path(q, (1, 2)) == p23
                assert project_path(q, (0, 2)) == p13


def assert_same_as_checked(trusted):
    """Paths built without validation behave exactly like their checked rebuilds."""
    checked = [Path(p.dim, p.steps) for p in trusted]
    for p, q in zip(trusted, checked):
        assert p == q and q == p and hash(p) == hash(q)
        assert p <= q and q <= p and not p < q and not q < p
        assert p.target == q.target
    for (a, b), (c, d) in zip(zip(trusted, trusted[1:]), zip(checked, checked[1:])):
        assert (a < b) == (c < d) and (b < a) == (d < c) and (a == b) == (c == d)


class TestTrustedConstruction:
    def test_empty_paths(self):
        for dim in (0, 2, 3):
            (p,) = enumerate_paths((0,) * dim)
            assert p.target == (0,) * dim
            assert_same_as_checked([p, Path(dim, ())])

    @pytest.mark.parametrize("target", [(3,), (3, 3), (2, 0), (0, 2), (1, 2, 2), (2, 1, 0)])
    def test_enumerated_paths(self, target):
        got = enumerate_paths(target)
        assert all(p.target == target for p in got)
        assert_same_as_checked(list(got))

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(0, 3)] * 3), st.data())
    def test_compose_rows_and_lifts(self, nml, data):
        n, m, l = nml
        p1 = data.draw(st.sampled_from(enumerate_paths((n, m))))
        p2 = data.draw(st.sampled_from(enumerate_paths((m, l))))
        row = [p3 for p3, _ in _compose_basis(p1, p2)]
        assert all(p3.target == (n, l) for p3 in row)
        assert_same_as_checked(row)
        assert_same_as_checked([lift3(p1, p2, p3) for p3 in row])


class TestOrbitCodec:
    def test_worked_example(self):
        x = tuple(Fraction(v) for v in (1, 2, 3, 5, 6))
        y = tuple(Fraction(v) for v in (3, 4, 6, 7))
        assert encode_orbit(x, y) == Path(
            2, ((1, 0), (1, 0), (1, 1), (0, 1), (1, 0), (1, 1), (0, 1))
        )

    def test_empty(self):
        assert encode_orbit((), ()) == Path(2, ())

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            encode_orbit((Fraction(2), Fraction(1)), ())

    def test_round_trip(self):
        for n in range(4):
            for m in range(4):
                for p in enumerate_paths((n, m)):
                    assert encode_orbit(*canonical_representative(p)) == p

    def test_invariance_under_monotone_reparameterization(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rng.choice(enumerate_paths((rng.randint(0, 3), rng.randint(0, 3))))
            x, y = canonical_representative(p)
            merged = sorted(set(x) | set(y))
            # a random strictly increasing rational relabeling
            values = sorted(
                Fraction(rng.randint(-1000, 1000), rng.randint(1, 9))
                for _ in range(len(merged))
            )
            while len(set(values)) < len(merged):
                values = sorted(
                    Fraction(rng.randint(-1000, 1000), rng.randint(1, 9))
                    for _ in range(len(merged))
                )
            relabel = dict(zip(merged, values))
            assert encode_orbit(
                tuple(relabel[v] for v in x), tuple(relabel[v] for v in y)
            ) == p

    def test_canonical_representative_examples(self):
        assert canonical_representative(Path(2, ((1, 1),))) == (
            (Fraction(1),),
            (Fraction(1),),
        )
        assert canonical_representative(Path(2, ((1, 0), (0, 1)))) == (
            (Fraction(1),),
            (Fraction(2),),
        )
        assert canonical_representative(Path(2, ((0, 1), (1, 1)))) == (
            (Fraction(2),),
            (Fraction(1), Fraction(2)),
        )

    def test_representative_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            canonical_representative(Path(3, ((1, 1, 1),)))


class TestSerialization:
    def test_json_round_trip(self):
        for p in enumerate_paths((2, 1)):
            assert Path.loads(p.dumps()) == p

    def test_json_shape(self):
        p = Path(2, ((1, 0), (0, 1)))
        assert p.to_json() == {"d": 2, "steps": [[1, 0], [0, 1]]}


def test_all_weights():
    assert all_weights(0) == [""]
    assert all_weights(1) == ["b", "w"]
    assert len(all_weights(3)) == 8 and all_weights(3) == sorted(all_weights(3))
