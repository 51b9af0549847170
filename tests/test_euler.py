import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delannoy.euler import (
    HalfOpenInterval,
    SchwartzFn,
    cell_count,
    cell_representative,
    cell_volume,
    integrate,
    integrate_fully,
    interval_indicator,
    iter_signatures,
    key_indicator,
    multiply,
    pair,
    point_mass,
    pushforward_coordinate,
    refine,
)
from delannoy.paths import weights_up_to

F = Fraction


def random_fn(rng, arity, max_breakpoints=3):
    pts = sorted(rng.sample(range(-8, 9), rng.randint(0, max_breakpoints)))
    bp = tuple(F(p) for p in pts)
    sigs = list(iter_signatures(arity, len(bp)))
    coeffs = {}
    for sig in rng.sample(sigs, min(len(sigs), rng.randint(0, 6))):
        coeffs[sig] = F(rng.randint(-5, 5))
    return SchwartzFn(arity, bp, coeffs)


class TestIntegrate:
    def test_point_mass(self):
        assert integrate(point_mass((F(3),))) == 1

    def test_open_interval(self):
        f = SchwartzFn(1, (F(0), F(1)), {(2,): F(1)})
        assert integrate(f) == -1

    def test_half_open_interval(self):
        f = interval_indicator([HalfOpenInterval("b", F(1), F(0))])
        assert integrate(f) == 0

    def test_additivity(self):
        rng = random.Random(1)
        for _ in range(50):
            f = random_fn(rng, 2)
            g = random_fn(rng, 2)
            assert integrate(f + g) == integrate(f) + integrate(g)

    def test_rectangle_volumes_multiply(self):
        # indicator of a product cell integrates to the product of volumes
        bp = (F(0), F(1))
        for s1 in range(5):
            for s2 in range(s1, 5):
                if s1 == s2 and s1 % 2 == 1:
                    continue
                f = SchwartzFn(2, bp, {(s1, s2): F(1)})
                vol1 = -1 if s1 % 2 == 0 else 1
                vol2 = -1 if s2 % 2 == 0 else 1
                assert integrate(f) == vol1 * vol2 == cell_volume((s1, s2))


class TestRefine:
    def test_split_open_interval(self):
        f = SchwartzFn(1, (F(0), F(2)), {(2,): F(1)})
        g = refine(f, (F(0), F(1), F(2)))
        assert g.coeffs == {(2,): F(1), (3,): F(1), (4,): F(1)}

    def test_identity_refinement(self):
        f = SchwartzFn(1, (F(0), F(2)), {(2,): F(1)})
        assert refine(f, f.breakpoints) == f

    def test_rejects_non_superset(self):
        f = SchwartzFn(1, (F(0), F(2)), {(2,): F(1)})
        with pytest.raises(ValueError):
            refine(f, (F(0), F(1)))

    def test_integral_invariance(self):
        rng = random.Random(2)
        for _ in range(60):
            f = random_fn(rng, rng.randint(0, 3))
            extra = sorted(
                set(f.breakpoints) | {F(rng.randint(-10, 10)) for _ in range(2)}
            )
            assert integrate(refine(f, extra)) == integrate(f)

    def test_semantic_equality_after_refine(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_fn(rng, 2)
            extra = sorted(set(f.breakpoints) | {F(99)})
            assert refine(f, extra) == f


def cell_of(breakpoints, x):
    """The signature of the cell that holds the tuple x, over the breakpoints."""
    sig = []
    for v in x:
        k = bisect_left(breakpoints, v)
        sig.append(2 * k + 1 if k < len(breakpoints) and breakpoints[k] == v else 2 * k)
    return tuple(sig)


class TestRefineTable:
    """`refine` reads each (slot, group size) from a table built once per call."""

    @pytest.mark.parametrize("arity", [3, 4])
    def test_matches_values_at_cell_points(self, arity):
        rng = random.Random(16 + arity)
        grouped = 0
        for _ in range(20):
            bp = sorted(rng.sample(range(-6, 7), rng.randint(1, 2)))
            sigs = list(iter_signatures(arity, len(bp)))
            f = SchwartzFn(arity, bp, {sig: rng.choice([-3, -1, 1, 2, F(1, 2)])
                                       for sig in rng.sample(sigs, min(len(sigs), 8))})
            fine = sorted(set(bp) | {F(rng.randint(-14, 14), 2) for _ in range(rng.randint(1, 2))})
            got = refine(f, fine)
            want = {}
            for sig in iter_signatures(arity, len(fine)):
                c = f.coeffs.get(cell_of(bp, cell_representative(fine, sig)), 0)
                if c:
                    want[sig] = c
            assert got.breakpoints == tuple(fine) and got.coeffs == want
            grouped += any(a == b and a % 2 == 0 for sig in f.coeffs for a, b in zip(sig, sig[1:]))
        assert grouped >= 15  # most functions have a gap holding two coordinates or more


class TestPairing:
    def test_dual_interval_overlap_has_volume_one(self):
        # (a,c] against [b,d) with a<b<c<d meet in a closed interval
        f = interval_indicator([HalfOpenInterval("b", F(2), F(0))])
        g = interval_indicator([HalfOpenInterval("w", F(1), F(3))])
        assert pair(f, g) == 1

    def test_pair_with_zero(self):
        f = random_fn(random.Random(4), 1)
        assert pair(f, SchwartzFn.zero(1)) == 0

    def test_point_against_half_open(self):
        half = interval_indicator([HalfOpenInterval("b", F(1), F(0))])
        assert pair(point_mass((F(0),)), half) == 0
        assert pair(point_mass((F(1),)), half) == 1

    def test_symmetric_bilinear(self):
        rng = random.Random(5)
        for _ in range(30):
            f, g, h = (random_fn(rng, 1) for _ in range(3))
            assert pair(f, g) == pair(g, f)
            assert pair(f + g, h) == pair(f, h) + pair(g, h)

    def test_refinement_invariance(self):
        rng = random.Random(6)
        for _ in range(30):
            f, g = random_fn(rng, 2), random_fn(rng, 2)
            extra = sorted(set(f.breakpoints) | {F(17)})
            assert pair(refine(f, extra), g) == pair(f, g)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            multiply(SchwartzFn.zero(1), SchwartzFn.zero(2))

    def test_pair_arity_mismatch(self):
        with pytest.raises(ValueError):
            pair(SchwartzFn.zero(1), SchwartzFn.zero(2))
        with pytest.raises(ValueError):
            pair(point_mass((F(0),)), point_mass((F(0), F(1))))


# A small pool of integer and half-integer breakpoints, so that two functions
# often share some of theirs.
POOL = tuple(F(k, 2) for k in range(-4, 5))
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
breakpoint_sets = st.sets(st.sampled_from(POOL), max_size=4).map(sorted)


@st.composite
def schwartz_fn(draw, arity):
    """A function of the given arity on 0-4 pool breakpoints, up to 6 cells."""
    bp = draw(breakpoint_sets)
    sigs = list(iter_signatures(arity, len(bp)))
    cells = draw(st.lists(st.sampled_from(sigs), max_size=6, unique=True))
    return SchwartzFn(arity, bp, {sig: draw(coefficients) for sig in cells})


@st.composite
def same_arity(draw, count):
    """`count` functions of one arity in 0-4."""
    arity = draw(st.integers(0, 4))
    return [draw(schwartz_fn(arity)) for _ in range(count)]


class TestPairingProperties:
    @settings(max_examples=200, deadline=None)
    @given(same_arity(2))
    def test_matches_integral_of_product(self, fg):
        # the closed form against the common-refinement route
        f, g = fg
        assert pair(f, g) == integrate(multiply(f, g))

    @settings(max_examples=200, deadline=None)
    @given(same_arity(2))
    def test_symmetric(self, fg):
        f, g = fg
        assert pair(f, g) == pair(g, f)

    @settings(max_examples=200, deadline=None)
    @given(same_arity(3), coefficients)
    def test_bilinear(self, fgh, q):
        f, g, h = fgh
        assert pair(f + h, g) == pair(f, g) + pair(h, g)
        assert pair(q * f, g) == q * pair(f, g)

    @settings(max_examples=200, deadline=None)
    @given(same_arity(2), breakpoint_sets, breakpoint_sets)
    def test_invariant_under_refine(self, fg, extra_f, extra_g):
        f, g = fg
        finer_f = refine(f, sorted(set(f.breakpoints) | set(extra_f)))
        finer_g = refine(g, sorted(set(g.breakpoints) | set(extra_g)))
        assert pair(finer_f, finer_g) == pair(f, g)


class TestPushforward:
    def test_half_open_integrates_to_zero(self):
        f = interval_indicator([HalfOpenInterval("b", F(1), F(0))])
        assert pushforward_coordinate(f, 0).scalar_value() == 0

    def test_point_fiber(self):
        assert pushforward_coordinate(point_mass((F(5),)), 0).scalar_value() == 1

    def test_open_triangle_fiber(self):
        # indicator of 0 < x0 < x1 < 1: integrating out x1 leaves an open fiber
        f = SchwartzFn(2, (F(0), F(1)), {(2, 2): F(1)})
        expected = SchwartzFn(1, (F(0), F(1)), {(2,): F(-1)})
        assert pushforward_coordinate(f, 1) == expected

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            pushforward_coordinate(point_mass((F(0),)), 1)

    def test_fubini(self):
        rng = random.Random(7)
        for _ in range(100):
            arity = rng.randint(1, 3)
            f = random_fn(rng, arity)
            order = list(range(arity))
            rng.shuffle(order)
            assert integrate_fully(f, order) == integrate(f)


# Membership references: the indicators as a predicate on tuples, evaluated at
# one representative of every cell.  Both regions are unions of cells over
# their breakpoints, so this gives the indicator by a route that does not use
# the slots the indicators are written down from.


def key_member(word, a):
    n = len(word)

    def pred(x):
        for i, letter in enumerate(word):
            if letter == "b" and not x[i] <= a[i]:
                return False
            if letter == "w" and not a[i] <= x[i]:
                return False
            if i + 1 < n and not (x[i] < a[i + 1] and a[i] < x[i + 1]):
                return False
        return True

    return pred


def intervals_member(intervals):
    def pred(x):
        return all(iv.contains(x[i]) for i, iv in enumerate(intervals))

    return pred


def indicator_by_membership(arity, bp, pred):
    return {sig: 1 for sig in iter_signatures(arity, len(bp))
            if pred(cell_representative(bp, sig))}


def strictly_before(a, b):
    """Whether every point of interval a lies below every point of b."""
    sup, sup_in = (a.closed, True) if a.kind == "b" else (a.open_end, False)
    inf, inf_in = (b.open_end, False) if b.kind == "b" else (b.closed, True)
    if sup is None or inf is None:
        return False
    return sup < inf or (sup == inf and not (sup_in and inf_in))


class TestIntervalIndicator:
    def test_matches_membership_reference(self):
        # seeded tuples of up to four intervals.  Half are placed in order,
        # each starting at or just after the end of the one before, so that
        # neighbours often share an endpoint; the others are drawn at random
        # in -3..3 and often overlap.  Rejected exactly when the reference
        # finds two neighbours that are not strictly ordered.
        rng = random.Random(12)
        built = rejected = touching = 0
        while built + rejected < 1500:
            n = rng.randint(0, 4)
            if rng.random() < 0.5:
                ends, x = [], rng.randint(-3, 0)
                for _ in range(n):
                    lo = x + rng.randint(0, 1)
                    x = lo + rng.randint(1, 2)
                    ends.append((lo, x))
            else:
                ends = [sorted(rng.sample(range(-3, 4), 2)) for _ in range(n)]
            ivs = []
            for lo, hi in ends:
                unbounded = rng.random() < 0.2
                if rng.random() < 0.5:
                    ivs.append(HalfOpenInterval("b", hi, None if unbounded else lo))
                else:
                    ivs.append(HalfOpenInterval("w", lo, None if unbounded else hi))
            pairs = list(zip(ivs, ivs[1:]))
            if not all(strictly_before(a, b) for a, b in pairs):
                with pytest.raises(ValueError):
                    interval_indicator(ivs)
                rejected += 1
                continue
            touching += any(set(a.finite_endpoints()) & set(b.finite_endpoints())
                            for a, b in pairs)
            f = interval_indicator(ivs)
            bp = tuple(sorted({e for iv in ivs for e in iv.finite_endpoints()}))
            assert f.arity == len(ivs) and f.breakpoints == bp
            assert dict(f.coeffs) == indicator_by_membership(len(ivs), bp, intervals_member(ivs))
            built += 1
        assert min(built, rejected, touching) > 100

    def test_empty_tuple_is_unit(self):
        f = interval_indicator([])
        assert f.arity == 0 and f.scalar_value() == 1

    def test_right_closed_expands_to_open_plus_point(self):
        f = interval_indicator([HalfOpenInterval("b", F(1), F(0))])
        assert f.coeffs == {(2,): F(1), (3,): F(1)}

    def test_total_integral_vanishes(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 3)
            cuts = sorted(rng.sample(range(-20, 21), 2 * n))
            ivs = []
            for i in range(n):
                lo, hi = F(cuts[2 * i]), F(cuts[2 * i + 1])
                if rng.random() < 0.5:
                    ivs.append(HalfOpenInterval("b", hi, lo))
                else:
                    ivs.append(HalfOpenInterval("w", lo, hi))
            assert integrate(interval_indicator(ivs)) == 0

    def test_unbounded_ends(self):
        f = interval_indicator(
            [
                HalfOpenInterval("b", F(0), None),
                HalfOpenInterval("w", F(1), None),
            ]
        )
        assert integrate(f) == 0
        assert pair(f, point_mass((F(0), F(1)))) == 1

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            interval_indicator(
                [HalfOpenInterval("b", F(2), F(0)), HalfOpenInterval("b", F(3), F(1))]
            )
        with pytest.raises(ValueError):
            interval_indicator(
                [HalfOpenInterval("w", F(0), F(2)), HalfOpenInterval("b", F(1), F(0))]
            )

    def test_touching_intervals_allowed(self):
        f = interval_indicator(
            [HalfOpenInterval("b", F(1), F(0)), HalfOpenInterval("w", F(1) + 1, F(3))]
        )
        assert f.arity == 2

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            HalfOpenInterval("b", F(0), F(1))
        with pytest.raises(ValueError):
            HalfOpenInterval("x", F(0), F(1))


class TestKeyIndicator:
    def test_single_letter(self):
        f = key_indicator("b", (F(0),))
        assert f.coeffs == {(0,): F(1), (1,): F(1)}  # (-inf, 0) plus the point

    def test_empty_word(self):
        f = key_indicator("", ())
        assert f.arity == 0 and f.scalar_value() == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            key_indicator("bw", (F(0),))

    @pytest.mark.parametrize("word", weights_up_to(3))
    def test_pushforward_vanishes(self, word):
        a = tuple(F(i) for i in range(1, len(word) + 1))
        f = key_indicator(word, a)
        for i in range(len(word)):
            assert pushforward_coordinate(f, i).is_zero()

    @pytest.mark.parametrize("n", range(6))
    def test_matches_membership_reference(self, n):
        # the slot rule against membership evaluated at one point of every cell
        for word in (w for w in weights_up_to(n) if len(w) == n):
            a = tuple(F(2 * i + 1, 3) for i in range(n))
            f = key_indicator(word, a)
            assert f.breakpoints == a
            assert dict(f.coeffs) == indicator_by_membership(n, a, key_member(word, a))


class TestCellCount:
    def test_small_values(self):
        assert cell_count(1, 1) == 3
        assert cell_count(2, 1) == 5

    def test_matches_enumeration(self):
        for n in range(5):
            for m in range(4):
                assert cell_count(n, m) == sum(1 for _ in iter_signatures(n, m))


class TestRepresentatives:
    def test_point_slots(self):
        bp = (F(0), F(10))
        assert cell_representative(bp, (1, 3)) == (F(0), F(10))

    def test_shared_gap_is_increasing(self):
        bp = (F(0), F(1))
        rep = cell_representative(bp, (2, 2, 2))
        assert all(a < b for a, b in zip(rep, rep[1:]))
        assert all(F(0) < r < F(1) for r in rep)

    def test_unbounded_gaps(self):
        bp = (F(0),)
        left = cell_representative(bp, (0, 0))
        right = cell_representative(bp, (2, 2))
        assert left == (F(-2), F(-1)) and right == (F(1), F(2))

    def test_no_breakpoints(self):
        rep = cell_representative((), (0, 0, 0))
        assert all(a < b for a, b in zip(rep, rep[1:]))


class TestAlgebraAndSerialization:
    def test_semantic_equality_across_breakpoints(self):
        f = SchwartzFn(1, (F(0),), {(0,): F(2), (1,): F(2), (2,): F(2)})
        g = SchwartzFn.constant(F(2), arity=1)
        assert f == g

    def test_scalar_arithmetic(self):
        f = point_mass((F(1),))
        assert 2 * f - f == f
        assert (F(1, 2) * f + F(1, 2) * f) == f

    def test_json_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            f = random_fn(rng, rng.randint(0, 2))
            g = SchwartzFn.loads(f.dumps())
            assert g == f and g.breakpoints == f.breakpoints

    def test_json_shape(self):
        f = SchwartzFn(1, (F(1, 2),), {(1,): F(-3, 4)})
        assert f.to_json() == {
            "n": 1,
            "breakpoints": ["1/2"],
            "cells": [{"slots": [1], "coeff": "-3/4"}],
        }

    def test_invalid_signature_rejected(self):
        with pytest.raises(ValueError):
            SchwartzFn(2, (F(0),), {(1, 1): F(1)})
        with pytest.raises(ValueError):
            SchwartzFn(1, (F(0),), {(3,): F(1)})
        with pytest.raises(ValueError):
            SchwartzFn(1, (F(1), F(0)), {})
