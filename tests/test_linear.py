"""Laws shared by the sparse linear combinations (Morphism, KClass, KTensorClass,
SchwartzFn) and by the immutable values (Path, HalfOpenInterval, IntValuedPoly)."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction as F

import pytest

from delannoy import category, euler, kring, linalg, linear, paths, verify
from delannoy.category import Morphism
from delannoy.euler import HalfOpenInterval, SchwartzFn
from delannoy.kring import IntValuedPoly, KClass, KTensorClass
from delannoy.linear import number
from delannoy.paths import Path, enumerate_paths

A = Path(2, ((1, 0), (0, 1)))
B = Path(2, ((0, 1), (1, 0)))
D = Path(2, ((1, 1),))

# (constructor from coeffs, three keys out of canonical order, keys as read back from to_json)
CASES = {
    "Morphism": (
        lambda c: Morphism(1, 1, c),
        [D, B, A],
        lambda d: [Path.from_json(t["path"]) for t in d["terms"]],
    ),
    "KClass": (KClass, ["bw", "w", ""], lambda d: [t["word"] for t in d["terms"]]),
    "KTensorClass": (
        KTensorClass,
        [("b", ""), ("", "bw"), ("", "w")],
        lambda d: [(t["left"], t["right"]) for t in d["terms"]],
    ),
    "SchwartzFn": (
        lambda c: SchwartzFn(1, (F(0), F(2)), c),
        [(4,), (1,), (0,)],
        lambda d: [tuple(c["slots"]) for c in d["cells"]],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_combination_laws(name):
    make, keys, json_keys = CASES[name]
    x = make({keys[0]: F(3, 2), keys[1]: F(-2), keys[2]: F(0)})
    assert set(x.coeffs) == {keys[0], keys[1]}
    assert make({k: 0 for k in keys}).is_zero()
    assert (x - x).is_zero() and not x.is_zero()
    assert 2 * x == x + x == x * 2
    assert -x == F(-1) * x
    assert type(x).loads(x.dumps()) == x
    assert pickle.loads(pickle.dumps(x)) == copy.copy(x) == x
    y = make({keys[0]: 1, keys[1]: 2, keys[2]: 3})
    order = [k for k, _ in y.terms()]
    assert order == json_keys(y.to_json())
    assert order == [k for k, _ in make(dict(reversed(list(y.coeffs.items())))).terms()]
    assert order != keys


@pytest.mark.parametrize(
    "x, y",
    [
        (Morphism(1, 1, {D: 1}), Morphism(1, 2, {Path(2, ((1, 1), (0, 1))): 1})),
        (SchwartzFn(1, (), {(0,): 1}), SchwartzFn(2, (), {(0, 0): 1})),
    ],
    ids=["Morphism", "SchwartzFn"],
)
def test_space_mismatch(x, y):
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x - y
    assert x != y


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_coefficients_are_exact(name):
    make, keys, _ = CASES[name]
    x = make({keys[0]: F(3, 2)})
    data = x.to_json()
    term = (data.get("terms") or data["cells"])[0]
    for bad in (1.5, 0.1, True, None):
        term["coeff"] = bad
        with pytest.raises(ValueError, match="'coeff'"):
            type(x).from_json(data)
    term["coeff"] = 3
    assert type(x).from_json(data) == make({keys[0]: 3})


@pytest.mark.parametrize(
    "read, data, field",
    [
        (Path.from_json, {"d": 2.0, "steps": [[1, 1]]}, "d"),
        (Path.from_json, {"d": 2, "steps": [[1, True]]}, "steps"),
        (Morphism.from_json, {"n": True, "m": 1, "terms": []}, "n"),
        (Morphism.from_json, {"n": 1, "m": 1.0, "terms": []}, "m"),
        (SchwartzFn.from_json, {"n": 1.0, "breakpoints": [], "cells": []}, "n"),
        (SchwartzFn.from_json, {"n": 1, "breakpoints": [0.5], "cells": []}, "breakpoints"),
        (SchwartzFn.from_json,
         {"n": 1, "breakpoints": [], "cells": [{"slots": [0.0], "coeff": "1"}]}, "slots"),
    ],
)
def test_json_integers_are_exact(read, data, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        read(data)


def _read_coeff(make, key, text):
    """A one-term combination read back from JSON with its coefficient set to text."""
    data = make({key: 1}).to_json()
    (data.get("terms") or data["cells"])[0]["coeff"] = text
    return type(make({})).from_json(data)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize(
    "build, value",
    [
        (lambda make, key: make({key: F(4, 2)}), 2),
        (lambda make, key: _read_coeff(make, key, "4/2"), 2),
        (lambda make, key: make({key: 3}) * F(1, 2) * 2, 3),
        (lambda make, key: make({key: F(1, 2)}) + make({key: F(1, 2)}), 1),
        (lambda make, key: make({key: F(3, 2)}), F(3, 2)),
        (lambda make, key: _read_coeff(make, key, "-6/4"), F(-3, 2)),
        (lambda make, key: make({key: 3}) * F(1, 2), F(3, 2)),
    ],
    ids=["Fraction-4/2", "json-4/2", "halved-doubled", "half-plus-half",
         "Fraction-3/2", "json--6/4", "halved"],
)
def test_integral_coefficients_are_stored_as_int(name, build, value):
    make, keys, _ = CASES[name]
    (c,) = build(make, keys[0]).coeffs.values()
    assert c == value and type(c) is type(value)


@pytest.mark.parametrize(
    "value, stored",
    [(3, 3), (F(3), 3), (F(4, 2), 2), ("4/2", 2), (True, 1), (F(3, 2), F(3, 2)), ("-1/3", F(-1, 3))],
)
def test_number(value, stored):
    assert number(value) == stored and type(number(value)) is type(stored)


@pytest.mark.parametrize(
    "breakpoints, stored",
    [
        ((F(3),), (3,)),
        ((F(-2), F(6, 2)), (-2, 3)),
        ((F(1, 2), 1), (F(1, 2), 1)),
    ],
)
def test_breakpoints_follow_the_number_rule(breakpoints, stored):
    for f in (SchwartzFn(1, breakpoints, {}),
              SchwartzFn.loads(SchwartzFn(1, breakpoints, {}).dumps())):
        assert f.breakpoints == stored
        assert [type(b) for b in f.breakpoints] == [type(b) for b in stored]


@pytest.mark.parametrize("name", sorted(CASES))
def test_values_are_read_only(name):
    make, keys, _ = CASES[name]
    x = make({keys[0]: 1, keys[1]: 2})
    with pytest.raises(TypeError):
        x.coeffs[keys[2]] = 1
    with pytest.raises(TypeError):
        x.coeffs[keys[0]] = 5
    with pytest.raises(TypeError):
        del x.coeffs[keys[1]]
    for attr in ("coeffs", *type(x).__slots__):
        with pytest.raises(AttributeError):
            setattr(x, attr, getattr(x, attr))
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert x == make({keys[0]: 1, keys[1]: 2})


# the trusted constructor of each combination, with the space of its CASES entry
TRUSTED = {
    "Morphism": lambda c: Morphism._trusted(1, 1, c),
    "KClass": KClass._trusted,
    "KTensorClass": KTensorClass._trusted,
    "SchwartzFn": lambda c: SchwartzFn._trusted(1, (0, 2), c),
}


# (coefficients, the stored ones), indexed by key: an integral Fraction and a
# zero are normalised also where every other coefficient is already an int
TRUSTED_COEFFS = [
    ((F(1, 2) + F(1, 2), F(0), F(-3, 2)), {0: 1, 2: F(-3, 2)}),
    ((1, 0, -3), {0: 1, 2: -3}),
    ((1, F(4, 2), -3), {0: 1, 1: 2, 2: -3}),
    ((1, 2, -3), {0: 1, 1: 2, 2: -3}),
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trusted_construction_keeps_the_number_rule(name):
    make, keys, _ = CASES[name]
    for values, stored in TRUSTED_COEFFS:
        coeffs = dict(zip(keys, values))
        x, checked = TRUSTED[name](dict(coeffs)), make(coeffs)
        assert type(x) is type(checked) and x == checked and checked == x
        assert dict(x.coeffs) == {keys[i]: c for i, c in stored.items()}
        types = [type(c) for c in stored.values()]
        assert [type(c) for c in x.coeffs.values()] == types
        assert x._space() == checked._space()
        with pytest.raises(TypeError):
            x.coeffs[keys[1]] = 1
        for attr in ("coeffs", *type(x).__slots__):
            with pytest.raises(AttributeError):
                setattr(x, attr, getattr(x, attr))
        for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(clone) is type(x) and clone == x
            assert [type(c) for c in clone.coeffs.values()] == types


# The immutable values are plain slotted classes; each must equal, hash, order
# and print like the frozen dataclass with the same name and fields.
DATACLASSES = {
    Path: dataclasses.make_dataclass("Path", ["dim", "steps"], frozen=True, order=True),
    HalfOpenInterval: dataclasses.make_dataclass(
        "HalfOpenInterval", ["kind", "closed", "open_end"], frozen=True),
    IntValuedPoly: dataclasses.make_dataclass("IntValuedPoly", ["coeffs"], frozen=True),
}
VALUES = {
    Path: [Path(d, p.steps) for d, t in ((1, (2,)), (2, (1, 1)), (2, (2, 1)), (3, (1, 0, 1)))
           for p in enumerate_paths(t)] + [Path(0, ()), Path(2, ())],
    HalfOpenInterval: [HalfOpenInterval("b", 1, 0), HalfOpenInterval("b", F(1), None),
                       HalfOpenInterval("w", F(1, 2), 3), HalfOpenInterval("w", 0, None),
                       HalfOpenInterval("b", F(4, 2), F(-1, 3))],
    IntValuedPoly: [IntValuedPoly(()), IntValuedPoly((0, 1)), IntValuedPoly((0, 0, 1)),
                    IntValuedPoly((1, 2, 1))],
}


def _as_dataclass(value):
    cls = DATACLASSES[type(value)]
    return cls(*(getattr(value, f.name) for f in dataclasses.fields(cls)))


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_values_match_their_dataclass(cls):
    values = VALUES[cls]
    for x in values:
        old = _as_dataclass(x)
        assert hash(x) == hash(old)
        assert repr(x) == repr(old) or cls is Path
        fields = dataclasses.astuple(old)
        for y in values + [None, (), fields]:
            assert (x == y) == (old == (_as_dataclass(y) if type(y) is cls else y))
            assert (x != y) == (not x == y)
    assert len(set(values)) == len(values)


def test_path_equals_hashes_and_orders_as_its_pair():
    ps = VALUES[Path]
    for p in ps:
        assert hash(p) == hash((p.dim, p.steps))
        for q in ps:
            pair, other = (p.dim, p.steps), (q.dim, q.steps)
            assert (p == q, p < q, p <= q, p > q, p >= q) == \
                (pair == other, pair < other, pair <= other, pair > other, pair >= other)
            old_p, old_q = _as_dataclass(p), _as_dataclass(q)
            assert (p < q, p <= q, p > q, p >= q) == \
                (old_p < old_q, old_p <= old_q, old_p > old_q, old_p >= old_q)
    assert sorted(ps, key=lambda p: (p.dim, p.steps)) == sorted(reversed(ps))
    for target in ((2, 2), (3, 1), (1, 1, 1)):
        enumerated = enumerate_paths(target)
        assert list(enumerated) == sorted(enumerated) == sorted(reversed(enumerated))
    p = ps[0]
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert getattr(p, op)((p.dim, p.steps)) is NotImplemented
    for other in ((p.dim, p.steps), 1):
        for compare in (lambda: p < other, lambda: p <= other, lambda: p > other,
                        lambda: p >= other, lambda: other < p):
            with pytest.raises(TypeError):
                compare()


def test_path_repr():
    assert repr(Path(2, ((1, 0), (1, 1)))) == "Path[(1, 0), (1, 1)]"
    assert repr(Path(2, ())) == "Path[]"


def test_schwartz_repr_lists_its_cells():
    f = SchwartzFn(2, (-7, F(1, 2)), {(1, 3): F(-3, 2), (0, 0): 4})
    assert repr(f) == "SchwartzFn(2 on [-7, 1/2]: 4*(0, 0) + -3/2*(1, 3))"
    assert repr(SchwartzFn.zero(3)) == "SchwartzFn(3 on []: 0)"
    # the widest input of suite 06's random checks: six arity-3 cells over three breakpoints
    big = SchwartzFn(3, (-8, 0, 8), dict.fromkeys(list(euler.iter_signatures(3, 3))[-6:], -5))
    detail = f"at {(big, [2, 0, 1])}: got {10**9!r}, want {-30!r}"
    assert len(detail) < verify.DETAIL_LIMIT


def test_path_normalises_and_checks_its_steps():
    p = Path(2, [[1, 0], (0, 1)])
    assert p.steps == ((1, 0), (0, 1)) and type(p.steps) is tuple
    assert all(type(s) is tuple for s in p.steps)
    assert p == Path(dim=2, steps=((1, 0), (0, 1)))
    assert Path(64, [(1,) * 64]).target == (1,) * 64  # no table grows with 2^dim
    for dim, steps, message in ((2, [[1, 2]], "0-1 vector"), (2, [[0, 0]], "zero vector"),
                                (64, [(2,) + (0,) * 63], "0-1 vector"),
                                (4, [(1, 0, 0, 0), (0, 0, 0, 0)], "zero vector"),
                                (2, [[1]], "dimension 2"), (-1, [], "non-negative"),
                                # the first bad step is the one reported
                                (2, [[1, 0], [2, 0], [1, 0], [0, 0], [2, 0]], r"\(2, 0\) is not"),
                                (2, [[1, 0], [0, 0], [1, 1], [1, 2]], "zero vector"),
                                (2, [[1, 1], [1, 1], [1], [2, 0]], "dimension 2")):
        with pytest.raises(ValueError, match=message):
            Path(dim, steps)


def test_half_open_interval_stores_numbers_and_checks_its_ends():
    iv = HalfOpenInterval("b", F(4, 2), F(0))
    assert (type(iv.closed), type(iv.open_end)) == (int, int)
    assert iv == HalfOpenInterval(kind="b", closed=2, open_end=0)
    assert hash(iv) == hash(("b", 2, 0))
    assert repr(HalfOpenInterval("w", F(1, 2), None)) == \
        "HalfOpenInterval(kind='w', closed=Fraction(1, 2), open_end=None)"
    assert repr(HalfOpenInterval("b", 1, 0)) == "HalfOpenInterval(kind='b', closed=1, open_end=0)"
    for args in (("x", 0, 1), ("b", 0, 1), ("w", 1, 0), ("w", 1, 1)):
        with pytest.raises(ValueError):
            HalfOpenInterval(*args)


def test_int_valued_poly_equals_and_prints_like_a_record():
    assert IntValuedPoly((0, 1)) == IntValuedPoly(coeffs=(0, 1)) != IntValuedPoly((0, 1, 0))
    assert hash(IntValuedPoly((0, 1))) == hash(((0, 1),))
    assert repr(IntValuedPoly((0, 0, 1))) == "IntValuedPoly(coeffs=(0, 0, 1))"
    assert repr(kring.schur_dimension_poly((2, 1))) == "IntValuedPoly(coeffs=(0, 0, 2, 2))"


def test_int_valued_poly_holds_a_tuple_of_ints():
    # a list was kept as given: unhashable, and changed by appending to it
    p = IntValuedPoly([1, 2])
    assert p.coeffs == (1, 2) and type(p.coeffs) is tuple
    assert hash(p) == hash(IntValuedPoly((1, 2))) and p == IntValuedPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs.append(5)
    for bad in ((1.5,), (1, True), (F(1),), ("1",)):
        with pytest.raises(ValueError):
            IntValuedPoly(bad)


def test_values_of_other_classes_are_unequal():
    values = [HalfOpenInterval("b", 1, 0), IntValuedPoly((0, 1)), Path(2, ((1, 1),)),
              KClass.word("b"), ("b", 1, 0), ((0, 1),), (2, ((1, 1),))]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert (x == y) == (i == j) and (x != y) == (i != j)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_values_are_immutable_and_survive_pickle_and_copy(cls):
    for x in VALUES[cls]:
        fields = [f.name for f in dataclasses.fields(DATACLASSES[cls])]
        assert list(cls.__slots__) == fields
        for name in fields + ["other"]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert not hasattr(x, "__dict__")
        for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(clone) is cls and clone == x and hash(clone) == hash(x)
            assert [getattr(clone, n) for n in fields] == [getattr(x, n) for n in fields]


# every public function or method annotated `-> int | Fraction`, each called
# once where the value is integral (reached through Fraction arithmetic where
# it can be) and once where it is not: the number rule of `linear.number`
# holds for scalar results as it does for coefficients
_ONE = SchwartzFn(1, (0,), {(1,): 2, (2,): F(1, 2)})
_HALF = KClass({"b": F(1, 2)})
SCALAR_CALLS = {
    "number": (lambda: linear.number(F(4, 2)), 2, lambda: linear.number(F(2, 4)), F(1, 2)),
    "parse_frac": (lambda: linear.parse_frac("4/2"), 2, lambda: linear.parse_frac("1/2"), F(1, 2)),
    "SchwartzFn.value_at_cell": (lambda: _ONE.value_at_cell((1,)), 2,
                                 lambda: _ONE.value_at_cell((2,)), F(1, 2)),
    "SchwartzFn.scalar_value": (lambda: SchwartzFn.constant(F(6, 2)).scalar_value(), 3,
                                lambda: SchwartzFn.constant(F(1, 2)).scalar_value(), F(1, 2)),
    "integrate": (lambda: euler.integrate(_ONE + SchwartzFn(1, (0,), {(0,): F(1, 2)})), 1,
                  lambda: euler.integrate(_ONE), F(3, 2)),
    "pair": (lambda: euler.pair(_ONE, SchwartzFn(1, (0,), {(2,): 2})), -1,
             lambda: euler.pair(_ONE, _ONE), F(15, 4)),
    "integrate_fully": (lambda: euler.integrate_fully(_ONE + _ONE), 3,
                        lambda: euler.integrate_fully(_ONE), F(3, 2)),
    "trace": (lambda: category.trace(category.projector("b")), -1,
              lambda: category.trace(F(1, 2) * category.projector("b")), F(-1, 2)),
    "counit": (lambda: kring.counit(KClass({"b": F(1, 2), "bw": F(3, 2)})), 1,
               lambda: kring.counit(_HALF), F(-1, 2)),
    "inner": (lambda: kring.inner(_HALF, 2 * KClass.word("b")), 1,
              lambda: kring.inner(_HALF, KClass.word("b")), F(1, 2)),
    "binom_at": (lambda: kring.binom_at(4, 2), 6, lambda: kring.binom_at(F(1, 2), 2), F(-1, 8)),
    "IntValuedPoly.evaluate": (lambda: kring.IntValuedPoly((0, 1)).evaluate(5), 5,
                               lambda: kring.IntValuedPoly((0, 1)).evaluate(F(1, 2)), F(1, 2)),
    "hilbert_value": (lambda: kring.hilbert_value(KClass.word("bw"), 4), 6,
                      lambda: kring.hilbert_value(_HALF, 1), F(1, 2)),
    "determinant": (lambda: linalg.determinant([[2, 1], [1, F(3, 2)]]), 2,
                    lambda: linalg.determinant([[F(1, 2)]]), F(1, 2)),
}


def _fraction_functions() -> set[str]:
    found = set()
    for module in (linear, paths, euler, category, kring, linalg):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, fn in members:
                fn = getattr(fn, "__func__", fn)
                if (attr is None or not attr.startswith("_")) and \
                        getattr(fn, "__annotations__", {}).get("return") == "int | Fraction":
                    found.add(name if attr is None else f"{name}.{attr}")
    return found


def test_every_fraction_function_is_called():
    assert set(SCALAR_CALLS) == _fraction_functions()


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_results_follow_the_number_rule(name):
    call, value, _, _ = SCALAR_CALLS[name]
    result = call()
    assert type(result) is int and result == value


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_results_are_fractions(name):
    # where the value is not integral
    _, _, call, value = SCALAR_CALLS[name]
    result = call()
    assert type(result) is F and result.denominator != 1 and result == value
