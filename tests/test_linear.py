"""Laws shared by the sparse linear combinations: Morphism, KClass, KTensorClass, SchwartzFn."""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from delannoy import category, euler, kring, linalg, linear, paths
from delannoy.category import Morphism
from delannoy.euler import SchwartzFn
from delannoy.kring import KClass, KTensorClass
from delannoy.linear import number
from delannoy.paths import Path

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


# every public function or method annotated `-> Fraction`, called so that the
# value is integral where it can be: the return type must not depend on it
_ONE = SchwartzFn(1, (0,), {(1,): 2, (2,): F(1, 2)})
SCALAR_CALLS = {
    "parse_frac": (lambda: linear.parse_frac("4/2"), 2),
    "SchwartzFn.value_at_cell": (lambda: _ONE.value_at_cell((1,)), 2),
    "SchwartzFn.scalar_value": (lambda: SchwartzFn.constant(3).scalar_value(), 3),
    "integrate": (lambda: euler.integrate(euler.point_mass((0,))), 1),
    "pair": (lambda: euler.pair(_ONE, _ONE), F(15, 4)),
    "integrate_fully": (lambda: euler.integrate_fully(_ONE), F(3, 2)),
    "trace": (lambda: category.trace(category.projector("b")), -1),
    "counit": (lambda: kring.counit(KClass.word("bw")), 1),
    "inner": (lambda: kring.inner(KClass.word("b"), KClass.word("b")), 1),
    "inner_tensor": (lambda: kring.inner_tensor(KTensorClass({("b", ""): 2}),
                                                KTensorClass({("b", ""): F(1, 2)})), 1),
    "binom_at": (lambda: kring.binom_at(4, 2), 6),
    "IntValuedPoly.evaluate": (lambda: kring.IntValuedPoly((0, 1)).evaluate(5), 5),
    "hilbert_value": (lambda: kring.hilbert_value(KClass.word("bw"), 4), 6),
    "determinant": (lambda: linalg.determinant([[2, 1], [1, F(3, 2)]]), 2),
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
                        getattr(fn, "__annotations__", {}).get("return") == "Fraction":
                    found.add(name if attr is None else f"{name}.{attr}")
    return found


def test_every_fraction_function_is_called():
    assert set(SCALAR_CALLS) == _fraction_functions()


@pytest.mark.parametrize("name", sorted(SCALAR_CALLS))
def test_scalar_results_are_fractions(name):
    call, value = SCALAR_CALLS[name]
    result = call()
    assert type(result) is F and result == value
