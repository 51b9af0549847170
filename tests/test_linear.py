"""Laws shared by the sparse linear combinations: Morphism, KClass, KTensorClass, SchwartzFn."""

from fractions import Fraction as F

import pytest

from delannoy.category import Morphism
from delannoy.euler import SchwartzFn
from delannoy.kring import KClass, KTensorClass
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
