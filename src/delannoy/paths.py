"""Delannoy paths in arbitrary dimension, and the orbit <-> path codec.

A d-dimensional Delannoy path with target a = (a_1, ..., a_d) is a sequence of
nonzero 0-1 step vectors summing to a.  In two dimensions these are the classic
lattice paths with unit, north and diagonal steps; D(n, m) counts them.

Paths of target (n, m) also encode the relative positions of a pair of tuples
x_1 < ... < x_n and y_1 < ... < y_m on a line: scan the merged point set left
to right and emit (1, 0) for a lone x-point, (0, 1) for a lone y-point, and
(1, 1) for a shared point.  Only the order type matters, so each path has a
canonical representative placing the merged points at 1, 2, ..., len(path).

All values here are immutable and hashable; every function is pure.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Optional, Sequence

from .errors import InvariantError
from .linear import Frozen, json_field, json_int

Step = tuple[int, ...]


def _check_step(step: Step, dim: int) -> None:
    if len(step) != dim:
        raise ValueError(f"step {step} does not have dimension {dim}")
    if any(c not in (0, 1) for c in step):
        raise ValueError(f"step {step} is not a 0-1 vector")
    if not any(step):
        raise ValueError("the zero vector is not a valid step")


class Path(Frozen):
    """A Delannoy path: an ordered tuple of nonzero 0-1 steps of fixed dimension.

    Paths equal, hash and order as the pair (dim, steps).
    """

    __slots__ = ("dim", "steps")

    def __init__(self, dim: int, steps: Sequence[Sequence[int]]) -> None:
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        steps = tuple(tuple(s) for s in steps)
        for step in steps:
            _check_step(step, dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "steps", steps)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dim == other.dim and self.steps == other.steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, self.steps))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim, self.steps) < (other.dim, other.steps)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim, self.steps) <= (other.dim, other.steps)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim, self.steps) > (other.dim, other.steps)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim, self.steps) >= (other.dim, other.steps)
        return NotImplemented

    @property
    def target(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.steps))) if self.steps else (0,) * self.dim

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"Path{list(self.steps)!r}"

    def to_json(self) -> dict:
        return {"d": self.dim, "steps": [list(s) for s in self.steps]}

    @classmethod
    def from_json(cls, data: dict) -> "Path":
        return cls(
            json_field(data, "d", json_int),
            json_field(data, "steps", lambda ss: tuple(tuple(map(json_int, s)) for s in ss)),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def loads(cls, text: str) -> "Path":
        return cls.from_json(json.loads(text))


def _trusted_path(dim: int, steps: tuple[Step, ...]) -> Path:
    """A Path built without validation, for the engine's own hot loops.

    Only for steps taken from a valid step table: the nonzero 0-1 steps of
    `_nonzero_steps(dim)`, the nonzero 3-bit steps of a lift found by
    `lifts`, or their nonzero (a, c) projections.  The result equals, hashes
    and orders like `Path(dim, steps)`.
    """
    p = object.__new__(Path)
    object.__setattr__(p, "dim", dim)
    object.__setattr__(p, "steps", steps)
    return p


def _nonzero_steps(dim: int) -> list[Step]:
    """All 2^dim - 1 nonzero 0-1 vectors, in lexicographic order."""
    out = []
    for mask in range(1, 1 << dim):
        out.append(tuple((mask >> (dim - 1 - i)) & 1 for i in range(dim)))
    out.sort()
    return out


@lru_cache(maxsize=None)
def enumerate_paths(target: tuple[int, ...]) -> tuple[Path, ...]:
    """All Delannoy paths with the given target, sorted by step sequence.

    The empty target (dimension 0) and the zero target both yield the single
    empty path.
    """
    target = tuple(int(a) for a in target)
    if any(a < 0 for a in target):
        raise ValueError("target entries must be non-negative")
    dim = len(target)
    steps = _nonzero_steps(dim)
    # For every point below the target: the steps that fit, each with what is
    # left after it; none fit at the zero point.
    children = {
        left: [(s, tuple(map(sub, left, s))) for s in steps
               if all(c <= l for c, l in zip(s, left))]
        for left in itertools.product(*(range(a + 1) for a in target))
    }
    if not children[target]:
        return (_trusted_path(dim, ()),)
    # Depth first over the children in order, so paths come out sorted, on
    # its own stack of child iterators, so long paths do not run into the
    # recursion limit.
    out: list[Path] = []
    prefix: list[Step] = []
    stack = [iter(children[target])]
    while stack:
        for s, left in stack[-1]:
            prefix.append(s)
            if children[left]:
                stack.append(iter(children[left]))
                break
            out.append(_trusted_path(dim, tuple(prefix)))
            prefix.pop()
        else:
            stack.pop()
            if prefix:
                prefix.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def delannoy_number(n: int, m: int) -> int:
    """D(n, m) via the recurrence D(n,m) = D(n-1,m) + D(n,m-1) + D(n-1,m-1)."""
    if n < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    row = [1] * (m + 1)
    for _ in range(n):
        prev = row
        row = [1] * (m + 1)
        for j in range(1, m + 1):
            row[j] = row[j - 1] + prev[j] + prev[j - 1]
    return row[m]


def project_path(p: Path, axes: Sequence[int]) -> Path:
    """Project onto the listed axes (0-based), dropping steps that become zero."""
    if len(set(axes)) != len(axes):
        raise ValueError(f"axes {tuple(axes)} are not injective")
    for a in axes:
        if not 0 <= a < p.dim:
            raise ValueError(f"axis {a} out of range for dimension {p.dim}")
    steps = []
    for s in p.steps:
        t = tuple(s[a] for a in axes)
        if any(t):
            steps.append(t)
    return Path(len(axes), tuple(steps))


def lifts(p12: Path, p23: Path) -> list[tuple[tuple[Step, ...], tuple[Step, ...]]]:
    """Every 3-dimensional path q with projections p12 on axes (1, 2) and p23
    on axes (2, 3), as pairs (steps of q, steps of its projection p13).

    From the heads h12, h23 of what is left of p12 and p23, only three steps
    are possible: (0, 0, 1) if h23 = (0, 1), (1, 0, 0) if h12 = (1, 0), and
    (h12[0], h12[1], h23[1]) if h12[1] = h23[0]; the last consumes both heads.
    Each is one of the seven nonzero 3-bit steps.  When p12 and p23 have the
    same extent on axis 2, at least one of them applies until both paths are
    used up, so every branch of the search ends in a lift.  The search keeps
    its own stack, so long paths do not run into the recursion limit.
    """
    if p12.dim != 2 or p23.dim != 2:
        raise ValueError("lifts expects 2-dimensional paths")
    s12, s23 = p12.steps, p23.steps
    n12, n23 = len(s12), len(s23)
    found = []
    lift: list[Step] = []
    proj: list[Step] = []
    # (i12, i23, length of lift, length of proj) before the step; the step; its projection.
    todo: list = [(0, 0, 0, 0, None, None)]
    while todo:
        i12, i23, k, j, step, pstep = todo.pop()
        del lift[k:], proj[j:]
        if step is not None:
            lift.append(step)
            if pstep is not None:
                proj.append(pstep)
        h12 = s12[i12] if i12 < n12 else None
        h23 = s23[i23] if i23 < n23 else None
        if h12 is None and h23 is None:
            found.append((tuple(lift), tuple(proj)))
            continue
        k, j = len(lift), len(proj)
        if h23 == (0, 1):
            todo.append((i12, i23 + 1, k, j, (0, 0, 1), (0, 1)))
        if h12 == (1, 0):
            todo.append((i12 + 1, i23, k, j, (1, 0, 0), (1, 0)))
        if h12 is not None and h23 is not None and h12[1] == h23[0]:
            a, c = h12[0], h23[1]
            todo.append((i12 + 1, i23 + 1, k, j, (a, h12[1], c), (a, c) if a or c else None))
    return found


def lift3(p12: Path, p23: Path, p13: Path) -> Optional[Path]:
    """The unique 3-dimensional path projecting to (p12, p23, p13), or None.

    Picks, among the lifts of (p12, p23), the ones that project to p13, and
    raises InvariantError if there is more than one; uniqueness always
    holds, but it is checked rather than assumed.
    """
    if p12.dim != 2 or p23.dim != 2 or p13.dim != 2:
        raise ValueError("lift3 expects 2-dimensional paths")
    a1, a2 = p12.target
    b2, b3 = p23.target
    c1, c3 = p13.target
    if a1 != c1 or a2 != b2 or b3 != c3:
        raise ValueError(
            f"inconsistent targets {p12.target}, {p23.target}, {p13.target}"
        )
    solutions = [q for q, proj in lifts(p12, p23) if proj == p13.steps]
    if len(solutions) > 1:
        raise InvariantError(f"{len(solutions)} lifts of {p12}, {p23}, {p13}")
    return _trusted_path(3, solutions[0]) if solutions else None


def encode_orbit(x: Sequence[Fraction], y: Sequence[Fraction]) -> Path:
    """Path of the merged scan of two strictly increasing tuples (x = axis 0)."""
    for t in (x, y):
        if any(not a < b for a, b in zip(t, t[1:])):
            raise ValueError(f"tuple {tuple(t)} is not strictly increasing")
    i = j = 0
    steps: list[Step] = []
    while i < len(x) or j < len(y):
        if j == len(y) or (i < len(x) and x[i] < y[j]):
            steps.append((1, 0))
            i += 1
        elif i == len(x) or y[j] < x[i]:
            steps.append((0, 1))
            j += 1
        else:
            steps.append((1, 1))
            i += 1
            j += 1
    return Path(2, tuple(steps))


def canonical_representative(p: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Place the merged points of a 2-dimensional path at 1, 2, ..., len(p)."""
    if p.dim != 2:
        raise ValueError("canonical representatives exist only in dimension 2")
    x = tuple(pos for pos, (sx, _) in enumerate(p.steps, start=1) if sx)
    y = tuple(pos for pos, (_, sy) in enumerate(p.steps, start=1) if sy)
    return x, y


# Weights: words over the two-letter alphabet, serialized 'b' (filled) / 'w' (open).
WEIGHT_LETTERS = ("b", "w")


def check_weight(word: str) -> str:
    """Validate a weight word; returns it unchanged."""
    if not isinstance(word, str) or word.strip("bw"):
        raise ValueError(f"invalid weight {word!r}: letters must be 'b' or 'w'")
    return word


def all_weights(length: int) -> list[str]:
    """All 2^length weight words of the given length, in lexicographic order."""
    words = [""]
    for _ in range(length):
        words = [w + c for w in words for c in WEIGHT_LETTERS]
    return sorted(words)


def weights_up_to(length: int) -> list[str]:
    """All weight words of length <= the bound, shortest first."""
    out: list[str] = []
    for n in range(length + 1):
        out.extend(all_weights(n))
    return out
