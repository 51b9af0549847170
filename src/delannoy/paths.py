"""Delannoy paths in arbitrary dimension, and the orbit <-> path codec.

A d-dimensional Delannoy path with target a = (a_1, ..., a_d) is a sequence of
nonzero 0-1 step vectors summing to a.  In two dimensions these are the classic
lattice paths with unit, north and diagonal steps; D(n, m) counts them.

Paths of target (n, m) also encode the relative positions of a pair of tuples
x_1 < ... < x_n and y_1 < ... < y_m on a line: scan the merged point set left
to right and emit (1, 0) for a lone x-point, (0, 1) for a lone y-point, and
(1, 1) for a shared point.  Only the order type matters, so each path has a
canonical representative placing the merged points at 1, 2, ..., len(path).

`enumerate_paths` lists the paths to a target depth first, down to the
cached paths of small targets (coordinate sum at most `_TAIL`).  All values
here are immutable and hashable; every function is pure.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, total_ordering
from operator import index, sub
from types import MappingProxyType

from .errors import InvariantError
from .linear import Frozen, _arity, json_field, json_int

Step = tuple[int, ...]


def _check_step(step: Step, dim: int) -> None:
    if len(step) != dim:
        raise ValueError(f"step {step} does not have dimension {dim}")
    if any(c not in (0, 1) for c in step):
        raise ValueError(f"step {step} is not a 0-1 vector")
    if not any(step):
        raise ValueError("the zero vector is not a valid step")


@total_ordering
class Path(Frozen):
    """A Delannoy path: an ordered tuple of nonzero 0-1 steps of fixed dimension.

    Paths equal, hash and order as the pair (dim, steps).
    """

    __slots__ = ("dim", "steps")

    def __init__(self, dim: int, steps: Sequence[Sequence[int]]) -> None:
        dim = _arity(dim, "dimension")
        steps = tuple(map(tuple, steps))
        valid = _VALID_STEPS.get(dim)
        if valid is None or not valid.issuperset(steps):
            for step in dict.fromkeys(steps):  # each distinct step once, the first bad one first
                _check_step(step, dim)
        _set_dim(self, dim)
        _set_steps(self, steps)

    # == and hash of its own, faster than `Frozen`'s: `compose` hashes every path it returns
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

    @property
    def target(self) -> tuple[int, ...]:
        steps = self.steps
        if self.dim == 2:  # by counting the lone steps: the engine reads 2-D targets most
            n = len(steps)
            return (n - steps.count((0, 1)), n - steps.count((1, 0)))
        return tuple(map(sum, zip(*steps))) if steps else (0,) * self.dim

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


_set_dim, _set_steps = Path.dim.__set__, Path.steps.__set__  # Path's slot descriptors


def _trusted_path(dim: int, steps: tuple[Step, ...]) -> Path:
    """A Path built without validation, for the engine's own hot loops.

    Only for a tuple of steps taken from a valid step table: the nonzero 0-1
    steps of `_nonzero_steps(dim)`, the 3-bit steps of the moves of `_MOVES`
    that `lift3` takes, or the nonzero projections those moves emit.  The
    slots are set through their descriptors, skipping `Frozen.__setattr__`;
    the result equals, hashes and orders like `Path(dim, steps)`.
    """
    p = object.__new__(Path)
    _set_dim(p, dim)
    _set_steps(p, steps)
    return p


def _nonzero_steps(dim: int) -> list[Step]:
    """All 2^dim - 1 nonzero 0-1 vectors, in lexicographic order."""
    return [s for s in itertools.product((0, 1), repeat=dim) if any(s)]


# The valid steps of each dimension up to 4, which `Path` tests its steps against at once
_VALID_STEPS = {dim: frozenset(_nonzero_steps(dim)) for dim in range(5)}
_TAIL = 5  # coordinate sum at or below which `enumerate_paths` reads cached tails


def enumerate_paths(target: Sequence[int]) -> tuple[Path, ...]:
    """All Delannoy paths with the given target, sorted by step sequence.

    The empty target (dimension 0) and the zero target both yield the single
    empty path.  The entries, integers but not bools, are checked here,
    before the cache lookup, since the cache would take 2.0 for 2; the search
    itself is cached.
    """
    target = tuple(target)
    if not all(hasattr(a, "__index__") and type(a) is not bool for a in target):
        raise ValueError(f"target entries must be integers, got {target!r}")
    target = tuple(map(index, target))
    if any(a < 0 for a in target):
        raise ValueError("target entries must be non-negative")
    return _enumerate_paths(target)


@lru_cache(maxsize=None)
def _enumerate_paths(target: tuple[int, ...]) -> tuple[Path, ...]:
    """The paths to a checked target, searched depth first, on an explicit
    stack, over the target and the points whose coordinate sum is above
    `_TAIL`; at the first other point `left`, the cached paths to `left` are
    appended to the steps taken.  So the work stays linear in the output, a
    small target is built by first step with recursion at most `_TAIL` deep,
    no recursion grows with the target, and the cache gains only small points.
    """
    dim = len(target)
    steps = _nonzero_steps(dim)
    # For the target and every point above `_TAIL`: the steps that fit, each
    # with what is left after it; none fit at the zero point.
    children = {
        left: [(s, tuple(map(sub, left, s))) for s in steps
               if all(c <= l for c, l in zip(s, left))]
        for left in itertools.product(*(range(a + 1) for a in target))
        if sum(left) > _TAIL or left == target
    }
    if not children[target]:
        return (_trusted_path(dim, ()),)
    # Depth first over the children in order, so paths come out sorted.
    out: list[Path] = []
    append, new, set_dim, set_steps = out.append, object.__new__, _set_dim, _set_steps
    prefix: list[Step] = []
    stack = [iter(children[target])]
    while stack:
        for s, left in stack[-1]:
            prefix.append(s)
            if left in children:
                stack.append(iter(children[left]))
                break
            head = tuple(prefix)
            for tail in _enumerate_paths(left):  # a trusted build, inlined
                p = new(Path)
                set_dim(p, dim)
                set_steps(p, head + tail.steps)
                append(p)
            prefix.pop()
        else:
            stack.pop()
            if prefix:
                prefix.pop()
    return tuple(out)


# The tracer and the tests read the search's cache through the public name.
enumerate_paths.cache_info = _enumerate_paths.cache_info


def delannoy_number(n: int, m: int) -> int:
    """D(n, m) = sum over k of C(n, k) * C(m, k) * 2^k, each term exactly the last
    times (n-k) * (m-k) * 2 / (k+1)^2; suite 01 checks it against the recurrence."""
    if bool in (type(n), type(m)) or not (hasattr(n, "__index__") and hasattr(m, "__index__")):
        raise ValueError(f"arguments must be integers, got {n!r}, {m!r}")
    n, m = index(n), index(m)
    if n < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    term = total = 1
    for k in range(min(n, m)):
        term = term * (n - k) * (m - k) * 2 // (k + 1) ** 2
        total += term
    return total


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


# Lift moves as (p12 step, p23 step, p13 step): the seven nonzero 3-bit steps
# (a, b, c), each consuming (a, b) from p12, (b, c) from p23 and emitting (a, c)
# into p13, with None where that projection is zero.  `category.compose` walks
# this table, and `lift3` looks moves up in `_HEADS`, the head table derived from it.
_MOVES = tuple(
    tuple((x, y) if x or y else None for x, y in ((a, b), (b, c), (a, c)))
    for a, b, c in itertools.product((0, 1), repeat=3)
    if a or b or c
)


_HEAD_STEPS = (None, (0, 1), (1, 0), (1, 1))  # a 2-D path's head: a step, or None once used up


def _head_table(moves: Sequence[tuple]) -> MappingProxyType:
    """For each triple of heads of (p12, p23, p13), the moves that apply there,
    in table order: a move applies where each of its steps is None or the head."""
    table: dict = {heads: [] for heads in itertools.product(_HEAD_STEPS, repeat=3)}
    for move in moves:
        for heads in itertools.product(*((s,) if s else _HEAD_STEPS for s in move)):
            table[heads].append(move)
    return MappingProxyType({heads: tuple(found) for heads, found in table.items()})


def _check_moves(moves: Sequence[tuple]) -> None:
    """Raise InvariantError unless two lifts of one pair never share a projection.

    Two different lifts of one pair agree up to their first different move,
    and both of those moves apply at the same heads of p12 and p23.  So their
    projections differ if, at every triple of heads, at most one move
    applies: two moves that emit one step, or a move that emits nothing next
    to one that emits the head of p13, would both apply there.  Every move
    must consume a step, or a lift would never end.
    """
    if any(s12 is None and s23 is None for s12, s23, _ in moves):
        raise InvariantError("a lift move consumes no step")
    for heads, found in _head_table(moves).items():
        if len(found) > 1:
            raise InvariantError(f"two lifts from heads {heads} can share a projection")


_check_moves(_MOVES)
_HEADS = _head_table(_MOVES)


def lift3(p12: Path, p23: Path, p13: Path) -> Path | None:
    """The unique 3-dimensional path projecting to (p12, p23, p13), or None.

    Walks the three paths at once.  At each step it looks up, in `_HEADS`,
    the head table of `_MOVES` derived at import, the moves that apply at
    the heads of p12, p23 and p13: the move that emits the head of p13, or
    the move that emits nothing.  `_check_moves` guarantees that at most one
    move applies; uniqueness always holds, but two matching moves raise
    InvariantError rather than being assumed away.
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
    # Each path ends in None, its head once it is used up.
    s12, s23, s13 = p12.steps + (None,), p23.steps + (None,), p13.steps + (None,)
    i = j = k = 0
    steps: list[Step] = []
    while s12[i] or s23[j]:
        found = _HEADS[s12[i], s23[j], s13[k]]
        if not found:
            return None
        if len(found) > 1:
            raise InvariantError(f"{len(found)} lift moves match {p12}, {p23}, {p13}")
        (m12, m23, m13), = found
        i += m12 is not None
        j += m23 is not None
        k += m13 is not None
        (a, b), (b2, c) = m12 or (0, 0), m23 or (0, 0)
        steps.append((a, b | b2, c))
    return None if s13[k] else _trusted_path(3, tuple(steps))


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
    return ["".join(w) for w in itertools.product(WEIGHT_LETTERS, repeat=length)]


def weights_up_to(length: int) -> list[str]:
    """All weight words of length <= the bound, shortest first."""
    out: list[str] = []
    for n in range(length + 1):
        out.extend(all_weights(n))
    return out
