"""The path category: hom spaces spanned by Delannoy paths, signed composition.

A basis path p with target (n, m) stands for the kernel A_p, the indicator of
the set O_p of tuple pairs (x, y) in R^(n) x R^(m) whose merged scan spells p.
Throughout, the FIRST path axis is the output side: A_p(x_out, y_in), rows
first, and a kernel acts by (A f)(x) = integral of A(x, y) f(y) over y.

Composition of basis paths is the signed rule

    [p1] o [p2] = sum over p3 of eps(p1, p2, p3) [p3],

where eps is (-1)^(len(q) + len(p3)) if the unique 3-dimensional path q with
projections p12=p1, p23=p2, p13=p3 exists (axis 1 = output of the first
factor, axis 2 = the shared middle, axis 3 = input of the second), and 0
otherwise.  The same coefficients arise by multiplying the kernels under
Euler-characteristic integration; compose_oracle computes them that way, and
the two routes are checked against each other in the test suite.  That route
reads the meet sign (`euler._meet_sign`) of kernel slices as raw cells, not
as SchwartzFn objects, over the slot layout of the result path or of an
output cell, read off the path's canonical representative.  The cells of a
target, their paths and layouts depend on the target alone, so they are read
from one bounded table (`_cells`).

`compose` works on whole morphisms.  Each operand becomes a suffix graph: a
node is (the coefficient of a path that ends there, or None; its sorted
(step, child) edges), and equal nodes are interned once, so paths that share
a suffix share its nodes.  The row of a node pair (u, v) sums, over every
pair of suffixes below u and v, the signed lifts of the pair, keyed by
projection.  It takes the lift moves of `paths._MOVES`, the table `lift3`
reads through its head table: the move that emits no projection step flips
the sign.  Merging by projection is sound because two lifts of one pair of
paths never share a projection, which `paths._check_moves` verifies on the
table at import.  So each summand is c1 * c2 * eps(p1, p2, p3), and the row
of the two roots is the composition.  Both the graph build and the row
recursion keep their own stacks.  Rows are memoised across calls by node pair, as immutable tuples,
and results by pair of roots and the result's arities (the zero morphisms of
every arity share one root), as the `Morphism` that `compose` built: it is
immutable, so a repeated composition returns that same object.  A memoised
result maps back to the root of its own suffix graph once that is built, so
composing it again does not build its key again.  Past `_ROWS_LIMIT` rows,
nodes or results, both memos and the interning tables are cleared together
at the start of the next call, since the ids in one index the others.

Orientation conventions (fixed here once, verified by the oracle tests):

  * encode_orbit lists the output tuple first, so a lone output point is a
    (1, 0) step;
  * the rank-one projector attached to a weight word sums the 2^n
    quasi-diagonal paths that, in square i, either step diagonally or take
    the two-step turn with the *output* point first for letter 'b' (so its
    kernel is the indicator of { x_i <= y_i }) and the *input* point first
    for letter 'w' ({ y_i <= x_i }), with strict interleaving between squares.

With these choices the projectors are idempotent, mutually orthogonal, have
trace (-1)^n, and agree with the kernels extending the one-sided key
indicators; flipping either convention breaks those tests.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import attrgetter, mul

from .errors import InvariantError
from .euler import (
    SchwartzFn,
    Signature,
    _common_spans,
    _key_slots,
    _meet_sign,
    _pairings,
    indicator_of_cell,
    iter_signatures,
)
from .linear import Combination, _arity, frac_str, json_field, json_int, parse_frac
from .paths import (
    Path,
    Step,
    _MOVES,
    _trusted_path,
    canonical_representative,
    check_weight,
    lift3,
)


def epsilon(p1: Path, p2: Path, p3: Path) -> int:
    """Structure constant of composition: signed by the unique lift, if any."""
    q = lift3(p1, p2, p3)
    if q is None:
        return 0
    return -1 if (len(q) + len(p3)) % 2 else 1


# Node pairs the row memo of `compose` keeps between calls.  A path-compose
# benchmark round fills about 5 700, `export --table composition --n 4 --m 3`
# 58 500.  Past this bound (or as many nodes or results), every table of the
# engine is cleared at the start of the next call, not entry by entry as
# `kring._Memo` does: the ids index one another, and `row` reads child rows
# mid-call.  The result memo holds one `Morphism` per pair of roots and
# arities composed; the zero morphisms of every arity share one root, so it
# can hold more entries than the rows.  Twice this bound adds about 50 MiB to
# the peak of `delannoy verify all`.
_ROWS_LIMIT = 1 << 16


class _Engine:
    """Interned suffix graphs, interned projection suffixes, the row memo and
    the result memo.

    A node is a suffix graph's state: (the coefficient of a path that ends
    there, or None; {step: child node}).  A suffix is an id: 0 is the empty
    suffix, any other id stands for (first step, id of the rest).  A row maps
    suffix ids to coefficients, as an immutable tuple of pairs.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()  # the tables are shared by every caller
        self.clear()

    def clear(self) -> None:
        self.node_ids: dict = {}        # (end, ((step, child), ...)) -> node id
        self.nodes: list = []           # node id -> (end, {step: child})
        self.roots: dict = {}           # frozenset of a morphism's (steps, coeff) -> its root
        self.extend = {s13: {} for _, _, s13 in _MOVES if s13}  # step -> {suffix: step + suffix}
        self.suffixes: list = [None]    # suffix id -> (step, id of the rest)
        self.paths: dict = {}           # suffix id -> its decoded Path
        self.rows: dict = {}            # (node id, node id) -> ((suffix id, coeff), ...)
        self.results: dict = {}         # (root, root, out arity, in arity) -> their composition
        self.owners: dict = {}          # id of a Morphism in results -> its own root, once built

    def node(self, end, edges: list) -> int:
        key = (end, tuple(edges))
        u = self.node_ids.get(key)
        if u is None:
            u = self.node_ids[key] = len(self.nodes)
            self.nodes.append((end, dict(edges)))
        return u

    def graph(self, f: "Morphism") -> int:
        """The root of f's suffix graph: its paths, merged where suffixes agree.

        A memoised result finds its root by its identity, which `results`
        keeps alive, once its key has been built.
        """
        owner = id(f)
        root = self.owners.get(owner)
        if root is None:
            # every path of f has dimension 2, so its steps stand for it, hashed as a tuple
            key = frozenset(zip(map(_STEPS, f.coeffs), f.coeffs.values()))
            root = self.roots.get(key)
            if root is None:
                root = self.roots[key] = self._build(key)
            if owner in self.owners:
                self.owners[owner] = root
        return root

    def _build(self, terms) -> int:
        """Intern the suffix graph of (steps, coeff) terms, and return its root.

        Paths go in sorted order, so a node is complete, and is interned,
        once a path leaves the prefix that leads to it.
        """
        edges: list[list] = [[]]  # edges so far of each node along the last path
        ends: list = [None]
        last: tuple = ()

        def close(depth: int) -> None:
            while len(edges) > depth + 1:
                child = self.node(ends.pop(), edges.pop())
                edges[-1].append((last[len(edges) - 1], child))

        for steps, c in sorted(terms):
            k = 0
            while k < len(last) and k < len(steps) and last[k] == steps[k]:
                k += 1
            close(k)
            for _ in steps[k:]:
                edges.append([])
                ends.append(None)
            ends[-1] = c
            last = steps
        close(0)
        return self.node(ends[0], edges[0])

    def row(self, root: tuple[int, int]) -> tuple:
        """The row of a node pair: each projection suffix with its summed coefficient.

        Post-order over node pairs on an explicit stack, so long paths do not
        run into the recursion limit.
        """
        rows, nodes, extend, suffixes = self.rows, self.nodes, self.extend, self.suffixes
        waiting: dict = {}  # pair -> its moves, once found
        stack = [root]
        while stack:
            pair = stack[-1]
            if pair in rows:
                stack.pop()
                continue
            moves = waiting.get(pair)
            if moves is None:
                u, v = pair
                out12, out23 = nodes[u][1], nodes[v][1]
                moves = []
                for s12, s23, s13 in _MOVES:
                    u2 = u if s12 is None else out12.get(s12)
                    v2 = v if s23 is None else out23.get(s23)
                    if u2 is not None and v2 is not None:
                        moves.append(((u2, v2), s13))
            missing = [child for child, _ in moves if child not in rows]
            if missing:
                waiting[pair] = moves
                stack += missing
                continue
            stack.pop()
            acc: dict[int, int | Fraction] = {}
            end12, end23 = nodes[pair[0]][0], nodes[pair[1]][0]
            if end12 is not None and end23 is not None:
                acc[0] = end12 * end23
            for child, s13 in moves:
                if s13 is None:  # the one move with no projection step flips the sign
                    for s, c in rows[child]:
                        acc[s] = acc.get(s, 0) - c
                    continue
                ext = extend[s13]
                for s, c in rows[child]:
                    t = ext.get(s)
                    if t is None:
                        t = ext[s] = len(suffixes)
                        suffixes.append((s13, s))
                    acc[t] = acc.get(t, 0) + c
            rows[pair] = tuple((s, c) for s, c in acc.items() if c)
        return rows[root]

    def path(self, s: int) -> Path:
        """The path a suffix id stands for, decoded once."""
        p = self.paths.get(s)
        if p is None:
            steps = []
            t = s
            while t:
                step, t = self.suffixes[t]
                steps.append(step)
            p = self.paths[s] = _trusted_path(2, tuple(steps))
        return p


_ENGINE = _Engine()
_STEPS = attrgetter("steps")


@lru_cache(maxsize=None)
def _compose_basis(p1: Path, p2: Path) -> tuple[tuple[Path, int], ...]:
    """Row of structure constants for a pair of basis paths, as (p3, sign) pairs."""
    return tuple(compose(Morphism.basis(p1), Morphism.basis(p2)).terms())


class Morphism(Combination):
    """A formal rational combination of paths with a common target (n, m)."""

    __slots__ = ("out_arity", "in_arity")

    def __init__(self, out_arity: int, in_arity: int, coeffs: dict[Path, Fraction]):
        object.__setattr__(self, "out_arity", _arity(out_arity))
        object.__setattr__(self, "in_arity", _arity(in_arity))
        super().__init__(coeffs)

    def _check_key(self, p: Path) -> Path:
        if p.dim != 2 or p.target != (self.out_arity, self.in_arity):
            raise ValueError(f"path {p} does not lie in hom({self.in_arity} -> {self.out_arity})")
        return p

    @staticmethod
    def _sort_key(p: Path):
        return p.steps

    def _space(self) -> tuple:
        return (self.out_arity, self.in_arity)

    @classmethod
    def zero(cls, out_arity: int, in_arity: int) -> "Morphism":
        return cls(out_arity, in_arity, {})

    @classmethod
    def basis(cls, p: Path, coeff: int | Fraction = 1) -> "Morphism":
        n, m = p.target
        return cls(n, m, {p: coeff})

    def __matmul__(self, other: "Morphism") -> "Morphism":
        return compose(self, other)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{p!r}" for p, c in self.terms()) or "0"
        return f"Morphism({self.out_arity}<-{self.in_arity}: {terms})"

    def to_json(self) -> dict:
        terms = [{"path": p.to_json(), "coeff": frac_str(c)} for p, c in self.terms()]
        return {"n": self.out_arity, "m": self.in_arity, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Morphism":
        return cls(
            json_field(data, "n", json_int),
            json_field(data, "m", json_int),
            {json_field(t, "path", Path.from_json): json_field(t, "coeff", parse_frac)
             for t in json_field(data, "terms", list)},
        )


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Bilinear extension of the signed basis rule, over the operands' suffix graphs."""
    if f.in_arity != g.out_arity:
        raise ValueError(
            f"cannot compose {f.out_arity}<-{f.in_arity} with {g.out_arity}<-{g.in_arity}"
        )
    engine = _ENGINE
    with engine.lock:
        if max(len(engine.rows), len(engine.nodes), len(engine.results)) > _ROWS_LIMIT:
            engine.clear()
        pair = (engine.graph(f), engine.graph(g))
        key = (*pair, f.out_arity, g.in_arity)
        result = engine.results.get(key)
        if result is None:
            result = engine.results[key] = Morphism._trusted(
                f.out_arity, g.in_arity, {engine.path(s): c for s, c in engine.row(pair)})
            engine.owners[id(result)] = None
        return result


def identity(n: int) -> Morphism:
    """The all-diagonal path: the indicator of the diagonal as a kernel."""
    n = _arity(n)
    return Morphism._trusted(n, n, {_trusted_path(2, ((1, 1),) * n): 1})


def _slice_signature(p: Path, axis: int) -> Signature:
    """Cell signature of the slice of O_p at a fixed tuple on one axis.

    Walking the path, a lone step on the fixed axis pins the next breakpoint,
    a lone step on the free axis puts a coordinate in the current gap, and a
    diagonal step puts a coordinate on the current breakpoint.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 (output side) or 2 (input side)")
    fixed, free = axis - 1, 2 - axis
    gap = 0  # the slot of the current gap: twice the breakpoints pinned so far
    sig: list[int] = []
    for s in p.steps:
        if s[free]:
            sig.append(gap + s[fixed])
        gap += 2 * s[fixed]
    return tuple(sig)


def slice_kernel(p: Path, fixed: Sequence[Fraction], axis: int) -> SchwartzFn:
    """The kernel of p restricted to a fixed tuple on one axis.

    For axis=1 this is the function y -> A_p(fixed, y); for axis=2 it is
    x -> A_p(x, fixed).  The result is the indicator of a single cell over
    the fixed tuple as breakpoints.
    """
    sig = _slice_signature(p, axis)
    expected = p.target[axis - 1]
    if len(fixed) != expected:
        raise ValueError(f"fixed tuple has length {len(fixed)}, axis target is {expected}")
    return indicator_of_cell(len(sig), fixed, sig)


def _cell_to_path(sig: Signature, num_breakpoints: int) -> Path:
    """The path spelled by merging a cell's coordinates with the breakpoints.

    Inverse of _slice_signature with the free coordinates on axis 1: cells of
    arity n over m breakpoints correspond bijectively to paths with target
    (n, m).
    """
    steps: list[Step] = []
    for slot in range(2 * num_breakpoints + 1):
        if slot % 2:  # a breakpoint, shared with a coordinate or alone
            steps.append((1, 1) if slot in sig else (0, 1))
        else:  # the coordinates in a gap
            steps += [(1, 0)] * sig.count(slot)
    return _trusted_path(2, tuple(steps))


def _layout(p: Path) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The slot spans of p's axis-0 points and of its axis-1 points over the
    canonical representative of O_p."""
    return tuple(map(tuple, _common_spans(*canonical_representative(p))))


# Targets whose cell table `_cells` keeps.  A table holds D(n, m) cells: one of
# D(5, 5) = 1 683 cells takes about 0.9 MiB, and D(6, 6) = 8 989 about 5.4 MiB.
# A round of the euler-oracle benchmark reads 6 to 10 targets of at most
# D(4, 3) = 129 cells; `verify all` reads 25 targets of up to D(5, 4) = 681.
_CELLS_LIMIT = 64


@lru_cache(maxsize=_CELLS_LIMIT, typed=True)  # typed, so that 2.0 misses 2 and is refused
def _cells(n: int, m: int) -> tuple[tuple, ...]:
    """The cells of arity n over m breakpoints in `iter_signatures` order, each
    as (signature, its path to (n, m), the path's two `_layout` spans).

    Everything the Euler route reads about a target's cells depends on the
    target alone, so it is built once here and shared, immutable, by every call.
    """
    out = []
    spans: dict = {}  # each (lo, hi) span once, so that the table holds no copies
    for sig in iter_signatures(n, m):
        p = _cell_to_path(sig, m)
        out.append((sig, p, *(tuple(map(spans.setdefault, side, side)) for side in _layout(p))))
    return tuple(out)


def compose_oracle(p1: Path, p2: Path) -> Morphism:
    """Composition computed by integration instead of the combinatorial rule.

    The product kernel is constant on each orbit, so its coefficient on a
    basis path p3 is read off at the canonical representative (z, x) of O_p3:
    the meet sign of the slice y -> A_p1(z, y) and the slice y -> A_p2(y, x),
    each one cell over the layout of p3, read from the cell table of (n, l).
    """
    n, m1 = p1.target
    m2, l = p2.target
    if m1 != m2:
        raise ValueError(f"inner targets differ: {p1.target} vs {p2.target}")
    sig1, sig2 = _slice_signature(p1, 1), _slice_signature(p2, 2)
    coeffs: dict[Path, int | Fraction] = {}
    for _, p3, spans_z, spans_x in _cells(n, l):
        c = _meet_sign(spans_z, sig1, spans_x, sig2)
        if c:  # only nonzero ints, so that `_trusted` adopts the dict
            coeffs[p3] = c
    return Morphism._trusted(n, l, coeffs)


def apply_kernel(f: Morphism, phi: SchwartzFn) -> SchwartzFn:
    """Act on a function: (A phi)(x) = integral of A(x, y) phi(y) over y.

    The result is constant on cells over phi's breakpoints, since only the
    order of x among them matters: the cell's path.  Each output cell pairs
    every slice y -> A_p(x, y) with phi once, through its layout in the table.
    """
    if f.in_arity != phi.arity:
        raise ValueError(f"kernel expects arity {f.in_arity}, function has {phi.arity}")
    cells = _cells(f.out_arity, len(phi.breakpoints))
    layouts = ((spans_x, spans_phi) for _, _, spans_x, spans_phi in cells)
    pairings = _pairings(layouts, [_slice_signature(p, 1) for p in f.coeffs], phi.coeffs)
    coeffs: dict[Signature, int | Fraction] = {}
    for (sig, *_), values in zip(cells, pairings):
        val = sum(map(mul, f.coeffs.values(), values))
        if val:
            coeffs[sig] = val
    return SchwartzFn._trusted(f.out_arity, phi.breakpoints, coeffs)


def projector(word: str) -> Morphism:
    """The rank-one idempotent attached to a weight word, in hom(n -> n).

    Sum of the 2^n quasi-diagonal paths choosing, in each diagonal square,
    either the diagonal step or the turn on the side selected by the letter
    (see the module docstring for the orientation convention).
    """
    check_weight(word)
    paths = [()]
    for letter in word:
        turn = ((1, 0), (0, 1)) if letter == "b" else ((0, 1), (1, 0))
        paths = [p + choice for p in paths for choice in (((1, 1),), turn)]
    n = len(word)
    return Morphism._trusted(n, n, {_trusted_path(2, steps): 1 for steps in paths})


def trace(f: Morphism) -> int | Fraction:
    """Categorical trace: integrate the kernel on the diagonal.

    The diagonal meets O_p only for the all-diagonal path, and the diagonal
    copy of R^(n) has volume (-1)^n.
    """
    if f.out_arity != f.in_arity:
        raise ValueError("trace requires a square morphism")
    n = f.out_arity
    diag = _trusted_path(2, ((1, 1),) * n)
    sign = -1 if n % 2 else 1
    return sign * f.coeffs.get(diag, 0)


def invariant_extension(x: SchwartzFn) -> Morphism:
    """The unique invariant kernel whose column at x's breakpoints equals x.

    Cells of arity n over m breakpoints correspond to paths with target
    (n, m); the coefficient of each path is x's value on its cell.
    """
    m = len(x.breakpoints)
    return Morphism._trusted(x.arity, m, {_cell_to_path(sig, m): c for sig, c in x.coeffs.items()})


def _key_rows(word: str, cells: Sequence[tuple]) -> list[dict[int, int]]:
    """The matrix of x -> apply_kernel(invariant_extension(x), psi) on the
    cells of arity m over n = len(word) breakpoints (entries of `_cells`), psi
    = key_indicator(word, (1, ..., n)), as one {column: value} row per cell.

    The entry of cell x and column p pairs the slice y -> A_p(x, y) with psi.
    psi is 1 on the cells that pick one of two slots per letter, a product
    over coordinates, so that pairing is the product over coordinates i of
    the sum of the meet signs of the slice's slot i with letter i's two
    slots.  Per cell, each coordinate's nonzero factors are found once, and
    only the columns made of them are visited.
    """
    column = {_slice_signature(p, 1): j for j, (_, p, _, _) in enumerate(cells)}
    letters = _key_slots(word)
    rows = []
    for _, _, spans_x, spans_psi in cells:
        factors = []
        for a, b in letters:  # a < b: a slot outside [lo, hi] meets neither
            lo, hi = spans_psi[a][0], spans_psi[b][1]
            factors.append([(s, v) for s, span in enumerate(spans_x)
                            if span[0] <= hi and lo <= span[1]
                            and (v := _meet_sign(spans_x, (s,), spans_psi, (a,))
                                 + _meet_sign(spans_x, (s,), spans_psi, (b,)))])
        row = {}
        for combo in product(*factors):
            j = column.get(tuple(s for s, _ in combo))
            if j is not None:
                row[j] = prod(v for _, v in combo)
        rows.append(row)
    return rows


@lru_cache(maxsize=None, typed=True)  # so that 2.0 misses the entry of 2, and is refused
def multiplicity_rank(word: str, m: int) -> int:
    """Multiplicity of the simple of a weight word inside arity-m functions.

    Realized as the rank of the idempotent e(x) = apply_kernel(
    invariant_extension(x), key_indicator(word, a)) acting on the span of the
    cells of arity m over n = len(word) breakpoints, read as sparse rows
    (`_key_rows`).  Idempotency is checked by squaring the sparse matrix; the
    rank of an idempotent is its trace, which must come out integral.
    """
    check_weight(word)
    rows = _key_rows(word, _cells(m, len(word)))
    for i, row in enumerate(rows):
        square: dict[int, int] = {}
        for k, a in row.items():
            for j, b in rows[k].items():
                square[j] = square.get(j, 0) + a * b
        if {j: c for j, c in square.items() if c} != row:
            raise InvariantError(
                f"operator for {word!r} at arity {m} is not idempotent (row {i})")
    rank = sum(row.get(i, 0) for i, row in enumerate(rows))
    if rank.denominator != 1:
        raise InvariantError(f"idempotent for {word!r} at arity {m} has trace {rank}")
    return rank
