"""The benchmark's workloads: seeded inputs, the calls into the program, and
the checks of its outputs.

An operation is a `(kind, args)` pair of plain data. `make_ops` builds a
workload's operations from a seed without touching the program; `run` makes
one operation's calls into `delannoy`; `plain` copies a result into plain
data (it never mutates what the program returned); `check` compares that
copy with `reference` and with the properties the method must have, and
returns a list of problems (empty when the output is right).

Module attributes such as `kring.tensor_mul` are looked up at call time, so
the wrappers that `tracing` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb

from delannoy import category, cli, euler, kring, paths

import reference as ref

CLI_KINDS = ("cli", "cli_usage_error")
LETTERS = "bw"


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(n))


def _distinct_words(rng: random.Random, n: int, k: int) -> list[str]:
    words: list[str] = []
    while len(words) < min(k, 2**n):
        w = _word(rng, n)
        if w not in words:
            words.append(w)
    return words


def _path(rng: random.Random, n: int, m: int) -> tuple:
    """A random 2-D Delannoy path with target (n, m)."""
    steps = []
    while n or m:
        choices = [s for s in ((1, 0), (0, 1), (1, 1)) if s[0] <= n and s[1] <= m]
        s = rng.choice(choices)
        steps.append(s)
        n, m = n - s[0], m - s[1]
    return tuple(steps)


def _morphism_spec(rng: random.Random, n: int, m: int, terms: int = 3) -> tuple:
    chosen: dict = {}
    for _ in range(50):
        if len(chosen) == min(terms, ref.delannoy_2d(n, m)):
            break
        chosen.setdefault(_path(rng, n, m), rng.choice((-3, -2, -1, 1, 2, 3)))
    return (n, m, tuple(sorted(chosen.items())))


def _points(rng: random.Random, k: int, exclude=()) -> tuple:
    pool = [Fraction(i, 2) for i in range(-12, 13) if Fraction(i, 2) not in exclude]
    return tuple(sorted(rng.sample(pool, k)))


def _function_spec(rng: random.Random, arity: int, num_breakpoints: int, cells: int) -> tuple:
    bp = _points(rng, num_breakpoints)
    sigs = list(ref.signatures(arity, num_breakpoints))
    chosen = rng.sample(sigs, min(cells, len(sigs)))
    return (arity, bp, tuple((s, rng.choice((-3, -2, -1, 1, 2, 3))) for s in sorted(chosen)))


def _small_class(rng: random.Random) -> tuple:
    words = rng.sample(["", "b", "w", "bb", "bw", "wb", "ww"], rng.choice((2, 3)))
    return tuple((w, rng.choice((-2, -1, 1, 2))) for w in sorted(words))


# -- generators ---------------------------------------------------------------

# Word-length pairs for products of distinct words; each appears five times.
WORD_PAIR_LENGTHS = ((3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
                     (4, 4), (4, 5), (4, 6), (4, 7), (5, 5), (5, 6))
# schwartz_class(n) * schwartz_class(m); (3, 4) and (4, 4) take 0.35 s and
# 1.3 s, too much of a pass for one operation.
OBJECT_PAIRS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3))
PARTITIONS = ((2,), (1, 1), (2, 1), (3,))


def ring_products(rng: random.Random) -> list:
    ops = []
    for a, b in WORD_PAIR_LENGTHS * 5:
        u = _word(rng, a)
        v = _word(rng, b)
        while v == u:
            v = _word(rng, b)
        ops.append(("word_mul", (u, v)))
    ops += [("object_mul", nm) for nm in OBJECT_PAIRS]
    ops += [("antipode", (_word(rng, n),)) for n in (3, 4, 5, 6, 7) * 4]
    for i in (2, 3) * 3:
        ops.append(("binomial", (_small_class(rng), i)))
        ops.append(("adams", (_small_class(rng), i)))
    ops += [("schur", (parts, _small_class(rng))) for parts in PARTITIONS * 4]
    return ops


# (out, middle, middle, in) arities of the three factors of a chain.
CHAIN_SHAPES = ((1, 2, 1, 2), (2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2),
                (3, 3, 3, 3), (2, 4, 2, 3), (3, 3, 4, 2), (4, 3, 3, 4))


def path_compose(rng: random.Random) -> list:
    ops = []
    # Chains are the largest group, so that op_p50_ms falls among them rather
    # than on the gap between them and the sub-millisecond enumerations.
    for a, b, c, d in CHAIN_SHAPES * 8:
        chain = (_morphism_spec(rng, a, b), _morphism_spec(rng, b, c), _morphism_spec(rng, c, d))
        ops.append(("chain", chain))
    for a, b, c in ((2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 4, 3)) * 4:
        p1, p2 = _path(rng, a, b), _path(rng, b, c)
        candidates = set(ref.compose_basis(p1, p2)) | {_path(rng, a, c) for _ in range(4)}
        ops.append(("epsilon", (p1, p2, tuple(sorted(candidates)))))
    # Projector products of fixed words, so that every seed fills the compose
    # cache with the same basis pairs and peak memory does not depend on the
    # seed: the four products of `bwwb` and its letter swap, and the squares
    # of eight words of length 5, which with the largest enumerations make
    # the slowest tenth of the pass, so that op_p90_ms falls among them
    # rather than on the gap below them. A product of length-5 projectors of
    # different words takes 0.3-0.5 s and one of length 6 or 7 0.6-17 s: too
    # big for one operation.
    swap = str.maketrans("bw", "wb")
    u, v = "bwwb", "bwwb".translate(swap)
    ops += [("projector_product", pair) for pair in ((u, u), (u, v), (v, u), (v, v))]
    for w in ("bbwbw", "bwwbb", "bwbbw", "bbwwb"):
        ops += [("projector_product", (w, w)), ("projector_product", (w.translate(swap),) * 2)]
    ops += [("enumerate", ((n, m),)) for n in range(7) for m in range(7)]
    ops += [("enumerate", ((a, b, c),))
            for a in range(1, 4) for b in range(a, 4) for c in range(b, 4)]
    return ops


# (n, m, l): compose_oracle of a path to (n, m) with a path to (m, l).
ORACLE_SHAPES = ((2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3),
                 (2, 3, 3), (3, 3, 2), (3, 4, 3), (4, 3, 3))


def euler_oracle(rng: random.Random) -> list:
    ops = []
    for n, m, l in ORACLE_SHAPES * 5:
        ops.append(("oracle", (_path(rng, n, m), _path(rng, m, l))))
    # A 2-letter word at m = 4 takes 0.7 s and a 3-letter word at m = 3
    # about 3 s: too big for one operation.
    ops += [("multiplicity", (w, m)) for w in "bw" for m in (1, 2, 3, 4)]
    ops += [("multiplicity", (w, m)) for w in _distinct_words(rng, 2, 2) for m in (1, 2, 3)]
    for n in (1, 1, 1, 1, 2, 2, 2, 2, 2, 3):
        ops.append(("apply_kernel", (_word(rng, n), _points(rng, n))))
    for _ in range(15):
        f = _function_spec(rng, 4, 3, 16)
        ops.append(("refine", (f, tuple(sorted(f[1] + _points(rng, 4, f[1]))))))
        ops.append(("pair", (_function_spec(rng, 4, 3, 16), _function_spec(rng, 4, 3, 16))))
        order = [0, 1, 2, 3]
        rng.shuffle(order)
        ops.append(("pushforward", (_function_spec(rng, 4, 3, 24), tuple(order))))
    return ops


def _json_path(steps: tuple) -> str:
    return json.dumps([list(s) for s in steps], separators=(",", ":"))


def cli_session(rng: random.Random) -> list:
    def cmd(*argv):
        return ("cli", tuple(str(a) for a in argv) + ("--format", "json"))

    ops = []
    ops += [cmd("count", "--n", rng.randint(0, 8), "--m", rng.randint(0, 8)) for _ in range(8)]
    ops += [cmd("paths", "--n", rng.randint(0, 3), "--m", rng.randint(0, 3)) for _ in range(6)]
    for i in range(10):
        n, m, l = (rng.randint(1, 3) for _ in range(3))
        extra = ("--oracle",) if i % 2 else ()
        ops.append(cmd("compose", "--p1", _json_path(_path(rng, n, m)),
                       "--p2", _json_path(_path(rng, m, l)), *extra))
    ops += [cmd("projector", "--word", _word(rng, rng.randint(1, 3))) for _ in range(6)]
    ops += [cmd("trace", "--word", _word(rng, rng.randint(1, 4))) for _ in range(4)]
    for _ in range(4):
        n = rng.randint(1, 3)
        n_, m_, terms = _morphism_spec(rng, n, n)
        data = {"n": n_, "m": m_, "terms": [
            {"path": {"d": 2, "steps": [list(s) for s in p]}, "coeff": f"{c}/1"} for p, c in terms]}
        ops.append(cmd("trace", "--morphism", json.dumps(data, separators=(",", ":"))))
    ops += [cmd("ring", "mul", "--x", _word(rng, rng.randint(1, 4)),
                "--y", _word(rng, rng.randint(1, 4))) for _ in range(10)]
    ops += [cmd("ring", "res", "--word", _word(rng, rng.randint(0, 5))) for _ in range(6)]
    ops += [cmd("ring", "ind", "--x", _word(rng, rng.randint(0, 3)),
                "--y", _word(rng, rng.randint(0, 3))) for _ in range(6)]
    ops += [cmd("ring", "antipode", "--word", _word(rng, rng.randint(1, 4))) for _ in range(6)]
    ops += [cmd("ring", "adams", "--word", _word(rng, rng.randint(1, 3)),
                "--n", rng.randint(1, 3)) for _ in range(6)]
    ops += [cmd("ring", "schur", "--lambda", ",".join(map(str, rng.choice(PARTITIONS))),
                "--word", _word(rng, rng.randint(0, 2))) for _ in range(6)]
    ops += [cmd("ring", "hilbert", "--word", _word(rng, rng.randint(0, 4)),
                "--n", rng.randint(0, 5)) for _ in range(6)]
    ops += [cmd("decompose", "--n", rng.randint(0, 3)) for _ in range(4)]
    ops += [cmd("export", "--table", "multiplicities", "--n", rng.randint(0, 3)) for _ in range(2)]
    ops += [cmd("export", "--table", "composition", "--n", rng.randint(0, 1),
                "--m", rng.randint(0, 2)) for _ in range(2)]
    # Malformed invocations: each must exit 2 with a message on stderr.
    bad = _word(rng, 2) + "x"
    ops += [("cli_usage_error", argv) for argv in (
        ("ring", "mul", "--x", bad, "--y", "w", "--format", "json"),
        ("projector", "--word", bad, "--format", "json"),
        ("count", "--n", "two", "--m", "1", "--format", "json"),
        ("paths", "--n", "1", "--format", "json"),
        ("trace", "--word", "b", "--morphism", "{}", "--format", "json"),
        ("ring", "adams", "--word", "b", "--n", "0", "--format", "json"),
        ("compose", "--p1", "[[1,1]]", "--p2", "[[1,1],[1,1]]", "--format", "json"),
        ("verify", str(rng.randint(13, 99))),
    )]
    return ops


GENERATORS = {
    "ring-products": ring_products,
    "path-compose": path_compose,
    "euler-oracle": euler_oracle,
    "cli-session": cli_session,
}
WORKLOADS = tuple(GENERATORS)


def make_ops(workload: str, seed: int, round_: int = 0) -> list:
    """The workload's operations for one round of a run with a seed.

    The order of the kinds and sizes is the same for every seed and round, so
    that an operation meets the same kind of cache state whatever the inputs.
    """
    return GENERATORS[workload](random.Random(f"{workload}:{seed}:{round_}"))


# -- calls into the program ------------------------------------------------------


def _kclass(terms) -> "kring.KClass":
    return kring.KClass({w: Fraction(c) for w, c in terms})


def _morphism(spec) -> "category.Morphism":
    n, m, terms = spec
    return category.Morphism(n, m, {paths.Path(2, p): Fraction(c) for p, c in dict(terms).items()})


def _function(spec) -> "euler.SchwartzFn":
    arity, bp, cells = spec
    return euler.SchwartzFn(arity, bp, {s: Fraction(c) for s, c in cells})


def run_cli_in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of `delannoy <argv>` run through `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(op):
    kind, a = op
    if kind == "word_mul":
        return kring.tensor_mul(kring.KClass.word(a[0]), kring.KClass.word(a[1]))
    if kind == "object_mul":
        return kring.schwartz_class(a[0]) * kring.schwartz_class(a[1])
    if kind == "antipode":
        return kring.antipode(kring.KClass.word(a[0]))
    if kind == "binomial":
        return kring.lambda_binomial(_kclass(a[0]), a[1])
    if kind == "adams":
        return kring.adams(_kclass(a[0]), a[1])
    if kind == "schur":
        return kring.schur_apply(a[0], _kclass(a[1]))
    if kind == "chain":
        f, g, h = (_morphism(s) for s in a)
        return category.compose(category.compose(f, g), h)
    if kind == "epsilon":
        p1, p2, candidates = (paths.Path(2, a[0]), paths.Path(2, a[1]), a[2])
        return tuple(category.epsilon(p1, p2, paths.Path(2, p3)) for p3 in candidates)
    if kind == "projector_product":
        return category.compose(category.projector(a[0]), category.projector(a[1]))
    if kind == "enumerate":
        return paths.enumerate_paths(a[0])
    if kind == "oracle":
        return category.compose_oracle(paths.Path(2, a[0]), paths.Path(2, a[1]))
    if kind == "multiplicity":
        return category.multiplicity_rank(*a)
    if kind == "apply_kernel":
        w, pts = a
        return category.apply_kernel(category.projector(w), euler.key_indicator(w, pts))
    if kind == "refine":
        return euler.refine(_function(a[0]), a[1])
    if kind == "pair":
        return euler.pair(_function(a[0]), _function(a[1]))
    if kind == "pushforward":
        return euler.integrate_fully(_function(a[0]), a[1])
    if kind in CLI_KINDS:
        return run_cli_in_process(a)
    raise KeyError(kind)


def plain(result):
    """A plain-data copy of a result, read through public attributes only."""
    if isinstance(result, kring.KClass):
        return dict(result.coeffs)
    if isinstance(result, category.Morphism):
        return (result.out_arity, result.in_arity,
                {p.steps: c for p, c in result.coeffs.items()})
    if isinstance(result, euler.SchwartzFn):
        return (result.arity, tuple(result.breakpoints), dict(result.coeffs))
    if isinstance(result, tuple) and result and isinstance(result[0], paths.Path):
        return tuple((p.dim, p.steps) for p in result)
    return result


# -- checks --------------------------------------------------------------------


def _same(label: str, got, want) -> list:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def _integral_coeffs(label: str, x: dict) -> list:
    bad = {w: c for w, c in x.items() if Fraction(c).denominator != 1}
    return [f"{label}: non-integral coefficients {bad!r}"] if bad else []


def _check_word_mul(a, x) -> list:
    u, v = a
    top = {w: c for w, c in x.items() if len(w) == len(u) + len(v)}
    return (_same("product", x, ref.quasi_shuffle(u, v))
            + _same("top degree", top, ref.shuffles(u, v))
            + _same("counit", ref.counit(x), ref.sign(len(u) + len(v))))


def _check_object_mul(a, x) -> list:
    n, m = a
    want = {}
    for j in range(n + m + 1):
        c = ref.object_product_coeff(n, m, j)
        want.update({w: c for w in _all_words(j)} if c else {})
    return _same(f"schwartz_class({n}) * schwartz_class({m})", x, want)


def _all_words(n: int) -> list:
    words = [""]
    for _ in range(n):
        words = [w + c for w in words for c in LETTERS]
    return words


def _check_antipode(a, x) -> list:
    return (_same("antipode", x, ref.antipode({a[0]: 1}))
            + _same("S(S(x))", ref.antipode(x), {a[0]: 1}))


def _check_binomial(a, x) -> list:
    terms, i = a
    cls = dict(terms)
    want = ref.binomial_chain(cls, i)[i]
    return (_integral_coeffs("binomial", x)
            + _same("binomial", x, want)
            + _same("counit of binomial", ref.counit(x),
                    ref.generalized_binomial(ref.counit(cls), i)))


def _check_adams(a, x) -> list:
    return _same("psi^i(x)", x, dict(a[0]))


def _check_schur(a, x) -> list:
    parts, terms = a
    return (_integral_coeffs("schur", x)
            + _same("counit of schur", ref.counit(x),
                    ref.hook_content(parts, ref.counit(dict(terms)))))


def _check_chain(a, got) -> list:
    f, g, h = (dict(s[2]) for s in a)
    want = ref.compose(ref.compose(f, g), h)
    problems = _same("chain", got, (a[0][0], a[2][1], want))
    F, G, H = (_morphism(s) for s in a)
    right = plain(category.compose(F, category.compose(G, H)))
    problems += _same("associativity", right, got)
    n, m = a[0][0], a[0][1]
    problems += _same("left identity", plain(category.compose(category.identity(n), F)), plain(F))
    problems += _same("right identity", plain(category.compose(F, category.identity(m))), plain(F))
    return problems


def _check_epsilon(a, got) -> list:
    p1, p2, candidates = a
    row = ref.compose_basis(p1, p2)
    return _same("structure constants", got, tuple(row.get(p3, 0) for p3 in candidates))


def _check_projector_product(a, got) -> list:
    u, v = a
    n = len(u)
    want = ref.projector(u) if u == v else {}
    problems = _same(f"pi_{u} o pi_{v}", got, (n, n, want))
    if u == v:
        problems += _same("trace(pi)", category.trace(_morphism(got)), ref.sign(n))
    return problems


def _check_enumerate(a, got) -> list:
    target = a[0]
    problems = _same(f"count of paths to {target}", len(got), ref.path_count(target))
    steps = [s for _, s in got]
    if steps != sorted(set(steps)):
        problems.append("paths are not distinct and sorted")
    for dim, s in got:
        sums = tuple(map(sum, zip(*s))) if s else (0,) * len(target)
        if dim != len(target) or sums != target or not all(map(any, s)):
            problems.append(f"bad path {s!r} for target {target}")
            break
    return problems


def _check_oracle(a, got) -> list:
    p1, p2 = a
    return _same("compose_oracle", got, (len([s for s in p1 if s[0]]),
                                         len([s for s in p2 if s[1]]),
                                         ref.compose_basis(p1, p2)))


def _check_multiplicity(a, got) -> list:
    w, m = a
    return _same(f"multiplicity_rank({w!r}, {m})", got, comb(m, len(w)))


def _check_apply_kernel(a, got) -> list:
    w, pts = a
    return _same("apply_kernel(projector, key_indicator)", got,
                 plain(euler.key_indicator(w, pts)))


def _check_refine(a, got) -> list:
    (arity, bp, cells), finer = a
    cells = dict(cells)
    problems = _same("refined breakpoints", got[:2], (arity, finer))
    problems += _same("integral after refining", ref.integral(got[2]), ref.integral(cells))
    for sig, c in got[2].items():
        if c != ref.value_on_fine_cell(cells, bp, finer, sig):
            problems.append(f"refined value on {sig} is {c}")
            break
    return problems


def _check_pair(a, got) -> list:
    f, g = ((s[0], s[1], dict(s[2])) for s in a)
    return _same("pair", got, ref.pair(f, g))


def _check_pushforward(a, got) -> list:
    return _same("iterated pushforward", got, ref.integral(dict(a[0][2])))


def _check_cli_usage_error(argv, got) -> list:
    code, out, err = got
    problems = _same("exit code", code, 2)
    if out or "error" not in err:
        problems.append(f"usage error printed stdout {out!r}, stderr {err!r}")
    return problems


def _terms(data: dict) -> dict:
    return {t["word"]: Fraction(t["coeff"]) for t in data["terms"]}


def _path_terms(data: dict) -> dict:
    return {tuple(map(tuple, t["path"]["steps"])): Fraction(t["coeff"]) for t in data["terms"]}


def _check_cli(argv, got) -> list:
    code, out, err = got
    if code != 0 or err:
        return [f"exit code {code}, stderr {err!r}"]
    try:
        data = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    opt = dict(zip(argv[1::1], argv[2::1]))
    cmd = argv[0] if argv[0] != "ring" else "ring " + argv[1]
    n = int(opt["--n"]) if "--n" in opt else None
    m = int(opt["--m"]) if "--m" in opt and argv[0] != "export" else None
    if cmd == "count":
        return _same("count", data, {"count": ref.delannoy_2d(n, m)})
    if cmd == "paths":
        got_paths = tuple((p["d"], tuple(map(tuple, p["steps"]))) for p in data["paths"])
        return (_same("count", data["count"], ref.delannoy_2d(n, m))
                + _check_enumerate(((n, m),), got_paths))
    if cmd == "compose":
        p1, p2 = (tuple(map(tuple, json.loads(opt[k]))) for k in ("--p1", "--p2"))
        return _same("compose", _path_terms(data), ref.compose_basis(p1, p2))
    if cmd == "projector":
        return _same("projector", _path_terms(data), ref.projector(opt["--word"]))
    if cmd == "trace":
        if "--word" in opt:
            want = ref.sign(len(opt["--word"]))
        else:
            spec = json.loads(opt["--morphism"])
            diagonal = ((1, 1),) * spec["n"]
            want = ref.sign(spec["n"]) * _path_terms(spec).get(diagonal, 0)
        return _same("trace", Fraction(data["trace"]), want)
    if cmd == "ring mul":
        return _same("product", _terms(data), ref.quasi_shuffle(opt["--x"], opt["--y"]))
    if cmd == "ring res":
        got_terms = {(t["left"], t["right"]): Fraction(t["coeff"]) for t in data["terms"]}
        return _same("restriction", got_terms, ref.restriction(opt["--word"]))
    if cmd == "ring ind":
        x, y = opt["--x"], opt["--y"]
        return _same("induction", _terms(data), {x + "b" + y: 1, x + "w" + y: 1, x + y: 1})
    if cmd == "ring antipode":
        return _same("antipode", _terms(data), ref.antipode({opt["--word"]: 1}))
    if cmd == "ring adams":
        return _same("psi^n(w)", _terms(data), {opt["--word"]: 1})
    if cmd == "ring schur":
        parts = tuple(int(p) for p in opt["--lambda"].split(","))
        value = _terms(data["value"])
        poly = data["binomial_coefficients"]
        return (_integral_coeffs("schur", value)
                + _same("counit of schur", ref.counit(value),
                        ref.hook_content(parts, ref.sign(len(opt["--word"]))))
                + _same("dimension polynomial",
                        [sum(c * comb(t, i) for i, c in enumerate(poly)) for t in range(len(poly))],
                        [ref.hook_content(parts, t) for t in range(len(poly))]))
    if cmd == "ring hilbert":
        return _same("hilbert", Fraction(data["value"]), comb(n, len(opt["--word"])))
    if cmd in ("decompose", "export"):
        if cmd == "export" and opt["--table"] == "composition":
            return _check_composition_table(n, int(opt["--m"]), data["rows"])
        rows = data["terms"] if cmd == "decompose" else data["rows"]
        want = [(w, comb(n, len(w))) for k in range(n + 1) for w in _all_words(k)]
        problems = _same("multiplicities", sorted((r["word"], r["multiplicity"]) for r in rows),
                         sorted(want))
        if cmd == "decompose":
            problems += _same("length", data["length"], 3**n)
        return problems
    return [f"no check for {argv!r}"]


def _enumerate_2d(n: int, m: int) -> list:
    if n == m == 0:
        return [()]
    out = []
    for s in ((0, 1), (1, 0), (1, 1)):
        if s[0] <= n and s[1] <= m:
            out += [(s,) + rest for rest in _enumerate_2d(n - s[0], m - s[1])]
    return out


def _check_composition_table(n: int, m: int, rows: list) -> list:
    got: dict = {}
    for r in rows:
        key = (r["left"], r["right"])
        got.setdefault(key, {})[tuple(map(tuple, json.loads(r["result"])))] = Fraction(r["coeff"])
    want = {}
    for p1 in _enumerate_2d(n, m):
        for p2 in _enumerate_2d(m, n):
            row = ref.compose_basis(p1, p2)
            if row:
                want[(_json_path(p1), _json_path(p2))] = row
    return _same("composition table", got, want)


CHECKS = {
    "word_mul": _check_word_mul,
    "object_mul": _check_object_mul,
    "antipode": _check_antipode,
    "binomial": _check_binomial,
    "adams": _check_adams,
    "schur": _check_schur,
    "chain": _check_chain,
    "epsilon": _check_epsilon,
    "projector_product": _check_projector_product,
    "enumerate": _check_enumerate,
    "oracle": _check_oracle,
    "multiplicity": _check_multiplicity,
    "apply_kernel": _check_apply_kernel,
    "refine": _check_refine,
    "pair": _check_pair,
    "pushforward": _check_pushforward,
    "cli": _check_cli,
    "cli_usage_error": _check_cli_usage_error,
}


def check(op, got) -> list:
    """Problems with `got`, the plain copy of op's output (empty when right)."""
    kind, args = op
    try:
        return CHECKS[kind](args, got)
    except Exception as exc:  # a malformed output must read as a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]
