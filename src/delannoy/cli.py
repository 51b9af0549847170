"""Command-line front end: enumeration, composition, ring arithmetic, tables,
and the verification suites.

Exit status: 0 on success, 1 when a verification suite fails, 2 on usage
errors.  Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import lru_cache

from . import category, kring
from .category import Morphism
from .kring import KClass, KTensorClass
from .linear import frac_str
from .paths import Path, delannoy_number, enumerate_paths, weights_up_to

FORMATS = ("json", "csv", "pretty")

# The most paths `delannoy paths` lists, and the most basis paths a `compose`
# result may have.  D(n, m) grows about sixfold with each step of n = m: D(7, 7)
# = 48 639 paths take seconds and about 120 MiB, D(8, 8) = 265 729 about 600 MiB.
PATHS_LIMIT = 100_000

# The most basis pairs `export --table composition` composes: D(n, m) * D(m, n)
# pairs, every row held until the table is printed.  n = 3, m = 4 is 16 641
# pairs (about 1.1 s of CPU and 70 MiB as JSON), n = 4, m = 3 as many pairs
# with longer products (about 2.5 s and 180 MiB); n = m = 4 is 103 041 pairs
# (about 11 s and 540 MiB).  At n = 4, m = 3 composing takes about two thirds
# of the time.
COMPOSITION_PAIRS_LIMIT = 20_000

# The longest word `projector --word` and `trace --word` take.  The projector
# sums 2^letters paths, so both double in cost with every letter (CPU on a 2-vCPU
# VM, Python 3.11): at 14 letters `projector --format json` takes about 0.9 s
# and 70 MiB for 3.5 MB of output, at 16 about 3.7 s and 240 MiB for 16 MB;
# `trace` took 0.3 s at 16 letters and 18.8 s at 22.
PROJECTOR_WORD_LIMIT = 14

# The largest degree `ring adams` and `ring schur` take: max(letters, 1) times
# the Adams index or |lambda|, the length of the longest words in the binomial
# chain they build.  At 16, on the same machine, adams bwwb --n 4 takes about
# 1.2 s and 90 MiB and schur --lambda 2,2 bwbw about 1 s and 90 MiB; adams
# bwbw --n 8 (degree 32) ran past 40 s, and schur --lambda 2,2 bwbwb (20) took
# 106 s and 1.77 GiB.  `ring antipode` takes words of this many letters.
RING_DEGREE_LIMIT = 16


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _path_cell(p: Path) -> str:
    return json.dumps([list(s) for s in p.steps], separators=(",", ":"))


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # Python 3.11 (and 3.10.7) caps the digits of an int it converts
        raise ValueError(f"the count has more digits than the {sys.get_int_max_str_digits()} "
                         "that Python converts to text") from None


def _check_size(size: int, limit: int, subject: str, taker: str) -> None:
    if size > limit:  # `{}` in the subject stands for the size
        raise ValueError(f"{subject.format(_int_text(size))}, more than the {limit} that {taker}")


def _kclass_rows(x: KClass) -> list[list[str]]:
    return [[w, frac_str(c)] for w, c in x.terms()]


def _emit(args, payload, csv_table, pretty_lines) -> None:
    """Print the requested format; each argument is a function that builds one format."""
    if args.format == "json":
        print(json.dumps(payload()))
    elif args.format == "csv":
        print(_csv_text(*csv_table()))
    else:
        for line in pretty_lines():
            print(line)


def _morphism_output(args, m: Morphism) -> None:
    def rows():
        return [[_path_cell(p), frac_str(c)] for p, c in m.terms()]

    _emit(
        args,
        m.to_json,
        lambda: (["path", "coeff"], rows()),
        lambda: [f"hom({m.in_arity} -> {m.out_arity}), {len(m.coeffs)} terms:"]
        + [f"  {coeff}  {steps}" for steps, coeff in rows()],
    )


def cmd_count(args) -> int:
    value = delannoy_number(args.n, args.m)
    text = _int_text(value)
    _emit(
        args,
        lambda: {"count": value},
        lambda: (["n", "m", "count"], [[args.n, args.m, text]]),
        lambda: [f"D({args.n}, {args.m}) = {text}"],
    )
    return 0


def cmd_paths(args) -> int:
    if min(args.n, args.m) >= 0:  # enumerate_paths reports a negative target
        count = delannoy_number(args.n, args.m)
        _check_size(count, PATHS_LIMIT, f"there are {{}} paths to ({args.n}, {args.m})",
                    "'paths' lists; 'count' gives the number alone")
    paths = enumerate_paths((args.n, args.m))
    _emit(
        args,
        lambda: {"target": [args.n, args.m], "count": len(paths),
                 "paths": [p.to_json() for p in paths]},
        lambda: (["index", "path", "length"],
                 [[i, _path_cell(p), len(p)] for i, p in enumerate(paths)]),
        lambda: [f"{len(paths)} paths to ({args.n}, {args.m}):"]
        + [f"  {_path_cell(p)}" for p in paths],
    )
    return 0


def _parse_path(text: str) -> Path:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses per bracket
        raise ValueError(f"invalid path JSON: {exc}")
    if isinstance(data, list):
        data = {"d": 2, "steps": data}
    return Path.from_json(data)


def cmd_compose(args) -> int:
    p1, p2 = _parse_path(args.p1), _parse_path(args.p2)
    if p1.dim == 2 == p2.dim and p1.target[1] == p2.target[0]:  # else the engine refuses them
        count = delannoy_number(p1.target[0], p2.target[1])
        _check_size(count, PATHS_LIMIT, "the result has {} basis paths", "'compose' takes")
    if args.oracle:
        result = category.compose_oracle(p1, p2)
    else:
        result = Morphism.basis(p1) @ Morphism.basis(p2)
    _morphism_output(args, result)
    return 0


def _check_word_length(word: str, limit: int, command: str) -> None:
    _check_size(len(word), limit, "the word has {} letters", f"'{command}' takes")


def cmd_projector(args) -> int:
    _check_word_length(args.word, PROJECTOR_WORD_LIMIT, "projector")
    _morphism_output(args, category.projector(args.word))
    return 0


def cmd_trace(args) -> int:
    if args.morphism is not None:
        try:
            m = Morphism.loads(args.morphism)
        except RecursionError as exc:  # brackets nested past the decoder's recursion limit
            raise ValueError(f"invalid morphism JSON: {exc}") from None
    else:
        _check_word_length(args.word, PROJECTOR_WORD_LIMIT, "trace --word")
        m = category.projector(args.word)
    value = category.trace(m)
    _emit(
        args,
        lambda: {"trace": frac_str(value)},
        lambda: (["trace"], [[frac_str(value)]]),
        lambda: [f"trace = {value}"],
    )
    return 0


def _emit_kclass(args, x: KClass) -> None:
    _emit(args, x.to_json, lambda: (["word", "coeff"], _kclass_rows(x)), lambda: [repr(x)])


def _emit_ktensor(args, t: KTensorClass) -> None:
    _emit(
        args,
        t.to_json,
        lambda: (["left", "right", "coeff"], [[u, v, frac_str(c)] for (u, v), c in t.terms()]),
        lambda: t.term_texts() or ["0"],
    )


def _check_ring_degree(word: str, factor: int, name: str, op: str) -> None:
    degree = max(len(word), 1) * factor
    _check_size(degree, RING_DEGREE_LIMIT, f"the degree max(letters, 1) * {name} is {{}}",
                f"'ring {op}' takes")


def cmd_ring(args) -> int:
    op = args.ring_op
    if op == "mul":
        _emit_kclass(args, KClass.word(args.x) * KClass.word(args.y))
    elif op == "res":
        _emit_ktensor(args, kring.restrict(KClass.word(args.word)))
    elif op == "ind":
        t = KTensorClass.pure(KClass.word(args.x), KClass.word(args.y))
        _emit_kclass(args, kring.induce(t))
    elif op == "antipode":
        _check_word_length(args.word, RING_DEGREE_LIMIT, "ring antipode")
        _emit_kclass(args, kring.antipode(KClass.word(args.word)))
    elif op == "adams":
        if args.n < 1:
            raise ValueError("--n must be a positive Adams index")
        _check_ring_degree(args.word, args.n, "n", "adams")
        _emit_kclass(args, kring.adams(KClass.word(args.word), args.n))
    elif op == "schur":
        parts = _parse_partition(args.partition)
        _check_ring_degree(args.word, sum(parts), "|lambda|", "schur")
        poly = kring.schur_dimension_poly(parts)
        value = kring.schur_apply(parts, KClass.word(args.word))
        _emit(
            args,
            lambda: {
                "partition": list(parts),
                "binomial_coefficients": list(poly.coeffs),
                "value": value.to_json(),
            },
            lambda: (["word", "coeff"], _kclass_rows(value)),
            lambda: [
                f"dimension polynomial (binomial basis): {list(poly.coeffs)}",
                f"value on '{args.word}': {value!r}",
            ],
        )
    elif op == "hilbert":
        value = kring.hilbert_value(KClass.word(args.word), args.n)
        _emit(
            args,
            lambda: {"word": args.word, "n": args.n, "value": frac_str(value)},
            lambda: (["word", "n", "value"], [[args.word, args.n, frac_str(value)]]),
            lambda: [f"h({args.word or '1'}, {args.n}) = {value}"],
        )
    return 0


def _parse_partition(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return kring.check_partition([int(p) for p in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"invalid partition {text!r}: {exc}") from None


def _multiplicity_rows(n: int) -> list[list]:
    if n < 0:
        raise ValueError("n must be non-negative")
    cls = kring.schwartz_class(n)
    return [[w, cls.coeffs.get(w, 0)] for w in weights_up_to(n)]


def cmd_decompose(args) -> int:
    rows = _multiplicity_rows(args.n)
    length = sum(m for _, m in rows)
    _emit(
        args,
        lambda: {
            "n": args.n,
            "terms": [{"word": w, "multiplicity": m} for w, m in rows],
            "length": length,
        },
        lambda: (["word", "multiplicity"], rows),
        lambda: [f"arity-{args.n} class, length {length}:"]
        + [f"  {w or '1':<{max(args.n, 1)}}  x{m}" for w, m in rows],
    )
    return 0


def cmd_verify(args) -> int:
    from . import verify

    if args.suite == "all":
        reports = verify.run_all(args.seed)
    else:
        try:
            reports = [verify.run_suite(args.suite, args.seed)]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    failed = []
    total = 0
    for rep in reports:  # each suite is printed as soon as it has run
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {rep.suite} :: {check.name}")
            if not check.passed:
                failed.append(f"{rep.suite} :: {check.name}")
                if check.detail:
                    print(f"     {check.detail}")
        total += len(rep.checks)
        sys.stdout.flush()
    if failed:
        print(f"{len(failed)} check(s) failed:")
        for name in failed:
            print(f"  {name}")
        return 1
    print(f"all {total} checks passed")
    return 0


def cmd_export(args) -> int:
    if args.table == "multiplicities":
        table = {"table": "multiplicities", "n": args.n}
        header = ["word", "multiplicity"]
        rows = _multiplicity_rows(args.n)
    else:
        m = args.m if args.m is not None else args.n
        if min(args.n, m) >= 0:  # enumerate_paths reports a negative target
            pairs = delannoy_number(args.n, m) * delannoy_number(m, args.n)
            _check_size(pairs, COMPOSITION_PAIRS_LIMIT, f"the composition table for n = "
                        f"{args.n}, m = {m} has {{}} basis pairs", "'export' composes")
        table = {"table": "composition", "n": args.n, "m": m}
        header = ["left", "right", "result", "coeff"]
        cell = lru_cache(maxsize=None)(_path_cell)  # each path is encoded once
        right = [(Morphism.basis(p2), cell(p2)) for p2 in enumerate_paths((m, args.n))]
        rows = []
        for p1 in enumerate_paths((args.n, m)):
            f, left = Morphism.basis(p1), cell(p1)
            for g, right_cell in right:
                for p3, c in (f @ g).terms():
                    rows.append([left, right_cell, cell(p3), frac_str(c)])
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = json.dumps({**table, "rows": [dict(zip(header, row)) for row in rows]})
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delannoy",
        description="Exact computations with Delannoy paths, signed path composition, and the weight-word ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="pretty")

    p = sub.add_parser("count", help="Delannoy number D(n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("paths", help="enumerate the paths to (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("compose", help="compose two basis paths")
    p.add_argument("--p1", required=True, help="path JSON (object or steps array)")
    p.add_argument("--p2", required=True, help="path JSON (object or steps array)")
    p.add_argument("--oracle", action="store_true", help="use the integration oracle")
    add_format(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("projector", help="projector of a weight word")
    p.add_argument("--word", required=True)
    add_format(p)
    p.set_defaults(func=cmd_projector)

    p = sub.add_parser("trace", help="categorical trace of a morphism or projector")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--morphism", help="morphism JSON")
    group.add_argument("--word", help="weight word (traces its projector)")
    add_format(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("ring", help="Grothendieck ring operations")
    p.set_defaults(func=cmd_ring)
    ring_sub = p.add_subparsers(dest="ring_op", required=True)

    q = ring_sub.add_parser("mul", help="product of two basis words")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    add_format(q)

    q = ring_sub.add_parser("res", help="restriction of a basis word")
    q.add_argument("--word", required=True)
    add_format(q)

    q = ring_sub.add_parser("ind", help="induction of a pair of basis words")
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    add_format(q)

    q = ring_sub.add_parser("antipode", help="antipode of a basis word")
    q.add_argument("--word", required=True)
    add_format(q)

    q = ring_sub.add_parser("adams", help="Adams operation on a basis word")
    q.add_argument("--word", required=True)
    q.add_argument("--n", type=int, required=True, help="Adams index")
    add_format(q)

    q = ring_sub.add_parser("schur", help="Schur operation on a basis word")
    q.add_argument("--lambda", dest="partition", required=True, help="partition, e.g. 2,1")
    q.add_argument("--word", default="b")
    add_format(q)

    q = ring_sub.add_parser("hilbert", help="invariant dimension of a basis word")
    q.add_argument("--word", required=True)
    q.add_argument("--n", type=int, required=True)
    add_format(q)

    p = sub.add_parser("decompose", help="multiplicity table of the arity-n class")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   help="suite identifier (e.g. 04-projectors or 4), or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify, format="pretty")

    p = sub.add_parser("export", help="write a table to a file or stdout")
    p.add_argument("--table", choices=("multiplicities", "composition"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_export)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
