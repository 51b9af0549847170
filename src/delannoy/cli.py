"""Command-line front end: enumeration, composition, ring arithmetic, tables,
and the verification suites.

Exit status: 0 on success, 1 when a verification suite fails, 2 on usage
errors.  Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache

from . import category, kring, verify
from .category import Morphism
from .kring import KClass, KTensorClass
from .linear import frac_str
from .paths import Path, check_weight, delannoy_number, enumerate_paths, weights_up_to

FORMATS = ("json", "csv", "pretty")

# The most paths `delannoy paths` lists.  D(n, m) grows about sixfold with each
# step of n = m: listing D(7, 7) = 48 639 paths takes seconds and about 120 MiB,
# D(8, 8) = 265 729 about 600 MiB, and D(20, 20) is about 2.6e14.
PATHS_LIMIT = 100_000

# The most basis pairs `export --table composition` composes: D(n, m) * D(m, n)
# pairs, every row held until the table is printed.  n = 3, m = 4 is 16 641
# pairs (about 2.5 s of CPU and 80 MiB as JSON), n = 4, m = 3 as many pairs
# with longer products (about 7 s and 230 MiB); n = m = 4 is 103 041 pairs
# (about 32 s and 750 MiB).  Most of that time is output formatting.
COMPOSITION_PAIRS_LIMIT = 20_000


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _path_cell(p: Path) -> str:
    return json.dumps([list(s) for s in p.steps], separators=(",", ":"))


def _kclass_rows(x: KClass) -> list[list[str]]:
    return [[w, frac_str(c)] for w, c in x.terms()]


def _emit(args, payload: dict, csv_table=None, pretty_lines=None) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        if csv_table is None:
            raise ValueError("csv output is not available for this command")
        print(_csv_text(*csv_table))
    else:
        for line in pretty_lines or [json.dumps(payload)]:
            print(line)


def _morphism_output(args, m: Morphism) -> None:
    rows = [[_path_cell(p), frac_str(c)] for p, c in m.terms()]
    pretty = [f"hom({m.in_arity} -> {m.out_arity}), {len(rows)} terms:"] + [
        f"  {coeff}  {steps}" for steps, coeff in rows
    ]
    _emit(args, m.to_json(), (["path", "coeff"], rows), pretty)


def cmd_count(args) -> int:
    value = delannoy_number(args.n, args.m)
    _emit(
        args,
        {"count": value},
        (["n", "m", "count"], [[args.n, args.m, value]]),
        [f"D({args.n}, {args.m}) = {value}"],
    )
    return 0


def cmd_paths(args) -> int:
    if min(args.n, args.m) >= 0:  # enumerate_paths reports a negative target
        count = delannoy_number(args.n, args.m)
        if count > PATHS_LIMIT:
            raise ValueError(
                f"there are {count} paths to ({args.n}, {args.m}), more than the "
                f"{PATHS_LIMIT} that 'paths' lists; 'count' gives the number alone"
            )
    paths = enumerate_paths((args.n, args.m))
    payload = {
        "target": [args.n, args.m],
        "count": len(paths),
        "paths": [p.to_json() for p in paths],
    }
    rows = [[i, _path_cell(p), len(p)] for i, p in enumerate(paths)]
    pretty = [f"{len(paths)} paths to ({args.n}, {args.m}):"] + [
        f"  {_path_cell(p)}" for p in paths
    ]
    _emit(args, payload, (["index", "path", "length"], rows), pretty)
    return 0


def _parse_path(text: str) -> Path:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid path JSON: {exc}")
    if isinstance(data, list):
        data = {"d": 2, "steps": data}
    return Path.from_json(data)


def cmd_compose(args) -> int:
    p1, p2 = _parse_path(args.p1), _parse_path(args.p2)
    if args.oracle:
        result = category.compose_oracle(p1, p2)
    else:
        result = Morphism.basis(p1) @ Morphism.basis(p2)
    _morphism_output(args, result)
    return 0


def cmd_projector(args) -> int:
    _morphism_output(args, category.projector(check_weight(args.word)))
    return 0


def cmd_trace(args) -> int:
    if args.morphism is not None:
        m = Morphism.loads(args.morphism)
    else:
        m = category.projector(check_weight(args.word))
    value = category.trace(m)
    _emit(
        args,
        {"trace": frac_str(value)},
        (["trace"], [[frac_str(value)]]),
        [f"trace = {value}"],
    )
    return 0


def _emit_kclass(args, x: KClass) -> None:
    _emit(args, x.to_json(), (["word", "coeff"], _kclass_rows(x)), [repr(x)])


def _emit_ktensor(args, t: KTensorClass) -> None:
    rows = [[u, v, frac_str(c)] for (u, v), c in t.terms()]
    _emit(args, t.to_json(), (["left", "right", "coeff"], rows), t.term_texts() or ["0"])


def cmd_ring(args) -> int:
    op = args.ring_op
    if op == "mul":
        _emit_kclass(args, KClass.word(check_weight(args.x)) * KClass.word(check_weight(args.y)))
    elif op == "res":
        _emit_ktensor(args, kring.restrict(KClass.word(check_weight(args.word))))
    elif op == "ind":
        t = KTensorClass.pure(KClass.word(check_weight(args.x)), KClass.word(check_weight(args.y)))
        _emit_kclass(args, kring.induce(t))
    elif op == "antipode":
        _emit_kclass(args, kring.antipode(KClass.word(check_weight(args.word))))
    elif op == "adams":
        if args.n < 1:
            raise ValueError("--n must be a positive Adams index")
        _emit_kclass(args, kring.adams(KClass.word(check_weight(args.word)), args.n))
    elif op == "schur":
        parts = _parse_partition(args.partition)
        poly = kring.schur_dimension_poly(parts)
        value = kring.schur_apply(parts, KClass.word(check_weight(args.word)))
        payload = {
            "partition": list(parts),
            "binomial_coefficients": list(poly.coeffs),
            "value": value.to_json(),
        }
        rows = _kclass_rows(value)
        _emit(
            args,
            payload,
            (["word", "coeff"], rows),
            [
                f"dimension polynomial (binomial basis): {list(poly.coeffs)}",
                f"value on '{args.word}': {value!r}",
            ],
        )
    elif op == "hilbert":
        value = kring.hilbert_value(KClass.word(check_weight(args.word)), args.n)
        _emit(
            args,
            {"word": args.word, "n": args.n, "value": frac_str(value)},
            (["word", "n", "value"], [[args.word, args.n, frac_str(value)]]),
            [f"h({args.word or '1'}, {args.n}) = {value}"],
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
    cls = kring.schwartz_class(n)
    return [[w, cls.coeffs.get(w, 0)] for w in weights_up_to(n)]


def cmd_decompose(args) -> int:
    rows = _multiplicity_rows(args.n)
    payload = {
        "n": args.n,
        "terms": [{"word": w, "multiplicity": m} for w, m in rows],
        "length": sum(m for _, m in rows),
    }
    pretty = [f"arity-{args.n} class, length {payload['length']}:"] + [
        f"  {w or '1':<{max(args.n, 1)}}  x{m}" for w, m in rows
    ]
    _emit(args, payload, (["word", "multiplicity"], rows), pretty)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        reports = verify.run_all(args.seed)
    else:
        try:
            reports = [verify.run_suite(args.suite, args.seed)]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    failed = []
    for rep in reports:
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {rep.suite} :: {check.name}")
            if not check.passed:
                failed.append(f"{rep.suite} :: {check.name}")
                if check.detail:
                    print(f"     {check.detail}")
    if failed:
        print(f"{len(failed)} check(s) failed:")
        for name in failed:
            print(f"  {name}")
        return 1
    print(f"all {sum(len(r.checks) for r in reports)} checks passed")
    return 0


def cmd_export(args) -> int:
    if args.table == "multiplicities":
        rows = _multiplicity_rows(args.n)
        header = ["word", "multiplicity"]
        payload = {
            "table": "multiplicities",
            "n": args.n,
            "rows": [{"word": w, "multiplicity": m} for w, m in rows],
        }
    else:
        m = args.m if args.m is not None else args.n
        if min(args.n, m) >= 0:  # enumerate_paths reports a negative target
            pairs = delannoy_number(args.n, m) * delannoy_number(m, args.n)
            if pairs > COMPOSITION_PAIRS_LIMIT:
                raise ValueError(
                    f"the composition table for n = {args.n}, m = {m} has {pairs} basis "
                    f"pairs, more than the {COMPOSITION_PAIRS_LIMIT} that 'export' composes"
                )
        rows = []
        for p1 in enumerate_paths((args.n, m)):
            for p2 in enumerate_paths((m, args.n)):
                prod = Morphism.basis(p1) @ Morphism.basis(p2)
                for p3, c in prod.terms():
                    rows.append([_path_cell(p1), _path_cell(p2), _path_cell(p3), frac_str(c)])
        header = ["left", "right", "result", "coeff"]
        payload = {
            "table": "composition",
            "n": args.n,
            "m": m,
            "rows": [
                {"left": a, "right": b, "result": r, "coeff": c}
                for a, b, r, c in rows
            ],
        }
    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = json.dumps(payload)
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

    p.set_defaults(func=cmd_ring)

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
