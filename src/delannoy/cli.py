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
import threading
from functools import lru_cache

from . import category, kring
from .category import Morphism
from .kring import KClass, KTensorClass
from .linear import frac_str
from .paths import Path, delannoy_number, enumerate_paths, weights_up_to

FORMATS = ("json", "csv", "pretty")

# The most paths `delannoy paths` lists.  D(n, m) grows about sixfold with each
# step of n = m: listing D(7, 7) = 48 639 paths takes seconds and about 120 MiB,
# D(8, 8) = 265 729 about 600 MiB, and D(20, 20) is about 2.6e14.
PATHS_LIMIT = 100_000

# The most basis pairs `export --table composition` composes: D(n, m) * D(m, n)
# pairs, every row held until the table is printed.  n = 3, m = 4 is 16 641
# pairs (about 1.1 s of CPU and 70 MiB as JSON), n = 4, m = 3 as many pairs
# with longer products (about 2.5 s and 180 MiB); n = m = 4 is 103 041 pairs
# (about 11 s and 540 MiB).  At n = 4, m = 3 composing takes about two thirds
# of the time.
COMPOSITION_PAIRS_LIMIT = 20_000

# The longest word `ring antipode` takes.  Its cost grows about sixfold with
# every two letters: bwbwbwbwbwbwbw (14 letters) takes about 1.8 s and 93 MiB,
# bwbw...bw with 16 letters about 11 s and 320 MiB, and one of 1 200 letters
# runs into the recursion limit of `kring._antipode_word`.  A word of b's
# alone is cheap.
ANTIPODE_WORD_LIMIT = 14


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _path_cell(p: Path) -> str:
    return json.dumps([list(s) for s in p.steps], separators=(",", ":"))


class _PathCells(dict):
    """`_path_cell` of each path looked up, encoded on its first lookup only."""

    def __missing__(self, p: Path) -> str:
        text = self[p] = _path_cell(p)
        return text


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
    _emit(
        args,
        lambda: {"count": value},
        lambda: (["n", "m", "count"], [[args.n, args.m, value]]),
        lambda: [f"D({args.n}, {args.m}) = {value}"],
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
    _morphism_output(args, category.projector(args.word))
    return 0


def cmd_trace(args) -> int:
    if args.morphism is not None:
        m = Morphism.loads(args.morphism)
    else:
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
        if len(args.word) > ANTIPODE_WORD_LIMIT:
            raise ValueError(
                f"the word has {len(args.word)} letters, more than the "
                f"{ANTIPODE_WORD_LIMIT} that 'ring antipode' takes"
            )
        _emit_kclass(args, kring.antipode(KClass.word(args.word)))
    elif op == "adams":
        if args.n < 1:
            raise ValueError("--n must be a positive Adams index")
        _emit_kclass(args, kring.adams(KClass.word(args.word), args.n))
    elif op == "schur":
        parts = _parse_partition(args.partition)
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
        table = {"table": "multiplicities", "n": args.n}
        header = ["word", "multiplicity"]
        rows = _multiplicity_rows(args.n)
    else:
        m = args.m if args.m is not None else args.n
        if min(args.n, m) >= 0:  # enumerate_paths reports a negative target
            pairs = delannoy_number(args.n, m) * delannoy_number(m, args.n)
            if pairs > COMPOSITION_PAIRS_LIMIT:
                raise ValueError(
                    f"the composition table for n = {args.n}, m = {m} has {pairs} basis "
                    f"pairs, more than the {COMPOSITION_PAIRS_LIMIT} that 'export' composes"
                )
        table = {"table": "composition", "n": args.n, "m": m}
        header = ["left", "right", "result", "coeff"]
        cells = _PathCells()
        right = [(Morphism.basis(p2), cells[p2]) for p2 in enumerate_paths((m, args.n))]
        rows = []
        for p1 in enumerate_paths((args.n, m)):
            f, left = Morphism.basis(p1), cells[p1]
            for g, right_cell in right:
                for p3, c in (f @ g).terms():
                    rows.append([left, right_cell, cells[p3], frac_str(c)])
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


class _Subcommands(argparse._SubParsersAction):
    """Sub-parsers whose arguments are added only when argparse selects one.

    `command(name, help)` registers a sub-parser with its help text, which
    the parent's `-h` and "invalid choice" messages show, and decorates the
    function that adds its arguments.  That function runs the first time
    the sub-parser is selected, before it parses the rest of the command
    line, so a process builds the arguments of the command it runs and no
    others.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._unbuilt = {}
        self._lock = threading.Lock()  # one parser serves every thread of a process

    def command(self, name: str, help: str):
        self.add_parser(name, help=help)

        def register(add_arguments):
            self._unbuilt[name] = add_arguments
            return add_arguments

        return register

    def __call__(self, parser, namespace, values, option_string=None):
        with self._lock:
            add_arguments = self._unbuilt.pop(values[0], None)
            if add_arguments is not None:
                add_arguments(self.choices[values[0]])
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delannoy",
        description="Exact computations with Delannoy paths, signed path composition, and the weight-word ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="pretty")

    @sub.command("count", help="Delannoy number D(n, m)")
    def _(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        add_format(p)
        p.set_defaults(func=cmd_count)

    @sub.command("paths", help="enumerate the paths to (n, m)")
    def _(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        add_format(p)
        p.set_defaults(func=cmd_paths)

    @sub.command("compose", help="compose two basis paths")
    def _(p):
        p.add_argument("--p1", required=True, help="path JSON (object or steps array)")
        p.add_argument("--p2", required=True, help="path JSON (object or steps array)")
        p.add_argument("--oracle", action="store_true", help="use the integration oracle")
        add_format(p)
        p.set_defaults(func=cmd_compose)

    @sub.command("projector", help="projector of a weight word")
    def _(p):
        p.add_argument("--word", required=True)
        add_format(p)
        p.set_defaults(func=cmd_projector)

    @sub.command("trace", help="categorical trace of a morphism or projector")
    def _(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--morphism", help="morphism JSON")
        group.add_argument("--word", help="weight word (traces its projector)")
        add_format(p)
        p.set_defaults(func=cmd_trace)

    @sub.command("ring", help="Grothendieck ring operations")
    def _(p):
        ring_sub = p.add_subparsers(dest="ring_op", required=True, action=_Subcommands)

        @ring_sub.command("mul", help="product of two basis words")
        def _(q):
            q.add_argument("--x", required=True)
            q.add_argument("--y", required=True)
            add_format(q)

        @ring_sub.command("res", help="restriction of a basis word")
        def _(q):
            q.add_argument("--word", required=True)
            add_format(q)

        @ring_sub.command("ind", help="induction of a pair of basis words")
        def _(q):
            q.add_argument("--x", required=True)
            q.add_argument("--y", required=True)
            add_format(q)

        @ring_sub.command("antipode", help="antipode of a basis word")
        def _(q):
            q.add_argument("--word", required=True)
            add_format(q)

        @ring_sub.command("adams", help="Adams operation on a basis word")
        def _(q):
            q.add_argument("--word", required=True)
            q.add_argument("--n", type=int, required=True, help="Adams index")
            add_format(q)

        @ring_sub.command("schur", help="Schur operation on a basis word")
        def _(q):
            q.add_argument("--lambda", dest="partition", required=True, help="partition, e.g. 2,1")
            q.add_argument("--word", default="b")
            add_format(q)

        @ring_sub.command("hilbert", help="invariant dimension of a basis word")
        def _(q):
            q.add_argument("--word", required=True)
            q.add_argument("--n", type=int, required=True)
            add_format(q)

        p.set_defaults(func=cmd_ring)

    @sub.command("decompose", help="multiplicity table of the arity-n class")
    def _(p):
        p.add_argument("--n", type=int, required=True)
        add_format(p)
        p.set_defaults(func=cmd_decompose)

    @sub.command("verify", help="run verification suites")
    def _(p):
        p.add_argument("suite", nargs="?", default="all",
                       help="suite identifier (e.g. 04-projectors or 4), or 'all'")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=cmd_verify, format="pretty")

    @sub.command("export", help="write a table to a file or stdout")
    def _(p):
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
