import hashlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter

import pytest

import delannoy
from delannoy import cli
from delannoy.cli import _path_cell, main
from delannoy.kring import KClass, restrict
from delannoy.paths import enumerate_paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_process(*argv, timeout=None):
    # `delannoy <argv>` as its own process, so that the exit code and stderr are the ones a shell sees
    src = os.path.dirname(os.path.dirname(delannoy.__file__))
    return subprocess.run(
        [sys.executable, "-m", "delannoy.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=timeout,
    )


def test_import_set():
    # what a CLI process loads before it parses its command line: the engine
    # layers, but neither the verification suites nor csv, dataclasses or
    # typing; -S keeps site's .pth files, which may import typing, out of it
    src = os.path.dirname(os.path.dirname(delannoy.__file__))
    code = "import sys, delannoy.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "csv", "typing", "delannoy.verify"}
    engine = {f"delannoy.{m}" for m in ("paths", "euler", "category", "kring", "linalg", "cli")}
    assert engine <= loaded


def test_count_json(capsys):
    code, out = run_cli(capsys, "count", "--n", "2", "--m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 13}


def test_count_pretty_and_csv(capsys):
    code, out = run_cli(capsys, "count", "--n", "3", "--m", "3")
    assert code == 0 and "63" in out
    code, out = run_cli(capsys, "count", "--n", "3", "--m", "3", "--format", "csv")
    assert code == 0 and out.splitlines() == ["n,m,count", "3,3,63"]


def test_ring_mul_json(capsys):
    code, out = run_cli(capsys, "ring", "mul", "--x", "b", "--y", "w", "--format", "json")
    assert code == 0
    terms = {t["word"]: t["coeff"] for t in json.loads(out)["terms"]}
    assert terms == {"": "1/1", "b": "1/1", "w": "1/1", "bw": "1/1", "wb": "1/1"}


def test_byte_identical_repeat(capsys):
    args = ("paths", "--n", "2", "--m", "1", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert json.loads(first)["count"] == 5


def test_compose_matches_oracle(capsys):
    args = ("compose", "--p1", "[[1,0],[0,1]]", "--p2", "[[0,1],[1,0]]", "--format", "json")
    _, plain = run_cli(capsys, *args)
    _, oracle = run_cli(capsys, *(args + ("--oracle",)))
    assert json.loads(plain) == json.loads(oracle)
    coeffs = {c["coeff"] for c in json.loads(plain)["terms"]}
    assert coeffs == {"-1/1"}


def test_projector_and_trace(capsys):
    code, out = run_cli(capsys, "projector", "--word", "bw", "--format", "json")
    assert code == 0 and len(json.loads(out)["terms"]) == 4
    code, out = run_cli(capsys, "trace", "--word", "bw", "--format", "json")
    assert code == 0 and json.loads(out) == {"trace": "1/1"}


def test_ring_res_ind_antipode_adams(capsys):
    code, out = run_cli(capsys, "ring", "res", "--word", "b", "--format", "json")
    assert code == 0 and len(json.loads(out)["terms"]) == 3
    code, out = run_cli(capsys, "ring", "ind", "--x", "", "--y", "", "--format", "json")
    words = {t["word"] for t in json.loads(out)["terms"]}
    assert code == 0 and words == {"", "b", "w"}
    code, out = run_cli(capsys, "ring", "antipode", "--word", "b", "--format", "json")
    terms = {t["word"]: t["coeff"] for t in json.loads(out)["terms"]}
    assert code == 0 and terms == {"": "-2/1", "b": "-1/1"}
    code, out = run_cli(capsys, "ring", "adams", "--word", "bw", "--n", "3", "--format", "json")
    assert code == 0
    assert {t["word"]: t["coeff"] for t in json.loads(out)["terms"]} == {"bw": "1/1"}


def test_ring_schur_and_hilbert(capsys):
    code, out = run_cli(capsys, "ring", "schur", "--lambda", "1,1", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["binomial_coefficients"] == [0, 0, 1]
    assert {t["word"] for t in data["value"]["terms"]} == {"bb"}
    code, out = run_cli(capsys, "ring", "hilbert", "--word", "bw", "--n", "4", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == "6/1"



def test_ring_schur_of_the_empty_partition_is_the_unit(capsys):
    code, out = run_cli(capsys, "ring", "schur", "--lambda", "", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"partition": [], "binomial_coefficients": [1],
                               "value": {"terms": [{"word": "", "coeff": "1/1"}]}}
    code, out = run_cli(capsys, "ring", "schur", "--lambda", "")
    assert code == 0
    assert out == "dimension polynomial (binomial basis): [1]\nvalue on 'b': 1*1\n"

def test_decompose_csv(capsys):
    code, out = run_cli(capsys, "decompose", "--n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["word,multiplicity", ",1", "b,1", "w,1"]


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "01-delannoy-counts")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_accepts_bare_number(capsys):
    code, out = run_cli(capsys, "verify", "11")
    assert code == 0 and "11-schur" in out


def test_verify_unknown_suite(capsys):
    code = main(["verify", "99-nope"])
    assert code == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    from delannoy import verify

    def broken(report, rng):
        report.add("always fails", False, "forced for the exit-code contract")

    monkeypatch.setattr(
        verify, "SUITES", [("01-delannoy-counts", broken)], raising=True
    )
    code = main(["verify", "01-delannoy-counts"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL 01-delannoy-counts :: always fails" in out


def test_failing_check_names_its_input(capsys, monkeypatch):
    from delannoy import category

    rank = category.multiplicity_rank
    monkeypatch.setattr(
        category, "multiplicity_rank", lambda w, m: 7 if (w, m) == ("bw", 4) else rank(w, m)
    )
    code = main(["verify", "05"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    fail = lines.index("FAIL 05-multiplicities :: rank equals binom(4, len) for words of length <= 3")
    assert lines[fail + 1] == "     at ('bw', 4): got 7, want 6"
    assert [line for line in lines if line.startswith("FAIL")] == [lines[fail]]



def test_a_check_that_raises_is_a_failed_check(capsys, monkeypatch):
    from delannoy import kring
    from delannoy.errors import InvariantError

    def raising(x, i):
        raise InvariantError(f"binom(x, {i}) forced to fail")

    monkeypatch.setattr(kring, "lambda_binomial", raising)
    code = main(["verify", "10"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1 and "Traceback" not in captured.out + captured.err
    assert lines[:5] == [
        "FAIL 10-lambda-adams :: n-th exterior power of a letter is the n-letter word, n <= 5",
        "     before the first case: raised InvariantError: binom(x, 0) forced to fail",
        "FAIL 10-lambda-adams :: binom(x, n) integral for 20 random classes of degree <= 2, n <= 4",
        "     before the first case: raised InvariantError: binom(x, 0) forced to fail",
        "PASS 10-lambda-adams :: Adams operations fix every word of length <= 3 for i <= 4",
    ]
    assert lines[5] == "2 check(s) failed:"


def test_verify_all_goes_on_past_a_suite_that_raises(capsys, monkeypatch):
    from delannoy import verify

    def cheap(report, rng):
        report.expect("one is one", [(1, 1, 1)])

    def raising(report, rng):
        report.expect("halves", ((n, 1 // (2 - n), 1 // (2 - n)) for n in range(3)))
        raise ValueError("outside a check")

    monkeypatch.setattr(verify, "SUITES", [("01-a", cheap), ("02-b", raising), ("03-c", cheap)])
    monkeypatch.setattr(verify, "SUITE_NAMES", ["01-a", "02-b", "03-c"])
    code = main(["verify", "all"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS 01-a :: one is one",
        "FAIL 02-b :: halves",
        "     after 1: raised ZeroDivisionError: integer division or modulo by zero",
        "FAIL 02-b :: suite runs to the end",
        "     after halves: raised ValueError: outside a check",
        "PASS 03-c :: one is one",
        "2 check(s) failed:",
        "  02-b :: halves",
        "  02-b :: suite runs to the end",
    ]


def test_verify_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(delannoy.__file__))
    code = "import sys, delannoy.cli, delannoy.verify; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"

def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run_cli(
        capsys, "export", "--table", "multiplicities", "--n", "2",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "word,multiplicity"
    assert len(lines) == 8  # header + 7 weights of length <= 2


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_export_unwritable_out_is_a_usage_error(tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    proc = _run_process("export", "--table", "multiplicities", "--n", "1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [("decompose", "--n", "-1"), ("export", "--table", "multiplicities", "--n", "-2")],
    ids=["decompose", "export-multiplicities"],
)
def test_negative_size_is_a_usage_error(argv):
    proc = _run_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: n must be non-negative\n" and proc.stdout == ""


def test_parser_is_built_once(capsys, monkeypatch):
    assert main(["count", "--n", "1", "--m", "1"]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["count", "--n", "2", "--m", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["D(1, 1) = 3", "D(2, 1) = 5"]


def test_threads_share_a_fresh_parser():
    # one built parser serves every thread of a process: concurrent parses of
    # different commands each get the full namespace of their own command
    argvs = [["count", "--n", "1", "--m", "2"], ["ring", "adams", "--word", "b", "--n", "3"],
             ["trace", "--word", "bw"], ["export", "--table", "composition", "--n", "1"]] * 2
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            parser, barrier, results = cli.build_parser(), threading.Barrier(len(argvs)), {}

            def parse(i, argv):
                barrier.wait(timeout=10)
                try:
                    results[i] = vars(parser.parse_args(argv))
                except SystemExit as exc:
                    results[i] = exc

            threads = [threading.Thread(target=parse, args=(i, argv))
                       for i, argv in enumerate(argvs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert [results[i].get("n") for i in range(len(argvs))] == [1, 3, None, 1] * 2
            assert results[2]["word"] == "bw" and results[3]["format"] == "json"
    finally:
        sys.setswitchinterval(switch)


def test_pretty_ring_output_is_the_repr(capsys):
    _, out = run_cli(capsys, "ring", "mul", "--x", "bw", "--y", "b")
    assert out == repr(KClass.word("bw") * KClass.word("b")) + "\n"
    _, out = run_cli(capsys, "ring", "res", "--word", "bw")
    t = restrict(KClass.word("bw"))
    assert out.splitlines() == t.term_texts() == repr(t).split(" + ")


def test_export_composition_json(capsys):
    code, out = run_cli(capsys, "export", "--table", "composition", "--n", "1", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["table"] == "composition"
    assert len(data["rows"]) == 13  # the rank-one multiplication table


def test_unknown_flag_is_rejected():
    with pytest.raises(SystemExit) as err:
        main(["count", "--n", "2", "--m", "2", "--bogus"])
    assert err.value.code == 2


def test_bad_word_is_reported(capsys):
    for bad in ("bx", "xb", "bxw"):
        assert main(["projector", "--word", bad]) == 2
        assert main(["ring", "mul", "--x", "b", "--y", bad]) == 2
        assert f"invalid weight {bad!r}" in capsys.readouterr().err


def test_paths_budget(capsys):
    limit = cli.PATHS_LIMIT
    # D(20, 20) is about 2.6e14: refused before anything is enumerated
    assert main(["paths", "--n", "20", "--m", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "260543813797441" in err and str(limit) in err


def test_paths_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PATHS_LIMIT", 13)
    code, out = run_cli(capsys, "paths", "--n", "2", "--m", "2", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 14
    assert main(["paths", "--n", "3", "--m", "2"]) == 2
    assert "there are 25 paths to (3, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("n, m", [(2000, 0), (0, 2000)])
def test_paths_long_single_path(n, m):
    # D(n, 0) = 1: one path of n steps, past the recursion limit
    proc = _run_process("paths", "--n", str(n), "--m", str(m), "--format", "json")
    assert proc.returncode == 0, proc.stderr[-500:]
    out = json.loads(proc.stdout)
    step = [1, 0] if n else [0, 1]
    assert out["count"] == 1 and out["paths"] == [{"d": 2, "steps": [step] * (n + m)}]


def test_composition_export_budget(capsys):
    limit = cli.COMPOSITION_PAIRS_LIMIT
    # n = 3, m = 4 (16 641 pairs) is allowed; D(4, 4)^2 = 103 041 pairs is
    # refused before anything is composed
    assert cli.delannoy_number(3, 4) ** 2 <= limit < cli.delannoy_number(4, 4) ** 2
    assert main(["export", "--table", "composition", "--n", "4", "--m", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "103041" in err and str(limit) in err


def test_composition_export_budget_boundary(capsys, monkeypatch):
    # D(1, 2) * D(2, 1) = 25 pairs
    monkeypatch.setattr(cli, "COMPOSITION_PAIRS_LIMIT", 25)
    code, out = run_cli(capsys, "export", "--table", "composition", "--n", "1", "--m", "2",
                        "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "left,right,result,coeff"
    monkeypatch.setattr(cli, "COMPOSITION_PAIRS_LIMIT", 24)
    assert main(["export", "--table", "composition", "--n", "1", "--m", "2"]) == 2
    assert "has 25 basis pairs, more than the 24" in capsys.readouterr().err


def _straight(step, k):
    return json.dumps([step] * k, separators=(",", ":"))


ROUTES = pytest.mark.parametrize("route", [(), ("--oracle",)], ids=["rule", "oracle"])


@ROUTES
def test_compose_budget(capsys, route):
    # [[1,0]]*8 then [[0,1]]*8: the result has D(8, 8) = 265 729 basis paths, refused
    # before anything is composed (about 10 s and 760 MiB otherwise)
    assert cli.delannoy_number(7, 7) <= cli.PATHS_LIMIT < cli.delannoy_number(8, 8)
    argv = ["compose", "--p1", _straight([1, 0], 8), "--p2", _straight([0, 1], 8), *route]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: the result has 265729 basis paths, more than the "
                   f"{cli.PATHS_LIMIT} that 'compose' takes\n")


def test_compose_budget_sizes_long_paths_fast():
    # [[1,0]]*3000 then [[0,1]]*3000: D(3000, 3000) has 2 295 digits, which the
    # closed form sizes in milliseconds, so the refusal comes at once
    argv = ["compose", "--p1", _straight([1, 0], 3000), "--p2", _straight([0, 1], 3000)]
    proc = _run_process(*argv, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: the result has {cli.delannoy_number(3000, 3000)} basis paths, "
                           f"more than the {cli.PATHS_LIMIT} that 'compose' takes\n")


def test_count_of_a_huge_target_ends():
    # D(20000, 20000) has 15 309 digits: printed in full where the interpreter
    # allows it, a usage error past its digit limit, never a traceback or a hang
    proc = _run_process("count", "--n", "20000", "--m", "20000", timeout=60)
    assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert proc.stdout.startswith("D(20000, 20000) = ")


@ROUTES
def test_compose_budget_boundary(capsys, monkeypatch, route):
    # [[1,1]] then [[1,1]]: D(1, 1) = 3 result paths
    argv = ["compose", "--p1", "[[1,1]]", "--p2", "[[1,1]]", "--format", "csv", *route]
    monkeypatch.setattr(cli, "PATHS_LIMIT", 3)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == "path,coeff"
    monkeypatch.setattr(cli, "PATHS_LIMIT", 2)
    assert main(argv) == 2
    assert "has 3 basis paths, more than the 2 that" in capsys.readouterr().err


@ROUTES
@pytest.mark.parametrize(
    "p1, p2, rule, oracle",
    [
        ('{"d":1,"steps":[[1]]}', "[[1,1]]", "not enough values to unpack", "not enough values"),
        ("[[1,1]]", '{"d":3,"steps":[[1,1,1]]}', "too many values to unpack", "too many values"),
        # mismatched inner targets, whatever the size of the result
        (_straight([1, 0], 8), _straight([1, 1], 8), "cannot compose 8<-0 with 8<-8",
         "inner targets differ: (8, 0) vs (8, 8)"),
    ],
    ids=["1-d", "3-d", "mismatched"],
)
def test_compose_errors_come_before_the_budget(capsys, route, p1, p2, rule, oracle):
    assert main(["compose", "--p1", p1, "--p2", p2, *route]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (oracle if route else rule) in err


NULL_COEFF = '{"n":1,"m":1,"terms":[{"path":{"d":2,"steps":[[1,1]]},"coeff":null}]}'
FLOAT_N = '{"n":2.9,"m":2,"terms":[{"path":{"d":2,"steps":[[1,1],[1,1]]},"coeff":"1"}]}'
FLOAT_COEFF = '{"n":2,"m":2,"terms":[{"path":{"d":2,"steps":[[1,1],[1,1]]},"coeff":0.1}]}'
BOOL_COEFF = '{"n":1,"m":1,"terms":[{"path":{"d":2,"steps":[[1,1]]},"coeff":true}]}'
ZERO_DENOMINATOR = '{"n":1,"m":1,"terms":[{"path":{"d":2,"steps":[[1,1]]},"coeff":"1/0"}]}'


@pytest.mark.parametrize(
    "argv, name",
    [
        (("trace", "--morphism", "[1]"), "n"),
        (("trace", "--morphism", "5"), "n"),
        (("trace", "--morphism", "{}"), "n"),
        (("trace", "--morphism", '{"d":2}'), "n"),
        (("trace", "--morphism", NULL_COEFF), "coeff"),
        (("compose", "--p1", "[[1,1]]", "--p2", "[1]"), "steps"),
        (("compose", "--p1", "[[1,1]]", "--p2", "5"), "d"),
        (("compose", "--p1", "{}", "--p2", "[[1,1]]"), "d"),
        (("compose", "--p1", '{"d":2}', "--p2", "[[1,1]]"), "steps"),
        (("trace", "--morphism", FLOAT_N), "n"),
        (("trace", "--morphism", FLOAT_COEFF), "coeff"),
        (("trace", "--morphism", BOOL_COEFF), "coeff"),
        (("trace", "--morphism", ZERO_DENOMINATOR), "coeff"),
        (("compose", "--p1", "[[1,1]]", "--p2", "[[true,1]]"), "steps"),
        (("compose", "--p1", "[[1,1]]", "--p2", "[[1.0,1]]"), "steps"),
        (("compose", "--p1", '{"d":2.5,"steps":[[1,1]]}', "--p2", "[[1,1]]"), "d"),
    ],
    ids=["trace-list", "trace-number", "trace-empty", "trace-path", "trace-null-coeff",
         "compose-bad-steps", "compose-number", "compose-empty", "compose-no-steps",
         "trace-float-n", "trace-float-coeff", "trace-bool-coeff", "trace-zero-denominator",
         "compose-bool-step", "compose-float-step", "compose-float-d"],
)
def test_malformed_json_is_a_usage_error(argv, name):
    proc = _run_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert f"field {name!r}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("option", ["trace --morphism", "compose --p2 [[1,1]] --p1"])
def test_deeply_nested_json_is_a_usage_error(option):
    # 1000 nested brackets ran the decoder past the recursion limit: a
    # RecursionError traceback and exit 1, the code of a failed verification
    proc = _run_process(*option.split(), "[" * 1000 + "]" * 1000)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n, m", [(-1, -1), (-3, 1), (1, -2)])
def test_negative_arity_is_a_usage_error(capsys, n, m):
    # a square (-1, -1) morphism used to be read as arity 0, with trace 0 and exit 0
    code = main(["trace", "--morphism", json.dumps({"n": n, "m": m, "terms": []})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: arity must be a non-negative integer, got {min(n, m)}\n"


def test_bad_partition(capsys):
    code = main(["ring", "schur", "--lambda", "1,2"])
    assert code == 2


@pytest.mark.parametrize("n", [1, 2, 1200])
def test_ring_mul_long_word_matches_closed_form(n):
    # b^n * w = sum_{i<=n} b^i w b^(n-i) + sum_{i<n} b^i w b^(n-1-i) + n b^n + n b^(n-1)
    proc = _run_process("ring", "mul", "--x", "b" * n, "--y", "w", "--format", "json")
    assert proc.returncode == 0, proc.stderr[-500:]
    expected = Counter("b" * i + "w" + "b" * (n - i) for i in range(n + 1))
    expected.update("b" * i + "w" + "b" * (n - 1 - i) for i in range(n))
    expected.update({"b" * n: n, "b" * (n - 1): n})
    terms = json.loads(proc.stdout)["terms"]
    assert len(terms) == 2 * n + 3
    assert {t["word"]: t["coeff"] for t in terms} == {w: f"{c}/1" for w, c in expected.items()}


def test_antipode_of_a_long_word_is_a_usage_error(capsys):
    # 1 200 letters ran into the recursion limit: exit 1 with a traceback
    proc = _run_process("ring", "antipode", "--word", "b" * 1200)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: the word has 1200 letters, more than the "
                           f"{cli.ANTIPODE_WORD_LIMIT} that 'ring antipode' takes\n")
    code, out = run_cli(capsys, "ring", "antipode", "--word", "b" * cli.ANTIPODE_WORD_LIMIT)
    assert code == 0 and out


@pytest.mark.parametrize("command", ["projector", "trace"])
def test_a_long_projector_word_is_a_usage_error(command):
    # trace --word b*22 took 18.8 s to print one number, projector --word b*22 ran past 20 s
    limit = cli.PROJECTOR_WORD_LIMIT
    assert 4 <= limit < 22
    name = "projector" if command == "projector" else "trace --word"
    for word in ("b" * 22, "bw" * 600):
        proc = _run_process(command, "--word", word, "--format", "json")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: the word has {len(word)} letters, more than the "
                               f"{limit} that '{name}' takes\n")


def test_projector_word_budget_boundary(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PROJECTOR_WORD_LIMIT", 3)
    code, out = run_cli(capsys, "projector", "--word", "bwb", "--format", "json")
    assert code == 0 and len(json.loads(out)["terms"]) == 8
    code, out = run_cli(capsys, "trace", "--word", "bwb", "--format", "json")
    assert code == 0 and json.loads(out) == {"trace": "-1/1"}
    for command in ("projector", "trace"):
        assert main([command, "--word", "bwbw"]) == 2
        assert "the word has 4 letters, more than the 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, degree", [
    (("ring", "adams", "--word", "bwbw", "--n", "8"), 32),  # ran past 40 s
    (("ring", "adams", "--word", "", "--n", "17"), 17),
    (("ring", "schur", "--lambda", "2,2", "--word", "bwbwb"), 20),  # 106 s and 1.77 GiB
    (("ring", "schur", "--lambda", "17"), 17),
])
def test_ring_degree_past_the_limit_is_a_usage_error(capsys, argv, degree):
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    name = "n" if argv[1] == "adams" else "|lambda|"
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: the degree max(letters, 1) * {name} is {degree}, more than "
                            f"the {cli.RING_DEGREE_LIMIT} that 'ring {argv[1]}' takes\n")


def test_ring_degree_at_the_limit_runs(capsys):
    assert cli.RING_DEGREE_LIMIT == 16
    for argv in (("ring", "adams", "--word", "b", "--n", "16"),
                 ("ring", "adams", "--word", "", "--n", "16"),
                 ("ring", "schur", "--lambda", "8,8"),
                 ("ring", "schur", "--lambda", "2", "--word", "b" * 8)):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)


def _pinned_invocations() -> list[tuple[str, ...]]:
    """A fixed set of in-process invocations over every output-producing command."""
    formats = ("json", "csv", "pretty")
    words = ("", "b", "w", "bw", "wb", "bb")
    morphisms = [
        '{"n":1,"m":1,"terms":[{"path":{"d":2,"steps":[[1,1]]},"coeff":"3/2"}]}',
        '{"n":2,"m":2,"terms":[{"path":{"d":2,"steps":[[1,1],[1,1]]},"coeff":"-7/3"},'
        '{"path":{"d":2,"steps":[[1,0],[0,1],[1,1]]},"coeff":"1/2"}]}',
        '{"n":2,"m":2,"terms":[{"path":{"d":2,"steps":[[1,1],[1,1]]},"coeff":"4/2"}]}',
        '{"n":0,"m":0,"terms":[{"path":{"d":2,"steps":[]},"coeff":5}]}',
    ]
    out = []
    for fmt in formats:
        tail = ("--format", fmt)
        for x in ("", "b", "w", "bw"):
            for y in ("b", "wb"):
                out.append(("ring", "mul", "--x", x, "--y", y) + tail)
                out.append(("ring", "ind", "--x", x, "--y", y) + tail)
        for w in words:
            out.append(("ring", "res", "--word", w) + tail)
            out.append(("ring", "antipode", "--word", w) + tail)
            out.append(("ring", "hilbert", "--word", w, "--n", "3") + tail)
            out.append(("projector", "--word", w) + tail)
            out.append(("trace", "--word", w) + tail)
        for w in ("b", "bw"):
            for n in ("1", "2", "3"):
                out.append(("ring", "adams", "--word", w, "--n", n) + tail)
        for lam in ("", "1", "2", "1,1", "2,1"):
            for w in ("b", "bw"):
                out.append(("ring", "schur", "--lambda", lam, "--word", w) + tail)
        for text in morphisms:
            out.append(("trace", "--morphism", text) + tail)
        for n in range(5):
            out.append(("decompose", "--n", str(n)) + tail)
    # every composable pair of paths with arity <= 2, by both routes, formats in turn
    index = 0
    for n in range(3):
        for m in range(3):
            for l in range(3):
                for p1 in enumerate_paths((n, m)):
                    for p2 in enumerate_paths((m, l)):
                        argv = ("compose", "--p1", _path_cell(p1), "--p2", _path_cell(p2),
                                "--format", formats[index % 3])
                        out += [argv, argv + ("--oracle",)]
                        index += 1
    for fmt in ("json", "csv"):
        for n in range(4):
            out.append(("export", "--table", "multiplicities", "--n", str(n), "--format", fmt))
        for n, m in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2)):
            out.append(("export", "--table", "composition", "--n", str(n), "--m", str(m),
                        "--format", fmt))
    # usage errors
    out.append(("ring", "mul", "--x", "bq", "--y", "w"))
    out.append(("compose", "--p1", "[[1,1]]", "--p2", "[[1,1],[1,1]]"))
    out.append(("trace", "--morphism", '{"n":1,"m":2,"terms":[]}'))
    return out


# sha256 of the pinned invocations' (argv, exit code, stdout, stderr), recorded
# before integral coefficients were stored as int
PINNED_CLI_SHA256 = "50e62c9c4b5de17c30ec796e29aaacab1c5304370f88d2bb39b006a714135782"


def test_pinned_cli_bytes(capsys):
    digest = hashlib.sha256()
    invocations = _pinned_invocations()
    for argv in invocations:
        code = main(list(argv))
        captured = capsys.readouterr()
        record = [list(argv), code, captured.out, captured.err]
        digest.update(json.dumps(record).encode() + b"\n")
    assert len(invocations) == 1136
    assert digest.hexdigest() == PINNED_CLI_SHA256


COMMANDS = ("count", "paths", "compose", "projector", "trace", "ring", "decompose", "verify",
            "export")
RING_OPS = ("mul", "res", "ind", "antipode", "adams", "schur", "hilbert")


def _help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    return captured.out


def test_help_lists_every_command(capsys, monkeypatch):
    # the argparse bytes are pinned on one Python only; this holds on every one
    monkeypatch.setenv("COLUMNS", "80")
    for argv, names in [(("-h",), COMMANDS), (("ring", "-h"), RING_OPS)]:
        text = _help_text(capsys, *argv)
        assert "{" + ",".join(names) + "}" in text
        assert set(names) <= {line.split()[0] for line in text.splitlines() if line.startswith("    ")}
    for argv in [(c,) for c in COMMANDS] + [("ring", op) for op in RING_OPS]:
        assert _help_text(capsys, *argv, "-h").startswith(f"usage: delannoy {' '.join(argv)} ")


def _argparse_invocations() -> list[tuple[str, ...]]:
    """Help for every parser, and usage errors that argparse itself reports."""
    out = [("-h",), ("--help",)]
    out += [(c, "-h") for c in COMMANDS]
    out += [("ring", op, "-h") for op in RING_OPS]
    out += [
        (),
        ("-x",),
        ("bogus",),
        ("--n", "3", "count", "--m", "3"),
        ("count", "--n", "2"),
        ("count", "--n", "2", "--m", "2", "--bogus"),
        ("count", "--n", "two", "--m", "1"),
        ("count", "--n", "1", "--m", "1", "--format", "xml"),
        ("count", "--n", "1", "--m", "1", "extra"),
        ("count", "--n", "1", "--m", "1", "--form", "json"),
        ("paths", "--n"),
        ("compose", "--p1", "[[1,1]]"),
        ("compose", "--p", "[[1,1]]"),
        ("trace",),
        ("trace", "--word", "b", "--morphism", "{}"),
        ("decompose",),
        ("ring",),
        ("ring", "bogus"),
        ("ring", "--word", "b", "res"),
        ("ring", "mul", "--x"),
        ("ring", "adams", "--word", "b"),
        ("ring", "schur", "--word", "b"),
        ("ring", "hilbert", "--word", "b", "--n", "1.5"),
        ("verify", "01", "extra"),
        ("verify", "--seed", "x"),
        ("export", "--table", "bogus", "--n", "1"),
        ("export", "--table", "composition", "--n", "1", "--format", "pretty"),
        ("export", "--n", "1"),
    ]
    return out


# sha256 of the argparse invocations' (argv, exit code, stdout, stderr) at
# COLUMNS=80, recorded with every sub-parser built eagerly.  The help and
# error texts of argparse differ between Python versions; this is Python 3.11's.
PINNED_ARGPARSE_SHA256 = {(3, 11): "80c8eaaf5e97883c98478023ef14417470dfc84ce10f2bc81d7db24222895781"}


def test_pinned_argparse_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    invocations = _argparse_invocations()
    for argv in invocations:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        record = [list(argv), code, captured.out, captured.err]
        digest.update(json.dumps(record).encode() + b"\n")
    assert len(invocations) == 46
    if sys.version_info[:2] not in PINNED_ARGPARSE_SHA256:
        pytest.skip(f"argparse output pinned only on {sorted(PINNED_ARGPARSE_SHA256)}")
    assert digest.hexdigest() == PINNED_ARGPARSE_SHA256[sys.version_info[:2]]
