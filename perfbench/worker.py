"""One round of a workload in a fresh interpreter: a cold pass, a warm pass
over the same operations, then the checks.

    python3 perfbench/worker.py <workload> <seed> <round> <untraced|baseline|traced> [spans file]

`run.py` starts it with `src` on PYTHONPATH. It prints one JSON object; with
`import` as the workload it only times `import delannoy.cli` and exits.
Every memo cache in the package is process-global, so a fresh process is
the only way to start a pass with empty caches.

Times are CPU time (user + system), not wall time: on a shared virtual
machine the host takes the virtual CPU away for stretches of a second or
more (steal time), which stretches wall time by up to a half and moves it
from run to run, while the program, single-threaded and doing no I/O
within a pass, costs the same CPU time. On an idle machine the two agree.

Untraced `cli-session` runs each operation as its own `python3 -m
delannoy.cli` process, one at a time; its times are those processes' CPU
time and its peak memory that of the largest of them. Traced, it calls
`cli.main` in this process, and so does `baseline`, the untraced round a
traced run compares against; for the other workloads `baseline` is
`untraced`.
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60


class Raised:
    """Stands for the output of an operation that raised."""

    def __init__(self, exc: Exception):
        self.text = f"raised {type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def children_cpu_s() -> float:
    """CPU time of every child process this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_pass(ops, run, clock) -> tuple:
    results, latencies = [], []
    gc.collect()
    begin = clock()
    for op in ops:
        start = clock()
        try:
            results.append(run(op))
        except Exception as exc:  # counted as a failed operation
            results.append(Raised(exc))
        latencies.append(clock() - start)
    return clock() - begin, latencies, results


def run_cli_process(op) -> tuple:
    """(exit code, stdout, stderr) of `delannoy <argv>` run as a fresh process."""
    proc = subprocess.run([sys.executable, "-m", "delannoy.cli", *op[1]], cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def problems_with(workloads, op, got) -> list:
    if isinstance(got, Raised):
        return [got.text]
    return workloads.check(op, workloads.plain(got))


def main(argv: list[str]) -> int:
    workload = argv[0]
    start = time.process_time()
    import delannoy.cli  # noqa: F401 - timed: it imports every layer
    import_s = time.process_time() - start
    import delannoy
    if Path(delannoy.__file__).resolve().parent != ROOT / "src" / "delannoy":
        print(f"error: imported delannoy from {delannoy.__file__}", file=sys.stderr)
        return 2
    if workload == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    import tracing
    import workloads

    seed, round_, mode = int(argv[1]), int(argv[2]), argv[3]
    ops = workloads.make_ops(workload, seed, round_)
    run, clock, usage = workloads.run, time.process_time, resource.RUSAGE_SELF
    if workload == "cli-session" and mode == "untraced":
        # RUSAGE_CHILDREN of this process covers only those delannoy processes.
        run, clock, usage = run_cli_process, children_cpu_s, resource.RUSAGE_CHILDREN
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    wall_start = time.perf_counter()
    cold_s, latencies, cold = timed_pass(ops, run, clock)
    cold_wall_s = time.perf_counter() - wall_start
    warm_s, _, warm = timed_pass(ops, run, clock)
    peak_rss_mib = resource.getrusage(usage).ru_maxrss / 1024
    layer = tracer.metrics() if tracer else {}

    failed, wrong, failures = 0, 0, []
    for op, got, again in zip(ops, cold, warm):
        problems = problems_with(workloads, op, got)
        if workloads.plain(again) == workloads.plain(got):
            warm_problems = problems
        else:
            warm_problems = ["the warm pass gave a different output"]
            warm_problems += problems_with(workloads, op, again)
        failed += bool(problems) + bool(warm_problems)
        wrong += (bool(problems) and not isinstance(got, Raised)) + (
            bool(warm_problems) and not isinstance(again, Raised))
        if problems or warm_problems:
            text = "; ".join(dict.fromkeys(problems + warm_problems))
            failures.append(f"{op[0]} {op[1]!r:.200}: {text:.400}")
    if tracer:
        layer["cli.output_bytes"] = sum(
            len(r[1].encode()) for (kind, _), r in zip(ops + ops, cold + warm)
            if kind in workloads.CLI_KINDS and not isinstance(r, Raised))
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps({
        "import_s": import_s,
        "cold_s": cold_s,
        "cold_wall_s": cold_wall_s,
        "warm_s": warm_s,
        "latencies_s": latencies,
        "peak_rss_mib": peak_rss_mib,
        "attempted": 2 * len(ops),
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
