"""Benchmark of the delannoy engine, end to end and layer by layer.

    python3 perfbench/run.py --workload ring-products --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from `src/`.
Each round starts a fresh interpreter (`worker.py`), which times a cold pass
and then warm passes over the workload's operations and checks every output.
Rounds repeat until `--seconds` would be exceeded (at least one round); the
metrics are medians over rounds. With `--trace 1` each round is a pair,
untraced then traced, and the per-layer metrics are printed. Metric names
and units come from `BENCHMARK.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Without `--workload` every
workload runs in turn, each printing its own lines.
"""

from __future__ import annotations

import argparse
import json
import itertools
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    # Bytecode is written under out/ on the first import and read from there
    # on every later one, as an installed package would, so that setup_s does
    # not depend on whether the caller's environment lets Python write it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONOPTIMIZE", None)  # the package's asserts are part of what runs
    return env


def worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1]


def median_of(rounds, key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    begin = time.monotonic()
    worker("import")  # writes the bytecode and warms the file cache
    import_samples = [worker("import")["import_s"] for _ in range(SETUP_SAMPLES)]
    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    modes = (("baseline",), ("traced", str(spans_file))) if trace else (("untraced",),)
    # Each round draws its own inputs from (seed, round), so that a run's
    # medians cover several input sets rather than the luck of one.
    rounds = []
    for round_ in itertools.count():
        start = time.monotonic()
        rounds += [worker(workload, str(seed), str(round_), *mode) for mode in modes]
        now = time.monotonic()
        if now - begin + (now - start) > seconds:
            break

    result = {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    failures = [f for r in rounds for f in r["failures"]]
    if trace:
        untraced, traced = rounds[0::2], rounds[1::2]
        # Counts and ratios come from the first traced round, whose inputs
        # depend on the seed only, so they repeat exactly; times are medians.
        layer = {name: statistics.median(r["layer"][name] for r in traced)
                 if name.endswith("_s") else value
                 for name, value in traced[0]["layer"].items()}
        layer["cli.import_s"] = statistics.median(import_samples)
        layer["trace.overhead_s"] = median_of(traced, "cold_s") - median_of(untraced, "cold_s")
        metrics = {name: (layer[name], unit) for name, unit in metric_units("per_layer").items()}
    else:
        # The machine's speed drifts; medians over the rounds of a run drift least.
        cold = [latency for r in rounds for latency in r["latencies_s"]]
        values = {
            "setup_s": statistics.median(import_samples + [r["import_s"] for r in rounds]),
            "cold_s": median_of(rounds, "cold_s"),
            "warm_s": median_of(rounds, "warm_s"),
            "op_p50_ms": 1000 * statistics.median(cold),
            "op_p90_ms": 1000 * percentile(cold, 90),
            "peak_rss_mib": median_of(rounds, "peak_rss_mib"),
        }
        metrics = {name: (values[name], unit) for name, unit in metric_units("end_to_end").items()}
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result["rounds"] = [{k: r[k] for k in ("cold_s", "cold_wall_s", "warm_s", "peak_rss_mib")}
                        | {"p50_ms": 1000 * statistics.median(r["latencies_s"]),
                           "p90_ms": 1000 * percentile(r["latencies_s"], 90)}
                        for r in rounds]
    result["import_samples"] = import_samples
    result["failures"] = failures
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "delannoy" / "__init__.py").is_file():
        print(f"error: no delannoy sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for failure in result.pop("failures")[:20]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        detail = {"rounds": result.pop("rounds"), "import_samples": result.pop("import_samples")}
        print(f"{name} seed={args.seed} trace={args.trace} rounds={len(detail['rounds'])} "
              f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:.6g} {m['unit']}")
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result | detail, indent=1) + "\n")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
