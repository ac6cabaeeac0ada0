"""Paired parent/change runs of the benchmark, written to a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --output BENCH_7.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For each
workload in CHANGE_DIR's BENCHMARK.json the script runs PAIRS pairs of its
benchmark command for its ``run_seconds``, one run on each checkout per
pair, with the same seed on both sides (pair i runs seed FIRST_SEED + i)
and the side that runs first alternating from pair to pair, so a drift in
host speed falls on both sides alike.  It then runs one traced pass per
side (``--trace 1``, seed TRACE_SEED, TRACE_SECONDS long) for the
per-layer counters.

Every run starts with ``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPYCACHEPREFIX``
set to a fresh, empty temporary directory, so neither side reads bytecode
cached by an earlier run, whatever ``__pycache__`` directories its checkout
holds, and each side compiles its sources alike.  Nothing in the checkouts
is deleted.  The output's ``host`` section records the setting.

The output holds, per workload and end-to-end metric, each side's median
and quartiles, the pairs the change won and lost (ties count for neither),
the relative change of the median, and every run.  The traced pass is not
scaled to the host's speed, so compare its counts, not its times.  Runs are
sequential and single-process; the script needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

PAIRS = 10
FIRST_SEED = 101
TRACE_SEED = 7
TRACE_SECONDS = 10
NO_BYTECODE_CACHE = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": "a fresh, empty directory per run"}


def run(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; its last output line is the metrics object."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as prefix:
        env = {**os.environ, **NO_BYTECODE_CACHE, "PYTHONPYCACHEPREFIX": prefix}
        done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
    last = [line for line in done.stdout.splitlines() if line.strip()][-1]
    return json.loads(last)


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], metric: str, better: str) -> dict:
    parent = [r["parent"][metric] for r in runs]
    change = [r["change"][metric] for r in runs]
    sign = 1 if better == "lower" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p, c = spread(parent), spread(change)
    return {
        "better": better,
        "parent": p,
        "change": c,
        "pairs": len(runs),
        "pairs_won": won,
        "pairs_lost": lost,
        "median_change": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "median_gap_over_parent_iqr": (sign * (p["median"] - c["median"]) / p["iqr"]) if p["iqr"] else None,
    }


def host() -> dict:
    """The interpreter, platform and processor model the runs used, and
    the environment that keeps every run from reading cached bytecode."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "processor": model, "cpus": os.cpu_count(), "bytecode_cache": NO_BYTECODE_CACHE}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--output", type=Path, required=True)
    opts = parser.parse_args()

    spec = json.loads((opts.change / "BENCHMARK.json").read_text())
    command = spec["command"]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": opts.parent, "change": opts.change}

    out = {"command": command, "seconds": seconds, "host": host(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            entry = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                result = run(sides[side], command, workload, seed, seconds, 0)
                entry[side] = {name: result["metrics"][name]["value"] for name in metrics}
                entry[side + "_failed"] = f"{result['failed']}/{result['attempted']}"
                entry[side + "_correct"] = result["correct"]
            runs.append(entry)
            print(f"{workload} pair {i}: " + ", ".join(
                f"{name} {entry['parent'][name]:.4g} -> {entry['change'][name]:.4g}" for name in metrics),
                file=sys.stderr, flush=True)
        traced = {side: {name: m["value"] for name, m in
                         run(path, command, workload, TRACE_SEED, TRACE_SECONDS, 1)["metrics"].items()}
                  for side, path in sides.items()}
        out["workloads"][workload] = {
            "summary": {name: summarize(runs, name, better) for name, better in metrics.items()},
            "traced": {"seed": TRACE_SEED, "seconds": TRACE_SECONDS, **traced},
            "runs": runs,
        }
        opts.output.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {opts.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
