"""Smoke test of the benchmark at its smallest size: one pass per run.

    python3 perfbench/smoke.py [workload ...]

For each workload (all that BENCHMARK.json names, by default) it prints the
end-to-end metrics of one pass, and checks that

* an untraced run prints every end-to-end metric, each with its unit and a
  value above zero, and that no query fails (fail_frac is 0);
* two traced runs at one seed print every per-layer metric, fail no query,
  and report equal counts.

It exits with code 1 and names the problems if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode:
        sys.exit(f"smoke: {' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def problems_of(result: dict, declared: list, label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: correct={result['correct']}, "
                        f"{result['failed']} of {result['attempted']} queries failed")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{label}: {m['name']} is missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} has unit {got['unit']}, not {m['unit']}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = bench["end_to_end"], bench["per_layer"]
    problems = []
    for workload in argv or [w["name"] for w in bench["workloads"]]:
        plain = run(workload, 0)
        problems += problems_of(plain, end_to_end, f"{workload} untraced")
        problems += [f"{workload} untraced: {m['name']} is {plain['metrics'][m['name']]['value']}"
                     for m in end_to_end
                     if m["name"] in plain["metrics"] and not plain["metrics"][m["name"]]["value"] > 0]
        first, second = run(workload, 1), run(workload, 1)
        for label, result in (("traced run 1", first), ("traced run 2", second)):
            problems += problems_of(result, per_layer, f"{workload} {label}")
        problems += [f"{workload}: {m['name']} is {first['metrics'][m['name']]['value']} and then "
                     f"{second['metrics'][m['name']]['value']}"
                     for m in per_layer
                     if m["unit"] == "count" and m["name"] in first["metrics"] and m["name"] in second["metrics"]
                     and first["metrics"][m["name"]]["value"] != second["metrics"][m["name"]]["value"]]
        shown = ", ".join(f"{name} {got['value']:.4g} {got['unit']}" for name, got in plain["metrics"].items())
        print(f"{workload}: {shown}, fail_frac {plain['failed'] / plain['attempted']:.4g} "
              f"of {plain['attempted']} queries; {len(problems)} problems so far", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
