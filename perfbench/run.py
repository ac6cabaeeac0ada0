"""ramcat benchmark: time to verdict on the arrow, transport and laws workloads.

    python3 perfbench/run.py --workload arrow --seed 1 --seconds 20 --trace 0

The benchmark imports ramcat from the ``src`` directory beside ``perfbench``
and exits with an error when there is none.  One run

1. runs the workload in this process, single-threaded and closed-loop: one
   query at a time, pass after pass over the query list, while the run is
   expected to end within ``--seconds``;
2. measures set-up (``--trace 0`` only): between passes it starts
   SETUP_SAMPLES fresh interpreters that import ramcat and draw the
   workload's queries from the seed, and times each from process start until
   it is ready to query;
3. checks every verdict, prints a summary, and prints as its last line one
   JSON object with the metrics that BENCHMARK.json declares.

The host's speed drifts by a quarter and more over tens of seconds, so with
``--trace 0`` every time is scaled to a fixed host speed.  Before each query
and each set-up the run times a fixed reference kernel that does not use
ramcat (``probe``).  A pass's times are multiplied by
``REFERENCE_S / median(probes of the pass)``, a set-up's by
``REFERENCE_S / median(probes just before it)``.  A slower ramcat still
reads slower; a slower host does not.  The summary prints the raw medians
beside the scaled ones.

With ``--trace 1`` untraced and traced passes alternate.  The JSON then holds
the per-layer metrics of the traced passes, and their spans are written to
``perfbench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_PROBES = 5
# Median time of one probe on a 2-vCPU Intel Xeon VM with Python 3.11; it
# only fixes the scale in which times are reported.
REFERENCE_S = 0.003
_PROBE_RNG = random.Random(0)
_PROBE_TUPLES = [tuple(_PROBE_RNG.randrange(9) for _ in range(5)) for _ in range(3000)]


@dataclass
class Pass:
    wall: float  # first query to last verdict, probes excluded
    latencies: list[float]
    verdicts: list
    failed: int
    probes: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """REFERENCE_S over the host's probe time during this pass."""
        return REFERENCE_S / median(self.probes)


def probe() -> float:
    """Seconds the reference kernel takes now: an integer loop and a sort of
    tuples.  Of the kernels tried (tuple building with dict counting,
    recursion, random dict lookups, these two), the time of this pair
    followed the workloads' own time most closely from process to process.
    The collector is off inside, so ramcat's garbage is not collected here."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i % 7
    sorted(_PROBE_TUPLES)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import ramcat from this checkout's ``src``, then the query lists."""
    if not (SRC / "ramcat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ramcat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ramcat
    import workloads

    if Path(ramcat.__file__).resolve().parent != SRC / "ramcat":
        sys.exit(f"perfbench: imported ramcat from {ramcat.__file__}, not from {SRC}")
    return workloads


def measure_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has drawn its
    queries and is ready to run the first one, raw and scaled to the host
    speed that probes just before it find."""
    scale = REFERENCE_S / median(probe() for _ in range(SETUP_PROBES))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode:
        sys.exit(f"perfbench: the set-up process failed with code {proc.returncode}")
    return ready - start, (ready - start) * scale


def run_pass(queries, tracer=None, probed=False) -> Pass:
    latencies, verdicts, failed, probes = [], [], 0, []
    for query in queries:
        if probed:
            probes.append(probe())
        begun = perf_counter()
        try:
            verdict = tracer.query(query.name, query.run) if tracer else query.run()
        except Exception as exc:  # a query that raises, budget overruns included, has failed
            verdict = f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - begun)
        verdicts.append(verdict)
        if verdict != query.expected:
            failed += 1
            print(f"FAILED {query.name}: got {verdict!r}, expected {query.expected!r} ({query.source})",
                  file=sys.stderr)
    if probed:
        probes.append(probe())
    return Pass(sum(latencies), latencies, verdicts, failed, probes)


def emit(declared, values, passes, correct):
    attempted = sum(len(p.verdicts) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_untraced(args, queries, declared):
    # Set-ups are spread between passes, so that their median, like the
    # passes', covers the host's state over the whole run.
    setups, passes, spans = [], [], []
    start = perf_counter()
    while True:
        if len(setups) < SETUP_SAMPLES:
            setups.append(measure_setup(args))
        begun = perf_counter()
        passes.append(run_pass(queries, probed=True))
        spans.append(perf_counter() - begun)
        if perf_counter() - start + median(spans) > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup(args))
    raw_latencies = [t for p in passes for t in p.latencies]
    latencies = [t * p.scale for p in passes for t in p.latencies]
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    values = {
        "setup_s": median(scaled for _, scaled in setups),
        "wall_s": median(p.wall * p.scale for p in passes),
        "query_p50_ms": median(latencies) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": median(measured for measured, _ in setups),
        "wall_s": median(p.wall for p in passes),
        "query_p50_ms": median(raw_latencies) * 1000,
    }
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes x {len(queries)} queries = "
          f"{attempted} attempted, {failed} failed, fail_frac {failed / attempted:.4f}")
    print(f"  host speed    {median(p.scale for p in passes):.3f} of the reference, "
          f"{min(p.scale for p in passes):.3f} to {max(p.scale for p in passes):.3f} over the passes")
    print(f"  setup_s       {values['setup_s']:.4f} s    (raw {raw['setup_s']:.4f})  "
          f"median of {len(setups)} set-ups")
    print(f"  wall_s        {values['wall_s']:.4f} s    (raw {raw['wall_s']:.4f})  "
          f"median of {len(passes)} passes")
    print(f"  query_p50_ms  {values['query_p50_ms']:.4f} ms   (raw {raw['query_p50_ms']:.4f})  "
          f"median of {attempted} queries")
    print(f"  peak_rss_mb   {values['peak_rss_mb']:.1f} MiB")
    emit(declared, values, passes, True)


def run_traced(args, queries, declared):
    from tracing import Tracer

    untraced, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        untraced.append(run_pass(queries))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_pass(queries, tracer))
        tracers.append(tracer)
        expected = median(p.wall for p in untraced) + median(p.wall for p in traced)
        if perf_counter() - start + expected > args.seconds:
            break
    layers = [t.layer_metrics() for t in tracers]
    counts = [m["name"] for m in declared if m["unit"] == "count"]
    repeat = all(layer[name] == layers[0][name] for layer in layers for name in counts)
    agree = all(p.verdicts == untraced[0].verdicts for p in untraced + traced)
    values = {name: (layers[0][name] if name in counts else median(layer[name] for layer in layers))
              for name in layers[0]}
    traced_wall = median(p.wall for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - median(p.wall for p in untraced)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
    spans.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "fields": ["id", "name", "start", "end", "parent"],
                                 "passes": [t.spans for t in tracers]}))
    print(f"{args.workload} seed={args.seed}: {len(traced)} traced and {len(untraced)} untraced passes "
          f"x {len(queries)} queries; counts repeat: {repeat}; verdicts agree: {agree}; spans in {spans}")
    for m in declared:
        print(f"  {m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    emit(declared, values, untraced + traced, repeat and agree)


def main(argv=None):
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    queries = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        run_traced(args, queries, declared["per_layer"])
    else:
        run_untraced(args, queries, declared["end_to_end"])


if __name__ == "__main__":
    main()
