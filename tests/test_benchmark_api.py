"""The library surface the benchmark in ``perfbench/`` uses, checked in
seconds: one cheap query of each workload runs under the benchmark's own
tracer.  ``Tracer.installed()`` raises when a function it wraps is no longer
bound in a ramcat module, and a query fails when a builder or engine it
calls changes its signature."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("workload, name", [
    ("arrow", "search gr swap (2)^1_2 C=3"),
    ("transport", "verify gr-plain-to-decorated swap 3"),
    ("laws", "laws gr(swap, 4)"),
])
def test_a_traced_query_of_each_workload_runs(workload, name):
    query = next(q for q in workloads.build(workload, 7) if q.name == name)
    tracer = tracing.Tracer()
    with tracer.installed():
        verdict = tracer.query(query.name, query.run)
    assert verdict == query.expected
    layers = tracer.layer_metrics()
    # every query composes words through a gr fragment, and the tracer sees it
    assert layers["category.build.morphisms"] > 0
    assert layers["words.substitute.calls"] > 0
