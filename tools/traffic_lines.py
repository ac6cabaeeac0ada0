"""The lines of ``src/ramcat`` that the program's traffic never runs.

    python3 tools/traffic_lines.py

The traffic is one pass of each benchmark workload (the queries of
``perfbench/workloads.py``'s ``build`` at seed 7), then
``run_golden_suite()``, then every CLI run of ``tools/compare_reports.py``
but ``golden``, in process through click's test runner, in a temporary
directory holding the files those runs read.  A ``sys.settrace`` line
tracer records each line of ``src/ramcat`` that runs, from the import on.

For each module the script prints the executable lines never reached, as
ranges, then a total.  The executable lines of a module are the line
numbers of its compiled code objects.  Nearly all unreached lines are
raise branches; the rest is code that only tests keep alive.

It exits 1 when a workload query returns a verdict other than the one it
expects, or the golden suite fails.  It needs only the standard library and
click, which ramcat needs anyway.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ramcat"
SEED = 7


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def run_traffic() -> int:
    """Run the traffic; the number of wrong verdicts."""
    import compare_reports
    import workloads
    from click.testing import CliRunner

    from ramcat.cli import main
    from ramcat.golden import run_golden_suite

    wrong = 0
    for workload in workloads.WORKLOADS:
        for query in workloads.build(workload, SEED):
            try:
                verdict = query.run()
            except Exception as exc:  # as in perfbench/run.py: a query that raises has failed
                verdict = f"raised {type(exc).__name__}: {exc}"
            if verdict != query.expected:
                wrong += 1
                print(f"FAILED {workload}: {query.name}: got {verdict!r}, expected {query.expected!r}",
                      file=sys.stderr)
    if not run_golden_suite()["ok"]:
        wrong += 1
        print("FAILED the golden suite", file=sys.stderr)
    files = {"z2a.json": compare_reports.Z2_ONE_LETTER, "z3.json": compare_reports.Z3_CONTEXT,
             **compare_reports.GROUPS, **compare_reports.CATEGORY_SPECS, **compare_reports.PREORDERS}
    runs = {name: args for name, args in compare_reports.commands().items() if name != "golden.json"}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in files.items():
            Path(tmp, name).write_text(json.dumps(payload), encoding="utf-8")
        for name, text in compare_reports.WORD_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            runner = CliRunner()
            for name, args in runs.items():
                runner.invoke(main, [*args, "--output", name])
        finally:
            os.chdir(here)
    print(f"traffic: {sum(len(workloads.build(w, SEED)) for w in workloads.WORKLOADS)} workload queries "
          f"at seed {SEED}, the golden suite, {len(runs)} CLI runs; {wrong} wrong verdicts")
    return wrong


def main() -> int:
    if "ramcat" in sys.modules:
        sys.exit("traffic_lines: ramcat is imported already, so its import would not be traced")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    modules = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {str(path): set() for path in modules}

    def line(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return line

    sys.settrace(call)
    try:
        wrong = run_traffic()
    finally:
        sys.settrace(None)
    unreached_total = executable_total = 0
    for path in modules:
        lines = executable_lines(path)
        unreached = sorted(lines - hits[str(path)])
        unreached_total += len(unreached)
        executable_total += len(lines)
        print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(lines)} executable lines never run"
              + (f": {ranges(unreached)}" if unreached else ""))
    print(f"total: {unreached_total} of {executable_total} executable lines never run")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
