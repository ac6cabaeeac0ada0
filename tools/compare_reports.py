"""Byte-for-byte comparison of the reports two checkouts write.

    python3 tools/compare_reports.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  In each one
the script runs the ``ramcat`` CLI from that checkout's ``src`` and writes
these reports with ``--output``:

* ``ramcat golden``;
* ``ramcat ramsey check --family ram -A a -B b -C c -k 2`` for each of the 98
  instances (A, B, C) that golden criterion 4 runs on ram(10): every
  1 <= A <= B <= C <= 10 with C(C, A) <= 16;
* ``ramcat ramsey check -k 2`` on 11 instances whose copies are listed by
  character substitution: ``--family gr`` over the group-only files
  ``z2plain.json`` and ``z3plain.json`` (Z2 and Z3 on the empty alphabet),
  and ``--family dram-op``;
* ``ramcat ramsey check`` with more than two colors, where the exhaustive
  engine's canonical masks hold more than one entry short of all lanes:
  ``--family ram -A 1 -B 2 -C 5 -k 3`` (holds), ``--family dram-op -A 2 -B 3
  -C 4 -k 4`` (fails) and ``--family ram -A 1 -B 1 -C 1 -k 4096``;
* ``ramcat ramsey search -k 2``, which certifies each counterexample on the
  way up to the witness: ``--family ram -A 2 -B 3 --max-n 8``, ``--family gr``
  over ``z2plain.json`` with ``-A 1 -B 3 --max-n 6``, and ``--family dram-op
  -A 2 -B 3 --max-n 8``;
* ``ramcat preadj verify --context z2a.json`` (Z2 fixing the one letter a)
  for every named pre-adjunction, and README's composed example; and at the
  benchmark's larger bounds ``gr-to-dram-op --context z2plain.json --bounds
  src<=2,tgt<=7``, ``ram-to-dram-op --bounds src<=5,tgt<=6`` and
  ``gr-plain-to-decorated --context z2a.json --bounds src<=5,tgt<=5``;
* ``ramcat tukey check`` of both kinds on fixed preorder files: README's
  ``anti``/``one`` example; a 15-element order of the benchmark's drawn
  shape (two incomparable maximal elements, no top) under a permutation onto
  a relabelled copy, a constant map, and a map whose first Tukey witness has
  three elements; and the 0-element domain;
* ``ramcat tukey companion`` and ``tukey monotonize`` on README's examples;
* ``ramcat words validate``, ``compose`` and ``enumerate`` over README's
  context file ``z3.json`` (Z3 acting on a, b, c, d), on README's words and
  on one refused word for each refusal code the CLI can reach
  (``first_occurrence_exponent``, ``letter_exponent``,
  ``first_occurrence_order`` and ``missing_parameter``);
* ``ramcat rsurj validate``, ``compose`` and ``dual`` on README's maps, and
  ``rsurj enumerate -n 6 -m 3``;
* ``ramcat category build`` on a ``gr`` builder spec over ``z3.json`` and
  on a spec for each other builder (ram, dram, dram-op, vec, thin-chain);
* ``ramcat category check`` on each builder spec and on six explicit
  tables: one whose composition is not associative; one missing a
  composite, so it is not closed; one of two isomorphic objects; the
  idempotent twins, two isomorphic objects whose e-labelled morphisms are
  neither mono nor iso, so ``all_mono`` and ``iso_homs_match`` are false;
  one with a composite recorded in another hom-set, a closure violation
  and a None left identity; and one whose identity of b is a morphism
  a -> b;
* ``ramcat category skeleton`` on each builder spec and on the last four
  explicit tables; it merges each pair of isomorphic objects into one.

It then compares each report, its exit code and the text the command prints
between the two sides, prints one line per report that differs and a summary
line, and exits 1 when any differs.  The text is where ``words enumerate``
and ``rsurj enumerate`` print their lists.  The golden command's text carries timings and is not
compared; its report does not.  Runs are sequential and single-process; the
script needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

Z2_ONE_LETTER = {"order": 2, "table": [0, 1, 1, 0], "element_names": ["e", "g"], "alphabet": ["a"],
                 "action_table": [0, 0]}
PREADJ = [["--context", "z2a.json", "--instance", name]
          for name in ("identity", "gr-plain-to-decorated", "gr-decorated-to-plain", "gr-to-dram-op",
                       "ram-to-dram-op", "omega-to-fragment", "from-monotone-tukey")]
PREADJ.append(["--context", "z2a.json", "--instance", "composed:gr-plain-to-decorated,gr-decorated-to-plain",
               "--bounds", "src<=2,tgt<=5"])
# the benchmark's larger bounds, where most instances take the suggested v
PREADJ += [["--context", "z2plain.json", "--instance", "gr-to-dram-op", "--bounds", "src<=2,tgt<=7"],
           ["--instance", "ram-to-dram-op", "--bounds", "src<=5,tgt<=6"],
           ["--context", "z2a.json", "--instance", "gr-plain-to-decorated", "--bounds", "src<=5,tgt<=5"]]

# a partial order on 0..14 drawn like the benchmark's: a < b with chance 0.2
# for a < 13 and a < b, so 13 and 14 are maximal and incomparable
DRAWN_15 = [[0, 9], [0, 10], [0, 12], [0, 13], [1, 8], [1, 13], [1, 14], [2, 14], [3, 12], [4, 7], [4, 10],
            [4, 11], [5, 10], [5, 11], [5, 13], [5, 14], [6, 8], [8, 11], [8, 14], [10, 13], [12, 14]]
SIGMA = [3, 10, 8, 7, 0, 6, 2, 13, 12, 1, 4, 14, 5, 9, 11]
PREORDERS = {
    "anti.json": {"leq": [[True, False], [False, True]]},
    "one.json": {"leq": [[True]]},
    "empty.json": {"size": 0, "pairs": []},
    "drawn.json": {"size": 15, "pairs": DRAWN_15},
    "relabelled.json": {"size": 15, "pairs": [[SIGMA[a], SIGMA[b]] for a, b in DRAWN_15]},
}
# (family, context file, A, B, C) of the spelled ramsey checks: holding and
# failing instances, with and without the exhaustive oracle
SPELLED_CHECKS = [("gr", "z2plain.json", 1, 2, 3), ("gr", "z2plain.json", 1, 3, 5), ("gr", "z2plain.json", 2, 3, 4),
                  ("gr", "z2plain.json", 1, 3, 6), ("gr", "z3plain.json", 1, 2, 5), ("gr", "z3plain.json", 1, 3, 6),
                  ("gr", "z3plain.json", 2, 3, 4), ("dram-op", None, 2, 3, 5), ("dram-op", None, 2, 3, 7),
                  ("dram-op", None, 2, 4, 7), ("dram-op", None, 3, 4, 6)]
# (family, A, B, C, k) of the ramsey checks with more than two colors
MANY_COLOR_CHECKS = [("ram", 1, 2, 5, 3), ("dram-op", 2, 3, 4, 4), ("ram", 1, 1, 1, 4096)]
# (family, context file, A, B, max n) of the ramsey searches
SEARCHES = [("ram", None, 2, 3, 8), ("gr", "z2plain.json", 1, 3, 6), ("dram-op", None, 2, 3, 8)]
GROUPS = {"z2plain.json": {"order": 2, "table": [0, 1, 1, 0], "element_names": ["e", "g"]},
          "z3plain.json": {"order": 3, "table": [0, 1, 2, 1, 2, 0, 2, 0, 1], "element_names": ["e", "g", "g2"]}}
# README's context file: Z3 acting on a, b, c, d by a -> b -> c -> a, d fixed
Z3_CONTEXT = {"order": 3, "table": [0, 1, 2, 1, 2, 0, 2, 0, 1], "element_names": ["e", "g", "g2"],
              "alphabet": ["a", "b", "c", "d"], "action_table": [0, 1, 2, 1, 2, 0, 2, 0, 1, 3, 3, 3]}
WORD_FILES = {"u.txt": "c a x1 a x1^g2 x2 d x3 x2^g2 x1^g a x3^g\n", "v.txt": "b x1 x1^g2\n"}
# objects a, b; x and y on a compose like a non-associative magma with identity id_a
MAGMA = {"objects": ["a", "b"],
         "morphisms": {m: {"dom": d, "cod": c} for m, d, c in [("id_a", "a", "a"), ("x", "a", "a"), ("y", "a", "a"),
                                                              ("id_b", "b", "b"), ("f", "a", "b")]},
         "identities": {"a": "id_a", "b": "id_b"},
         "compose": [["id_a", m, m] for m in ("id_a", "x", "y")] + [[m, "id_a", m] for m in ("x", "y")]
         + [["x", "x", "y"], ["x", "y", "x"], ["y", "x", "y"], ["y", "y", "x"], ["id_b", "id_b", "id_b"],
            ["id_b", "f", "f"], ["f", "id_a", "f"], ["f", "x", "f"], ["f", "y", "f"]]}
# objects a, b with f: a -> b and g: b -> a inverse to each other
ISO = {"objects": ["a", "b"],
       "morphisms": {m: {"dom": d, "cod": c} for m, d, c in [("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b"),
                                                            ("g", "b", "a")]},
       "identities": {"a": "id_a", "b": "id_b"},
       "compose": [["id_a", "id_a", "id_a"], ["f", "id_a", "f"], ["id_b", "f", "f"], ["g", "f", "id_a"],
                   ["id_b", "id_b", "id_b"], ["g", "id_b", "g"], ["id_a", "g", "g"], ["f", "g", "id_b"]]}
# two isomorphic objects over the monoid {1, e} with e.e = e: hom(x, y) is
# {xy1, xye}, and composing multiplies the labels, so the e-labelled
# morphisms are neither mono nor iso
TWINS = {"objects": ["a", "b"],
         "morphisms": {f"{x}{y}{t}": {"dom": x, "cod": y} for x in "ab" for y in "ab" for t in "1e"},
         "identities": {"a": "aa1", "b": "bb1"},
         "compose": [[f"{y}{z}{s}", f"{x}{y}{t}", f"{x}{z}{'1' if s == t == '1' else 'e'}"]
                     for x in "ab" for y in "ab" for z in "ab" for s in "1e" for t in "1e"]}
# id_b after f: a -> b is recorded as id_a, a morphism of hom(a, a)
ELSEWHERE = {"objects": ["a", "b"],
             "morphisms": {m: {"dom": d, "cod": c} for m, d, c in [("id_a", "a", "a"), ("id_b", "b", "b"),
                                                                  ("f", "a", "b")]},
             "identities": {"a": "id_a", "b": "id_b"},
             "compose": [["id_a", "id_a", "id_a"], ["id_b", "id_b", "id_b"], ["f", "id_a", "f"],
                         ["id_b", "f", "id_a"]]}
# the identity of b is f: a -> b, a morphism of another hom-set
MISPLACED = {"objects": ["a", "b"],
             "morphisms": {m: {"dom": d, "cod": c} for m, d, c in [("id_a", "a", "a"), ("id_b", "b", "b"),
                                                                  ("f", "a", "b")]},
             "identities": {"a": "id_a", "b": "f"},
             "compose": [["id_a", "id_a", "id_a"], ["f", "id_a", "f"], ["id_b", "f", "f"], ["id_b", "id_b", "id_b"]]}
CATEGORY_SPECS = {
    "gr.json": {"builder": "gr", "params": {"n": 3}},
    "ram.json": {"builder": "ram", "params": {"n": 5}},
    "dram.json": {"builder": "dram", "params": {"n": 5}},
    "dram-op.json": {"builder": "dram-op", "params": {"n": 5}},
    "vec.json": {"builder": "vec", "params": {"q": 2, "n": 3}},
    "thin-chain.json": {"builder": "thin-chain", "params": {"n": 4}},
    "magma.json": MAGMA,
    "open.json": {**MAGMA, "compose": MAGMA["compose"][:-1]},  # f after y is missing
    "iso.json": ISO,
    "twins.json": TWINS,
    "elsewhere.json": ELSEWHERE,
    "misplaced.json": MISPLACED,
}
BUILDER_SPECS = [name for name, spec in CATEGORY_SPECS.items() if "builder" in spec]
SKELETON_SPECS = BUILDER_SPECS + ["iso.json", "twins.json", "elsewhere.json", "misplaced.json"]
WORDS = [
    ["validate", "--context", "z3.json", "x1 x2 x1^g"],
    ["validate", "--context", "z3.json", WORD_FILES["u.txt"].strip()],
    ["validate", "--context", "z3.json", "x1^g x1"],  # first occurrence under g: exit 1
    # one refusal for each other reason the CLI can reach, two of them with a later violation too
    ["validate", "--context", "z3.json", "x1 a^g x2^g"],  # a letter under g, then x2 first under g
    ["validate", "--context", "z3.json", "x1 x2^g a^g"],  # x2 first under g, then a letter under g
    ["validate", "--context", "z3.json", "x2 x1 x2^g a"],  # x2 first occurs before x1
    ["validate", "--context", "z3.json", "x3 x1 x3"],  # x2 never occurs, and x3 comes before x1
    ["compose", "--context", "z3.json", "u.txt", "v.txt"],
    ["enumerate", "--context", "z3.json", "-m", "2", "-n", "3"],
]
RSURJ = [
    ["validate", "(1,2,1)"],
    ["compose", "(1,2,3,2)", "(1,1,2)"],
    ["dual", "(1,1,2,1,3)"],
    ["enumerate", "-n", "6", "-m", "3"],
]
GENERATED = [
    ["companion", "--map", "2*v", "-n", "20"],
    ["monotonize", "--map", "v + 10 if v % 2 == 0 else v // 2", "--steps", "30", "--prefix", "30"],
]
TUKEY = [
    ("anti.json", "one.json", [0, 0]),
    ("drawn.json", "relabelled.json", SIGMA),
    ("drawn.json", "drawn.json", [4] * 15),
    ("drawn.json", "drawn.json", [4, 1, 2, 3, 4, 5, 4, 7, 8, 9, 10, 11, 12, 13, 14]),  # witness (0, 4, 6)
    ("empty.json", "one.json", []),
]


def criterion_4_grid() -> list[tuple[int, int, int]]:
    return [(a, b, c) for c in range(1, 11) for a in range(1, c + 1) if comb(c, a) <= 16
            for b in range(a, c + 1)]


def commands() -> dict[str, list[str]]:
    """Report file name -> CLI arguments, ``--output`` left to the caller."""
    out = {"golden.json": ["golden"]}
    for a, b, c in criterion_4_grid():
        out[f"ramsey-{a}-{b}-{c}.json"] = ["ramsey", "check", "--family", "ram", "-A", str(a), "-B", str(b),
                                           "-C", str(c), "-k", "2"]
    for family, context, a, b, c in SPELLED_CHECKS:
        name = family if context is None else family + "-" + context.removesuffix(".json")
        out[f"ramsey-{name}-{a}-{b}-{c}.json"] = ["ramsey", "check", "--family", family,
                                                  *(["--context", context] if context else []),
                                                  "-A", str(a), "-B", str(b), "-C", str(c), "-k", "2"]
    for family, a, b, c, k in MANY_COLOR_CHECKS:
        out[f"ramsey-{family}-{a}-{b}-{c}-k{k}.json"] = ["ramsey", "check", "--family", family, "-A", str(a),
                                                         "-B", str(b), "-C", str(c), "-k", str(k)]
    for family, context, a, b, n in SEARCHES:
        name = family if context is None else family + "-" + context.removesuffix(".json")
        out[f"search-{name}-{a}-{b}.json"] = ["ramsey", "search", "--family", family,
                                              *(["--context", context] if context else []),
                                              "-A", str(a), "-B", str(b), "-k", "2", "--max-n", str(n)]
    for i, args in enumerate(PREADJ):
        out[f"preadj-{i}.json"] = ["preadj", "verify", *args]
    for i, (dom, cod, f) in enumerate(TUKEY):
        for kind in ("tukey", "cofinal"):
            out[f"{kind}-{i}.json"] = ["tukey", "check", "--kind", kind, "--dom", dom, "--cod", cod,
                                       "--map", json.dumps(f)]
    for args in GENERATED:
        out[f"tukey-{args[0]}.json"] = ["tukey", *args]
    for i, args in enumerate(WORDS):
        out[f"words-{i}.json"] = ["words", *args]
    for i, args in enumerate(RSURJ):
        out[f"rsurj-{i}.json"] = ["rsurj", *args]
    for spec in BUILDER_SPECS:
        out["build-" + spec] = ["category", "build", "--spec", spec, "--context", "z3.json"]
    for spec in CATEGORY_SPECS:
        out["category-" + spec] = ["category", "check", "--spec", spec, "--context", "z3.json"]
    for spec in SKELETON_SPECS:
        out["skeleton-" + spec] = ["category", "skeleton", "--spec", spec, "--context", "z3.json"]
    return out


def run_side(checkout: Path, workdir: Path, runs: dict[str, list[str]]) -> dict[str, tuple[int, bytes, bytes]]:
    """(exit code, report bytes, text printed) of each run, with
    ``checkout/src`` first on the module path and ``workdir`` as the working
    directory."""
    files = {"z2a.json": Z2_ONE_LETTER, "z3.json": Z3_CONTEXT, **GROUPS, **CATEGORY_SPECS, **PREORDERS}
    for name, payload in files.items():
        (workdir / name).write_text(json.dumps(payload), encoding="utf-8")
    for name, text in WORD_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    path = [str(checkout.resolve() / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    results = {}
    for name, args in runs.items():
        done = subprocess.run([sys.executable, "-m", "ramcat.cli", *args, "--output", name],
                              cwd=workdir, env=env, capture_output=True)
        report = workdir / name
        text = b"" if name == "golden.json" else done.stdout
        results[name] = (done.returncode, report.read_bytes() if report.exists() else b"", text)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    runs = commands()
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for side in ("parent", "change"):
            workdir = Path(tmp) / side
            workdir.mkdir()
            sides.append(run_side(getattr(args, side), workdir, runs))
    parent, change = sides
    differ = [name for name in runs if parent[name] != change[name]]
    for name in differ:
        print(f"differs: {name} (exit {parent[name][0]} -> {change[name][0]}, "
              f"{len(parent[name][1])} -> {len(change[name][1])} bytes)")
    missing = [name for name in runs if not parent[name][1]]
    for name in missing:
        print(f"no report: {name} (exit {parent[name][0]} on the parent side)")
    print(f"{len(runs) - len(differ)} of {len(runs)} reports byte-identical "
          f"(golden, {len(criterion_4_grid()) + len(SPELLED_CHECKS) + len(MANY_COLOR_CHECKS)} ramsey check, {len(SEARCHES)} ramsey search, "
          f"{len(PREADJ)} preadj verify, "
          f"{2 * len(TUKEY)} tukey check, {len(GENERATED)} tukey companion/monotonize, {len(WORDS)} words, "
          f"{len(RSURJ)} rsurj, {len(BUILDER_SPECS)} category build, {len(CATEGORY_SPECS)} category check, "
          f"{len(SKELETON_SPECS)} category skeleton)")
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
