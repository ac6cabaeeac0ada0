import json
import re
import shlex
import time
import traceback
from math import comb
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ramcat.category
from ramcat.arrows import Coloring, certify_bad_coloring
from ramcat.cli import main
from ramcat.groups import cycle_action, cyclic_group

from conftest import action_to_dict, stirling

Z3_CONTEXT = action_to_dict(cycle_action(cyclic_group(3), "abcd", [1, 2, 0, 3]))
Z2_GROUP = {"order": 2, "table": [0, 1, 1, 0], "element_names": ["e", "g"]}
Z2_ONE_LETTER = {**Z2_GROUP, "alphabet": ["a"], "action_table": [0, 0]}  # Z2 fixing the letter a
SWAP_CONTEXT = action_to_dict(cycle_action(cyclic_group(2), "ab", [1, 0]))

GOLDEN_U = "c a x1 a x1^g2 x2 d x3 x2^g2 x1^g a x3^g"
GOLDEN_V = "b x1 x1^g2"
GOLDEN_RESULT = "c a b a a x1 d x1^g2 x1^g2 c a x1"


class GuardedRunner(CliRunner):
    """A CliRunner that fails any invocation ending in an exception other
    than SystemExit: outside input must end with a documented exit code,
    never with a traceback."""

    def invoke(self, *args, **kwargs):
        result = super().invoke(*args, **kwargs)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            pytest.fail("traceback from the CLI:\n" + "".join(traceback.format_exception(*result.exc_info)))
        return result


@pytest.fixture()
def runner():
    return GuardedRunner()


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    elif isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_words_compose_golden(runner, tmp_path):
    ctx = write(tmp_path, "z3.json", Z3_CONTEXT)
    u = write(tmp_path, "u.txt", GOLDEN_U + "\n")
    v = write(tmp_path, "v.txt", GOLDEN_V + "\n")
    result = runner.invoke(main, ["words", "compose", "--context", ctx, u, v])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == GOLDEN_RESULT


def test_words_validate_ok_and_failure(runner, tmp_path):
    ctx = write(tmp_path, "z3.json", Z3_CONTEXT)
    good = runner.invoke(main, ["words", "validate", "--context", ctx, GOLDEN_U])
    assert good.exit_code == 0
    bad = runner.invoke(main, ["words", "validate", "--context", ctx, "x2 x1"])
    assert bad.exit_code == 1
    report = json.loads(bad.output)
    assert report["code"] == "first_occurrence_order"


def test_error_report_data_keeps_integers(runner):
    result = runner.invoke(main, ["words", "validate", "x2 x1"])
    assert result.exit_code == 1
    assert json.loads(result.output)["data"] == {"k": 1, "l": 2}


def test_words_enumerate_count(runner):
    result = runner.invoke(main, ["words", "enumerate", "-m", "2", "-n", "3", "--quiet"])
    assert result.exit_code == 0
    assert json.loads(result.output)["count"] == 3


@pytest.mark.parametrize("args", [
    ["words", "enumerate", "-m", "4", "-n", "30", "--quiet"],
    ["rsurj", "enumerate", "-n", "30", "-m", "4", "--quiet"],
    ["words", "enumerate", "-m", "1", "-n", "1000000", "--quiet"],  # one word, a million letters long
    ["words", "enumerate", "-m", "1", "-n", str(10 ** 18), "--quiet"],
], ids=["words", "rsurj", "one-long-word", "huge-n"])
def test_enumerate_over_the_cap_is_refused_before_listing(runner, args):
    started = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 3, result.output
    error = json.loads(result.output)["error"]
    assert re.search(r"would list at least \d+ (words|maps) of \d+ letters", error)
    assert f"cap of {ramcat.category.DEFAULT_HOM_CAP} letters in all" in error


def test_enumerate_under_the_cap_still_lists(runner):
    # S(10, 4) = 34,105 maps of 10 letters, the largest rsurj listing here
    count = runner.invoke(main, ["rsurj", "enumerate", "-n", "10", "-m", "4", "--quiet"])
    assert count.exit_code == 0 and json.loads(count.output)["count"] == stirling(10, 4) == 34105
    listed = runner.invoke(main, ["words", "enumerate", "-m", "1", "-n", "3"])
    assert listed.exit_code == 0 and listed.output.splitlines() == ["x1 x1 x1"]
    empty = runner.invoke(main, ["words", "enumerate", "-m", "0", "-n", str(10 ** 18), "--quiet"])
    assert empty.exit_code == 0 and json.loads(empty.output)["count"] == 0


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["words", "enumerate", "-m", "2"])
    assert result.exit_code == 2


def test_bad_context_file_is_usage_error(runner, tmp_path):
    ctx = write(tmp_path, "bad.json", "{not json")
    result = runner.invoke(main, ["words", "validate", "--context", ctx, "x1"])
    assert result.exit_code == 2


@pytest.mark.parametrize("bad", [
    {"action_table": [[1, 2], [1, 0]]},  # letter 2 of a two-letter alphabet
    {"action_table": [[0, -1], [1, 0]]},  # a negative letter
    {"table": [[0, 1], [1, 2]]},  # element 2 of a group of order 2
    # the rows above are nested, so the shape check refuses them; these are flat
    {"action_table": [1, 2, 1, 0]},
    {"action_table": [0, -1, 1, 0]},
    {"table": [0, 1, 1, 2]},
    # JSON values Python would take as indices: true is 1, 1.0 == 1, int("2") == 2
    {"table": [0, 1, True, 0]},
    {"table": [0, 1, 1.0, 0]},
    {"table": [0, 1, "1", 0]},
    {"action_table": [0, True, 1, 0]},
    {"action_table": [0, 1.0, 1, 0]},
    {"action_table": [0, "1", 1, 0]},
    {"order": True, "table": [0], "element_names": ["e"], "action_table": [0, 1]},
    {"order": 2.0},
    {"order": "2"},
])
def test_words_compose_refuses_out_of_range_tables(runner, tmp_path, bad):
    # substitute indexes these tables without bounds checks; loading the
    # context must refuse them first
    ctx = write(tmp_path, "bad.json", {**SWAP_CONTEXT, **bad})
    u = write(tmp_path, "u.txt", "x1 a x1^g\n")
    v = write(tmp_path, "v.txt", "b\n")
    result = runner.invoke(main, ["words", "compose", "--context", ctx, u, v])
    assert result.exit_code == 2, result.output
    assert "bad context file" in result.output


def test_rsurj_commands(runner):
    ok = runner.invoke(main, ["rsurj", "validate", "(1,2,1)"])
    assert ok.exit_code == 0
    bad = runner.invoke(main, ["rsurj", "validate", "(2,1,1)"])
    assert bad.exit_code == 1
    comp = runner.invoke(main, ["rsurj", "compose", "(1,2,3,2)", "(1,1,2)"])
    assert comp.exit_code == 0 and comp.output.strip() == "(1,1,2,1)"
    count = runner.invoke(main, ["rsurj", "enumerate", "-n", "4", "-m", "2", "--quiet"])
    assert json.loads(count.output)["count"] == 7
    d = runner.invoke(main, ["rsurj", "dual", "(1,1,2,1,3)"])
    assert d.output.strip() == "(1,3,5)"


# a map's codomain is its largest value, so () is the empty map 0 -> 0
@pytest.mark.parametrize("args,exit_code,check", [
    pytest.param(["rsurj", "validate", "()"], 0,
                 lambda out: json.loads(out) == {"ok": True, "map": "()", "dom": 0, "cod": 0},
                 id="validate-empty-map"),
    pytest.param(["rsurj", "compose", "(1,2)", "()"], 1,
                 lambda out: json.loads(out)["code"] == "chain_mismatch",
                 id="compose-empty-map"),
    pytest.param(["rsurj", "dual", "()"], 0, lambda out: out.strip() == "()", id="dual-empty-map"),
])
def test_empty_map_is_zero_to_zero(runner, args, exit_code, check):
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert check(result.output), result.output


@pytest.mark.parametrize("args", [
    ["rsurj", "validate", f"(1,{10 ** 12})"],
    ["rsurj", "compose", "(1,1)", f"(1,{10 ** 12})"],
    ["rsurj", "dual", f"(1,{10 ** 12})"],
])
def test_rsurj_huge_cod_is_not_surjective(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["code"] == "not_surjective"


def test_category_build_and_check(runner, tmp_path):
    spec = write(tmp_path, "frag.json", {"builder": "ram", "params": {"n": 3}})
    built = runner.invoke(main, ["category", "build", "--spec", spec])
    assert built.exit_code == 0
    assert json.loads(built.output)["morphisms"] > 0
    checked = runner.invoke(main, ["category", "check", "--spec", spec])
    assert checked.exit_code == 0
    report = json.loads(checked.output)
    assert report["ok"] and not any(report["laws"].values())
    structure = report["structure"]
    assert structure["all_mono"] and not structure["is_thin"]


def test_category_check_refuses_a_composite_in_another_hom_set(runner, tmp_path):
    # id_b after f: a -> b is recorded as id_a, a morphism of hom(a, a)
    spec = write(tmp_path, "frag.json", {
        "objects": ["a", "b"],
        "morphisms": {"id_a": {"dom": "a", "cod": "a"}, "id_b": {"dom": "b", "cod": "b"},
                      "f": {"dom": "a", "cod": "b"}},
        "identities": {"a": "id_a", "b": "id_b"},
        "compose": [["id_a", "id_a", "id_a"], ["id_b", "id_b", "id_b"], ["f", "id_a", "f"], ["id_b", "f", "id_a"]],
    })
    result = runner.invoke(main, ["category", "check", "--spec", spec])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert not report["ok"] and report["structure"] is None
    assert report["laws"]["closure_violations"] == [
        "{'g': Morphism(dom='b', cod='b', payload='id_b'), 'f': Morphism(dom='a', cod='b', payload='f'), "
        "'composite': None}"]


def test_category_check_reports_a_misplaced_identity(runner, tmp_path):
    # the identity of b is f: a -> b, which cannot be composed after f
    spec = write(tmp_path, "frag.json", {
        "objects": ["a", "b"],
        "morphisms": {"id_a": {"dom": "a", "cod": "a"}, "id_b": {"dom": "b", "cod": "b"},
                      "f": {"dom": "a", "cod": "b"}},
        "identities": {"a": "id_a", "b": "f"},
        "compose": [["id_a", "id_a", "id_a"], ["f", "id_a", "f"], ["id_b", "f", "f"], ["id_b", "id_b", "id_b"]],
    })
    result = runner.invoke(main, ["category", "check", "--spec", spec])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert not report["ok"] and report["structure"] is not None
    violations = report["laws"]["identity_violations"]
    assert violations[:2] == ["{'object': 'b', 'reason': 'identity missing from hom-set'}",
                              "{'morphism': Morphism(dom='a', cod='b', payload='f'), 'left': None, "
                              "'right': Morphism(dom='a', cod='b', payload='f')}"]


def test_category_check_reports_missing_composites(runner, tmp_path):
    # f1..f5 on one object with no composite recorded but id_a after id_a:
    # five identity violations cut the law check before closure, and the
    # structural checks meet a missing composite
    spec = write(tmp_path, "frag.json", {
        "objects": ["a"],
        "morphisms": {m: {"dom": "a", "cod": "a"} for m in ("id_a", "f1", "f2", "f3", "f4", "f5")},
        "identities": {"a": "id_a"},
        "compose": [["id_a", "id_a", "id_a"]],
    })
    result = runner.invoke(main, ["category", "check", "--spec", spec])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert report["structure"] is None and len(report["laws"]["identity_violations"]) == 5
    assert not report["laws"]["closure_violations"]


def test_category_context_is_read_only_for_gr_specs(runner, tmp_path):
    bad = write(tmp_path, "bad.json", {"order": 2})
    gr = write(tmp_path, "gr.json", {"builder": "gr", "params": {"n": 2}})
    refused = runner.invoke(main, ["category", "check", "--spec", gr, "--context", bad])
    assert refused.exit_code == 2, refused.output
    for command in ("build", "check", "skeleton"):
        spec = write(tmp_path, "frag.json", {"builder": "dram", "params": {"n": 3}})
        alone = runner.invoke(main, ["category", command, "--spec", spec])
        ignored = runner.invoke(main, ["category", command, "--spec", spec, "--context", bad])
        assert alone.exit_code == ignored.exit_code == 0 and ignored.output == alone.output, command


def test_category_skeleton(runner, tmp_path):
    spec = write(tmp_path, "frag.json", {"builder": "dram", "params": {"n": 3}})
    result = runner.invoke(main, ["category", "skeleton", "--spec", spec])
    assert result.exit_code == 0
    assert json.loads(result.output)["objects"] == ["1", "2", "3"]


def test_ramsey_check_holds_and_fails(runner):
    ok = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                              "-A", "1", "-B", "2", "-C", "3", "-k", "2"])
    assert ok.exit_code == 0
    report = json.loads(ok.output)
    assert report["exhaustive"]["holds"] and report["search"]["holds"]
    fails = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                                 "-A", "2", "-B", "3", "-C", "5", "-k", "2"])
    assert fails.exit_code == 1
    report = json.loads(fails.output)
    assert report["search"]["certified"]


def test_ramsey_check_with_many_colors_builds_its_lane_masks_quickly(runner):
    # one position and 4,096 colors: the oracle's one lane position has
    # 4,096 colors, whose canonical masks once took seconds to build
    started = time.perf_counter()
    result = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                                  "-A", "1", "-B", "1", "-C", "1", "-k", "4096"])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"] and report["search"]["holds"] and report["exhaustive"]["holds"]
    assert report["exhaustive"]["stats"] == {"colorings": 1, "copies": 1, "hom_ac": 1}


def test_ramsey_check_skips_the_oracle_beyond_its_colouring_budget(runner):
    # 2^21 colourings exceed the default budget; the search decides alone
    result = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                                  "-A", "2", "-B", "3", "-C", "7", "-k", "2"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"] and report["search"]["holds"]
    assert report["exhaustive"] == {"skipped": "2^21 colorings exceed the budget of 1000000",
                                    "stats": {"hom_ac": 21, "copies": 35}}
    small = runner.invoke(main, ["ramsey", "check", "--family", "ram", "-A", "2", "-B", "3", "-C", "6",
                                 "-k", "2", "--budget-colorings", "100"])
    assert small.exit_code == 0, small.output
    assert json.loads(small.output)["exhaustive"]["stats"] == {"hom_ac": 15, "copies": 20}


def test_ramsey_search_finds_six(runner):
    result = runner.invoke(main, ["ramsey", "search", "--family", "ram",
                                  "-A", "2", "-B", "3", "-k", "2", "--max-n", "8"])
    assert result.exit_code == 0
    assert json.loads(result.output)["minimal_n"] == 6


def test_ramsey_search_not_found_keeps_its_log(runner):
    result = runner.invoke(main, ["ramsey", "search", "--family", "dram-op",
                                  "-A", "2", "-B", "4", "-k", "2", "--max-n", "8"])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert report["code"] == "not_found_within_bound" and report["data"] == {"n_max": 8}
    assert [entry["n"] for entry in report["log"]] == [4, 5, 6, 7, 8]
    for entry in report["log"]:
        n = entry["n"]
        assert entry["holds"] is False
        coloring = Coloring(2, n, 2, tuple(entry["counterexample"]))
        assert certify_bad_coloring(ramcat.category.dram_op_fragment(n), 2, 4, n, coloring)


def test_ramsey_budget_exit_code(runner):
    result = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                                  "-A", "2", "-B", "3", "-C", "6", "-k", "2",
                                  "--budget-nodes", "5"])
    assert result.exit_code == 3
    report = json.loads(result.output)
    assert report["stats"]["nodes"] == 5
    assert set(report["stats"]) == {"nodes", "forced", "prefix"}


@pytest.mark.parametrize("c", [6, 5])
def test_ramsey_check_both_engines_compose_each_pair_once(runner, monkeypatch, c):
    # both engines read one listing of the copies, made with the rule on
    # payloads: |hom(3, C)| * |hom(2, 3)| rule calls and no compose; a bad
    # coloring at C=5 is re-certified through the rule too, each copy up to
    # its second color (26 of the 30 pairs, with the f that showed the last
    # copy's second color tried first)
    from ramcat.category import CategoryFragment

    calls = {"compose": 0, "rule": 0}
    compose, init = CategoryFragment.compose, CategoryFragment.__init__

    def counted(self, g, f):
        calls["compose"] += 1
        return compose(self, g, f)

    def counting_rule(self, name, objects, hom, identity, rule, build=None):
        def counted_rule(g, f):
            calls["rule"] += 1
            return rule(g, f)

        init(self, name, objects, hom, identity, counted_rule, build=build)

    monkeypatch.setattr(CategoryFragment, "compose", counted)
    monkeypatch.setattr(CategoryFragment, "__init__", counting_rule)
    result = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                                  "-A", "2", "-B", "3", "-C", str(c), "-k", "2"])
    report = json.loads(result.output)
    assert report["search"]["holds"] == report["exhaustive"]["holds"] == (c == 6)
    certified = {6: 0, 5: 26}[c]
    assert calls == {"compose": 0, "rule": comb(c, 3) * comb(3, 2) + certified}
    assert {"nodes", "forced"} <= set(report["search"]["stats"])


def test_preadj_list(runner):
    result = runner.invoke(main, ["preadj", "list"])
    assert result.exit_code == 0
    assert "gr-to-dram-op" in result.output


def test_preadj_verify_gr_to_dramop(runner, tmp_path):
    group = write(tmp_path, "z2.json", Z2_GROUP)
    result = runner.invoke(main, ["preadj", "verify", "--instance", "gr-to-dram-op",
                                  "--context", group, "--bounds", "src<=2,tgt<=6"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failure_count"] == 0 and report["phi_landing_failure_count"] == 0
    assert report["cardinality_ok"]


def test_preadj_verify_decorated_instance(runner, tmp_path):
    ctx = write(tmp_path, "swap.json", SWAP_CONTEXT)
    result = runner.invoke(main, ["preadj", "verify", "--instance", "gr-plain-to-decorated",
                                  "--context", ctx, "--bounds", "src<=3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["failure_count"] == 0


def test_preadj_verify_composed(runner, tmp_path):
    ctx = write(tmp_path, "z2a.json", Z2_ONE_LETTER)
    result = runner.invoke(main, [
        "preadj", "verify",
        "--instance", "composed:gr-plain-to-decorated,gr-decorated-to-plain",
        "--context", ctx, "--bounds", "src<=2,tgt<=5",
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["failure_count"] == 0


def test_preadj_verify_composed_shares_middle_fragment(runner, tmp_path, monkeypatch):
    # adjacent factors share their middle fragment, so no word is listed
    # just to compare the two before verification starts; the gr source
    # decides phi's landing from the word, so hom(B, H(C)) is not listed
    import ramcat.category
    import ramcat.cli

    listed = [0]
    enumerate_words = ramcat.category.enumerate_words

    def counted(*args):
        for word in enumerate_words(*args):
            listed[0] += 1
            yield word

    before = []
    verify_pa = ramcat.cli.verify_pa

    def verify(*args, **kwargs):
        before.append(listed[0])
        return verify_pa(*args, **kwargs)

    monkeypatch.setattr(ramcat.category, "enumerate_words", counted)
    monkeypatch.setattr(ramcat.cli, "verify_pa", verify)
    ctx = write(tmp_path, "z2a.json", Z2_ONE_LETTER)
    result = runner.invoke(main, [
        "preadj", "verify",
        "--instance", "composed:gr-plain-to-decorated,gr-decorated-to-plain",
        "--context", ctx, "--bounds", "tgt<=6",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert (report["ok"], report["instances_checked"], report["failure_count"]) == (True, 2317, 0)
    assert before == [0] and listed[0] == 1487


def test_preadj_verify_composed_mismatch_still_refused(runner, tmp_path):
    ctx = write(tmp_path, "z2a.json", Z2_ONE_LETTER)
    result = runner.invoke(main, [
        "preadj", "verify", "--instance", "composed:gr-decorated-to-plain,gr-plain-to-decorated",
        "--context", ctx, "--bounds", "src<=2,tgt<=4",
    ])
    assert result.exit_code == 1
    assert json.loads(result.output)["code"] == "fragment_mismatch"


def test_preadj_verify_composed_three_factors(runner, tmp_path):
    ctx = write(tmp_path, "z2a.json", Z2_ONE_LETTER)
    args = [
        "preadj", "verify",
        "--instance", "composed:gr-plain-to-decorated,gr-decorated-to-plain,gr-to-dram-op",
        "--context", ctx, "--bounds", "src<=2,tgt<=6",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failure_count"] == 0 and report["instances_checked"] > 50
    again = runner.invoke(main, args)
    assert again.output == result.output  # byte-stable report


def test_category_build_resource_bound_exit_code(runner, tmp_path):
    # the cap is fixed, and each of these is refused before anything is built
    for params in [{"builder": "dram", "params": {"n": 12}},
                   {"builder": "ram", "params": {"n": 26}},
                   {"builder": "thin-chain", "params": {"n": 100000}},  # 5,000,050,000 morphisms
                   {"builder": "vec", "params": {"q": 1009, "n": 1}}]:  # prime, but its tables hold 1009^2 entries
        spec = write(tmp_path, "big.json", params)
        for command in ("build", "check"):
            result = runner.invoke(main, ["category", command, "--spec", spec])
            assert result.exit_code == 3, (params, result.output)
            assert "cap" in json.loads(result.output)["error"]


def test_category_check_refuses_a_law_check_over_the_triple_cap(runner, tmp_path):
    # ram(12) has 4,095 morphisms, well under the morphism cap, and 21,572,460
    # composable triples; the refusal counts them from hom-set sizes
    spec = write(tmp_path, "ram12.json", {"builder": "ram", "params": {"n": 12}})
    started = time.perf_counter()
    result = runner.invoke(main, ["category", "check", "--spec", spec])
    assert time.perf_counter() - started < 1.0
    assert result.exit_code == 3, result.output
    error = json.loads(result.output)["error"]
    assert "21572460 composable triples" in error and f"cap of {ramcat.category.LAW_TRIPLE_CAP}" in error


@pytest.mark.parametrize("spec, code", [
    pytest.param({"builder": "vec", "params": {"q": 1, "n": 2}}, "not_prime", id="vec-q-1"),
    pytest.param({"builder": "vec", "params": {"q": 0, "n": 2}}, "not_prime", id="vec-q-0"),
    pytest.param({"builder": "vec", "params": {"q": -7, "n": 2}}, "not_prime", id="vec-q-negative"),
    pytest.param({"objects": ["a"], "morphisms": {"id_a": {"dom": "a", "cod": "a"}, "f": {"dom": "a", "cod": "b"}},
                  "identities": {"a": "id_a"}, "compose": [["id_a", "id_a", "id_a"]]}, "unknown_object",
                 id="cod-not-an-object"),
    pytest.param({"objects": ["a", "b"], "morphisms": {"id_a": {"dom": "a", "cod": "a"}},
                  "identities": {"a": "id_a"}, "compose": [["id_a", "id_a", "id_a"]]}, "unknown_object",
                 id="object-without-identity"),
    pytest.param({"objects": ["a", "a"], "morphisms": {"id_a": {"dom": "a", "cod": "a"}},
                  "identities": {"a": "id_a"}, "compose": [["id_a", "id_a", "id_a"]]}, "unknown_object",
                 id="objects-repeated"),
])
def test_category_check_refuses_an_invalid_spec(runner, tmp_path, spec, code):
    result = runner.invoke(main, ["category", "check", "--spec", write(tmp_path, "spec.json", spec)])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["code"] == code


JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 10**6) | st.text(max_size=3),
                    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=6)
SIZE = st.integers(-3, 10**6) | st.integers(-3, 40) | st.floats() | JSON
BUILDER_SPECS = st.builds(
    lambda builder, n, q: {"builder": builder, "params": {"n": n, **({"q": q} if builder == "vec" else {})}},
    st.sampled_from(["ram", "dram", "dram-op", "gr", "vec", "thin-chain", "nope"]), SIZE, SIZE)


@st.composite
def explicit_specs(draw):
    """Small explicit tables: morphisms mostly between listed objects, an
    identity named for each object, and at times one field made junk."""
    objects = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True))
    ends = st.sampled_from(objects * 8 + ["z"])
    ids = draw(st.lists(st.sampled_from(["i", "j", "f", "g"]), max_size=4, unique=True))
    known = st.sampled_from(ids * 8 + ["k"])  # k is never a morphism
    spec = {"objects": objects,
            "morphisms": {m: {"dom": draw(ends), "cod": draw(ends)} for m in ids},
            "identities": {a: draw(known) for a in objects},
            "compose": draw(st.lists(st.lists(known, min_size=3, max_size=3), max_size=12))}
    junk = draw(st.sampled_from([None, None, None, "objects", "morphisms", "identities", "compose"]))
    if junk:
        spec[junk] = draw(JSON)
    return spec


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(BUILDER_SPECS | explicit_specs() | JSON)
def test_category_check_on_any_spec_ends_with_an_exit_code(runner, tmp_path, spec):
    """``category check`` on a drawn spec exits 0, 1 or 3 with a JSON
    report, or 2 with a usage error, and never with a traceback.  The cap
    is patched down to 300 morphisms so that every fragment under it is
    checked in a moment; builders read the same constant to refuse, so
    every refusal path still runs."""
    spec_path = write(tmp_path, "spec.json", spec)
    context = write(tmp_path, "z2a.json", Z2_ONE_LETTER)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ramcat.category, "DEFAULT_HOM_CAP", 300)
        result = runner.invoke(main, ["category", "check", "--spec", spec_path, "--context", context])
    assert result.exit_code in (0, 1, 2, 3), result.output
    if result.exit_code == 2:
        assert "Error:" in result.output
    else:
        assert json.loads(result.output)["ok"] == (result.exit_code == 0)


@st.composite
def context_files(draw):
    """README's context form over Z2, with at times a key dropped or its
    value made junk."""
    context = dict(draw(st.sampled_from([Z2_GROUP, Z2_ONE_LETTER, SWAP_CONTEXT])))
    for key in draw(st.lists(st.sampled_from(sorted(SWAP_CONTEXT)), max_size=2, unique=True)):
        if draw(st.booleans()):
            context.pop(key, None)
        else:
            context[key] = draw(JSON)
    return context


LEQ = st.lists(st.lists(st.booleans(), max_size=3), max_size=3) | JSON
PAIRS = st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=4) | JSON
PREORDER_FILES = st.builds(lambda leq: {"leq": leq}, LEQ) | st.builds(
    lambda size, pairs: {"size": size, "pairs": pairs}, st.integers(-1, 4) | SIZE, PAIRS) | JSON


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_context_and_preorder_files_end_with_an_exit_code(runner, tmp_path, data):
    """``words validate --context``, ``preadj verify --context`` and ``tukey
    check --dom/--cod`` on drawn files exit 0, 1 or 3 with a JSON report,
    or 2 with a usage error, and never with a traceback."""
    command = data.draw(st.sampled_from(["words", "preadj", "tukey"]))
    if command == "tukey":
        dom = write(tmp_path, "dom.json", data.draw(PREORDER_FILES))
        cod = write(tmp_path, "cod.json", data.draw(PREORDER_FILES))
        mapping = json.dumps(data.draw(st.lists(st.integers(-1, 3), max_size=4) | JSON))
        args = ["tukey", "check", "--kind", data.draw(st.sampled_from(["tukey", "cofinal"])),
                "--dom", dom, "--cod", cod, "--map", mapping]
    else:
        context = write(tmp_path, "context.json", data.draw(context_files() | JSON))
        if command == "words":
            args = ["words", "validate", "--context", context, data.draw(st.sampled_from(["x1", "a x1^g b"]))]
        else:
            instance = data.draw(st.sampled_from(["gr-plain-to-decorated", "gr-decorated-to-plain"]))
            args = ["preadj", "verify", "--instance", instance, "--context", context]
    result = runner.invoke(main, args)  # the runner fails on a traceback
    assert result.exit_code in (0, 1, 2, 3), result.output
    if result.exit_code == 2:
        assert "Error:" in result.output
    else:
        assert json.loads(result.output)["ok"] == (result.exit_code == 0)


@pytest.mark.parametrize("args, files, key", [
    pytest.param(["category", "check", "--spec", "{s}"],
                 {"s": {"builder": "ram", "params": {"n": 26, "hom_cap": 10**15}}}, "hom_cap", id="spec-hom-cap"),
    pytest.param(["category", "build", "--spec", "{s}"], {"s": {"builder": "ram", "params": {"n": 3, "q": 2}}}, "q",
                 id="spec-q-for-ram"),
    pytest.param(["category", "build", "--spec", "{s}"], {"s": {"builder": "vec", "params": {"n": 3, "m": 2}}}, "m",
                 id="spec-m-for-vec"),
    pytest.param(["words", "enumerate", "--context", "{c}", "-m", "1", "-n", "2"],
                 {"c": {**Z2_GROUP, "element_order": [0, 1]}}, "element_order", id="context-element-order"),
])
def test_keys_not_read_are_refused(runner, tmp_path, args, files, key):
    """A spec parameter or context key that nothing reads is a usage error
    that names it, not a silent no-op."""
    paths = {name: write(tmp_path, name + ".json", payload) for name, payload in files.items()}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 2, result.output
    assert repr(key) in result.output


def test_preadj_verify_ram_to_dramop(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "ram-to-dram-op",
                                  "--bounds", "src<=3,tgt<=4"])
    assert result.exit_code == 0, result.output


def test_preadj_verify_omega_and_thin_instances(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "omega-to-fragment",
                                  "--bounds", "src<=4,tgt<=6"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["failure_count"] == 0
    result = runner.invoke(main, ["preadj", "verify", "--instance", "from-monotone-tukey",
                                  "--bounds", "src<=10,tgt<=20"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failure_count"] == 0 and report["cardinality_ok"]


def test_preadj_verify_identity_instance(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "identity",
                                  "--bounds", "src<=3"])
    assert result.exit_code == 0, result.output


def _off_by_one_cod_report(runner, monkeypatch, n):
    import ramcat.cli
    from ramcat import Morphism, PreAdjunction, ram_fragment

    f = ram_fragment(n)
    objects = list(range(1, n + 1))
    # right payload, wrong codomain: phi(X, Y, u) must land in hom(X, H(Y))
    pa = PreAdjunction("off-by-one-cod", f, f, lambda x: x, lambda y: y,
                       lambda x, y, u: Morphism(x, y + 1, u.payload))
    monkeypatch.setattr(ramcat.cli, "named_pa",
                        lambda instance, context, bounds: (pa, objects, objects))
    result = runner.invoke(main, ["preadj", "verify", "--instance", "identity"])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert not report["ok"] and report["failure_count"] == 0
    return report


def test_preadj_verify_reports_phi_landing_failures(runner, monkeypatch):
    report = _off_by_one_cod_report(runner, monkeypatch, 3)
    assert report["phi_landing_failure_count"] == 11
    assert len(report["phi_landing_failures"]) == 11
    assert report["phi_landing_failures"][0] == {"X": "1", "Y": "1", "u": "1->1:(1,)",
                                                 "phi": "1->2:(1,)"}


def test_preadj_verify_lists_first_20_landing_failures(runner, monkeypatch):
    report = _off_by_one_cod_report(runner, monkeypatch, 4)
    assert report["phi_landing_failure_count"] == 26
    assert len(report["phi_landing_failures"]) == 20


def test_preadj_unknown_instance_is_usage_error(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "nope"])
    assert result.exit_code == 2


def test_ramsey_families_dram_op_and_gr(runner):
    result = runner.invoke(main, ["ramsey", "check", "--family", "dram-op",
                                  "-A", "1", "-B", "2", "-C", "4", "-k", "2"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["ramsey", "check", "--family", "gr",
                                  "-A", "1", "-B", "2", "-C", "3", "-k", "2"])
    assert result.exit_code in (0, 1)
    report = json.loads(result.output)
    assert report["exhaustive"]["holds"] == report["search"]["holds"]


def test_tukey_check(runner, tmp_path):
    dom = write(tmp_path, "anti.json", {"leq": [[True, False], [False, True]]})
    cod = write(tmp_path, "one.json", {"leq": [[True]]})
    result = runner.invoke(main, ["tukey", "check", "--kind", "tukey",
                                  "--dom", dom, "--cod", cod, "--map", "[0,0]"])
    assert result.exit_code == 1
    assert json.loads(result.output)["witness"] == [0, 1]


def test_tukey_check_rejects_a_map_that_does_not_fit(runner, tmp_path):
    dom = write(tmp_path, "anti.json", {"leq": [[True, False], [False, True]]})
    cod = write(tmp_path, "one.json", {"leq": [[True]]})
    for mapping in ("[0]", "[0,1]", "[-1,0]", "5"):
        result = runner.invoke(main, ["tukey", "check", "--kind", "tukey",
                                      "--dom", dom, "--cod", cod, "--map", mapping])
        assert result.exit_code == 1, mapping
        assert json.loads(result.output)["code"] == "bad_map"
    # from one element to two: JSON true and false are not element indices
    for mapping in ("[true]", "[false]", "[1.0]"):
        result = runner.invoke(main, ["tukey", "check", "--kind", "tukey",
                                      "--dom", cod, "--cod", dom, "--map", mapping])
        assert result.exit_code == 1, mapping
        assert json.loads(result.output)["code"] == "bad_map"


def test_tukey_companion(runner):
    result = runner.invoke(main, ["tukey", "companion", "--map", "2*v", "-n", "20"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["g"] == [str(b // 2) for b in range(20)]


def test_tukey_monotonize_report(runner, tmp_path):
    out = str(tmp_path / "trace.json")
    result = runner.invoke(main, ["tukey", "monotonize",
                                  "--map", "v + 10 if v % 2 == 0 else v // 2",
                                  "--steps", "30", "--prefix", "30", "--output", out])
    assert result.exit_code == 0, result.output
    report = read_report(out)
    assert report["ok"]
    assert all(report["invariants"].values())


def test_tukey_map_expression_with_tuples_and_calls(runner):
    result = runner.invoke(main, ["tukey", "monotonize", "--preorder", "omega2", "--preorder-b", "omega2",
                                  "--map", "(max(v[0], v[1]), abs(v[0] - v[1]) % 3)", "--steps", "5"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["ok"]


@pytest.mark.parametrize("expr", [
    "().__class__.__base__.__subclasses__().__len__()",
    "v.real",
    "len(v)",
    "__import__('os').getpid()",
    "(lambda: 1)()",
    "min(v, key=abs)",
    "v ** 2",
    "[v]",
    "v if",
    "2 * v * 4294967296 * 4294967296",
    "v // 0",
    "v[0]",
    pytest.param("1+" * 20000 + "1", id="deep-nesting"),
])
def test_tukey_map_expressions_outside_the_whitelist_are_usage_errors(runner, expr):
    result = runner.invoke(main, ["tukey", "companion", "--map", expr, "-n", "5"])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output


def test_tukey_map_is_an_expression_not_a_file(runner, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("v\n", encoding="utf-8")
    result = runner.invoke(main, ["tukey", "companion", "--map", str(path), "-n", "2"])
    assert result.exit_code == 2, result.output
    assert "bad --map expression" in result.output


def test_reports_are_byte_stable(runner, tmp_path):
    args = ["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "2"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_golden_command(runner, tmp_path):
    out = str(tmp_path / "golden.json")
    result = runner.invoke(main, ["golden", "--output", out])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    assert set(read_report(out)) == {"ok", "criteria"}


NON_REFLEXIVE = {"leq": [[False, False], [False, True]]}
ONE = {"leq": [[True]]}


@pytest.mark.parametrize("args, files", [
    pytest.param(["words", "validate", "--context", "{ctx}", "x1"], {"ctx": {"table": [0]}},
                 id="context-without-order"),
    pytest.param(["words", "validate", "--context", "{ctx}", "x1"], {"ctx": b"\xff\xfe"},
                 id="context-not-utf8"),
    pytest.param(["words", "compose", "{u}", "{v}"], {"u": b"\xff\xfe x1\n", "v": "x1\n"},
                 id="word-file-not-utf8"),
    pytest.param(["preadj", "verify", "--instance", "gr-to-dram-op", "--context", "{g}"],
                 {"g": {"order": 2, "table": [0, 1, 0, 1]}}, id="group-table-not-a-group"),
    pytest.param(["preadj", "verify", "--instance", "gr-to-dram-op", "--context", "{g}"],
                 {"g": {"table": [0]}}, id="group-without-order"),
    # element_order is not a context key: the file is refused for naming it
    pytest.param(["preadj", "verify", "--instance", "gr-to-dram-op", "--context", "{g}"],
                 {"g": {"order": 2, "table": [0, 1, 1, 0], "element_order": [0, 0]}},
                 id="group-element-order-not-a-permutation"),
    pytest.param(["words", "validate", "--context", "{g}", "x1"], {"g": {"order": 2, "table": [[0, 1], [1, 0]]}},
                 id="group-table-nested"),
    pytest.param(["words", "enumerate", "--context", "{g}", "-m", "1", "-n", "2"],
                 {"g": {"order": 3, "table": [0, 1, 2, 1, 2, 0, 2, 0, 1], "element_names": ["e"]}},
                 id="group-names-too-few"),
    pytest.param(["words", "enumerate", "--context", "{g}", "-m", "1", "-n", "2"],
                 {"g": {**Z2_GROUP, "element_names": ["e", "e"]}}, id="group-names-repeated"),
    pytest.param(["words", "enumerate", "--context", "{g}", "-m", "1", "-n", "2"],
                 {"g": {**Z2_GROUP, "element_names": ["e", "g h"]}}, id="group-name-with-space"),
    pytest.param(["words", "enumerate", "--context", "{g}", "-m", "1", "-n", "2"],
                 {"g": {**Z2_GROUP, "element_names": ["e", "g^2"]}}, id="group-name-with-caret"),
    pytest.param(["words", "enumerate", "--context", "{g}", "-m", "1", "-n", "2"],
                 {"g": {**Z2_GROUP, "element_names": ["e", 1]}}, id="group-name-not-a-string"),
    pytest.param(["words", "validate", "--context", "{c}", "x1"],
                 {"c": {**Z2_GROUP, "alphabet": ["a b"], "action_table": [0, 0]}}, id="alphabet-letter-with-space"),
    pytest.param(["words", "validate", "--context", "{c}", "x1"],
                 {"c": {**Z2_GROUP, "alphabet": [""], "action_table": [0, 0]}}, id="alphabet-letter-empty"),
    pytest.param(["preadj", "verify", "--instance", "gr-plain-to-decorated", "--context", "{c}"],
                 {"c": {**Z2_GROUP, "alphabet": ["x1"], "action_table": [0, 0]}}, id="alphabet-reserved-letter"),
    pytest.param(["preadj", "verify", "--instance", "gr-plain-to-decorated", "--context", "{c}"],
                 {"c": {**Z2_GROUP, "alphabet": ["a", "a"], "action_table": [0, 0, 1, 1]}},
                 id="alphabet-repeated-letter"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": NON_REFLEXIVE, "q": ONE}, id="non-reflexive-dom"),
    # --preorder names a generated preorder; a path, even to a preorder file, is refused
    pytest.param(["tukey", "companion", "--preorder", "{p}", "--map", "v", "-n", "2"],
                 {"p": ONE}, id="preorder-given-a-path"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"size": 2, "pairs": [[0, 5]]}, "q": ONE}, id="pair-out-of-range"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"size": 2, "pairs": [[0, -1]]}, "q": ONE}, id="pair-negative"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[]"],
                 {"p": {"size": -3, "pairs": []}, "q": ONE}, id="preorder-size-negative"),
    # tables, name lists, leq and its rows, pairs and each pair are JSON arrays
    pytest.param(["words", "enumerate", "--context", "{c}", "-m", "1", "-n", "2"],
                 {"c": {**Z2_GROUP, "element_names": "eg", "alphabet": "ab", "action_table": [0, 0, 1, 1]}},
                 id="context-names-and-letters-strings"),
    pytest.param(["words", "validate", "--context", "{c}", "x1"], {"c": {"order": 2, "table": "0110"}},
                 id="group-table-a-string"),
    pytest.param(["words", "validate", "--context", "{c}", "x1"],
                 {"c": {**Z2_GROUP, "alphabet": ["a"], "action_table": {"a": 0}}}, id="action-table-an-object"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"leq": ["ab", "cd"]}, "q": ONE}, id="leq-rows-strings"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0]"],
                 {"p": {"leq": {"a": "b"}}, "q": ONE}, id="leq-an-object"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0]"],
                 {"p": {"leq": [[1]]}, "q": ONE}, id="leq-entry-not-a-boolean"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"size": 2, "pairs": ["01"]}, "q": ONE}, id="pair-a-string"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"size": "2", "pairs": []}, "q": ONE}, id="preorder-size-a-string"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0]"],
                 {"p": ONE, "q": {"size": 257, "pairs": []}}, id="preorder-pairs-over-cap"),
    pytest.param(["tukey", "check", "--kind", "cofinal", "--dom", "{p}", "--cod", "{q}", "--map", "[0]"],
                 {"p": ONE, "q": {"leq": [[True] * 257] * 257}}, id="preorder-leq-over-cap"),
    pytest.param(["category", "build", "--spec", "{s}"], {"s": {"objects": [1]}}, id="spec-without-tables"),
    pytest.param(["category", "check", "--spec", "{s}"], {"s": {"builder": "ram", "params": {"n": "x"}}},
                 id="spec-n-not-an-integer"),
    pytest.param(["category", "check", "--spec", "{s}"],
                 {"s": {"objects": ["a"], "morphisms": {"id_a": {"dom": "a", "cod": "a"}},
                        "identities": {"a": "id_a"}, "compose": [["id_a", "id_a", "h"]]}},
                 id="spec-composite-not-listed"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "0"], {},
                 id="check-no-colors"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "2",
                  "--budget-nodes", "-1"], {}, id="check-negative-node-budget"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "2",
                  "--budget-colorings", "-1"], {}, id="check-negative-coloring-budget"),
    pytest.param(["ramsey", "search", "--family", "ram", "-A", "1", "-B", "2", "-k", "0", "--max-n", "4"], {},
                 id="search-no-colors"),
    pytest.param(["ramsey", "search", "--family", "ram", "-A", "1", "-B", "2", "-k", "2", "--max-n", "4",
                  "--budget-nodes", "-1"], {}, id="search-negative-node-budget"),
])
def test_malformed_input_is_usage_error(runner, tmp_path, args, files):
    paths = {name: write(tmp_path, name + ".json", payload) for name, payload in files.items()}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 2, result.output


def test_preorder_files_up_to_the_cap_load(runner, tmp_path):
    one = write(tmp_path, "one.json", ONE)
    for name, payload in [("pairs", {"size": 256, "pairs": [[0, 255]]}),
                          ("leq", {"leq": [[a == b for b in range(256)] for a in range(256)]})]:
        cod = write(tmp_path, name + ".json", payload)
        result = runner.invoke(main, ["tukey", "check", "--kind", "tukey", "--dom", one, "--cod", cod,
                                      "--map", "[255]"])
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("bounds", ["tgt<=0", "src<=-1"])
def test_preadj_verify_over_no_objects_is_usage_error(runner, bounds):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "identity", "--bounds", bounds])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("instance, bounds, key", [
    ("identity", "sorce<=3", "sorce"),
    ("from-monotone-tukey", "src<=4,chains<=4", "chains"),
    ("composed:identity,identity", "chains<=3,omega<=3", "omega"),
])
def test_preadj_verify_rejects_bounds_the_instance_does_not_read(runner, instance, bounds, key):
    result = runner.invoke(main, ["preadj", "verify", "--instance", instance, "--bounds", bounds])
    assert result.exit_code == 2, result.output
    assert "bounds key not src or tgt" in result.output and repr(key) in result.output


def test_src_and_tgt_bound_every_instance(runner):
    """``src`` picks the source objects of a single instance and of a
    composition alike.  ``tgt`` sizes the last factor of a composition, and
    each earlier factor is sized by the largest source object of the factor
    after it, so ram-to-dram-op, whose F shifts objects by one, composes."""
    def verify(instance, bounds):
        result = runner.invoke(main, ["preadj", "verify", "--instance", instance, "--bounds", bounds])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    assert verify("identity", "src<=2")["instances_checked"] == 6
    assert verify("composed:identity,identity", "src<=2")["instances_checked"] == 126
    assert verify("composed:identity,identity", "src<=2,tgt<=6")["instances_checked"] == 126
    # the two sides of identity default to each other
    by_tgt = verify("identity", "tgt<=2")
    assert by_tgt["instances_checked"] == 6 and by_tgt["config"] == {"bounds": {"tgt": 2}}
    # identity on ram(5), then ram(5) -> dram-op(6)
    shifted = verify("composed:identity,ram-to-dram-op", "")
    assert (shifted["instances_checked"], shifted["failure_count"]) == (423, 0)
    assert verify("composed:identity,ram-to-dram-op", "src<=3,tgt<=4")["failure_count"] == 0


def test_readme_cli_examples_run(runner, tmp_path, monkeypatch):
    """Every command in README's CLI block runs on the files it names and
    is not refused as a usage error, so README names no deleted flag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ramcat ")]
    assert len(commands) == 19
    files = {"z3.json": Z3_CONTEXT, "u.txt": GOLDEN_U + "\n", "v.txt": GOLDEN_V + "\n",
             "frag.json": {"builder": "ram", "params": {"n": 3}}, "z2.json": Z2_GROUP, "z2a.json": Z2_ONE_LETTER,
             "anti.json": {"leq": [[True, False], [False, True]]}, "one.json": ONE}
    for name, payload in files.items():
        write(tmp_path, name, payload)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code != 2, (args, result.output)


def _commands(group=main, path=()):
    for name, cmd in sorted(group.commands.items()):
        if isinstance(cmd, click.Group):
            yield from _commands(cmd, path + (name,))
        else:
            yield " ".join(path + (name,)), cmd


def test_cli_surface_has_no_dead_options():
    options = {name: [p for p in cmd.params if isinstance(p, click.Option)] for name, cmd in _commands()}
    assert len(options) == 18
    assert sum(len(opts) for opts in options.values()) == 63
    dead = {"--seed", "--workers", "--report", "--hom-cap", "--engine", "--group", "--alphabet", "--card-check",
            "--no-card-check"}
    # flags gone from one command only: elsewhere they are real inputs
    dead_here = {"rsurj validate": {"--cod"}, "rsurj compose": {"--cod"}, "rsurj dual": {"--cod"},
                 "words validate": {"-m"}, "category build": {"--check"}}
    for name, opts in options.items():
        flags = {flag for opt in opts for flag in opt.opts + opt.secondary_opts}
        assert not (dead | dead_here.get(name, set())) & flags, name
        assert any("--output" in opt.opts for opt in opts) == (name != "preadj list"), name


PREADJ_KEYS = {"cardinality_ok", "cardinality_violations", "config", "failure_count", "failures", "instance",
               "instances_checked", "ok", "phi_landing_failure_count", "phi_landing_failures",
               "suggested_hits", "suggested_tried"}


@pytest.mark.parametrize("args, keys, config", [
    pytest.param(["words", "validate", "x1 x2"], {"m", "n", "ok", "word"}, None, id="words-validate"),
    pytest.param(["words", "validate", "x2 x1"], {"code", "data", "error", "ok"}, None,
                 id="words-validate-failure"),
    pytest.param(["words", "compose", "--context", "{ctx}", "{u}", "{v}"], {"ok", "result"}, None,
                 id="words-compose"),
    pytest.param(["words", "enumerate", "-m", "2", "-n", "3"], {"count", "ok"}, None, id="words-enumerate"),
    pytest.param(["rsurj", "validate", "(1,2,1)"], {"cod", "dom", "map", "ok"}, None, id="rsurj-validate"),
    pytest.param(["rsurj", "compose", "(1,2,3,2)", "(1,1,2)"], {"ok", "result"}, None, id="rsurj-compose"),
    pytest.param(["rsurj", "enumerate", "-n", "4", "-m", "2"], {"count", "ok"}, None, id="rsurj-enumerate"),
    pytest.param(["rsurj", "dual", "(1,1,2,1,3)"], {"dual", "ok"}, None, id="rsurj-dual"),
    pytest.param(["category", "build", "--spec", "{spec}"],
                 {"morphisms", "name", "objects", "ok"}, None, id="category-build"),
    pytest.param(["category", "check", "--spec", "{spec}"], {"laws", "ok", "structure"}, None,
                 id="category-check"),
    pytest.param(["category", "skeleton", "--spec", "{spec}"], {"objects", "ok", "representatives"}, None,
                 id="category-skeleton"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "2"],
                 {"A", "B", "C", "config", "exhaustive", "family", "k", "ok", "search"},
                 {"budget_colorings", "budget_nodes"}, id="ramsey-check"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "2", "-B", "3", "-C", "6", "-k", "2",
                  "--budget-nodes", "5"], {"error", "ok", "stats"}, None,
                 id="ramsey-check-budget-overrun"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "2", "-B", "3", "-C", "7", "-k", "2"],
                 {"A", "B", "C", "config", "exhaustive", "family", "k", "ok", "search"},
                 {"budget_colorings", "budget_nodes"}, id="ramsey-check-oracle-skipped"),
    pytest.param(["ramsey", "search", "--family", "ram", "-A", "1", "-B", "2", "-k", "2", "--max-n", "4"],
                 {"config", "log", "minimal_n", "ok"}, {"budget_nodes"}, id="ramsey-search"),
    pytest.param(["ramsey", "search", "--family", "dram-op", "-A", "2", "-B", "4", "-k", "2", "--max-n", "5"],
                 {"code", "config", "data", "error", "log", "ok"}, {"budget_nodes"}, id="ramsey-search-not-found"),
    pytest.param(["preadj", "verify", "--instance", "identity", "--bounds", "src<=2"],
                 PREADJ_KEYS, {"bounds"}, id="preadj-verify"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{anti}", "--cod", "{one}", "--map", "[0,0]"],
                 {"kind", "ok", "witness"}, None, id="tukey-check"),
    pytest.param(["tukey", "companion", "--map", "2*v", "-n", "5"],
                 {"certified", "checked_pairs", "g", "map", "ok", "warnings"}, None, id="tukey-companion"),
    pytest.param(["tukey", "monotonize", "--map", "v", "--steps", "3"],
                 {"b", "blocks", "certified", "invariants", "map", "ok", "rounds", "s"}, None,
                 id="tukey-monotonize"),
])
def test_report_keys(runner, tmp_path, args, keys, config):
    paths = {
        "ctx": write(tmp_path, "z3.json", Z3_CONTEXT),
        "u": write(tmp_path, "u.txt", GOLDEN_U + "\n"),
        "v": write(tmp_path, "v.txt", GOLDEN_V + "\n"),
        "spec": write(tmp_path, "frag.json", {"builder": "ram", "params": {"n": 3}}),
        "anti": write(tmp_path, "anti.json", {"leq": [[True, False], [False, True]]}),
        "one": write(tmp_path, "one.json", ONE),
    }
    out = str(tmp_path / "report.json")
    result = runner.invoke(main, [arg.format(**paths) for arg in args] + ["--output", out])
    assert result.exit_code in (0, 1, 3), result.output
    report = read_report(out)
    assert set(report) == keys
    assert (set(report["config"]) if "config" in report else None) == config
