import json

import pytest
from click.testing import CliRunner

from ramcat.cli import main
from ramcat.groups import action_to_dict, cycle_action, cyclic_group

Z3_CONTEXT = action_to_dict(cycle_action(cyclic_group(3), "abcd", [1, 2, 0, 3]))
Z2_GROUP = {"order": 2, "table": [0, 1, 1, 0], "element_names": ["e", "g"]}
SWAP_CONTEXT = action_to_dict(cycle_action(cyclic_group(2), "ab", [1, 0]))

GOLDEN_U = "c a x1 a x1^g2 x2 d x3 x2^g2 x1^g a x3^g"
GOLDEN_V = "b x1 x1^g2"
GOLDEN_RESULT = "c a b a a x1 d x1^g2 x1^g2 c a x1"


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
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
    bad = runner.invoke(main, ["words", "validate", "--context", ctx, "x2 x1", "-m", "2"])
    assert bad.exit_code == 1
    report = json.loads(bad.output)
    assert report["code"] == "first_occurrence_order"


def test_words_enumerate_count(runner):
    result = runner.invoke(main, ["words", "enumerate", "-m", "2", "-n", "3", "--quiet"])
    assert result.exit_code == 0
    assert json.loads(result.output)["count"] == 3


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["words", "enumerate", "-m", "2"])
    assert result.exit_code == 2


def test_bad_context_file_is_usage_error(runner, tmp_path):
    ctx = write(tmp_path, "bad.json", "{not json")
    result = runner.invoke(main, ["words", "validate", "--context", ctx, "x1"])
    assert result.exit_code == 2


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


def test_category_build_and_check(runner, tmp_path):
    spec = write(tmp_path, "frag.json", {"builder": "ram", "params": {"n": 3}})
    built = runner.invoke(main, ["category", "build", "--spec", spec, "--check"])
    assert built.exit_code == 0
    report = json.loads(built.output)
    assert report["laws_ok"] and report["morphisms"] > 0
    checked = runner.invoke(main, ["category", "check", "--spec", spec])
    assert checked.exit_code == 0
    structure = json.loads(checked.output)["structure"]
    assert structure["all_mono"] and not structure["is_thin"]


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


def test_ramsey_search_finds_six(runner):
    result = runner.invoke(main, ["ramsey", "search", "--family", "ram",
                                  "-A", "2", "-B", "3", "-k", "2", "--max-n", "8"])
    assert result.exit_code == 0
    assert json.loads(result.output)["minimal_n"] == 6


def test_ramsey_budget_exit_code(runner):
    result = runner.invoke(main, ["ramsey", "check", "--family", "ram",
                                  "-A", "2", "-B", "3", "-C", "6", "-k", "2",
                                  "--budget-nodes", "5", "--engine", "search"])
    assert result.exit_code == 3
    report = json.loads(result.output)
    assert report["stats"]["nodes"] == 5


def test_preadj_list(runner):
    result = runner.invoke(main, ["preadj", "list"])
    assert result.exit_code == 0
    assert "gr-to-dram-op" in result.output


def test_preadj_verify_gr_to_dramop(runner, tmp_path):
    group = write(tmp_path, "z2.json", Z2_GROUP)
    result = runner.invoke(main, ["preadj", "verify", "--instance", "gr-to-dram-op",
                                  "--group", group, "--bounds", "src<=2,chains<=6"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failure_count"] == 0 and report["phi_landing_failure_count"] == 0
    assert report["cardinality_ok"]


def test_preadj_verify_decorated_instance(runner, tmp_path):
    ctx = write(tmp_path, "swap.json", SWAP_CONTEXT)
    result = runner.invoke(main, ["preadj", "verify", "--instance", "gr-plain-to-decorated",
                                  "--context", ctx, "--bounds", "objects<=3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["failure_count"] == 0


def test_preadj_verify_composed(runner, tmp_path):
    group = write(tmp_path, "z2.json", Z2_GROUP)
    result = runner.invoke(main, [
        "preadj", "verify",
        "--instance", "composed:gr-plain-to-decorated,gr-decorated-to-plain",
        "--group", group, "--alphabet", "a", "--bounds", "src<=2,chains<=5",
    ])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["failure_count"] == 0


def test_preadj_verify_composed_three_factors(runner, tmp_path):
    group = write(tmp_path, "z2.json", Z2_GROUP)
    args = [
        "preadj", "verify",
        "--instance", "composed:gr-plain-to-decorated,gr-decorated-to-plain,gr-to-dram-op",
        "--group", group, "--alphabet", "a", "--bounds", "src<=2,chains<=6",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failure_count"] == 0 and report["instances_checked"] > 50
    again = runner.invoke(main, args)
    assert again.output == result.output  # byte-stable report


def test_category_build_resource_bound_exit_code(runner, tmp_path):
    spec = write(tmp_path, "big.json", {"builder": "dram", "params": {"n": 9, "hom_cap": 50}})
    result = runner.invoke(main, ["category", "build", "--spec", spec])
    assert result.exit_code == 3


def test_preadj_verify_ram_to_dramop(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "ram-to-dram-op",
                                  "--bounds", "src<=3,chains<=4"])
    assert result.exit_code == 0, result.output


def test_preadj_verify_omega_and_thin_instances(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "omega-to-fragment",
                                  "--bounds", "omega<=4,chains<=6"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["failure_count"] == 0
    result = runner.invoke(main, ["preadj", "verify", "--instance", "from-monotone-tukey",
                                  "--bounds", "src<=10,tgt<=20"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["failure_count"] == 0 and report["cardinality_ok"]


def test_preadj_verify_identity_instance(runner):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "identity",
                                  "--bounds", "objects<=3"])
    assert result.exit_code == 0, result.output


def _off_by_one_cod_report(runner, monkeypatch, n):
    import ramcat.cli
    from ramcat import Morphism, PreAdjunction, ram_fragment

    f = ram_fragment(n)
    objects = list(range(1, n + 1))
    # right payload, wrong codomain: phi(X, Y, u) must land in hom(X, H(Y))
    pa = PreAdjunction("off-by-one-cod", f, f, lambda x: x, lambda y: y,
                       lambda x, y, u: Morphism(x, y + 1, u.payload))
    monkeypatch.setattr(ramcat.cli, "_build_instance",
                        lambda name, context, bounds: (pa, objects, objects))
    result = runner.invoke(main, ["preadj", "verify", "--instance", "identity", "--no-card-check"])
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


def test_tukey_companion(runner):
    result = runner.invoke(main, ["tukey", "companion", "--map", "2*v", "-n", "20"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["g"] == [str(b // 2) for b in range(20)]


def test_tukey_monotonize_report(runner, tmp_path):
    out = str(tmp_path / "trace.json")
    result = runner.invoke(main, ["tukey", "monotonize",
                                  "--map", "v + 10 if v % 2 == 0 else v // 2",
                                  "--steps", "30", "--prefix", "30", "--report", out])
    assert result.exit_code == 0, result.output
    report = json.loads(open(out).read())
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
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Error:" in result.output


def test_reports_are_byte_stable(runner, tmp_path):
    args = ["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "2"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_workers_must_be_positive(runner):
    result = runner.invoke(main, ["words", "enumerate", "-m", "1", "-n", "2", "--workers", "0"])
    assert result.exit_code == 2


def test_golden_command(runner):
    result = runner.invoke(main, ["golden"])
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
