import json
import traceback

import click
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
                                  "--steps", "30", "--prefix", "30", "--output", out])
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
    assert "Error:" in result.output


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
    assert set(json.loads(open(out).read())) == {"ok", "criteria"}


NON_REFLEXIVE = {"leq": [[False, False], [False, True]]}
ONE = {"leq": [[True]]}


@pytest.mark.parametrize("args, files", [
    pytest.param(["words", "validate", "--context", "{ctx}", "x1"], {"ctx": {"table": [0]}},
                 id="context-without-order"),
    pytest.param(["words", "validate", "--context", "{ctx}", "x1"], {"ctx": b"\xff\xfe"},
                 id="context-not-utf8"),
    pytest.param(["words", "compose", "{u}", "{v}"], {"u": b"\xff\xfe x1\n", "v": "x1\n"},
                 id="word-file-not-utf8"),
    pytest.param(["preadj", "verify", "--instance", "gr-to-dram-op", "--group", "{g}"],
                 {"g": {"order": 2, "table": [0, 1, 0, 1]}}, id="group-table-not-a-group"),
    pytest.param(["preadj", "verify", "--instance", "gr-to-dram-op", "--group", "{g}"],
                 {"g": {"table": [0]}}, id="group-without-order"),
    pytest.param(["preadj", "verify", "--instance", "gr-to-dram-op", "--group", "{g}"],
                 {"g": {"order": 2, "table": [0, 1, 1, 0], "element_order": [0, 0]}},
                 id="group-element-order-not-a-permutation"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": NON_REFLEXIVE, "q": ONE}, id="non-reflexive-dom"),
    pytest.param(["tukey", "companion", "--preorder", "{p}", "--map", "v", "-n", "2"],
                 {"p": NON_REFLEXIVE}, id="non-reflexive-preorder"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"size": 2, "pairs": [[0, 5]]}, "q": ONE}, id="pair-out-of-range"),
    pytest.param(["tukey", "check", "--kind", "tukey", "--dom", "{p}", "--cod", "{q}", "--map", "[0,0]"],
                 {"p": {"size": 2, "pairs": [[0, -1]]}, "q": ONE}, id="pair-negative"),
    pytest.param(["category", "build", "--spec", "{s}"], {"s": {"objects": [1]}}, id="spec-without-tables"),
    pytest.param(["category", "check", "--spec", "{s}"], {"s": {"builder": "ram", "params": {"n": "x"}}},
                 id="spec-n-not-an-integer"),
    pytest.param(["rsurj", "compose", "(1,2)", "()"], {}, id="compose-empty-map"),
    pytest.param(["rsurj", "dual", "()"], {}, id="dual-empty-map"),
])
def test_malformed_input_is_usage_error(runner, tmp_path, args, files):
    paths = {name: write(tmp_path, name + ".json", payload) for name, payload in files.items()}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("bounds", ["objects<=0", "src<=-1"])
def test_preadj_verify_over_no_objects_is_usage_error(runner, bounds):
    result = runner.invoke(main, ["preadj", "verify", "--instance", "identity", "--bounds", bounds])
    assert result.exit_code == 2, result.output


def _commands(group=main, path=()):
    for name, cmd in sorted(group.commands.items()):
        if isinstance(cmd, click.Group):
            yield from _commands(cmd, path + (name,))
        else:
            yield " ".join(path + (name,)), cmd


def test_cli_surface_has_no_dead_options():
    options = {name: [p for p in cmd.params if isinstance(p, click.Option)] for name, cmd in _commands()}
    assert len(options) == 18
    assert sum(len(opts) for opts in options.values()) == 72
    dead = {"--seed", "--workers", "--report", "--hom-cap"}
    for name, opts in options.items():
        assert not dead & {flag for opt in opts for flag in opt.opts}, name
        assert any("--output" in opt.opts for opt in opts) == (name != "preadj list"), name


PREADJ_KEYS = {"cardinality_ok", "cardinality_violations", "config", "failure_count", "failures", "instance",
               "instances_checked", "ok", "phi_landing_failure_count", "phi_landing_failures",
               "suggested_hits", "suggested_tried"}


@pytest.mark.parametrize("args, keys, config", [
    pytest.param(["words", "validate", "x1 x2"], {"m", "n", "ok", "word"}, None, id="words-validate"),
    pytest.param(["words", "validate", "x2 x1", "-m", "2"], {"code", "data", "error", "ok"}, None,
                 id="words-validate-failure"),
    pytest.param(["words", "compose", "--context", "{ctx}", "{u}", "{v}"], {"ok", "result"}, None,
                 id="words-compose"),
    pytest.param(["words", "enumerate", "-m", "2", "-n", "3"], {"count", "ok"}, None, id="words-enumerate"),
    pytest.param(["rsurj", "validate", "(1,2,1)"], {"cod", "dom", "map", "ok"}, None, id="rsurj-validate"),
    pytest.param(["rsurj", "compose", "(1,2,3,2)", "(1,1,2)"], {"ok", "result"}, None, id="rsurj-compose"),
    pytest.param(["rsurj", "enumerate", "-n", "4", "-m", "2"], {"count", "ok"}, None, id="rsurj-enumerate"),
    pytest.param(["rsurj", "dual", "(1,1,2,1,3)"], {"dual", "ok"}, None, id="rsurj-dual"),
    pytest.param(["category", "build", "--spec", "{spec}", "--check"],
                 {"laws_ok", "morphisms", "name", "objects", "ok"}, None, id="category-build"),
    pytest.param(["category", "check", "--spec", "{spec}"], {"laws", "ok", "structure"}, None,
                 id="category-check"),
    pytest.param(["category", "skeleton", "--spec", "{spec}"], {"objects", "ok", "representatives"}, None,
                 id="category-skeleton"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "1", "-B", "2", "-C", "3", "-k", "2"],
                 {"A", "B", "C", "config", "exhaustive", "family", "k", "ok", "search"},
                 {"budget_colorings", "budget_nodes"}, id="ramsey-check"),
    pytest.param(["ramsey", "check", "--family", "ram", "-A", "2", "-B", "3", "-C", "6", "-k", "2",
                  "--budget-nodes", "5", "--engine", "search"], {"error", "ok", "stats"}, None,
                 id="ramsey-check-budget-overrun"),
    pytest.param(["ramsey", "search", "--family", "ram", "-A", "1", "-B", "2", "-k", "2", "--max-n", "4"],
                 {"config", "log", "minimal_n", "ok"}, {"budget_nodes"}, id="ramsey-search"),
    pytest.param(["preadj", "verify", "--instance", "identity", "--bounds", "objects<=2"],
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
    report = json.loads(open(out).read())
    assert set(report) == keys
    assert (set(report["config"]) if "config" in report else None) == config
