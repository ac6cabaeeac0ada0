"""Command-line interface.

Exit codes: 0 success/verified, 1 property failure found (invalid object,
arrow fails, transport-condition failure), 2 usage or configuration error,
3 budget or resource cap exceeded.  Every command writes a JSON report
(stdout by default, ``--output`` for a file); reports are byte-stable for a
fixed configuration.
"""

from __future__ import annotations

import json
import sys

import click

from . import golden as golden_mod
from .arrows import (
    DEFAULT_COLORING_BUDGET,
    certify_bad_coloring,
    check_arrow_exhaustive,
    find_bad_coloring,
    min_ramsey_witness,
    node_budget_default,
)
from .category import (
    DEFAULT_HOM_CAP,
    dram_op_fragment,
    fragment_from_spec,
    gr_fragment,
    ram_fragment,
    skeleton,
    structural_checks,
    validate_fragment,
)
from .errors import BudgetExceeded, RamcatError, ResourceBound, ValidationError
from .groups import action_from_dict, trivial_action, validate_group
from .preadjunction import (
    check_card_inequality,
    compose_pa,
    identity_pa,
    pa_from_monotone_tukey,
    pa_gr_decorated_to_plain,
    pa_gr_plain_to_decorated,
    pa_gr_to_dramop,
    pa_omega_to_nonthin,
    pa_ram_to_dramop,
    verify_pa,
)
from .surjections import compose_rigid, dual, enumerate_rsurj, validate_rigid
from .tukey import (
    GeneratedPreorder,
    chain_preorder,
    cofinal_companion,
    is_cofinal_map,
    is_tukey_map,
    monotonize,
    omega,
    omega_squared,
    validate_preorder,
    verify_trace,
)
from .words import WordContext, enumerate_words, format_word, parse_word, plain_context, substitute

PA_INSTANCES = (
    "identity",
    "gr-plain-to-decorated",
    "gr-decorated-to-plain",
    "gr-to-dram-op",
    "ram-to-dram-op",
    "omega-to-fragment",
    "from-monotone-tukey",
)


def _emit(report: dict, output: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _fail(exc: RamcatError, output: str | None):
    if isinstance(exc, (BudgetExceeded, ResourceBound)):
        code = 3
    else:
        code = 1
    report = {"ok": False, "error": str(exc)}
    if isinstance(exc, ValidationError):
        report["code"] = exc.code
        report["data"] = {k: str(v) for k, v in exc.data.items()}
    _emit(report, output)
    sys.exit(code)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _load_context(path: str | None) -> WordContext:
    if path is None:
        return plain_context()
    try:
        return WordContext(action_from_dict(_load_json(path)))
    except ValidationError as exc:
        raise click.UsageError(f"bad context file {path}: {exc}")


def _parse_map_text(text: str) -> tuple[int, ...]:
    body = text.strip().strip("()")
    try:
        return tuple(int(x) for x in body.split(",") if x.strip())
    except ValueError:
        raise click.UsageError(f"cannot parse map {text!r}; expected like (1,2,1)")


def _config(seed: int, workers: int, **budgets) -> dict:
    if workers < 1:
        raise click.UsageError("--workers must be at least 1")
    cfg = {"seed": seed, "workers": workers}
    cfg.update(budgets)
    return cfg


common = [
    click.option("--output", "-o", default=None, help="write the JSON report here instead of stdout"),
    click.option("--seed", default=0, show_default=True, help="recorded in the report; used by sampled checks only"),
    click.option("--workers", default=1, show_default=True, help="worker count (verdicts are deterministic)"),
]


def with_common(cmd):
    for opt in reversed(common):
        cmd = opt(cmd)
    return cmd


@click.group()
def main():
    """Finite Ramsey-category toolkit."""


# --- words -------------------------------------------------------------------

@main.group()
def words():
    """Decorated parameter words."""


@words.command("validate")
@click.argument("text")
@click.option("--context", "context_path", default=None, help="group/action config file")
@click.option("-m", "m", type=int, default=None, help="declared parameter count (default: inferred)")
@with_common
def words_validate(text, context_path, m, output, seed, workers):
    ctx = _load_context(context_path)
    cfg = _config(seed, workers)
    try:
        word = parse_word(text, ctx, m=m)
    except RamcatError as exc:
        _fail(exc, output)
        return
    _emit({"ok": True, "config": cfg, "word": format_word(word), "m": word.m, "n": word.n}, output)


@words.command("compose")
@click.argument("u_file", type=click.Path(exists=True))
@click.argument("v_file", type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@with_common
def words_compose(u_file, v_file, context_path, output, seed, workers):
    ctx = _load_context(context_path)
    cfg = _config(seed, workers)

    def first_word(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    return line.strip()
        raise click.UsageError(f"{path} holds no word")

    try:
        u = parse_word(first_word(u_file), ctx)
        v = parse_word(first_word(v_file), ctx)
        result = substitute(u, v)
    except RamcatError as exc:
        _fail(exc, output)
        return
    click.echo(format_word(result))
    if output:
        _emit({"ok": True, "config": cfg, "result": format_word(result)}, output)


@words.command("enumerate")
@click.option("--context", "context_path", default=None)
@click.option("-m", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("--quiet", is_flag=True, help="only report the count")
@with_common
def words_enumerate(context_path, m, n, quiet, output, seed, workers):
    ctx = _load_context(context_path)
    cfg = _config(seed, workers)
    out = [format_word(w) for w in enumerate_words(m, n, ctx)]
    if not quiet:
        for line in out:
            click.echo(line)
    if quiet or output:
        _emit({"ok": True, "config": cfg, "count": len(out)}, output)


# --- rigid surjections ---------------------------------------------------------

@main.group()
def rsurj():
    """Rigid surjections between chains."""


@rsurj.command("validate")
@click.argument("map_text")
@click.option("--cod", type=int, default=None, help="codomain size (default: max value)")
@with_common
def rsurj_validate(map_text, cod, output, seed, workers):
    image = _parse_map_text(map_text)
    cfg = _config(seed, workers)
    try:
        f = validate_rigid(len(image), cod if cod is not None else max(image, default=0), image)
    except RamcatError as exc:
        _fail(exc, output)
        return
    _emit({"ok": True, "config": cfg, "map": str(f), "dom": f.dom, "cod": f.cod}, output)


@rsurj.command("compose")
@click.argument("f_text")
@click.argument("g_text")
@click.option("--cod", type=int, default=None, help="codomain size of g")
@with_common
def rsurj_compose(f_text, g_text, cod, output, seed, workers):
    fi = _parse_map_text(f_text)
    gi = _parse_map_text(g_text)
    cfg = _config(seed, workers)
    try:
        f = validate_rigid(len(fi), max(fi), fi)
        g = validate_rigid(len(gi), cod if cod is not None else max(gi), gi)
        h = compose_rigid(g, f)
    except RamcatError as exc:
        _fail(exc, output)
        return
    click.echo(str(h))
    if output:
        _emit({"ok": True, "config": cfg, "result": str(h)}, output)


@rsurj.command("enumerate")
@click.option("-n", type=int, required=True)
@click.option("-m", type=int, required=True)
@click.option("--quiet", is_flag=True)
@with_common
def rsurj_enumerate(n, m, quiet, output, seed, workers):
    cfg = _config(seed, workers)
    out = [str(f) for f in enumerate_rsurj(n, m)]
    if not quiet:
        for line in out:
            click.echo(line)
    if quiet or output:
        _emit({"ok": True, "config": cfg, "count": len(out)}, output)


@rsurj.command("dual")
@click.argument("map_text")
@click.option("--cod", type=int, default=None)
@with_common
def rsurj_dual(map_text, cod, output, seed, workers):
    image = _parse_map_text(map_text)
    cfg = _config(seed, workers)
    try:
        f = validate_rigid(len(image), cod if cod is not None else max(image), image)
    except RamcatError as exc:
        _fail(exc, output)
        return
    d = dual(f)
    click.echo("(" + ",".join(str(v) for v in d) + ")")
    if output:
        _emit({"ok": True, "config": cfg, "dual": list(d)}, output)


# --- category fragments --------------------------------------------------------

@main.group()
def category():
    """Finite category fragments."""


@category.command("build")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@click.option("--check", is_flag=True, help="also run the law checks")
@click.option("--hom-cap", default=DEFAULT_HOM_CAP, show_default=True)
@with_common
def category_build(spec_path, context_path, check, hom_cap, output, seed, workers):
    spec = _load_json(spec_path)
    ctx = _load_context(context_path) if context_path else None
    cfg = _config(seed, workers, hom_cap=hom_cap)
    try:
        frag = fragment_from_spec(spec, ctx)
        report = {
            "ok": True,
            "config": cfg,
            "name": frag.name,
            "objects": [str(o) for o in frag.objects],
            "morphisms": frag.total_morphisms(),
        }
        if check:
            laws = validate_fragment(frag)
            report["laws_ok"] = laws.ok
            report["ok"] = laws.ok
        _emit(report, output)
        if not report["ok"]:
            sys.exit(1)
    except RamcatError as exc:
        _fail(exc, output)


@category.command("check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@with_common
def category_check(spec_path, context_path, output, seed, workers):
    spec = _load_json(spec_path)
    ctx = _load_context(context_path) if context_path else None
    cfg = _config(seed, workers)
    try:
        frag = fragment_from_spec(spec, ctx)
        laws = validate_fragment(frag)
        structure = structural_checks(frag)
        report = {
            "ok": laws.ok,
            "config": cfg,
            "laws": {
                "identity_violations": [str(v) for v in laws.identity_violations],
                "associativity_violations": [str(v) for v in laws.associativity_violations],
                "closure_violations": [str(v) for v in laws.closure_violations],
            },
            "structure": structure.as_dict(),
        }
        _emit(report, output)
        if not laws.ok:
            sys.exit(1)
    except RamcatError as exc:
        _fail(exc, output)


@category.command("skeleton")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@with_common
def category_skeleton(spec_path, context_path, output, seed, workers):
    spec = _load_json(spec_path)
    ctx = _load_context(context_path) if context_path else None
    cfg = _config(seed, workers)
    try:
        frag = fragment_from_spec(spec, ctx)
        result = skeleton(frag)
        _emit({
            "ok": True,
            "config": cfg,
            "objects": [str(o) for o in result.fragment.objects],
            "representatives": {str(k): str(v) for k, v in result.representative.items()},
        }, output)
    except RamcatError as exc:
        _fail(exc, output)


# --- ramsey arrows --------------------------------------------------------------

def _family(name: str, context: WordContext):
    if name == "ram":
        return lambda n: ram_fragment(n)
    if name == "dram-op":
        return lambda n: dram_op_fragment(n)
    if name == "gr":
        return lambda n: gr_fragment(context, n)
    raise click.UsageError(f"unknown family {name!r}")


@main.group()
def ramsey():
    """Ramsey arrow checks and minimal-witness search."""


@ramsey.command("check")
@click.option("--family", required=True, type=click.Choice(["ram", "dram-op", "gr"]))
@click.option("--context", "context_path", default=None)
@click.option("-A", "a", type=int, required=True)
@click.option("-B", "b", type=int, required=True)
@click.option("-C", "c", type=int, required=True)
@click.option("-k", "k", type=int, required=True)
@click.option("--budget-nodes", default=None, type=int)
@click.option("--budget-colorings", default=DEFAULT_COLORING_BUDGET, show_default=True, type=int)
@click.option("--engine", default="both", type=click.Choice(["exhaustive", "search", "both"]), show_default=True)
@with_common
def ramsey_check(family, context_path, a, b, c, k, budget_nodes, budget_colorings, engine,
                 output, seed, workers):
    ctx = _load_context(context_path)
    nodes = budget_nodes if budget_nodes is not None else node_budget_default()
    cfg = _config(seed, workers, budget_nodes=nodes, budget_colorings=budget_colorings)
    try:
        frag = _family(family, ctx)(c)
        report = {"config": cfg, "family": family, "A": a, "B": b, "C": c, "k": k}
        holds = None
        if engine in ("exhaustive", "both"):
            verdict = check_arrow_exhaustive(frag, a, b, c, k, coloring_budget=budget_colorings)
            holds = verdict.holds
            report["exhaustive"] = {"holds": verdict.holds, "stats": verdict.stats}
            if verdict.counterexample:
                report["counterexample"] = list(verdict.counterexample.colors)
        if engine in ("search", "both"):
            search_stats: dict = {}
            bad = find_bad_coloring(frag, a, b, c, k, node_budget=nodes, stats_out=search_stats)
            report["search"] = {"holds": bad is None, "stats": search_stats}
            if bad is not None:
                report["search"]["counterexample"] = list(bad.colors)
                report["search"]["certified"] = certify_bad_coloring(frag, a, b, c, bad)
            if holds is not None and holds != (bad is None):
                raise ValidationError("engine_disagreement", "the two engines disagree")
            holds = bad is None
        report["ok"] = bool(holds)
        _emit(report, output)
        if not holds:
            sys.exit(1)
    except RamcatError as exc:
        _fail(exc, output)


@ramsey.command("search")
@click.option("--family", required=True, type=click.Choice(["ram", "dram-op", "gr"]))
@click.option("--context", "context_path", default=None)
@click.option("-A", "a", type=int, required=True)
@click.option("-B", "b", type=int, required=True)
@click.option("-k", "k", type=int, required=True)
@click.option("--max-n", type=int, required=True)
@click.option("--budget-nodes", default=None, type=int)
@with_common
def ramsey_search(family, context_path, a, b, k, max_n, budget_nodes, output, seed, workers):
    ctx = _load_context(context_path)
    nodes = budget_nodes if budget_nodes is not None else node_budget_default()
    cfg = _config(seed, workers, budget_nodes=nodes)
    try:
        n, log = min_ramsey_witness(_family(family, ctx), a, b, k, max_n, node_budget=nodes)
        _emit({"ok": True, "config": cfg, "minimal_n": n, "log": log}, output)
    except RamcatError as exc:
        _fail(exc, output)


# --- pre-adjunctions -------------------------------------------------------------

def _parse_bounds(spec: str | None) -> dict:
    bounds = {}
    if not spec:
        return bounds
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("<=")
        if not sep:
            raise click.UsageError(f"bad bounds clause {clause!r}; expected like src<=2")
        try:
            bounds[key.strip()] = int(value)
        except ValueError:
            raise click.UsageError(f"bad bound value in {clause!r}")
    return bounds


def _build_instance(name: str, context: WordContext, bounds: dict):
    src = bounds.get("src", bounds.get("objects", 2))
    chains = bounds.get("chains", bounds.get("tgt", 6))
    if name == "identity":
        n = bounds.get("objects", bounds.get("src", 3))
        pa = identity_pa(ram_fragment(n))
        return pa, list(range(1, n + 1)), list(range(1, n + 1))
    if name == "gr-plain-to-decorated":
        n = bounds.get("objects", bounds.get("src", 3))
        pa = pa_gr_plain_to_decorated(context, n)
        return pa, list(range(1, n + 1)), list(range(1, n + 1))
    if name == "gr-decorated-to-plain":
        pa = pa_gr_decorated_to_plain(context, chains)
        return pa, list(range(1, src + 1)), list(range(1, chains + 1))
    if name == "gr-to-dram-op":
        plain_g = context if not context.alphabet else WordContext(trivial_action(context.group))
        pa = pa_gr_to_dramop(plain_g, chains, chains)
        return pa, list(range(1, src + 1)), list(range(1, chains + 1))
    if name == "ram-to-dram-op":
        n = bounds.get("src", max(chains - 1, 1))
        pa = pa_ram_to_dramop(max(n, chains - 1))
        return pa, list(range(1, n + 1)), list(range(1, chains + 1))
    if name == "omega-to-fragment":
        n = bounds.get("omega", 4)
        frag = ram_fragment(bounds.get("chains", n + 2))
        seq = [i + 2 for i in range(n + 1)]
        pa = pa_omega_to_nonthin(frag, seq)
        return pa, list(range(n + 1)), list(frag.objects)
    if name == "from-monotone-tukey":
        a_top = bounds.get("src", 10)
        b_top = bounds.get("tgt", 2 * a_top)
        p = chain_preorder(a_top + 1)
        q = chain_preorder(b_top + 1)
        f = [min(2 * x, b_top) for x in range(a_top + 1)]
        g = [min(y // 2, a_top) for y in range(b_top + 1)]
        pa = pa_from_monotone_tukey(p, q, f, g)
        return pa, list(range(a_top + 1)), list(range(b_top + 1))
    raise click.UsageError(f"unknown instance {name!r}; see `ramcat preadj list`")


@main.group()
def preadj():
    """Pre-adjunction construction and verification."""


@preadj.command("list")
def preadj_list():
    for name in PA_INSTANCES:
        click.echo(name)
    click.echo("composed:<a>,<b>[,<c>...]")


@preadj.command("verify")
@click.option("--instance", required=True)
@click.option("--group", "group_path", default=None, help="group config file (empty alphabet)")
@click.option("--context", "context_path", default=None, help="full group/action config file")
@click.option("--alphabet", default=None, help="letters for a trivial action over --group")
@click.option("--bounds", default=None, help="like src<=2,chains<=6")
@click.option("--card-check/--no-card-check", default=True, show_default=True)
@with_common
def preadj_verify(instance, group_path, context_path, alphabet, bounds, card_check,
                  output, seed, workers):
    if context_path:
        context = _load_context(context_path)
    elif group_path:
        data = _load_json(group_path)
        from .groups import _unflatten

        order = int(data["order"])
        table = _unflatten(data["table"], order, order, "group table")
        group = validate_group(table, names=tuple(data.get("element_names") or ()) or None)
        context = WordContext(trivial_action(group, tuple(alphabet.split(",")) if alphabet else ()))
    else:
        context = plain_context()
    parsed = _parse_bounds(bounds)
    cfg = _config(seed, workers, bounds=parsed or {})
    try:
        if instance.startswith("composed:"):
            names = instance.split(":", 1)[1].split(",")
            # size every factor's fragments alike so adjacent interfaces match
            forced = dict(parsed)
            forced["objects"] = forced.get("chains", forced.get("tgt", 6))
            parts = [_build_instance(nm.strip(), context, forced) for nm in names]
            pa = parts[0][0]
            for nxt, _, _ in parts[1:]:
                pa = compose_pa(pa, nxt)
            src_objs = list(range(1, parsed.get("src", parsed.get("objects", 2)) + 1))
            tgt_objs = parts[-1][2]
        else:
            pa, src_objs, tgt_objs = _build_instance(instance, context, parsed)
        report = verify_pa(pa, src_objs, tgt_objs)
        out = {
            "ok": report.ok,
            "config": cfg,
            "instance": pa.name,
            "instances_checked": report.instances,
            "failures": [
                {k: str(v) for k, v in f.items()} for f in report.failures[:20]
            ],
            "failure_count": len(report.failures),
            "phi_landing_failures": [
                {k: str(v) for k, v in f.items()} for f in report.phi_landing_failures[:20]
            ],
            "phi_landing_failure_count": len(report.phi_landing_failures),
            "suggested_tried": report.suggested_tried,
            "suggested_hits": report.suggested_hits,
        }
        if card_check:
            try:
                card = check_card_inequality(pa, src_objs)
                out["cardinality_ok"] = card.ok
                out["cardinality_violations"] = card.violations
            except ValidationError as exc:
                out["cardinality_ok"] = None
                out["cardinality_note"] = str(exc)
        _emit(out, output)
        if not report.ok:
            sys.exit(1)
    except RamcatError as exc:
        _fail(exc, output)


# --- tukey ------------------------------------------------------------------------

def _load_preorder(path: str):
    data = _load_json(path)
    if "leq" in data:
        return validate_preorder(data["leq"])
    if "pairs" in data:
        from .tukey import preorder_from_pairs

        return preorder_from_pairs(int(data["size"]), data["pairs"])
    raise click.UsageError(f"{path} must give 'leq' or 'pairs'")


def _generated(name: str) -> GeneratedPreorder:
    if name == "omega":
        return omega()
    if name == "omega2":
        return omega_squared()
    try:
        finite = _load_preorder(name)
    except click.UsageError:
        raise
    except OSError:
        raise click.UsageError(f"unknown generated preorder {name!r}")

    def upper_bound(x, y):
        for z in range(finite.size):
            if finite.le(x, z) and finite.le(y, z):
                return z
        return x  # no bound exists; the oracle check will flag it

    def enumerate_fn(i):
        if i >= finite.size:
            raise ValidationError("prefix_exhausted",
                                  f"the finite preorder has only {finite.size} elements", size=finite.size)
        return i

    bounded = any(all(finite.le(x, b) for x in range(finite.size)) for b in range(finite.size))
    return GeneratedPreorder(name, enumerate_fn, finite.le, upper_bound, globally_bounded=bounded)


def _map_expr(expr: str):
    if expr.endswith(".txt") or expr.endswith(".expr"):
        with open(expr, encoding="utf-8") as fh:
            expr = fh.read().strip()
    code = compile(expr, "<map>", "eval")

    def f(v):
        return eval(code, {"__builtins__": {}}, {"v": v, "min": min, "max": max, "abs": abs})

    return f, expr


@main.group()
def tukey():
    """Preorder toolkit: Tukey/cofinal checks, companions, monotonization."""


@tukey.command("check")
@click.option("--kind", type=click.Choice(["tukey", "cofinal"]), required=True)
@click.option("--dom", "dom_path", required=True, type=click.Path(exists=True))
@click.option("--cod", "cod_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_json", required=True, help="JSON list, e.g. [0,1,1]")
@with_common
def tukey_check(kind, dom_path, cod_path, map_json, output, seed, workers):
    cfg = _config(seed, workers)
    dom = _load_preorder(dom_path)
    cod = _load_preorder(cod_path)
    try:
        mapping = json.loads(map_json)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"bad --map: {exc}")
    try:
        if kind == "tukey":
            verdict = is_tukey_map(mapping, dom, cod)
        else:
            verdict = is_cofinal_map(mapping, dom, cod)
        _emit({"ok": verdict.ok, "config": cfg, "kind": kind,
               "witness": list(verdict.witness) if verdict.witness else None}, output)
        if not verdict.ok:
            sys.exit(1)
    except RamcatError as exc:
        _fail(exc, output)


@tukey.command("companion")
@click.option("--preorder", default="omega", show_default=True)
@click.option("--preorder-b", default="omega", show_default=True)
@click.option("--map", "expr", required=True, help="expression in v, e.g. '2*v'")
@click.option("-n", "n", default=20, show_default=True)
@with_common
def tukey_companion(preorder, preorder_b, expr, n, output, seed, workers):
    cfg = _config(seed, workers)
    a = _generated(preorder)
    b = _generated(preorder_b)
    f, shown = _map_expr(expr)
    try:
        result = cofinal_companion(f, a, b, n)
        _emit({"ok": result.implication_ok, "config": cfg, "map": shown,
               "g": [str(x) for x in result.g], "checked_pairs": result.checked_pairs,
               "warnings": result.warnings, "certified": "prefix"}, output)
    except RamcatError as exc:
        _fail(exc, output)


@tukey.command("monotonize")
@click.option("--preorder", default="omega", show_default=True)
@click.option("--preorder-b", default="omega", show_default=True)
@click.option("--map", "expr", required=True)
@click.option("--steps", default=20, show_default=True)
@click.option("--prefix", "prefix_size", default=None, type=int)
@click.option("--report", "report_path", default=None, help="alias of --output")
@with_common
def tukey_monotonize(preorder, preorder_b, expr, steps, prefix_size, report_path,
                     output, seed, workers):
    cfg = _config(seed, workers)
    a = _generated(preorder)
    b = _generated(preorder_b)
    f, shown = _map_expr(expr)
    try:
        trace = monotonize(f, a, b, steps, prefix_size=prefix_size)
        check = verify_trace(trace, a, b)
        _emit({
            "ok": check.ok,
            "config": cfg,
            "map": shown,
            "rounds": trace.rounds,
            "s": [str(x) for x in trace.s],
            "b": [str(x) for x in trace.b],
            "blocks": [[str(x) for x in blk] for blk in trace.big_s],
            "invariants": {
                "s_strictly_increasing": check.s_strictly_increasing,
                "blocks_partition_prefix": check.blocks_partition_prefix,
                "blocks_respect_order": check.blocks_respect_order,
                "b_non_decreasing": check.b_non_decreasing,
                "fhat_monotone": check.fhat_monotone,
            },
            "certified": "prefix",
        }, report_path or output)
        if not check.ok:
            sys.exit(1)
    except RamcatError as exc:
        _fail(exc, output or report_path)


# --- golden -------------------------------------------------------------------------

@main.command("golden")
@with_common
def golden_cmd(output, seed, workers):
    cfg = _config(seed, workers)
    report = golden_mod.run_golden_suite()
    for item in report["criteria"]:
        status = "PASS" if item["ok"] else "FAIL"
        click.echo(f"{status} {item['name']}: {item['detail']} [{item['seconds']:.2f}s]")
    if output:
        # timings vary run to run; the written report stays byte-stable
        stable = {
            "ok": report["ok"],
            "config": cfg,
            "criteria": [
                {"name": c["name"], "ok": c["ok"], "detail": c["detail"]}
                for c in report["criteria"]
            ],
        }
        _emit(stable, output)
    sys.exit(0 if report["ok"] else 1)


if __name__ == "__main__":
    main()
