"""Command-line interface.

Exit codes: 0 success/verified, 1 property failure found (invalid object,
arrow fails, transport-condition failure), 2 usage or configuration error,
3 budget or resource cap exceeded.  Every command but ``preadj list`` writes
a JSON report (stdout by default, ``--output`` for a file); reports are
byte-stable for a fixed configuration.  The commands whose verdict depends
on a budget or a bound record it under ``config``.
"""

from __future__ import annotations

import ast
import functools
import json
import operator
import sys
from typing import NoReturn

import click

from . import golden as golden_mod
from .arrows import (
    DEFAULT_COLORING_BUDGET,
    DEFAULT_NODE_BUDGET,
    certify_bad_coloring,
    check_arrow_exhaustive,
    find_bad_coloring,
    min_ramsey_witness,
)
from .category import (
    dram_op_fragment,
    fragment_from_spec,
    gr_fragment,
    ram_fragment,
    skeleton,
    structural_checks,
    validate_fragment,
)
from .errors import BudgetExceeded, RamcatError, ResourceBound, ValidationError
from .groups import action_from_dict, trivial_action
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
    preorder_from_pairs,
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


def _fail(exc: RamcatError, output: str | None) -> NoReturn:
    if isinstance(exc, (BudgetExceeded, ResourceBound)):
        code = 3
    else:
        code = 1
    report = {"ok": False, "error": str(exc)}
    if isinstance(exc, ValidationError):
        report["code"] = exc.code
        report["data"] = {k: str(v) for k, v in exc.data.items()}
    if isinstance(exc, BudgetExceeded) and exc.stats:
        report["stats"] = exc.stats
    _emit(report, output)
    sys.exit(code)


def reported(body):
    """Make ``body`` a report-writing command with an ``--output`` option.

    ``body`` returns its report, or ``(lines, report)`` when it answers in
    text: then the lines go to stdout and the report only to ``--output``.
    A ``RamcatError`` ends the command through ``_fail``, and a report whose
    ``ok`` is false exits 1.
    """

    @click.option("--output", "-o", default=None, help="write the JSON report here instead of stdout")
    @functools.wraps(body)
    def run(output, **params):
        try:
            result = body(**params)
        except RamcatError as exc:
            _fail(exc, output)
        lines, report = result if isinstance(result, tuple) else (None, result)
        for line in lines or ():
            click.echo(line)
        if output or lines is None:
            _emit(report, output)
        if not report["ok"]:
            sys.exit(1)

    return run


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _read(path: str, load, what: str):
    """``load`` applied to the JSON file at ``path``.  The file comes from
    outside the program, so a file ``load`` rejects, or fails on, is a usage
    error."""
    data = _load_json(path)
    try:
        return load(data)
    except (ValidationError, LookupError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad {what} file {path}: {type(exc).__name__}: {exc}")


def _load_context(path: str | None) -> WordContext:
    if path is None:
        return plain_context()
    return WordContext(_read(path, action_from_dict, "context"))


def _load_fragment(spec_path: str, context_path: str | None):
    spec = _load_json(spec_path)
    context = _load_context(context_path) if context_path else None
    try:
        return fragment_from_spec(spec, context)
    except (LookupError, TypeError, ValueError) as exc:
        # a spec that reads but names an invalid fragment stays a property
        # failure (a ValidationError, exit 1); this one cannot be read at all
        raise click.UsageError(f"bad spec file {spec_path}: {type(exc).__name__}: {exc}")


def _parse_map_text(text: str) -> tuple[int, ...]:
    body = text.strip().strip("()")
    try:
        return tuple(int(x) for x in body.split(",") if x.strip())
    except ValueError:
        raise click.UsageError(f"cannot parse map {text!r}; expected like (1,2,1)")


def _cod(image: tuple[int, ...], cod: int | None = None) -> int:
    """``cod`` if given, else the largest value of ``image``."""
    if cod is not None:
        return cod
    if not image:
        raise click.UsageError("the codomain of the empty map () cannot be inferred")
    return max(image)


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
@reported
def words_validate(text, context_path, m):
    word = parse_word(text, _load_context(context_path), m=m)
    return {"ok": True, "word": format_word(word), "m": word.m, "n": word.n}


@words.command("compose")
@click.argument("u_file", type=click.Path(exists=True))
@click.argument("v_file", type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@reported
def words_compose(u_file, v_file, context_path):
    ctx = _load_context(context_path)

    def first_word(path):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        return line.strip()
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot read {path}: {exc}")
        raise click.UsageError(f"{path} holds no word")

    u = parse_word(first_word(u_file), ctx)
    v = parse_word(first_word(v_file), ctx)
    result = format_word(substitute(u, v))
    return [result], {"ok": True, "result": result}


@words.command("enumerate")
@click.option("--context", "context_path", default=None)
@click.option("-m", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("--quiet", is_flag=True, help="only report the count")
@reported
def words_enumerate(context_path, m, n, quiet):
    out = [format_word(w) for w in enumerate_words(m, n, _load_context(context_path))]
    report = {"ok": True, "count": len(out)}
    return report if quiet else (out, report)


# --- rigid surjections ---------------------------------------------------------

@main.group()
def rsurj():
    """Rigid surjections between chains."""


@rsurj.command("validate")
@click.argument("map_text")
@click.option("--cod", type=int, default=None, help="codomain size (default: max value)")
@reported
def rsurj_validate(map_text, cod):
    image = _parse_map_text(map_text)
    f = validate_rigid(len(image), cod if cod is not None else max(image, default=0), image)
    return {"ok": True, "map": str(f), "dom": f.dom, "cod": f.cod}


@rsurj.command("compose")
@click.argument("f_text")
@click.argument("g_text")
@click.option("--cod", type=int, default=None, help="codomain size of g")
@reported
def rsurj_compose(f_text, g_text, cod):
    fi = _parse_map_text(f_text)
    gi = _parse_map_text(g_text)
    f = validate_rigid(len(fi), _cod(fi), fi)
    g = validate_rigid(len(gi), _cod(gi, cod), gi)
    h = str(compose_rigid(g, f))
    return [h], {"ok": True, "result": h}


@rsurj.command("enumerate")
@click.option("-n", type=int, required=True)
@click.option("-m", type=int, required=True)
@click.option("--quiet", is_flag=True)
@reported
def rsurj_enumerate(n, m, quiet):
    out = [str(f) for f in enumerate_rsurj(n, m)]
    report = {"ok": True, "count": len(out)}
    return report if quiet else (out, report)


@rsurj.command("dual")
@click.argument("map_text")
@click.option("--cod", type=int, default=None)
@reported
def rsurj_dual(map_text, cod):
    image = _parse_map_text(map_text)
    d = dual(validate_rigid(len(image), _cod(image, cod), image))
    return ["(" + ",".join(str(v) for v in d) + ")"], {"ok": True, "dual": list(d)}


# --- category fragments --------------------------------------------------------

@main.group()
def category():
    """Finite category fragments."""


@category.command("build")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@click.option("--check", is_flag=True, help="also run the law checks")
@reported
def category_build(spec_path, context_path, check):
    frag = _load_fragment(spec_path, context_path)
    report = {
        "ok": True,
        "name": frag.name,
        "objects": [str(o) for o in frag.objects],
        "morphisms": frag.total_morphisms(),
    }
    if check:
        report["laws_ok"] = report["ok"] = validate_fragment(frag).ok
    return report


@category.command("check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@reported
def category_check(spec_path, context_path):
    frag = _load_fragment(spec_path, context_path)
    laws = validate_fragment(frag)
    structure = structural_checks(frag)
    return {
        "ok": laws.ok,
        "laws": {
            "identity_violations": [str(v) for v in laws.identity_violations],
            "associativity_violations": [str(v) for v in laws.associativity_violations],
            "closure_violations": [str(v) for v in laws.closure_violations],
        },
        "structure": structure.as_dict(),
    }


@category.command("skeleton")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None)
@reported
def category_skeleton(spec_path, context_path):
    result = skeleton(_load_fragment(spec_path, context_path))
    return {
        "ok": True,
        "objects": [str(o) for o in result.fragment.objects],
        "representatives": {str(k): str(v) for k, v in result.representative.items()},
    }


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
@click.option("--budget-nodes", default=DEFAULT_NODE_BUDGET, show_default=True, type=int)
@click.option("--budget-colorings", default=DEFAULT_COLORING_BUDGET, show_default=True, type=int)
@click.option("--engine", default="both", type=click.Choice(["exhaustive", "search", "both"]), show_default=True)
@reported
def ramsey_check(family, context_path, a, b, c, k, budget_nodes, budget_colorings, engine):
    frag = _family(family, _load_context(context_path))(c)
    report = {"config": {"budget_nodes": budget_nodes, "budget_colorings": budget_colorings},
              "family": family, "A": a, "B": b, "C": c, "k": k}
    holds = None
    if engine in ("exhaustive", "both"):
        verdict = check_arrow_exhaustive(frag, a, b, c, k, coloring_budget=budget_colorings)
        holds = verdict.holds
        report["exhaustive"] = {"holds": verdict.holds, "stats": verdict.stats}
        if verdict.counterexample:
            report["counterexample"] = list(verdict.counterexample.colors)
    if engine in ("search", "both"):
        search_stats: dict = {}
        bad = find_bad_coloring(frag, a, b, c, k, node_budget=budget_nodes, stats_out=search_stats)
        report["search"] = {"holds": bad is None, "stats": search_stats}
        if bad is not None:
            report["search"]["counterexample"] = list(bad.colors)
            report["search"]["certified"] = certify_bad_coloring(frag, a, b, c, bad)
        if holds is not None and holds != (bad is None):
            raise ValidationError("engine_disagreement", "the two engines disagree")
        holds = bad is None
    report["ok"] = bool(holds)
    return report


@ramsey.command("search")
@click.option("--family", required=True, type=click.Choice(["ram", "dram-op", "gr"]))
@click.option("--context", "context_path", default=None)
@click.option("-A", "a", type=int, required=True)
@click.option("-B", "b", type=int, required=True)
@click.option("-k", "k", type=int, required=True)
@click.option("--max-n", type=int, required=True)
@click.option("--budget-nodes", default=DEFAULT_NODE_BUDGET, show_default=True, type=int)
@reported
def ramsey_search(family, context_path, a, b, k, max_n, budget_nodes):
    family_fn = _family(family, _load_context(context_path))
    n, log = min_ramsey_witness(family_fn, a, b, k, max_n, node_budget=budget_nodes)
    return {"ok": True, "config": {"budget_nodes": budget_nodes}, "minimal_n": n, "log": log}


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
@reported
def preadj_verify(instance, group_path, context_path, alphabet, bounds, card_check):
    if group_path and not context_path:
        letters = tuple(alphabet.split(",")) if alphabet else ()

        def group_context(data):
            return WordContext(trivial_action(action_from_dict(data).group, letters))

        context = _read(group_path, group_context, "group")
    else:
        context = _load_context(context_path)
    parsed = _parse_bounds(bounds)
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
    if not src_objs or not tgt_objs:
        # a check over no objects checks nothing, so it cannot verify anything
        raise click.UsageError(f"--bounds {bounds!r} leaves no source or no target objects")
    report = verify_pa(pa, src_objs, tgt_objs)
    out = {
        "ok": report.ok,
        "config": {"bounds": parsed},
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
    return out


# --- tukey ------------------------------------------------------------------------

def _preorder_from_dict(data: dict):
    if "leq" in data:
        return validate_preorder(data["leq"])
    if "pairs" in data:
        return preorder_from_pairs(int(data["size"]), data["pairs"])
    raise ValidationError("not_preorder", "a preorder file must give 'leq' or 'pairs'")


def _load_preorder(path: str):
    return _read(path, _preorder_from_dict, "preorder")


def _generated(name: str) -> GeneratedPreorder:
    if name == "omega":
        return omega()
    if name == "omega2":
        return omega_squared()
    finite = _load_preorder(name)

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


MAP_INT_BITS = 64  # --map literals and arithmetic stay below 2**64 in absolute value
_MAP_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod}
_MAP_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAP_COMPARE = {ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
                ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}
_MAP_CALLS = {"min": min, "max": max, "abs": abs}


def _map_int(x):
    """An operand or result of --map arithmetic: an integer below the cap."""
    if not isinstance(x, int):
        raise click.UsageError(f"--map arithmetic takes integers, not {x!r}")
    if x.bit_length() > MAP_INT_BITS:
        raise click.UsageError(f"--map value {x} is not below 2**{MAP_INT_BITS} in absolute value")
    return x


def _map_compile(node):
    """Turn a --map expression node into a function of ``v``, or reject it
    with a usage error if it is not on the whitelist."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value = _map_int(node.value)
        return lambda v: value
    if isinstance(node, ast.Name) and node.id == "v":
        return lambda v: v
    if isinstance(node, ast.Tuple):
        elts = [_map_compile(e) for e in node.elts]
        return lambda v: tuple(e(v) for e in elts)
    if isinstance(node, ast.Subscript):
        seq, index = _map_compile(node.value), _map_compile(node.slice)
        return lambda v: seq(v)[index(v)]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _MAP_UNARY:
        op, operand = _MAP_UNARY[type(node.op)], _map_compile(node.operand)
        return lambda v: _map_int(op(_map_int(operand(v))))
    if isinstance(node, ast.BinOp) and type(node.op) in _MAP_BINOPS:
        op, left, right = _MAP_BINOPS[type(node.op)], _map_compile(node.left), _map_compile(node.right)
        return lambda v: _map_int(op(_map_int(left(v)), _map_int(right(v))))
    if isinstance(node, ast.Compare) and all(type(op) in _MAP_COMPARE for op in node.ops):
        ops = [_MAP_COMPARE[type(op)] for op in node.ops]
        terms = [_map_compile(t) for t in (node.left, *node.comparators)]

        def compare(v):
            left = terms[0](v)
            for op, term in zip(ops, terms[1:]):
                right = term(v)
                if not op(left, right):
                    return False
                left = right
            return True

        return compare
    if isinstance(node, ast.IfExp):
        test, body, orelse = map(_map_compile, (node.test, node.body, node.orelse))
        return lambda v: body(v) if test(v) else orelse(v)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _MAP_CALLS
            and not node.keywords):
        fn, args = _MAP_CALLS[node.func.id], [_map_compile(a) for a in node.args]
        return lambda v: fn(*(a(v) for a in args))
    raise click.UsageError("--map allows v, integers, tuples, indexing, + - * // %, comparisons, "
                           f"'x if c else y' and min/max/abs, not {ast.unparse(node)!r}")


def _map_expr(expr: str):
    """Parse a --map expression in ``v``; return the map and its text.  The
    expression is walked against a whitelist, never evaluated by Python, and
    any other construct, or any failure while evaluating it, is a usage
    error."""
    if expr.endswith(".txt") or expr.endswith(".expr"):
        try:
            with open(expr, encoding="utf-8") as fh:
                expr = fh.read().strip()
        except OSError as exc:
            raise click.UsageError(f"cannot read --map file: {exc}")
    try:
        compiled = _map_compile(ast.parse(expr, "<map>", mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise click.UsageError(f"bad --map expression {expr!r}: {exc}")

    def f(v):
        try:
            return compiled(v)
        except (ArithmeticError, LookupError, TypeError, ValueError, RecursionError) as exc:
            raise click.UsageError(f"--map {expr!r} fails on {v!r}: {exc}")

    return f, expr


@main.group()
def tukey():
    """Preorder toolkit: Tukey/cofinal checks, companions, monotonization."""


@tukey.command("check")
@click.option("--kind", type=click.Choice(["tukey", "cofinal"]), required=True)
@click.option("--dom", "dom_path", required=True, type=click.Path(exists=True))
@click.option("--cod", "cod_path", required=True, type=click.Path(exists=True))
@click.option("--map", "map_json", required=True, help="JSON list, e.g. [0,1,1]")
@reported
def tukey_check(kind, dom_path, cod_path, map_json):
    dom = _load_preorder(dom_path)
    cod = _load_preorder(cod_path)
    try:
        mapping = json.loads(map_json)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"bad --map: {exc}")
    check = is_tukey_map if kind == "tukey" else is_cofinal_map
    verdict = check(mapping, dom, cod)
    return {"ok": verdict.ok, "kind": kind, "witness": list(verdict.witness) if verdict.witness else None}


@tukey.command("companion")
@click.option("--preorder", default="omega", show_default=True)
@click.option("--preorder-b", default="omega", show_default=True)
@click.option("--map", "expr", required=True, help="expression in v, e.g. '2*v'")
@click.option("-n", "n", default=20, show_default=True)
@reported
def tukey_companion(preorder, preorder_b, expr, n):
    a = _generated(preorder)
    b = _generated(preorder_b)
    f, shown = _map_expr(expr)
    result = cofinal_companion(f, a, b, n)
    return {"ok": result.implication_ok, "map": shown,
            "g": [str(x) for x in result.g], "checked_pairs": result.checked_pairs,
            "warnings": result.warnings, "certified": "prefix"}


@tukey.command("monotonize")
@click.option("--preorder", default="omega", show_default=True)
@click.option("--preorder-b", default="omega", show_default=True)
@click.option("--map", "expr", required=True)
@click.option("--steps", default=20, show_default=True)
@click.option("--prefix", "prefix_size", default=None, type=int)
@reported
def tukey_monotonize(preorder, preorder_b, expr, steps, prefix_size):
    a = _generated(preorder)
    b = _generated(preorder_b)
    f, shown = _map_expr(expr)
    trace = monotonize(f, a, b, steps, prefix_size=prefix_size)
    check = verify_trace(trace, a, b)
    return {
        "ok": check.ok,
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
    }


# --- golden -------------------------------------------------------------------------

@main.command("golden")
@reported
def golden_cmd():
    report = golden_mod.run_golden_suite()
    lines = [f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']} [{c['seconds']:.2f}s]"
             for c in report["criteria"]]
    # timings vary run to run; the written report stays byte-stable
    return lines, {
        "ok": report["ok"],
        "criteria": [{"name": c["name"], "ok": c["ok"], "detail": c["detail"]} for c in report["criteria"]],
    }


if __name__ == "__main__":
    main()
