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
from .groups import action_from_dict
from .preadjunction import PA_NAMES, check_card_inequality, named_pa, verify_pa
from .surjections import compose_rigid, dual, enumerate_rsurj, validate_rigid
from .tukey import (
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
from .words import (WordContext, enumerate_words, format_word, listing_size, parse_word, plain_context,
                    substitute)


def _emit(report: dict, output: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


JSON_SCALARS = (str, int, float, bool, type(None))


def _report_value(value):
    """An error's ``data`` value as its report writes it: a JSON scalar, or a
    list of them, as it is, anything else through ``str()``."""
    if type(value) in JSON_SCALARS or (type(value) is list and all(type(v) in JSON_SCALARS for v in value)):
        return value
    return str(value)


def _fail(exc: RamcatError, output: str | None) -> NoReturn:
    if isinstance(exc, (BudgetExceeded, ResourceBound)):
        code = 3
    else:
        code = 1
    report = {"ok": False, "error": str(exc)}
    if isinstance(exc, ValidationError):
        report["code"] = exc.code
        report["data"] = {k: _report_value(v) for k, v in exc.data.items()}
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
    except (ValidationError, LookupError, TypeError, ValueError, OverflowError) as exc:
        raise click.UsageError(f"bad {what} file {path}: {type(exc).__name__}: {exc}")


def _load_context(path: str | None) -> WordContext:
    if path is None:
        return plain_context()
    return WordContext(_read(path, action_from_dict, "context"))


def _load_fragment(spec_path: str, context_path: str | None):
    """The fragment of a spec file.  Only a ``gr`` builder has a context, so
    the context file is read for that spec alone."""
    spec = _load_json(spec_path)
    is_gr = isinstance(spec, dict) and spec.get("builder") == "gr"
    context = _load_context(context_path) if context_path and is_gr else None
    try:
        return fragment_from_spec(spec, context)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        # a spec that reads but names an invalid fragment stays a property
        # failure (a ValidationError, exit 1); this one cannot be read at all,
        # like an infinite n that int() refuses with OverflowError
        raise click.UsageError(f"bad spec file {spec_path}: {type(exc).__name__}: {exc}")


def _parse_map_text(text: str) -> tuple[int, ...]:
    body = text.strip().strip("()")
    try:
        return tuple(int(x) for x in body.split(",") if x.strip())
    except ValueError:
        raise click.UsageError(f"cannot parse map {text!r}; expected like (1,2,1)")


def _rigid(text: str):
    """The rigid surjection written as ``text``.  Its codomain is its largest
    value, the only one a rigid surjection can have (0 for the empty map)."""
    image = _parse_map_text(text)
    return validate_rigid(len(image), max(image, default=0), image)


@click.group()
def main():
    """Finite Ramsey-category toolkit."""


# --- words -------------------------------------------------------------------

def _size_listing(m: int, n: int, context: WordContext, what: str, noun: str) -> None:
    """Refuse, before anything is listed, a listing of the m-parameter
    n-letter words of ``context`` (the rigid surjections n -> m are the
    plain ones) that would write more than ``DEFAULT_HOM_CAP`` letters in
    all (``listing_size``), as every listing of more than
    ``DEFAULT_HOM_CAP`` words would.  Counting words alone would let one
    word of a million letters through, which the enumerator builds a
    prefix at a time."""
    cap = DEFAULT_HOM_CAP
    count, tokens = listing_size(m, n, context, cap)
    if tokens > cap:
        raise ResourceBound(f"{what} would list at least {count} {noun} of {n} letters, more than its cap of "
                            f"{cap} letters in all", cap)


@main.group()
def words():
    """Decorated parameter words."""


@words.command("validate")
@click.argument("text")
@click.option("--context", "context_path", default=None, help="group/action config file")
@reported
def words_validate(text, context_path):
    context = _load_context(context_path)
    word = parse_word(text, context)
    return {"ok": True, "word": format_word(word, context), "m": word.m, "n": word.n}


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
    result = format_word(substitute(ctx, u, v), ctx)
    return [result], {"ok": True, "result": result}


@words.command("enumerate")
@click.option("--context", "context_path", default=None)
@click.option("-m", type=int, required=True)
@click.option("-n", type=int, required=True)
@click.option("--quiet", is_flag=True, help="only report the count")
@reported
def words_enumerate(context_path, m, n, quiet):
    context = _load_context(context_path)
    _size_listing(m, n, context, f"words enumerate -m {m} -n {n}", "words")
    out = [format_word(w, context) for w in enumerate_words(m, n, context)]
    report = {"ok": True, "count": len(out)}
    return report if quiet else (out, report)


# --- rigid surjections ---------------------------------------------------------

@main.group()
def rsurj():
    """Rigid surjections between chains."""


@rsurj.command("validate")
@click.argument("map_text")
@reported
def rsurj_validate(map_text):
    f = _rigid(map_text)
    return {"ok": True, "map": str(f), "dom": f.dom, "cod": f.cod}


@rsurj.command("compose")
@click.argument("f_text")
@click.argument("g_text")
@reported
def rsurj_compose(f_text, g_text):
    f = _rigid(f_text)
    h = str(compose_rigid(_rigid(g_text), f))
    return [h], {"ok": True, "result": h}


@rsurj.command("enumerate")
@click.option("-n", type=int, required=True)
@click.option("-m", type=int, required=True)
@click.option("--quiet", is_flag=True)
@reported
def rsurj_enumerate(n, m, quiet):
    _size_listing(m, n, plain_context(), f"rsurj enumerate -n {n} -m {m}", "maps")
    out = [str(f) for f in enumerate_rsurj(n, m)]
    report = {"ok": True, "count": len(out)}
    return report if quiet else (out, report)


@rsurj.command("dual")
@click.argument("map_text")
@reported
def rsurj_dual(map_text):
    d = dual(_rigid(map_text))
    return ["(" + ",".join(str(v) for v in d) + ")"], {"ok": True, "dual": list(d)}


# --- category fragments --------------------------------------------------------

@main.group()
def category():
    """Finite category fragments."""


@category.command("build")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None,
              help="group/action config file, read only for a gr builder spec")
@reported
def category_build(spec_path, context_path):
    frag = _load_fragment(spec_path, context_path)
    return {
        "ok": True,
        "name": frag.name,
        "objects": [str(o) for o in frag.objects],
        "morphisms": frag.total_morphisms(),
    }


@category.command("check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None,
              help="group/action config file, read only for a gr builder spec")
@reported
def category_check(spec_path, context_path):
    frag = _load_fragment(spec_path, context_path)
    laws = validate_fragment(frag)
    try:
        structure = structural_checks(frag).as_dict()
    except ValidationError as exc:  # the checks compose every pair, and a composite is missing
        if exc.code != "not_closed":
            raise
        structure = None
    return {
        "ok": laws.ok,
        "laws": {
            "identity_violations": [str(v) for v in laws.identity_violations],
            "associativity_violations": [str(v) for v in laws.associativity_violations],
            "closure_violations": [str(v) for v in laws.closure_violations],
        },
        "structure": structure,
    }


@category.command("skeleton")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--context", "context_path", default=None,
              help="group/action config file, read only for a gr builder spec")
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
@click.option("-k", "k", type=click.IntRange(min=1), required=True)
@click.option("--budget-nodes", default=DEFAULT_NODE_BUDGET, show_default=True, type=click.IntRange(min=0))
@click.option("--budget-colorings", default=DEFAULT_COLORING_BUDGET, show_default=True, type=click.IntRange(min=0),
              help="the exhaustive oracle runs when k^|hom(A,C)| is at most this")
@reported
def ramsey_check(family, context_path, a, b, c, k, budget_nodes, budget_colorings):
    frag = _family(family, _load_context(context_path))(c)
    report = {"config": {"budget_nodes": budget_nodes, "budget_colorings": budget_colorings},
              "family": family, "A": a, "B": b, "C": c, "k": k}
    search_stats: dict = {}
    bad = find_bad_coloring(frag, a, b, c, k, node_budget=budget_nodes, stats_out=search_stats)
    report["search"] = {"holds": bad is None, "stats": search_stats}
    if bad is not None:
        report["search"]["counterexample"] = list(bad.colors)
        report["search"]["certified"] = certify_bad_coloring(frag, a, b, c, bad)
    try:
        verdict = check_arrow_exhaustive(frag, a, b, c, k, coloring_budget=budget_colorings)
    except BudgetExceeded as exc:  # too many colorings for the oracle: the search decides alone
        report["exhaustive"] = {"skipped": str(exc), "stats": exc.stats}
    else:
        report["exhaustive"] = {"holds": verdict.holds, "stats": verdict.stats}
        if verdict.counterexample:
            report["counterexample"] = list(verdict.counterexample.colors)
        if verdict.holds != (bad is None):
            raise ValidationError("engine_disagreement", "the two engines disagree")
    report["ok"] = bad is None
    return report


@ramsey.command("search")
@click.option("--family", required=True, type=click.Choice(["ram", "dram-op", "gr"]))
@click.option("--context", "context_path", default=None)
@click.option("-A", "a", type=int, required=True)
@click.option("-B", "b", type=int, required=True)
@click.option("-k", "k", type=click.IntRange(min=1), required=True)
@click.option("--max-n", type=int, required=True)
@click.option("--budget-nodes", default=DEFAULT_NODE_BUDGET, show_default=True, type=click.IntRange(min=0))
@reported
def ramsey_search(family, context_path, a, b, k, max_n, budget_nodes):
    family_fn = _family(family, _load_context(context_path))
    config = {"budget_nodes": budget_nodes}
    try:
        n, log = min_ramsey_witness(family_fn, a, b, k, max_n, node_budget=budget_nodes)
    except ValidationError as exc:
        if exc.code != "not_found_within_bound":
            raise
        # the certified counterexamples up to the bound are the answer's evidence
        return {"ok": False, "config": config, "error": str(exc), "code": exc.code,
                "data": {"n_max": max_n}, "log": exc.data["log"]}
    return {"ok": True, "config": config, "minimal_n": n, "log": log}


# --- pre-adjunctions -------------------------------------------------------------

def _parse_bounds(spec: str | None) -> dict:
    """Clauses like src<=2; ``src`` and ``tgt`` are the only keys."""
    bounds = {}
    for clause in (spec or "").split(","):
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
    unknown = sorted(bounds.keys() - {"src", "tgt"})
    if unknown:
        raise click.UsageError(f"bounds key not src or tgt: {', '.join(map(repr, unknown))}")
    return bounds


@main.group()
def preadj():
    """Pre-adjunction construction and verification."""


@preadj.command("list")
def preadj_list():
    for name in PA_NAMES:
        click.echo(name)
    click.echo("composed:<a>,<b>[,<c>...]")


@preadj.command("verify")
@click.option("--instance", required=True)
@click.option("--context", "context_path", default=None,
              help="group/action config file; a group-only file gives the empty alphabet")
@click.option("--bounds", default=None, help="like src<=2,tgt<=6")
@reported
def preadj_verify(instance, context_path, bounds):
    context = _load_context(context_path)
    names = instance.removeprefix("composed:").split(",") if instance.startswith("composed:") else [instance]
    for nm in map(str.strip, names):
        if nm not in PA_NAMES:
            raise click.UsageError(f"unknown instance {nm!r}; see `ramcat preadj list`")
    parsed = _parse_bounds(bounds)
    pa, src_objs, tgt_objs = named_pa(instance, context, parsed)
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
    try:
        card = check_card_inequality(pa, src_objs)
        out["cardinality_ok"] = card.ok
        out["cardinality_violations"] = card.violations
    except ValidationError as exc:
        out["cardinality_ok"] = None
        out["cardinality_note"] = str(exc)
    return out


# --- tukey ------------------------------------------------------------------------

PREORDER_FILE_CAP = 256  # elements of a preorder file, checked before any table is built


def _preorder_from_dict(data: dict):
    """``leq``, an array of arrays of booleans, or an integer ``size`` and
    ``pairs``, an array of arrays of integers; other values raise TypeError."""
    if "leq" in data:
        if not (isinstance(data["leq"], list)
                and all(isinstance(row, list) and all(type(v) is bool for v in row) for row in data["leq"])):
            raise TypeError("'leq' must be an array of arrays of booleans")
        size = len(data["leq"])
    elif "pairs" in data:
        size = data["size"]
        if not (type(size) is int and isinstance(data["pairs"], list)
                and all(isinstance(pair, list) and all(type(x) is int for x in pair) for pair in data["pairs"])):
            raise TypeError("'size' must be an integer and 'pairs' an array of arrays of integers")
    else:
        raise ValidationError("not_preorder", "a preorder file must give 'leq' or 'pairs'")
    if size < 0:
        raise ValidationError("not_preorder", f"a preorder cannot have {size} elements", size=size)
    if size > PREORDER_FILE_CAP:
        raise ValidationError("size_cap_exceeded", f"a preorder file is capped at {PREORDER_FILE_CAP} elements",
                              cap=PREORDER_FILE_CAP, size=size)
    if "leq" in data:
        return validate_preorder(data["leq"])
    return preorder_from_pairs(size, data["pairs"])


# the generated preorders --preorder and --preorder-b name
GENERATED = {"omega": omega, "omega2": omega_squared}


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
    dom, cod = (_read(path, _preorder_from_dict, "preorder") for path in (dom_path, cod_path))
    try:
        mapping = json.loads(map_json)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"bad --map: {exc}")
    check = is_tukey_map if kind == "tukey" else is_cofinal_map
    verdict = check(mapping, dom, cod)
    return {"ok": verdict.ok, "kind": kind, "witness": list(verdict.witness) if verdict.witness else None}


@tukey.command("companion")
@click.option("--preorder", type=click.Choice(list(GENERATED)), default="omega", show_default=True)
@click.option("--preorder-b", type=click.Choice(list(GENERATED)), default="omega", show_default=True)
@click.option("--map", "expr", required=True, help="expression in v, e.g. '2*v'")
@click.option("-n", "n", default=20, show_default=True)
@reported
def tukey_companion(preorder, preorder_b, expr, n):
    a, b = GENERATED[preorder](), GENERATED[preorder_b]()
    f, shown = _map_expr(expr)
    result = cofinal_companion(f, a, b, n)
    return {"ok": True, "map": shown,
            "g": [str(x) for x in result.g], "checked_pairs": result.checked_pairs,
            "warnings": result.warnings, "certified": "prefix"}


@tukey.command("monotonize")
@click.option("--preorder", type=click.Choice(list(GENERATED)), default="omega", show_default=True)
@click.option("--preorder-b", type=click.Choice(list(GENERATED)), default="omega", show_default=True)
@click.option("--map", "expr", required=True)
@click.option("--steps", default=20, show_default=True)
@click.option("--prefix", "prefix_size", default=None, type=int)
@reported
def tukey_monotonize(preorder, preorder_b, expr, steps, prefix_size):
    a, b = GENERATED[preorder](), GENERATED[preorder_b]()
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
