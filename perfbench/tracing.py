"""Per-layer tracing from outside the library.

``Tracer.installed()`` rebinds the entry points of the ramcat modules to
timing wrappers for the duration of a ``with`` block and restores them on
exit.  A function is rebound under every name a ramcat module holds it by
(``substitute`` is bound in ``ramcat.category`` as well as ``ramcat.words``,
``validate_word`` in ``ramcat.preadjunction`` and ``ramcat.surjections``), so
no call escapes the count.

Every traced call opens a frame.  A key's seconds are the inclusive time of
its outermost calls; its self seconds are durations minus the durations of
child frames.  Coarse calls (queries, fragment builds, engines, checks) are
also kept in memory as spans ``(id, name, start, end, parent id)``.  Hot calls
(composition, substitution, word validation, ``phi``, enumeration steps) are
only aggregated: a span each would cost more than the work they time.
``RightAction.act`` takes well under a microsecond and is only counted.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import ramcat
import ramcat.arrows
import ramcat.category
import ramcat.groups
import ramcat.preadjunction
import ramcat.surjections
import ramcat.tukey
import ramcat.words

BUILD, BUILD_VEC = "category.build", "category.build.vec"


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.seconds = Counter()  # inclusive, outermost call of each key
        self.self_seconds = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._open = Counter()  # open frames per key
        self._next_id = 0
        self._query_fragments: set = set()
        self._seen_fragments: set = set()

    # --- frames -----------------------------------------------------------

    def call(self, key, fn, args, kwargs, span=True, label=None):
        stack = self._stack
        span_id = parent = None
        if span:
            span_id = self._next_id
            self._next_id += 1
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        frame = [0.0, span_id]
        stack.append(frame)
        self._open[key] += 1
        self.counts[key + ".calls"] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._open[key] -= 1
            duration = end - start
            if not self._open[key]:
                self.seconds[key] += duration
            self.self_seconds[key] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if span:
                self.spans.append((span_id, label or key, start, end, parent))

    def query(self, name, fn):
        """Run one query under a span of its own, noting whether it builds a
        fragment an earlier query built too."""
        self._query_fragments = set()
        try:
            return self.call("query", fn, (), {}, label="query:" + name)
        finally:
            if self._query_fragments & self._seen_fragments:
                self.counts["workload.reusing_queries"] += 1
            self._seen_fragments |= self._query_fragments

    # --- wrappers -----------------------------------------------------------

    def _timed(self, key, fn, post=None, span=True):
        def wrapper(*args, **kwargs):
            result = self.call(key, fn, args, kwargs, span)
            if post is not None:
                post(result, args)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, key, fn, count_key):
        """Time each step of a generator, not the consumer between steps."""
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(key, next, (items,), {}, span=False)
                except StopIteration:
                    return
                self.counts[count_key] += 1
                yield item

        return wrapper

    def _adder(self, key, measure):
        def post(result, args):
            self.counts[key] += measure(result)

        return post

    def _built(self, fragment, args):
        if not (self._open[BUILD] or self._open[BUILD_VEC]):
            self.counts["category.build.morphisms"] += fragment.total_morphisms()
            self._query_fragments.add(fragment.name)

    def _search(self, fn):
        def find_bad_coloring(fragment, a, b, c, k, node_budget=None, stats_out=None):
            stats = {} if stats_out is None else stats_out
            result = self.call("arrows.search", fn, (fragment, a, b, c, k, node_budget, stats), {})
            self.counts["arrows.search.nodes"] += stats["nodes"]
            return result

        return find_bad_coloring

    @contextmanager
    def _pa_hooks(self, pa):
        """Trace the morphism family of the pre-adjunction under check."""
        phi, suggested = pa.phi, pa.suggested_v
        pa.phi = self._timed("preadjunction.phi", phi, span=False)
        if suggested is not None:
            pa.suggested_v = self._timed("preadjunction.suggested", suggested, span=False)
        try:
            yield
        finally:
            pa.phi, pa.suggested_v = phi, suggested

    def _verify(self, fn):
        def verify_pa(pa, *args, **kwargs):
            with self._pa_hooks(pa):
                report = self.call("preadjunction.verify", fn, (pa,) + args, kwargs)
            self.counts["preadjunction.verify.instances"] += report.instances
            self.counts["preadjunction.suggested.tried"] += report.suggested_tried
            self.counts["preadjunction.suggested.hits"] += report.suggested_hits
            return report

        return verify_pa

    def _recheck(self, fn):
        def recheck_failures(pa, report):
            with self._pa_hooks(pa):
                return self.call("preadjunction.recheck", fn, (pa, report), {})

        return recheck_failures

    def _subsets(self, result, args):
        """Subsets a check examined: all of them, or up to the witness."""
        if hasattr(result, "witness"):
            examined = (1 << args[1].size) - 1 if result.ok else sum(1 << x for x in result.witness)
        else:
            examined = (1 << args[0].size) - 1
        self.counts["tukey.check.subsets"] += examined

    # --- installation ---------------------------------------------------------

    def _plan(self):
        words, surj, cat = ramcat.words, ramcat.surjections, ramcat.category
        arrows, pre, tukey = ramcat.arrows, ramcat.preadjunction, ramcat.tukey
        functions = [
            (words.substitute, self._timed("words.substitute", words.substitute, span=False)),
            (words.validate_word, self._timed("words.validate", words.validate_word, span=False)),
            (words.enumerate_words, self._generator("words.enumerate", words.enumerate_words,
                                                    "words.enumerate.words")),
            (surj.compose_rigid, self._timed("surjections.compose", surj.compose_rigid, span=False)),
            (surj.enumerate_rsurj, self._generator("surjections.enumerate", surj.enumerate_rsurj,
                                                   "surjections.enumerate.maps")),
            (cat.vec_fragment, self._timed(BUILD_VEC, cat.vec_fragment, self._built)),
            (cat.validate_fragment, self._timed("category.laws", cat.validate_fragment)),
            (cat.check_fragment_isomorphism, self._timed("category.iso", cat.check_fragment_isomorphism)),
            (arrows._prepare, self._timed("arrows.prepare", arrows._prepare,
                                          self._adder("arrows.prepare.copies", lambda r: len(r.sets)))),
            (arrows.find_bad_coloring, self._search(arrows.find_bad_coloring)),
            (arrows.check_arrow_exhaustive, self._timed(
                "arrows.exhaustive", arrows.check_arrow_exhaustive,
                self._adder("arrows.exhaustive.colorings", lambda r: r.stats["colorings"]))),
            (arrows.certify_bad_coloring, self._timed("arrows.certify", arrows.certify_bad_coloring)),
            (arrows.min_ramsey_witness, self._timed("arrows.min_witness", arrows.min_ramsey_witness)),
            (pre.verify_pa, self._verify(pre.verify_pa)),
            (pre.recheck_failures, self._recheck(pre.recheck_failures)),
            (pre.check_card_inequality, self._timed("preadjunction.card", pre.check_card_inequality)),
            (tukey.monotonize, self._timed("tukey.monotonize", tukey.monotonize)),
            (tukey.verify_trace, self._timed("tukey.monotonize", tukey.verify_trace)),
        ]
        for name in ("ram_fragment", "dram_fragment", "dram_op_fragment", "gr_fragment", "opposite",
                     "thin_from_preorder", "omega_truncation"):
            fn = getattr(cat, name)
            functions.append((fn, self._timed(BUILD, fn, self._built)))
        for fn in (cat.structural_checks, cat.skeleton, cat.fragment_equal):
            functions.append((fn, self._timed("category.structure", fn)))
        for fn in (tukey.is_tukey_map, tukey.is_cofinal_map, tukey.preorder_predicates):
            functions.append((fn, self._timed("tukey.check", fn, self._subsets)))
        methods = [
            (cat.CategoryFragment, "compose",
             self._timed("category.compose", cat.CategoryFragment.compose, span=False)),
            (ramcat.groups.RightAction, "act", self._counted("groups.act.calls", ramcat.groups.RightAction.act)),
        ]
        return functions, methods

    @contextmanager
    def installed(self):
        functions, methods = self._plan()
        modules = [m for name, m in sys.modules.items() if name == "ramcat" or name.startswith("ramcat.")]
        patches = []
        try:
            for original, wrapper in functions:
                bound = [(m, attr) for m in modules for attr, value in vars(m).items() if value is original]
                if not bound:
                    raise RuntimeError(f"no ramcat module binds {original.__qualname__}")
                for module, attr in bound:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
            for cls, attr, wrapper in methods:
                patches.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    # --- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        c, s, own = self.counts, self.seconds, self.self_seconds

        def ratio(x, y):
            return x / y if y else 0.0

        return {
            "words.substitute.calls": c["words.substitute.calls"],
            "words.substitute.s": s["words.substitute"],
            "words.validate.calls": c["words.validate.calls"],
            "words.validate.s": s["words.validate"],
            "words.enumerate.words": c["words.enumerate.words"],
            "words.enumerate.s": s["words.enumerate"],
            "groups.act.calls": c["groups.act.calls"],
            "surjections.compose.calls": c["surjections.compose.calls"],
            "surjections.compose.s": s["surjections.compose"],
            "surjections.enumerate.maps": c["surjections.enumerate.maps"],
            "surjections.enumerate.s": s["surjections.enumerate"],
            "category.build.morphisms": c["category.build.morphisms"],
            "category.build.s": s[BUILD] + s[BUILD_VEC],
            "category.build.vec.s": s[BUILD_VEC],
            "category.compose.calls": c["category.compose.calls"],
            "category.compose.s": s["category.compose"],
            "category.laws.s": s["category.laws"],
            "category.iso.s": s["category.iso"],
            "category.structure.s": s["category.structure"],
            "arrows.prepare.s": s["arrows.prepare"],
            "arrows.prepare.copies": c["arrows.prepare.copies"],
            "arrows.search.nodes": c["arrows.search.nodes"],
            "arrows.search.s": s["arrows.search"],
            "arrows.search.nodes_per_s": ratio(c["arrows.search.nodes"], own["arrows.search"]),
            "arrows.exhaustive.colorings": c["arrows.exhaustive.colorings"],
            "arrows.exhaustive.s": s["arrows.exhaustive"],
            "arrows.certify.calls": c["arrows.certify.calls"],
            "arrows.certify.s": s["arrows.certify"],
            "preadjunction.verify.instances": c["preadjunction.verify.instances"],
            "preadjunction.verify.s": s["preadjunction.verify"],
            "preadjunction.verify.self_s": own["preadjunction.verify"],
            "preadjunction.verify.instances_per_s": ratio(c["preadjunction.verify.instances"],
                                                          s["preadjunction.verify"]),
            "preadjunction.phi.calls": c["preadjunction.phi.calls"],
            "preadjunction.phi.s": s["preadjunction.phi"],
            "preadjunction.suggested.tried": c["preadjunction.suggested.tried"],
            "preadjunction.suggested.hit_ratio": ratio(c["preadjunction.suggested.hits"],
                                                       c["preadjunction.suggested.tried"]),
            "preadjunction.card.s": s["preadjunction.card"],
            "preadjunction.recheck.s": s["preadjunction.recheck"],
            "tukey.check.subsets": c["tukey.check.subsets"],
            "tukey.check.s": s["tukey.check"],
            "tukey.monotonize.s": s["tukey.monotonize"],
            "workload.fragment_reuse_share": ratio(c["workload.reusing_queries"], c["query.calls"]),
        }
