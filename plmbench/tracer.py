"""Outside-in tracer for the plmoves layers.

Nothing inside the package is edited.  Each public layer function is
replaced, in every ``plmoves`` module namespace that bound it, by a wrapper
that records a span while the tracer is active: its name, its parent span,
and its duration.  ``search`` does ``from .moves import apply_bistellar``, so
patching ``plmoves.moves`` alone would miss the calls made from there; the
wrapper therefore goes wherever the original function object is found.

Spans are aggregated in memory as they close (there are hundreds of
thousands per run): calls, self time, outermost total time, and total time
per (span, parent) pair, which is what splits apply into verify and rebuild.
``Simplex`` and ``Complex`` construction run millions of times, so they are
counted only, never timed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import cached_property


def _len_first_arg(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


# (span name, module, attribute, counter name or None, counter function)
LAYER_FUNCTIONS = (
    ("complexes.link", "plmoves.complexes", "link", None, None),
    ("complexes.key", "plmoves.complexes", "canonical_facet_text", None, None),
    ("complexes.key", "plmoves.complexes", "fingerprint", None, None),
    ("complexes.key", "plmoves.search", "state_fingerprint", None, None),
    ("kernel.scan", "plmoves._kernel", "scan_moves", "kernel.scan.facets", _len_first_arg),
    ("kernel.snf", "plmoves._kernel", "snf_summary", "kernel.snf.entries", _len_first_arg),
    ("moves.enumerate", "plmoves.moves", "enumerate_moves", "moves.enumerate.moves", _len_result),
    ("moves.apply", "plmoves.moves", "apply_bistellar", None, None),
    ("moves.obstruction", "plmoves.moves", "applicability_obstruction", None, None),
    ("filtration.enumerate", "plmoves.filtration", "enumerate_extended_moves", None, None),
    ("filtration.apply", "plmoves.filtration", "apply_extended_bistellar", None, None),
    ("filtration.applicable", "plmoves.filtration", "extended_applicable", None, None),
    ("filtration.suspension", "plmoves.filtration", "suspension_from_links", None, None),
    ("search.flip_search", "plmoves.search", "flip_search", None, None),
    ("search.replay", "plmoves.search", "replay", None, None),
    ("search.reduce", "plmoves.search", "reduce", None, None),
    ("search.walk", "plmoves.search", "random_walk", None, None),
    ("search.walk", "plmoves.search", "random_extended_walk", None, None),
    ("homology", "plmoves.homology", "homology", None, None),
    ("homology.f_vector", "plmoves.homology", "f_vector", None, None),
    ("manifold.check", "plmoves.manifold", "check_combinatorial_manifold", None, None),
    ("manifold.verdict", "plmoves.manifold", "sphere_or_ball_verdict", None, None),
    ("documents.parse", "plmoves.documents", "parse_document", "documents.bytes", _len_first_arg),
    ("documents.parse", "plmoves.documents", "parse_sequence", "documents.bytes", _len_first_arg),
    ("documents.emit", "plmoves.documents", "emit_document", "documents.bytes", _len_result),
    ("documents.emit", "plmoves.documents", "emit_sequence", "documents.bytes", _len_result),
    ("cli.main", "plmoves.cli", "main", None, None),
)

# cached properties whose first computation is the "derive" layer
DERIVED_PROPERTIES = ("simplices", "_star_index", "boundary_complex")

ROOT_SPAN = "task"


class Tracer:
    """Aggregating span recorder.  ``install`` patches the package,
    ``uninstall`` puts every original back; spans are recorded only while
    ``active`` is true, so checks made between tasks do not count."""

    def __init__(self):
        self.active = False
        self._stack = [[None, 0.0]]  # [span name, time covered by children]
        self._depth = Counter()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.under = defaultdict(float)  # (name, parent name) -> total seconds
        self.counts = Counter()
        self._undo = []

    # ------------------------------------------------------------ recording

    def span(self, name, fn, counter=None, measure=None):
        stack = self._stack
        depth = self._depth
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            depth[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth[name] -= 1
                parent[1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if not depth[name]:
                    self.total_s[name] += dt
                self.under[(name, parent[0])] += dt
            if counter is not None:
                self.counts[counter] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_task(self, fn, *args):
        """Run one task as the root span; returns (result, seconds)."""
        self.active = True
        try:
            t0 = time.perf_counter()
            result = self.span(ROOT_SPAN, fn)(*args)
            return result, time.perf_counter() - t0
        finally:
            self.active = False

    # --------------------------------------------------------- installation

    def install(self):
        from plmoves.complexes import Complex, Simplex

        counts = self.counts
        simplex_new_entry = Simplex.__dict__["__new__"]
        simplex_new = Simplex.__new__
        complex_init = Complex.__init__

        def counted_new(cls, vertices):
            if self.active:
                counts["complexes.simplex.calls"] += 1
            return simplex_new(cls, vertices)

        def counted_init(obj, facets, *, _trusted=False):
            if self.active:
                counts["complexes.complex.calls"] += 1
            complex_init(obj, facets, _trusted=_trusted)

        Simplex.__new__ = staticmethod(counted_new)
        Complex.__init__ = counted_init
        self._undo.append(lambda: setattr(Simplex, "__new__", simplex_new_entry))
        self._undo.append(lambda: setattr(Complex, "__init__", complex_init))

        for prop in DERIVED_PROPERTIES:
            original = Complex.__dict__[prop]
            patched = cached_property(self.span("complexes.derive", original.func))
            patched.__set_name__(Complex, prop)
            setattr(Complex, prop, patched)
            self._undo.append(lambda p=prop, o=original: setattr(Complex, p, o))

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "plmoves" and m]
        for name, module, attr, counter, measure in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.span(name, original, counter, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append(lambda m=m, k=key, v=value: setattr(m, k, v))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------------- metrics

    def layer_metrics(self):
        """Per-layer metrics, by the names the benchmark declares."""
        c, s, t, u, n = self.calls, self.self_s, self.total_s, self.under, self.counts
        apply_total = t["moves.apply"]
        verify = u[("moves.obstruction", "moves.apply")] + u[("complexes.link", "moves.apply")]
        enumerated = n["moves.enumerate.moves"]
        out = {
            "complexes.simplex.calls": (n["complexes.simplex.calls"], "count"),
            "complexes.complex.calls": (n["complexes.complex.calls"], "count"),
            "complexes.derive.calls": (c["complexes.derive"], "count"),
            "complexes.derive.self_s": (s["complexes.derive"], "s"),
            "complexes.link.calls": (c["complexes.link"], "count"),
            "complexes.link.self_s": (s["complexes.link"], "s"),
            "complexes.key.calls": (c["complexes.key"], "count"),
            "complexes.key.self_s": (s["complexes.key"], "s"),
            "kernel.scan.calls": (c["kernel.scan"], "count"),
            "kernel.scan.self_s": (s["kernel.scan"], "s"),
            "kernel.scan.facets": (n["kernel.scan.facets"], "count"),
            "kernel.snf.calls": (c["kernel.snf"], "count"),
            "kernel.snf.self_s": (s["kernel.snf"], "s"),
            "kernel.snf.entries": (n["kernel.snf.entries"], "count"),
            "moves.enumerate.calls": (c["moves.enumerate"], "count"),
            "moves.enumerate.self_s": (s["moves.enumerate"], "s"),
            "moves.enumerate.moves": (enumerated, "count"),
            "moves.apply.calls": (c["moves.apply"], "count"),
            "moves.apply.verify_s": (verify, "s"),
            "moves.apply.rebuild_s": (apply_total - verify, "s"),
            "moves.applied_per_enumerated": (
                c["moves.apply"] / enumerated if enumerated else 0.0,
                "ratio",
            ),
            "filtration.enumerate.self_s": (s["filtration.enumerate"], "s"),
            "filtration.apply.self_s": (s["filtration.apply"], "s"),
            "filtration.applicable.self_s": (s["filtration.applicable"], "s"),
            "filtration.suspension.self_s": (s["filtration.suspension"], "s"),
            "search.flip_search.total_s": (t["search.flip_search"], "s"),
            "search.replay.total_s": (t["search.replay"], "s"),
            "search.reduce.total_s": (t["search.reduce"], "s"),
            "search.walk.total_s": (t["search.walk"], "s"),
            "homology.self_s": (s["homology"], "s"),
            "homology.f_vector.self_s": (s["homology.f_vector"], "s"),
            "manifold.check.total_s": (t["manifold.check"], "s"),
            "manifold.verdict.self_s": (s["manifold.verdict"], "s"),
            "documents.parse.self_s": (s["documents.parse"], "s"),
            "documents.emit.self_s": (s["documents.emit"], "s"),
            "documents.bytes": (n["documents.bytes"], "count"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "task.self_s": (s[ROOT_SPAN], "s"),
        }
        return out

    def self_time_sum(self):
        return sum(self.self_s.values())
