"""Per-layer spans, recorded from outside the program.

The tracer replaces wpnlab's public functions, at every module attribute
through which wpnlab calls them, with wrappers that record calls, total
and self thread-CPU time into in-memory counters.  It edits no file of the
program, and uninstall() puts every original back.  A function missing
from the program (renamed or removed by a later change) is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span).  Every wpnlab module attribute bound to the
# same object is wrapped, unless _BINDINGS names that binding apart.
_FUNCTIONS = (
    ("wpnlab.census", "census", "census.census"),
    ("wpnlab.census", "graph_from_edge_mask", "census.edge_mask_graph"),
    ("wpnlab.census", "has_induced_cycle", "census.hfree_test"),
    ("wpnlab.census", "c6_certifiable", "census.c6_certify"),
    ("wpnlab.graphs", "canonical_key", "graphs.canonical_key"),
    ("wpnlab.graphs", "automorphism_count", "graphs.automorphism_count"),
    ("wpnlab.graphs", "contains_induced", "graphs.contains_induced"),
    ("wpnlab.families", "_unlabeled_up_to", "families.class_generation"),
    ("wpnlab.families", "member", "families.member"),
    ("wpnlab.families", "family_subset", "families.family_subset"),
    ("wpnlab.witnessing", "find_certificate", "witnessing.find_certificate"),
    ("wpnlab.witnessing", "is_witnessing_sequence", "witnessing.witness_check"),
    ("wpnlab.sequences", "subgraph_poset", "sequences.poset"),
    ("wpnlab.sequences", "part_class_multisets", "sequences.multisets"),
    ("wpnlab.sequences", "enumerate_really_canonical_sequences", "sequences.search"),
    ("wpnlab.sequences", "classify_sequence", "sequences.classify"),
    ("wpnlab.counting", "_urn_weight_table", "counting.urn_table"),
    ("wpnlab.cli", "_emit", "cli.emit"),
)
# The census's soundness cross-check is its own call of contains_induced.
_BINDINGS = {("wpnlab.census", "contains_induced"): "census.crosscheck"}
# (module, class, method, span)
_METHODS = (
    ("wpnlab.graphs", "Graph", "__post_init__", "graphs.validate"),
    ("wpnlab.graphs", "Graph", "induced", "graphs.induced"),
    ("wpnlab.counting", "UniformPartitionSampler", "sample", "counting.sample"),
)

PER_LAYER = (
    # (metric, unit)
    ("census.edge_mask_graph_us", "us"),
    ("graphs.validated_graphs", "count"),
    ("census.hfree_test_us", "us"),
    ("census.c6_certify_us", "us"),
    ("census.self_s", "s"),
    ("census.crosscheck_calls", "count"),
    ("graphs.canonical_key_calls", "count"),
    ("graphs.canonical_key_self_s", "s"),
    ("graphs.canon_calls_per_class", "count"),
    ("graphs.automorphism_count_self_s", "s"),
    ("families.class_generation_s", "s"),
    ("graphs.contains_induced_self_s", "s"),
    ("graphs.induced_calls", "count"),
    ("families.member_calls", "count"),
    ("families.member_self_s", "s"),
    ("witnessing.find_certificate_calls", "count"),
    ("witnessing.find_certificate_us", "us"),
    ("witnessing.witness_check_s", "s"),
    ("families.family_subset_s", "s"),
    ("sequences.poset_s", "s"),
    ("sequences.multisets_s", "s"),
    ("sequences.search_self_s", "s"),
    ("sequences.classify_s", "s"),
    ("counting.urn_table_s", "s"),
    ("counting.sample_n50_us", "us"),
    ("counting.sample_n2000_us", "us"),
    ("cli.emit_s", "s"),
)


class Tracer:
    """Spans keyed by name: [calls, total ns, self ns], thread CPU time of
    the calling thread.  Only the main thread runs wpnlab code."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}
        self.classes = 0          # graphs returned by class generation
        self._stack: list[list[int]] = []   # [start ns, child ns]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = {}
        self.classes = 0

    def _wrap(self, fn, name):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [time.thread_time_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.thread_time_ns() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = self.spans.get(span)
                if rec is None:
                    rec = self.spans[span] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if span == "families.class_generation":
                self.classes += len(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "wpnlab" or k.startswith("wpnlab.")}
        for modname, attr, span in _FUNCTIONS:
            orig = getattr(mods.get(modname), attr, None)
            if orig is None:
                continue
            for k, m in mods.items():
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, self._wrap(
                            orig, _BINDINGS.get((k, name), span)))
        for modname, cls, meth, span in _METHODS:
            owner = getattr(mods.get(modname), cls, None)
            orig = getattr(owner, meth, None)
            if orig is None:
                continue
            if span == "counting.sample":
                self._set(owner, meth, self._wrap(
                    orig, lambda args: f"counting.sample_n{args[0].n}"))
            else:
                self._set(owner, meth, self._wrap(orig, span))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, factor: float) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since reset(), with
        times scaled by the round's speed factor."""
        def calls(span):
            return self.spans.get(span, [0, 0, 0])[0]

        def total_s(span):
            return self.spans.get(span, [0, 0, 0])[1] * factor / 1e9

        def self_s(*spans):
            return sum(self.spans.get(s, [0, 0, 0])[2] for s in spans) * factor / 1e9

        def per_call_us(span):
            c = calls(span)
            return total_s(span) * 1e6 / c if c else 0.0

        canon = calls("graphs.canonical_key")
        return {
            "census.edge_mask_graph_us": per_call_us("census.edge_mask_graph"),
            "graphs.validated_graphs": calls("graphs.validate"),
            "census.hfree_test_us": per_call_us("census.hfree_test"),
            "census.c6_certify_us": per_call_us("census.c6_certify"),
            "census.self_s": self_s("census.census"),
            "census.crosscheck_calls": calls("census.crosscheck"),
            "graphs.canonical_key_calls": canon,
            "graphs.canonical_key_self_s": self_s("graphs.canonical_key"),
            "graphs.canon_calls_per_class":
                canon / self.classes if self.classes else 0.0,
            "graphs.automorphism_count_self_s": self_s("graphs.automorphism_count"),
            "families.class_generation_s": total_s("families.class_generation"),
            "graphs.contains_induced_self_s":
                self_s("graphs.contains_induced", "census.crosscheck"),
            "graphs.induced_calls": calls("graphs.induced"),
            "families.member_calls": calls("families.member"),
            "families.member_self_s": self_s("families.member"),
            "witnessing.find_certificate_calls": calls("witnessing.find_certificate"),
            "witnessing.find_certificate_us": per_call_us("witnessing.find_certificate"),
            "witnessing.witness_check_s": total_s("witnessing.witness_check"),
            "families.family_subset_s": total_s("families.family_subset"),
            "sequences.poset_s": total_s("sequences.poset"),
            "sequences.multisets_s": total_s("sequences.multisets"),
            "sequences.search_self_s": self_s("sequences.search"),
            "sequences.classify_s": total_s("sequences.classify"),
            "counting.urn_table_s": total_s("counting.urn_table"),
            "counting.sample_n50_us": per_call_us("counting.sample_n50"),
            "counting.sample_n2000_us": per_call_us("counting.sample_n2000"),
            "cli.emit_s": total_s("cli.emit"),
        }
