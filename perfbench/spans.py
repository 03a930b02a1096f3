"""Spans around the benchmark's calls into package layers, and the
per-layer metrics computed from them.

A span is (query id, name, start ns, end ns, parent span index); its name
is `<layer>.<function>`, or `query` for the root span of one query.
Spans stay in memory and are written out by run.py when the run ends.
Counts (search nodes, trace nodes, ...) are read off each call's
arguments and result after its query has finished, so that counting
never lands inside a timed span.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter_ns

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from epist2int.syntax import formula_size

LAYER_SPANS = (
    "syntax.parse",
    "translate.ff_translate",
    "translate.ff_simplify",
    "translate.godel_translate",
    "prover_ip.prove",
    "prover_ip.check_trace",
    "prover_ep.prove",
    "prover_ep.check_kripke",
    "algebra.refute",
    "algebra.recheck",
)

COUNTS = (
    "translate.ff_out_nodes",
    "translate.ff_simplify_in_nodes",
    "translate.ff_simplify_out_nodes",
    "prover_ip.nodes",
    "prover_ip.max_depth",
    "prover_ip.provable",
    "prover_ip.trace_nodes",
    "prover_ip.traces_rejected",
    "prover_ep.steps",
    "prover_ep.countermodel_worlds",
    "prover_ep.provable",
    "prover_ep.models_rejected",
    "algebra.refuted",
    "algebra.recheck_failed",
)


def direct(name, fn, *args, **kw):
    """The untraced `call`: no span, no counting."""
    return fn(*args, **kw)


class Tracer:
    """Records spans for one pass over a corpus."""

    def __init__(self):
        self.spans: list = []
        self.qid = -1
        self._stack: list[int] = []
        self._pending: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.verdicts: list = []      # (query id, span name, provable), in call order
        self.query_work: dict = {}    # query id -> nodes + steps, for the tail report

    def call(self, name, fn, *args, **kw):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            out = fn(*args, **kw)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.qid, name, start, end, parent)
        self._pending.append((name, args, out))
        return out

    def settle(self) -> None:
        """Fold the finished query's calls into the counts."""
        c = self.counts
        work = 0
        for name, args, out in self._pending:
            if name == "translate.ff_translate":
                c["translate.ff_out_nodes"] += formula_size(out)
            elif name == "translate.ff_simplify":
                c["translate.ff_simplify_in_nodes"] += formula_size(args[0])
                c["translate.ff_simplify_out_nodes"] += formula_size(out)
            elif name == "prover_ip.prove":
                c["prover_ip.nodes"] += out.nodes_expanded
                c["prover_ip.max_depth"] = max(c["prover_ip.max_depth"], out.max_depth)
                c["prover_ip.provable"] += out.provable
                work += out.nodes_expanded
                self.verdicts.append((self.qid, name, out.provable))
            elif name == "prover_ip.check_trace":
                c["prover_ip.trace_nodes"] += args[0].count_nodes()
                c["prover_ip.traces_rejected"] += not out
            elif name == "prover_ep.prove":
                c["prover_ep.steps"] += out.worlds_expanded
                c["prover_ep.provable"] += out.provable
                if out.countermodel is not None:
                    c["prover_ep.countermodel_worlds"] += len(out.countermodel.worlds)
                work += out.worlds_expanded
                self.verdicts.append((self.qid, name, out.provable))
            elif name == "prover_ep.check_kripke":
                c["prover_ep.models_rejected"] += not out
            elif name == "algebra.refute":
                c["algebra.refuted"] += out is not None
            elif name == "algebra.recheck":
                c["algebra.recheck_failed"] += not out
        self._pending.clear()
        self.query_work[self.qid] = work

    def self_times(self) -> dict:
        """Span name -> list of self times in ns (duration minus children)."""
        child = defaultdict(int)
        for span in self.spans:
            if span[4] is not None:
                child[span[4]] += span[3] - span[2]
        out = defaultdict(list)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return out

    def summary(self, slowest: int = 10) -> dict:
        """The pass as plain data: self seconds and calls per span name,
        the share of prove_ip time in its slowest 1 % of calls, counts,
        verdicts, and the slowest queries as (ns, query id, nodes+steps)."""
        self_ns = self.self_times()
        ip_ns = sorted(self_ns.get("prover_ip.prove", ()), reverse=True)
        roots = sorted(((end - start, qid) for qid, name, start, end, _ in self.spans
                        if name == "query"), reverse=True)
        return {
            "self_s": {name: sum(ns) / 1e9 for name, ns in self_ns.items()},
            "calls": {name: len(ns) for name, ns in self_ns.items()},
            "ip_tail_share": _share(sum(ip_ns[:math.ceil(len(ip_ns) / 100)]), sum(ip_ns)),
            "counts": self.counts,
            "verdicts": self.verdicts,
            "slowest": [(ns, qid, self.query_work[qid]) for ns, qid in roots[:slowest]],
        }


def _calls_metric(span: str) -> str:
    layer, fn = span.split(".")
    return f"{layer}.calls" if fn == "prove" else f"{span}_calls"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summaries: list[dict], traced_pass_s: float, untraced_pass_s: float) -> dict:
    """Per-layer metrics from the summaries of the traced passes.

    Times are seconds of self time per pass, averaged over the passes.
    Counts come from the first pass; run.py checks that every pass
    repeats them exactly.  The two pass times are the lengths of one pass
    with and without tracing, each query at its best over those passes.
    """
    passes = len(summaries)
    seconds: dict = defaultdict(float)
    for s in summaries:
        for name, sec in s["self_s"].items():
            seconds[name] += sec / passes
    calls = summaries[0]["calls"]
    c = summaries[0]["counts"]
    m: dict = {}
    for span in LAYER_SPANS:
        m[span + "_s"] = seconds.get(span, 0.0)
        m[_calls_metric(span)] = calls.get(span, 0)

    m["translate.ff_out_nodes"] = c["translate.ff_out_nodes"]
    m["translate.ff_simplify_shrink"] = _share(c["translate.ff_simplify_out_nodes"],
                                               c["translate.ff_simplify_in_nodes"])

    ip_s = m["prover_ip.prove_s"]
    m["prover_ip.nodes"] = c["prover_ip.nodes"]
    m["prover_ip.max_depth"] = c["prover_ip.max_depth"]
    m["prover_ip.nodes_per_s"] = _share(c["prover_ip.nodes"], ip_s)
    m["prover_ip.provable_share"] = _share(c["prover_ip.provable"], m["prover_ip.calls"])
    m["prover_ip.tail1pct_time_share"] = statistics.median(s["ip_tail_share"]
                                                           for s in summaries)
    m["prover_ip.trace_nodes"] = c["prover_ip.trace_nodes"]
    m["prover_ip.traces_rejected"] = c["prover_ip.traces_rejected"]

    m["prover_ep.steps"] = c["prover_ep.steps"]
    m["prover_ep.countermodel_worlds"] = c["prover_ep.countermodel_worlds"]
    m["prover_ep.provable_share"] = _share(c["prover_ep.provable"], m["prover_ep.calls"])
    m["prover_ep.models_rejected"] = c["prover_ep.models_rejected"]

    m["algebra.refuted_share"] = _share(c["algebra.refuted"], m["algebra.refute_calls"])
    m["algebra.recheck_failed"] = c["algebra.recheck_failed"]

    query_s = seconds.get("query", 0.0)   # the self time of a query span is its glue
    covered = sum(seconds.get(span, 0.0) for span in LAYER_SPANS)
    m["trace.query_s"] = query_s + covered
    m["trace.uncovered_share"] = _share(query_s, query_s + covered)
    m["trace.overhead_share"] = _share(traced_pass_s - untraced_pass_s, untraced_pass_s)
    return m
