"""Decision procedure for intuitionistic propositional derivability.

The engine is a contraction-free sequent calculus: the left-implication
rule is split four ways on the shape of the implication's antecedent, so
proof search terminates without loop checking.  Verdicts can carry a
derivation tree whose nodes are independently re-checkable rule
instances (see check_trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    FALSUM,
    IP,
    Atom,
    Conj,
    Disj,
    Formula,
    Impl,
    Sequent,
    formula_key,
    is_ip_formula,
    print_sequent,
)


class SearchLimitError(RuntimeError):
    """Raised when a node-count cap is exceeded."""


@dataclass(frozen=True)
class TraceNode:
    """One rule instance: premises are shared sub-derivations (a DAG)."""

    rule: str
    context: frozenset
    goal: Formula
    principal: Optional[Formula]
    premises: tuple

    def count_nodes(self) -> int:
        seen: set[int] = set()

        def walk(n: TraceNode) -> int:
            if id(n) in seen:
                return 0
            seen.add(id(n))
            return 1 + sum(walk(p) for p in n.premises)

        return walk(self)


@dataclass
class ProofResult:
    provable: bool
    trace: Optional[TraceNode]
    nodes_expanded: int
    max_depth: int

    @property
    def verdict(self) -> str:
        return "Provable" if self.provable else "NotProvable"


# sentinel trace when the caller did not ask for one
_PROVED = object()


class _Search:
    def __init__(self, want_trace: bool, node_cap: Optional[int]):
        self.memo: dict = {}
        self.want_trace = want_trace
        self.node_cap = node_cap
        self.nodes = 0
        self.max_depth = 0

    def node(self, rule, ctx, goal, principal, premises):
        if not self.want_trace:
            return _PROVED
        return TraceNode(rule, ctx, goal, principal, tuple(premises))

    def prove(self, ctx: frozenset, goal: Formula, depth: int = 0):
        key = (ctx, goal)
        hit = self.memo.get(key, False)
        if hit is not False:
            return hit
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            raise SearchLimitError(f"node cap {self.node_cap} exceeded")
        if depth > self.max_depth:
            self.max_depth = depth
        result = self._expand(ctx, goal, depth + 1)
        self.memo[key] = result
        return result

    def _expand(self, ctx: frozenset, goal: Formula, d: int):
        if FALSUM in ctx:
            return self.node("L-falsum", ctx, goal, FALSUM, ())
        if goal in ctx:
            return self.node("axiom", ctx, goal, goal, ())

        items = sorted(ctx, key=formula_key)

        # invertible, non-branching left rules
        for f in items:
            if isinstance(f, Conj):
                sub = self.prove(ctx - {f} | {f.left, f.right}, goal, d)
                if sub is None:
                    return None
                return self.node("L-conj", ctx, goal, f, (sub,))
            if isinstance(f, Impl):
                a = f.left
                if isinstance(a, Atom) and a in ctx:
                    sub = self.prove(ctx - {f} | {f.right}, goal, d)
                    if sub is None:
                        return None
                    return self.node("L-impl-atom", ctx, goal, f, (sub,))
                if isinstance(a, Conj):
                    g = Impl(a.left, Impl(a.right, f.right))
                    sub = self.prove(ctx - {f} | {g}, goal, d)
                    if sub is None:
                        return None
                    return self.node("L-impl-conj", ctx, goal, f, (sub,))
                if isinstance(a, Disj):
                    g = ctx - {f} | {Impl(a.left, f.right), Impl(a.right, f.right)}
                    sub = self.prove(g, goal, d)
                    if sub is None:
                        return None
                    return self.node("L-impl-disj", ctx, goal, f, (sub,))

        # invertible right rules
        if isinstance(goal, Impl):
            sub = self.prove(ctx | {goal.left}, goal.right, d)
            if sub is None:
                return None
            return self.node("R-impl", ctx, goal, None, (sub,))
        if isinstance(goal, Conj):
            left = self.prove(ctx, goal.left, d)
            if left is None:
                return None
            right = self.prove(ctx, goal.right, d)
            if right is None:
                return None
            return self.node("R-conj", ctx, goal, None, (left, right))

        # invertible branching left rule
        for f in items:
            if isinstance(f, Disj):
                left = self.prove(ctx - {f} | {f.left}, goal, d)
                if left is None:
                    return None
                right = self.prove(ctx - {f} | {f.right}, goal, d)
                if right is None:
                    return None
                return self.node("L-disj", ctx, goal, f, (left, right))

        # choice points
        if isinstance(goal, Disj):
            sub = self.prove(ctx, goal.left, d)
            if sub is not None:
                return self.node("R-disj-1", ctx, goal, None, (sub,))
            sub = self.prove(ctx, goal.right, d)
            if sub is not None:
                return self.node("R-disj-2", ctx, goal, None, (sub,))
        for f in items:
            if isinstance(f, Impl) and isinstance(f.left, Impl):
                rest = ctx - {f}
                first = self.prove(rest | {Impl(f.left.right, f.right)}, f.left, d)
                if first is None:
                    continue
                second = self.prove(rest | {f.right}, goal, d)
                if second is None:
                    continue
                return self.node("L-impl-impl", ctx, goal, f, (first, second))
        return None


def prove_ip(s: Sequent, want_trace: bool = False,
             node_cap: Optional[int] = None) -> ProofResult:
    """Decide derivability of an IP sequent; total and deterministic."""
    if s.logic != IP:  # an IP-tagged Sequent was checked when it was built
        for f in (*s.assumptions, s.goal):
            if not is_ip_formula(f):
                raise ValueError(f"Box not allowed in IP: {print_sequent(s)}")
    search = _Search(want_trace, node_cap)
    got = search.prove(frozenset(s.assumptions), s.goal)
    trace = got if (want_trace and got is not None) else None
    return ProofResult(got is not None, trace, search.nodes, search.max_depth)


def is_provable_ip(assumptions: list[Formula] | tuple[Formula, ...],
                   goal: Formula, node_cap: Optional[int] = None) -> bool:
    return prove_ip(Sequent(tuple(assumptions), goal, IP), node_cap=node_cap).provable


def equiv_ip(a: Formula, b: Formula) -> bool:
    """Interprovability: a proves b and b proves a."""
    return is_provable_ip((a,), b) and is_provable_ip((b,), a)


def _expected_premises(rule: str, ctx: frozenset, goal: Formula,
                       principal: Optional[Formula]) -> Optional[list[tuple[frozenset, Formula]]]:
    """Premise sequents a rule instance must have, or None if malformed."""
    if rule == "L-falsum":
        return [] if FALSUM in ctx else None
    if rule == "axiom":
        return [] if principal == goal and goal in ctx else None
    if rule == "R-impl":
        if not isinstance(goal, Impl):
            return None
        return [(ctx | {goal.left}, goal.right)]
    if rule == "R-conj":
        if not isinstance(goal, Conj):
            return None
        return [(ctx, goal.left), (ctx, goal.right)]
    if rule == "R-disj-1":
        return [(ctx, goal.left)] if isinstance(goal, Disj) else None
    if rule == "R-disj-2":
        return [(ctx, goal.right)] if isinstance(goal, Disj) else None
    if principal is None or principal not in ctx:
        return None
    rest = ctx - {principal}
    if rule == "L-conj":
        if not isinstance(principal, Conj):
            return None
        return [(rest | {principal.left, principal.right}, goal)]
    if rule == "L-disj":
        if not isinstance(principal, Disj):
            return None
        return [(rest | {principal.left}, goal), (rest | {principal.right}, goal)]
    if not isinstance(principal, Impl):
        return None
    a, b = principal.left, principal.right
    if rule == "L-impl-atom":
        if not (isinstance(a, Atom) and a in ctx):
            return None
        return [(rest | {b}, goal)]
    if rule == "L-impl-conj":
        if not isinstance(a, Conj):
            return None
        return [(rest | {Impl(a.left, Impl(a.right, b))}, goal)]
    if rule == "L-impl-disj":
        if not isinstance(a, Disj):
            return None
        return [(rest | {Impl(a.left, b), Impl(a.right, b)}, goal)]
    if rule == "L-impl-impl":
        if not isinstance(a, Impl):
            return None
        return [(rest | {Impl(a.right, b)}, a), (rest | {b}, goal)]
    return None


def validate_trace(trace: Optional[TraceNode], s: Sequent) -> Optional[str]:
    """None when the trace certifies the sequent, else an error with a node path."""
    if trace is None:
        return "no trace"
    if trace.context != frozenset(s.assumptions) or trace.goal != s.goal:
        return "root conclusion does not match the queried sequent"
    ok: set[int] = set()

    def walk(n: TraceNode, path: str) -> Optional[str]:
        if id(n) in ok:
            return None
        if not isinstance(n, TraceNode):
            return f"{path}: not a trace node"
        expected = _expected_premises(n.rule, n.context, n.goal, n.principal)
        if expected is None:
            return f"{path}: bad {n.rule} instance"
        if len(expected) != len(n.premises):
            return f"{path}: {n.rule} wants {len(expected)} premises, has {len(n.premises)}"
        for i, ((ectx, egoal), prem) in enumerate(zip(expected, n.premises)):
            if prem.context != ectx or prem.goal != egoal:
                return f"{path}.{i}: premise sequent differs from the {n.rule} instance"
            err = walk(prem, f"{path}.{i}")
            if err is not None:
                return err
        ok.add(id(n))
        return None

    return walk(trace, "root")


def check_trace(trace: Optional[TraceNode], s: Sequent) -> bool:
    """True iff every node is a legal rule instance and the root matches s."""
    return validate_trace(trace, s) is None


def trace_to_json(n: TraceNode) -> dict:
    from .syntax import print_formula

    return {
        "rule": n.rule,
        "sequent": {
            "assumptions": sorted(print_formula(f) for f in n.context),
            "goal": print_formula(n.goal),
        },
        "principal": print_formula(n.principal) if n.principal is not None else None,
        "premises": [trace_to_json(p) for p in n.premises],
    }
