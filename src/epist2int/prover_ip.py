"""Decision procedure for intuitionistic propositional derivability.

The engine is Dyckhoff's contraction-free sequent calculus G4ip, so proof
search terminates without loop checking.  The left-implication rule is
split on the antecedent: modus ponens (L-impl-mp) takes an implication
whose antecedent is already in the context, whatever its shape; otherwise
the rule splits three ways on the antecedent's shape (L-impl-conj,
L-impl-disj, L-impl-impl).  As in Dyckhoff and Negri (JSL 2000),
L-impl-mp is invertible, and an implication whose consequent is already
in the context is never tried at a choice point.  The choice points are
tried goal first: each L-impl-impl whose consequent is the goal (its right
premise is an axiom), then R-disj, then the other L-impl-impl instances.
The order only says which proof is found first; every choice is still
tried, so no verdict depends on it.  The kernel's table,
kernel._RULES, gives each rule's premises to the search and to
kernel.check_trace.  The search is one recursive method, one frame per
node, over the rule instances _choices lists; it builds the derivation
tree of each node it proves, which harness.decide has the kernel check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .kernel import _RULES, TraceNode
from .kernel import check_trace  # noqa: F401  re-exported only for perfbench/workloads.py
from .syntax import (
    FALSUM,
    IP,
    Conj,
    Disj,
    Formula,
    Impl,
    Sequent,
    formula_key,
)


class SearchLimitError(RuntimeError):
    """Raised when a node-count cap is exceeded."""


def check_node_cap(node_cap) -> int:
    """The cap both provers search under: sys.maxsize for None, node_cap
    itself if it is a positive int (not a bool), else a ValueError."""
    if node_cap is None:
        return sys.maxsize
    if type(node_cap) is bool or not isinstance(node_cap, int) or node_cap < 1:
        raise ValueError(f"node_cap must be None or a positive int, not {node_cap!r}")
    return node_cap


@dataclass(slots=True)
class ProofResult:
    provable: bool
    trace: Optional[TraceNode]
    nodes_expanded: int
    max_depth: int

    @property
    def verdict(self) -> str:
        return "Provable" if self.provable else "NotProvable"


# the invertible rules by the type of an implication's antecedent (when the
# antecedent is not in the context; then L-impl-mp applies), or of the goal
_INVERTIBLE_IMPL = {Conj: "L-impl-conj", Disj: "L-impl-disj"}
_INVERTIBLE_RIGHT = {Impl: "R-impl", Conj: "R-conj"}
_R_DISJ = (("R-disj-1", None), ("R-disj-2", None))


def _choices(ctx: frozenset, goal: Formula) -> tuple:
    """The rule instances the search tries at ctx |- goal, as (rule,
    principal) pairs in order: one invertible instance alone, else the
    choice points, tried until one is proved.  The choice points come in
    three groups, each in formula_key order: the L-impl-impl instances
    whose consequent is the goal, R-disj-1 and R-disj-2 when the goal is a
    disjunction, then the other L-impl-impl instances.  All are listed, so
    the search stays complete whatever the order."""
    if FALSUM in ctx:
        return (("L-falsum", FALSUM),)
    if goal in ctx:
        return (("axiom", goal),)
    # one scan puts each context formula in the bucket of the rule it
    # takes: an invertible one-premise left rule (an implication whose
    # antecedent is in ctx takes L-impl-mp, whatever that antecedent's
    # shape), L-disj, or L-impl-impl; formula_key breaks ties within a
    # bucket only
    invertible, disjunctions, impl_impl = [], [], []
    for f in ctx:
        kind = type(f)
        if kind is Impl:
            left = type(f.left)
            if f.left in ctx or left is Conj or left is Disj:
                invertible.append(f)
            elif left is Impl and f.right not in ctx:
                # a candidate f = (C -> D) -> B with B in ctx is left
                # out: B proves f, so ctx proves the goal iff ctx - {f}
                # does.  At the choice points no invertible rule
                # applies to ctx, so none applies to ctx - {f} either;
                # if ctx - {f} proves the goal, a proof ends in another
                # choice, and by weakening that choice's premises
                # also hold with f, so the search finds it from ctx.
                impl_impl.append(f)
        elif kind is Conj:
            invertible.append(f)
        elif kind is Disj:
            disjunctions.append(f)

    if invertible:
        f = invertible[0] if len(invertible) == 1 else min(invertible, key=formula_key)
        if type(f) is Conj:
            rule = "L-conj"
        elif f.left in ctx:
            rule = "L-impl-mp"
        else:
            rule = _INVERTIBLE_IMPL[type(f.left)]
        return ((rule, f),)

    # invertible right rules, then the invertible branching left rule
    rule = _INVERTIBLE_RIGHT.get(type(goal))
    if rule is not None:
        return ((rule, None),)
    if disjunctions:
        f = disjunctions[0] if len(disjunctions) == 1 else min(disjunctions, key=formula_key)
        return (("L-disj", f),)

    # choice points, goal first
    if len(impl_impl) > 1:
        impl_impl.sort(key=formula_key)
    closing, others = [], []
    for f in impl_impl:
        (closing if f.right is goal else others).append(("L-impl-impl", f))
    if type(goal) is Disj:
        closing += _R_DISJ
    return (*closing, *others)


class _Search:
    __slots__ = ("memo", "cap", "nodes", "max_depth")

    def __init__(self, node_cap: Optional[int]):
        self.memo: dict = {}
        self.cap = check_node_cap(node_cap)
        self.nodes = 0
        self.max_depth = 0

    def prove(self, ctx: frozenset, goal: Formula, depth: int = 0):
        """The derivation of ctx |- goal, or None: the first of its
        _choices whose premises, from _RULES, are all proved, left to
        right.  One frame per search node."""
        key = (ctx, goal)
        hit = self.memo.get(key, False)
        if hit is not False:
            return hit
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchLimitError(f"node cap {self.cap} exceeded")
        if depth > self.max_depth:
            self.max_depth = depth
        result = None
        for rule, principal in _choices(ctx, goal):
            subs = ()
            for pctx, pgoal in _RULES[rule](ctx, goal, principal):
                sub = self.prove(pctx, pgoal, depth + 1)
                if sub is None:
                    break
                subs += (sub,)
            else:
                # tuple.__new__ skips the named tuple's own Python-level __new__
                result = tuple.__new__(TraceNode, (rule, ctx, goal, principal, subs))
                break
        self.memo[key] = result
        return result


def prove_ip(s: Sequent, want_trace: bool = False,
             node_cap: Optional[int] = None) -> ProofResult:
    """Decide derivability of an IP sequent; total and deterministic.  The
    search always builds the derivation; want_trace, which
    perfbench/workloads.py passes, only says whether the result carries it.
    Only an IP-tagged sequent is taken: its Sequent was checked box-free
    when it was built."""
    if s.logic != IP:
        raise ValueError(f"prove_ip takes an IP sequent, not one tagged {s.logic!r}")
    search = _Search(node_cap)
    got = search.prove(frozenset(s.assumptions), s.goal)
    return ProofResult(got is not None, got if want_trace else None,
                       search.nodes, search.max_depth)
