"""Decision procedure for the epistemic propositional logic (S4).

Signed analytic tableau with ancestor-equality loop checking on modal
states, which both terminates and turns every open search into a finite
reflexive-transitive Kripke countermodel.  Consequence is local:
A1,...,An entail A iff (A1 /\\ ... /\\ An) -> A is valid.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from .kernel import KripkeModel
from .kernel import check_kripke  # noqa: F401  re-exported only for perfbench/workloads.py
from .prover_ip import SearchLimitError, check_node_cap
from .syntax import (
    EP,
    FALSUM,
    Atom,
    Box,
    Conj,
    Disj,
    Impl,
    Sequent,
)


@dataclass
class EpProofResult:
    """A verdict, its countermodel when NotProvable, and the search's cost.

    `worlds_expanded` counts tableau steps, alpha applications plus beta
    splits, not worlds; the name stays because the benchmark's span
    counter reads it.
    """

    provable: bool
    countermodel: Optional[KripkeModel]
    worlds_expanded: int

    @property
    def verdict(self) -> str:
        return "Provable" if self.provable else "NotProvable"


# Sign -> node type -> (is beta, the sign of each part), one table.  An
# alpha formula adds all its parts to the branch, a beta one splits it, one
# part each; the parts are the children in order.  F[]A is a modal demand:
# its part, F A, goes to a successor world (satisfy).  Atoms and falsum take
# no rule.
_RULES = {True: {Conj: (False, True, True), Box: (False, True),
                 Disj: (True, True, True), Impl: (True, False, True)},
          False: {Disj: (False, False, False), Impl: (False, True, False),
                  Conj: (True, False, False), Box: (False, False)}}


class _Tableau:
    """The search.  A world state is one dict from each formula on the
    branch to its sign, and every choice takes the formulas in the order
    they were added, so the search order depends only on the formula's
    structure: not on the hash seed, nor on what else the process has built
    or printed.  A None in a branch's queue marks one step, an alpha's or a
    split's, and is the one place a step is counted against the cap."""

    __slots__ = ("cap", "steps", "worlds", "edges", "ancestors")

    def __init__(self, node_cap: Optional[int]):
        self.cap = sys.maxsize if node_cap is None else check_node_cap(node_cap)
        self.steps = 0
        self.worlds: list[list] = []  # the true atoms of each world, by number
        self.edges: list[tuple[int, int]] = []  # accessibility, before closure
        self.ancestors: dict = {}  # the keys of the worlds being satisfied -> their numbers

    def satisfy(self, parts: list, key: Optional[tuple]) -> Optional[int]:
        """The number of a world realizing the seed, or None.

        The root's seed is prove_ep's and its key None.  A successor's seed
        parts are `(False, A)` then `(True, []B)` for each T[] formula of
        the state demanding []A, in the order they arose, and its key is
        `(A, frozenset of the []B)`.  A demand whose key is an
        ancestor's loops back to that world.  A world is numbered as the
        search enters it, and its true atoms and its edges go to
        `self.worlds` and `self.edges`; an attempt that fails truncates
        both back to where it began, so the worlds left are numbered in
        the order the search entered them.

        Saturation is the loop over a stack of branches.  A branch puts
        its parts in, then the parts of each alpha in the order the alphas
        arose, a queue where None marks one step; then its oldest beta
        splits it, first part first.  The split's step heads the first
        part's queue, which gets copies of the state; the second part gets
        the state itself.

        A formula already held with its sign is skipped.  A branch closes
        on one held with the other sign, on a true _|_, and, where the
        queue meets a demand F[]A, on an A already signed true and stable
        (the flag `_stable` that interning set).  A stable A => []A is a
        derived S4 rule (axiom 4 gives [][]B for a box []B, K the
        conjunctions, monotony the disjunctions, and _|_ proves anything):
        on each branch below, a search without the closure takes A down to
        a true _|_, which closes, or to true boxes, which seed the demand's
        successor beside F A and close it in saturation.  So the closure cuts only branches that search also closes, and no
        ancestor loop rescues the demand, since a world with its key
        closes before it is ever an ancestor.  The open branches and
        countermodels are those of the search without it, and, like a
        clash, it counts no step.
        """
        worlds, edges, ancestors, cap = self.worlds, self.edges, self.ancestors, self.cap
        wid, first_edge = len(worlds), len(edges)
        ancestors[key] = wid
        stack = [({}, [], [], parts)]
        while stack:
            signs, betas, demands, queue = stack.pop()
            for item in queue:  # the loop sees what it appends
                if item is None:
                    self.steps += 1
                    if self.steps > cap:
                        raise SearchLimitError(f"node cap {cap} exceeded")
                    continue
                sign, f = item
                held = signs.get(f)
                if held is sign:
                    continue
                if held is not None or sign and f is FALSUM:
                    break
                signs[f] = sign
                rule = _RULES[sign].get(type(f))
                if rule is None:
                    continue
                if rule[0]:
                    betas.append((rule, f))
                elif type(f) is Box:
                    if sign:
                        queue += None, (True, f.inner)
                    elif signs.get(f.inner) is True and f.inner._stable:
                        break
                    else:
                        demands.append(f.inner)
                else:
                    queue += None, (rule[1], f.left), (rule[2], f.right)
            else:
                if betas:
                    (_, first, second), f = betas[0]
                    rest = betas[1:]
                    stack += ((signs, rest, demands, [(second, f.right)]),
                              (dict(signs), rest[:], demands[:], [None, (first, f.left)]))
                    continue
                names, boxed = [], []
                for f, sign in signs.items():
                    if sign and type(f) is Atom:
                        names.append(f.name)
                    elif sign and type(f) is Box:
                        boxed.append(f)
                worlds.append(names)
                if demands:
                    seed, boxed = [(True, f) for f in boxed], frozenset(boxed)
                for inner in demands:
                    succ_key = (inner, boxed)
                    target = ancestors.get(succ_key)
                    if target is None:
                        target = self.satisfy([(False, inner), *seed], succ_key)
                        if target is None:
                            break
                    edges.append((wid, target))
                else:
                    del ancestors[key]
                    return wid
                del worlds[wid:], edges[first_edge:]
        del ancestors[key]
        return None


def _closure(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The reflexive-transitive closure as up-set masks: Warshall on
    bitsets, in place, since pass k leaves row k as it is; one world sees
    only itself."""
    if n == 1:
        return (1,)
    up = [1 << w for w in range(n)]
    for a, b in edges:
        up[a] |= 1 << b
    for k in range(n):
        bit, row = 1 << k, up[k]
        for w in range(n):
            if up[w] & bit:
                up[w] |= row
    return tuple(up)


def prove_ep(s: Sequent, node_cap: Optional[int] = None) -> EpProofResult:
    """Decide S4 derivability; NotProvable verdicts carry a countermodel.
    The root is seeded with the parts of F(lhs -> goal), lhs the conjunction
    of the assumptions, so 0 or 1 assumption interns no node.  Only an
    EP-tagged sequent is taken."""
    if s.logic != EP:
        raise ValueError(f"prove_ep takes an EP sequent, not one tagged {s.logic!r}")
    goal, assumptions = s.goal, s.assumptions
    if assumptions:
        lhs = assumptions[0]
        for a in assumptions[1:]:
            lhs = Conj(lhs, a)
        parts = [None, (True, lhs), (False, goal)]
    else:
        parts = [(False, goal)]
    tableau = _Tableau(node_cap)
    if tableau.satisfy(parts, None) is None:
        return EpProofResult(True, None, tableau.steps)
    worlds = tableau.worlds
    valuation = dict.fromkeys(sorted(goal._atoms | lhs._atoms if assumptions else goal._atoms), 0)
    bit = 1
    for names in worlds:
        for name in names:
            valuation[name] |= bit
        bit <<= 1
    model = KripkeModel(_closure(len(worlds), tableau.edges), valuation, 0)
    return EpProofResult(False, model, tableau.steps)
