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
from .prover_ip import SearchLimitError
from .syntax import (
    FALSUM,
    Atom,
    Box,
    Conj,
    Disj,
    Impl,
    Sequent,
    atoms_of,
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


# Node type -> (is beta, the sign of each part), one table per sign.  An
# alpha formula adds all its parts to the branch, a beta one splits it, one
# part each; the parts are the children in order.  F[]A is a modal demand
# (satisfy), atoms and falsum take no rule.
_TRUE_RULES = {Conj: (False, True, True), Box: (False, True),
               Disj: (True, True, True), Impl: (True, False, True)}
_FALSE_RULES = {Disj: (False, False, False), Impl: (False, True, False),
                Conj: (True, False, False)}


class _Tableau:
    """The search.  A world state is two dicts used as ordered sets, the
    formulas signed true and those signed false, and every choice takes them
    in the order they were added, so the search order depends only on the
    formula's structure: not on the hash seed, nor on what else the process
    has built or printed."""

    def __init__(self, node_cap: Optional[int]):
        self.cap = sys.maxsize if node_cap is None else node_cap
        self.steps = 0
        self.worlds: list[list] = []  # the true atoms of each world, by number
        self.edges: list[tuple[int, int]] = []  # accessibility, before closure
        self.ancestors: dict = {}  # the keys of the worlds being satisfied -> their numbers

    def satisfy(self, parts: list, key: tuple) -> Optional[int]:
        """The number of a world realizing the seed, or None.

        The seed parts are `(False, A)` then `(True, []B)` for each
        T[] formula of the state demanding []A, in the order they arose, and
        key is `(A, frozenset of the []B)`.  A demand whose key is an
        ancestor's loops back to that world.  A world is numbered as the
        search enters it, and its true atoms and its edges go to
        `self.worlds` and `self.edges`; an attempt that fails truncates
        both back to where it began, so the worlds left are numbered in
        the order the search entered them.

        Saturation is the loop over a stack of branches.  A branch puts
        its parts in, then the parts of each alpha in the order the alphas
        arose, a queue where None marks one alpha's step; then its oldest
        beta splits it, first part first.  At a split the first part gets
        copies of the state and the second the state itself.
        """
        worlds, edges, ancestors, cap = self.worlds, self.edges, self.ancestors, self.cap
        wid, first_edge = len(worlds), len(edges)
        ancestors[key] = wid
        stack = [({}, {}, [], parts)]
        while stack:
            true, false, betas, queue = stack.pop()
            for item in queue:  # the loop sees what it appends
                if item is None:
                    self.steps += 1
                    if self.steps > cap:
                        raise SearchLimitError(f"node cap {cap} exceeded")
                    continue
                sign, f = item
                if sign:
                    if f in true:
                        continue
                    if f in false or f is FALSUM:
                        break
                    true[f] = None
                    rule = _TRUE_RULES.get(type(f))
                else:
                    if f in false:
                        continue
                    if f in true:
                        break
                    false[f] = None
                    rule = _FALSE_RULES.get(type(f))
                if rule is None:
                    continue
                if rule[0]:
                    betas.append((rule, f))
                elif type(f) is Box:
                    queue += None, (rule[1], f.inner)
                else:
                    queue += None, (rule[1], f.left), (rule[2], f.right)
            else:
                if betas:
                    self.steps += 1
                    if self.steps > cap:
                        raise SearchLimitError(f"node cap {cap} exceeded")
                    (_, first, second), f = betas[0]
                    rest = betas[1:]
                    stack += ((true, false, rest, [(second, f.right)]),
                              (dict(true), dict(false), rest[:], [(first, f.left)]))
                    continue
                worlds.append([f.name for f in true if type(f) is Atom])
                demands = [f.inner for f in false if type(f) is Box]
                if demands:
                    boxed = [f for f in true if type(f) is Box]
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
    """The reflexive-transitive closure as up-set masks (Warshall on bitsets)."""
    up = [1 << w for w in range(n)]
    for a, b in edges:
        up[a] |= 1 << b
    for k in range(n):
        up = [u | up[k] if u >> k & 1 else u for u in up]
    return tuple(up)


def prove_ep(s: Sequent, node_cap: Optional[int] = None) -> EpProofResult:
    """Decide S4 derivability; NotProvable verdicts carry a countermodel."""
    goal = s.goal
    if s.assumptions:
        lhs = s.assumptions[0]
        for a in s.assumptions[1:]:
            lhs = Conj(lhs, a)
        target = Impl(lhs, goal)
    else:
        target = goal
    tableau = _Tableau(node_cap)
    if tableau.satisfy([(False, target)], (target, frozenset())) is None:
        return EpProofResult(True, None, tableau.steps)
    worlds = tableau.worlds
    valuation = dict.fromkeys(sorted(atoms_of(target)), 0)
    for w, names in enumerate(worlds):
        for name in names:
            valuation[name] |= 1 << w
    model = KripkeModel(_closure(len(worlds), tableau.edges), valuation, 0)
    return EpProofResult(False, model, tableau.steps)
