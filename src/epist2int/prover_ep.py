"""Decision procedure for the epistemic propositional logic (S4).

Signed analytic tableau with ancestor-equality loop checking on modal
states, which both terminates and turns every open search into a finite
reflexive-transitive Kripke countermodel.  Consequence is local:
A1,...,An entail A iff (A1 /\\ ... /\\ An) -> A is valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .kernel import KripkeModel
from .kernel import check_kripke  # noqa: F401  re-exported only for perfbench/workloads.py
from .prover_ip import SearchLimitError
from .syntax import (
    FALSUM,
    Atom,
    Box,
    Conj,
    Disj,
    Formula,
    Impl,
    Sequent,
    atoms_of,
)


@dataclass
class EpProofResult:
    provable: bool
    countermodel: Optional[KripkeModel]
    worlds_expanded: int

    @property
    def verdict(self) -> str:
        return "Provable" if self.provable else "NotProvable"


# (sign, node type) -> (is beta, the signs of the parts).  An alpha formula
# adds all its parts to the branch, a beta one splits it, one part each;
# the parts are the children in order.  F[]A is a modal demand (satisfy),
# atoms and falsum take no rule.
_RULES = {
    (True, Conj): (False, (True, True)),
    (True, Box): (False, (True,)),
    (False, Disj): (False, (False, False)),
    (False, Impl): (False, (True, False)),
    (False, Conj): (True, (False, False)),
    (True, Disj): (True, (True, True)),
    (True, Impl): (True, (False, True)),
}


def _parts(sign: bool, f: Formula):
    """The signed parts a rule gives a signed formula, in order."""
    return zip(_RULES[sign, type(f)][1], (f.inner,) if type(f) is Box else (f.left, f.right))


def _put(parts, state: dict, alphas: list, betas: list) -> bool:
    """Add signed formulas to a world state; False when one closes the branch."""
    for sf in parts:
        if sf in state:
            continue
        sign, f = sf
        if (not sign, f) in state or (sign and f is FALSUM):
            return False
        state[sf] = None
        rule = _RULES.get((sign, type(f)))
        if rule is not None:
            (betas if rule[0] else alphas).append(sf)
    return True


class _Tableau:
    """The search.  A world state is a dict used as an ordered set of signed
    formulas, and every choice takes them in the order they were added, so
    the search order depends only on the formula's structure: not on the
    hash seed, nor on what else the process has built or printed."""

    def __init__(self, node_cap: Optional[int]):
        self.node_cap = node_cap
        self.steps = 0
        self.worlds: list[set] = []  # the true atoms of each world, by number
        self.edges: list[tuple[int, int]] = []  # accessibility, before closure

    def _tick(self):
        self.steps += 1
        if self.node_cap is not None and self.steps > self.node_cap:
            raise SearchLimitError(f"node cap {self.node_cap} exceeded")

    def saturations(self, seed: tuple) -> Iterator[dict]:
        """The open, fully expanded world states that extend the seed.

        A branch applies its alphas first; then its oldest beta splits it,
        first part first.  A branch waits on the stack as its state, its
        unsplit betas and the parts still to put in; at a split the first
        part gets a copy of the state and the second the state itself.
        """
        stack = [({}, [], seed)]
        while stack:
            state, betas, parts = stack.pop()
            alphas = []
            if not _put(parts, state, alphas, betas):
                continue
            for sign, f in alphas:  # a queue: the loop sees what it appends
                self._tick()
                if not _put(_parts(sign, f), state, alphas, betas):
                    break
            else:
                if not betas:
                    yield state
                    continue
                self._tick()
                (sign, f), rest = betas[0], betas[1:]
                first, second = _parts(sign, f)
                stack += (state, rest, (second,)), (dict(state), rest[:], (first,))

    def satisfy(self, seed: tuple, key: frozenset, chain: dict) -> Optional[int]:
        """The number of a world realizing the seed, or None.

        The seed is `(F A, *the T[] formulas of the state demanding []A)`
        in the order they arose, and key is its frozenset; chain maps the
        ancestors' keys to their worlds, and a demand whose seed is an
        ancestor's loops back to that world.  A world is numbered as the
        search enters it, and its true atoms and its edges go to
        `self.worlds` and `self.edges`; an attempt that fails truncates
        both back to where it began, so the worlds left are numbered in
        the order the search entered them.
        """
        wid, first_edge = len(self.worlds), len(self.edges)
        here = {**chain, key: wid}
        for state in self.saturations(seed):
            boxed, demands, atoms = [], [], set()
            for sf in state:
                sign, f = sf
                kind = type(f)
                if kind is Box:
                    if sign:
                        boxed.append(sf)
                    else:
                        demands.append(f.inner)
                elif sign and kind is Atom:
                    atoms.add(f.name)
            self.worlds.append(atoms)
            for inner in demands:
                succ = ((False, inner), *boxed)
                succ_key = frozenset(succ)
                target = here.get(succ_key)
                if target is None:
                    target = self.satisfy(succ, succ_key, here)
                    if target is None:
                        break
                self.edges.append((wid, target))
            else:
                return wid
            del self.worlds[wid:], self.edges[first_edge:]
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
    seed = ((False, target),)
    if tableau.satisfy(seed, frozenset(seed), {}) is None:
        return EpProofResult(True, None, tableau.steps)
    worlds = tableau.worlds
    valuation = {name: sum(1 << w for w, atoms in enumerate(worlds) if name in atoms)
                 for name in sorted(atoms_of(target))}
    model = KripkeModel(_closure(len(worlds), tableau.edges), valuation, 0)
    return EpProofResult(False, model, tableau.steps)
