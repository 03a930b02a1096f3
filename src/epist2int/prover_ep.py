"""Decision procedure for the epistemic propositional logic (S4).

Signed analytic tableau with ancestor-equality loop checking on modal
states, which both terminates and turns every open search into a finite
reflexive-transitive Kripke countermodel.  Consequence is local:
A1,...,An entail A iff (A1 /\\ ... /\\ An) -> A is valid.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import (
    EP,
    FALSUM,
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    Formula,
    Impl,
    Sequent,
    atoms_of,
    formula_key,
)
from .prover_ip import SearchLimitError


@dataclass(frozen=True)
class KripkeModel:
    """Reflexive-transitive frame with a designated (root) world."""

    worlds: tuple[int, ...]
    relation: frozenset
    valuation: dict
    root: int

    def to_json(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "relation": sorted(map(list, self.relation)),
            "valuation": {a: sorted(ws) for a, ws in sorted(self.valuation.items())},
            "root": self.root,
        }


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


def _put(sf, present: set, alphas: deque, betas: deque) -> bool:
    """Add a signed formula to a world state; False when it closes the branch."""
    if sf in present:
        return True
    sign, f = sf
    if (not sign, f) in present or (sign and f is FALSUM):
        return False
    present.add(sf)
    rule = _RULES.get((sign, type(f)))
    if rule is not None:
        (betas if rule[0] else alphas).append(sf)
    return True


class _Tableau:
    def __init__(self, node_cap: Optional[int]):
        self.node_cap = node_cap
        self.steps = 0
        self.ids = itertools.count()

    def _tick(self):
        self.steps += 1
        if self.node_cap is not None and self.steps > self.node_cap:
            raise SearchLimitError(f"node cap {self.node_cap} exceeded")

    def saturated(self, present: set, alphas: deque, betas: deque) -> Iterator[frozenset]:
        """All open, fully expanded extensions of the current world state."""
        while alphas:
            self._tick()
            sign, f = alphas.popleft()
            for part in _parts(sign, f):
                if not _put(part, present, alphas, betas):
                    return
        if betas:
            self._tick()
            sign, f = betas.popleft()
            for alt in _parts(sign, f):
                p2, a2, b2 = set(present), deque(alphas), deque(betas)
                if _put(alt, p2, a2, b2):
                    yield from self.saturated(p2, a2, b2)
            return
        yield frozenset(present)

    def expand_seed(self, seed: frozenset) -> Iterator[frozenset]:
        present: set = set()
        alphas: deque = deque()
        betas: deque = deque()
        for sf in sorted(seed, key=lambda sf: (sf[0], formula_key(sf[1]))):
            if not _put(sf, present, alphas, betas):
                return
        yield from self.saturated(present, alphas, betas)

    def satisfy(self, seed: frozenset, chain: tuple) -> Optional[tuple]:
        """A world realizing the seed, or None.

        Returns (world_id, worlds, edges) where worlds maps ids to sets of
        true atoms and edges are the accessibility seeds (before closure).
        """
        wid = next(self.ids)
        here = chain + ((seed, wid),)
        for state in self.expand_seed(seed):
            boxed, demands, atoms = set(), set(), set()
            for sf in state:
                sign, f = sf
                kind = type(f)
                if kind is Box:
                    if sign:
                        boxed.add(sf)
                    else:
                        demands.add(f.inner)
                elif sign and kind is Atom:
                    atoms.add(f.name)
            worlds = {wid: atoms}
            edges = set()
            ok = True
            for inner in sorted(demands, key=formula_key):
                succ = frozenset({(False, inner)} | boxed)
                target = next((w for s, w in here if s == succ), None)
                if target is not None:
                    edges.add((wid, target))
                    continue
                sub = self.satisfy(succ, here)
                if sub is None:
                    ok = False
                    break
                sub_id, sub_worlds, sub_edges = sub
                worlds.update(sub_worlds)
                edges |= sub_edges
                edges.add((wid, sub_id))
            if ok:
                return wid, worlds, edges
        return None


def _closure(worlds: list[int], edges: set) -> frozenset:
    """The reflexive-transitive closure: each world with all it reaches."""
    succ: dict = {w: [] for w in worlds}
    for a, b in edges:
        succ[a].append(b)
    rel = set()
    for w in worlds:
        seen = {w}
        todo = [w]
        while todo:
            for v in succ[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        rel.update((w, v) for v in seen)
    return frozenset(rel)


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
    got = tableau.satisfy(frozenset({(False, target)}), ())
    if got is None:
        return EpProofResult(True, None, tableau.steps)
    root, worlds, edges = got
    order = sorted(worlds)
    renum = {old: i for i, old in enumerate(order)}
    ids = [renum[w] for w in order]
    relation = _closure(ids, {(renum[a], renum[b]) for a, b in edges})
    names = sorted(atoms_of(target))
    valuation = {
        name: frozenset(renum[w] for w in order if name in worlds[w]) for name in names
    }
    model = KripkeModel(tuple(ids), relation, valuation, renum[root])
    return EpProofResult(False, model, tableau.steps)


def is_provable_ep(assumptions, goal: Formula, node_cap: Optional[int] = None) -> bool:
    return prove_ep(Sequent(tuple(assumptions), goal, EP), node_cap=node_cap).provable


def equiv_ep(a: Formula, b: Formula) -> bool:
    return is_provable_ep((a,), b) and is_provable_ep((b,), a)


def eval_world(model: KripkeModel, world: int, f: Formula, _memo=None) -> bool:
    """Classical truth at a world; box quantifies over accessible worlds."""
    if _memo is None:
        _memo = {}
    key = (world, f)
    if key in _memo:
        return _memo[key]
    if isinstance(f, Atom):
        got = world in model.valuation.get(f.name, ())
    elif isinstance(f, Falsum):
        got = False
    elif isinstance(f, Conj):
        got = eval_world(model, world, f.left, _memo) and eval_world(model, world, f.right, _memo)
    elif isinstance(f, Disj):
        got = eval_world(model, world, f.left, _memo) or eval_world(model, world, f.right, _memo)
    elif isinstance(f, Impl):
        got = (not eval_world(model, world, f.left, _memo)) or eval_world(model, world, f.right, _memo)
    else:
        got = all(
            eval_world(model, v, f.inner, _memo)
            for (w, v) in model.relation
            if w == world
        )
    _memo[key] = got
    return got


def check_kripke(model: KripkeModel, s: Sequent) -> bool:
    """True iff the model refutes the sequent at its root world.

    Raises ValueError when the frame is not reflexive-transitive or the
    model is otherwise malformed.
    """
    ws = set(model.worlds)
    if model.root not in ws:
        raise ValueError("root world missing")
    for a, b in model.relation:
        if a not in ws or b not in ws:
            raise ValueError(f"relation mentions unknown world ({a},{b})")
    for w in ws:
        if (w, w) not in model.relation:
            raise ValueError(f"relation not reflexive at {w}")
    rel = model.relation
    for a, b in rel:
        for c, d in rel:
            if b == c and (a, d) not in rel:
                raise ValueError(f"relation not transitive: ({a},{b}),({c},{d})")
    for name, where in model.valuation.items():
        if not set(where) <= ws:
            raise ValueError(f"valuation of {name!r} mentions unknown worlds")
    memo: dict = {}
    if not all(eval_world(model, model.root, a, memo) for a in s.assumptions):
        return False
    return not eval_world(model, model.root, s.goal, memo)
