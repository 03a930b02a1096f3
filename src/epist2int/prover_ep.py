"""Decision procedure for the epistemic propositional logic (S4).

Signed analytic tableau with ancestor-equality loop checking on modal
states, which both terminates and turns every open search into a finite
reflexive-transitive Kripke countermodel.  Consequence is local:
A1,...,An entail A iff (A1 /\\ ... /\\ An) -> A is valid.
"""

from __future__ import annotations

import itertools
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
        self.ids = itertools.count()

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

    def satisfy(self, seed: tuple, key: frozenset, chain: dict) -> Optional[tuple]:
        """A world realizing the seed, or None.

        The seed is `(F A, *the T[] formulas of the state demanding []A)`
        in the order they arose, and key is its frozenset; chain maps the
        ancestors' keys to their worlds, and a demand whose seed is an
        ancestor's loops back to that world.
        Returns (world_id, worlds, edges) where worlds maps ids to sets of
        true atoms and edges are the accessibility seeds (before closure).
        """
        wid = next(self.ids)
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
            worlds = {wid: atoms}
            edges = set()
            for inner in demands:
                succ = ((False, inner), *boxed)
                succ_key = frozenset(succ)
                target = here.get(succ_key)
                if target is not None:
                    edges.add((wid, target))
                    continue
                sub = self.satisfy(succ, succ_key, here)
                if sub is None:
                    break
                sub_id, sub_worlds, sub_edges = sub
                worlds.update(sub_worlds)
                edges |= sub_edges
                edges.add((wid, sub_id))
            else:
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
    seed = ((False, target),)
    got = tableau.satisfy(seed, frozenset(seed), {})
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
