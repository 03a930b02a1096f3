"""The trusted base: every certificate format, its checker, and the one
mask semantics, `truth`, that they and `algebra` evaluate with.

An IP `Provable` verdict carries a G4ip derivation of `TraceNode`s, which
`check_trace` checks against the rule table `_RULES`, the table the IP
search reads too; an S4 `NotProvable` verdict carries a `KripkeModel`,
which `check_kripke` evaluates with `truth`, as `algebra` evaluates its
Heyting algebras.  Imports: `syntax` only, never a search or an algebra;
a test keeps it so."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from .syntax import (FALSUM, Atom, Box, Conj, Disj, Falsum, Formula, FormulaTable, Impl,
                     Sequent, formula_key)


class TraceNode(NamedTuple):
    """One rule instance: premises are shared sub-derivations (a DAG)."""

    rule: str
    context: frozenset
    goal: Formula
    principal: Optional[Formula]
    premises: tuple

    def count_nodes(self) -> int:
        """The number of distinct nodes."""
        return len(_distinct_nodes(self))


# ---------------------------------------------------------------- G4ip
# One function per rule: (ctx, goal, principal) -> the premise sequents, as
# (context, goal) pairs in the order the search proves them, or None when
# the triple is not an instance.  The search and check_trace read _RULES.

def _l_falsum(ctx, goal, principal):
    if principal == FALSUM and FALSUM in ctx:
        return []


def _axiom(ctx, goal, principal):
    if principal == goal and goal in ctx:
        return []


def _r_impl(ctx, goal, principal):
    if principal is None and isinstance(goal, Impl):
        return [(ctx | {goal.left}, goal.right)]


def _r_conj(ctx, goal, principal):
    if principal is None and isinstance(goal, Conj):
        return [(ctx, goal.left), (ctx, goal.right)]


def _r_disj_1(ctx, goal, principal):
    if principal is None and isinstance(goal, Disj):
        return [(ctx, goal.left)]


def _r_disj_2(ctx, goal, principal):
    if principal is None and isinstance(goal, Disj):
        return [(ctx, goal.right)]


def _l_conj(ctx, goal, f):
    if isinstance(f, Conj) and f in ctx:
        return [(ctx - {f} | {f.left, f.right}, goal)]


def _l_disj(ctx, goal, f):
    if isinstance(f, Disj) and f in ctx:
        rest = ctx - {f}
        return [(rest | {f.left}, goal), (rest | {f.right}, goal)]


def _l_impl_mp(ctx, goal, f):
    if isinstance(f, Impl) and f.left in ctx and f in ctx:
        return [(ctx - {f} | {f.right}, goal)]


def _l_impl_conj(ctx, goal, f):
    if isinstance(f, Impl) and isinstance(f.left, Conj) and f in ctx:
        return [(ctx - {f} | {Impl(f.left.left, Impl(f.left.right, f.right))}, goal)]


def _l_impl_disj(ctx, goal, f):
    if isinstance(f, Impl) and isinstance(f.left, Disj) and f in ctx:
        return [(ctx - {f} | {Impl(f.left.left, f.right), Impl(f.left.right, f.right)}, goal)]


def _l_impl_impl(ctx, goal, f):
    if isinstance(f, Impl) and isinstance(f.left, Impl) and f in ctx:
        rest = ctx - {f}
        return [(rest | {Impl(f.left.right, f.right)}, f.left), (rest | {f.right}, goal)]


_RULES = {
    "L-falsum": _l_falsum, "axiom": _axiom,
    "R-impl": _r_impl, "R-conj": _r_conj, "R-disj-1": _r_disj_1, "R-disj-2": _r_disj_2,
    "L-conj": _l_conj, "L-disj": _l_disj, "L-impl-mp": _l_impl_mp,
    "L-impl-conj": _l_impl_conj, "L-impl-disj": _l_impl_disj, "L-impl-impl": _l_impl_impl,
}


def validate_trace(trace: Optional[TraceNode], s: Sequent) -> Optional[str]:
    """None when the trace certifies the sequent, else the first fault a
    depth-first walk meets, premises in order, with its node path.  Each
    distinct node is checked once against _RULES; a loop over a stack of
    items (node, the sequent it must conclude, the item that asked for
    it, its index there), so depth costs no Python stack."""
    if trace is None:
        return "no trace"
    checked: set[int] = set()
    stack: list = [(trace, (frozenset(s.assumptions), s.goal), None, 0)]
    while stack:
        item = stack.pop()
        n, (ctx, goal), parent, _ = item
        if not isinstance(n, TraceNode):
            return f"{_path(item)}: not a trace node"
        if n.context != ctx or n.goal != goal:
            if parent is None:
                return "root conclusion does not match the queried sequent"
            return f"{_path(item)}: premise sequent differs from the {parent[0].rule} instance"
        if id(n) in checked:
            continue
        checked.add(id(n))
        rule, _, _, principal, premises = n
        if not (isinstance(rule, str) and isinstance(premises, tuple)):
            return f"{_path(item)}: rule is not a string or premises not a tuple"
        premises_of = _RULES.get(rule)
        expected = premises_of(ctx, goal, principal) if premises_of is not None else None
        if expected is None:
            return f"{_path(item)}: bad {rule} instance"
        k = len(premises)
        if len(expected) != k:
            return f"{_path(item)}: {rule} wants {len(expected)} premises, has {k}"
        while k:  # last premise first, so the walk takes them in order
            k -= 1
            stack.append((premises[k], expected[k], item, k))
    return None


def _path(item: tuple) -> str:
    """The node path of a stack item, such as root.0.1, read up its parent links."""
    path = []
    while item[2] is not None:
        path.append(str(item[3]))
        item = item[2]
    return ".".join(["root", *reversed(path)])


def check_trace(trace: Optional[TraceNode], s: Sequent) -> bool:
    """True iff every node is a legal rule instance and the root matches s."""
    return validate_trace(trace, s) is None


def _distinct_nodes(trace: TraceNode) -> list[TraceNode]:
    """Each distinct node once, premises before conclusions and in
    order, the root last; a loop, so depth costs no Python stack."""
    order, seen, todo = [], set(), [(trace, False)]
    while todo:
        n, done = todo.pop()
        if done:
            order.append(n)
        elif id(n) not in seen:
            seen.add(id(n))
            todo += (n, True), *((p, False) for p in reversed(n.premises))
    return order


def trace_to_json(trace: TraceNode) -> dict:
    """The trace as a formula table and a table of its distinct rule
    instances, the steps of _distinct_nodes, which name formulas and
    premises by index: a shared formula or sub-derivation is written
    once.  Each context is added in formula_key order, so the document
    depends neither on the hash seed nor on what the process built
    before."""
    table = FormulaTable()
    add = table.add
    nodes = _distinct_nodes(trace)
    step = {id(n): i for i, n in enumerate(nodes)}
    steps = [{
        "rule": n.rule,
        "assumptions": sorted([add(f) for f in sorted(n.context, key=formula_key)]),
        "goal": add(n.goal),
        "principal": add(n.principal) if n.principal is not None else None,
        "premises": [step[id(p)] for p in n.premises],
    } for n in nodes]
    return {"formulas": table.entries, "steps": steps}


# ---------------------------------------------------------------- masks
class AlgebraError(ValueError):
    """Construction-time validation failure."""


def check_preorder(up: Sequence[int]) -> None:
    """Raise AlgebraError unless the up-set masks `up` are a preorder on
    0..n-1.  A bool is not a mask: True would read as the set {0}."""
    n = len(up)
    for w, u in enumerate(up):
        if not isinstance(u, int) or isinstance(u, bool):
            raise AlgebraError(f"up[{w}] is {u!r}, not an int bitmask")
    for w, u in enumerate(up):
        if u >> n:
            raise AlgebraError(f"up[{w}] names an unknown world: the points are 0..{n - 1}")
        if not u >> w & 1:
            raise AlgebraError(f"up[{w}] is not a set containing {w}: the order is not reflexive")
        seen = u
        while seen:  # each v that w sees, by its lowest set bit
            bit = seen & -seen
            if up[bit.bit_length() - 1] & ~u:
                raise AlgebraError(f"up[{w}] is not closed upwards: the order is not transitive")
            seen ^= bit


def interior(up: Sequence[int], a: int) -> int:
    """The points whose up-set lies inside a: S4's box, and x |> y is interior(up, ~x | y)."""
    outside, inside, bit = ~a, 0, 1
    for u in up:
        if not u & outside:
            inside |= bit
        bit <<= 1
    return inside


def truth(f: Formula, up: Sequence[int], valuation: Mapping[str, int],
          memo: dict, heyting: bool = False) -> int:
    """The mask of the points of the preorder `up` where f holds, memoised
    per compound subformula in memo.

    `valuation` maps atom names to masks; an atom it lacks raises
    KeyError.  [] is interior.  a -> b is ~a | b, S4's reading, which may be
    negative: an infinite set whose point bits alone are read.  With
    heyting it is interior(up, ~a | b), the up-set a |> b.
    """
    kind = type(f)
    if kind is Atom:
        return valuation[f.name]
    got = memo.get(f)
    if got is None:
        if kind is Falsum:
            got = 0
        elif kind is Box:
            got = interior(up, truth(f.inner, up, valuation, memo, heyting))
        else:
            a = truth(f.left, up, valuation, memo, heyting)
            b = truth(f.right, up, valuation, memo, heyting)
            if kind is Conj:
                got = a & b
            elif kind is Disj:
                got = a | b
            else:
                got = interior(up, ~a | b) if heyting else ~a | b
        memo[f] = got
    return got


# ---------------------------------------------------------------- S4
@dataclass(frozen=True, slots=True, init=False)
class KripkeModel:
    """Reflexive-transitive frame on the worlds 0..n-1 with a root world.

    `up[w]` is the bitmask of the worlds that w sees, the preorder format
    of `check_preorder` and `truth`, and `valuation[a]` the bitmask of the
    worlds where atom a is true.  Built unchecked, its slots set through
    their own descriptors; `check_kripke` checks it.
    """

    up: tuple[int, ...]
    valuation: dict
    root: int

    def __init__(self, up: tuple[int, ...], valuation: dict, root: int):
        _set_up(self, up)
        _set_valuation(self, valuation)
        _set_root(self, root)

    @property
    def worlds(self) -> range:
        return range(len(self.up))

    def to_json(self) -> dict:
        ws = self.worlds
        return {
            "worlds": list(ws),
            "relation": [[w, v] for w in ws for v in ws if self.up[w] >> v & 1],
            "valuation": {a: [w for w in ws if m >> w & 1] for a, m in sorted(self.valuation.items())},
            "root": self.root,
        }


_set_up, _set_valuation = KripkeModel.up.__set__, KripkeModel.valuation.__set__
_set_root = KripkeModel.root.__set__


def check_kripke(model: KripkeModel, s: Sequent) -> bool:
    """True iff the model refutes the sequent at its root world.

    Raises ValueError when the frame is not reflexive-transitive or the
    model is otherwise malformed, a bool root or mask included: True is
    not world 1, nor the set {0}.
    """
    up, valuation, root = model.up, model.valuation, model.root
    if not (isinstance(up, tuple) and isinstance(valuation, dict)):
        raise ValueError("a model is a tuple of up-set masks and a dict of valuation masks")
    if not isinstance(root, int) or isinstance(root, bool) or root not in model.worlds:
        raise ValueError(f"root world missing: {root!r} is not an int in 0..{len(up) - 1}")
    check_preorder(up)
    for name, where in valuation.items():
        if not isinstance(where, int) or isinstance(where, bool):
            raise ValueError(f"valuation of {name!r} is {where!r}, not an int bitmask")
        if where >> len(up):
            raise ValueError(f"valuation of {name!r} mentions unknown worlds")
    atoms = s.goal._atoms
    for a in s.assumptions:
        atoms |= a._atoms
    if not valuation.keys() >= atoms:  # an atom it lacks holds nowhere: fill a copy with 0
        valuation = dict.fromkeys(atoms, 0) | valuation
    memo: dict = {}
    refuted = ~truth(s.goal, up, valuation, memo)
    for a in s.assumptions:
        refuted &= truth(a, up, valuation, memo)
    return bool(refuted >> root & 1)
