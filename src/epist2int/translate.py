"""Translations between the two logics.

godel_translate embeds intuitionistic formulas into S4 (box every atom
and every implication).  ff_translate goes the other way: relative to a
finite set gamma of IP formulas and a designated witness in it, atoms
and disjunctions pick up a double relative negation, and a boxed formula
becomes the doubly negated conjunction of its translations under every
member of gamma.  ff_simplify normalizes such translations with a small
terminating rewrite system whose rules are all IP interprovabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    FALSUM,
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    Formula,
    Impl,
    check_formula,
    is_ip_formula,
)


def rel_neg(a: Formula, e: Formula) -> Formula:
    """Negation relative to e: just the implication a -> e."""
    return Impl(a, e)


def double_rel_neg(a: Formula, e: Formula) -> Formula:
    return Impl(Impl(a, e), e)


# What godel_translate maps each distinct box-free node to, for every node
# translated so far in the process.  Interned nodes live as long, so the
# table grows no further than the intern tables and is never cleared.  An
# entry is only ever added, as the one interned node, so threads racing on
# a node write the same value.
_GODEL: dict[Formula, Formula] = {FALSUM: FALSUM}


def godel_translate(a: Formula) -> Formula:
    """Box atoms and implications; falsum and /\\, \\/ pass through.

    One process-wide table from each distinct input node to its
    translation, filled children first in a loop over an explicit stack,
    as in ff_translate, so depth costs no Python stack and a call walks
    only the nodes no earlier call translated; intern tables are read
    first.
    """
    check_formula(godel_translate, a)
    if not is_ip_formula(a):
        raise ValueError("input already contains Box")
    boxes, done = Box._table, _GODEL
    todo = [a]
    while todo:
        f = todo.pop()
        if f in done:
            continue
        if type(f) is Atom:
            done[f] = boxes.get((f,)) or Box(f)
        elif f.left in done and f.right in done:
            kind, left, right = type(f), done[f.left], done[f.right]
            g = kind._table.get((left, right)) or kind(left, right)
            done[f] = (boxes.get((g,)) or Box(g)) if kind is Impl else g
        else:
            todo += f, f.right, f.left
    return done[a]


@dataclass(frozen=True)
class TranslationContext:
    """Nonempty, duplicate-free tuple of IP formulas plus a witness index."""

    gamma: tuple[Formula, ...]
    witness_index: int = 0

    def __post_init__(self):
        if not self.gamma:
            raise ValueError("gamma must be nonempty")
        if len(set(self.gamma)) != len(self.gamma):
            raise ValueError("gamma must be duplicate-free")
        if not 0 <= self.witness_index < len(self.gamma):
            raise ValueError("witness_index out of range")
        for f in self.gamma:
            check_formula(TranslationContext, f)
            if not is_ip_formula(f):
                raise ValueError("gamma must consist of IP formulas")

    @property
    def witness(self) -> Formula:
        return self.gamma[self.witness_index]

    def with_witness(self, i: int) -> "TranslationContext":
        return TranslationContext(self.gamma, i)


def ff_translate(a: Formula, ctx: TranslationContext) -> Formula:
    """Epistemic-to-intuitionistic translation relative to ctx.

    The definition as one table from (subformula, index in gamma of its
    witness) to its translation, filled children first in a loop over an
    explicit stack, so depth costs no Python stack.  A box's body is a
    child under every witness; each pair is translated once, and a leaf
    pair is answered on its first visit.
    """
    check_formula(ff_translate, a)
    gamma = ctx.gamma
    done: dict[tuple[Formula, int], Formula] = {}
    todo = [(a, ctx.witness_index)]
    while todo:
        f, w = todo[-1]
        kind = type(f)
        if kind is Atom or kind is Falsum:
            done[todo.pop()] = double_rel_neg(f, gamma[w])
            continue
        parts = [(f.inner, i) for i in range(len(gamma))] if kind is Box else [(f.left, w), (f.right, w)]
        missing = [p for p in parts if p not in done]
        if missing:
            todo += missing
            continue
        parts = [done[p] for p in parts]
        if kind is Conj or kind is Impl:
            done[todo.pop()] = kind(*parts)
        else:
            # a box's conjunction over all witnesses is right-nested in stored order
            body = _nest(parts, Conj) if kind is Box else Disj(*parts)
            done[todo.pop()] = double_rel_neg(body, gamma[w])
    return done[a, ctx.witness_index]


def _match_double(f: Formula):
    """(x, e) when f is (x -> e) -> e with both e's identical."""
    if isinstance(f, Impl) and isinstance(f.left, Impl) and f.left.right == f.right:
        return f.left.left, f.right
    return None


def _flatten(f: Formula, ctor) -> list[Formula]:
    if isinstance(f, ctor):
        return _flatten(f.left, ctor) + _flatten(f.right, ctor)
    return [f]


def _nest(parts: list[Formula], ctor) -> Formula:
    body = parts[-1]
    for p in reversed(parts[:-1]):
        body = ctor(p, body)
    return body


def _conj_pass(parts: list[Formula]) -> list[Formula] | None:
    """One reduction on a conjunct list, or None.

    Drops duplicates, drops a doubly negated copy of another conjunct
    (x proves (x->c)->c), drops (x->c)->c double-negated again under a
    matching witness, and merges adjacent double negations that share a
    witness into one (all of these are IP interprovabilities).
    """
    for i, t in enumerate(parts):
        if t in parts[:i]:
            return parts[:i] + parts[i + 1 :]
    for i, t in enumerate(parts):
        d = _match_double(t)
        if d is None:
            continue
        x, e = d
        rest = parts[:i] + parts[i + 1 :]
        if x in rest:
            return rest
        inner = _match_double(x)
        if inner is not None and double_rel_neg(inner[0], e) in rest:
            return rest
    for i in range(len(parts) - 1):
        a, b = _match_double(parts[i]), _match_double(parts[i + 1])
        if a is not None and b is not None and a[1] == b[1]:
            merged = double_rel_neg(Conj(a[0], b[0]), a[1])
            return parts[:i] + [merged] + parts[i + 2 :]
    return None


def _step(f: Formula) -> Formula | None:
    """First applicable reduction at the root of f, or None."""
    # ((x -> e) -> e) -> r  becomes  x -> r  when r is e or (y -> e) -> e
    if isinstance(f, Impl):
        d = _match_double(f.left)
        if d is not None:
            b = _match_double(f.right)
            if d[1] == f.right or b is not None and b[1] == d[1]:
                return Impl(d[0], f.right)
    d = _match_double(f)
    if d is not None:
        body, e = d
        if isinstance(body, (Conj, Disj)):
            ctor = type(body)
            parts = _flatten(body, ctor)
            for i, t in enumerate(parts):
                inner = _match_double(t)
                if inner is not None and inner[1] == e:
                    stripped = parts[:i] + [inner[0]] + parts[i + 1 :]
                    return double_rel_neg(_nest(stripped, ctor), e)
    if isinstance(f, Conj):
        parts = _flatten(f, Conj)
        got = _conj_pass(parts)
        if got is not None:
            return _nest(got, Conj)
        renested = _nest(parts, Conj)
        if renested != f:
            return renested
    return None


def ff_simplify(f: Formula) -> Formula:
    """Exhaustively rewrite to a provably equivalent, smaller IP formula.

    The rules are structural: every rule instance is an interprovability
    for any witness shape, so the simplifier is sound on arbitrary IP
    input.  Best-effort normalization only.  Innermost: a node's children
    are normalized, left then right, before a rule is tried at the node,
    and a rewritten node is normalized again; each distinct node is
    normalized once per call.
    """
    check_formula(ff_simplify, f)
    memo: dict[Formula, Formula] = {}

    def norm(g: Formula) -> Formula:
        got = memo.get(g)
        if got is None:
            kind = type(g)
            if kind is Conj or kind is Disj or kind is Impl:
                got = kind(norm(g.left), norm(g.right))
            elif kind is Box:
                got = Box(norm(g.inner))
            else:
                got = g
            step = _step(got)
            if step is not None:
                got = norm(step)
            memo[g] = got
        return got

    return norm(f)
