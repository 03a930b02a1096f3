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
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    Formula,
    Impl,
    is_ip_formula,
)


def rel_neg(a: Formula, e: Formula) -> Formula:
    """Negation relative to e: just the implication a -> e."""
    return Impl(a, e)


def double_rel_neg(a: Formula, e: Formula) -> Formula:
    return Impl(Impl(a, e), e)


def godel_translate(a: Formula) -> Formula:
    """Box atoms and implications; falsum and /\\, \\/ pass through.

    A loop over an explicit stack, so depth costs no Python stack: a
    binary node stacks its class, then its children; the class, popped
    after both children's translations, combines them.
    """
    done: list[Formula] = []
    todo: list = [a]
    while todo:
        f = todo.pop()
        if f is Impl:
            right = done.pop()
            done[-1] = Box(Impl(done[-1], right))
        elif f is Conj or f is Disj:
            right = done.pop()
            done[-1] = f(done[-1], right)
        elif type(f) is Atom:
            done.append(Box(f))
        elif type(f) is Falsum:
            done.append(f)
        elif type(f) is Box:
            raise ValueError("input already contains Box")
        else:
            todo += type(f), f.right, f.left
    return done[0]


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
            if not is_ip_formula(f):
                raise ValueError("gamma must consist of IP formulas")

    @property
    def witness(self) -> Formula:
        return self.gamma[self.witness_index]

    def with_witness(self, i: int) -> "TranslationContext":
        return TranslationContext(self.gamma, i)


def ff_translate(a: Formula, ctx: TranslationContext) -> Formula:
    """Epistemic-to-intuitionistic translation relative to ctx."""
    e = ctx.witness
    if isinstance(a, (Atom, Falsum)):
        return double_rel_neg(a, e)
    if isinstance(a, Conj):
        return Conj(ff_translate(a.left, ctx), ff_translate(a.right, ctx))
    if isinstance(a, Disj):
        return double_rel_neg(Disj(ff_translate(a.left, ctx), ff_translate(a.right, ctx)), e)
    if isinstance(a, Impl):
        return Impl(ff_translate(a.left, ctx), ff_translate(a.right, ctx))
    # box: conjunction over all witnesses, right-nested in stored order
    parts = [ff_translate(a.inner, ctx.with_witness(i)) for i in range(len(ctx.gamma))]
    body = parts[-1]
    for p in reversed(parts[:-1]):
        body = Conj(p, body)
    return double_rel_neg(body, e)


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
    # (x -> e) -> e) -> e  collapses to  x -> e
    if isinstance(f, Impl):
        d = _match_double(f.left)
        if d is not None and d[1] == f.right:
            return Impl(d[0], f.right)
    # (((x->e)->e) -> ((y->e)->e))  becomes  (x -> ((y->e)->e))
    if isinstance(f, Impl):
        a, b = _match_double(f.left), _match_double(f.right)
        if a is not None and b is not None and a[1] == b[1]:
            return Impl(a[0], f.right)
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


def _rewrite_once(f: Formula) -> Formula | None:
    if isinstance(f, (Conj, Disj, Impl)):
        left = _rewrite_once(f.left)
        if left is not None:
            return type(f)(left, f.right)
        right = _rewrite_once(f.right)
        if right is not None:
            return type(f)(f.left, right)
    if isinstance(f, Box):
        inner = _rewrite_once(f.inner)
        if inner is not None:
            return Box(inner)
    return _step(f)


def ff_simplify(f: Formula) -> Formula:
    """Exhaustively rewrite to a provably equivalent, smaller IP formula.

    The rules are structural: every rule instance is an interprovability
    for any witness shape, so the simplifier is sound on arbitrary IP
    input.  Best-effort normalization only.
    """
    while True:
        g = _rewrite_once(f)
        if g is None:
            return f
        f = g
