"""Finite Heyting algebras as the up-sets of finite posets, evaluation
and bounded countermodel search.

Every finite Heyting algebra is the algebra of up-sets of a finite poset
(Birkhoff), so one construction, `upset_algebra`, builds the chains and
the table algebras alike.  A countermodel (a valuation giving a formula a
non-top value) refutes intuitionistic provability; failure to find one
proves nothing, since chains validate strictly more than IP does.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .syntax import Atom, Conj, Disj, Falsum, Formula, Impl, atoms_of, is_ip_formula


class AlgebraError(ValueError):
    """Construction-time validation failure."""


@dataclass(frozen=True)
class HeytingAlgebra:
    """Carrier 0..n-1 with meet/join/rpc given by tables.

    `leq` is the full order relation as a tuple of tuples of bools;
    `rpc[x][y]` is the relative pseudo-complement x |> y.
    """

    size: int
    leq: tuple
    meet: tuple
    join: tuple
    rpc: tuple
    bottom: int
    top: int
    kind: str = "table"

    def le(self, x: int, y: int) -> bool:
        return self.leq[x][y]


def _validate(h: HeytingAlgebra) -> None:
    n = h.size
    rng = range(n)
    for x in rng:
        if not h.leq[x][x]:
            raise AlgebraError("order not reflexive")
        if not (h.leq[h.bottom][x] and h.leq[x][h.top]):
            raise AlgebraError("bottom/top not extremal")
        for y in rng:
            if h.leq[x][y] and h.leq[y][x] and x != y:
                raise AlgebraError("order not antisymmetric")
            for z in rng:
                if h.leq[x][y] and h.leq[y][z] and not h.leq[x][z]:
                    raise AlgebraError("order not transitive")
    for x in rng:
        for y in rng:
            m, j = h.meet[x][y], h.join[x][y]
            if not (h.leq[m][x] and h.leq[m][y]):
                raise AlgebraError("meet not a lower bound")
            if not (h.leq[x][j] and h.leq[y][j]):
                raise AlgebraError("join not an upper bound")
            for z in rng:
                if h.leq[z][x] and h.leq[z][y] and not h.leq[z][m]:
                    raise AlgebraError("meet not greatest lower bound")
                if h.leq[x][z] and h.leq[y][z] and not h.leq[j][z]:
                    raise AlgebraError("join not least upper bound")
    # residuation: w <= x|>y  iff  w /\ x <= y
    for x in rng:
        for y in rng:
            r = h.rpc[x][y]
            for w in rng:
                if h.leq[w][r] != h.leq[h.meet[w][x]][y]:
                    raise AlgebraError(f"residuation fails at ({x},{y},{w})")


def _upsets(up: Sequence[int]) -> list[int]:
    """The up-sets of the preorder `up`, as masks ordered by (size, mask);
    raises AlgebraError unless `up` is reflexive and transitive."""
    n = len(up)
    for w, u in enumerate(up):
        if u >> n or not u >> w & 1:
            raise AlgebraError(f"up[{w}] is not a set of points 0..{n - 1} containing {w}")
        if any(u >> v & 1 and up[v] & ~u for v in range(n)):
            raise AlgebraError(f"up[{w}] is not closed upwards: the order is not transitive")
    sets = {0}
    for u in up:
        sets |= {s | u for s in sets}
    return sorted(sets, key=lambda s: (s.bit_count(), s))


def upset_algebra(up: Sequence[int], kind: str = "table") -> HeytingAlgebra:
    """The Heyting algebra of the up-sets of a finite preorder.

    `up[w]` is the bitmask of the points that point w sees.  The elements
    are the unions of principal up-sets, numbered by (size, mask), so the
    empty set is bottom = 0 and the set of all points is top.  The order
    is inclusion, meet and join are intersection and union, and x |> y is
    the set of points whose up-set meets x only inside y.
    """
    elems = _upsets(up)
    index = {s: i for i, s in enumerate(elems)}

    def rpc(x: int, y: int) -> int:
        outside = x & ~y
        return index[sum(1 << w for w, u in enumerate(up) if not u & outside)]

    h = HeytingAlgebra(
        len(elems),
        tuple(tuple(not x & ~y for y in elems) for x in elems),
        tuple(tuple(index[x & y] for y in elems) for x in elems),
        tuple(tuple(index[x | y] for y in elems) for x in elems),
        tuple(tuple(rpc(x, y) for y in elems) for x in elems),
        0, len(elems) - 1, kind,
    )
    _validate(h)
    return h


@functools.lru_cache(maxsize=None)
def make_chain(n: int) -> HeytingAlgebra:
    """The n-element chain 0 < 1 < ... < n-1: the up-sets of n-1 points in
    a line, where point w sees w and every later point.

    Memoised per size (the algebra is frozen), so each size is built and
    validated once per process.
    """
    if n < 1:
        raise AlgebraError("chain needs at least one element")
    points = (1 << (n - 1)) - 1
    return upset_algebra([points >> w << w for w in range(n - 1)], kind="chain")


def enumerate_heyting_algebras(max_size: int) -> Iterator[HeytingAlgebra]:
    """The Heyting algebras with at most max_size elements, in order of size:
    the up-set algebras of the strict orders on 1..max_size-1 points in
    which a point sees only later ones.  Isomorphic posets give isomorphic
    algebras, so a size above 5 can yield one algebra more than once."""
    yield from _heyting_algebras(max_size)


@functools.lru_cache(maxsize=None)
def _heyting_algebras(max_size: int) -> tuple[HeytingAlgebra, ...]:
    """enumerate_heyting_algebras, memoised per max_size like make_chain, so
    each algebra is built and validated once per process."""
    found = []
    for n in range(1, max_size):
        # up[w] is w plus any subset of the later points
        choices = [[1 << w | k << (w + 1) for k in range(1 << (n - 1 - w))] for w in range(n)]
        for up in itertools.product(*choices):
            try:
                count = len(_upsets(up))
            except AlgebraError:
                continue  # not transitive
            if count <= max_size:
                found.append(upset_algebra(up))
    found.sort(key=lambda h: h.size)
    return tuple(found)


@dataclass(frozen=True)
class Countermodel:
    algebra: HeytingAlgebra
    valuation: dict
    value: int
    formula: Formula

    def recheck(self) -> bool:
        v = evaluate(self.formula, self.valuation, self.algebra)
        return v == self.value and v != self.algebra.top

    def to_json(self) -> dict:
        return {
            "carrier_size": self.algebra.size,
            "kind": self.algebra.kind,
            "valuation": dict(sorted(self.valuation.items())),
            "value": self.value,
            "top": self.algebra.top,
        }


def evaluate(f: Formula, v: Mapping[str, int], h: HeytingAlgebra) -> int:
    """Standard extension of the valuation v, a mapping from atom names to
    elements: /\\ is meet, \\/ is join, -> is rpc."""
    if isinstance(f, Atom):
        try:
            return v[f.name]
        except KeyError:
            raise ValueError(f"unassigned atom {f.name!r}") from None
    if isinstance(f, Falsum):
        return h.bottom
    if isinstance(f, Conj):
        return h.meet[evaluate(f.left, v, h)][evaluate(f.right, v, h)]
    if isinstance(f, Disj):
        return h.join[evaluate(f.left, v, h)][evaluate(f.right, v, h)]
    if isinstance(f, Impl):
        return h.rpc[evaluate(f.left, v, h)][evaluate(f.right, v, h)]
    raise ValueError("modal formulas have no Heyting-algebra value")


def _search_algebra(f: Formula, names: list[str], h: HeytingAlgebra) -> Optional[Countermodel]:
    for values in itertools.product(range(h.size), repeat=len(names)):
        v = dict(zip(names, values))
        got = evaluate(f, v, h)
        if got != h.top:
            return Countermodel(h, v, got, f)
    return None


def refute(f: Formula, max_chain: int = 3, also_lattices: bool = False) -> Optional[Countermodel]:
    """First countermodel over chains of size 2..max_chain (then, optionally,
    all Heyting algebras with at most 5 elements).  None proves nothing."""
    if not is_ip_formula(f):
        raise ValueError("refute expects an IP formula")
    if max_chain < 2:
        raise ValueError("max_chain must be >= 2")
    names = sorted(atoms_of(f))
    for n in range(2, max_chain + 1):
        got = _search_algebra(f, names, make_chain(n))
        if got is not None:
            return got
    if also_lattices:
        for h in enumerate_heyting_algebras(5):
            got = _search_algebra(f, names, h)
            if got is not None:
                return got
    return None


def rpc_chain(h: HeytingAlgebra, *xs: int) -> int:
    """Left-nested rpc chain: rpc_chain(h, a, b, c) is (a |> b) |> c."""
    acc = xs[0]
    for x in xs[1:]:
        acc = h.rpc[acc][x]
    return acc
