"""Finite Heyting algebras: chains, table-defined lattices, evaluation
and bounded countermodel search.

A countermodel (a valuation giving a formula a non-top value) refutes
intuitionistic provability; failure to find one proves nothing, since
chains validate strictly more than IP does.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

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

    def elements(self) -> range:
        return range(self.size)


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


@functools.lru_cache(maxsize=None)
def make_chain(n: int) -> HeytingAlgebra:
    """The n-element chain 0 < 1 < ... < n-1; rpc(x,y) = top if x<=y else y.

    Memoised per size (the algebra is frozen), so each size is built and
    validated once per process.
    """
    if n < 1:
        raise AlgebraError("chain needs at least one element")
    rng = range(n)
    leq = tuple(tuple(x <= y for y in rng) for x in rng)
    meet = tuple(tuple(min(x, y) for y in rng) for x in rng)
    join = tuple(tuple(max(x, y) for y in rng) for x in rng)
    rpc = tuple(tuple(n - 1 if x <= y else y for y in rng) for x in rng)
    h = HeytingAlgebra(n, leq, meet, join, rpc, 0, n - 1, kind="chain")
    _validate(h)
    return h


def algebra_from_order(n: int, pairs: set[tuple[int, int]]) -> HeytingAlgebra:
    """Build from a strict-order pair set (reflexivity implied); validates
    that the poset is a bounded lattice with all relative pseudo-complements."""
    leq_m = [[x == y for y in range(n)] for x in range(n)]
    for x, y in pairs:
        leq_m[x][y] = True
    leq = tuple(tuple(row) for row in leq_m)

    def bound(x: int, y: int, below: bool) -> Optional[int]:
        # the bound must itself be the extremum of the candidate set
        if below:
            cands = [z for z in range(n) if leq[z][x] and leq[z][y]]
            return next((z for z in cands if all(leq[w][z] for w in cands)), None)
        cands = [z for z in range(n) if leq[x][z] and leq[y][z]]
        return next((z for z in cands if all(leq[z][w] for w in cands)), None)

    meet_m, join_m = [], []
    for x in range(n):
        mrow, jrow = [], []
        for y in range(n):
            m = bound(x, y, below=True)
            j = bound(x, y, below=False)
            if m is None or j is None:
                raise AlgebraError(f"not a lattice: no bound for ({x},{y})")
            mrow.append(m)
            jrow.append(j)
        meet_m.append(tuple(mrow))
        join_m.append(tuple(jrow))
    meet = tuple(meet_m)
    join = tuple(join_m)

    bottoms = [x for x in range(n) if all(leq[x][y] for y in range(n))]
    tops = [x for x in range(n) if all(leq[y][x] for y in range(n))]
    if not bottoms or not tops:
        raise AlgebraError("not bounded")

    rpc_m = []
    for x in range(n):
        row = []
        for y in range(n):
            cands = [z for z in range(n) if leq[meet[z][x]][y]]
            best = None
            for z in cands:
                if all(leq[w][z] for w in cands):
                    best = z
                    break
            if best is None:
                raise AlgebraError(f"no relative pseudo-complement for ({x},{y})")
            row.append(best)
        rpc_m.append(tuple(row))

    h = HeytingAlgebra(n, leq, meet, join, tuple(rpc_m), bottoms[0], tops[0])
    _validate(h)
    return h


def enumerate_heyting_algebras(max_size: int) -> Iterator[HeytingAlgebra]:
    """All Heyting algebras with up to max_size elements, up to isomorphism
    modulo order-preserving relabelling (element i below j implies i < j)."""
    for n in range(2, max_size + 1):
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(2 ** len(upper)):
            pairs = {upper[k] for k in range(len(upper)) if bits >> k & 1}
            if any((a, c) not in pairs
                   for a, b in pairs for b2, c in pairs if b == b2):
                continue
            try:
                yield algebra_from_order(n, pairs)
            except AlgebraError:
                continue


@dataclass(frozen=True)
class Valuation:
    """Atom names to carrier elements; falsum always means bottom."""

    assignment: dict

    def __getitem__(self, name: str) -> int:
        return self.assignment[name]


@dataclass(frozen=True)
class Countermodel:
    algebra: HeytingAlgebra
    valuation: Valuation
    value: int
    formula: Formula

    def recheck(self) -> bool:
        v = evaluate(self.formula, self.valuation, self.algebra)
        return v == self.value and v != self.algebra.top

    def to_json(self) -> dict:
        return {
            "carrier_size": self.algebra.size,
            "kind": self.algebra.kind,
            "valuation": dict(sorted(self.valuation.assignment.items())),
            "value": self.value,
            "top": self.algebra.top,
        }


def evaluate(f: Formula, v: Valuation, h: HeytingAlgebra) -> int:
    """Standard extension of the valuation: /\\ is meet, \\/ is join, -> is rpc."""
    if isinstance(f, Atom):
        try:
            return v.assignment[f.name]
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
    for values in itertools.product(h.elements(), repeat=len(names)):
        v = Valuation(dict(zip(names, values)))
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
