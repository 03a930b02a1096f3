"""Finite Heyting algebras as the up-sets of finite posets, evaluated with
the kernel's mask semantics, and bounded countermodel search.

Every finite Heyting algebra is the algebra of up-sets of a finite poset
(Birkhoff), so one construction, `upset_algebra`, builds the chains and
the other algebras alike, and `kernel.truth`, the evaluator the kernel
checks S4 countermodels with, gives a formula its Heyting value there.
A countermodel (a valuation giving a formula a non-top value) refutes
intuitionistic provability; failure to find one proves nothing, since
chains validate strictly more than IP does.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .kernel import AlgebraError, check_preorder, truth
from .syntax import Formula, atoms_of, check_formula, is_ip_formula


@dataclass(frozen=True)
class HeytingAlgebra:
    """The up-sets of the preorder `up`, as masks in `upsets`.

    Element i is the up-set `upsets[i]`; the order is inclusion, so the
    empty set is bottom = 0 and the set of all points is top.
    """

    up: tuple[int, ...]
    upsets: tuple[int, ...]
    bottom = 0

    @property
    def size(self) -> int:
        return len(self.upsets)

    @property
    def top(self) -> int:
        return len(self.upsets) - 1

    @property
    def kind(self) -> str:
        """"chain" when the up-sets are totally ordered, else "table"."""
        sets = self.upsets
        return "chain" if all(a & ~b == 0 for a, b in zip(sets, sets[1:])) else "table"


def _upsets(up: Sequence[int]) -> list[int]:
    """The up-sets of the preorder `up`, as masks ordered by (size, mask)."""
    check_preorder(up)
    sets = {0}
    for u in up:
        sets |= {s | u for s in sets}
    return sorted(sets, key=lambda s: (s.bit_count(), s))


def upset_algebra(up: Sequence[int]) -> HeytingAlgebra:
    """The Heyting algebra of the up-sets of a finite preorder.

    `up[w]` is the bitmask of the points that point w sees.  The elements
    are the unions of principal up-sets, numbered by (size, mask), so the
    empty set is bottom = 0 and the set of all points is top.  The order
    is inclusion, meet and join are intersection and union, and x |> y is
    interior(up, ~x | y), the points whose up-set meets x only inside y.
    """
    return HeytingAlgebra(tuple(up), tuple(_upsets(up)))


MAX_CHAIN = 256  # make_chain's bound: the time to build a chain grows faster than n**2


@functools.lru_cache(maxsize=None)
def make_chain(n: int) -> HeytingAlgebra:
    """The n-element chain 0 < 1 < ... < n-1, for 1 <= n <= MAX_CHAIN: the
    up-sets of n-1 points in a line, where point w sees w and every later
    point.

    Memoised per size (the algebra is frozen), so each size is built once
    per process.
    """
    if not 1 <= n <= MAX_CHAIN:
        raise AlgebraError(f"a chain has 1 to {MAX_CHAIN} elements, not {n}")
    points = (1 << (n - 1)) - 1
    return upset_algebra([points >> w << w for w in range(n - 1)])


@functools.lru_cache(maxsize=None)
def enumerate_heyting_algebras(max_size: int) -> tuple[HeytingAlgebra, ...]:
    """The Heyting algebras with at most max_size elements, in order of size:
    the up-set algebras of the strict orders on 1..max_size-1 points in
    which a point sees only later ones.  Isomorphic posets give isomorphic
    algebras, so a size above 5 can list one algebra more than once.
    Memoised per max_size like make_chain."""
    found = []
    for n in range(1, max_size):
        # up[w] is w plus any subset of the later points
        choices = [[1 << w | k << (w + 1) for k in range(1 << (n - 1 - w))] for w in range(n)]
        for up in itertools.product(*choices):
            try:
                sets = _upsets(up)
            except AlgebraError:
                continue  # not transitive
            if len(sets) <= max_size:
                found.append(HeytingAlgebra(up, tuple(sets)))
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
    element numbers: /\\ is meet, \\/ is join, -> is rpc.  A number
    outside 0..size-1 raises ValueError naming its atom, and unassigned
    atoms raise ValueError naming them all."""
    check_formula(evaluate, f)
    if not is_ip_formula(f):
        raise ValueError("modal formulas have no Heyting-algebra value")
    elems = h.upsets
    masks = {}
    for name, x in v.items():
        if not 0 <= x < len(elems):
            raise ValueError(f"atom {name!r} has value {x}, out of range 0..{h.top}")
        masks[name] = elems[x]
    try:
        return elems.index(truth(f, h.up, masks, {}, heyting=True))
    except KeyError:
        missing = ", ".join(sorted(atoms_of(f) - v.keys()))
        raise ValueError(f"unassigned atoms: {missing}") from None


def refute(f: Formula, max_chain: int = 3, also_lattices: bool = False) -> Optional[Countermodel]:
    """First countermodel over chains of size 2..max_chain (then, optionally,
    all Heyting algebras with at most 5 elements), trying each algebra's
    valuations in order.  None proves nothing.  A max_chain outside
    2..MAX_CHAIN raises ValueError before any search."""
    check_formula(refute, f)
    if not is_ip_formula(f):
        raise ValueError("refute expects an IP formula")
    if not 2 <= max_chain <= MAX_CHAIN:
        raise ValueError(f"max_chain must be in 2..{MAX_CHAIN}, not {max_chain}")
    names = sorted(atoms_of(f))
    algebras = map(make_chain, range(2, max_chain + 1))
    if also_lattices:
        algebras = itertools.chain(algebras, enumerate_heyting_algebras(5))
    for h in algebras:
        top = h.upsets[-1]
        for masks in itertools.product(h.upsets, repeat=len(names)):
            got = truth(f, h.up, dict(zip(names, masks)), {}, heyting=True)
            if got != top:
                v = {n: h.upsets.index(m) for n, m in zip(names, masks)}
                return Countermodel(h, v, h.upsets.index(got), f)
    return None
