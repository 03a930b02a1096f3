from typing import NamedTuple

import hypothesis.strategies as st
import pytest

from epist2int.algebra import evaluate
from epist2int.syntax import FALSUM, Atom, Box, Conj, Disj, Impl

_leaves = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), FALSUM])


def ip_formulas(max_leaves: int = 8):
    return st.recursive(
        _leaves,
        lambda sub: st.one_of(
            st.builds(Conj, sub, sub),
            st.builds(Disj, sub, sub),
            st.builds(Impl, sub, sub),
        ),
        max_leaves=max_leaves,
    )


class Tables(NamedTuple):
    leq: tuple
    meet: tuple
    join: tuple
    rpc: tuple


def tables(h) -> Tables:
    """The order of a finite Heyting algebra from its up-set masks (inclusion),
    and meet, join and rpc as evaluate computes them, as tables over the
    element numbers: rpc[x][y] is x |> y."""
    elems = range(h.size)

    def table(op):
        f = op(Atom("x"), Atom("y"))
        return tuple(tuple(evaluate(f, {"x": x, "y": y}, h) for y in elems) for x in elems)

    return Tables(tuple(tuple(not x & ~y for y in h.upsets) for x in h.upsets),
                  table(Conj), table(Disj), table(Impl))


def ep_formulas(max_leaves: int = 8):
    return st.recursive(
        _leaves,
        lambda sub: st.one_of(
            st.builds(Conj, sub, sub),
            st.builds(Disj, sub, sub),
            st.builds(Impl, sub, sub),
            st.builds(Box, sub),
        ),
        max_leaves=max_leaves,
    )


@pytest.fixture(autouse=True)
def _no_epist2int_env(monkeypatch):
    """Run every test without the caller's EPIST2INT_* defaults."""
    for name in ("EPIST2INT_NODE_CAP", "EPIST2INT_MAX_CHAIN", "EPIST2INT_SEED"):
        monkeypatch.delenv(name, raising=False)
