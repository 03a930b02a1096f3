import hypothesis.strategies as st
import pytest

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
