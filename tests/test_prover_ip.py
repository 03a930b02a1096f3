"""The IP prover against known theorems, non-theorems and its own traces."""

import dataclasses

import pytest
from hypothesis import given, settings

from conftest import ip_formulas
from epist2int.algebra import refute
from epist2int.prover_ip import (
    SearchLimitError,
    TraceNode,
    check_trace,
    equiv_ip,
    is_provable_ip,
    prove_ip,
    validate_trace,
)
from epist2int.syntax import (
    FALSUM,
    Atom,
    Box,
    Conj,
    Disj,
    Impl,
    Sequent,
    neg,
    parse_formula,
    parse_sequent,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


PROVABLE = [
    "p |- (p -> q) -> q",
    "_|_ |- p",
    "|- p -> p",
    "|- ~~(p \\/ ~p)",
    "|- (p -> q) -> (q -> r) -> p -> r",
    "|- p /\\ q -> q /\\ p",
    "|- p -> p \\/ q",
    "p \\/ q, p -> r, q -> r |- r",
    "|- ~(p /\\ ~p)",
    "|- (p -> q -> r) -> (p /\\ q -> r)",
    "|- ((p \\/ q) -> r) -> (p -> r) /\\ (q -> r)",
    "|- ~~~p -> ~p",
]

NOT_PROVABLE = [
    "|- ((p -> q) -> q) -> p",
    "|- p \\/ ~p",
    "|- ~~p -> p",
    "|- ((p -> q) -> p) -> p",
    "|- (p -> q) \\/ (q -> p)",
    "|- ~(p /\\ q) -> ~p \\/ ~q",
    "q |- p",
    "|- _|_",
]


@pytest.mark.parametrize("s", PROVABLE)
def test_provable(s):
    assert prove_ip(parse_sequent(s)).provable


@pytest.mark.parametrize("s", NOT_PROVABLE)
def test_not_provable(s):
    assert not prove_ip(parse_sequent(s)).provable


def test_reverse_double_negation_refuted_by_algebra():
    # the NotProvable verdict for ((p->q)->q)->p is independently
    # witnessed on the 3-chain with p in the middle and q at the bottom
    # (refute itself already finds a smaller, classical countermodel)
    from epist2int.algebra import evaluate, make_chain

    f = parse_formula("((p -> q) -> q) -> p")
    h = make_chain(3)
    assert evaluate(f, {"p": 1, "q": 0}, h) == 1 != h.top
    cm = refute(f, max_chain=3)
    assert cm is not None and cm.recheck()
    assert not prove_ip(Sequent((), f)).provable


def test_equiv_ip():
    e = Atom("E")
    n = lambda x: Impl(x, e)
    assert equiv_ip(n(n(n(p))), n(p))
    assert equiv_ip(p, p)
    assert not equiv_ip(p, q)


def test_rejects_modal_input():
    with pytest.raises(ValueError, match="Box not allowed"):
        prove_ip(Sequent((), Box(p), "ep"))


def test_duplicate_assumptions_collapse():
    a = prove_ip(Sequent((p, p, p), q))
    b = prove_ip(Sequent((p,), q))
    assert not a.provable and not b.provable
    assert a.nodes_expanded == b.nodes_expanded


def test_deterministic_stats():
    s = parse_sequent("|- ~~(p \\/ ~p)")
    runs = [prove_ip(s, want_trace=True) for _ in range(3)]
    assert len({res.nodes_expanded for res in runs}) == 1
    assert all(check_trace(res.trace, s) for res in runs)


def test_node_cap():
    with pytest.raises(SearchLimitError):
        prove_ip(parse_sequent("|- ~~(p \\/ ~p)"), node_cap=2)


def test_termination_on_large_formula():
    # size > 40, mixing every connective; must return (not hang)
    f = p
    for i in range(12):
        g = [q, r, neg(p), Disj(q, r)][i % 4]
        f = Impl(Disj(Conj(f, g), neg(f)), g)
    res = prove_ip(Sequent((), f))
    assert res.verdict in ("Provable", "NotProvable")


def test_termination_sweep_size_40():
    from epist2int.syntax import random_formula_sized

    for i in range(30):
        f = random_formula_sized(40, ["p", "q", "r"], "ip", seed=60000 + i, max_depth=6)
        prove_ip(Sequent((), f))


class TestTraces:
    def test_trace_accepted(self):
        s = parse_sequent("p |- (p -> q) -> q")
        res = prove_ip(s, want_trace=True)
        assert res.provable and check_trace(res.trace, s)

    def test_trace_rejects_other_sequent(self):
        s = parse_sequent("p |- (p -> q) -> q")
        res = prove_ip(s, want_trace=True)
        assert not check_trace(res.trace, parse_sequent("p |- (p -> r) -> r"))

    def test_forged_rule_rejected(self):
        s = parse_sequent("p |- (p -> q) -> q")
        res = prove_ip(s, want_trace=True)
        forged = dataclasses.replace(res.trace, rule="L-impl-impl")
        err = validate_trace(forged, s)
        assert err is not None and "L-impl-impl" in err

    def test_forged_premise_rejected(self):
        s = parse_sequent("|- p -> p")
        res = prove_ip(s, want_trace=True)
        bad_leaf = TraceNode("axiom", frozenset({q}), q, q, ())
        forged = dataclasses.replace(res.trace, premises=(bad_leaf,))
        assert not check_trace(forged, s)

    def test_empty_trace_rejected(self):
        assert not check_trace(None, parse_sequent("|- p -> p"))

    def test_trace_premises_missing(self):
        s = parse_sequent("|- p -> p")
        res = prove_ip(s, want_trace=True)
        forged = dataclasses.replace(res.trace, premises=())
        assert not check_trace(forged, s)

    @pytest.mark.parametrize("s", PROVABLE)
    def test_all_provable_traces_check(self, s):
        seq = parse_sequent(s)
        res = prove_ip(seq, want_trace=True)
        assert validate_trace(res.trace, seq) is None

    def test_no_trace_when_not_requested(self):
        res = prove_ip(parse_sequent("|- p -> p"))
        assert res.provable and res.trace is None


@settings(max_examples=200, deadline=None)
@given(ip_formulas())
def test_provable_formulas_never_refuted(f):
    if is_provable_ip((), f):
        assert refute(f, max_chain=3) is None


@settings(max_examples=100, deadline=None)
@given(ip_formulas(max_leaves=5))
def test_weakening(f):
    # adding assumptions never destroys provability
    if is_provable_ip((), f):
        assert is_provable_ip((q,), f)
        assert is_provable_ip((Impl(q, r), FALSUM), f)
