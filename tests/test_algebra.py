import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings

from conftest import ip_formulas
from epist2int.algebra import (
    AlgebraError,
    enumerate_heyting_algebras,
    evaluate,
    make_chain,
    refute,
    rpc_chain,
    upset_algebra,
)
from epist2int.prover_ip import is_provable_ip
from epist2int.syntax import Atom, Conj, Disj, FALSUM, Impl, parse_formula, subformulas

p, q = Atom("p"), Atom("q")


class TestChains:
    def test_two_chain_is_boolean(self):
        h = make_chain(2)
        assert h.bottom == 0 and h.top == 1
        assert h.rpc[1][0] == 0 and h.rpc[0][0] == 1 and h.rpc[0][1] == 1

    def test_three_chain_rpc_entries(self):
        h = make_chain(3)
        assert h.rpc[2][1] == 1
        assert h.rpc[1][2] == 2

    def test_degenerate_chain(self):
        h = make_chain(1)
        assert h.top == h.bottom == 0
        f = parse_formula("p -> q /\\ ~p")
        assert evaluate(f, {"p": 0, "q": 0}, h) == h.top

    def test_rejects_nonpositive(self):
        with pytest.raises(AlgebraError):
            make_chain(0)

    def test_memoised_per_size(self):
        assert make_chain(3) is make_chain(3)
        assert make_chain(4) is not make_chain(3)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_closed_form_matches_residuation(self, n):
        h = make_chain(n)
        for x, y in itertools.product(range(n), repeat=2):
            candidates = [z for z in range(n) if min(z, x) <= y]
            assert h.rpc[x][y] == max(candidates)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_closed_forms(self, n):
        h = make_chain(n)
        top = n - 1
        assert (h.size, h.bottom, h.top, h.kind) == (n, 0, top, "chain")
        for x, y in itertools.product(range(n), repeat=2):
            assert h.leq[x][y] == (x <= y)
            assert h.meet[x][y] == min(x, y)
            assert h.join[x][y] == max(x, y)
            assert h.rpc[x][y] == (top if x <= y else y)


def test_chain_residuation_law_exhaustive():
    for n in range(1, 8):
        h = make_chain(n)
        for w, x, y in itertools.product(range(n), repeat=3):
            assert h.le(w, h.rpc[x][y]) == h.le(h.meet[w][x], y)


class TestEvaluate:
    def test_identity_is_top(self):
        for n in (2, 3, 5):
            h = make_chain(n)
            for v in range(n):
                assert evaluate(parse_formula("p -> p"), {"p": v}, h) == h.top

    def test_falsum_is_bottom(self):
        h = make_chain(4)
        assert evaluate(FALSUM, {}, h) == h.bottom

    def test_clauses(self):
        h = make_chain(4)
        v = {"p": 1, "q": 2}
        assert evaluate(Conj(p, q), v, h) == 1
        assert evaluate(Disj(p, q), v, h) == 2
        assert evaluate(Impl(q, p), v, h) == 1

    def test_unassigned_atom_reported(self):
        with pytest.raises(ValueError, match="'q'"):
            evaluate(Conj(p, q), {"p": 0}, make_chain(2))

    def test_inadmissibility_witness_value(self):
        # the doubly negated cross-witness translation takes the middle
        # value (not top) on the 3-chain with B=C=0 and E=1
        f = parse_formula("((((E -> C) -> C) -> ((B -> C) -> C)) -> E) -> E")
        h = make_chain(3)
        value = evaluate(f, {"B": 0, "C": 0, "E": 1}, h)
        assert value == 1 != h.top

    def test_two_chain_is_classical_truth_table(self):
        h = make_chain(2)
        f = parse_formula("(p -> q) \\/ (q -> p)")
        for vp, vq in itertools.product((0, 1), repeat=2):
            assert evaluate(f, {"p": vp, "q": vq}, h) == 1


class TestRefute:
    def test_peirce_on_three_chain(self):
        cm = refute(parse_formula("((p -> q) -> p) -> p"), max_chain=3)
        assert cm is not None
        assert cm.algebra.size == 3 and cm.algebra.kind == "chain"
        assert cm.valuation == {"p": 1, "q": 0}
        assert cm.value == 1
        assert cm.recheck()

    def test_peirce_valid_on_two_chain(self):
        assert refute(parse_formula("((p -> q) -> p) -> p"), max_chain=2) is None

    def test_weak_linearity_chain_valid_but_lattice_refutable(self):
        f = parse_formula("(p -> q) \\/ (q -> p)")
        assert refute(f, max_chain=6) is None
        assert not is_provable_ip((), f)
        cm = refute(f, max_chain=2, also_lattices=True)
        assert cm is not None and cm.recheck()
        assert cm.algebra.size == 5

    def test_refuted_value_never_top(self):
        cm = refute(parse_formula("p \\/ ~p"), max_chain=3)
        assert cm is not None and cm.value != cm.algebra.top

    def test_requires_ip_and_sane_bound(self):
        with pytest.raises(ValueError):
            refute(parse_formula("[]p", logic="ep"), max_chain=3)
        with pytest.raises(ValueError):
            refute(p, max_chain=1)

    def test_json_shape(self):
        cm = refute(parse_formula("p \\/ ~p"), max_chain=3)
        blob = cm.to_json()
        assert set(blob) == {"carrier_size", "kind", "valuation", "value", "top"}


class TestTableAlgebras:
    def test_diamond_is_heyting(self):
        # the up-sets of two incomparable points: the product of two 2-chains
        h = upset_algebra([0b01, 0b10])
        assert h.meet[1][2] == 0 and h.join[1][2] == 3
        assert h.rpc[1][2] == 2

    def test_rejects_non_reflexive(self):
        with pytest.raises(AlgebraError, match="containing 1"):
            upset_algebra([0b11, 0b00])

    def test_rejects_non_transitive(self):
        # 0 sees 1 and 1 sees 2, but 0 does not see 2
        with pytest.raises(AlgebraError, match="not transitive"):
            upset_algebra([0b011, 0b110, 0b100])

    def test_enumeration_yields_valid_algebras(self):
        seen = 0
        for h in enumerate_heyting_algebras(4):
            seen += 1
            for w, x, y in itertools.product(range(h.size), repeat=3):
                assert h.le(w, h.rpc[x][y]) == h.le(h.meet[w][x], y)
        assert seen >= 4  # at least the chains and the diamond

    def test_enumeration_up_to_five(self):
        # the 2-, 3-, 4- and 5-chains, the diamond, and the diamond with a
        # new bottom or top; the non-distributive M3 and N5 never appear
        algebras = list(enumerate_heyting_algebras(5))
        sizes = [h.size for h in algebras]
        assert sizes == sorted(sizes) == [2, 3, 4, 4, 5, 5, 5]
        tables = sorted(json.dumps([h.leq, h.meet, h.join, h.rpc]) for h in algebras)
        digest = hashlib.sha256("\n".join(tables).encode()).hexdigest()
        # recorded from the brute-force lattice search this construction replaced
        assert digest == "e26de0a96ab796a62956e15fd0df7a9488fcdfbcc8e3c0afe93572a567059899"

    def test_enumeration_memoised_per_size(self):
        # refute(..., also_lattices=True) walks these on every call
        first = list(enumerate_heyting_algebras(5))
        second = list(enumerate_heyting_algebras(5))
        assert len(first) == 7
        assert all(a is b for a, b in zip(first, second, strict=True))
        smaller = enumerate_heyting_algebras(4)
        assert iter(smaller) is smaller  # still an iterator, one per call
        assert [h.size for h in smaller] == [2, 3, 4, 4]


def test_rpc_chain_is_left_nested():
    h = make_chain(3)
    assert rpc_chain(h, 1, 0, 0) == h.rpc[h.rpc[1][0]][0] == 2


@settings(max_examples=200, deadline=None)
@given(ip_formulas(max_leaves=6))
def test_soundness_against_prover(f):
    if is_provable_ip((), f):
        assert refute(f, max_chain=3) is None


@settings(max_examples=150, deadline=None)
@given(ip_formulas(max_leaves=6))
def test_monotone_evaluation_without_implication(f):
    # meet/join only: raising the valuation can only raise the value
    if any(isinstance(g, Impl) for g in subformulas(f)):
        return
    h = make_chain(4)
    names = sorted({g.name for g in subformulas(f) if isinstance(g, Atom)})
    lo = {n: 1 for n in names}
    hi = {n: 2 for n in names}
    assert h.le(evaluate(f, lo, h), evaluate(f, hi, h))
