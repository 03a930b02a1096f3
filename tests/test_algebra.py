import hashlib
import itertools
import json
import time

import pytest
from hypothesis import given, settings

from conftest import ip_formulas, tables
from epist2int.algebra import (
    MAX_CHAIN,
    AlgebraError,
    Countermodel,
    enumerate_heyting_algebras,
    evaluate,
    make_chain,
    refute,
    upset_algebra,
)
from epist2int.harness import decide, enumerate_ip_formulas
from epist2int.syntax import Atom, Conj, Disj, FALSUM, Impl, Sequent, parse_formula, subformulas

p, q = Atom("p"), Atom("q")


class TestChains:
    def test_two_chain_is_boolean(self):
        h = make_chain(2)
        rpc = tables(h).rpc
        assert h.bottom == 0 and h.top == 1
        assert rpc[1][0] == 0 and rpc[0][0] == 1 and rpc[0][1] == 1

    def test_three_chain_rpc_entries(self):
        rpc = tables(make_chain(3)).rpc
        assert rpc[2][1] == 1
        assert rpc[1][2] == 2

    def test_degenerate_chain(self):
        h = make_chain(1)
        assert h.top == h.bottom == 0
        f = parse_formula("p -> q /\\ ~p")
        assert evaluate(f, {"p": 0, "q": 0}, h) == h.top

    def test_rejects_nonpositive(self):
        with pytest.raises(AlgebraError):
            make_chain(0)

    def test_bounded(self):
        assert make_chain(MAX_CHAIN).size == MAX_CHAIN
        with pytest.raises(AlgebraError, match=f"1 to {MAX_CHAIN} elements, not {MAX_CHAIN + 1}"):
            make_chain(MAX_CHAIN + 1)

    def test_memoised_per_size(self):
        assert make_chain(3) is make_chain(3)
        assert make_chain(4) is not make_chain(3)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_closed_form_matches_residuation(self, n):
        rpc = tables(make_chain(n)).rpc
        for x, y in itertools.product(range(n), repeat=2):
            candidates = [z for z in range(n) if min(z, x) <= y]
            assert rpc[x][y] == max(candidates)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_closed_forms(self, n):
        h = make_chain(n)
        t = tables(h)
        top = n - 1
        assert (h.size, h.bottom, h.top, h.kind) == (n, 0, top, "chain")
        for x, y in itertools.product(range(n), repeat=2):
            assert t.leq[x][y] == (x <= y)
            assert t.meet[x][y] == min(x, y)
            assert t.join[x][y] == max(x, y)
            assert t.rpc[x][y] == (top if x <= y else y)


def test_chain_residuation_law_exhaustive():
    for n in range(1, 8):
        leq, meet, _, rpc = tables(make_chain(n))
        for w, x, y in itertools.product(range(n), repeat=3):
            assert leq[w][rpc[x][y]] == leq[meet[w][x]][y]


LAW_CHAINS = [make_chain(n) for n in range(1, 11)]
LAW_ENUMERATED = list(enumerate_heyting_algebras(5))


# an id names the algebra's source, make_chain or the enumeration, and its
# poset: both sources give the 2- to 5-chains, with the same posets
@pytest.mark.parametrize("h", LAW_CHAINS + LAW_ENUMERATED,
                         ids=[f"chain-{h.up}" for h in LAW_CHAINS]
                         + [f"table-{h.up}" for h in LAW_ENUMERATED])
def test_heyting_laws(h):
    # the order, the lattice bounds and residuation, over every element
    leq, meet, join, rpc = tables(h)
    rng = range(h.size)
    for x in rng:
        assert leq[x][x], "order not reflexive"
        assert leq[h.bottom][x] and leq[x][h.top], "bottom/top not extremal"
        for y in rng:
            assert not (leq[x][y] and leq[y][x] and x != y), "order not antisymmetric"
            for z in rng:
                assert not (leq[x][y] and leq[y][z] and not leq[x][z]), "order not transitive"
    for x, y in itertools.product(rng, repeat=2):
        m, j = meet[x][y], join[x][y]
        assert leq[m][x] and leq[m][y], "meet not a lower bound"
        assert leq[x][j] and leq[y][j], "join not an upper bound"
        for z in rng:
            assert not (leq[z][x] and leq[z][y] and not leq[z][m]), "meet not greatest lower bound"
            assert not (leq[x][z] and leq[y][z] and not leq[j][z]), "join not least upper bound"
    # residuation: w <= x|>y  iff  w /\ x <= y
    for x, y, w in itertools.product(rng, repeat=3):
        assert leq[w][rpc[x][y]] == leq[meet[w][x]][y], f"residuation fails at ({x},{y},{w})"


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
        with pytest.raises(ValueError, match="^unassigned atoms: q$"):
            evaluate(Conj(p, q), {"p": 0}, make_chain(2))

    def test_every_unassigned_atom_reported(self):
        with pytest.raises(ValueError, match="^unassigned atoms: q, r$"):
            evaluate(Conj(p, Conj(q, Atom("r"))), {"p": 0}, make_chain(2))

    def test_modal_formula_has_no_value(self):
        with pytest.raises(ValueError, match="^modal formulas have no Heyting-algebra value$"):
            evaluate(parse_formula("p -> []p", "ep"), {"p": 0}, make_chain(2))

    @pytest.mark.parametrize("f, value", [(p, 7), (p, 3), (Conj(p, p), -1), (Impl(q, p), -3)])
    def test_value_outside_carrier_reported(self, f, value):
        # neither passed through (7) nor wrapped round to another element (-1 is top)
        with pytest.raises(ValueError, match="'p'"):
            evaluate(f, {"p": value, "q": 0}, make_chain(3))

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
    def test_value_not_an_element_number_reported(self, value):
        # True would pass the range check and be read as element 1
        with pytest.raises(ValueError, match="^atom 'p' has value .*, not an element number$"):
            evaluate(Conj(p, q), {"q": 0, "p": value}, make_chain(3))

    def test_recheck_rejects_a_bool_valuation(self):
        cm = Countermodel(make_chain(3), {"p": True}, 1, p)
        with pytest.raises(ValueError, match="'p'"):
            cm.recheck()
        assert Countermodel(make_chain(3), {"p": 1}, 1, p).recheck()

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
        assert not decide(Sequent((), f)).provable
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

    @pytest.mark.parametrize("text", ["p", "(p -> q) \\/ (q -> p)"], ids=["refutable", "chain-valid"])
    def test_max_chain_above_bound_raises_before_any_search(self, text):
        """A chain-valid formula would otherwise be tried on every chain
        up to MAX_CHAIN before make_chain refused the next size; a
        refutable one would be answered from the 2-chain.  Both raise."""
        start, bound = time.perf_counter(), MAX_CHAIN + 1
        with pytest.raises(ValueError, match=f"^max_chain must be in 2..{MAX_CHAIN}, not {bound}$"):
            refute(parse_formula(text), max_chain=bound)
        assert time.perf_counter() - start < 1

    def test_outputs_pinned(self):
        # every formula of up to 7 nodes over p, q and falsum, recorded
        # while the algebras still carried meet, join and rpc tables
        lines = []
        for f in enumerate_ip_formulas(7):
            cm = refute(f, max_chain=3)
            lines.append(json.dumps(None if cm is None else cm.to_json()))
        assert len(lines) == 11451 and lines.count("null") == 2852
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "6608bf0c99063ca67e3e70885fc85c5700ade883afd73ddd6c5099ea9943537e"

    def test_lattice_countermodel_pinned(self):
        cm = refute(parse_formula("(p -> q) \\/ (q -> p)"), max_chain=2, also_lattices=True)
        assert cm.to_json() == {"carrier_size": 5, "kind": "table",
                                "valuation": {"p": 1, "q": 2}, "value": 3, "top": 4}

    def test_json_shape(self):
        cm = refute(parse_formula("p \\/ ~p"), max_chain=3)
        blob = cm.to_json()
        assert set(blob) == {"carrier_size", "kind", "valuation", "value", "top"}


class TestTableAlgebras:
    def test_diamond_is_heyting(self):
        # the up-sets of two incomparable points: the product of two 2-chains
        t = tables(upset_algebra([0b01, 0b10]))
        assert t.meet[1][2] == 0 and t.join[1][2] == 3
        assert t.rpc[1][2] == 2

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
            leq, meet, _, rpc = tables(h)
            for w, x, y in itertools.product(range(h.size), repeat=3):
                assert leq[w][rpc[x][y]] == leq[meet[w][x]][y]
        assert seen >= 4  # at least the chains and the diamond

    def test_enumeration_up_to_five(self):
        # the 2-, 3-, 4- and 5-chains, the diamond, and the diamond with a
        # new bottom or top; the non-distributive M3 and N5 never appear
        algebras = list(enumerate_heyting_algebras(5))
        sizes = [h.size for h in algebras]
        assert sizes == sorted(sizes) == [2, 3, 4, 4, 5, 5, 5]
        dumps = sorted(json.dumps(list(tables(h))) for h in algebras)
        digest = hashlib.sha256("\n".join(dumps).encode()).hexdigest()
        # recorded from the brute-force lattice search this construction replaced
        assert digest == "e26de0a96ab796a62956e15fd0df7a9488fcdfbcc8e3c0afe93572a567059899"

    def test_kind_read_off_the_order(self):
        assert make_chain(4).kind == "chain"
        assert upset_algebra([0b01, 0b10]).kind == "table"  # the diamond
        kinds = []
        for h in enumerate_heyting_algebras(5):
            linear = all(a & b in (a, b) for a, b in itertools.combinations(h.upsets, 2))
            assert h.kind == ("chain" if linear else "table")
            kinds.append(h.kind)
        assert kinds.count("chain") == 4  # the 2-, 3-, 4- and 5-chains

    def test_enumeration_memoised_per_size(self):
        # refute(..., also_lattices=True) walks these on every call
        first = list(enumerate_heyting_algebras(5))
        second = list(enumerate_heyting_algebras(5))
        assert len(first) == 7
        assert all(a is b for a, b in zip(first, second, strict=True))
        smaller = enumerate_heyting_algebras(4)
        assert smaller is enumerate_heyting_algebras(4)  # one tuple per size
        assert [h.size for h in smaller] == [2, 3, 4, 4]


@settings(max_examples=200, deadline=None)
@given(ip_formulas(max_leaves=6))
def test_soundness_against_prover(f):
    if decide(Sequent((), f)).provable:
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
    assert tables(h).leq[evaluate(f, lo, h)][evaluate(f, hi, h)]
