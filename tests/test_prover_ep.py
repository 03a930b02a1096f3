"""The S4 prover: theorems, non-theorems, and countermodel certificates."""

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import ep_formulas
from epist2int.harness import enumerate_ip_formulas
from epist2int.prover_ep import (
    KripkeModel,
    check_kripke,
    equiv_ep,
    is_provable_ep,
    prove_ep,
)
from epist2int.syntax import (
    EP,
    Atom,
    Box,
    Conj,
    Sequent,
    parse_sequent,
)
from epist2int.translate import godel_translate

p, q = Atom("p"), Atom("q")

THEOREMS = [
    "|- []p -> p",
    "|- []p -> [][]p",
    "|- ~~p -> p",
    "|- p \\/ ~p",
    "|- [](p -> q) -> []p -> []q",
    "|- ([]p /\\ []q) -> [](p /\\ q)",
    "|- [](p /\\ q) -> ([]p /\\ []q)",
    "[]p |- [][]p",
    "[]p, [](p -> q) |- []q",
    "|- []((p -> q) \\/ (q -> p)) \\/ p",
]

NON_THEOREMS = [
    "|- p -> []p",
    "|- p",
    "p |- []p",
    "|- [](p \\/ q) -> []p \\/ []q",
    "|- ([]p -> []q) -> [](p -> q)",
]


@pytest.mark.parametrize("s", THEOREMS)
def test_theorems(s):
    assert prove_ep(parse_sequent(s, EP)).provable


@pytest.mark.parametrize("s", NON_THEOREMS)
def test_non_theorems_carry_checked_countermodels(s):
    seq = parse_sequent(s, EP)
    res = prove_ep(seq)
    assert not res.provable
    assert res.countermodel is not None
    assert check_kripke(res.countermodel, seq)


def test_two_world_countermodel_for_boxing_an_atom():
    res = prove_ep(parse_sequent("|- p -> []p", EP))
    model = res.countermodel
    assert len(model.worlds) == 2
    assert model.valuation["p"] == frozenset({model.root})


def test_local_consequence_reading():
    # assumptions are open hypotheses: an unboxed one blocks necessitation
    assert is_provable_ep((Box(p),), Box(Box(p)))
    assert not is_provable_ep((p,), Box(p))
    assert is_provable_ep((Box(p),), p)


def test_necessitation_on_theorems():
    # produced by the prover itself: random theorems stay theorems boxed
    from epist2int.syntax import random_formula_sized

    found = 0
    for i in range(400):
        f = random_formula_sized(8, ["p", "q"], EP, seed=3000 + i)
        if is_provable_ep((), f):
            assert is_provable_ep((), Box(f))
            found += 1
    assert found >= 20


def test_equiv_ep():
    assert equiv_ep(Box(p), Box(Box(p)))
    assert equiv_ep(Box(Conj(p, q)), Conj(Box(p), Box(q)))
    assert not equiv_ep(p, Box(p))


class TestCheckKripke:
    def refuting_model(self):
        return KripkeModel(
            worlds=(0, 1),
            relation=frozenset({(0, 0), (0, 1), (1, 1)}),
            valuation={"p": frozenset({0})},
            root=0,
        )

    def test_accepts_real_refutation(self):
        s = parse_sequent("|- p -> []p", EP)
        assert check_kripke(self.refuting_model(), s)

    def test_rejects_non_refutation(self):
        # the same model does not refute a theorem
        assert not check_kripke(self.refuting_model(), parse_sequent("|- []p -> p", EP))

    def test_non_transitive_relation_errors(self):
        model = KripkeModel(
            worlds=(0, 1, 2),
            relation=frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}),
            valuation={"p": frozenset({0})},
            root=0,
        )
        with pytest.raises(ValueError, match="transitive"):
            check_kripke(model, parse_sequent("|- p", EP))

    def test_non_reflexive_relation_errors(self):
        model = KripkeModel((0,), frozenset(), {"p": frozenset()}, 0)
        with pytest.raises(ValueError, match="reflexive"):
            check_kripke(model, parse_sequent("|- p", EP))

    def test_unknown_world_errors(self):
        model = KripkeModel((0,), frozenset({(0, 0), (0, 7)}), {}, 0)
        with pytest.raises(ValueError, match="unknown world"):
            check_kripke(model, parse_sequent("|- p", EP))

    def test_one_world_model_cannot_refute_reflexivity_axiom(self):
        s = parse_sequent("|- []p -> p", EP)
        for labeling in (frozenset(), frozenset({0})):
            model = KripkeModel((0,), frozenset({(0, 0)}), {"p": labeling}, 0)
            assert not check_kripke(model, s)


def test_countermodel_json_schema():
    res = prove_ep(parse_sequent("|- p -> []p", EP))
    blob = res.countermodel.to_json()
    assert set(blob) == {"worlds", "relation", "valuation", "root"}
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in blob["relation"])


@settings(max_examples=300, deadline=None)
@given(ep_formulas())
def test_every_failure_is_witnessed(f):
    s = Sequent((), f, EP)
    res = prove_ep(s)
    if not res.provable:
        assert check_kripke(res.countermodel, s)


@settings(max_examples=150, deadline=None)
@given(ep_formulas(max_leaves=5))
def test_stability_shape(f):
    # boxing a boxed formula changes nothing up to interprovability
    assert equiv_ep(Box(f), Box(Box(f)))


def test_godel_search_order_is_pinned():
    """The tableau's search order, pinned on 200 criterion-6 formulas: the
    verdicts, the summed worlds_expanded and the countermodels of each
    Goedel translation and its two stability sequents, as first recorded."""
    pool = enumerate_ip_formulas(7, ("p", "q"))
    counts = Counter()
    steps = 0
    models = []
    for a in random.Random(0).sample(pool, 200):
        ta = godel_translate(a)
        for kind, s in (("translation", Sequent((), ta, EP)),
                        ("stability", Sequent((ta,), Box(ta), EP)),
                        ("stability", Sequent((Box(ta),), ta, EP))):
            res = prove_ep(s)
            counts[kind, res.verdict] += 1
            steps += res.worlds_expanded
            if res.countermodel is not None:
                models.append(res.countermodel.to_json())
    assert counts == {("translation", "Provable"): 44, ("translation", "NotProvable"): 156,
                      ("stability", "Provable"): 400}
    assert steps == 2657
    digest = hashlib.sha256(json.dumps(models).encode()).hexdigest()
    assert digest == "8240c253226620f4b00dd5f2b5049b3b419e96b2a1a674b968e2258b4a9f9edb"
