"""The S4 prover: theorems, non-theorems, and countermodel certificates."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import epist2int
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
    Disj,
    Impl,
    Sequent,
    neg,
    parse_sequent,
    subformulas,
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


def test_saturation_takes_any_depth():
    # p, ~p \/ (~p \/ (... \/ q)) |- q splits 3000 times inside one world
    chain = q
    for _ in range(3000):
        chain = Disj(neg(p), chain)
    res = prove_ep(Sequent((p, chain), q, EP))
    assert res.provable
    assert res.worlds_expanded == 6002


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
    Goedel translation and its two stability sequents, as recorded when
    the search came to take formulas in the order they arise."""
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
    assert steps == 2649
    digest = hashlib.sha256(json.dumps(models).encode()).hexdigest()
    assert digest == "c2479fe4991dc3a6ebe5c5c59295f46cb7c1a1e3ac7711512cb2c1cd3c8d2204"


_ORDER_PROBE = """
import json, random, sys
from epist2int.harness import enumerate_ip_formulas
from epist2int.prover_ep import prove_ep
from epist2int.syntax import EP, Box, Sequent, random_formula_sized
from epist2int.translate import godel_translate
for i in range(int(sys.argv[1])):
    prove_ep(Sequent((), random_formula_sized(9, ["p", "q", "r", "s"], EP, seed=40000 + i), EP))
out = []
for a in random.Random(1).sample(enumerate_ip_formulas(7, ("p", "q")), 300):
    ta = godel_translate(a)
    for s in (Sequent((), ta, EP), Sequent((ta,), Box(ta), EP), Sequent((Box(ta),), ta, EP)):
        res = prove_ep(s)
        out.append([res.worlds_expanded, res.countermodel and res.countermodel.to_json()])
print(json.dumps(out))
"""


def _order_probe(hash_seed: str, warm_up: int) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(epist2int.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _ORDER_PROBE, str(warm_up)], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    return json.loads(out)


def test_search_order_ignores_hash_seed_and_history():
    """Steps and countermodels of 300 criterion-6 translations and their
    stability sequents repeat exactly in a process with another hash seed
    that first proves 3000 unrelated formulas."""
    fresh = _order_probe("1", 0)
    used = _order_probe("2", 3000)
    assert len(fresh) == 900 and any(model for _, model in fresh)
    assert fresh == used


def test_search_prints_nothing():
    """The S4 search never builds a printed form: formulas over atom names
    no other test uses keep `_key` None after every kind of verdict."""
    a, b = Atom("unprinted_a"), Atom("unprinted_b")
    goals = [Impl(a, Box(a)), Impl(Box(Impl(a, b)), Impl(Box(a), Box(b))),
             Box(Impl(Box(a), a))]
    sequents = [Sequent((), g, EP) for g in goals] + [Sequent((Box(a), Box(b)), Box(Conj(a, b)), EP)]
    verdicts = [prove_ep(s).provable for s in sequents]
    assert verdicts == [False, True, True, True]
    for s in sequents:
        for f in (*s.assumptions, s.goal):
            assert all(g._key is None for g in subformulas(f))
