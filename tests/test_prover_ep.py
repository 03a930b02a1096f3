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
from epist2int import prover_ep
from epist2int.algebra import upset_algebra
from epist2int.harness import decide, enumerate_ip_formulas, sample_provable_ep_sequents
from epist2int.kernel import AlgebraError, KripkeModel, check_kripke, check_preorder, truth
from epist2int.prover_ep import prove_ep
from epist2int.prover_ip import SearchLimitError
from epist2int.syntax import (
    EP,
    FALSUM,
    IP,
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    Impl,
    Sequent,
    neg,
    parse_sequent,
    random_formula_sized,
    subformulas,
)
from epist2int.translate import godel_translate

p, q, r = Atom("p"), Atom("q"), Atom("r")


def interprovable(a, b) -> bool:
    return all(prove_ep(Sequent((x,), y, EP)).provable for x, y in ((a, b), (b, a)))

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
    assert model.valuation["p"] == 1 << model.root


def test_local_consequence_reading():
    # assumptions are open hypotheses: an unboxed one blocks necessitation
    assert prove_ep(Sequent((Box(p),), Box(Box(p)), EP)).provable
    assert not prove_ep(Sequent((p,), Box(p), EP)).provable
    assert prove_ep(Sequent((Box(p),), p, EP)).provable


def test_necessitation_on_theorems():
    # produced by the prover itself: random theorems stay theorems boxed
    from epist2int.syntax import random_formula_sized

    found = 0
    for i in range(400):
        f = random_formula_sized(8, ["p", "q"], EP, seed=3000 + i)
        if prove_ep(Sequent((), f, EP)).provable:
            assert prove_ep(Sequent((), Box(f), EP)).provable
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


def test_boxed_demand_takes_any_depth():
    """A |- []A, A a 3000-level /\\ and \\/ chain over []p and []q, closes
    in the root's one step on the demand F[]A, within the default
    recursion limit."""
    a = Box(p)
    for i in range(3000):
        a = Conj(a, Box(p)) if i % 2 else Disj(Box(q), a)
    res = prove_ep(Sequent((a,), Box(a), EP))
    assert (res.provable, res.worlds_expanded) == (True, 1)


def test_boxed_demand_on_a_shared_body():
    """S |- []S, S_k = S_(k-1) /\\ S_(k-1) for k = 200 and S_0 = []p, closes
    in one step: S has 201 distinct nodes but 2^200 occurrences, and its
    stable flag was set once per node, as each was interned."""
    s = Box(p)
    for _ in range(200):
        s = Conj(s, s)
    res = prove_ep(Sequent((s,), Box(s), EP))
    assert (res.provable, res.worlds_expanded) == (True, 1)


def _random_preorder(rng, n: int) -> list[int]:
    while True:
        up = [rng.randrange(1 << n) | 1 << w for w in range(n)]
        try:
            check_preorder(up)
            return up
        except AlgebraError:
            pass


def _box_combination(rng, leaves: list, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    return rng.choice((Conj, Disj))(_box_combination(rng, leaves, depth - 1),
                                    _box_combination(rng, leaves, depth - 1))


def test_stable_formulas_hold_where_their_boxes_do():
    """The S4 fact behind the closure on a stable body: a formula built by
    /\\ and \\/ from boxes and _|_ holds exactly where its box does, over
    random preorders on up to 4 worlds and random valuations.  The draws
    combine random boxes, _|_ and two unstable leaves, p and p -> q, so
    some are stable and some are not."""
    rng = random.Random(0)
    said = Counter()
    for _ in range(3000):
        boxes = [Box(random_formula_sized(4, ["p", "q"], EP, seed=rng.randrange(10**6)))
                 for _ in range(3)]
        a = _box_combination(rng, boxes + [FALSUM, p, Impl(p, q)], 3)
        n = rng.randint(1, 4)
        up = _random_preorder(rng, n)
        valuation = {"p": rng.randrange(1 << n), "q": rng.randrange(1 << n)}
        memo: dict = {}
        stable = a._stable
        said[stable] += 1
        if stable:
            assert truth(Box(a), up, valuation, memo) == truth(a, up, valuation, memo), (a, up)
    assert said[True] > 500 and said[False] > 500


STABLE_PQR = Conj(Box(p), Disj(Box(q), Box(r)))


@pytest.mark.parametrize("a, stable", [
    (Box(p), True),
    (FALSUM, True),
    (Disj(Box(p), FALSUM), True),
    (STABLE_PQR, True),
    (p, False),
    (Impl(Box(p), Box(p)), False),
    (Disj(p, Box(q)), False),
    (Disj(Box(p), Impl(q, Box(p))), False),
], ids=["box", "falsum", "box-or-falsum", "nested", "atom", "implication",
        "atom-part", "implication-part"])
def test_stable(a, stable):
    """Stable: built by /\\ and \\/ from boxes and _|_.  An atom or an
    implication is not, nor is a formula with one for a part, though
    []([]p -> []p) is a theorem."""
    assert a._stable is stable


def test_godel_translation_implies_its_box_in_one_step():
    """Each G(A) |- []G(A) over the 200 criterion-6 formulas of the pinned
    search order is Provable in one step, the root's: G(A) is stable,
    signed true before the demand F[]G(A) is met, and closes it there."""
    pool = enumerate_ip_formulas(7, ("p", "q"))
    for a in random.Random(0).sample(pool, 200):
        ta = godel_translate(a)
        res = prove_ep(Sequent((ta,), Box(ta), EP))
        assert (res.provable, res.worlds_expanded) == (True, 1), a


@pytest.mark.parametrize("text", [
    r"[]p \/ _|_ |- []([]p \/ _|_)",
    r"[]p /\ ([]q \/ []r) |- []([]p /\ ([]q \/ []r))",
])
def test_stable_body_proves_its_box(text):
    res = prove_ep(parse_sequent(text, EP))
    assert (res.provable, res.worlds_expanded) == (True, 1)


@pytest.mark.parametrize("text", [
    r"p \/ []q |- [](p \/ []q)",
    r"[]p \/ (q -> []p) |- []([]p \/ (q -> []p))",
])
def test_unstable_body_is_refuted(text):
    s = parse_sequent(text, EP)
    res = prove_ep(s)
    assert not res.provable
    assert check_kripke(res.countermodel, s)


@pytest.mark.parametrize("text, steps", [
    (r"[]q |- []([]p \/ []q)", 3),
    (r"[]q, []p |- []([]p /\ []q)", 7),
    (r"[]p, [](r \/ _|_) |- [][]p", 5),
    (r"[](r -> p), []r |- []((r -> p) \/ []r)", 6),
], ids=["one-part", "parts", "body-signed-later", "unstable-body"])
def test_demand_met_by_its_parts_closes_in_a_successor(text, steps):
    """A demand whose body is stable but not yet signed true where the
    queue meets it, or whose body follows from true boxes by /\\ and
    \\/, is closed by the successor it enters: Provable, with a
    certificate harness.decide accepts."""
    res = decide(parse_sequent(text, EP))
    assert (res.verdict, res.worlds_expanded) == ("Provable", steps)


@pytest.mark.parametrize("text", [
    r"[]p |- [][]q",
    r"|- []q \/ [][]q",
    r"[]p |- []([]p /\ []q)",
    r"|- []([]p \/ []q)",
], ids=["box-not-true", "box-signed-false", "conj-one-part", "disj-no-part"])
def test_stable_body_not_signed_true_is_refuted(text):
    """A stable body closes its demand only when it is signed true: not
    when it is absent from the state, signed false, or only a part of it
    is true."""
    res = decide(parse_sequent(text, EP))
    assert res.verdict == "NotProvable"


def test_equiv_ep():
    assert interprovable(Box(p), Box(Box(p)))
    assert interprovable(Box(Conj(p, q)), Conj(Box(p), Box(q)))
    assert not interprovable(p, Box(p))


class TestCheckKripke:
    def refuting_model(self):
        # 0 sees 1, p holds only at 0
        return KripkeModel(up=(0b11, 0b10), valuation={"p": 0b01}, root=0)

    def test_accepts_real_refutation(self):
        s = parse_sequent("|- p -> []p", EP)
        assert check_kripke(self.refuting_model(), s)

    def test_rejects_non_refutation(self):
        # the same model does not refute a theorem
        assert not check_kripke(self.refuting_model(), parse_sequent("|- []p -> p", EP))

    def test_valuation_outside_frame_errors(self):
        model = KripkeModel((0b1,), {"p": 0b10}, 0)
        with pytest.raises(ValueError, match="unknown worlds"):
            check_kripke(model, parse_sequent("|- p", EP))

    def test_non_int_masks_error(self):
        # the valuation format before up-set masks, a frame of non-masks,
        # and a bool, which would read as the set {0}
        for model in (KripkeModel((1,), {"p": frozenset({0})}, 0), KripkeModel(("x",), {}, 0),
                      KripkeModel((1,), {"p": True}, 0)):
            with pytest.raises(ValueError, match="not an int bitmask"):
                check_kripke(model, parse_sequent("|- p", EP))

    @pytest.mark.parametrize("up, valuation", [((0b1,), None), (None, {})],
                             ids=["no-valuation", "no-frame"])
    def test_malformed_model_errors(self, up, valuation):
        with pytest.raises(ValueError, match="a model is a tuple of up-set masks"):
            check_kripke(KripkeModel(up, valuation, 0), parse_sequent("|- p", EP))

    def test_root_outside_frame_errors(self):
        with pytest.raises(ValueError, match="root world missing"):
            check_kripke(KripkeModel((0b1,), {}, 1), parse_sequent("|- p", EP))

    @pytest.mark.parametrize("root", [0.0, "0", None], ids=["float", "str", "none"])
    def test_root_not_an_int_errors(self, root):
        # 0.0 == 0, so it is in range(1); a JSON document may well hold it
        with pytest.raises(ValueError, match="root world missing"):
            check_kripke(KripkeModel((0b1,), {}, root), parse_sequent("|- p", EP))

    def test_bool_root_errors(self):
        # True == 1 would root the model at world 1, where p holds nowhere
        model = KripkeModel((0b01, 0b10), {"p": 0b01}, True)
        with pytest.raises(ValueError, match="^root world missing: True is not an int in 0..1$"):
            check_kripke(model, parse_sequent("|- p", EP))

    def test_one_world_model_cannot_refute_reflexivity_axiom(self):
        s = parse_sequent("|- []p -> p", EP)
        for labeling in (0b0, 0b1):
            model = KripkeModel((0b1,), {"p": labeling}, 0)
            assert not check_kripke(model, s)


@pytest.mark.parametrize("up, error", [
    ([0b11, 0b00], "containing 1: the order is not reflexive"),
    ([0b011, 0b110, 0b100], "not transitive"),  # 0 sees 1 and 1 sees 2, not 0 sees 2
    ([1 << 7 | 0b1], "unknown world"),  # 0 sees a world 7
    ([0b11, "x"], "up\\[1\\] is 'x', not an int bitmask"),
    ([True, 0b10], "up\\[0\\] is True, not an int bitmask"),  # else the discrete frame
], ids=["not-reflexive", "not-transitive", "unknown-world", "not-int", "bool"])
def test_malformed_preorder_rejected_by_both_checkers(up, error):
    """The Heyting algebras and the S4 checker read one preorder format
    and reject a malformed one with one check."""
    with pytest.raises(ValueError, match=error):
        upset_algebra(up)
    with pytest.raises(ValueError, match=error):
        check_kripke(KripkeModel(tuple(up), {}, 0), parse_sequent("|- p", EP))


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
    assert interprovable(Box(f), Box(Box(f)))


def test_godel_search_order_is_pinned():
    """The tableau's search order, pinned on 200 criterion-6 formulas: the
    verdicts and the countermodels of each Goedel translation and its two
    stability sequents, as recorded when the search came to take formulas
    in the order they arise, and their summed worlds_expanded, as counted
    since a branch closes on a demand whose body is stable and signed
    true."""
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
    assert steps == 1235
    digest = hashlib.sha256(json.dumps(models).encode()).hexdigest()
    assert digest == "c2479fe4991dc3a6ebe5c5c59295f46cb7c1a1e3ac7711512cb2c1cd3c8d2204"


def outcome_digest(sequents) -> str:
    outcomes = []
    for s in sequents:
        res = prove_ep(s)
        outcomes.append([res.verdict, res.worlds_expanded,
                         res.countermodel and res.countermodel.to_json()])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def verdicts_and_steps(sequents) -> tuple[str, int]:
    """A digest of each sequent's verdict and countermodel, and the steps
    of all of them."""
    outcomes, steps = [], 0
    for s in sequents:
        res = prove_ep(s)
        outcomes.append([res.verdict, res.countermodel and res.countermodel.to_json()])
        steps += res.worlds_expanded
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest(), steps


@pytest.mark.parametrize("sequents, digest, steps", [
    (lambda: [Sequent((), random_formula_sized(10, ["p", "q", "r"], EP, seed=s), EP)
              for s in range(600)],
     "a92a782542340cb9aff49d032b01700811cee5cff16b723d496b5cee17d60168", 682),
    (lambda: sample_provable_ep_sequents(150, 8, 0),
     "2cb30552d009f13b46d3c61c9bceea525ed0494a7f433c1761e113a1e6820a9c", 792),
], ids=["random-formulas", "sampler-sequents"])
def test_search_order_is_pinned_beyond_godel(sequents, digest, steps):
    """The verdict and countermodel of each of 600 seeded random EP
    formulas (542 NotProvable) and of the soundness sweep's first 150
    sampled sequents (146 with one or two boxed assumptions), as recorded
    before the tableau came to keep a world state as two dicts; and the
    steps of all of them, as counted since a demand closes at once only
    on its own body, signed true and stable."""
    got_digest, got_steps = verdicts_and_steps(sequents())
    assert got_digest == digest
    assert got_steps == steps


def _as_one_implication(s):
    lhs = s.assumptions[0]
    for a in s.assumptions[1:]:
        lhs = Conj(lhs, a)
    return Sequent((), Impl(lhs, s.goal), EP)


def test_assumptions_seed_the_root_as_the_implication_would():
    """A1, ..., An |- B and |- (A1 /\\ ... /\\ An) -> B reach the same
    verdict, steps and countermodel, though the first builds no implication."""
    pool = enumerate_ip_formulas(7, ("p", "q"))
    sequents = [s for s in sample_provable_ep_sequents(150, 8, 0) if s.assumptions]
    for a in random.Random(0).sample(pool, 200):
        ta = godel_translate(a)
        sequents += [Sequent((ta,), Box(ta), EP), Sequent((Box(ta),), ta, EP)]
    assert sum(len(s.assumptions) > 1 for s in sequents) > 0
    for s in sequents:
        assert outcome_digest([s]) == outcome_digest([_as_one_implication(s)]), s


def test_one_assumption_interns_no_node():
    nodes = (Atom, Falsum, Conj, Disj, Impl, Box)
    a, b = Atom("interned_a"), Atom("interned_b")
    sequents = [Sequent((Box(Impl(a, b)),), Impl(Box(a), Box(b)), EP),
                Sequent((Disj(a, b),), Box(Conj(b, a)), EP)]
    sizes = [len(cls._table) for cls in nodes]
    assert [prove_ep(s).provable for s in sequents] == [True, False]
    assert [len(cls._table) for cls in nodes] == sizes


@pytest.mark.parametrize("text", [
    "|- ([]p -> q) \\/ ([]q -> p) \\/ (p /\\ q)",
    "|- [](p \\/ q) -> []p \\/ []q",
    "[]p, [](p -> q) |- []q",
    "|- []((p -> q) \\/ (q -> p)) \\/ p",
    "|- ([]p -> []q) -> [](p -> q)",
    "|- ([]p -> p) /\\ ([](p -> q) -> []p -> []q)",
])
def test_node_cap_counts_steps(text):
    """A cap below the uncapped step count stops the search; any other
    cap leaves the result as it is."""
    s = parse_sequent(text, EP)
    free = prove_ep(s)
    assert free.worlds_expanded >= 3
    for cap in range(1, free.worlds_expanded + 2):
        if cap < free.worlds_expanded:
            with pytest.raises(SearchLimitError, match=f"node cap {cap} exceeded"):
                prove_ep(s, node_cap=cap)
        else:
            assert prove_ep(s, node_cap=cap) == free


def test_rejects_ip_tagged_input():
    # IP refutes p \/ ~p and S4 proves it, so an IP tag is not answered in S4
    with pytest.raises(ValueError, match="prove_ep takes an EP sequent, not one tagged 'ip'"):
        prove_ep(parse_sequent("|- p \\/ ~p", IP))


def test_modal_depth_800():
    """satisfy recurses once per modal level: |- []...[]p, 800 boxes
    deep, is refuted by a chain of 801 worlds."""
    f = p
    for _ in range(800):
        f = Box(f)
    s = Sequent((), f, EP)
    res = prove_ep(s)
    assert not res.provable and len(res.countermodel.worlds) == 801
    assert check_kripke(res.countermodel, s)


def test_failed_attempt_leaves_no_world(monkeypatch):
    """One of the pinned sequents enters world 2, fails there and enters
    world 2 again: the failed attempt leaves no world behind, and the
    countermodel is the one recorded when the worlds were renumbered in
    sorted order after the search."""
    entered = []
    satisfy = prover_ep._Tableau.satisfy

    def spy(self, *args):
        entered.append(len(self.worlds))
        return satisfy(self, *args)

    monkeypatch.setattr(prover_ep._Tableau, "satisfy", spy)
    s = parse_sequent(r"|- []([]p -> []([]q -> []p) /\ []q)", EP)
    res = prove_ep(s)
    assert entered == [0, 1, 2, 2]
    assert res.countermodel.to_json() == {
        "worlds": [0, 1, 2],
        "relation": [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]],
        "valuation": {"p": [1, 2], "q": []},
        "root": 0,
    }
    assert check_kripke(res.countermodel, s)


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
