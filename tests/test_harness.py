import json

from epist2int import harness
from epist2int.prover_ep import prove_ep
from epist2int.syntax import print_sequent


def test_necessitation_counterexample_report():
    r = harness.check_necessitation_counterexample()
    assert r.passed
    assert len(r.details["variants"]) == 2  # atom and falsum variants
    for variant in r.details["variants"]:
        assert variant["chain_value"] == 1
        assert variant["countermodel"]["carrier_size"] == 3
    assert r.details["traces_validated"] >= 4
    assert "witness_C_verdict_informational" in r.details


def test_symbolic_chain_identity_report():
    r = harness.check_symbolic_chain_identity()
    assert r.passed and r.details["instances_checked"] > 50


def test_fernandez_report():
    r = harness.check_unfaithfulness_fernandez()
    assert r.passed
    assert r.details["translated_atom"] == "(p -> ~_|_) -> ~_|_"
    assert r.details["ep_countermodel"]["worlds"]


def test_inoue_report():
    r = harness.check_weak_unfaithfulness_inoue()
    assert r.passed
    assert r.details["contexts_checked"] == sum(len(g) for g in harness.INOUE_GAMMA_POOLS)
    assert sorted(r.details["ep_countermodel"]) == ["relation", "root", "valuation", "worlds"]


def test_lemma_suite_small():
    r = harness.check_lemma_suite(sample=5, seed=11)
    assert r.passed
    assert set(r.details["schemata"]) == {
        "double_neg", "contraposition", "triple_neg", "2_neg_con", "2_neg_dis",
        "double_double", "double_neg_imp", "imp_double_neg", "bang",
        "double_neg_elim", "falsum_consequence", "neg_consequence", "2_neg_intro",
    }
    assert r.details["traces_validated"] > 0


def test_soundness_small():
    r = harness.check_soundness_theorem(sample=10, seed=3)
    assert r.passed
    assert r.details["sequents"] == 10
    assert r.details["contexts"] == 16  # 4 singletons + 6 pairs * 2 witnesses
    assert r.details["translated_sequents_checked"] == 160


def test_godel_small():
    r = harness.check_godel_faithfulness(max_size=5)
    assert r.passed
    assert r.details["formulas"] == 516  # 3 + 27 + 486 over {p, q, falsum}


def test_soundness_spec_instances():
    # pinned instances of the translated-derivability claim
    from epist2int.prover_ip import is_provable_ip
    from epist2int.syntax import Atom, Box, Impl, parse_formula
    from epist2int.translate import TranslationContext, ff_translate

    q, r = Atom("q"), Atom("r")
    p = Atom("p")
    # EP theorem []p -> p under gamma = [q], witness q
    ctx = TranslationContext((q,), 0)
    assert is_provable_ip((), ff_translate(Impl(Box(p), p), ctx))
    # []p |- [][]p under gamma = [q, r], witness q
    ctx = TranslationContext((q, r), 0)
    assert is_provable_ip((ff_translate(Box(p), ctx),), ff_translate(Box(Box(p)), ctx))
    # the assumption-free classical theorem p \/ ~p, gamma = [q]
    ctx = TranslationContext((q,), 0)
    assert is_provable_ip((), ff_translate(parse_formula(r"p \/ ~p"), ctx))


def test_sampler_returns_provable_sequents():
    sequents = harness.sample_provable_ep_sequents(12, max_size=6, seed=9)
    assert len(sequents) == 12
    assert all(prove_ep(s).provable for s in sequents)
    # the bias produces boxed-assumption sequents, not only bare theorems
    assert any(s.assumptions for s in sequents)


def test_reports_deterministic_given_seed():
    a = harness.check_lemma_suite(sample=4, seed=7)
    b = harness.check_lemma_suite(sample=4, seed=7)
    assert a.details == b.details
    x = harness.sample_provable_ep_sequents(6, max_size=6, seed=21)
    y = harness.sample_provable_ep_sequents(6, max_size=6, seed=21)
    assert [print_sequent(s) for s in x] == [print_sequent(s) for s in y]


def test_report_json_lines():
    r = harness.check_unfaithfulness_fernandez()
    blob = json.loads(r.to_json_line())
    assert blob["name"] == "unfaithfulness_fernandez"
    assert blob["status"] == "pass"
    assert "details" in blob and "elapsed_s" in blob


def test_summary_table():
    reports = [harness.check_unfaithfulness_fernandez(),
               harness.check_symbolic_chain_identity()]
    table = harness.summary_table(reports)
    assert "unfaithfulness_fernandez" in table and "PASS" in table
