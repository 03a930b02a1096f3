import hashlib
import json

import pytest

from epist2int import harness
from epist2int.kernel import KripkeModel
from epist2int.prover_ep import EpProofResult, prove_ep
from epist2int.syntax import EP, IP, VERUM, Atom, Impl, Sequent, print_sequent


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
    assert r.details["contexts_checked"] == 28
    assert sorted(r.details["ep_countermodel"]) == ["relation", "root", "valuation", "worlds"]


def test_inoue_contexts_include_the_former_pools():
    # the 13 contexts of the seven hand-written pools Inoue's check swept before
    q, r = Atom("q"), Atom("r")
    qr = Impl(q, r)
    former = {((q,), q), ((r,), r), ((VERUM,), VERUM),
              ((q, r), q), ((q, r), r), ((q, qr), q), ((q, qr), qr),
              ((q, r, VERUM), q), ((q, r, VERUM), r), ((q, r, VERUM), VERUM),
              ((q, r, qr), q), ((q, r, qr), r), ((q, r, qr), qr)}
    swept = {(ctx.gamma, ctx.witness)
             for ctx in harness.gamma_contexts(harness.DEFAULT_GAMMA_POOL, 3)}
    assert len(former) == 13 and former <= swept and len(swept) == 28


def test_lemma_suite_small():
    r = harness.check_lemma_suite(sample=5, seed=11)
    assert r.passed
    assert set(r.details["schemata"]) == {
        "double_neg", "contraposition", "triple_neg", "2_neg_con", "2_neg_dis",
        "double_double", "double_neg_imp", "imp_double_neg", "bang",
        "double_neg_elim", "falsum_consequence", "neg_consequence", "2_neg_intro",
    }
    assert r.details["traces_validated"] > 0


# The first sequent each schema decides at sample=1, seed=0, and the number
# of sequents it decides: one instance of the schema, and for 2_neg_intro
# first the filter of its premises.
LEMMA_STREAM_HEADS = {
    "double_neg": (1, "_|_ |- ~~_|_"),
    "contraposition": (2, r"(_|_ -> r) \/ p -> _|_ /\ _|_ |- "
                          r"(_|_ /\ _|_ -> q -> r) -> (_|_ -> r) \/ p -> q -> r"),
    "triple_neg": (2, "q -> p |- ((q -> p) -> p) -> p"),
    "2_neg_con": (2, r"~~(p /\ q) |- ~~p /\ ~~q"),
    "2_neg_dis": (2, r"(q \/ r -> p \/ r -> r) -> p \/ r -> r |- "
                     r"(((q -> p \/ r -> r) -> p \/ r -> r) \/ "
                     r"((r -> p \/ r -> r) -> p \/ r -> r) -> p \/ r -> r) -> p \/ r -> r"),
    "double_double": (1, "(q -> p) -> p |- (((q -> q) -> q) -> p) -> p"),
    "double_neg_imp": (1, r"((_|_ \/ (p -> r) -> q) -> r) -> r |- "
                          r"((_|_ \/ (p -> r) -> r) -> r) -> (q -> r) -> r"),
    "imp_double_neg": (2, "((r -> r) -> r) -> (q -> r) -> r |- "
                          "((((r -> r) -> r) -> (q -> r) -> r) -> r) -> r"),
    "bang": (2, "p -> (r -> q -> r) -> q -> r |- "
                "((p -> q -> r) -> q -> r) -> (r -> q -> r) -> q -> r"),
    "double_neg_elim": (2, "(((p -> r) -> r) -> r) -> r |- (p -> r) -> r"),
    "falsum_consequence": (2, r"(_|_ -> q \/ r) -> q \/ r |- q \/ r"),
    "neg_consequence": (2, "((_|_ -> r) -> r) -> (_|_ -> r) -> r |- ((_|_ -> r) -> r) -> r"),
    "2_neg_intro": (2, r"p /\ p, p |- p"),
}
# the one 2_neg_intro instance, after its premise filter
LEMMA_STREAM_LAST = r"p /\ p, ~~p |- ~~p"


def test_lemma_suite_sequent_stream(monkeypatch):
    real = harness.prove_ip
    stream = []

    def spy(s, *args, **kwargs):
        stream.append(print_sequent(s))
        return real(s, *args, **kwargs)

    monkeypatch.setattr(harness, "prove_ip", spy)
    r = harness.check_lemma_suite(sample=1, seed=0)
    assert r.passed and list(r.details["schemata"]) == list(LEMMA_STREAM_HEADS)
    pos = 0
    for name, (count, head) in LEMMA_STREAM_HEADS.items():
        assert stream[pos] == head, name
        pos += count
    assert pos == len(stream) and stream[-1] == LEMMA_STREAM_LAST


def test_lemma_premise_filter_checks_traces(monkeypatch):
    real = harness.validate_trace
    premise = r"p /\ p, p |- p"
    monkeypatch.setattr(harness, "validate_trace",
                        lambda trace, s: "forged" if print_sequent(s) == premise else real(trace, s))
    r = harness.check_lemma_suite(sample=1, seed=0)
    assert r.details["failures"] == [{"check": "2_neg_intro premise", "sequent": premise,
                                      "error": "certificate rejected"}]
    assert r.details["schemata"]["2_neg_intro"] == {"instances": 0, "failures": 1}


# checkers that reject every certificate: validate_trace names a fault
REJECT = {"validate_trace": lambda *args: "forged", "check_kripke": lambda *args: False}


@pytest.mark.parametrize("checker", list(REJECT))
def test_godel_checks_certificates(monkeypatch, checker):
    # the formulas up to size 3 hold p -> p, whose IP proof has a trace,
    # and p, whose box translation has an S4 countermodel
    small = harness.enumerate_ip_formulas(3)
    assert {Impl(Atom("p"), Atom("p")), Atom("p")} <= set(small)
    monkeypatch.setattr(harness, "enumerate_ip_formulas", lambda max_size: small)
    monkeypatch.setattr(harness, checker, REJECT[checker])
    r = harness.check_godel_faithfulness()
    assert not r.passed
    assert any(f.get("error") == "certificate rejected" for f in r.details["failures"])


def test_rejected_certificate_raises_and_is_recorded(monkeypatch):
    monkeypatch.setattr(harness, "validate_trace", REJECT["validate_trace"])
    s = Sequent((Atom("p"),), Atom("p"), IP)
    with pytest.raises(harness.CertificateError, match="^certificate rejected: forged$"):
        harness.decide(s)
    # a wrong verdict whose certificate is rejected is recorded as the rejection
    failures = []
    assert harness._decide(s, failures, "x", expect=False) is None
    assert failures == [{"check": "x", "sequent": "p |- p", "error": "certificate rejected"}]


def test_malformed_countermodel_is_a_rejected_certificate(monkeypatch):
    # a frame that is not reflexive: check_kripke cannot read it
    model = KripkeModel((0b10, 0b10), {"p": 0}, 0)
    monkeypatch.setattr(harness, "prove_ep", lambda s, node_cap=None: EpProofResult(False, model, 0))
    s = Sequent((), Atom("p"), EP)
    with pytest.raises(harness.CertificateError,
                       match=r"^certificate rejected: up\[0\] is not a set containing 0"):
        harness.decide(s)
    failures = []
    assert harness._decide(s, failures, "x", expect=False) is None
    assert failures == [{"check": "x", "sequent": "|- p", "error": "certificate rejected"}]


def test_decide_records_a_wrong_verdict():
    failures = []
    assert harness._decide(Sequent((), Atom("p"), IP), failures, "x") is None
    assert failures == [{"check": "x", "sequent": "|- p", "verdict": "NotProvable",
                         "expected": True}]


def test_fernandez_checks_countermodel(monkeypatch):
    monkeypatch.setattr(harness, "check_kripke", lambda *args: False)
    r = harness.check_unfaithfulness_fernandez()
    assert not r.passed and "ep_countermodel" not in r.details


def test_soundness_small():
    r = harness.check_soundness_theorem(sample=10, seed=3)
    assert r.passed
    assert r.details["sequents"] == 10
    assert r.details["contexts"] == 16  # 4 singletons + 6 pairs * 2 witnesses
    assert r.details["translated_sequents_checked"] == 160


def test_soundness_names_its_costliest_sequents():
    r = harness.check_soundness_theorem(sample=10, seed=3)
    costliest = r.details["costliest"]
    assert len(costliest) == 3
    assert all(set(c) == {"sequent", "ctx", "nodes_expanded"} for c in costliest)
    nodes = [c["nodes_expanded"] for c in costliest]
    assert nodes == sorted(nodes, reverse=True)


def test_criterion_2_sequents_prove_under_node_cap():
    from epist2int.prover_ip import prove_ip

    checked = 0
    for _, _, s in harness.translated_sequents(sample=100, seed=0):
        assert prove_ip(s, node_cap=20_000).provable
        checked += 1
    assert checked == 1600


def test_godel_small():
    # the full check's details are pinned by acceptance criterion 6
    assert len(harness.enumerate_ip_formulas(5)) == 516  # 3 + 27 + 486 over {p, q, falsum}


def test_soundness_spec_instances():
    # pinned instances of the translated-derivability claim
    from epist2int.syntax import Atom, Box, Impl, parse_formula
    from epist2int.translate import TranslationContext, ff_translate

    q, r = Atom("q"), Atom("r")
    p = Atom("p")
    # EP theorem []p -> p under gamma = [q], witness q
    ctx = TranslationContext((q,), 0)
    assert harness.decide(Sequent((), ff_translate(Impl(Box(p), p), ctx))).provable
    # []p |- [][]p under gamma = [q, r], witness q
    ctx = TranslationContext((q, r), 0)
    assert harness.decide(Sequent((ff_translate(Box(p), ctx),),
                                  ff_translate(Box(Box(p)), ctx))).provable
    # the assumption-free classical theorem p \/ ~p, gamma = [q]
    ctx = TranslationContext((q,), 0)
    assert harness.decide(Sequent((), ff_translate(parse_formula(r"p \/ ~p"), ctx))).provable


def test_sampler_returns_provable_sequents():
    sequents = harness.sample_provable_ep_sequents(12, max_size=6, seed=9)
    assert len(sequents) == 12
    assert all(prove_ep(s).provable for s in sequents)
    # the bias produces boxed-assumption sequents, not only bare theorems
    assert any(s.assumptions for s in sequents)


def test_sampler_stream_is_pinned():
    # the soundness sweep's sequents; the digest must not move
    text = "\n".join(map(print_sequent, harness.sample_provable_ep_sequents(500, 8, 0)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "f175111f25142ffaee4e0adf1d49bd0741a41bd6f3d042e2003c7ed710fca9ba"


def test_reports_deterministic_given_seed():
    a = harness.check_lemma_suite(sample=4, seed=7)
    b = harness.check_lemma_suite(sample=4, seed=7)
    assert a.details == b.details
    x = harness.sample_provable_ep_sequents(6, max_size=6, seed=21)
    y = harness.sample_provable_ep_sequents(6, max_size=6, seed=21)
    assert [print_sequent(s) for s in x] == [print_sequent(s) for s in y]


def test_report_json_lines():
    r = harness.check_unfaithfulness_fernandez()
    blob = json.loads(json.dumps(r.to_json()))
    assert blob["name"] == "unfaithfulness_fernandez"
    assert blob["status"] == "pass"
    assert "details" in blob and "elapsed_s" in blob


def test_summary_table():
    reports = [harness.check_unfaithfulness_fernandez(),
               harness.check_symbolic_chain_identity()]
    table = harness.summary_table(reports)
    assert "unfaithfulness_fernandez" in table and "PASS" in table


def test_run_checks_rejects_a_seed_no_check_reads():
    with pytest.raises(ValueError, match="^fernandez takes no --seed$"):
        harness.run_checks(["fernandez"], seed=3)


def test_run_checks_seeds_the_seeded_checks():
    assert [r.seed for r in harness.run_checks(["lemmas"], sample=1)] == [0]
    assert [r.seed for r in harness.run_checks(["lemmas"], seed=3, sample=1)] == [3]
    assert [r.seed for r in harness.run_checks(["thm2", "fernandez"])] == [None] * 3
