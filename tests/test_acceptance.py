"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Budgets are wall-clock upper bounds, generous on purpose;
the suite is deterministic apart from timing.
"""

import time

from epist2int import harness
from epist2int.algebra import evaluate, make_chain, refute
from epist2int.kernel import check_kripke, check_trace
from epist2int.prover_ep import prove_ep
from epist2int.prover_ip import prove_ip
from epist2int.syntax import (
    EP,
    IP,
    Atom,
    Box,
    Conj,
    Disj,
    Impl,
    Sequent,
    parse_formula,
    random_formula_sized,
)
from epist2int.translate import (
    TranslationContext,
    double_rel_neg,
    ff_simplify,
    ff_translate,
)

B, C, E = Atom("B"), Atom("C"), Atom("E")
p, q, r = Atom("p"), Atom("q"), Atom("r")


def report(n, name, ok):
    print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_necessitation_inadmissibility():
    t0 = time.perf_counter()
    ctx = TranslationContext((C, E), witness_index=1)
    a = Impl(E, B)

    translated = ff_translate(a, ctx)
    res = prove_ip(Sequent((), translated, IP), want_trace=True)
    ok = res.provable and check_trace(res.trace, Sequent((), translated, IP))

    boxed = ff_translate(Box(a), ctx)
    ok &= not prove_ip(Sequent((), boxed, IP)).provable

    cross = double_rel_neg(ff_translate(a, ctx.with_witness(0)), E)
    value = evaluate(cross, {"B": 0, "C": 0, "E": 1}, make_chain(3))
    ok &= value == 1 and value != make_chain(3).top
    cm = refute(cross, max_chain=3)
    ok &= cm is not None and cm.recheck()

    identity = harness.check_symbolic_chain_identity()
    ok &= identity.passed

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, f"necessitation inadmissibility ({elapsed:.2f}s < 5s)", ok)


def test_criterion_2_soundness_sweep():
    t0 = time.perf_counter()
    r = harness.check_soundness_theorem(sample=500, seed=0)
    elapsed = time.perf_counter() - t0
    ok = r.passed and r.details["sequents"] >= 500 and elapsed < 600
    report(2, f"soundness over {r.details['translated_sequents_checked']} translated "
              f"sequents ({elapsed:.1f}s < 600s)", ok)


def test_criterion_3_worked_examples():
    ctx = TranslationContext((E, C), 0)
    targets = [
        (Conj(p, Disj(q, r)), double_rel_neg(Conj(p, Disj(q, r)), E)),
        (Box(p), double_rel_neg(p, E)),
        (Disj(Impl(p, q), r),
         double_rel_neg(Disj(Impl(p, double_rel_neg(q, E)), r), E)),
    ]
    ok = True
    for source, target in targets:
        raw = ff_translate(source, ctx)
        simplified = ff_simplify(raw)
        ok &= simplified == target
        ok &= all(harness.decide(Sequent((x,), y, IP)).provable
                  for x, y in ((raw, simplified), (simplified, raw)))
    report(3, "worked examples reproduce the final forms", ok)


def test_criterion_4_lemma_suite():
    t0 = time.perf_counter()
    r = harness.check_lemma_suite(sample=100, seed=0)
    elapsed = time.perf_counter() - t0
    ok = r.passed and elapsed < 120
    ok &= all(v["instances"] >= 100 for v in r.details["schemata"].values())
    ok &= r.details["traces_validated"] > 0
    report(4, f"lemma suite, {r.details['traces_validated']} traces validated "
              f"({elapsed:.1f}s < 120s)", ok)


def test_criterion_5_unfaithfulness():
    fernandez = parse_formula("(p -> T) -> T")
    ok = prove_ip(Sequent((), fernandez, IP)).provable
    ok &= not prove_ep(Sequent((), p, EP)).provable

    inoue = Impl(p, Box(p))
    contexts = harness.gamma_contexts(harness.DEFAULT_GAMMA_POOL, 3)
    ok &= len(contexts) == 28
    for ctx in contexts:
        ok &= harness.decide(Sequent((), ff_translate(inoue, ctx), IP)).provable
    s = Sequent((), inoue, EP)
    res = prove_ep(s)
    ok &= not res.provable
    ok &= len(res.countermodel.worlds) == 2
    ok &= check_kripke(res.countermodel, s)
    report(5, "unfaithfulness counter-examples", ok)


def test_criterion_6_godel_desk_scale():
    t0 = time.perf_counter()
    r = harness.check_godel_faithfulness()
    elapsed = time.perf_counter() - t0
    ok = r.details == {"formulas": 11451, "provable": 2850, "max_size": 7,
                       "translation_steps": 37696, "stability_steps": 34353, "failures": []}
    ok &= r.passed and elapsed < 600
    report(6, f"box-translation faithfulness on {r.details['formulas']} formulas "
              f"({elapsed:.1f}s < 600s)", ok)


def test_criterion_7_oracle_consistency():
    ok = True
    for i in range(10000):
        f = random_formula_sized(8, ["p", "q", "r"], IP, seed=900000 + i)
        provable = harness.decide(Sequent((), f, IP)).provable
        cm = refute(f, max_chain=3)
        if cm is not None:
            ok &= cm.recheck()
            ok &= not provable
    witnessed = 0
    for i in range(3000):
        f = random_formula_sized(10, ["p", "q", "r"], EP, seed=770000 + i)
        s = Sequent((), f, EP)
        res = prove_ep(s)
        if not res.provable:
            ok &= res.countermodel is not None and check_kripke(res.countermodel, s)
            witnessed += 1
    ok &= witnessed > 100
    report(7, f"oracle consistency (10^4 IP sweeps, {witnessed} EP witnesses)", ok)


def test_criterion_8_chain_incompleteness_sentinel():
    f = parse_formula("(p -> q) \\/ (q -> p)")
    ok = not prove_ip(Sequent((), f, IP)).provable
    ok &= refute(f, max_chain=8) is None
    cm = refute(f, max_chain=2, also_lattices=True)
    ok &= cm is not None and cm.recheck() and cm.algebra.kind == "table"
    report(8, "chain refutation sound but incomplete", ok)
