"""No public entry point leaves a reference cycle behind.

Objects in a cycle outlive their call until the cyclic collector finds
them, and every collection it runs walks the young objects of the whole
process: a recursive closure that refers to itself, built once per call,
makes set-up that draws thousands of formulas pay for collections it
would otherwise not run.  With the collector off, what `gc.collect()`
then finds is exactly what the calls stranded.
"""

import gc

from epist2int import harness
from epist2int.algebra import refute
from epist2int.kernel import check_kripke, check_trace
from epist2int.prover_ep import prove_ep
from epist2int.prover_ip import prove_ip
from epist2int.syntax import EP, IP, parse_formula, parse_sequent, random_formula, random_formula_sized
from epist2int.translate import TranslationContext, ff_simplify, ff_translate, godel_translate


def exercise_every_entry_point():
    ip_true = parse_sequent(r"p /\ q |- q \/ r")
    ip_false = parse_sequent(r"|- p \/ ~p")
    ep_true = parse_sequent(r"[]p, []q |- [](p /\ q)", EP)
    ep_false = parse_sequent("p, q -> r |- []r", EP)
    ctx = TranslationContext((parse_formula("E"), parse_formula("C")), 0)
    for i in range(5):
        f = parse_formula(r"(p -> q) \/ ~(q /\ r)")
        res = prove_ip(ip_true, want_trace=True)
        assert res.provable and check_trace(res.trace, ip_true)
        assert not prove_ip(ip_false).provable
        assert prove_ep(ep_true).provable
        res = prove_ep(ep_false)
        assert not res.provable and check_kripke(res.countermodel, ep_false)
        raw = ff_translate(parse_formula(r"[](p \/ ~[]q)", EP), ctx)
        assert ff_simplify(raw) is not None
        assert godel_translate(f) is not None
        cm = refute(parse_formula(r"p \/ ~p"))
        assert cm is not None and cm.recheck()
        for logic in (IP, EP):
            for seed in range(10):
                random_formula(3, ["p", "q"], logic, seed + 10 * i)
                random_formula_sized(4, ["p", "q", "r"], logic, seed + 10 * i)
        assert harness.decide(ip_true).provable and not harness.decide(ep_false).provable
        assert harness.sample_provable_ep_sequents(3, 6, i)


def test_entry_points_strand_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        exercise_every_entry_point()
        stranded = gc.collect()
    finally:
        gc.enable()
    assert stranded == 0
