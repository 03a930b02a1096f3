"""Both translations, their defining clauses, and the simplifier."""

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import ep_formulas, ip_formulas
from epist2int import translate
from epist2int.algebra import evaluate, make_chain, refute
from epist2int.harness import (
    DEFAULT_GAMMA_POOL,
    decide,
    enumerate_ip_formulas,
    gamma_contexts,
    translated_sequents,
)
from epist2int.prover_ep import prove_ep
from epist2int.syntax import (
    EP,
    FALSUM,
    IP,
    Atom,
    Box,
    Conj,
    Disj,
    FormulaTable,
    Impl,
    Sequent,
    atoms_of,
    formula_key,
    is_ip_formula,
    neg,
    parse_formula,
    print_formula,
    print_sequent,
    random_formula_sized,
)
from epist2int.translate import (
    TranslationContext,
    double_rel_neg,
    ff_simplify,
    ff_translate,
    godel_translate,
    rel_neg,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
E, C = Atom("E"), Atom("C")
CTX = TranslationContext((E, C), 0)  # gamma = [E, C], witness E


# each entry point that takes a formula, by the name its error gives
_ENTRY_POINTS = {
    "godel_translate": godel_translate,
    "TranslationContext": lambda x: TranslationContext((x,)),
    "is_ip_formula": is_ip_formula,
    "formula_key": formula_key,
    "print_formula": print_formula,
    "ff_translate": lambda x: ff_translate(x, CTX),
    "atoms_of": atoms_of,
    "ff_simplify": ff_simplify,
    "evaluate": lambda x: evaluate(x, {}, make_chain(3)),
    "refute": refute,
}


@pytest.mark.parametrize("bad", ["p", None, 3])
@pytest.mark.parametrize("name", _ENTRY_POINTS)
def test_entry_points_reject_non_formulas(name, bad):
    with pytest.raises(TypeError) as exc:
        _ENTRY_POINTS[name](bad)
    assert str(exc.value) == f"{name} argument is not a formula: {bad!r}"


@pytest.mark.parametrize("bad", ["E", None, 3])
def test_print_formula_rejects_non_formula_relneg(bad):
    with pytest.raises(TypeError) as exc:
        print_formula(Impl(p, E), relneg=[E, bad])
    assert str(exc.value) == f"print_formula argument is not a formula: {bad!r}"


@pytest.mark.parametrize("bad", ["x", None, (E, C)])
def test_ff_translate_rejects_a_non_context(bad):
    with pytest.raises(TypeError) as exc:
        ff_translate(p, bad)
    assert str(exc.value) == f"ff_translate context is not a TranslationContext: {bad!r}"


@pytest.mark.parametrize("bad", [[p], "pq"], ids=["list", "str"])
def test_translation_context_rejects_a_non_tuple_gamma(bad):
    # a list would make the frozen context unhashable and unequal to the tuple one
    with pytest.raises(TypeError) as exc:
        TranslationContext(bad, 0)
    assert str(exc.value) == f"TranslationContext gamma is not a tuple: {bad!r}"


def test_translation_context_checks_each_member_before_hashing_it():
    with pytest.raises(TypeError) as exc:
        TranslationContext(([1],), 0)
    assert str(exc.value) == "TranslationContext argument is not a formula: [1]"


@pytest.mark.parametrize("bad", [p, "0", True, 0.0, None])
def test_translation_context_rejects_a_non_int_witness_index(bad):
    with pytest.raises(TypeError) as exc:
        TranslationContext((p, q), bad)
    assert str(exc.value) == f"TranslationContext witness_index is not an int: {bad!r}"


class TestRelNeg:
    def test_definition(self):
        assert rel_neg(p, E) == Impl(p, E)
        assert rel_neg(p, FALSUM) == neg(p)
        assert rel_neg(rel_neg(p, E), E) == parse_formula("(p -> E) -> E")
        assert double_rel_neg(p, E) == rel_neg(rel_neg(p, E), E)


class TestGodel:
    def test_atom_boxed(self):
        assert godel_translate(p) == Box(p)

    def test_falsum_fixed(self):
        assert godel_translate(FALSUM) == FALSUM

    def test_negation(self):
        assert godel_translate(neg(p)) == Box(Impl(Box(p), FALSUM))

    def test_conj_disj_pass_through(self):
        assert godel_translate(Conj(p, q)) == Conj(Box(p), Box(q))
        assert godel_translate(Disj(p, q)) == Disj(Box(p), Box(q))

    def test_implication_boxed(self):
        assert print_formula(godel_translate(Impl(p, q))) == "[]([]p -> []q)"

    def test_rejects_modal_input(self):
        with pytest.raises(ValueError):
            godel_translate(Box(p))
        with pytest.raises(ValueError):
            godel_translate(Conj(p, Impl(q, Box(p))))

    def test_deep_input(self):
        f = p
        for _ in range(5000):
            f = neg(f)
        assert print_formula(godel_translate(f)) == "[]~" * 5000 + "[]p"

    def test_shared_nodes_are_translated_once(self):
        # x(k) = x(k-1) -> x(k-1): 21 distinct nodes, 2^21 occurrences,
        # which a walk of the tree would visit one by one
        f, want = p, Box(p)
        for _ in range(20):
            f, want = Impl(f, f), Box(Impl(want, want))
        start = time.perf_counter()
        assert godel_translate(f) is want
        assert time.perf_counter() - start < 0.1

    def test_enumerated_translations_pinned(self):
        """The translations of the 11451 formulas of enumerate_ip_formulas(7),
        as recorded when godel_translate walked every occurrence."""
        text = "\n".join(print_formula(godel_translate(f)) for f in enumerate_ip_formulas(7))
        assert hashlib.sha256(text.encode()).hexdigest() == "84b2cb2a84e6a38816c4e2e742bed2221d3d67b2d66350bd86054ccda77c5c55"

    def test_every_translation_is_flagged_stable(self):
        """G(A) is built by /\\ and \\/ from boxes and _|_, so interning
        flags each of the 11451 translations of enumerate_ip_formulas(7)
        stable, the flag prover_ep closes G(A) |- []G(A) on."""
        assert all(godel_translate(f)._stable for f in enumerate_ip_formulas(7))

    def test_process_wide_table_changes_no_translation(self):
        """In a fresh interpreter, translating the formulas of
        enumerate_ip_formulas(7) last to first gives the pinned texts, and
        an input with a box is still refused once its box-free parts have
        been translated."""
        code = """if True:
            import hashlib
            from epist2int.harness import enumerate_ip_formulas
            from epist2int.syntax import parse_formula, print_formula
            from epist2int.translate import godel_translate
            formulas = enumerate_ip_formulas(7)
            texts = [print_formula(godel_translate(f)) for f in reversed(formulas)]
            print(hashlib.sha256("\\n".join(reversed(texts)).encode()).hexdigest())
            godel_translate(parse_formula("p -> q"))
            for text in ("[](p -> q)", "p /\\\\ [](p -> q)"):
                try:
                    godel_translate(parse_formula(text, "ep"))
                except ValueError as exc:
                    print(exc)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(translate.__file__).resolve().parent.parent))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=120).stdout.splitlines()
        assert out == ["84b2cb2a84e6a38816c4e2e742bed2221d3d67b2d66350bd86054ccda77c5c55",
                       "input already contains Box", "input already contains Box"]

    def test_threads_share_the_table(self):
        """Threads translating formulas no earlier call translated, each in
        its own order, with frequent switches, all get the translation a
        plain recursion builds."""
        formulas = enumerate_ip_formulas(7, ("race_a", "race_b"))
        results = [None] * 4

        def work(k):
            order = formulas[k % 2::2] + formulas[1 - k % 2::2]
            results[k] = {f: godel_translate(f) for f in (order if k < 2 else order[::-1])}

        def plain(f):
            if type(f) is Atom:
                return Box(f)
            if f is FALSUM:
                return f
            g = type(f)(plain(f.left), plain(f.right))
            return Box(g) if type(f) is Impl else g

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got is not None and all(got[f] is plain(f) for f in formulas)

    @settings(max_examples=100, deadline=None)
    @given(ip_formulas(max_leaves=5))
    def test_stability(self, f):
        t = godel_translate(f)
        assert all(prove_ep(Sequent((x,), y, EP)).provable for x, y in ((t, Box(t)), (Box(t), t)))

    def test_soundness_on_random_theorems(self):
        found = 0
        for i in range(300):
            f = random_formula_sized(8, ["p", "q"], IP, seed=5000 + i)
            if decide(Sequent((), f, IP)).provable:
                assert prove_ep(Sequent((), godel_translate(f), EP)).provable
                found += 1
        assert found >= 10


class TestContext:
    def test_witness_selection(self):
        assert CTX.witness == E
        assert CTX.with_witness(1).witness == C

    @pytest.mark.parametrize("gamma,wi", [
        ((), 0),
        ((E, E), 0),
        ((E,), 1),
        ((E,), -1),
        ((Box(p),), 0),
    ])
    def test_invalid_contexts(self, gamma, wi):
        with pytest.raises(ValueError):
            TranslationContext(gamma, wi)


class TestFfClauses:
    def test_atomic(self):
        assert ff_translate(p, CTX) == double_rel_neg(p, E)
        assert ff_translate(FALSUM, CTX) == double_rel_neg(FALSUM, E)

    def test_conj_componentwise(self):
        assert ff_translate(Conj(p, q), CTX) == Conj(
            ff_translate(p, CTX), ff_translate(q, CTX)
        )

    def test_impl_componentwise(self):
        assert ff_translate(Impl(p, q), CTX) == Impl(
            ff_translate(p, CTX), ff_translate(q, CTX)
        )

    def test_disj_doubly_negated(self):
        assert ff_translate(Disj(p, q), CTX) == double_rel_neg(
            Disj(ff_translate(p, CTX), ff_translate(q, CTX)), E
        )

    def test_box_conjunction_over_gamma_in_stored_order(self):
        got = ff_translate(Box(p), CTX)
        want = double_rel_neg(
            Conj(double_rel_neg(p, E), double_rel_neg(p, C)), E
        )
        assert got == want

    def test_box_singleton_gamma_has_no_unit_conjunct(self):
        ctx = TranslationContext((E,), 0)
        assert ff_translate(Box(p), ctx) == double_rel_neg(double_rel_neg(p, E), E)

    def test_box_three_element_gamma_right_nested(self):
        ctx = TranslationContext((E, C, q), 0)
        inner = Conj(
            double_rel_neg(p, E),
            Conj(double_rel_neg(p, C), double_rel_neg(p, q)),
        )
        assert ff_translate(Box(p), ctx) == double_rel_neg(inner, E)

    def test_falsum_translation_equivalent_to_witness(self):
        bot = ff_translate(FALSUM, CTX)
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((bot, E), (E, bot)))

    def test_deep_input(self):
        # a loop over an explicit stack, so depth costs no Python stack
        f, want = p, double_rel_neg(p, E)
        for k in range(5000):
            if k % 2:
                f, want = Box(f), double_rel_neg(want, E)
            else:
                f, want = neg(f), Impl(want, double_rel_neg(FALSUM, E))
        assert ff_translate(f, TranslationContext((E,), 0)) == want

    def test_deep_box_under_three_witnesses_is_translated_as_a_dag(self):
        # the text of []^40 p holds 3^40 copies of p, which a walk of the
        # tree would visit one by one; the (subformula, witness) pairs are 41 * 3
        gamma = (q, r, Impl(q, r))
        level = [double_rel_neg(p, e) for e in gamma]
        for _ in range(40):
            body = Conj(level[0], Conj(level[1], level[2]))
            level = [double_rel_neg(body, e) for e in gamma]
        got = ff_translate(parse_formula("[]" * 40 + "p", EP), TranslationContext(gamma, 0))
        assert got is level[0]
        table = FormulaTable()
        assert table.add(got) + 1 == len(table.entries) == 326

    def test_soundness_sweep_translations_pinned(self):
        """The translations of criterion 2's 8000 sequents, as recorded
        when ff_translate recursed once per level."""
        text = "\n".join(print_sequent(t) for _, _, t in translated_sequents(500, 0))
        assert hashlib.sha256(text.encode()).hexdigest() == "912e1411c43fcadca599bef4651d552e1b3f03ab33e44f912bb46c3887f5e2f9"

    @settings(max_examples=150, deadline=None)
    @given(ep_formulas(max_leaves=5))
    def test_output_is_always_ip(self, f):
        assert is_ip_formula(ff_translate(f, CTX))


WORKED_EXAMPLES = [
    # (source, expected simplified form)
    (Conj(p, Disj(q, r)), double_rel_neg(Conj(p, Disj(q, r)), E)),
    (Box(p), double_rel_neg(p, E)),
    (Disj(Impl(p, q), r), double_rel_neg(Disj(Impl(p, double_rel_neg(q, E)), r), E)),
]


class TestSimplifier:
    @pytest.mark.parametrize("source,target", WORKED_EXAMPLES)
    def test_worked_examples_syntactic(self, source, target):
        raw = ff_translate(source, CTX)
        assert ff_simplify(raw) == target

    @pytest.mark.parametrize("source,target", WORKED_EXAMPLES)
    def test_worked_examples_certified(self, source, target):
        raw = ff_translate(source, CTX)
        simple = ff_simplify(raw)
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((raw, simple), (simple, raw)))
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((raw, target), (target, raw)))

    def test_fixpoint(self):
        raw = ff_translate(Box(Conj(p, Disj(q, r))), CTX)
        once = ff_simplify(raw)
        assert ff_simplify(once) == once

    @settings(max_examples=120, deadline=None)
    @given(ip_formulas(max_leaves=6))
    def test_equivalence_on_arbitrary_input(self, f):
        simple = ff_simplify(f)
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((f, simple), (simple, f)))

    @settings(max_examples=60, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_equivalence_on_translations(self, f):
        raw = ff_translate(f, CTX)
        simple = ff_simplify(raw)
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((raw, simple), (simple, raw)))

    def test_normal_forms_pinned(self):
        """The normal forms of 1500 seeded inputs, as recorded when the
        simplifier restarted from the root after every rewrite: FF
        translations of random EP formulas under the 16 soundness-sweep
        contexts, and random IP formulas."""
        contexts = gamma_contexts(DEFAULT_GAMMA_POOL, 2)
        inputs = [ff_translate(random_formula_sized(3 + i % 5, ["p", "q"], EP, 70000 + i),
                               contexts[i % len(contexts)]) for i in range(1000)]
        inputs += [random_formula_sized(3 + i % 12, ["p", "q", "r"], IP, 90000 + i)
                   for i in range(500)]
        outputs = [ff_simplify(f) for f in inputs]
        assert sum(out != f for f, out in zip(inputs, outputs)) == 411
        text = "\n".join(print_formula(f) for f in outputs)
        assert hashlib.sha256(text.encode()).hexdigest() == "2d4377dd4347d281ad1aa9be2ecd907a1a0a4e52609c0bd499a03a16fb33734c"

    def test_conj_drops_a_double_negation_of_a_double_negated_conjunct(self):
        # ((p->q)->q) double-negated again under r is implied by the
        # conjunct (p->r)->r, and _conj_pass drops it
        f = parse_formula(r"((p -> r) -> r) /\ ((((p -> q) -> q) -> r) -> r)")
        out = ff_simplify(f)
        assert out == parse_formula("(p -> r) -> r")
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((f, out), (out, f)))

    def test_each_distinct_node_normalized_once(self, monkeypatch):
        # x(k+1) = x(k) -> x(k): 2^17 - 1 occurrences, 17 distinct nodes
        f = p
        for _ in range(16):
            f = Impl(f, f)
        tried = []
        step = translate._step
        monkeypatch.setattr(translate, "_step", lambda g: tried.append(g) or step(g))
        assert ff_simplify(f) == f
        assert len(tried) == len(set(tried)) == 17


class TestTranslationProperties:
    @settings(max_examples=60, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_double_negation_elimination(self, f):
        t = ff_translate(f, CTX)
        stable = double_rel_neg(t, E)
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((t, stable), (stable, t)))

    @settings(max_examples=60, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_negation_consequence(self, f):
        a, b = ff_translate(neg(f), CTX), rel_neg(ff_translate(f, CTX), E)
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((a, b), (b, a)))

    @settings(max_examples=40, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_witness_order_stability(self, f):
        # permuting gamma while keeping the witness formula yields
        # interprovable (not necessarily equal) translations
        a = ff_translate(f, TranslationContext((E, C), 0))
        b = ff_translate(f, TranslationContext((C, E), 1))
        assert all(decide(Sequent((x,), y, IP)).provable for x, y in ((a, b), (b, a)))
