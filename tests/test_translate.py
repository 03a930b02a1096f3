"""Both translations, their defining clauses, and the simplifier."""

import pytest
from hypothesis import given, settings

from conftest import ep_formulas, ip_formulas
from epist2int.prover_ep import equiv_ep, is_provable_ep
from epist2int.prover_ip import equiv_ip, is_provable_ip
from epist2int.syntax import (
    FALSUM,
    IP,
    Atom,
    Box,
    Conj,
    Disj,
    Impl,
    is_ip_formula,
    neg,
    parse_formula,
    print_formula,
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

    @settings(max_examples=100, deadline=None)
    @given(ip_formulas(max_leaves=5))
    def test_stability(self, f):
        t = godel_translate(f)
        assert equiv_ep(t, Box(t))

    def test_soundness_on_random_theorems(self):
        found = 0
        for i in range(300):
            f = random_formula_sized(8, ["p", "q"], IP, seed=5000 + i)
            if is_provable_ip((), f):
                assert is_provable_ep((), godel_translate(f))
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
        assert equiv_ip(ff_translate(FALSUM, CTX), E)

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
        assert equiv_ip(raw, ff_simplify(raw))
        assert equiv_ip(raw, target)

    def test_fixpoint(self):
        raw = ff_translate(Box(Conj(p, Disj(q, r))), CTX)
        once = ff_simplify(raw)
        assert ff_simplify(once) == once

    @settings(max_examples=120, deadline=None)
    @given(ip_formulas(max_leaves=6))
    def test_equivalence_on_arbitrary_input(self, f):
        assert equiv_ip(f, ff_simplify(f))

    @settings(max_examples=60, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_equivalence_on_translations(self, f):
        raw = ff_translate(f, CTX)
        assert equiv_ip(raw, ff_simplify(raw))


class TestTranslationProperties:
    @settings(max_examples=60, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_double_negation_elimination(self, f):
        x = ff_translate(f, CTX)
        assert equiv_ip(double_rel_neg(x, E), x)

    @settings(max_examples=60, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_negation_consequence(self, f):
        assert equiv_ip(
            ff_translate(neg(f), CTX), rel_neg(ff_translate(f, CTX), E)
        )

    @settings(max_examples=40, deadline=None)
    @given(ep_formulas(max_leaves=4))
    def test_witness_order_stability(self, f):
        # permuting gamma while keeping the witness formula yields
        # interprovable (not necessarily equal) translations
        a = ff_translate(f, TranslationContext((E, C), 0))
        b = ff_translate(f, TranslationContext((C, E), 1))
        assert equiv_ip(a, b)
