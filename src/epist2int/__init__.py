"""Epistemic (S4) and intuitionistic propositional logic: translations in
both directions, decision procedures for both logics, a kernel checking
their verdicts' certificates, finite Heyting algebra evaluation, and the
reproduction harness built on top of them."""

from .algebra import (
    Countermodel,
    HeytingAlgebra,
    evaluate,
    make_chain,
    refute,
)
from .kernel import KripkeModel, check_kripke, check_trace
from .prover_ep import EpProofResult, prove_ep
from .prover_ip import ProofResult, prove_ip
from .syntax import (
    EP,
    FALSUM,
    IP,
    VERUM,
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    Formula,
    Impl,
    ParseError,
    Sequent,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    random_formula,
)
from .translate import (
    TranslationContext,
    ff_simplify,
    ff_translate,
    godel_translate,
    rel_neg,
)

__all__ = [
    "Atom", "Box", "Conj", "Countermodel", "Disj", "EP", "EpProofResult",
    "FALSUM", "Falsum", "Formula", "HeytingAlgebra", "IP", "Impl",
    "KripkeModel", "ParseError", "ProofResult", "Sequent",
    "TranslationContext", "VERUM", "check_kripke",
    "check_trace", "evaluate", "ff_simplify",
    "ff_translate", "godel_translate", "make_chain", "parse_formula",
    "parse_sequent", "print_formula", "print_sequent", "prove_ep",
    "prove_ip", "random_formula", "refute", "rel_neg",
]

__version__ = "0.1.0"
