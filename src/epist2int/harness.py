"""Named, seeded checks tying the provers, translations and algebras together.

Each check returns a CheckReport whose details carry machine-checkable
evidence: sequents and verdicts, validated derivation traces, algebra
valuations, Kripke countermodels.  Reports are deterministic given the
seed (timings live outside the details payload).
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import Countermodel, evaluate, make_chain
from .kernel import check_kripke, validate_trace
from .prover_ep import prove_ep
from .prover_ip import prove_ip
from .syntax import (
    EP,
    IP,
    FALSUM,
    VERUM,
    Atom,
    Box,
    Conj,
    Disj,
    Formula,
    Impl,
    Sequent,
    atoms_of,
    neg,
    print_formula,
    print_sequent,
    random_formula_sized,
)
from .translate import (
    TranslationContext,
    double_rel_neg,
    ff_translate,
    godel_translate,
    rel_neg,
)

_P, _Q, _R = Atom("p"), Atom("q"), Atom("r")

DEFAULT_GAMMA_POOL: tuple[Formula, ...] = (_Q, _R, Impl(_Q, _R), VERUM)


@dataclass
class CheckReport:
    name: str
    status: str
    details: dict
    seed: Optional[int] = None  # None for a check that draws nothing at random
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 3),
            "details": self.details,
        }


def _finish(name: str, failures: list, details: dict, seed: Optional[int],
            t0: float) -> CheckReport:
    details["failures"] = failures[:20]
    status = "pass" if not failures else "fail"
    return CheckReport(name, status, details, seed, time.perf_counter() - t0)


def gamma_contexts(pool, max_size: int = 2) -> list[TranslationContext]:
    """Every subset of the pool up to max_size, with every witness choice."""
    ctxs = []
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(pool, k):
            for wi in range(k):
                ctxs.append(TranslationContext(combo, wi))
    return ctxs


def _ctx_label(ctx: TranslationContext) -> str:
    gamma = ", ".join(print_formula(g) for g in ctx.gamma)
    return f"gamma=[{gamma}] witness={print_formula(ctx.witness)}"


class CertificateError(ValueError):
    """A verdict whose certificate the kernel rejects."""


def decide(s: Sequent, node_cap: Optional[int] = None):
    """Decide s in its own logic and have the kernel check the certificate
    its verdict carries: an IP proof's trace, an S4 countermodel (one the
    kernel cannot read is rejected too).  Returns the prover's result or
    raises CertificateError; outside the provers, the one caller of
    prove_ip and prove_ep."""
    if s.logic == IP:
        res = prove_ip(s, want_trace=True, node_cap=node_cap)
        fault = validate_trace(res.trace, s) if res.provable else None
    else:
        res = prove_ep(s, node_cap=node_cap)
        try:
            fault = (None if res.provable or check_kripke(res.countermodel, s)
                     else "the countermodel does not refute the sequent")
        except ValueError as malformed:
            fault = str(malformed)
    if fault is not None:
        raise CertificateError(f"certificate rejected: {fault}")
    return res


def _decide(s: Sequent, failures: list, label: str, expect: Optional[bool] = True):
    """decide(s), with a rejected certificate or a wrong verdict
    (expect=None accepts either) recorded in failures, giving None."""
    try:
        res = decide(s)
        if expect is None or res.provable == expect:
            return res
        error = {"verdict": res.verdict, "expected": expect}
    except CertificateError:
        error = {"error": "certificate rejected"}
    failures.append({"check": label, "sequent": print_sequent(s), **error})
    return None


# the goals of sample_provable_ep_sequents' third mode; one is built per try
_BOXED_GOALS = (
    lambda b1, b2, x: Box(Conj(b1, b2)),
    lambda b1, b2, x: Box(Disj(b1, x)),
    lambda b1, b2, x: Box(Box(b1)),
    lambda b1, b2, x: Box(Impl(x, b1)),
)


def sample_provable_ep_sequents(sample: int, max_size: int, seed: int) -> list[Sequent]:
    """Provable EP sequents over p, q, r, biased toward derivations that
    need the box-introduction rule (boxed assumptions, boxed goals)."""
    atoms = ["p", "q", "r"]
    rng = random.Random(seed)
    out: list[Sequent] = []
    tries = itertools.count()
    while len(out) < sample:
        i = next(tries)
        mode = i % 3
        sub = seed * 100003 + i
        if mode == 0:
            goal = random_formula_sized(max_size, atoms, EP, sub)
            s = Sequent((), goal, EP)
        elif mode == 1:
            goal = random_formula_sized(max_size, atoms, EP, sub)
            n = rng.randint(1, 2)
            assumptions = tuple(
                Box(random_formula_sized(3, atoms, EP, sub + 7 * (j + 1)))
                for j in range(n)
            )
            s = Sequent(assumptions, goal, EP)
        else:
            b1 = random_formula_sized(3, atoms, EP, sub + 1)
            b2 = random_formula_sized(3, atoms, EP, sub + 2)
            x = random_formula_sized(2, atoms, EP, sub + 3)
            goal = rng.choice(_BOXED_GOALS)(b1, b2, x)
            s = Sequent((Box(b1), Box(b2)), goal, EP)
        if decide(s).provable:
            out.append(s)
    return out


def translated_sequents(sample: int = 500, seed: int = 0):
    """The soundness sweep's IP sequents: each sampled provable EP sequent
    of size at most 8 translated under gamma_contexts(DEFAULT_GAMMA_POOL, 2),
    each context in turn, as (EP sequent, context, translated sequent)."""
    ctxs = gamma_contexts(DEFAULT_GAMMA_POOL, 2)
    for s in sample_provable_ep_sequents(sample, 8, seed):
        for ctx in ctxs:
            assumptions = tuple(ff_translate(a, ctx) for a in s.assumptions)
            yield s, ctx, Sequent(assumptions, ff_translate(s.goal, ctx), IP)


def check_soundness_theorem(sample: int = 500, seed: int = 0) -> CheckReport:
    """Provable EP sequents stay provable in IP under every context the
    sweep draws from DEFAULT_GAMMA_POOL, each proof's trace checked; the
    details name the three translated sequents that cost the most nodes."""
    t0 = time.perf_counter()
    failures: list = []
    costs = []  # (nodes_expanded, EP sequent, context label)
    checked = 0
    for s, ctx, translated in translated_sequents(sample, seed):
        checked += 1
        ep, label = print_sequent(s), _ctx_label(ctx)
        res = _decide(translated, failures, f"{ep} under {label}")
        if res is not None:
            costs.append((res.nodes_expanded, ep, label))
    details = {
        "sequents": sample,
        "contexts": len(gamma_contexts(DEFAULT_GAMMA_POOL, 2)),
        "translated_sequents_checked": checked,
        "costliest": [{"sequent": ep, "ctx": label, "nodes_expanded": nodes}
                      for nodes, ep, label in heapq.nlargest(3, costs, key=lambda c: c[0])],
    }
    return _finish("soundness_theorem", failures, details, seed, t0)


def _cross_witness(b: Formula) -> Formula:
    """double_rel_neg(ff_translate(E -> b, (C, E) under witness C), E): the
    formula that the boxed translation of E -> b proves and a 3-chain refutes."""
    e = Atom("E")
    ctx = TranslationContext((Atom("C"), e), witness_index=0)
    return double_rel_neg(ff_translate(Impl(e, b), ctx), e)


def check_necessitation_counterexample() -> CheckReport:
    """The translated box-introduction rule is not admissible: a formula
    whose translation is a theorem while its boxed form's translation is
    not, with an explicit 3-chain algebra witness."""
    t0 = time.perf_counter()
    failures: list = []
    validated = 0
    b, c, e = Atom("B"), Atom("C"), Atom("E")
    details: dict = {"variants": []}
    ctx = TranslationContext((c, e), witness_index=1)
    for b_formula in (b, FALSUM):
        a = Impl(e, b_formula)
        label = f"B={print_formula(b_formula)}"
        translated = ff_translate(a, ctx)
        boxed = ff_translate(Box(a), ctx)
        validated += _decide(Sequent((), translated, IP), failures,
                             f"{label}: translated formula is a theorem") is not None
        _decide(Sequent((), boxed, IP), failures,
                f"{label}: boxed translation must not be provable", expect=False)
        # the reduction: the boxed translation proves the doubly negated
        # cross-witness translation, so refuting the latter suffices
        cross = _cross_witness(b_formula)
        validated += _decide(Sequent((boxed,), cross, IP), failures,
                             f"{label}: reduction step") is not None
        # the stated witness: B = C = 0 and E = 1 give it the value 1 on the 3-chain
        chain = make_chain(3)
        names = atoms_of(cross)
        valuation = {a: x for a, x in (("B", 0), ("C", 0), ("E", 1)) if a in names}
        cm = Countermodel(chain, valuation, 1, cross)
        if not cm.recheck():
            failures.append({"check": f"{label}: 3-chain value",
                             "value": evaluate(cross, valuation, chain)})
        else:
            details["variants"].append(
                {"label": label, "formula": print_formula(cross),
                 "countermodel": cm.to_json(), "chain_value": cm.value}
            )
    # outside the claim: the other witness, recorded as information only
    swapped = _decide(Sequent((), ff_translate(Box(Impl(e, b)), ctx.with_witness(0)), IP),
                      failures, "witness C (informational)", expect=None)
    details["witness_C_verdict_informational"] = swapped and swapped.verdict
    details["traces_validated"] = validated
    return _finish("necessitation_counterexample", failures, details, None, t0)


def check_symbolic_chain_identity() -> CheckReport:
    """On the chains of 4 to 8 elements and every 0 <= b <= c < e < top,
    the formula that check_necessitation_counterexample refutes, with
    B = b, C = c and E = e, evaluates exactly to e."""
    t0 = time.perf_counter()
    failures: list = []
    checked = 0
    cross = _cross_witness(Atom("B"))
    sizes = range(4, 9)
    for n in sizes:
        h = make_chain(n)
        top = h.top
        for b in range(n):
            for c in range(b, n):
                for e in range(c + 1, top):
                    checked += 1
                    got = evaluate(cross, {"B": b, "C": c, "E": e}, h)
                    if got != e:
                        failures.append({"chain": n, "b": b, "c": c, "e": e, "got": got})
    return _finish("symbolic_chain_identity", failures,
                   {"instances_checked": checked, "chains": list(sizes)}, None, t0)


def check_unfaithfulness_fernandez() -> CheckReport:
    """With a theorem as witness the translation of a bare atom becomes
    provable, so provability does not transfer back to the modal side."""
    t0 = time.perf_counter()
    failures: list = []
    p = _P
    details: dict = {}
    for label, gamma in (("singleton", (VERUM,)), ("extended", (VERUM, _Q))):
        ctx = TranslationContext(gamma, 0)
        translated = ff_translate(p, ctx)
        _decide(Sequent((), translated, IP), failures, f"{label}: atom translation provable")
        if label == "singleton":
            details["translated_atom"] = print_formula(translated)
    ep = _decide(Sequent((), p, EP), failures, "atom must not be an EP theorem", expect=False)
    if ep is not None:
        details["ep_countermodel"] = ep.countermodel.to_json()
    # with falsum as the witness the same translation is ordinary double
    # negation, and stops being provable: the witness must be a theorem
    bot_ctx = TranslationContext((FALSUM,), 0)
    _decide(Sequent((), ff_translate(p, bot_ctx), IP), failures,
            "falsum witness gives unprovable double negation", expect=False)
    return _finish("unfaithfulness_fernandez", failures, details, None, t0)


def check_weak_unfaithfulness_inoue() -> CheckReport:
    """p -> []p translates to an IP theorem under every context of one to
    three members of DEFAULT_GAMMA_POOL, with every witness, yet is not an
    EP theorem; so even pool-quantified faithfulness fails."""
    t0 = time.perf_counter()
    failures: list = []
    a = Impl(_P, Box(_P))
    ctxs = gamma_contexts(DEFAULT_GAMMA_POOL, 3)
    for ctx in ctxs:
        _decide(Sequent((), ff_translate(a, ctx), IP), failures, _ctx_label(ctx))
    ep = _decide(Sequent((), a, EP), failures, "p -> []p must not be EP-provable",
                 expect=False)
    details: dict = {
        "contexts_checked": len(ctxs),
        "formula": print_formula(a),
        "note": "quantification over all finite gamma is approximated by every "
                "context of 1-3 members of DEFAULT_GAMMA_POOL",
    }
    if ep is not None:
        if len(ep.countermodel.worlds) != 2:
            failures.append({"check": "expected a 2-world countermodel",
                             "worlds": len(ep.countermodel.worlds)})
        else:
            details["ep_countermodel"] = ep.countermodel.to_json()
    return _finish("weak_unfaithfulness_inoue", failures, details, None, t0)


def _provable_premises(sample: int, seed: int,
                       failures: list) -> list[tuple[tuple, Formula, Formula]]:
    """Random (assumptions, a, b) with assumptions, a |- b proved in IP and
    its trace checked, mixing constructed shapes with rejection-sampled ones."""
    rng = random.Random(seed)
    out = []
    i = 0
    while len(out) < sample:
        i += 1
        sub = seed * 20011 + i
        phi = tuple(
            random_formula_sized(3, ["p", "q", "r"], IP, sub + 31 * (j + 1))
            for j in range(rng.randint(0, 2))
        )
        a = random_formula_sized(3, ["p", "q", "r"], IP, sub + 5)
        x = random_formula_sized(3, ["p", "q", "r"], IP, sub + 11)
        shape = rng.choice(["id", "disj", "impl", "random"])
        b = {"id": a, "disj": Disj(a, x), "impl": Impl(x, a), "random": x}[shape]
        res = _decide(Sequent(phi + (a,), b, IP), failures, "2_neg_intro premise", expect=None)
        if res is None:  # a rejected trace, recorded in failures: stop sampling
            break
        if res.provable:
            out.append((phi, a, b))
    return out


def _both(x: Formula, y: Formula) -> list:
    return [((x,), y), ((y,), x)]


# Relative-negation lemma schemata over three random IP formulas, as
# (assumptions, goal) lists; an interprovability gives both directions.
# Two-formula schemata ignore the third draw.
_IP_LEMMAS: dict[str, Callable[[Formula, Formula, Formula], list]] = {
    "double_neg": lambda a, e, _: [((a,), double_rel_neg(a, e))],
    "contraposition": lambda a, b, e: [
        ((Impl(a, b),), Impl(rel_neg(b, e), rel_neg(a, e))),
        ((Impl(a, b),), Impl(double_rel_neg(a, e), double_rel_neg(b, e)))],
    "triple_neg": lambda a, e, _: _both(rel_neg(a, e), rel_neg(double_rel_neg(a, e), e)),
    "2_neg_con": lambda a, b, e: _both(
        double_rel_neg(Conj(a, b), e), Conj(double_rel_neg(a, e), double_rel_neg(b, e))),
    "2_neg_dis": lambda a, b, e: _both(
        double_rel_neg(Disj(a, b), e),
        double_rel_neg(Disj(double_rel_neg(a, e), double_rel_neg(b, e)), e)),
    "double_double": lambda a, c, e: [
        ((double_rel_neg(a, e),), double_rel_neg(double_rel_neg(a, c), e))],
    "double_neg_imp": lambda a, b, e: [
        ((double_rel_neg(Impl(a, b), e),), Impl(double_rel_neg(a, e), double_rel_neg(b, e)))],
    "imp_double_neg": lambda a, b, e: _both(
        Impl(double_rel_neg(a, e), double_rel_neg(b, e)),
        double_rel_neg(Impl(double_rel_neg(a, e), double_rel_neg(b, e)), e)),
    "bang": lambda a, b, e: _both(
        Impl(a, double_rel_neg(b, e)), Impl(double_rel_neg(a, e), double_rel_neg(b, e))),
}

# Consequences of the translation for a random EP formula g under a
# random context: translations are stable under double relative negation,
# and falsum and negation translate to the witness and relative negation.
_TRANSLATION_LEMMAS: dict[str, Callable[[Formula, TranslationContext], list]] = {
    "double_neg_elim": lambda g, ctx: _both(
        double_rel_neg(ff_translate(g, ctx), ctx.witness), ff_translate(g, ctx)),
    "falsum_consequence": lambda g, ctx: _both(ff_translate(FALSUM, ctx), ctx.witness),
    "neg_consequence": lambda g, ctx: _both(
        ff_translate(neg(g), ctx), rel_neg(ff_translate(g, ctx), ctx.witness)),
}


def _random_ctx(sub: int, rng: random.Random) -> TranslationContext:
    k = rng.randint(1, 2)
    gamma: list[Formula] = []
    for j in range(k + 2):
        g = random_formula_sized(3, ["q", "r"], IP, sub + 101 * (j + 1))
        if g not in gamma:
            gamma.append(g)
        if len(gamma) == k:
            break
    return TranslationContext(tuple(gamma), rng.randrange(len(gamma)))


def check_lemma_suite(sample: int = 100, seed: int = 0) -> CheckReport:
    """Relative-negation lemma schemata on random instantiations, plus the
    double-negation-elimination property of translated formulas and the
    falsum/negation consequences of the translation."""
    t0 = time.perf_counter()
    failures: list = []
    validated = 0
    counts: dict = {}
    schemata = itertools.chain(_IP_LEMMAS.items(), _TRANSLATION_LEMMAS.items())
    for index, (name, schema) in enumerate(schemata):
        before = len(failures)
        rng = random.Random(f"{seed}/{name}")
        for i in range(sample):
            sub = seed * 40009 + index * 1009 + i * 17
            if name in _TRANSLATION_LEMMAS:
                g = random_formula_sized(4, ["p", "q"], EP, sub + 3)
                pairs = schema(g, _random_ctx(sub, rng))
            else:
                pairs = schema(*(random_formula_sized(5, ["p", "q", "r"], IP, sub + k)
                                 for k in range(3)))
            for assumptions, goal in pairs:
                validated += _decide(Sequent(assumptions, goal, IP), failures, name) is not None
        counts[name] = {"instances": sample, "failures": len(failures) - before}

    # the admissible double-negation rule needs provable premises
    before = len(failures)
    premises = _provable_premises(sample, seed, failures)
    for j, (phi, a, b) in enumerate(premises):
        e = random_formula_sized(4, ["p", "q", "r"], IP, seed * 50021 + j)
        validated += _decide(Sequent(phi + (double_rel_neg(a, e),), double_rel_neg(b, e), IP),
                             failures, "2_neg_intro") is not None
    counts["2_neg_intro"] = {"instances": len(premises),
                             "failures": len(failures) - before}

    details = {"schemata": counts, "traces_validated": validated}
    return _finish("lemma_suite", failures, details, seed, t0)


def enumerate_ip_formulas(max_size: int, atom_names=("p", "q")) -> list[Formula]:
    """Every IP formula over the given atoms (and falsum) up to max_size nodes."""
    leaves: list[Formula] = [Atom(a) for a in atom_names] + [FALSUM]
    by_size: dict[int, list[Formula]] = {1: leaves}
    for n in range(2, max_size + 1):
        bucket: list[Formula] = []
        for ls in range(1, n - 1):
            rs = n - 1 - ls
            for left in by_size.get(ls, ()):
                for right in by_size.get(rs, ()):
                    bucket.extend((Conj(left, right), Disj(left, right), Impl(left, right)))
        by_size[n] = bucket
    return [f for n in range(1, max_size + 1) for f in by_size[n]]


def check_godel_faithfulness() -> CheckReport:
    """Exhaustively at desk scale, over p and q up to size 7: the box
    translation of A is S4-provable exactly when A is IP-provable, and every
    translation is stable (it is interprovable with its own boxing).  The
    report counts the S4 tableau steps spent on translations and on
    stability sequents."""
    t0 = time.perf_counter()
    failures: list = []
    formulas = enumerate_ip_formulas(7)
    provable = translation_steps = stability_steps = 0
    for a in formulas:
        ip = _decide(Sequent((), a, IP), failures, "IP verdict", expect=None)
        if ip is None:
            continue
        ta = godel_translate(a)
        ep = _decide(Sequent((), ta, EP), failures, "S4 verdict", expect=ip.provable)
        if ep is None:
            continue
        provable += ip.provable
        translation_steps += ep.worlds_expanded
        for s in (Sequent((ta,), Box(ta), EP), Sequent((Box(ta),), ta, EP)):
            stable = _decide(s, failures, "stability")
            if stable is not None:
                stability_steps += stable.worlds_expanded
    details = {"formulas": len(formulas), "provable": provable, "max_size": 7,
               "translation_steps": translation_steps, "stability_steps": stability_steps}
    return _finish("godel_faithfulness", failures, details, None, t0)


ALL_CHECKS: dict[str, tuple[Callable[..., CheckReport], ...]] = {
    "thm2": (check_necessitation_counterexample, check_symbolic_chain_identity),
    "fernandez": (check_unfaithfulness_fernandez,),
    "inoue": (check_weak_unfaithfulness_inoue,),
    "lemmas": (check_lemma_suite,),
    "soundness": (check_soundness_theorem,),
    "godel": (check_godel_faithfulness,),
}

_SEEDED = (check_lemma_suite, check_soundness_theorem)


def takes_seed(targets) -> bool:
    """Whether a check of the targets draws at random, and so reads a seed
    and a sample."""
    return any(check in _SEEDED for target in targets for check in ALL_CHECKS[target])


def run_checks(targets, seed: int = 0, sample: Optional[int] = None) -> list[CheckReport]:
    """Run the checks of each target in order.  seed and sample go to the
    randomized checks only; sample=None keeps each check's default, and a
    sample is an error when no check of the targets takes one."""
    checks = [check for target in targets for check in ALL_CHECKS[target]]
    if sample is not None and not takes_seed(targets):
        raise ValueError(f"{', '.join(targets)} takes no --sample")
    if sample is not None and sample < 1:  # a check that checks nothing passes
        raise ValueError("sample must be positive")
    kwargs = {"seed": seed} if sample is None else {"seed": seed, "sample": sample}
    return [check(**kwargs) if check in _SEEDED else check() for check in checks]


def summary_table(reports: list[CheckReport]) -> str:
    width = max(len(r.name) for r in reports)
    lines = [
        f"{r.name:<{width}}  {r.status.upper():<4}  {r.elapsed_s:7.2f}s"
        for r in reports
    ]
    return "\n".join(lines)
