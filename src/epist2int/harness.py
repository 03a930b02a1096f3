"""Named, seeded checks tying the provers, translations and algebras together.

Each check returns a CheckReport whose details carry machine-checkable
evidence: sequents and verdicts, validated derivation traces, algebra
valuations, Kripke countermodels.  Reports are deterministic given the
seed (timings live outside the details payload).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import evaluate, make_chain, refute, rpc_chain, Valuation
from .prover_ep import check_kripke, is_provable_ep, prove_ep
from .prover_ip import check_trace, is_provable_ip, prove_ip
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

INOUE_GAMMA_POOLS: tuple[tuple[Formula, ...], ...] = (
    (_Q,),
    (_R,),
    (VERUM,),
    (_Q, _R),
    (_Q, Impl(_Q, _R)),
    (_Q, _R, VERUM),
    (_Q, _R, Impl(_Q, _R)),
)


@dataclass
class CheckReport:
    name: str
    status: str
    details: dict
    seed: int = 0
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "status": self.status,
                "seed": self.seed,
                "elapsed_s": round(self.elapsed_s, 3),
                "details": self.details,
            }
        )


def _finish(name: str, failures: list, details: dict, seed: int, t0: float) -> CheckReport:
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


def _proved_ip(assumptions, goal, failures, label: str, expect: bool = True,
               traces: Optional[list] = None) -> None:
    s = Sequent(tuple(assumptions), goal, IP)
    res = prove_ip(s, want_trace=True)
    if res.provable != expect:
        failures.append({"check": label, "sequent": print_sequent(s),
                         "verdict": res.verdict, "expected": expect})
        return
    if res.provable:
        if not check_trace(res.trace, s):
            failures.append({"check": label, "sequent": print_sequent(s),
                             "error": "trace rejected"})
        elif traces is not None:
            traces.append(res.trace.count_nodes())


def _equiv_ip_checked(a: Formula, b: Formula, failures, label: str,
                      traces: Optional[list] = None) -> None:
    _proved_ip((a,), b, failures, label + " (ltr)", traces=traces)
    _proved_ip((b,), a, failures, label + " (rtl)", traces=traces)


def sample_provable_ep_sequents(sample: int, max_size: int, seed: int,
                                atoms=("p", "q", "r")) -> list[Sequent]:
    """Provable EP sequents, biased toward derivations that need the
    box-introduction rule (boxed assumptions, boxed goals)."""
    rng = random.Random(seed)
    out: list[Sequent] = []
    tries = itertools.count()
    while len(out) < sample:
        i = next(tries)
        mode = i % 3
        sub = seed * 100003 + i
        if mode == 0:
            goal = random_formula_sized(max_size, list(atoms), EP, sub)
            s = Sequent((), goal, EP)
        elif mode == 1:
            goal = random_formula_sized(max_size, list(atoms), EP, sub)
            n = rng.randint(1, 2)
            assumptions = tuple(
                Box(random_formula_sized(3, list(atoms), EP, sub + 7 * (j + 1)))
                for j in range(n)
            )
            s = Sequent(assumptions, goal, EP)
        else:
            b1 = random_formula_sized(3, list(atoms), EP, sub + 1)
            b2 = random_formula_sized(3, list(atoms), EP, sub + 2)
            x = random_formula_sized(2, list(atoms), EP, sub + 3)
            shape = rng.choice(["conj", "disj", "box", "impl"])
            goal = {
                "conj": Box(Conj(b1, b2)),
                "disj": Box(Disj(b1, x)),
                "box": Box(Box(b1)),
                "impl": Box(Impl(x, b1)),
            }[shape]
            s = Sequent((Box(b1), Box(b2)), goal, EP)
        if prove_ep(s).provable:
            out.append(s)
    return out


def check_soundness_theorem(sample: int = 500, max_size: int = 8,
                            gamma_pool=DEFAULT_GAMMA_POOL,
                            seed: int = 0) -> CheckReport:
    """Provable EP sequents stay provable in IP under every translation
    drawn from the pool (subsets of size <= 2, every witness)."""
    t0 = time.perf_counter()
    failures: list = []
    ctxs = gamma_contexts(gamma_pool, 2)
    sequents = sample_provable_ep_sequents(sample, max_size, seed)
    checked = 0
    for s in sequents:
        for ctx in ctxs:
            assumptions = tuple(ff_translate(a, ctx) for a in s.assumptions)
            goal = ff_translate(s.goal, ctx)
            checked += 1
            if not is_provable_ip(assumptions, goal):
                failures.append({"sequent": print_sequent(s), "ctx": _ctx_label(ctx)})
    details = {
        "sequents": len(sequents),
        "contexts": len(ctxs),
        "translated_sequents_checked": checked,
    }
    return _finish("soundness_theorem", failures, details, seed, t0)


def check_necessitation_counterexample() -> CheckReport:
    """The translated box-introduction rule is not admissible: a formula
    whose translation is a theorem while its boxed form's translation is
    not, with an explicit 3-chain algebra witness."""
    t0 = time.perf_counter()
    failures: list = []
    traces: list = []
    b, c, e = Atom("B"), Atom("C"), Atom("E")
    details: dict = {"variants": []}
    for b_formula in (b, FALSUM):
        ctx = TranslationContext((c, e), witness_index=1)
        a = Impl(e, b_formula)
        label = f"B={print_formula(b_formula)}"
        translated = ff_translate(a, ctx)
        boxed = ff_translate(Box(a), ctx)
        _proved_ip((), translated, failures, f"{label}: translated formula is a theorem",
                   traces=traces)
        _proved_ip((), boxed, failures, f"{label}: boxed translation must not be provable",
                   expect=False)
        # the reduction: the boxed translation proves the doubly negated
        # cross-witness translation, so refuting the latter suffices
        cross = double_rel_neg(ff_translate(a, ctx.with_witness(0)), e)
        _proved_ip((boxed,), cross, failures, f"{label}: reduction step", traces=traces)
        chain = make_chain(3)
        v = Valuation({"B": 0, "C": 0, "E": 1})
        value = evaluate(cross, v, chain)
        if value != 1 or value == chain.top:
            failures.append({"check": f"{label}: 3-chain value", "value": value})
        cm = refute(cross, max_chain=3)
        if cm is None or not cm.recheck():
            failures.append({"check": f"{label}: refute failed to find the countermodel"})
        else:
            details["variants"].append(
                {"label": label, "formula": print_formula(cross),
                 "countermodel": cm.to_json(), "chain_value": value}
            )
    # outside the claim: the other witness, recorded as information only
    ctx = TranslationContext((c, e), witness_index=1)
    swapped = prove_ip(Sequent((), ff_translate(Box(Impl(e, b)), ctx.with_witness(0)), IP))
    details["witness_C_verdict_informational"] = swapped.verdict
    details["traces_validated"] = len(traces)
    return _finish("necessitation_counterexample", failures, details, 0, t0)


def check_symbolic_chain_identity(sizes=range(4, 9)) -> CheckReport:
    """On every chain and every 0 <= b <= c < e < top, the nested
    rpc expression ((e|>c|>c) |> (b|>c|>c) |> e |> e), read left-nested
    as in the refuted formula, evaluates exactly to e."""
    t0 = time.perf_counter()
    failures: list = []
    checked = 0
    for n in sizes:
        h = make_chain(n)
        top = h.top
        for b in range(n):
            for c in range(b, n):
                for e in range(c + 1, top):
                    checked += 1
                    x = rpc_chain(h, e, c, c)
                    y = rpc_chain(h, b, c, c)
                    got = rpc_chain(h, h.rpc[x][y], e, e)
                    if got != e:
                        failures.append({"chain": n, "b": b, "c": c, "e": e, "got": got})
    return _finish("symbolic_chain_identity", failures,
                   {"instances_checked": checked, "chains": list(sizes)}, 0, t0)


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
        _proved_ip((), translated, failures, f"{label}: atom translation provable")
        if label == "singleton":
            details["translated_atom"] = print_formula(translated)
    ep = prove_ep(Sequent((), p, EP))
    if ep.provable:
        failures.append({"check": "atom must not be an EP theorem"})
    elif not check_kripke(ep.countermodel, Sequent((), p, EP)):
        failures.append({"check": "EP countermodel rejected"})
    else:
        details["ep_countermodel"] = ep.countermodel.to_json()
    # with falsum as the witness the same translation is ordinary double
    # negation, and stops being provable: the witness must be a theorem
    bot_ctx = TranslationContext((FALSUM,), 0)
    _proved_ip((), ff_translate(p, bot_ctx), failures,
               "falsum witness gives unprovable double negation", expect=False)
    return _finish("unfaithfulness_fernandez", failures, details, 0, t0)


def check_weak_unfaithfulness_inoue(pools=INOUE_GAMMA_POOLS) -> CheckReport:
    """p -> []p translates to an IP theorem for every pool context, yet is
    not an EP theorem; so even pool-quantified faithfulness fails."""
    t0 = time.perf_counter()
    failures: list = []
    a = Impl(_P, Box(_P))
    contexts = 0
    for gamma in pools:
        for wi in range(len(gamma)):
            ctx = TranslationContext(gamma, wi)
            contexts += 1
            _proved_ip((), ff_translate(a, ctx), failures, _ctx_label(ctx))
    s = Sequent((), a, EP)
    ep = prove_ep(s)
    details: dict = {
        "contexts_checked": contexts,
        "formula": print_formula(a),
        "note": "quantification over all finite gamma is approximated by a fixed "
                "pool of contexts of sizes 1-3",
    }
    if ep.provable:
        failures.append({"check": "p -> []p must not be EP-provable"})
    else:
        model = ep.countermodel
        if len(model.worlds) != 2:
            failures.append({"check": "expected a 2-world countermodel",
                             "worlds": len(model.worlds)})
        elif not check_kripke(model, s):
            failures.append({"check": "countermodel rejected"})
        else:
            details["ep_countermodel"] = model.to_json()
    return _finish("weak_unfaithfulness_inoue", failures, details, 0, t0)


def _provable_premises(sample: int, seed: int) -> list[tuple[tuple, Formula, Formula]]:
    """Random (assumptions, a, b) with assumptions, a |- b intuitionistically
    provable, mixing constructed shapes with rejection-sampled ones."""
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
        if is_provable_ip(phi + (a,), b):
            out.append((phi, a, b))
    return out


def check_lemma_suite(sample: int = 100, seed: int = 0) -> CheckReport:
    """Relative-negation lemma schemata on random instantiations, plus the
    double-negation-elimination property of translated formulas and the
    falsum/negation consequences of the translation."""
    t0 = time.perf_counter()
    failures: list = []
    traces: list = []
    counts: dict = {}

    schema_index = itertools.count()

    def run(name: str, fn: Callable[[random.Random, int], None]) -> None:
        before = len(failures)
        rng = random.Random(f"{seed}/{name}")
        base = seed * 40009 + next(schema_index) * 1009
        for i in range(sample):
            fn(rng, base + i * 17)
        counts[name] = {"instances": sample, "failures": len(failures) - before}

    def draw(sub: int, k: int = 5) -> Formula:
        return random_formula_sized(k, ["p", "q", "r"], IP, sub)

    def lemma_double_neg(rng, sub):
        a, e = draw(sub), draw(sub + 1)
        _proved_ip((a,), double_rel_neg(a, e), failures, "double_neg", traces=traces)

    def lemma_contraposition(rng, sub):
        a, b, e = draw(sub), draw(sub + 1), draw(sub + 2)
        ab = Impl(a, b)
        _proved_ip((ab,), Impl(rel_neg(b, e), rel_neg(a, e)), failures,
                   "contraposition neg", traces=traces)
        _proved_ip((ab,), Impl(double_rel_neg(a, e), double_rel_neg(b, e)), failures,
                   "contraposition double", traces=traces)

    def lemma_triple_neg(rng, sub):
        a, e = draw(sub), draw(sub + 1)
        _equiv_ip_checked(rel_neg(a, e), rel_neg(double_rel_neg(a, e), e), failures,
                          "triple_neg", traces)

    def lemma_2_neg_con(rng, sub):
        a, b, e = draw(sub), draw(sub + 1), draw(sub + 2)
        _equiv_ip_checked(double_rel_neg(Conj(a, b), e),
                          Conj(double_rel_neg(a, e), double_rel_neg(b, e)), failures,
                          "2_neg_con", traces)

    def lemma_2_neg_dis(rng, sub):
        a, b, e = draw(sub), draw(sub + 1), draw(sub + 2)
        _equiv_ip_checked(double_rel_neg(Disj(a, b), e),
                          double_rel_neg(Disj(double_rel_neg(a, e), double_rel_neg(b, e)), e),
                          failures, "2_neg_dis", traces)

    def lemma_double_double(rng, sub):
        a, c, e = draw(sub), draw(sub + 1), draw(sub + 2)
        _proved_ip((double_rel_neg(a, e),), double_rel_neg(double_rel_neg(a, c), e), failures,
                   "double_double", traces=traces)

    def lemma_double_neg_imp(rng, sub):
        a, b, e = draw(sub), draw(sub + 1), draw(sub + 2)
        _proved_ip((double_rel_neg(Impl(a, b), e),),
                   Impl(double_rel_neg(a, e), double_rel_neg(b, e)), failures,
                   "double_neg_imp", traces=traces)

    def lemma_imp_double_neg(rng, sub):
        a, b, e = draw(sub), draw(sub + 1), draw(sub + 2)
        body = Impl(double_rel_neg(a, e), double_rel_neg(b, e))
        _equiv_ip_checked(body, double_rel_neg(body, e), failures, "imp_double_neg", traces)

    def lemma_bang(rng, sub):
        a, b, e = draw(sub), draw(sub + 1), draw(sub + 2)
        _equiv_ip_checked(Impl(a, double_rel_neg(b, e)),
                          Impl(double_rel_neg(a, e), double_rel_neg(b, e)), failures,
                          "bang", traces)

    def random_ctx(sub: int, rng) -> TranslationContext:
        k = rng.randint(1, 2)
        gamma = []
        for j in range(k + 2):
            g = random_formula_sized(3, ["q", "r"], IP, sub + 101 * (j + 1))
            if g not in gamma:
                gamma.append(g)
            if len(gamma) == k:
                break
        return TranslationContext(tuple(gamma), rng.randrange(len(gamma)))

    def lemma_double_neg_elim(rng, sub):
        ctx = random_ctx(sub, rng)
        g = random_formula_sized(4, ["p", "q"], EP, sub + 3)
        x = ff_translate(g, ctx)
        _equiv_ip_checked(double_rel_neg(x, ctx.witness), x, failures, "double_neg_elim", traces)

    def falsum_consequence(rng, sub):
        ctx = random_ctx(sub, rng)
        _equiv_ip_checked(ff_translate(FALSUM, ctx), ctx.witness, failures,
                          "falsum_consequence", traces)

    def neg_consequence(rng, sub):
        ctx = random_ctx(sub, rng)
        g = random_formula_sized(4, ["p", "q"], EP, sub + 3)
        _equiv_ip_checked(ff_translate(neg(g), ctx),
                          rel_neg(ff_translate(g, ctx), ctx.witness), failures,
                          "neg_consequence", traces)

    run("double_neg", lemma_double_neg)
    run("contraposition", lemma_contraposition)
    run("triple_neg", lemma_triple_neg)
    run("2_neg_con", lemma_2_neg_con)
    run("2_neg_dis", lemma_2_neg_dis)
    run("double_double", lemma_double_double)
    run("double_neg_imp", lemma_double_neg_imp)
    run("imp_double_neg", lemma_imp_double_neg)
    run("bang", lemma_bang)
    run("double_neg_elim", lemma_double_neg_elim)
    run("falsum_consequence", falsum_consequence)
    run("neg_consequence", neg_consequence)

    # the admissible double-negation rule needs provable premises
    before = len(failures)
    premises = _provable_premises(sample, seed)
    for j, (phi, a, b) in enumerate(premises):
        e = random_formula_sized(4, ["p", "q", "r"], IP, seed * 50021 + j)
        _proved_ip(phi + (double_rel_neg(a, e),), double_rel_neg(b, e), failures,
                   "2_neg_intro", traces=traces)
    counts["2_neg_intro"] = {"instances": len(premises),
                             "failures": len(failures) - before}

    details = {"schemata": counts, "traces_validated": len(traces)}
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


def check_godel_faithfulness(max_size: int = 7, atoms: int = 2) -> CheckReport:
    """Exhaustively at desk scale: the box translation of A is S4-provable
    exactly when A is IP-provable, and every translation is stable (it is
    interprovable with its own boxing)."""
    t0 = time.perf_counter()
    failures: list = []
    names = ("p", "q", "r")[:atoms]
    formulas = enumerate_ip_formulas(max_size, names)
    provable = 0
    for a in formulas:
        ip = is_provable_ip((), a)
        ta = godel_translate(a)
        ep = is_provable_ep((), ta)
        if ip != ep:
            failures.append({"formula": print_formula(a), "ip": ip, "ep": ep})
            continue
        provable += ip
        if not (is_provable_ep((ta,), Box(ta)) and is_provable_ep((Box(ta),), ta)):
            failures.append({"formula": print_formula(a), "error": "stability fails"})
    details = {"formulas": len(formulas), "provable": provable, "max_size": max_size}
    return _finish("godel_faithfulness", failures, details, 0, t0)


ALL_CHECKS: dict[str, Callable[..., CheckReport]] = {
    "thm2": check_necessitation_counterexample,
    "fernandez": check_unfaithfulness_fernandez,
    "inoue": check_weak_unfaithfulness_inoue,
    "lemmas": check_lemma_suite,
    "soundness": check_soundness_theorem,
    "godel": check_godel_faithfulness,
}


def summary_table(reports: list[CheckReport]) -> str:
    width = max(len(r.name) for r in reports)
    lines = [
        f"{r.name:<{width}}  {r.status.upper():<4}  {r.elapsed_s:7.2f}s"
        for r in reports
    ]
    return "\n".join(lines)
