"""Seeded corpora and the per-query procedures of the benchmark workloads.

A query is one sequent decided end to end: text in, then parse,
translate, prove and certificate check.  Every call into a package layer
goes through `call(span_name, fn, *args)`, which either calls straight
through or records a span (see spans.py), so the traced and untraced
runs execute the same code.  Importing this module imports epist2int
from the checkout's src/ tree; run.py times that import as set-up.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from epist2int.algebra import refute  # noqa: E402
from epist2int.harness import (  # noqa: E402
    DEFAULT_GAMMA_POOL,
    enumerate_ip_formulas,
    gamma_contexts,
    sample_provable_ep_sequents,
)
from epist2int.prover_ep import check_kripke, prove_ep  # noqa: E402
from epist2int.prover_ip import check_trace, prove_ip  # noqa: E402
from epist2int.syntax import (  # noqa: E402
    EP,
    FALSUM,
    IP,
    Box,
    Conj,
    Disj,
    Impl,
    Sequent,
    neg,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    random_formula_sized,
)
from epist2int.translate import (  # noqa: E402
    double_rel_neg,
    ff_simplify,
    ff_translate,
    godel_translate,
    rel_neg,
)

# the 16 translation contexts of the soundness sweep: subsets of size <= 2
# of the default pool, every witness choice
CONTEXTS = gamma_contexts(DEFAULT_GAMMA_POOL, 2)


def context_label(i: int) -> str:
    ctx = CONTEXTS[i]
    gamma = ", ".join(print_formula(g) for g in ctx.gamma)
    return f"gamma=[{gamma}] witness={print_formula(ctx.witness)}"


class Query(NamedTuple):
    kind: str       # key into QUERY_FNS
    text: str       # the only input the program sees besides the context index
    ctx: Optional[int]
    label: str      # translation context or lemma schema, for the tail report


Call = Callable[..., object]


# ---------------------------------------------------------------- queries
# Each returns None when the verdict and its certificate check out, else a
# one-line reason.  Exceptions are caught and counted by the caller.

def soundness_query(call: Call, q: Query) -> Optional[str]:
    s = call("syntax.parse", parse_sequent, q.text, EP)
    ctx = CONTEXTS[q.ctx]
    hyps = tuple(call("translate.ff_translate", ff_translate, a, ctx) for a in s.assumptions)
    goal = call("translate.ff_translate", ff_translate, s.goal, ctx)
    if not call("prover_ip.prove", prove_ip, Sequent(hyps, goal, IP)).provable:
        return "translated sequent NotProvable"
    return None


def _proved_and_checked(call: Call, s: Sequent) -> Optional[str]:
    r = call("prover_ip.prove", prove_ip, s, want_trace=True)
    if not r.provable:
        return "NotProvable"
    if not call("prover_ip.check_trace", check_trace, r.trace, s):
        return "trace rejected"
    return None


def lemma_query(call: Call, q: Query) -> Optional[str]:
    return _proved_and_checked(call, call("syntax.parse", parse_sequent, q.text, IP))


def roundtrip_query(call: Call, q: Query) -> Optional[str]:
    f = call("syntax.parse", parse_formula, q.text, EP)
    raw = call("translate.ff_translate", ff_translate, f, CONTEXTS[q.ctx])
    simple = call("translate.ff_simplify", ff_simplify, raw)
    for direction, s in (("raw |- simplified", Sequent((raw,), simple, IP)),
                         ("simplified |- raw", Sequent((simple,), raw, IP))):
        err = _proved_and_checked(call, s)
        if err is not None:
            return f"{direction}: {err}"
    return None


def godel_query(call: Call, q: Query) -> Optional[str]:
    a = call("syntax.parse", parse_formula, q.text, IP)
    s = Sequent((), a, IP)
    ip = call("prover_ip.prove", prove_ip, s, want_trace=True)
    if ip.provable:
        if not call("prover_ip.check_trace", check_trace, ip.trace, s):
            return "IP trace rejected"
    else:
        cm = call("algebra.refute", refute, a, max_chain=3)
        if cm is not None and not call("algebra.recheck", cm.recheck):
            return "chain countermodel fails recheck"
    ta = call("translate.godel_translate", godel_translate, a)
    t = Sequent((), ta, EP)
    ep = call("prover_ep.prove", prove_ep, t)
    if ep.provable != ip.provable:
        return f"IP {ip.verdict} but S4 {ep.verdict}"
    if not ep.provable and not call("prover_ep.check_kripke", check_kripke, ep.countermodel, t):
        return "S4 countermodel rejected"
    for st in (Sequent((ta,), Box(ta), EP), Sequent((Box(ta),), ta, EP)):
        if not call("prover_ep.prove", prove_ep, st).provable:
            return f"stability sequent NotProvable: {print_sequent(st)}"
    return None


QUERY_FNS = {
    "soundness": soundness_query,
    "lemma": lemma_query,
    "roundtrip": roundtrip_query,
    "godel": godel_query,
}


# ---------------------------------------------------------------- corpora

def _no_lap() -> None:
    pass


# Each corpus function calls `lap()` after every piece of its work (one
# query or one draw), so that run.py can time set-up piece by piece.

def soundness_corpus(seed: int, sequents: int, lap: Callable = _no_lap) -> list[Query]:
    """Provable EP sequents (max size 8), each under all 16 contexts."""
    out: list[Query] = []
    for s in sample_provable_ep_sequents(sequents, 8, seed):
        text = print_sequent(s)
        out += [Query("soundness", text, i, context_label(i)) for i in range(len(CONTEXTS))]
        lap()
    return out


def _both(x, y):
    return [((x,), y), ((y,), x)]


# The relative-negation schemata of harness.check_lemma_suite, as
# (assumptions, goal) pairs; an interprovability contributes both
# directions.  a, b, c, e are IP formulas; for an EP formula g, x holds
# the translations of g, falsum and ~g under a context whose witness is w.
LEMMAS: dict[str, Callable] = {
    "double_neg": lambda a, b, c, e, x, w: [((a,), double_rel_neg(a, e))],
    "contraposition": lambda a, b, c, e, x, w: [
        ((Impl(a, b),), Impl(rel_neg(b, e), rel_neg(a, e))),
        ((Impl(a, b),), Impl(double_rel_neg(a, e), double_rel_neg(b, e)))],
    "triple_neg": lambda a, b, c, e, x, w: _both(
        rel_neg(a, e), rel_neg(double_rel_neg(a, e), e)),
    "2_neg_con": lambda a, b, c, e, x, w: _both(
        double_rel_neg(Conj(a, b), e), Conj(double_rel_neg(a, e), double_rel_neg(b, e))),
    "2_neg_dis": lambda a, b, c, e, x, w: _both(
        double_rel_neg(Disj(a, b), e),
        double_rel_neg(Disj(double_rel_neg(a, e), double_rel_neg(b, e)), e)),
    "double_double": lambda a, b, c, e, x, w: [
        ((double_rel_neg(a, e),), double_rel_neg(double_rel_neg(a, c), e))],
    "double_neg_imp": lambda a, b, c, e, x, w: [
        ((double_rel_neg(Impl(a, b), e),), Impl(double_rel_neg(a, e), double_rel_neg(b, e)))],
    "imp_double_neg": lambda a, b, c, e, x, w: _both(
        Impl(double_rel_neg(a, e), double_rel_neg(b, e)),
        double_rel_neg(Impl(double_rel_neg(a, e), double_rel_neg(b, e)), e)),
    "bang": lambda a, b, c, e, x, w: _both(
        Impl(a, double_rel_neg(b, e)), Impl(double_rel_neg(a, e), double_rel_neg(b, e))),
    "double_neg_elim": lambda a, b, c, e, x, w: _both(double_rel_neg(x[0], w), x[0]),
    "falsum_consequence": lambda a, b, c, e, x, w: _both(x[1], w),
    "neg_consequence": lambda a, b, c, e, x, w: _both(x[2], rel_neg(x[0], w)),
}
_TRANSLATED = ("double_neg_elim", "falsum_consequence", "neg_consequence")


def certify_corpus(seed: int, lemmas: int, roundtrips: int, roundtrip_size: int,
                   lap: Callable = _no_lap) -> list[Query]:
    """Lemma instances plus ff_simplify round trips, shuffled together."""
    rng = random.Random(seed)
    names = sorted(LEMMAS)
    out: list[Query] = []
    for i in range(lemmas):
        sub = seed * 40009 + i * 17
        name = names[i % len(names)]
        a, b, c, e = (random_formula_sized(5, ["p", "q", "r"], IP, sub + k) for k in range(4))
        ctx = CONTEXTS[rng.randrange(len(CONTEXTS))]
        x = None
        if name in _TRANSLATED:
            g = random_formula_sized(4, ["p", "q"], EP, sub + 5)
            x = (ff_translate(g, ctx), ff_translate(FALSUM, ctx), ff_translate(neg(g), ctx))
        for hyps, goal in LEMMAS[name](a, b, c, e, x, ctx.witness):
            out.append(Query("lemma", print_sequent(Sequent(hyps, goal, IP)), None, name))
        lap()
    for i in range(roundtrips):
        f = random_formula_sized(roundtrip_size, ["p", "q"], EP, seed * 50021 + i)
        ci = rng.randrange(len(CONTEXTS))
        out.append(Query("roundtrip", print_formula(f), ci, context_label(ci)))
        lap()
    rng.shuffle(out)
    return out


def godel_corpus(seed: int, formulas: int, lap: Callable = _no_lap) -> list[Query]:
    """A seeded sample of every IP formula over p, q of size <= 7."""
    pool = enumerate_ip_formulas(7, ("p", "q"))
    lap()
    out: list[Query] = []
    for f in random.Random(seed).sample(pool, formulas):
        out.append(Query("godel", print_formula(f), None, ""))
        lap()
    return out


CORPORA: dict[str, Callable[..., list[Query]]] = {
    "soundness": soundness_corpus,
    "certify": certify_corpus,
    "godel": godel_corpus,
}

# corpus sizes per workload (keyword arguments of its corpus function)
SIZES: dict[str, dict] = {
    "soundness": {"sequents": 60},
    "certify": {"lemmas": 2500, "roundtrips": 2000, "roundtrip_size": 3},
    "godel": {"formulas": 6000},
}


def build(workload: str, seed: int, sizes: Optional[dict] = None,
          lap: Callable = _no_lap) -> list[Query]:
    return CORPORA[workload](seed, **(sizes or SIZES[workload]), lap=lap)
