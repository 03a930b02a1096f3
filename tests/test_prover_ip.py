"""The IP prover against known theorems, non-theorems and its own traces."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings

from conftest import expand_trace, ip_formulas, table_formulas, tables
from epist2int import kernel, prover_ip
from epist2int.algebra import enumerate_heyting_algebras, refute
from epist2int.harness import (
    _IP_LEMMAS,
    _TRANSLATION_LEMMAS,
    _random_ctx,
    enumerate_ip_formulas,
)
from epist2int.kernel import TraceNode, check_trace, trace_to_json, validate_trace
from epist2int.prover_ip import SearchLimitError, prove_ip
from epist2int.syntax import (
    EP,
    FALSUM,
    IP,
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    Impl,
    Sequent,
    atoms_of,
    formula_key,
    neg,
    parse_formula,
    parse_sequent,
    random_formula_sized,
    subformulas,
)
from epist2int.translate import TranslationContext, ff_translate, godel_translate

p, q, r = Atom("p"), Atom("q"), Atom("r")


PROVABLE = [
    "p |- (p -> q) -> q",
    "_|_ |- p",
    "|- p -> p",
    "|- ~~(p \\/ ~p)",
    "|- (p -> q) -> (q -> r) -> p -> r",
    "|- p /\\ q -> q /\\ p",
    "|- p -> p \\/ q",
    "p \\/ q, p -> r, q -> r |- r",
    "|- ~(p /\\ ~p)",
    "|- (p -> q -> r) -> (p /\\ q -> r)",
    "|- ((p \\/ q) -> r) -> (p -> r) /\\ (q -> r)",
    "|- ~~~p -> ~p",
]

NOT_PROVABLE = [
    "|- ((p -> q) -> q) -> p",
    "|- p \\/ ~p",
    "|- ~~p -> p",
    "|- ((p -> q) -> p) -> p",
    "|- (p -> q) \\/ (q -> p)",
    "|- ~(p /\\ q) -> ~p \\/ ~q",
    "q |- p",
    "|- _|_",
]


@pytest.mark.parametrize("s", PROVABLE)
def test_provable(s):
    assert prove_ip(parse_sequent(s)).provable


@pytest.mark.parametrize("s", NOT_PROVABLE)
def test_not_provable(s):
    assert not prove_ip(parse_sequent(s)).provable


def test_reverse_double_negation_refuted_by_algebra():
    # the NotProvable verdict for ((p->q)->q)->p is independently
    # witnessed on the 3-chain with p in the middle and q at the bottom
    # (refute itself already finds a smaller, classical countermodel)
    from epist2int.algebra import evaluate, make_chain

    f = parse_formula("((p -> q) -> q) -> p")
    h = make_chain(3)
    assert evaluate(f, {"p": 1, "q": 0}, h) == 1 != h.top
    cm = refute(f, max_chain=3)
    assert cm is not None and cm.recheck()
    assert not prove_ip(Sequent((), f)).provable


def test_equiv_ip():
    e = Atom("E")
    n = lambda x: Impl(x, e)
    a, b = n(n(n(p))), n(p)
    assert prove_ip(Sequent((a,), b)).provable and prove_ip(Sequent((b,), a)).provable
    assert prove_ip(Sequent((p,), p)).provable
    assert not prove_ip(Sequent((p,), q)).provable


def test_rejects_modal_input():
    with pytest.raises(ValueError, match="prove_ip takes an IP sequent, not one tagged 'ep'"):
        prove_ip(Sequent((), Box(p), "ep"))


def test_rejects_ep_tagged_input():
    # even a box-free one: decide sends an EP-tagged sequent to prove_ep
    with pytest.raises(ValueError, match="not one tagged 'ep'"):
        prove_ip(Sequent((), p, EP))


def test_duplicate_assumptions_collapse():
    a = prove_ip(Sequent((p, p, p), q))
    b = prove_ip(Sequent((p,), q))
    assert not a.provable and not b.provable
    assert a.nodes_expanded == b.nodes_expanded


def test_deterministic_stats():
    s = parse_sequent("|- ~~(p \\/ ~p)")
    runs = [prove_ip(s, want_trace=True) for _ in range(3)]
    assert len({res.nodes_expanded for res in runs}) == 1
    assert all(check_trace(res.trace, s) for res in runs)


def test_node_cap():
    with pytest.raises(SearchLimitError):
        prove_ip(parse_sequent("|- ~~(p \\/ ~p)"), node_cap=2)


@pytest.mark.parametrize("cap", [True, False, "5", 2.5, 0, -1])
def test_node_cap_must_be_a_positive_int(cap):
    with pytest.raises(ValueError, match="node_cap must be None or a positive int"):
        prove_ip(parse_sequent("|- ~~(p \\/ ~p)"), node_cap=cap)


def test_termination_on_large_formula():
    # size > 40, mixing every connective; must return (not hang)
    f = p
    for i in range(12):
        g = [q, r, neg(p), Disj(q, r)][i % 4]
        f = Impl(Disj(Conj(f, g), neg(f)), g)
    res = prove_ip(Sequent((), f))
    assert res.verdict in ("Provable", "NotProvable")


def test_termination_sweep_size_40():
    from epist2int.syntax import random_formula_sized

    for i in range(30):
        f = random_formula_sized(40, ["p", "q", "r"], "ip", seed=60000 + i, max_depth=6)
        prove_ip(Sequent((), f))


class TestTraces:
    def test_trace_accepted(self):
        s = parse_sequent("p |- (p -> q) -> q")
        res = prove_ip(s, want_trace=True)
        assert res.provable and check_trace(res.trace, s)

    def test_trace_rejects_other_sequent(self):
        s = parse_sequent("p |- (p -> q) -> q")
        res = prove_ip(s, want_trace=True)
        assert not check_trace(res.trace, parse_sequent("p |- (p -> r) -> r"))

    def test_forged_rule_rejected(self):
        s = parse_sequent("p |- (p -> q) -> q")
        res = prove_ip(s, want_trace=True)
        forged = res.trace._replace(rule="L-impl-impl")
        err = validate_trace(forged, s)
        assert err is not None and "L-impl-impl" in err

    def test_forged_premise_rejected(self):
        s = parse_sequent("|- p -> p")
        res = prove_ip(s, want_trace=True)
        bad_leaf = TraceNode("axiom", frozenset({q}), q, q, ())
        forged = res.trace._replace(premises=(bad_leaf,))
        assert not check_trace(forged, s)

    def test_empty_trace_rejected(self):
        assert not check_trace(None, parse_sequent("|- p -> p"))

    def test_trace_premises_missing(self):
        s = parse_sequent("|- p -> p")
        res = prove_ip(s, want_trace=True)
        forged = res.trace._replace(premises=())
        assert not check_trace(forged, s)

    @pytest.mark.parametrize("s", PROVABLE)
    def test_all_provable_traces_check(self, s):
        seq = parse_sequent(s)
        res = prove_ip(seq, want_trace=True)
        assert validate_trace(res.trace, seq) is None

    def test_falsum_node_must_name_falsum(self):
        s = parse_sequent("_|_ |- p")
        res = prove_ip(s, want_trace=True)
        assert res.trace.rule == "L-falsum" and check_trace(res.trace, s)
        forged = res.trace._replace(principal=q)
        assert validate_trace(forged, s) == "root: bad L-falsum instance"

    def test_right_rule_names_no_principal(self):
        s = parse_sequent("|- p -> p")
        res = prove_ip(s, want_trace=True)
        forged = res.trace._replace(principal=q)
        assert validate_trace(forged, s) == "root: bad R-impl instance"

    def test_non_node_rejected(self):
        s = parse_sequent("|- p -> p")
        res = prove_ip(s, want_trace=True)
        forged = res.trace._replace(premises=(None,))
        assert not check_trace(forged, s)
        assert validate_trace(forged, s) == "root.0: not a trace node"
        assert not check_trace("p -> p", s)
        assert validate_trace("p -> p", s) == "root: not a trace node"
        for field in ({"premises": None}, {"rule": ["R-impl"]}):
            forged = res.trace._replace(**field)
            assert not check_trace(forged, s)
            assert validate_trace(forged, s) == "root: rule is not a string or premises not a tuple"

    def test_error_path_names_the_node(self):
        s = parse_sequent("|- (p -> q) -> (q -> r) -> p -> r")
        res = prove_ip(s, want_trace=True)
        inner = res.trace.premises[0].premises[0]
        forged_inner = inner._replace(premises=())
        forged = res.trace._replace(premises=(
            res.trace.premises[0]._replace(premises=(forged_inner,)),))
        err = validate_trace(forged, s)
        assert err.startswith(f"root.0.0: {inner.rule} wants ")

    def test_root_mismatch_has_no_path(self):
        res = prove_ip(parse_sequent("p, q |- p /\\ q"), want_trace=True)
        assert (validate_trace(res.trace, parse_sequent("p |- p /\\ p"))
                == "root conclusion does not match the queried sequent")

    def test_first_fault_in_walk_order_is_reported(self):
        # premise 0 is a bad axiom and premise 1 concludes the wrong goal:
        # the walk meets premise 0's fault first
        s = parse_sequent("p, q |- p /\\ q")
        res = prove_ip(s, want_trace=True)
        left, right = res.trace.premises
        forged = res.trace._replace(premises=(left._replace(principal=q),
                                              right._replace(goal=p)))
        assert validate_trace(forged, s) == "root.0: bad axiom instance"

    def test_shared_premise_forged_once(self):
        s = parse_sequent("p |- p /\\ p")
        res = prove_ip(s, want_trace=True)
        left, right = res.trace.premises
        assert left is right
        bad = left._replace(principal=q)
        assert validate_trace(res.trace._replace(premises=(bad, bad)), s) == "root.0: bad axiom instance"
        # one step, referenced twice
        doc = trace_to_json(res.trace)
        assert [step["rule"] for step in doc["steps"]] == ["axiom", "R-conj"]
        assert doc["steps"][-1]["premises"] == [0, 0]

    def test_no_trace_when_not_requested(self):
        res = prove_ip(parse_sequent("|- p -> p"))
        assert res.provable and res.trace is None


@settings(max_examples=200, deadline=None)
@given(ip_formulas())
def test_provable_formulas_never_refuted(f):
    if prove_ip(Sequent((), f)).provable:
        assert refute(f, max_chain=3) is None


@settings(max_examples=100, deadline=None)
@given(ip_formulas(max_leaves=5))
def test_weakening(f):
    # adding assumptions never destroys provability
    if prove_ip(Sequent((), f)).provable:
        assert prove_ip(Sequent((q,), f)).provable
        assert prove_ip(Sequent((Impl(q, r), FALSUM), f)).provable


def _lemma_sequents(count: int, seed: int = 0) -> list[Sequent]:
    """The first `count` sequents of seeded instances of the harness's
    relative-negation and translation lemma schemata, taken in turn: the
    kind of sequent the certify benchmark proves and checks."""
    schemata = [*_IP_LEMMAS.items(), *_TRANSLATION_LEMMAS.items()]
    rng = random.Random(seed)
    out: list[Sequent] = []
    for i in itertools.count():
        name, schema = schemata[i % len(schemata)]
        sub = seed * 40009 + i * 17
        if name in _TRANSLATION_LEMMAS:
            pairs = schema(random_formula_sized(4, ["p", "q"], EP, sub + 3), _random_ctx(sub, rng))
        else:
            pairs = schema(*(random_formula_sized(5, ["p", "q", "r"], IP, sub + k)
                             for k in range(3)))
        out += [Sequent(hyps, goal, IP) for hyps, goal in pairs]
        if len(out) >= count:
            return out[:count]


def test_ip_search_order_is_pinned():
    """The G4ip search order, pinned on 300 lemma sequents and 200
    criterion-6 formulas: verdicts, the summed nodes_expanded and
    max_depth, and the digests of every trace_to_json, as written and
    expanded into the nested schema-1 document the order was first
    pinned on."""
    pool = enumerate_ip_formulas(7, ("p", "q"))
    sequents = _lemma_sequents(300) + [Sequent((), a, IP) for a in random.Random(0).sample(pool, 200)]
    results = [prove_ip(s, want_trace=True) for s in sequents]
    assert sum(r.provable for r in results) == 344
    assert sum(r.nodes_expanded for r in results) == 2769
    assert sum(r.max_depth for r in results) == 1762
    docs = [trace_to_json(r.trace) if r.provable else None for r in results]
    nested = [expand_trace(d) if d is not None else None for d in docs]
    digest = hashlib.sha256(json.dumps(nested).encode()).hexdigest()
    assert digest == "449a101aaed498597d604705309ff0e749fed2df580c7bd9edd7353d32b0bb44"
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == "a4db565a68c95850e0d2d2f8b97641bffbdd649939780e05cb589874ae0d6af5"


def test_trace_document_reads_back_to_the_trace():
    """Each trace document, read back by a test-only reader, is a trace
    that check_trace accepts, with one step per distinct node, each
    premise an earlier step and the root last."""
    for s in _lemma_sequents(60):
        res = prove_ip(s, want_trace=True)
        if not res.provable:
            continue
        doc = json.loads(json.dumps(trace_to_json(res.trace)))
        formulas, nodes = table_formulas(doc["formulas"]), []
        for i, step in enumerate(doc["steps"]):
            assert all(k < i for k in step["premises"])
            assert step["assumptions"] == sorted(set(step["assumptions"]))
            principal = step["principal"]
            nodes.append(TraceNode(step["rule"], frozenset(formulas[k] for k in step["assumptions"]),
                                   formulas[step["goal"]],
                                   formulas[principal] if principal is not None else None,
                                   tuple(nodes[k] for k in step["premises"])))
        original = kernel._distinct_nodes(res.trace)
        step = {id(n): i for i, n in enumerate(original)}
        assert [n[:4] for n in nodes] == [n[:4] for n in original]
        assert [[step[id(m)] for m in n.premises] for n in original] == [
            step["premises"] for step in doc["steps"]]
        assert check_trace(nodes[-1], s)


# ---------------------------------------------------------------- principal order
# Where a rule takes several context formulas, the principal is the least
# by formula_key.  The invertible one-premise left rules share one bucket;
# L-disj and L-impl-impl have one each.

_BUCKETS = {rule: bucket for bucket in (("L-conj", "L-impl-mp", "L-impl-conj", "L-impl-disj"),
                                        ("L-disj",), ("L-impl-impl",))
            for rule in bucket}

TIES = {
    "L-conj": "p /\\ q, r /\\ s |- q /\\ s",
    "L-impl-mp": "p, p -> q, p -> r |- q /\\ r",
    "L-impl-conj": "(p /\\ q) -> r, (p \\/ q) -> s, p, q |- r /\\ s",
    "L-disj": "p \\/ q, r \\/ s |- (q \\/ p) /\\ (s \\/ r)",
    # the least candidate, (p -> q) -> r, fails: p -> q does not follow
    "L-impl-impl": "(p -> q) -> r, (s -> s) -> u, u -> w |- w",
}
# the least candidate, (p -> p) -> r, would succeed (r -> u then gives u),
# but (s -> s) -> u has the goal as its consequent, so it goes first
GOAL_FIRST = "(p -> p) -> r, (s -> s) -> u, r -> u |- u"


@pytest.mark.parametrize("rule, text", [*TIES.items(), ("L-impl-impl", GOAL_FIRST)],
                         ids=[*TIES, "L-impl-impl-goal-first"])
def test_ties_go_to_the_least_formula_key(rule, text):
    s = parse_sequent(text)
    res = prove_ip(s, want_trace=True)
    assert res.provable and check_trace(res.trace, s)
    tied = goal_first = False
    for n in kernel._distinct_nodes(res.trace):
        if n.rule not in _BUCKETS:
            continue
        takers = [f for f in n.context
                  if any(kernel._RULES[r](n.context, n.goal, f) is not None
                         for r in _BUCKETS[n.rule])]
        if n.rule == "L-impl-impl":
            # a lesser candidate is passed over only when a premise fails,
            # when it is left out because its consequent is in the context,
            # or when the principal's consequent is the goal and its own is not
            lesser = [f for f in takers if formula_key(f) < formula_key(n.principal)
                      and f.right not in n.context]
            for f in lesser:
                premises = kernel._RULES[n.rule](n.context, n.goal, f)
                if all(prove_ip(Sequent(tuple(c), g)).provable for c, g in premises):
                    assert n.principal.right is n.goal and f.right is not n.goal
                    goal_first = True
            tied |= n.rule == rule and bool(lesser)
        else:
            assert n.principal == min(takers, key=formula_key)
            tied |= n.rule == rule and len(takers) > 1
    assert tied, f"no node of the trace of {text} chose among {rule} candidates"
    assert goal_first == (text == GOAL_FIRST)


def test_no_printed_keys_without_ties(monkeypatch):
    calls = []

    def counting_key(f):
        calls.append(f)
        return formula_key(f)

    monkeypatch.setattr(prover_ip, "formula_key", counting_key)
    res = prove_ip(parse_sequent("|- (p -> q) -> (q -> r) -> p -> r"), want_trace=True)
    assert res.provable and calls == []
    prove_ip(parse_sequent(TIES["L-conj"]))
    assert calls  # the wrapper does see the keys a tie asks for


@pytest.mark.parametrize("text", ["p \\/ q, p \\/ q -> r |- r", "p -> q, (p -> q) -> r |- r"],
                         ids=["disj", "impl"])
def test_modus_ponens_on_any_antecedent(text):
    s = parse_sequent(text)
    res = prove_ip(s, want_trace=True)
    assert res.trace.rule == "L-impl-mp" and res.nodes_expanded == 2
    assert check_trace(res.trace, s)


def test_modus_ponens_on_a_conjunction_antecedent():
    # the search takes L-conj on the conjunction first (its printed form is
    # a prefix of the implication's), so the rule is checked as check_trace
    # reads it
    s = parse_sequent("p /\\ q, p /\\ q -> r |- r")
    ctx, f = frozenset(s.assumptions), s.assumptions[1]
    leaf = TraceNode("axiom", ctx - {f} | {r}, r, r, ())
    assert check_trace(TraceNode("L-impl-mp", ctx, r, f, (leaf,)), s)
    assert kernel._RULES["L-impl-mp"](ctx - {s.assumptions[0]}, r, f) is None


def test_choices_put_the_goal_first():
    # at a choice point: the L-impl-impl whose consequent is the goal, then
    # R-disj, then the other L-impl-impl candidates, each by formula_key
    closing, lesser, greater = (parse_formula(t) for t in
                                ("(s -> s) -> q \\/ r", "(p -> p) -> u", "(t -> t) -> u"))
    ctx = frozenset({greater, closing, lesser})
    assert prover_ip._choices(ctx, parse_formula("q \\/ r")) == (
        ("L-impl-impl", closing), ("R-disj-1", None), ("R-disj-2", None),
        ("L-impl-impl", lesser), ("L-impl-impl", greater))
    assert prover_ip._choices(ctx, Atom("u")) == (
        ("L-impl-impl", lesser), ("L-impl-impl", greater), ("L-impl-impl", closing))
    assert prover_ip._choices(ctx, Atom("v")) == (
        ("L-impl-impl", lesser), ("L-impl-impl", closing), ("L-impl-impl", greater))


def test_goal_first_proves_the_costliest_certify_query_at_once():
    # seed 0's costliest certify query: 537 nodes when R-disj went first
    s = parse_sequent("((p -> p \\/ p) \\/ q -> q \\/ q \\/ p) -> q \\/ q \\/ p |- "
                      "((((p -> p \\/ p) -> q \\/ q \\/ p) -> q \\/ q \\/ p) \\/ "
                      "((q -> q \\/ q \\/ p) -> q \\/ q \\/ p) -> q \\/ q \\/ p) -> q \\/ q \\/ p")
    res = prove_ip(s, want_trace=True)
    assert res.provable and res.nodes_expanded == 17
    assert validate_trace(res.trace, s) is None


def test_goal_first_retracts_a_translated_disjunction():
    # T(G(A)) |- A for A = p \/ ~q, under A followed by its distinct
    # subformulas with witness A: over 500 000 nodes when R-disj went first
    a = parse_formula("p \\/ ~q")
    gamma = tuple(dict.fromkeys(subformulas(a)))
    s = Sequent((ff_translate(godel_translate(a), TranslationContext(gamma, 0)),), a, IP)
    res = prove_ip(s, want_trace=True, node_cap=10_000)
    assert res.provable and validate_trace(res.trace, s) is None


def test_choice_leaves_out_an_implication_whose_consequent_is_present():
    # (p -> p) -> r is the least L-impl-impl candidate and would succeed,
    # but r is already in the context, so the search takes the other one
    s = parse_sequent("(p -> p) -> r, r, (s -> s) -> u, u -> w |- w")
    res = prove_ip(s, want_trace=True)
    assert res.trace.rule == "L-impl-impl"
    assert res.trace.principal == parse_formula("(s -> s) -> u")
    assert check_trace(res.trace, s)


def test_trace_to_json_deep_chain():
    n = TraceNode("axiom", frozenset({p}), p, p, ())
    for _ in range(4999):
        n = TraceNode("R-impl", frozenset(), Impl(p, p), None, (n,))
    # flat, so json.dumps writes it at the default recursion limit
    doc = json.loads(json.dumps(trace_to_json(n)))
    assert doc["formulas"] == [{"node": "atom", "name": "p"}, {"node": "impl", "children": [0, 0]}]
    axiom, *steps = doc["steps"]
    assert axiom == {"rule": "axiom", "assumptions": [0], "goal": 0, "principal": 0, "premises": []}
    assert len(steps) == 4999
    assert all(step == {"rule": "R-impl", "assumptions": [], "goal": 1, "principal": None,
                        "premises": [k]} for k, step in enumerate(steps))


def test_validate_trace_deep_chain():
    # |- p -> p -> ... -> p: 4999 R-impl nodes, then an axiom
    goal, n = p, TraceNode("axiom", frozenset({p}), p, p, ())
    for k in range(4999):
        goal = Impl(p, goal)
        n = TraceNode("R-impl", frozenset() if k == 4998 else frozenset({p}), goal, None, (n,))
    s = Sequent((), goal, IP)
    assert validate_trace(n, s) is None
    # the same chain with its deepest node corrupted
    chain = [n]
    while chain[-1].premises:
        chain.append(chain[-1].premises[0])
    forged = chain[-1]._replace(principal=q)
    for node in reversed(chain[:-1]):
        forged = node._replace(premises=(forged,))
    assert validate_trace(forged, s) == "root" + ".0" * 4999 + ": bad axiom instance"


def test_deep_implication_chain():
    # |- a0 -> a1 -> ... -> a600 -> a0: 601 R-impl nodes above an axiom,
    # one prove frame each
    atoms = [Atom(f"a{i}") for i in range(601)]
    goal = atoms[0]
    for a in reversed(atoms):
        goal = Impl(a, goal)
    s = Sequent((), goal, IP)
    res = prove_ip(s, want_trace=True)
    assert res.provable and res.max_depth == 601
    assert res.trace.count_nodes() == 602
    assert check_trace(res.trace, s)


def test_count_nodes_deep_chain():
    n = TraceNode("axiom", frozenset({p}), p, p, ())
    for _ in range(4999):
        n = TraceNode("R-impl", frozenset(), Impl(p, p), None, (n,))
    assert n.count_nodes() == 5000
    # shared premises count once
    assert TraceNode("R-conj", frozenset(), p, None, (n, n)).count_nodes() == 5001


# ---------------------------------------------------------------- the rule table
# Checked against the semantics, not against the search: every instance
# _RULES admits on a corpus of sequents must be sound in every Heyting
# algebra of at most 4 elements, pointwise: under each valuation where
# every premise holds, the conclusion holds.

def _rule_instances() -> list[tuple]:
    """Every (rule, ctx, goal, principal, premises) that _RULES admits,
    with no principal, the goal or a context formula, on the sequents of
    the traces of 150 lemma sequents and of PROVABLE, and on the premise
    sequents it gives those (which need not be provable)."""
    roots = _lemma_sequents(150) + [parse_sequent(t) for t in PROVABLE]
    todo = [prove_ip(s, want_trace=True).trace for s in roots]
    traced = set()
    while todo:
        n = todo.pop()
        if (n.context, n.goal) not in traced:
            traced.add((n.context, n.goal))
            todo.extend(n.premises)

    def admitted(sequents):
        return [(rule, ctx, goal, principal, premises)
                for ctx, goal in sequents
                for rule, premises_of in kernel._RULES.items()
                for principal in (None, goal, *ctx)
                if (premises := premises_of(ctx, goal, principal)) is not None]

    first = admitted(traced)
    return first + admitted({p for *_, premises in first for p in premises} - traced)


def _unsound(instances: list[tuple]) -> list[tuple]:
    """The instances with a point where every premise holds and the
    conclusion does not.  A point is an algebra and a valuation; a sequent
    holds at it when the meet of its context is below its goal."""
    names = sorted(set().union(*(atoms_of(f) for _, ctx, goal, _, _ in instances
                                 for f in (*ctx, goal))))
    points = [(h, t, dict(zip(names, vals)))
              for h, t in ((h, tables(h)) for h in enumerate_heyting_algebras(4))
              for vals in itertools.product(range(h.size), repeat=len(names))]
    ops = {Conj: "meet", Disj: "join", Impl: "rpc"}
    values: dict = {}  # formula -> its value at each point
    masks: dict = {}   # sequent -> bitmask of the points where it holds

    def value(f):
        got = values.get(f)
        if got is None:
            if isinstance(f, Atom):
                got = tuple(v[f.name] for _, _, v in points)
            elif isinstance(f, Falsum):
                got = tuple(h.bottom for h, _, _ in points)
            else:
                op = ops[type(f)]
                got = tuple(getattr(t, op)[x][y]
                            for (_, t, _), x, y in zip(points, value(f.left), value(f.right)))
            values[f] = got
        return got

    def holds(ctx, goal) -> int:
        got = masks.get((ctx, goal))
        if got is None:
            meet = tuple(h.top for h, _, _ in points)
            for f in ctx:
                meet = tuple(t.meet[x][y] for (_, t, _), x, y in zip(points, meet, value(f)))
            got = sum(1 << i for i, ((_, t, _), m, g) in enumerate(zip(points, meet, value(goal)))
                      if t.leq[m][g])
            masks[ctx, goal] = got
        return got

    bad = []
    for inst in instances:
        _, ctx, goal, _, premises = inst
        need = (1 << len(points)) - 1
        for sequent in premises:
            need &= holds(*sequent)
        if need & ~holds(ctx, goal):
            bad.append(inst)
    return bad


def test_rules_sound_in_small_heyting_algebras():
    instances = _rule_instances()
    assert {rule for rule, *_ in instances} == set(kernel._RULES)
    assert {type(principal.left) for rule, _, _, principal, _ in instances
            if rule == "L-impl-mp"} >= {Atom, Conj, Disj, Impl}
    assert len(instances) > 6000
    assert _unsound(instances) == []


def test_semantic_check_catches_an_unsound_rule(monkeypatch):
    def without_side_condition(ctx, goal, f):
        # L-impl-mp without requiring its antecedent in the context
        if isinstance(f, Impl) and f in ctx:
            return [(ctx - {f} | {f.right}, goal)]

    monkeypatch.setitem(kernel._RULES, "L-impl-mp", without_side_condition)
    bad = _unsound(_rule_instances())
    assert bad and {rule for rule, *_ in bad} == {"L-impl-mp"}
    assert all(principal.left not in ctx for _, ctx, _, principal, _ in bad)
