import copy
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given

from conftest import ep_formulas, expand_tree, ip_formulas, table_formulas
import epist2int
from epist2int import syntax
from epist2int.syntax import (
    EP,
    FALSUM,
    IP,
    VERUM,
    Atom,
    Box,
    Conj,
    Disj,
    Falsum,
    FormulaTable,
    Impl,
    ParseError,
    Sequent,
    atoms_of,
    formula_key,
    formula_size,
    is_ip_formula,
    neg,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    random_formula,
    random_formula_sized,
    subformulas,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


@pytest.mark.parametrize("text,expected", [
    ("p -> q -> r", Impl(p, Impl(q, r))),
    ("~p", Impl(p, FALSUM)),
    ("p /\\ q /\\ r", Conj(Conj(p, q), r)),
    ("p \\/ q \\/ r", Disj(Disj(p, q), r)),
    ("p /\\ q \\/ r", Disj(Conj(p, q), r)),
    ("p \\/ q -> r", Impl(Disj(p, q), r)),
    ("~p -> q", Impl(Impl(p, FALSUM), q)),
    ("~~p", neg(neg(p))),
    ("_|_", FALSUM),
    ("T", VERUM),
    ("(p -> q) -> r", Impl(Impl(p, q), r)),
    ("my_atom1 -> x2", Impl(Atom("my_atom1"), Atom("x2"))),
])
def test_parse_golden(text, expected):
    assert parse_formula(text, IP) == expected


@pytest.mark.parametrize("text,expected", [
    ("[]p", Box(p)),
    ("[][]p", Box(Box(p))),
    ("~[]p", neg(Box(p))),
    ("[](p -> q)", Box(Impl(p, q))),
    ("[]p -> q", Impl(Box(p), q)),
])
def test_parse_modal(text, expected):
    assert parse_formula(text, EP) == expected


@pytest.mark.parametrize("formula,expected", [
    (Impl(p, FALSUM), "~p"),
    (Box(p), "[]p"),
    (Conj(p, Disj(q, r)), "p /\\ (q \\/ r)"),
    (Impl(p, Impl(q, r)), "p -> q -> r"),
    (Impl(Impl(p, q), r), "(p -> q) -> r"),
    (Conj(p, Conj(q, r)), "p /\\ (q /\\ r)"),
    (neg(Conj(p, q)), "~(p /\\ q)"),
    (Conj(neg(p), q), "~p /\\ q"),
    (VERUM, "~_|_"),
    (Impl(Impl(p, q), q), "(p -> q) -> q"),
    (Box(Conj(p, q)), "[](p /\\ q)"),
])
def test_print_golden(formula, expected):
    assert print_formula(formula) == expected


def test_print_pretty_relative_negation():
    e = Atom("E")
    f = Impl(Impl(p, e), e)
    assert print_formula(f, relneg=[e]) == "neg[E](neg[E](p))"
    assert print_formula(f) == "(p -> E) -> E"


def test_print_relative_negation_is_pinned():
    # neg[E](A) output over every IP formula of up to 5 nodes and seeded EP
    # formulas, under sets that hold an atom, a compound, ~p and _|_ (which
    # ~ overrides), and over FF translations under their own gamma, raw and
    # simplified; the digest must not move
    from epist2int.harness import DEFAULT_GAMMA_POOL, enumerate_ip_formulas, gamma_contexts
    from epist2int.translate import ff_simplify, ff_translate

    corpus = enumerate_ip_formulas(5) + [random_formula_sized(12, ["p", "q", "r"], EP, seed)
                                         for seed in range(1000)]
    sets = ([p], [q], [p, q], [FALSUM, p], [Impl(p, q)], [neg(p)])
    lines = [print_formula(f, relneg=s) for f in corpus for s in sets]
    ctxs = gamma_contexts(DEFAULT_GAMMA_POOL, 2)
    for i, f in enumerate(corpus[-300:]):
        ctx = ctxs[i % len(ctxs)]
        raw = ff_translate(f, ctx)
        lines += print_formula(raw, relneg=ctx.gamma), print_formula(ff_simplify(raw), relneg=ctx.gamma)
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert len(lines) == 9696
    assert digest == "8168cf28f84eb1e3258f1d193d7cf0e4fa82f0f7c7ce8e64a5677c746580220a"


def test_box_rejected_in_ip():
    with pytest.raises(ParseError) as exc:
        parse_formula("[]p", IP)
    assert "Box not allowed in IP" in str(exc.value)
    assert exc.value.position == 0


FORMULA_ERRORS = [
    ("", "unexpected end of input (at position 0)"),
    ("p ->", "unexpected end of input (at position 4)"),
    ("(p", "unexpected end of input (at position 2)"),
    ("p q", "trailing input 'q' (at position 2)"),
    ("p -> (q", "unexpected end of input (at position 7)"),
    ("/\\ p", "unexpected token '/\\\\' (at position 0)"),
    ("p @ q", "unexpected character '@' (at position 2)"),
    ("(p q)", "expected rpar, found 'q' (at position 3)"),
    ("p ) q", "trailing input ')' (at position 2)"),
    ("(p -> q @", "unexpected character '@' (at position 8)"),
]


@pytest.mark.parametrize("bad,message", FORMULA_ERRORS, ids=[bad for bad, _ in FORMULA_ERRORS])
def test_parse_errors_have_positions(bad, message):
    with pytest.raises(ParseError) as exc:
        parse_formula(bad, IP)
    assert str(exc.value) == message


SEQUENT_ERRORS = [
    ("p |- q r", "trailing input 'r' (at position 7)"),
    ("(p, q) |- r", "expected rpar, found ',' (at position 2)"),
    ("p q |- r", "expected turnstile, found 'q' (at position 2)"),
    ("p, q", "unexpected end of input (at position 4)"),
    ("|- , p", "unexpected token ',' (at position 3)"),
    ("  ", "empty sequent (at position 0)"),
    ("p, |- q", "unexpected token '|-' (at position 3)"),
    ("|-", "unexpected end of input (at position 2)"),
    ("p |-", "unexpected end of input (at position 4)"),
    (", p |- q", "unexpected token ',' (at position 0)"),
    ("p |- q |- r", "trailing input '|-' (at position 7)"),
    ("p |- q,", "trailing input ',' (at position 6)"),
    ("[]p |- p", "Box not allowed in IP (at position 0)"),
]


@pytest.mark.parametrize("bad,message", SEQUENT_ERRORS, ids=[bad for bad, _ in SEQUENT_ERRORS])
def test_sequent_parse_errors(bad, message):
    with pytest.raises(ParseError) as exc:
        parse_sequent(bad, IP)
    assert str(exc.value) == message


# the parser keeps its own stacks, so nesting depth costs no Python stack
def test_parse_deep_parentheses():
    assert parse_formula("(" * 5000 + "p" + ")" * 5000) is p


def test_parse_deep_negation():
    f = parse_formula("~" * 5000 + "p")
    for _ in range(5000):
        assert f.right is FALSUM
        f = f.left
    assert f is p


@pytest.mark.parametrize("name", ["T", "p q", "1x", "_a", "", "p\n", "é", 7])
def test_atom_rejects_bad_names(name):
    with pytest.raises(ValueError, match="bad atom name"):
        Atom(name)


def test_atom_names_round_trip():
    for name in ("p", "x1", "my_atom_2", "Tt", "E"):
        assert parse_formula(print_formula(Atom(name))) is Atom(name)


def test_sequent_parsing():
    s = parse_sequent("p, q |- p /\\ q")
    assert s.assumptions == (p, q)
    assert s.goal == Conj(p, q)
    assert print_sequent(s) == "p, q |- p /\\ q"
    assert parse_sequent("|- p").assumptions == ()
    assert print_sequent(parse_sequent("|- p")) == "|- p"


def test_sequent_validates_logic():
    with pytest.raises(ValueError, match="Box not allowed"):
        Sequent((Box(p),), p, IP)
    Sequent((Box(p),), p, EP)


def test_sequent_errors_in_order():
    with pytest.raises(ValueError) as exc:
        Sequent((p,), Box(p), IP)
    assert str(exc.value) == "Box not allowed in IP sequent"
    Sequent((p,), Box(p), EP)
    # the assumptions' tuple first, then the logic tag, then each member in order
    for assumptions, goal in [((p,), p), ((Box(p), "q"), "r")]:
        with pytest.raises(ValueError) as exc:
            Sequent(assumptions, goal, "s4")
        assert str(exc.value) == "unknown logic tag 's4'"
    with pytest.raises(ValueError, match="^Box not allowed in IP sequent$"):
        Sequent((p, Box(q), "r"), "s", IP)
    with pytest.raises(TypeError, match="^sequent assumption 0 is not a formula: 'r'$"):
        Sequent(("r", Box(q)), p, IP)
    with pytest.raises(TypeError, match="^sequent goal is not a formula: None$"):
        Sequent((p, q), None, IP)


@pytest.mark.parametrize("make", [list, lambda fs: (f for f in fs), iter, lambda fs: "p"],
                         ids=["list", "generator", "iterator", "str"])
def test_sequent_rejects_non_tuple_assumptions(make):
    """A generator would be used up by the member checks and stored
    empty, so p |- p would be decided as |- p; an iterator cannot be
    indexed by prove_ep; a list makes an unhashable sequent.  Each is
    refused before any other check, a bad logic tag included."""
    for logic in (IP, EP, "s4"):
        assumptions = make([p])
        with pytest.raises(TypeError, match="^sequent assumptions are not a tuple: "):
            Sequent(assumptions, p, logic)


@pytest.mark.parametrize("logic", [IP, EP])
def test_sequent_rejects_non_formula_members(logic):
    with pytest.raises(TypeError, match="goal is not a formula: 'p'"):
        Sequent((p,), "p", logic)
    with pytest.raises(TypeError, match="assumption 1 is not a formula: 'q'"):
        Sequent((p, "q"), p, logic)


def test_sequent_is_a_frozen_value():
    s = Sequent(goal=Impl(p, Box(q)), assumptions=(p,), logic=EP)
    assert s == Sequent((p,), Impl(p, Box(q)), EP)
    assert hash(s) == hash(Sequent((p,), Impl(p, Box(q)), EP))
    assert Sequent((p,), q) == Sequent((p,), q, IP) != Sequent((p,), q, EP)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'goal'"):
        s.goal = p
    assert dataclasses.replace(s, goal=q) == Sequent((p,), q, EP)
    with pytest.raises(ValueError, match="^Box not allowed in IP sequent$"):
        dataclasses.replace(s, logic=IP)
    assert repr(s) == ("Sequent(assumptions=(Atom(name='p'),), goal=Impl(left=Atom(name='p'), "
                       "right=Box(inner=Atom(name='q'))), logic='ep')")


@pytest.mark.parametrize("call,tag", [
    (lambda: parse_formula("[]p", "IP"), "IP"),
    (lambda: parse_formula("[]p", "s4"), "s4"),
    (lambda: parse_formula("p", "s4"), "s4"),
    (lambda: parse_sequent("p |- p", "s4"), "s4"),
    (lambda: random_formula(3, ["p"], "s4"), "s4"),
    (lambda: random_formula_sized(5, ["p"], "s4"), "s4"),
])
def test_unknown_logic_tag_is_rejected(call, tag):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"unknown logic tag {tag!r}"


def test_roundtrip_bulk():
    for seed in range(10000):
        f = random_formula(3, ["p", "q", "r"], EP, seed)
        assert parse_formula(print_formula(f), EP) == f


@given(ep_formulas())
def test_roundtrip_hypothesis(f):
    assert parse_formula(print_formula(f), EP) == f


@pytest.mark.parametrize("logic", [IP, EP])
@given(data=st.data())
def test_sequent_roundtrip_hypothesis(logic, data):
    formulas = ep_formulas() if logic == EP else ip_formulas()
    s = Sequent(tuple(data.draw(st.lists(formulas, max_size=3))), data.draw(formulas), logic)
    assert parse_sequent(print_sequent(s), logic) == s


@given(ep_formulas())
def test_formula_key_is_the_printed_form(f):
    # a relneg set that matches nothing takes the uncached path of the same loop
    assert formula_key(f) == print_formula(f) == print_formula(f, relneg=[Atom("unused")])


@given(ep_formulas())
def test_atoms_of(f):
    assert atoms_of(f) == {g.name for g in subformulas(f) if isinstance(g, Atom)}


def test_atoms_of_seeded_formulas():
    for seed in range(2000):
        f = random_formula(5, ["p", "q", "r", "s"], EP, seed)
        assert atoms_of(f) == {g.name for g in subformulas(f) if type(g) is Atom}, seed


def test_atoms_of_visits_each_distinct_node_once():
    """ff_translate([]^13 p) under q, r, q -> r as a DAG of 110 distinct
    nodes, whose tree holds 3^13 copies of p: a walk over every occurrence
    would take seconds, and interning built the set once per node."""
    gamma = (q, r, Impl(q, r))
    level = [Impl(Impl(p, e), e) for e in gamma]
    for _ in range(13):
        body = Conj(level[0], Conj(level[1], level[2]))
        level = [Impl(Impl(body, e), e) for e in gamma]
    table = FormulaTable()
    assert table.add(level[0]) + 1 == 110
    start = time.perf_counter()
    assert atoms_of(level[0]) == {"p", "q", "r"}
    assert time.perf_counter() - start < 1.0


def _deep(n):
    """n levels cycling through every node kind, over p."""
    f = p
    for i in range(n):
        f = [neg(f), Box(f), Conj(f, q), Disj(q, f), Impl(f, q), Impl(q, f)][i % 6]
    return f


# printing builds keys from child keys over an explicit stack, so nesting
# depth costs no Python stack
def test_formula_key_deep():
    f = p
    for _ in range(5000):
        f = neg(f)
    assert formula_key(f) == "~" * 5000 + "p"
    g = _deep(5000)
    assert parse_formula(print_formula(g), EP) is g
    e = Atom("E")
    h = p
    for _ in range(5000):
        h = Impl(h, e)
    assert print_formula(h, relneg=[e]) == "neg[E](" * 5000 + "p" + ")" * 5000


def test_formula_table_deep():
    f = _deep(5000)
    table = FormulaTable()
    assert table.add(f) == len(table.entries) - 1
    # flat, so json.dumps writes it at the default recursion limit
    entries = json.loads(json.dumps(table.entries))
    # one entry per level, and p, q and _|_
    assert len(entries) == 5003
    assert table_formulas(entries)[-1] is f


def test_subformulas_pre_order_with_repeats():
    f = Conj(Impl(p, q), Box(p))
    assert list(subformulas(f)) == [f, Impl(p, q), p, q, Box(p), p]


# the walkers keep their own stack, so nesting depth costs no Python stack
def test_formula_size_deep():
    f = p
    for _ in range(5000):
        f = neg(f)
    assert formula_size(f) == 2 * 5000 + 1
    # each level adds a node, and a leaf too unless it is a box
    assert formula_size(_deep(5000)) == 1 + 5000 + sum(i % 6 != 1 for i in range(5000))


def test_subformulas_deep():
    f = p
    for _ in range(5000):
        f = neg(f)
    subs = list(subformulas(f))
    assert len(subs) == 2 * 5000 + 1
    # pre-order: the 5000 implications outside in, p, then their 5000 falsums
    assert subs[0] is f and subs[5000] is p and subs[5001:] == [FALSUM] * 5000


@given(ep_formulas())
def test_is_ip_iff_no_box(f):
    assert is_ip_formula(f) == all(not isinstance(g, Box) for g in subformulas(f))


def test_is_ip_formula_deep_and_cached():
    plain, boxed = p, Box(p)
    for _ in range(5000):
        plain, boxed = neg(plain), neg(boxed)
    assert is_ip_formula(plain) and not is_ip_formula(boxed)
    # interning set the flag on every node, from its children's flags
    assert plain.left._ip is True and boxed.left._ip is False
    assert not is_ip_formula(Conj(plain, boxed)) and is_ip_formula(Disj(plain, plain))


def test_stable_flag_deep_and_set_at_interning():
    """A 3000-deep /\\ chain of boxes is stable, read off its root with
    no walk: interning set the flag on every node from its children's.
    One atom or implication at the bottom makes every node above it
    unstable, and a box over it is stable again."""
    stable, unstable = Box(p), neg(Box(p))
    for _ in range(3000):
        stable, unstable = Conj(stable, Box(q)), Conj(unstable, Box(q))
    assert stable._stable is True and stable.left._stable is True
    assert unstable._stable is False and unstable.left._stable is False
    assert Box(unstable)._stable is True and Disj(stable, p)._stable is False
    assert FALSUM._stable is True and p._stable is False and VERUM._stable is False


def test_atoms_set_deep_and_set_at_interning():
    """A 3000-deep chain through every node kind has the atoms of its
    levels, read off its root with no walk: atoms_of returns the very set
    interning gave the node, built from its children's."""
    names = [f"a{i % 7}" for i in range(3000)]
    f = p
    for i, name in enumerate(names):
        f = [Conj, Disj, Impl][i % 3](Box(f), Atom(name))
    assert atoms_of(f) is f._atoms
    assert f._atoms == {"p", *names} and f.left.inner._atoms == {"p", *names[:-1]}
    assert FALSUM._atoms == frozenset() and Box(neg(p))._atoms == {"p"}


def test_equal_atom_sets_are_shared():
    assert Impl(p, q)._atoms is Disj(q, p)._atoms is Box(Conj(q, neg(p)))._atoms
    assert Conj(p, p)._atoms is p._atoms is Impl(p, FALSUM)._atoms
    assert Conj(Impl(p, q), r)._atoms is Disj(r, Conj(q, p))._atoms


def test_atoms_of_returns_a_frozenset():
    assert type(atoms_of(Impl(p, q))) is frozenset and type(atoms_of(FALSUM)) is frozenset


def _reference_tree(f):
    """The JSON tree of f, built by recursion straight from the format."""
    if isinstance(f, Atom):
        return {"node": "atom", "name": f.name, "children": []}
    kids = [f.inner] if isinstance(f, Box) else [] if f is FALSUM else [f.left, f.right]
    names = {Falsum: "falsum", Conj: "conj", Disj: "disj", Impl: "impl", Box: "box"}
    return {"node": names[type(f)], "children": [_reference_tree(g) for g in kids]}


@given(ep_formulas())
def test_json_roundtrip(f):
    # through JSON text, so the table is also well-formed JSON
    table = FormulaTable()
    table.add(f)
    entries = json.loads(json.dumps(table.entries))
    assert expand_tree(entries) == _reference_tree(f)
    # each distinct subformula once, children first
    formulas = table_formulas(entries)
    assert formulas[-1] is f and len(formulas) == len(set(formulas)) == len(set(subformulas(f)))


def test_formula_table_is_shared_and_ordered():
    """One table serves many formulas: a subformula already in it is not
    written again, and a new one is added children first, left before
    right."""
    table = FormulaTable()
    assert table.add(Impl(q, p)) == 2
    assert table.add(Box(Conj(p, Impl(q, p)))) == 4
    assert table.add(p) == 1 and table.add(FALSUM) == 5
    assert table.entries == [
        {"node": "atom", "name": "q"},
        {"node": "atom", "name": "p"},
        {"node": "impl", "children": [0, 1]},
        {"node": "conj", "children": [1, 2]},
        {"node": "box", "children": [3]},
        {"node": "falsum"},
    ]


def test_random_formula_deterministic():
    a = random_formula(4, ["p", "q"], EP, seed=42)
    b = random_formula(4, ["p", "q"], EP, seed=42)
    assert a == b
    assert a != random_formula(4, ["p", "q"], EP, seed=43) or True  # may collide, no crash


def test_random_formula_respects_logic_and_depth():
    for seed in range(200):
        f = random_formula(2, ["p"], IP, seed)
        assert is_ip_formula(f)
        assert formula_size(f) <= 2 ** 3 - 1
    assert random_formula(0, ["p"], IP, 1) in (Atom("p"), FALSUM)


def test_random_formula_validation():
    with pytest.raises(ValueError):
        random_formula(2, [], IP, 0)
    with pytest.raises(ValueError):
        random_formula(-1, ["p"], IP, 0)
    with pytest.raises(ValueError):
        random_formula(2, ["T"], IP, 0)


def test_random_formula_stream_is_pinned():
    # the digest must not move: the benchmark corpora, the harness samples
    # and the pinned search-order digests all rest on this stream
    lines = []
    for logic in (IP, EP):
        for atoms in (["p"], ["p", "q"], ["p", "q", "r"], ["a", "b1", "c_2", "d"]):
            for max_size in (1, 2, 3, 5, 8, 12):
                for max_depth in (0, 2, 4, 6):
                    for seed in (0, 1, 7, 123):
                        f = random_formula_sized(max_size, atoms, logic, seed, max_depth)
                        lines.append(print_formula(f))
    for logic in (IP, EP):
        for depth in range(6):
            for seed in range(5):
                lines.append(print_formula(random_formula(depth, ["p", "q"], logic, seed)))
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == "d5d5a7424e4c1936264f261b9d76091c097a5f3a57e87ff13f49ad7be2528d02"


def test_rejected_draw_stops_at_its_size_bound(monkeypatch):
    attempts = []  # node constructions per attempt, one entry per seeding

    def spy(new):
        def spy_new(cls, *args):
            if attempts:
                attempts[-1] += 1
            return new(cls, *args)
        return staticmethod(spy_new)

    class SpyRandom(random.Random):
        def seed(self, *args, **kwargs):
            attempts.append(0)
            super().seed(*args, **kwargs)

    for shape in (syntax._Binary, syntax.Box):
        monkeypatch.setattr(shape, "__new__", spy(shape.__new__))
    monkeypatch.setattr(syntax.random, "Random", SpyRandom)
    rejected = []
    for max_size, max_depth in ((1, 4), (3, 6), (5, 4), (8, 6)):
        for seed in range(20):
            attempts.clear()
            f = random_formula_sized(max_size, ["p", "q"], EP, seed, max_depth)
            assert formula_size(f) <= max_size
            rejected += ((max_size, built) for built in attempts[:-1])
    assert all(built <= max_size + 1 for max_size, built in rejected)
    # the spy sees the constructions of rejected draws
    assert len(rejected) > 100 and max(built for _, built in rejected) > 1


def test_random_formula_sized_errors():
    with pytest.raises(RuntimeError):
        random_formula_sized(0, ["p"])
    for args in ((2, [], IP, 0, 2), (2, ["p"], IP, 0, -1), (2, ["T"], IP, 0, 2), (2, [], IP, 0, -1)):
        with pytest.raises(ValueError) as sized:
            random_formula_sized(*args)
        with pytest.raises(ValueError) as plain:
            random_formula(args[4], args[1], IP, 0)
        assert str(sized.value) == str(plain.value)


def test_equal_formulas_are_identical():
    f = parse_formula("p -> q")
    assert f is Impl(Atom("p"), Atom("q"))
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f
    assert Conj(f, FALSUM) is Conj(Impl(p, q), FALSUM)


def test_nodes_are_immutable():
    f = parse_formula("p -> q")
    with pytest.raises(AttributeError):
        f.left = q
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(AttributeError):
        del f.right
    assert f is Impl(p, q)


@pytest.mark.parametrize("shape,args,bad", [
    (Box, (None,), None), (Box, ("p",), "p"),
    (Conj, ("p", q), "p"), (Disj, (p, 1), 1), (Impl, (p, "q"), "q"), (Impl, (None, "q"), None),
])
def test_constructors_reject_non_formula_children(shape, args, bad):
    sizes = [len(cls._table) for cls in (Box, Conj, Disj, Impl)]
    with pytest.raises(TypeError) as exc:
        shape(*args)
    assert str(exc.value) == f"{shape.__name__} argument is not a formula: {bad!r}"
    assert [len(cls._table) for cls in (Box, Conj, Disj, Impl)] == sizes
    with pytest.raises(TypeError):
        shape(*args)


def test_leaf_shapes_are_interned():
    assert Falsum() is FALSUM and pickle.loads(pickle.dumps(FALSUM)) is FALSUM
    assert Atom._table["p"] is p and repr(Box(p)) == "Box(inner=Atom(name='p'))"


def test_pickle_across_processes():
    # the child gets a hash seed other than ours, so a node that carried a
    # hash computed at pickling time would not match a fresh one here
    env = dict(os.environ,
               PYTHONPATH=str(Path(epist2int.__file__).resolve().parent.parent),
               PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    code = ("import pickle, sys; from epist2int.syntax import parse_formula; "
            "sys.stdout.buffer.write(pickle.dumps(parse_formula('(p -> q) /\\\\ r')))")
    blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True, timeout=60).stdout
    fresh = parse_formula("(p -> q) /\\ r")
    got = pickle.loads(blob)
    assert got is fresh
    assert got == fresh
    assert got in {fresh}
