import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from conftest import ep_formulas
import epist2int
from epist2int.syntax import (
    EP,
    FALSUM,
    IP,
    VERUM,
    Atom,
    Box,
    Conj,
    Disj,
    Impl,
    ParseError,
    Sequent,
    _print,
    atoms_of,
    formula_from_json,
    formula_key,
    formula_size,
    formula_to_json,
    from_json_tree,
    is_ip_formula,
    neg,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    random_formula,
    subformulas,
    to_json_tree,
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
    with pytest.raises(ValueError, match="bad atom name"):
        from_json_tree({"node": "atom", "name": "T", "children": []})


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


def test_roundtrip_bulk():
    for seed in range(10000):
        f = random_formula(3, ["p", "q", "r"], EP, seed)
        assert parse_formula(print_formula(f), EP) == f


@given(ep_formulas())
def test_roundtrip_hypothesis(f):
    assert parse_formula(print_formula(f), EP) == f


@given(ep_formulas())
def test_formula_key_is_the_printed_form(f):
    assert formula_key(f) == _print(f, 0, frozenset()) == print_formula(f)


@given(ep_formulas())
def test_atoms_of(f):
    assert atoms_of(f) == {g.name for g in subformulas(f) if isinstance(g, Atom)}


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


def test_to_json_tree_deep():
    tree = to_json_tree(_deep(5000))
    depth = 0
    while tree["children"]:
        tree = next(c for c in tree["children"] if c["children"] or c.get("name") == "p")
        depth += 1
    assert depth == 5000 and tree == {"node": "atom", "name": "p", "children": []}


@given(ep_formulas())
def test_is_ip_iff_no_box(f):
    assert is_ip_formula(f) == all(not isinstance(g, Box) for g in subformulas(f))


@given(ep_formulas())
def test_json_roundtrip(f):
    blob = formula_to_json(f)
    assert formula_from_json(blob) == f
    json.loads(blob)  # well-formed


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
