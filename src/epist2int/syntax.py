"""Formula AST, parser, printer and random generator for the two logics.

The intuitionistic language ("ip") has atoms, falsum and the binary
connectives /\\, \\/, ->.  The epistemic language ("ep") adds the box
modality.  Negation is not a constructor: ~A abbreviates A -> _|_, and
the verum constant T abbreviates _|_ -> _|_.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

IP = "ip"
EP = "ep"


class _Node:
    """Base of the formula nodes: hash-consed, immutable, slotted.

    The constructor returns the one node per class and argument tuple, so
    structurally equal formulas are the same object and == and hash are
    the inherited identity ones.  The intern table is a plain dict per
    class that lives, and grows, for the whole process.  `_key` caches
    the printed form that formula_key sorts by.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls):
        cls._table = {}

    def __new__(cls, *args):
        node = cls._table.get(args)
        if node is None:
            if len(args) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} arguments")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, args):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_key", None)
            # setdefault publishes one node even if two threads race here
            node = cls._table.setdefault(args, node)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Atom(_Node):
    __slots__ = ("name",)


class Falsum(_Node):
    __slots__ = ()


class Conj(_Node):
    __slots__ = ("left", "right")


class Disj(_Node):
    __slots__ = ("left", "right")


class Impl(_Node):
    __slots__ = ("left", "right")


class Box(_Node):
    __slots__ = ("inner",)


Formula = Union[Atom, Falsum, Conj, Disj, Impl, Box]

FALSUM = Falsum()
VERUM = Impl(FALSUM, FALSUM)


def neg(f: Formula) -> Formula:
    """Ordinary negation: ~A is sugar for A -> _|_."""
    return Impl(f, FALSUM)


def is_ip_formula(f: Formula) -> bool:
    """True iff the formula contains no box node."""
    if isinstance(f, (Atom, Falsum)):
        return True
    if isinstance(f, Box):
        return False
    return is_ip_formula(f.left) and is_ip_formula(f.right)


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    if isinstance(f, (Atom, Falsum)):
        return 1
    if isinstance(f, Box):
        return 1 + formula_size(f.inner)
    return 1 + formula_size(f.left) + formula_size(f.right)


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Box):
        yield from subformulas(f.inner)
    elif isinstance(f, (Conj, Disj, Impl)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def atoms_of(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


@dataclass(frozen=True)
class Sequent:
    """Assumptions plus a goal, tagged with the logic they live in."""

    assumptions: tuple[Formula, ...]
    goal: Formula
    logic: str = IP

    def __post_init__(self):
        if self.logic not in (IP, EP):
            raise ValueError(f"unknown logic tag {self.logic!r}")
        if self.logic == IP:
            for f in (*self.assumptions, self.goal):
                if not is_ip_formula(f):
                    raise ValueError("Box not allowed in IP sequent")


class ParseError(ValueError):
    """Syntax error, carrying the offset where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<falsum>_\|_)
      | (?P<impl>->)
      | (?P<conj>/\\)
      | (?P<disj>\\/)
      | (?P<box>\[\])
      | (?P<turnstile>\|-)
      | (?P<neg>~)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, logic: str):
        self.text = text
        self.logic = logic
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    # formula := impl;  impl := disj ('->' impl)?
    def formula(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok is not None and tok[0] == "impl":
            self.next()
            return Impl(left, self.formula())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "disj":
                self.next()
                f = Disj(f, self.conj())
            else:
                return f

    def conj(self) -> Formula:
        f = self.unary()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "conj":
                self.next()
                f = Conj(f, self.unary())
            else:
                return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, _, at = tok
        if kind == "neg":
            self.next()
            return neg(self.unary())
        if kind == "box":
            if self.logic == IP:
                raise ParseError("Box not allowed in IP", at)
            self.next()
            return Box(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, at = self.next()
        if kind == "falsum":
            return FALSUM
        if kind == "ident":
            if value == "T":
                return VERUM
            return Atom(value)
        if kind == "lpar":
            f = self.formula()
            self.expect("rpar")
            return f
        raise ParseError(f"unexpected token {value!r}", at)


def parse_formula(text: str, logic: str = IP) -> Formula:
    """Parse a formula; logic="ip" rejects the box modality."""
    p = _Parser(text, logic)
    f = p.formula()
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f


def parse_sequent(text: str, logic: str = IP) -> Sequent:
    """Parse `A1, ..., An |- B`; the assumption list may be empty."""
    p = _Parser(text, logic)
    assumptions: list[Formula] = []
    tok = p.peek()
    if tok is None:
        raise ParseError("empty sequent", 0)
    if tok[0] != "turnstile":
        assumptions.append(p.formula())
        while p.peek() is not None and p.peek()[0] == "comma":
            p.next()
            assumptions.append(p.formula())
    p.expect("turnstile")
    goal = p.formula()
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return Sequent(tuple(assumptions), goal, logic)


# printer precedence levels: -> is 0, \/ is 1, /\ is 2, unary 3, leaves 4
def _print(f: Formula, need: int, sugar: frozenset[Formula]) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Falsum):
        return "_|_"
    if isinstance(f, Box):
        return "[]" + _print(f.inner, 3, sugar)
    if isinstance(f, Conj):
        s = _print(f.left, 2, sugar) + " /\\ " + _print(f.right, 3, sugar)
        return f"({s})" if need > 2 else s
    if isinstance(f, Disj):
        s = _print(f.left, 1, sugar) + " \\/ " + _print(f.right, 2, sugar)
        return f"({s})" if need > 1 else s
    # implication: negation sugar, relative-negation pretty mode, plain arrow
    if f.right == FALSUM:
        return "~" + _print(f.left, 3, sugar)
    if f.right in sugar:
        return f"neg[{_print(f.right, 0, sugar)}]({_print(f.left, 0, sugar)})"
    s = _print(f.left, 1, sugar) + " -> " + _print(f.right, 0, sugar)
    return f"({s})" if need > 0 else s


def print_formula(f: Formula, relneg: Iterable[Formula] = ()) -> str:
    """Minimal-parenthesis text; round-trips through parse_formula.

    `relneg` switches on the pretty mode for relative negation: any
    implication whose consequent is listed prints as neg[E](A).  Output in
    that mode is for display and is not part of the parse grammar.
    """
    return _print(f, 0, frozenset(relneg))


def print_sequent(s: Sequent) -> str:
    lhs = ", ".join(print_formula(a) for a in s.assumptions)
    return (lhs + " |- " if lhs else "|- ") + print_formula(s.goal)


def formula_key(f: Formula) -> str:
    """Deterministic total-order key (hash-randomization independent)."""
    key = f._key
    if key is None:
        key = print_formula(f)
        object.__setattr__(f, "_key", key)
    return key


_JSON_NODES = {"atom": Atom, "falsum": Falsum, "conj": Conj, "disj": Disj, "impl": Impl, "box": Box}


def to_json_tree(f: Formula) -> dict:
    if isinstance(f, Atom):
        return {"node": "atom", "name": f.name, "children": []}
    if isinstance(f, Falsum):
        return {"node": "falsum", "children": []}
    if isinstance(f, Box):
        return {"node": "box", "children": [to_json_tree(f.inner)]}
    name = {Conj: "conj", Disj: "disj", Impl: "impl"}[type(f)]
    return {"node": name, "children": [to_json_tree(f.left), to_json_tree(f.right)]}


def from_json_tree(d: dict) -> Formula:
    node = d["node"]
    if node == "atom":
        return Atom(d["name"])
    if node == "falsum":
        return FALSUM
    children = [from_json_tree(c) for c in d.get("children", ())]
    if node == "box":
        return Box(*children)
    if node in ("conj", "disj", "impl"):
        return _JSON_NODES[node](*children)
    raise ValueError(f"unknown node kind {node!r}")


def formula_to_json(f: Formula) -> str:
    return json.dumps(to_json_tree(f))


def formula_from_json(text: str) -> Formula:
    return from_json_tree(json.loads(text))


def random_formula(max_depth: int, atoms: list[str], logic: str = IP, seed: int = 0) -> Formula:
    """Bounded random formula, a pure function of its arguments."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not atoms:
        raise ValueError("atoms must be nonempty")
    if "T" in atoms:
        raise ValueError('"T" is the verum token, not an atom name')
    rng = random.Random(seed)

    def gen(depth: int) -> Formula:
        if depth == 0:
            if rng.random() < 0.15:
                return FALSUM
            return Atom(rng.choice(atoms))
        # leaves stay likely so sizes remain small enough for exhaustive provers
        choices = ["atom", "conj", "disj", "impl", "impl"]
        if logic == EP:
            choices += ["box", "box"]
        kind = rng.choice(choices + ["atom"])
        if kind == "atom":
            return gen(0)
        if kind == "box":
            return Box(gen(depth - 1))
        ctor = {"conj": Conj, "disj": Disj, "impl": Impl}[kind]
        return ctor(gen(depth - 1), gen(depth - 1))

    return gen(max_depth)


def random_formula_sized(max_size: int, atoms: list[str], logic: str = IP, seed: int = 0,
                         max_depth: int = 4) -> Formula:
    """First depth-bounded sample with at most max_size nodes (rejection loop)."""
    for i in range(10000):
        f = random_formula(max_depth, atoms, logic, seed * 10007 + i)
        if formula_size(f) <= max_size:
            return f
    raise RuntimeError("rejection sampling failed")  # pragma: no cover
