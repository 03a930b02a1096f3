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


_ATOM_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class Atom(_Node):
    __slots__ = ("name",)

    def __new__(cls, name):
        node = cls._table.get((name,))
        if node is None:
            # checked on a miss only, so the parser's lookups stay cheap
            if not isinstance(name, str) or name == "T" or not _ATOM_RE.fullmatch(name):
                raise ValueError(f"bad atom name {name!r}: not an identifier, or the verum T")
            node = super().__new__(cls, name)
        return node


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
    todo = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is Box:
            return False
        if kind is not Atom and kind is not Falsum:
            todo += g.left, g.right
    return True


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


# One capture group, so findall returns the token strings.  The final \S
# makes any other character a one-character token, which _Parser rejects.
_TOKEN_RE = re.compile(r"\s*(_\|_|->|/\\|\\/|\[\]|\|-|~|\(|\)|,|" + _ATOM_RE.pattern + r"|\S)")
_PUNCT = frozenset(("_|_", "->", "/\\", "\\/", "[]", "|-", "~", "(", ")", ","))
_PREFIX = {"~": neg, "[]": Box}
# infix connective: (precedence, lowest stacked precedence it reduces,
# constructor); -> is right-associative, \/ and /\ are left-associative
_INFIX = {"->": (0, 1, Impl), "\\/": (1, 1, Disj), "/\\": (2, 2, Conj)}


class _Parser:
    def __init__(self, text: str, logic: str):
        self.text = text
        self.logic = logic
        self.tokens = _TOKEN_RE.findall(text)
        self.i = 0
        bad = [tok for tok in set(self.tokens) if tok not in _PUNCT and not _ATOM_RE.match(tok)]
        if bad:
            i = min(map(self.tokens.index, bad))
            raise self.error(f"unexpected character {self.tokens[i]!r}", i)

    def error(self, message: str, i: int) -> ParseError:
        """The error at token i; past the last token, the end of input."""
        if i == len(self.tokens):
            return ParseError("unexpected end of input", len(self.text))
        return ParseError(message, list(_TOKEN_RE.finditer(self.text))[i].start(1))

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def finish(self) -> None:
        if self.i < len(self.tokens):
            raise self.error(f"trailing input {self.peek()!r}", self.i)

    def formula(self) -> Formula:
        """The longest formula from the current token on.

        Operator precedence without recursion: "(", prefixes and infix
        connectives wait on `stack`, the left operands of the infix ones on
        `lefts`, so nesting depth costs no Python stack.
        """
        tokens, i, n = self.tokens, self.i, len(self.tokens)
        stack: list[str] = []
        lefts: list[Formula] = []
        depth = 0  # "(" on the stack
        while True:
            # operand: stack "(" and prefixes up to a leaf
            tok = tokens[i] if i < n else None
            if tok in _PREFIX or tok == "(":
                if tok == "[]" and self.logic == IP:
                    raise self.error("Box not allowed in IP", i)
                depth += tok == "("
                stack.append(tok)
                i += 1
                continue
            if tok == "_|_":
                f = FALSUM
            elif tok == "T":
                f = VERUM
            elif tok is None or tok in _PUNCT:
                raise self.error(f"unexpected token {tok!r}", i)
            else:
                f = Atom(tok)
            i += 1
            # f is complete: apply its prefixes, reduce what the next token
            # closes, then stack that token or end the formula
            while True:
                while stack and stack[-1] in _PREFIX:
                    f = _PREFIX[stack.pop()](f)
                tok = tokens[i] if i < n else None
                infix = _INFIX.get(tok)
                floor = infix[1] if infix else 0
                while stack and (top := _INFIX.get(stack[-1])) and top[0] >= floor:
                    stack.pop()
                    f = top[2](lefts.pop(), f)
                if infix:
                    stack.append(tok)
                    lefts.append(f)
                    i += 1
                    break
                if depth == 0:
                    self.i = i
                    return f
                if tok != ")":
                    raise self.error(f"expected rpar, found {tok!r}", i)
                stack.pop()
                depth -= 1
                i += 1


def parse_formula(text: str, logic: str = IP) -> Formula:
    """Parse a formula; logic="ip" rejects the box modality."""
    p = _Parser(text, logic)
    f = p.formula()
    p.finish()
    return f


def parse_sequent(text: str, logic: str = IP) -> Sequent:
    """Parse `A1, ..., An |- B`; the assumption list may be empty."""
    p = _Parser(text, logic)
    if not p.tokens:
        raise ParseError("empty sequent", 0)
    assumptions: list[Formula] = []
    if p.peek() != "|-":
        assumptions.append(p.formula())
        while p.peek() == ",":
            p.i += 1
            assumptions.append(p.formula())
    if p.peek() != "|-":
        raise p.error(f"expected turnstile, found {p.peek()!r}", p.i)
    p.i += 1
    goal = p.formula()
    p.finish()
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
    leaves = [Atom(a) for a in atoms]  # raises on a bad name such as "T"
    rng = random.Random(seed)

    def gen(depth: int) -> Formula:
        if depth == 0:
            if rng.random() < 0.15:
                return FALSUM
            return rng.choice(leaves)
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
