"""Formula AST, parser, printer and random generator for the two logics.

The intuitionistic language ("ip") has atoms, falsum and the binary
connectives /\\, \\/, ->.  The epistemic language ("ep") adds the box
modality.  Negation is not a constructor: ~A abbreviates A -> _|_, and
the verum constant T abbreviates _|_ -> _|_.
"""

from __future__ import annotations

import json
import math
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
    class that lives, and grows, for the whole process.  Interning sets
    `_ip`, the box-free flag is_ip_formula returns, from the children's
    flags.  `_key`, the printed form formula_key returns, which prover_ip
    also breaks ties by, starts as None and is built the first time it is
    asked for: most nodes are never printed.
    """

    __slots__ = ("_key", "_ip")

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
            # box-free: not a box and, for a binary node (the only kind with
            # two arguments), both children box-free
            ip = cls is not Box and (len(args) != 2 or args[0]._ip and args[1]._ip)
            object.__setattr__(node, "_ip", ip)
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
    """True iff the formula contains no box node; the flag interning set."""
    return f._ip


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    size = 0
    todo = [f]
    while todo:
        g = todo.pop()
        size += 1
        kind = type(g)
        if kind is Box:
            todo.append(g.inner)
        elif kind is not Atom and kind is not Falsum:
            todo += g.left, g.right
    return size


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula occurrence of f in pre-order, repeats included."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        kind = type(g)
        if kind is Box:
            todo.append(g.inner)
        elif kind is not Atom and kind is not Falsum:
            todo += g.right, g.left


def atoms_of(f: Formula) -> set[str]:
    """Names of the atoms that occur in f."""
    names = set()
    todo = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is Atom:
            names.add(g.name)
        elif kind is Box:
            todo.append(g.inner)
        elif kind is not Falsum:
            todo += g.left, g.right
    return names


@dataclass(frozen=True)
class Sequent:
    """Assumptions plus a goal, tagged with the logic they live in."""

    assumptions: tuple[Formula, ...]
    goal: Formula
    logic: str = IP

    def __post_init__(self):
        if self.logic not in (IP, EP):
            raise ValueError(f"unknown logic tag {self.logic!r}")
        ip = self.logic == IP
        for f in (*self.assumptions, self.goal):
            if not isinstance(f, _Node):
                i = next((i for i, g in enumerate(self.assumptions) if g is f), None)
                member = "goal" if i is None else f"assumption {i}"
                raise TypeError(f"sequent {member} is not a formula: {f!r}")
            if ip and not is_ip_formula(f):
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


# Printer precedence: -> 0, \/ 1, /\ 2, the prefixes ~ and [] 3, leaves
# 4.  A node is parenthesised when its level is below the level its parent
# needs there.  Binary connective: (symbol, level, left need, right need).
_LEVEL = {Atom: 4, Falsum: 4, Box: 3, Conj: 2, Disj: 1, Impl: 0}
_BINARY = {Conj: (" /\\ ", 2, 2, 3), Disj: (" \\/ ", 1, 1, 2), Impl: (" -> ", 0, 1, 0)}


def _level(f: Formula) -> int:
    return 3 if type(f) is Impl and f.right is FALSUM else _LEVEL[type(f)]


def _print(f: Formula, need: int, sugar: frozenset[Formula]) -> str:
    """The printed form with relative negations in `sugar` shown as neg[E](A)."""
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Falsum:
        return "_|_"
    if kind is Box:
        return "[]" + _print(f.inner, 3, sugar)
    if kind is Impl:
        if f.right is FALSUM:
            return "~" + _print(f.left, 3, sugar)
        if f.right in sugar:
            return f"neg[{_print(f.right, 0, sugar)}]({_print(f.left, 0, sugar)})"
    symbol, level, need_left, need_right = _BINARY[kind]
    s = _print(f.left, need_left, sugar) + symbol + _print(f.right, need_right, sugar)
    return f"({s})" if need > level else s


def _wrap(f: Formula, need: int) -> str:
    """f's cached key, parenthesised where its parent needs `need`."""
    return f"({f._key})" if need > _level(f) else f._key


def formula_key(f: Formula) -> str:
    """Minimal-parenthesis text of f, cached on the node.

    Printed forms are distinct for distinct formulas, so it is also the
    deterministic total-order key prover_ip breaks ties by when two
    context formulas take the same rule (independent of hash
    randomization).  A missing key is built from the children's keys,
    over an explicit stack, so depth costs no Python stack.
    """
    key = f._key
    if key is not None:
        return key
    todo = [f]
    while todo:
        g = todo[-1]
        if g._key is not None:
            todo.pop()
            continue
        kind = type(g)
        if kind is Atom:
            key = g.name
        elif kind is Falsum:
            key = "_|_"
        elif kind is Box or kind is Impl and g.right is FALSUM:
            sub = g.inner if kind is Box else g.left
            if sub._key is None:
                todo.append(sub)
                continue
            key = ("[]" if kind is Box else "~") + _wrap(sub, 3)
        else:
            left, right = g.left, g.right
            if left._key is None or right._key is None:
                todo += left, right
                continue
            symbol, _, need_left, need_right = _BINARY[kind]
            key = _wrap(left, need_left) + symbol + _wrap(right, need_right)
        todo.pop()
        object.__setattr__(g, "_key", key)
    return f._key


def print_formula(f: Formula, relneg: Iterable[Formula] = ()) -> str:
    """Minimal-parenthesis text; round-trips through parse_formula.

    `relneg` switches on the pretty mode for relative negation: any
    implication whose consequent is listed prints as neg[E](A).  Output in
    that mode is for display and is not part of the parse grammar, and it
    is the only mode that recurses once per nesting level.
    """
    sugar = frozenset(relneg)
    return _print(f, 0, sugar) if sugar else formula_key(f)


def print_sequent(s: Sequent) -> str:
    lhs = ", ".join(print_formula(a) for a in s.assumptions)
    return (lhs + " |- " if lhs else "|- ") + print_formula(s.goal)


_JSON_NODES = {"atom": Atom, "falsum": Falsum, "conj": Conj, "disj": Disj, "impl": Impl, "box": Box}
_JSON_NAMES = {kind: name for name, kind in _JSON_NODES.items()}


def to_json_tree(f: Formula) -> dict:
    """The node tree as nested dicts; a loop, so depth costs no Python stack."""
    root: dict = {}
    todo = [(f, root)]
    while todo:
        g, d = todo.pop()
        kind = type(g)
        d["node"] = _JSON_NAMES[kind]
        if kind is Atom:
            d["name"] = g.name
        kids = (g.inner,) if kind is Box else () if kind is Atom or kind is Falsum else (g.left, g.right)
        d["children"] = [{} for _ in kids]
        todo += zip(kids, d["children"])
    return root


def from_json_tree(d: dict) -> Formula:
    """The formula of a to_json_tree dict; loops, like to_json_tree."""
    nodes, todo = [], [d]
    while todo:  # each node before its children, the last child first
        nodes.append(todo.pop())
        todo += nodes[-1].get("children", ())
    built: list = []  # reversed, that is post-order: a node's children end `built`, in order
    for d in reversed(nodes):
        node = d["node"]
        kind = _JSON_NODES.get(node) if type(node) is str else None
        if kind is None:
            raise ValueError(f"unknown node kind {node!r}")
        start = len(built) - len(d.get("children", ()))
        built[start:] = [kind(d["name"]) if kind is Atom else kind(*built[start:])]
    return built[0]


def formula_to_json(f: Formula) -> str:
    return json.dumps(to_json_tree(f))


def formula_from_json(text: str) -> Formula:
    return from_json_tree(json.loads(text))


# What rng.choice picks for a node above depth 0, per logic: a constructor,
# or None for a leaf drawn as at depth 0.  Leaves stay likely so sizes
# remain small enough for exhaustive provers.
_DRAW_IP = (None, Conj, Disj, Impl, Impl, None)
_DRAW_EP = (None, Conj, Disj, Impl, Impl, Box, Box, None)


class _TooBig(Exception):
    """A draw passed its size bound."""


def _sampler(max_depth: int, atoms: list[str], logic: str):
    """Check the arguments once; return draw(seed, max_size), the formula of
    that seed, or None as soon as it has more than max_size nodes."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not atoms:
        raise ValueError("atoms must be nonempty")
    leaves = [Atom(a) for a in atoms]  # raises on a bad name such as "T"
    kinds = _DRAW_EP if logic == EP else _DRAW_IP
    rand = choice = None  # the current draw's random.Random methods
    budget = 0  # nodes the current draw may still make

    def gen(depth: int) -> Formula:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise _TooBig
        if depth:
            ctor = choice(kinds)
            if ctor is Box:
                return Box(gen(depth - 1))
            if ctor is not None:
                return ctor(gen(depth - 1), gen(depth - 1))
        return FALSUM if rand() < 0.15 else choice(leaves)

    def draw(seed: int, max_size: float) -> Formula | None:
        nonlocal rand, choice, budget
        rng = random.Random(seed)
        rand, choice = rng.random, rng.choice
        budget = max_size
        try:
            return gen(max_depth)
        except _TooBig:
            return None

    return draw


def random_formula(max_depth: int, atoms: list[str], logic: str = IP, seed: int = 0) -> Formula:
    """Bounded random formula, a pure function of its arguments."""
    return _sampler(max_depth, atoms, logic)(seed, math.inf)


def random_formula_sized(max_size: int, atoms: list[str], logic: str = IP, seed: int = 0,
                         max_depth: int = 4) -> Formula:
    """First depth-bounded sample with at most max_size nodes: the
    random_formula of seed * 10007 + i for the least such i below 10000.

    A rejection loop that stops each draw as it passes max_size, so a
    rejected attempt makes at most max_size + 1 nodes; the draws it keeps
    are random_formula's, so the output is a pure function of the
    arguments.  Raises random_formula's ValueErrors, and RuntimeError when
    no attempt fits.
    """
    draw = _sampler(max_depth, atoms, logic)
    for i in range(10000):
        f = draw(seed * 10007 + i, max_size)
        if f is not None:
            return f
    raise RuntimeError("rejection sampling failed")
