"""Formula AST, parser, printer and random generator for the two logics.

The intuitionistic language ("ip") has atoms, falsum and the binary
connectives /\\, \\/, ->.  The epistemic language ("ep") adds the box
modality.  Negation is not a constructor: ~A abbreviates A -> _|_, and
the verum constant T abbreviates _|_ -> _|_.
"""

from __future__ import annotations

import math
import random
import re
import string
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

IP = "ip"
EP = "ep"


class _Node:
    """Base of the formula nodes: hash-consed, immutable, slotted.

    Each shape's constructor returns the one node per class and children,
    so structurally equal formulas are the same object and == and hash are
    the inherited identity ones.  The intern table is a plain dict per
    class that lives, and grows, for the whole process: a binary node is
    interned under its pair of children, a box under its body node, an
    atom under its name.  A constructor checks its arguments on a
    miss only, so a lookup that hits stays cheap, and a rejected argument
    interns nothing.  It publishes a new node with setdefault, so threads
    racing on one node all get the same one.  Interning sets two flags
    from the children's: `_ip`, the box-free one is_ip_formula returns, and
    `_stable`, built by /\\ and \\/ from boxes and _|_, which prover_ep reads.
    It sets `_atoms` the same way, the frozenset of atom names atoms_of
    returns: the union of the children's, kept once in `_ATOM_SETS`, so
    nodes with equal sets share one.
    `_key`, the printed form formula_key returns, which prover_ip also
    breaks ties by, starts as None and is built the first time it is
    asked for: most nodes are never printed.
    """

    __slots__ = ("_key", "_ip", "_stable", "_atoms")

    def __init_subclass__(cls):
        cls._table = {}

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# The slots' own setters, which bypass the __setattr__ that refuses
# every assignment once a node is published.
_set_key, _set_ip, _set_stable = _Node._key.__set__, _Node._ip.__set__, _Node._stable.__set__
_set_atoms = _Node._atoms.__set__

# Each distinct atom set, mapped to itself: the one copy the nodes share.
_ATOM_SETS: dict[frozenset, frozenset] = {}


def _not_formula(where, arg) -> TypeError:
    """The error for `arg`, given to the class or function `where` as a formula."""
    return TypeError(f"{where.__name__} argument is not a formula: {arg!r}")


def check_formula(where, f) -> None:
    """Raise _not_formula(where, f) unless f is a formula: the one check
    of an entry point's argument, never repeated per node."""
    if not isinstance(f, _Node):
        raise _not_formula(where, f)


def check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int, and not a bool, before it is used."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")


_ATOM_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class Atom(_Node):
    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        node = cls._table.get(name)
        if node is None:
            if not isinstance(name, str) or name == "T" or not _ATOM_RE.fullmatch(name):
                raise ValueError(f"bad atom name {name!r}: not an identifier, or the verum T")
            node = object.__new__(cls)
            _set_name(node, name)
            _set_key(node, None)
            _set_ip(node, True)
            _set_stable(node, False)
            atoms = frozenset((name,))
            _set_atoms(node, _ATOM_SETS.setdefault(atoms, atoms))
            node = cls._table.setdefault(name, node)
        return node


class Falsum(_Node):
    __slots__ = _fields = ()

    def __new__(cls):
        node = cls._table.get(())
        if node is None:
            node = object.__new__(cls)
            _set_key(node, None)
            _set_ip(node, True)
            _set_stable(node, True)
            _set_atoms(node, frozenset())
            node = cls._table.setdefault((), node)
        return node


class _Binary(_Node):
    """Base of the binary connectives, which share its slots and
    constructor and each keep their own intern table."""

    __slots__ = _fields = ("left", "right")

    def __new__(cls, left, right):
        key = (left, right)
        node = cls._table.get(key)
        if node is None:
            if not isinstance(left, _Node):
                raise _not_formula(cls, left)
            if not isinstance(right, _Node):
                raise _not_formula(cls, right)
            node = object.__new__(cls)
            _set_left(node, left)
            _set_right(node, right)
            _set_key(node, None)
            _set_ip(node, left._ip and right._ip)
            _set_stable(node, cls is not Impl and left._stable and right._stable)
            atoms, other = left._atoms, right._atoms
            if other is not atoms and not other <= atoms:
                # the larger set when one holds the other, else the shared union
                atoms = other if atoms <= other else _ATOM_SETS.setdefault(u := atoms | other, u)
            _set_atoms(node, atoms)
            node = cls._table.setdefault(key, node)
        return node


class Conj(_Binary):
    __slots__ = ()


class Disj(_Binary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


class Box(_Node):
    __slots__ = _fields = ("inner",)

    def __new__(cls, inner):
        node = cls._table.get(inner)
        if node is None:
            if not isinstance(inner, _Node):
                raise _not_formula(cls, inner)
            node = object.__new__(cls)
            _set_inner(node, inner)
            _set_key(node, None)
            _set_ip(node, False)
            _set_stable(node, True)
            _set_atoms(node, inner._atoms)
            node = cls._table.setdefault(inner, node)
        return node


_set_name, _set_inner = Atom.name.__set__, Box.inner.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


Formula = Union[Atom, Falsum, Conj, Disj, Impl, Box]

FALSUM = Falsum()
VERUM = Impl(FALSUM, FALSUM)


def neg(f: Formula) -> Formula:
    """Ordinary negation: ~A is sugar for A -> _|_."""
    return Impl(f, FALSUM)


def is_ip_formula(f: Formula) -> bool:
    """True iff the formula contains no box node; the flag interning set."""
    check_formula(is_ip_formula, f)
    return f._ip


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


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    return sum(1 for _ in subformulas(f))


def atoms_of(f: Formula) -> frozenset[str]:
    """Names of the atoms that occur in f: the set interning gave the
    node, so no walk."""
    check_formula(atoms_of, f)
    return f._atoms


def _check_logic(logic: str) -> None:
    if logic != IP and logic != EP:
        raise ValueError(f"unknown logic tag {logic!r}")


@dataclass(frozen=True, slots=True, init=False)
class Sequent:
    """Assumptions plus a goal, tagged with the logic they live in.

    Checked and built in one pass: that the assumptions are a tuple first,
    then the logic tag, then each assumption in order, then the goal.  The
    fields are slots, set through their own descriptors as the formula
    nodes' are; equality, hashing, repr, pickling and immutability are the
    dataclass's own.
    """

    assumptions: tuple[Formula, ...]
    goal: Formula
    logic: str = IP

    def __init__(self, assumptions: tuple[Formula, ...], goal: Formula, logic: str = IP):
        if not isinstance(assumptions, tuple):
            raise TypeError(f"sequent assumptions are not a tuple: {assumptions!r}")
        _check_logic(logic)
        ip = logic == IP
        for i, f in enumerate(assumptions):
            if not isinstance(f, _Node):
                raise TypeError(f"sequent assumption {i} is not a formula: {f!r}")
            if ip and not f._ip:
                raise ValueError("Box not allowed in IP sequent")
        if not isinstance(goal, _Node):
            raise TypeError(f"sequent goal is not a formula: {goal!r}")
        if ip and not goal._ip:
            raise ValueError("Box not allowed in IP sequent")
        _set_assumptions(self, assumptions)
        _set_goal(self, goal)
        _set_logic(self, logic)


_set_assumptions, _set_goal = Sequent.assumptions.__set__, Sequent.goal.__set__
_set_logic = Sequent.logic.__set__


class ParseError(ValueError):
    """Syntax error, carrying its message and the offset where it was found."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


# One capture group, so findall returns the token strings.  The final \S
# makes any other character a one-character token, which _Parser rejects.
_TOKEN_RE = re.compile(r"\s*(_\|_|->|/\\|\\/|\[\]|\|-|~|\(|\)|,|" + _ATOM_RE.pattern + r"|\S)")
_PUNCT = frozenset(("_|_", "->", "/\\", "\\/", "[]", "|-", "~", "(", ")", ","))
_LETTERS = frozenset(string.ascii_letters)
# what an operand-position token stacks: "(" the marker _LPAR, a prefix
# its constructor
_LPAR = "("
_OPEN = {"(": _LPAR, "~": neg, "[]": Box}
_LEAF = {"_|_": FALSUM, "T": VERUM}
# infix connective: (constructor, the stacked constructors it reduces
# first); -> is right-associative, \/ and /\ are left-associative, and
# any other token reduces all three
_INFIX = {"->": (Impl, frozenset((Disj, Conj))), "\\/": (Disj, frozenset((Disj, Conj))),
          "/\\": (Conj, frozenset((Conj,)))}
_ANY_INFIX = frozenset((Impl, Disj, Conj))


class _Parser:
    """The tokens of a text, and the index of the next one to read.

    `tokens` ends with None, so reading it needs no bounds check.  A
    character the grammar does not have is a token too; a parse cannot
    succeed past it, and every error reports the first such character
    before anything else.
    """

    def __init__(self, text: str, logic: str):
        _check_logic(logic)
        self.text = text
        self.logic = logic
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(None)
        self.i = 0

    def error(self, message: str, i: int) -> ParseError:
        """The error at token i, unless the text has a character the
        grammar does not have; at the closing None, the end of input."""
        tokens = self.tokens
        # an identifier starts with a letter, so any other token that is
        # not punctuation is such a character
        bad = next((j for j, tok in enumerate(tokens[:-1])
                    if tok not in _PUNCT and tok[0] not in _LETTERS), None)
        if bad is not None:
            message, i = f"unexpected character {tokens[bad]!r}", bad
        if tokens[i] is None:
            return ParseError("unexpected end of input", len(self.text))
        return ParseError(message, list(_TOKEN_RE.finditer(self.text))[i].start(1))

    def formula(self) -> Formula:
        """The longest formula from the current token on.

        Operator precedence without recursion: "(" markers and the
        constructors of prefixes and infix connectives wait on `stack`, the
        left operands of the infix ones on `lefts`, so nesting depth costs
        no Python stack.  A node is looked up in its class's intern table
        first; the constructor runs only for a node not yet interned.
        """
        tokens, i = self.tokens, self.i
        atoms, negs, boxes = Atom._table, Impl._table, Box._table
        stack: list = [None]  # a bottom that nothing reduces or pops
        lefts: list[Formula] = []
        depth = 0  # "(" on the stack
        while True:
            # operand: stack "(" and prefixes up to a leaf
            tok = tokens[i]
            f = atoms.get(tok)
            if f is None:
                ctor = _OPEN.get(tok)
                if ctor is not None:
                    if ctor is Box and self.logic == IP:
                        raise self.error("Box not allowed in IP", i)
                    if ctor is _LPAR:
                        depth += 1
                    stack.append(ctor)
                    i += 1
                    continue
                f = _LEAF.get(tok)
                if f is None:
                    if tok is None or tok in _PUNCT or tok[0] not in _LETTERS:
                        raise self.error(f"unexpected token {tok!r}", i)
                    f = Atom(tok)
            i += 1
            # f is complete: apply its prefixes, reduce what the next token
            # closes, then stack that token or end the formula
            while True:
                top = stack[-1]
                while top is neg or top is Box:
                    stack.pop()
                    if top is neg:
                        f = negs.get((f, FALSUM)) or neg(f)
                    else:
                        f = boxes.get(f) or Box(f)
                    top = stack[-1]
                tok = tokens[i]
                infix = _INFIX.get(tok)
                reduces = infix[1] if infix else _ANY_INFIX
                while top in reduces:
                    stack.pop()
                    left = lefts.pop()
                    f = top._table.get((left, f)) or top(left, f)
                    top = stack[-1]
                if infix:
                    stack.append(infix[0])
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
    tok = p.tokens[p.i]
    if tok is not None:
        raise p.error(f"trailing input {tok!r}", p.i)
    return f


def parse_sequent(text: str, logic: str = IP) -> Sequent:
    """Parse `A1, ..., An |- B`; the assumption list may be empty."""
    p = _Parser(text, logic)
    tokens = p.tokens
    if tokens[0] is None:
        raise ParseError("empty sequent", 0)
    assumptions: list[Formula] = []
    if tokens[0] != "|-":
        assumptions.append(p.formula())
        while tokens[p.i] == ",":
            p.i += 1
            assumptions.append(p.formula())
    tok = tokens[p.i]
    if tok != "|-":
        raise p.error(f"expected turnstile, found {tok!r}", p.i)
    p.i += 1
    goal = p.formula()
    tok = tokens[p.i]
    if tok is not None:
        raise p.error(f"trailing input {tok!r}", p.i)
    return Sequent(tuple(assumptions), goal, logic)


# Printer precedence: -> 0, \/ 1, /\ 2, the prefixes ~ and [] 3, leaves
# and neg[E](A) 4.  A node is parenthesised when its level is below the
# level its parent needs there.  Binary connective: (symbol, left need,
# right need).
_LEVEL = {Atom: 4, Falsum: 4, Box: 3, Conj: 2, Disj: 1, Impl: 0}
_BINARY = {Conj: (" /\\ ", 2, 3), Disj: (" \\/ ", 1, 2), Impl: (" -> ", 1, 0)}


def _level(f: Formula, sugar: frozenset) -> int:
    if type(f) is Impl:
        if f.right is FALSUM:
            return 3
        if f.right in sugar:
            return 4
    return _LEVEL[type(f)]


def _text(f: Formula, sugar: frozenset, texts: dict | None) -> str:
    """The printed form of f, with an implication into a member of `sugar`
    shown as neg[E](A).  Each node's text is built from its children's
    texts over an explicit stack, so depth costs no Python stack, and is
    kept as the node's `_key` when `texts` is None, else in `texts`."""
    todo = [f]
    while todo:
        g = todo[-1]
        kind = type(g)
        if kind is Atom:
            text = g.name
        elif kind is Falsum:
            text = "_|_"
        else:
            left, right = (g.inner, g.inner) if kind is Box else (g.left, g.right)
            if texts is None:
                a, b = left._key, right._key
            else:
                a, b = texts.get(left), texts.get(right)
            if a is None or b is None:
                todo.append(left if a is None else right)
                continue
            if kind is Box or kind is Impl and right is FALSUM:
                prefix = "[]" if kind is Box else "~"
                text = prefix + (a if _level(left, sugar) >= 3 else f"({a})")
            elif kind is Impl and right in sugar:
                text = f"neg[{b}]({a})"
            else:
                symbol, need_left, need_right = _BINARY[kind]
                text = ((a if _level(left, sugar) >= need_left else f"({a})") + symbol
                        + (b if _level(right, sugar) >= need_right else f"({b})"))
        todo.pop()
        if texts is None:
            _set_key(g, text)
        else:
            texts[g] = text
    return f._key if texts is None else texts[f]


def formula_key(f: Formula) -> str:
    """Minimal-parenthesis text of f, cached on the node.

    Printed forms are distinct for distinct formulas, so it is also the
    deterministic total-order key prover_ip breaks ties by when two
    context formulas take the same rule (independent of hash
    randomization).  A missing key is built by the printer's one loop.
    A non-formula has no `_key`, so the cached path makes no check.
    """
    try:
        key = f._key
    except AttributeError:
        raise _not_formula(formula_key, f) from None
    return key if key is not None else _text(f, frozenset(), None)


def print_formula(f: Formula, relneg: Iterable[Formula] = ()) -> str:
    """Minimal-parenthesis text; round-trips through parse_formula.

    `relneg` switches on the pretty mode for relative negation: any
    implication whose consequent is listed, and is not _|_, prints as
    neg[E](A), never parenthesised.  Output in that mode is for display
    and is not part of the parse grammar; its texts are built by the same
    loop as formula_key's and kept for this call only.
    """
    check_formula(print_formula, f)
    relneg = tuple(relneg)
    for e in relneg:
        check_formula(print_formula, e)
    sugar = frozenset(relneg)
    return _text(f, sugar, {}) if sugar else formula_key(f)


def print_sequent(s: Sequent) -> str:
    lhs = ", ".join(print_formula(a) for a in s.assumptions)
    return (lhs + " |- " if lhs else "|- ") + print_formula(s.goal)


class FormulaTable:
    """The JSON form of formulas, an output format only: nothing reads it
    back.  `entries` holds each distinct subformula once, as {"node": the
    lower-case class name} plus "name" for an atom or "children", indices
    of earlier entries, for a compound.  `add(f)` returns f's index,
    appending first what is missing, children first and left before
    right, so a formula not yet in the table becomes its last entry.  A
    loop, so depth costs no Python stack."""

    def __init__(self):
        self.entries: list[dict] = []
        self._index: dict[Formula, int] = {}

    def add(self, f: Formula) -> int:
        index, entries = self._index, self.entries
        todo = [f]
        while todo:
            g = todo.pop()
            if g in index:
                continue
            kind = type(g)
            kids = () if kind is Atom or kind is Falsum else (g.inner,) if kind is Box else (g.left, g.right)
            missing = [k for k in kids if k not in index]
            if missing:
                todo += g, *reversed(missing)
                continue
            entry = {"node": kind.__name__.lower()}
            if kind is Atom:
                entry["name"] = g.name
            elif kids:
                entry["children"] = [index[k] for k in kids]
            index[g] = len(entries)
            entries.append(entry)
        return index[f]


# What a node above depth 0 picks: a constructor, or None for a leaf
# drawn as at depth 0.  Leaves stay likely so sizes remain small enough
# for exhaustive provers.
_DRAW_IP = (None, Conj, Disj, Impl, Impl, None)
_DRAW_EP = (None, Conj, Disj, Impl, Impl, Box, Box, None)


class _TooBig(Exception):
    """A draw passed its size bound."""


class _Draws:
    """One sampler call's checked arguments and the state of its current
    draw: the `random.Random` every attempt reseeds, its `getrandbits` and
    `random`, and the nodes the draw may still make.  Plain slots that
    point at no function of this module, so a call leaves no reference
    cycle behind."""

    __slots__ = ("kinds", "kinds_bits", "leaves", "leaves_bits", "max_depth",
                 "rng", "bits", "rand", "budget")

    def __init__(self, max_depth: int, atoms: list[str], logic: str):
        check_int("max_depth", max_depth)
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not atoms:
            raise ValueError("atoms must be nonempty")
        _check_logic(logic)
        self.leaves = tuple(map(Atom, atoms))  # raises on a bad name such as "T"
        self.kinds = _DRAW_EP if logic == EP else _DRAW_IP
        self.leaves_bits = len(self.leaves).bit_length()
        self.kinds_bits = len(self.kinds).bit_length()
        self.max_depth = max_depth
        self.rng = None

    def draw(self, seed: int, max_size: float) -> Formula | None:
        """The formula of that seed, or None as soon as it has more than
        max_size nodes.  The first attempt builds the generator, looked up
        through `random` now; a later one reseeds it."""
        rng = self.rng
        if rng is None:
            rng = self.rng = random.Random(seed)
            self.bits, self.rand = rng.getrandbits, rng.random
        else:
            rng.seed(seed)
        self.budget = max_size
        try:
            return _gen(self, self.max_depth)
        except _TooBig:
            return None


def _gen(d: _Draws, depth: int) -> Formula:
    """One node of d's draw and, before it returns, its subtrees, in
    pre-order.  A pick from n entries repeats getrandbits(n.bit_length())
    until the value is below n, which is what random.Random.choice draws,
    so the stream is choice's with no Python-level call per pick."""
    budget = d.budget - 1
    if budget < 0:
        raise _TooBig
    d.budget = budget
    if depth:
        kinds, bits, k = d.kinds, d.bits, d.kinds_bits
        n = len(kinds)
        r = bits(k)
        while r >= n:
            r = bits(k)
        ctor = kinds[r]
        if ctor is Box:
            return Box(_gen(d, depth - 1))
        if ctor is not None:
            return ctor(_gen(d, depth - 1), _gen(d, depth - 1))
    if d.rand() < 0.15:
        return FALSUM
    leaves, bits, k = d.leaves, d.bits, d.leaves_bits
    n = len(leaves)
    r = bits(k)
    while r >= n:
        r = bits(k)
    return leaves[r]


def random_formula(max_depth: int, atoms: list[str], logic: str = IP, seed: int = 0) -> Formula:
    """Bounded random formula, a pure function of its arguments.  Raises
    ValueError on a max_depth that is not an int (a bool included) or is
    negative, on an empty atom list, a bad atom name or logic tag."""
    return _Draws(max_depth, atoms, logic).draw(seed, math.inf)


def random_formula_sized(max_size: int, atoms: list[str], logic: str = IP, seed: int = 0,
                         max_depth: int = 4) -> Formula:
    """First depth-bounded sample with at most max_size nodes: the
    random_formula of seed * 10007 + i for the least such i below 10000.

    A rejection loop that stops each draw as it passes max_size, so a
    rejected attempt makes at most max_size + 1 nodes; the draws it keeps
    are random_formula's, so the output is a pure function of the
    arguments.  Raises random_formula's ValueErrors, a ValueError on a
    max_size that is not an int, and RuntimeError when no attempt fits:
    at once when max_size < 1, since every draw has a node.
    """
    check_int("max_size", max_size)
    draws = _Draws(max_depth, atoms, logic)
    if max_size >= 1:
        for i in range(10000):
            f = draws.draw(seed * 10007 + i, max_size)
            if f is not None:
                return f
    raise RuntimeError("rejection sampling failed")
