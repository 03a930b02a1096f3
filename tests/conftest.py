from typing import NamedTuple

import hypothesis.strategies as st

from epist2int.algebra import evaluate
from epist2int.syntax import FALSUM, Atom, Box, Conj, Disj, Falsum, Impl, print_formula

_leaves = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), FALSUM])


def ip_formulas(max_leaves: int = 8):
    return st.recursive(
        _leaves,
        lambda sub: st.one_of(
            st.builds(Conj, sub, sub),
            st.builds(Disj, sub, sub),
            st.builds(Impl, sub, sub),
        ),
        max_leaves=max_leaves,
    )


class Tables(NamedTuple):
    leq: tuple
    meet: tuple
    join: tuple
    rpc: tuple


def tables(h) -> Tables:
    """The order of a finite Heyting algebra from its up-set masks (inclusion),
    and meet, join and rpc as evaluate computes them, as tables over the
    element numbers: rpc[x][y] is x |> y."""
    elems = range(h.size)

    def table(op):
        f = op(Atom("x"), Atom("y"))
        return tuple(tuple(evaluate(f, {"x": x, "y": y}, h) for y in elems) for x in elems)

    return Tables(tuple(tuple(not x & ~y for y in h.upsets) for x in h.upsets),
                  table(Conj), table(Disj), table(Impl))


def ep_formulas(max_leaves: int = 8):
    return st.recursive(
        _leaves,
        lambda sub: st.one_of(
            st.builds(Conj, sub, sub),
            st.builds(Disj, sub, sub),
            st.builds(Impl, sub, sub),
            st.builds(Box, sub),
        ),
        max_leaves=max_leaves,
    )


# ---------------------------------------------------------------- JSON documents
# Test-only readers of the flat documents, and expanders into the nested
# schema-1 forms that the older pins were taken on.

_KINDS = {"atom": Atom, "falsum": Falsum, "conj": Conj, "disj": Disj, "impl": Impl, "box": Box}


def table_formulas(table: list) -> list:
    """The formula of each entry of a formula table, whose children must
    be earlier entries."""
    out: list = []
    for entry in table:
        kids = entry.get("children", [])
        assert all(0 <= i < len(out) for i in kids), entry
        kind = _KINDS[entry["node"]]
        out.append(Atom(entry["name"]) if kind is Atom else kind(*(out[i] for i in kids)))
    return out


def expand_tree(table: list) -> dict:
    """The last entry of a formula table as a schema-1 nested tree, where
    every node has "children"; equal subtrees are shared dicts."""
    nested: list = []
    for entry in table:
        node = {"node": entry["node"]}
        if "name" in entry:
            node["name"] = entry["name"]
        node["children"] = [nested[i] for i in entry.get("children", [])]
        nested.append(node)
    return nested[-1]


def expand_trace(doc: dict) -> dict:
    """The root step of a trace document as the schema-1 nested document,
    formulas printed and assumptions sorted as text; shared premises are
    shared dicts, which json.dumps writes once per path."""
    texts = [print_formula(f) for f in table_formulas(doc["formulas"])]
    nested: list = []
    for step in doc["steps"]:
        assert all(0 <= i < len(nested) for i in step["premises"]), step
        principal = step["principal"]
        nested.append({
            "rule": step["rule"],
            "sequent": {"assumptions": sorted(texts[i] for i in step["assumptions"]),
                        "goal": texts[step["goal"]]},
            "principal": texts[principal] if principal is not None else None,
            "premises": [nested[i] for i in step["premises"]],
        })
    return nested[-1]
