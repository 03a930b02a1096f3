"""The fence around the trusted base: the certificate checkers and the
mask semantics in `kernel` import no search, no other module defines one
of them, and the searches do not evaluate.  The kernel's mask loops are
compared with their definitional forms."""

import ast
import itertools
from collections import Counter
from pathlib import Path

from epist2int.kernel import AlgebraError, check_preorder, interior

# read as source, not imported, so that an import cycle the fence is
# meant to catch fails an assertion here rather than the collection
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epist2int"
TREES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}

# what kernel may reach, and the names the checkers and the evaluator were moved under
TRUSTED = {"kernel", "syntax"}
CHECKERS = {
    "TraceNode", "validate_trace", "_path", "check_trace", "_distinct_nodes", "trace_to_json",
    "_l_falsum", "_axiom", "_r_impl", "_r_conj", "_r_disj_1", "_r_disj_2",
    "_l_conj", "_l_disj", "_l_impl_mp", "_l_impl_conj", "_l_impl_disj", "_l_impl_impl",
    "KripkeModel", "check_kripke",
    "AlgebraError", "check_preorder", "interior", "truth",
}
# the evaluator a search must not reach
EVALUATOR = {"truth", "interior", "check_preorder"}


def package_imports(module: str) -> set[str]:
    """The modules of the package that a module imports, relatively or by
    the package's name; a name taken from the package itself counts as
    an import of __init__, which imports every module."""
    found = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "epist2int":
                continue
            base = (node.module or "").removeprefix("epist2int").lstrip(".")
            if base:
                found.add(base.split(".")[0])
            else:
                found.update(a.name if a.name in TREES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "epist2int":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def definitions(module: str) -> set[str]:
    return {node.name for node in ast.walk(TREES[module])
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_kernel_reaches_only_syntax():
    reached, todo = set(), ["kernel"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += package_imports(module)
    assert reached <= TRUSTED, f"kernel reaches {sorted(reached - TRUSTED)}"


def test_checkers_are_defined_in_kernel_only():
    kernel_names = {node.name for node in TREES["kernel"].body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert CHECKERS <= kernel_names
    for module in set(TREES) - {"kernel"}:
        assert not definitions(module) & kernel_names, module


def test_searches_do_not_evaluate():
    """Neither prover imports algebra, or names the evaluator it shares
    with kernel, imported or as an attribute."""
    for prover in ("prover_ip", "prover_ep"):
        assert "algebra" not in package_imports(prover), prover
        named = {node.name if isinstance(node, ast.alias)
                 else node.id if isinstance(node, ast.Name)
                 else node.attr
                 for node in ast.walk(TREES[prover])
                 if isinstance(node, (ast.alias, ast.Name, ast.Attribute))}
        assert not named & EVALUATOR, prover


def test_only_decide_calls_the_searches():
    """Outside the provers, prove_ip and prove_ep are named only in the body
    of harness.decide, so every verdict the package reports has had its
    certificate checked.  A name counts, called or not; an import does not,
    unless it renames a search."""
    searches = {"prove_ip", "prove_ep"}
    inside = {id(node) for top in TREES["harness"].body
              if isinstance(top, ast.FunctionDef) and top.name == "decide"
              for node in ast.walk(top)}
    named, outside = set(), []
    for module in sorted(set(TREES) - {"prover_ip", "prover_ep"}):
        for node in ast.walk(TREES[module]):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) and node.asname
                    else None)
            if name in searches:
                named.add(name)
                if id(node) not in inside:
                    outside.append(f"{module} line {node.lineno}: {name}")
    assert outside == []
    assert named == searches  # decide calls both


# ---------------------------------------------------------------- the mask loops
# `interior` and `check_preorder` are loops in the kernel; here they meet
# their definitional forms, kept as the reference.

def interior_reference(up, a):
    return sum(1 << w for w, u in enumerate(up) if not u & ~a)


def preorder_error_reference(up):
    n = len(up)
    for w, u in enumerate(up):
        if u >> n:
            return "unknown world"
        if not u >> w & 1:
            return "not reflexive"
        if any(u >> v & 1 and up[v] & ~u for v in range(n)):
            return "not transitive"
    return None


def preorder_error(up):
    try:
        check_preorder(up)
    except AlgebraError as exc:
        return str(exc)
    return None


def test_check_preorder_matches_its_definition():
    """Every tuple of up to 4 masks on up to 3 points, and every reflexive
    one on 4: the kernel rejects exactly what the reference rejects, with
    the same message."""
    cases = [up for n in range(4) for up in itertools.product(range(1 << (n + 1)), repeat=n)]
    cases += [up for up in itertools.product(range(16), repeat=4)
              if all(u >> w & 1 for w, u in enumerate(up))]
    verdicts = Counter()
    for up in cases:
        want, got = preorder_error_reference(up), preorder_error(up)
        assert (want is None) == (got is None) and (want is None or want in got), up
        verdicts[want] += 1
    assert verdicts[None] == 1 + 1 + 4 + 29 + 355  # the preorders on 0..4 labelled points
    assert all(verdicts[kind] for kind in ("unknown world", "not reflexive", "not transitive"))


def test_interior_matches_its_definition():
    """Over every preorder on up to 4 points and every mask, negative
    masks included: `~a | b` is negative when b misses a point a misses."""
    for n in range(5):
        for up in itertools.product(range(1 << n), repeat=n):
            if preorder_error(up) is None:
                for a in range(-(1 << n), 1 << n):
                    assert interior(up, a) == interior_reference(up, a), (up, a)
