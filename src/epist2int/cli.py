"""Command-line front end: translate, prove, eval, paper.

Exit codes for `prove`: 0 Provable, 1 NotProvable, 2 error.  `paper`
exits 0 only when the selected check passes.  With --output json every
code path emits a single valid JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import harness
from .algebra import evaluate, make_chain, Valuation
from .prover_ep import prove_ep
from .prover_ip import SearchLimitError, prove_ip, trace_to_json
from .syntax import (
    EP,
    IP,
    ParseError,
    atoms_of,
    parse_formula,
    parse_sequent,
    print_formula,
    to_json_tree,
)
from .translate import TranslationContext, ff_simplify, ff_translate, godel_translate

SCHEMA_VERSION = 1


@dataclass
class Config:
    max_chain: int = 3
    node_cap: Optional[int] = None
    output: str = "human"
    seed: int = 0

    def __post_init__(self):
        if self.max_chain <= 0:
            raise ValueError("max_chain must be positive")
        if self.node_cap is not None and self.node_cap <= 0:
            raise ValueError("node_cap must be positive")


def _env_int(name: str, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    return int(raw)


def config_from_env(args) -> Config:
    node_cap = args.node_cap if args.node_cap is not None else _env_int("EPIST2INT_NODE_CAP", None)
    max_chain = getattr(args, "chain", None)
    if max_chain is None:
        max_chain = _env_int("EPIST2INT_MAX_CHAIN", 3)
    seed = args.seed if getattr(args, "seed", None) is not None else _env_int("EPIST2INT_SEED", 0)
    return Config(max_chain=max_chain, node_cap=node_cap, output=args.output, seed=seed)


class _Text(str):
    """A piece of JSON text that _dumps copies as it is."""


def _dumps(doc) -> str:
    """json.dumps(doc) over an explicit stack: a formula tree nested
    deeper than the recursion limit still prints."""
    out: list[str] = []
    todo = [doc]
    while todo:
        x = todo.pop()
        if isinstance(x, _Text):
            out.append(x)
        elif isinstance(x, dict) and x:
            todo.append(_Text("}"))
            for i, (k, v) in reversed(list(enumerate(x.items()))):
                todo += v, _Text(("{" if i == 0 else ", ") + json.dumps(k) + ": ")
        elif isinstance(x, list) and x:
            todo.append(_Text("]"))
            for i, v in reversed(list(enumerate(x))):
                todo += v, _Text("[" if i == 0 else ", ")
        else:
            out.append(json.dumps(x))
    return "".join(out)


def _emit(payload: dict, cfg: Config, human: str) -> None:
    if cfg.output == "json":
        payload["schema_version"] = SCHEMA_VERSION
        print(_dumps(payload))
    else:
        print(human)


def cmd_translate(args) -> int:
    cfg = config_from_env(args)
    if args.mode == "godel":
        source = parse_formula(args.formula, IP)
        raw = godel_translate(source)
        simplified = None
    else:
        if not args.gamma or not args.witness:
            raise ValueError("ff mode requires --gamma and --witness")
        source = parse_formula(args.formula, EP)
        gamma = tuple(parse_formula(g.strip(), IP) for g in args.gamma.split(","))
        witness = parse_formula(args.witness, IP)
        if witness not in gamma:
            raise ValueError("witness not in gamma")
        ctx = TranslationContext(gamma, gamma.index(witness))
        raw = ff_translate(source, ctx)
        simplified = ff_simplify(raw) if args.simplify else None
    shown = simplified if simplified is not None else raw
    relneg = gamma if (args.mode == "ff" and args.pretty) else ()
    payload = {
        "command": "translate",
        "mode": args.mode,
        "input": print_formula(source),
        "raw": print_formula(raw),
        "simplified": print_formula(simplified) if simplified is not None else None,
        "tree": to_json_tree(shown),
    }
    _emit(payload, cfg, print_formula(shown, relneg=relneg))
    return 0


def cmd_prove(args) -> int:
    cfg = config_from_env(args)
    if args.logic == "ip":
        s = parse_sequent(args.sequent, IP)
        res = prove_ip(s, want_trace=args.trace, node_cap=cfg.node_cap)
        payload = {
            "command": "prove",
            "logic": "ip",
            "sequent": args.sequent,
            "verdict": res.verdict,
            "nodes_expanded": res.nodes_expanded,
            "trace": trace_to_json(res.trace) if res.trace is not None else None,
        }
        human = res.verdict
        if res.trace is not None:
            human += "\n" + json.dumps(trace_to_json(res.trace), indent=2)
        _emit(payload, cfg, human)
        return 0 if res.provable else 1
    s = parse_sequent(args.sequent, EP)
    res = prove_ep(s, node_cap=cfg.node_cap)
    model = res.countermodel.to_json() if res.countermodel is not None else None
    payload = {
        "command": "prove",
        "logic": "ep",
        "sequent": args.sequent,
        "verdict": res.verdict,
        "worlds_expanded": res.worlds_expanded,
        "countermodel": model,
    }
    human = res.verdict
    if model is not None:
        human += "\ncountermodel: " + json.dumps(model)
    _emit(payload, cfg, human)
    return 0 if res.provable else 1


def cmd_eval(args) -> int:
    cfg = config_from_env(args)
    f = parse_formula(args.formula, IP)
    chain = make_chain(cfg.max_chain)
    assignment: dict[str, int] = {}
    for item in args.assign:
        name, _, idx = item.partition("=")
        if not idx:
            raise ValueError(f"bad assignment {item!r}, expected atom=index")
        value = int(idx)
        if not 0 <= value < chain.size:
            raise ValueError(f"index {value} out of range for chain of size {chain.size}")
        assignment[name.strip()] = value
    missing = sorted(atoms_of(f) - set(assignment))
    if missing:
        raise ValueError(f"unassigned atoms: {', '.join(missing)}")
    v = Valuation(assignment)
    value = evaluate(f, v, chain)
    payload = {
        "command": "eval",
        "formula": print_formula(f),
        "chain": chain.size,
        "value": value,
        "top": chain.top,
        "is_top": value == chain.top,
    }
    _emit(payload, cfg, f"value {value} of 0..{chain.top}"
          + (" (top)" if value == chain.top else " (not top)"))
    return 0


def cmd_paper(args) -> int:
    cfg = config_from_env(args)
    reports = harness.run_checks([args.target], cfg.seed, args.sample)
    payload = {
        "command": "paper",
        "target": args.target,
        "reports": [json.loads(r.to_json_line()) for r in reports],
    }
    human = harness.summary_table(reports)
    for r in reports:
        if not r.passed:
            human += f"\nfailures in {r.name}: {json.dumps(r.details.get('failures'))}"
    _emit(payload, cfg, human)
    return 0 if all(r.passed for r in reports) else 1


class _UsageError(Exception):
    """A command-line usage error: (message, the parser that found it)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError instead of exiting, so that main can report a
    usage error as one JSON document under --output json."""

    def error(self, message):
        raise _UsageError(message, self)


def _wants_json(argv: list[str]) -> bool:
    """Whether argv asks for --output json, as argparse reads it: with a
    space or "=", and under any prefix of --output down to --o (the
    shortest one no other option shares), up to a "--"."""
    for i, arg in enumerate(argv):
        if arg == "--":
            return False
        name, eq, value = arg.partition("=")
        if not eq:
            value = argv[i + 1] if i + 1 < len(argv) else None
        if value == "json" and len(name) >= 3 and "--output".startswith(name):
            return True
    return False


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="epist2int",
        description="Translations and decision procedures between epistemic (S4) "
        "and intuitionistic propositional logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=["human", "json"], default="human")
        p.add_argument("--node-cap", type=int, default=None,
                       help="abort proof search after this many nodes")

    t = sub.add_parser("translate", help="apply a translation to a formula")
    common(t)
    t.add_argument("--mode", choices=["godel", "ff"], required=True)
    t.add_argument("--gamma", help="comma-separated IP formulas (ff mode)")
    t.add_argument("--witness", help="designated member of gamma (ff mode)")
    t.add_argument("--simplify", action="store_true")
    t.add_argument("--pretty", action="store_true",
                   help="print relative negations as neg[E](A)")
    t.add_argument("formula")

    p = sub.add_parser("prove", help="decide a sequent (A1, ..., An |- B)")
    common(p)
    p.add_argument("--logic", choices=["ip", "ep"], required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("sequent")

    e = sub.add_parser("eval", help="evaluate a formula on a finite chain")
    common(e)
    e.add_argument("--chain", type=int, default=None, help="chain size (default 3)")
    e.add_argument("--assign", action="append", default=[], metavar="atom=index")
    e.add_argument("formula")

    w = sub.add_parser("paper", help="run a named reproduction check")
    common(w)
    w.add_argument("target", choices=sorted(harness.ALL_CHECKS))
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--sample", type=int, default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    output = "json" if _wants_json(argv) else "human"
    try:
        args = build_parser().parse_args(argv)
        output = args.output
        handler = {
            "translate": cmd_translate,
            "prove": cmd_prove,
            "eval": cmd_eval,
            "paper": cmd_paper,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        message, parser = exc.args
        if output == "human":
            parser.print_usage(sys.stderr)
    except (ParseError, ValueError, SearchLimitError, KeyError) as exc:
        message = str(exc)
    except RecursionError:
        # parsing, printing and the Goedel translation are iterative; the
        # provers, the FF translation and simplifier, and the neg[E](A)
        # display mode recurse once per nesting level
        message = "formula nested too deeply"
    if output == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
