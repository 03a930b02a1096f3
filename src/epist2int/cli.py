"""Command-line front end: translate, prove, eval, paper.

Each subcommand is declared once, with its handler, and declares only
the options it reads: `translate --mode godel` rejects the four options
of ff mode.  Three take their default from the environment, checked by
argparse like a command-line value: `prove --node-cap` from
EPIST2INT_NODE_CAP, `eval --chain` from EPIST2INT_MAX_CHAIN and
`paper --seed` from EPIST2INT_SEED.  Like --sample, a --seed given on
the command line is an error when no selected check is seeded; the
environment's seed is a silent default.

`prove` decides through harness.decide, so the kernel has checked the
evidence it prints; --trace only chooses whether an IP proof's trace is
printed.  Exit codes for `prove`: 0 Provable, 1 NotProvable, 2 error, a
rejected certificate included.  `paper` exits 0 only when every selected
check passes; `paper all` runs every check.  The output mode is the
--output that argparse reads, the last one given, and a usage error is
reported in it too.  With --output json every code path emits a single
valid JSON document on stdout.  Each command builds only the output it
prints.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import harness
from .algebra import MAX_CHAIN, evaluate, make_chain
from .kernel import trace_to_json
from .prover_ip import SearchLimitError
from .syntax import (
    EP,
    IP,
    FormulaTable,
    ParseError,
    atoms_of,
    parse_formula,
    parse_sequent,
    print_formula,
)
from .translate import TranslationContext, ff_simplify, ff_translate, godel_translate

SCHEMA_VERSION = 3


def _positive_int(text: str) -> int:
    """The argparse type of --node-cap and --chain."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


class _Given(argparse.Action):
    """Stores the value and sets `<dest>_given`, so that a value given on
    the command line can be told from the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_given", True)


def _print_json(doc: dict) -> None:
    doc["schema_version"] = SCHEMA_VERSION
    print(json.dumps(doc))


def _option_formula(option: str, text: str, start: int = 0):
    """The IP formula `text` at offset `start` of an option's value; an error names the option."""
    if not text.strip():
        raise ParseError(f"{option}: empty formula", start)
    try:
        return parse_formula(text, IP)
    except ParseError as exc:
        raise ParseError(f"{option}: {exc.message}", start + exc.position) from None


def cmd_translate(args) -> int:
    if args.mode == "godel":
        ff_only = [f"--{name}" for name in ("gamma", "witness", "simplify", "pretty")
                   if getattr(args, name) not in (None, False)]
        if ff_only:
            raise ValueError(f"godel mode takes no {', '.join(ff_only)}")
        source = parse_formula(args.formula, IP)
        raw, simplified = godel_translate(source), None
    else:
        if not args.gamma or not args.witness:
            raise ValueError("ff mode requires --gamma and --witness")
        source = parse_formula(args.formula, EP)
        gamma = tuple(_option_formula("--gamma", m[1], m.start(1))
                      for m in re.finditer(r"(?:^|,)([^,]*)", args.gamma))
        witness = _option_formula("--witness", args.witness)
        if witness not in gamma:
            raise ValueError("witness not in gamma")
        raw = ff_translate(source, TranslationContext(gamma, gamma.index(witness)))
        simplified = ff_simplify(raw) if args.simplify else None
    if args.output == "json":
        tree = FormulaTable()
        _print_json({
            "command": "translate",
            "mode": args.mode,
            "input": tree.add(source),
            "raw": tree.add(raw),
            "simplified": tree.add(simplified) if simplified is not None else None,
            "tree": tree.entries,
        })
    else:
        print(print_formula(simplified or raw, relneg=gamma if args.pretty else ()))
    return 0


def cmd_prove(args) -> int:
    if args.trace and args.logic != IP:
        raise ValueError("--trace needs --logic ip")
    res = harness.decide(parse_sequent(args.sequent, args.logic), args.node_cap)
    if args.logic == IP:
        cost, key = "nodes_expanded", "trace"
        evidence = trace_to_json(res.trace) if args.trace and res.provable else None
    else:
        cost, key = "worlds_expanded", "countermodel"
        evidence = res.countermodel.to_json() if res.countermodel is not None else None
    if args.output == "json":
        _print_json({
            "command": "prove",
            "logic": args.logic,
            "sequent": args.sequent,
            "verdict": res.verdict,
            cost: getattr(res, cost),
            key: evidence,
        })
    elif evidence is None:
        print(res.verdict)
    else:
        print(f"{res.verdict}\n{key}: {json.dumps(evidence)}")
    return 0 if res.provable else 1


def cmd_eval(args) -> int:
    f = parse_formula(args.formula, IP)
    chain = make_chain(args.chain)
    assignment: dict[str, int] = {}
    names = atoms_of(f)
    for item in args.assign:
        name, _, idx = item.partition("=")
        try:
            index = int(idx)
        except ValueError:
            raise ValueError(f"bad assignment {item!r}, expected atom=index") from None
        name = name.strip()
        if name not in names:
            raise ValueError(f"atom {name!r} does not occur in the formula")
        if name in assignment:
            raise ValueError(f"atom {name!r} is assigned twice")
        assignment[name] = index
    value = evaluate(f, assignment, chain)
    if args.output == "json":
        _print_json({
            "command": "eval",
            "formula": print_formula(f),
            "chain": chain.size,
            "value": value,
            "top": chain.top,
            "is_top": value == chain.top,
        })
    else:
        print(f"value {value} of 0..{chain.top}"
              + (" (top)" if value == chain.top else " (not top)"))
    return 0


def cmd_paper(args) -> int:
    targets = harness.ALL_CHECKS if args.target == "all" else [args.target]
    if args.seed_given and not harness.takes_seed(targets):
        raise ValueError(f"{args.target} takes no --seed")
    reports = harness.run_checks(targets, args.seed, args.sample)
    if args.output == "json":
        _print_json({
            "command": "paper",
            "target": args.target,
            "reports": [r.to_json() for r in reports],
        })
    else:
        print(harness.summary_table(reports))
        for r in reports:
            if not r.passed:
                print(f"failures in {r.name}: {json.dumps(r.details.get('failures'))}")
    return 0 if all(r.passed for r in reports) else 1


class _UsageError(Exception):
    """A command-line usage error: (message, the parser that found it)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError instead of exiting, so that main can report a
    usage error as one JSON document under --output json."""

    def error(self, message):
        raise _UsageError(message, self)


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=["human", "json"], default="human")


def _output(argv: list[str]) -> str:
    """The --output that argparse reads from argv: the last one given,
    under any prefix argparse accepts, before any "--"; human when argparse
    rejects it."""
    reader = _ArgumentParser(add_help=False)
    _add_output(reader)
    try:
        return reader.parse_known_args(argv)[0].output
    except _UsageError:
        return "human"


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="epist2int",
        description="Translations and decision procedures between epistemic (S4) "
        "and intuitionistic propositional logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        _add_output(p)
        return p

    t = command("translate", cmd_translate, "apply a translation to a formula")
    t.add_argument("--mode", choices=["godel", "ff"], required=True)
    t.add_argument("--gamma", help="comma-separated IP formulas (ff mode)")
    t.add_argument("--witness", help="designated member of gamma (ff mode)")
    t.add_argument("--simplify", action="store_true", help="(ff mode)")
    t.add_argument("--pretty", action="store_true",
                   help="print relative negations as neg[E](A) (ff mode)")
    t.add_argument("formula")

    p = command("prove", cmd_prove, "decide a sequent (A1, ..., An |- B)")
    p.add_argument("--logic", choices=["ip", "ep"], required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--node-cap", type=_positive_int,
                   default=os.environ.get("EPIST2INT_NODE_CAP"),
                   help="abort proof search after this many nodes "
                   "(default: $EPIST2INT_NODE_CAP, else no cap)")
    p.add_argument("sequent")

    e = command("eval", cmd_eval, "evaluate a formula on a finite chain")
    e.add_argument("--chain", type=_positive_int,
                   default=os.environ.get("EPIST2INT_MAX_CHAIN", "3"),
                   help=f"chain size, at most {MAX_CHAIN} (default: $EPIST2INT_MAX_CHAIN, else 3)")
    e.add_argument("--assign", action="append", default=[], metavar="atom=index")
    e.add_argument("formula")

    w = command("paper", cmd_paper, "run a named reproduction check, or all of them")
    w.add_argument("target", choices=["all", *sorted(harness.ALL_CHECKS)])
    w.add_argument("--seed", type=int, action=_Given, default=os.environ.get("EPIST2INT_SEED", "0"),
                   help="seed of the randomized checks (default: $EPIST2INT_SEED, else 0); "
                   "an error when no selected check is seeded")
    w.set_defaults(seed_given=False)
    w.add_argument("--sample", type=int, default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    output = _output(argv)
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        message, parser = exc.args
        if output == "human":
            parser.print_usage(sys.stderr)
    except (ParseError, ValueError, SearchLimitError, KeyError) as exc:
        message = str(exc)
    except RecursionError:
        # parsing, printing (neg[E](A) included), both translations, the
        # kernel's trace walks and the formula table are iterative; the
        # kernel's one mask evaluator (eval, refute, the Kripke check), the
        # provers and ff_simplify recurse once per nesting level (prove_ip
        # per proof level)
        message = "formula nested too deeply"
    if output == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, "error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
