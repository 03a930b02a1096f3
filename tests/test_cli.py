import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import epist2int
from conftest import table_formulas
from epist2int import cli, harness
from epist2int.algebra import MAX_CHAIN
from epist2int.cli import main
from epist2int.syntax import print_formula


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def printed_fields(doc: dict) -> dict:
    """A translate document's input, raw and simplified, indices into its
    tree, read back and printed; a null stays None."""
    formulas = table_formulas(doc["tree"])
    return {key: None if doc[key] is None else print_formula(formulas[doc[key]])
            for key in ("input", "raw", "simplified")}


def test_translate_ff_simplified(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E,C",
                       "--witness", "E", "--simplify", "[]p")
    assert code == 0 and out == "(p -> E) -> E"


def test_translate_godel(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "godel", "p -> q")
    assert code == 0 and out == "[]([]p -> []q)"


def test_translate_witness_not_in_gamma(capsys):
    code, _, err = run(capsys, "translate", "--mode", "ff", "--gamma", "E",
                       "--witness", "C", "p")
    assert code == 2 and "witness not in gamma" in err


def test_translate_ff_without_context_is_json_error(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--output", "json", "p")
    assert code == 2
    assert json.loads(out) == {"schema_version": 3,
                               "error": "ff mode requires --gamma and --witness"}


def test_translate_json_has_raw_and_simplified(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E",
                       "--witness", "E", "--simplify", "--output", "json", "[]p")
    blob = json.loads(out)
    assert code == 0
    assert blob["schema_version"] == 3
    assert printed_fields(blob) == {"input": "[]p", "raw": "(((p -> E) -> E) -> E) -> E",
                                    "simplified": "(p -> E) -> E"}


def test_translate_pretty(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E,C",
                       "--witness", "E", "--simplify", "--pretty", "[]p")
    assert code == 0 and out == "neg[E](neg[E](p))"


@pytest.mark.parametrize("options", [
    ["--gamma", "q"], ["--witness", "q"], ["--simplify"], ["--pretty"],
], ids=["gamma", "witness", "simplify", "pretty"])
def test_translate_godel_rejects_ff_options(capsys, options):
    code, out, _ = run(capsys, "translate", "--mode", "godel", *options, "--output", "json",
                       "p -> q")
    assert code == 2
    assert one_json_document(out)["error"] == f"godel mode takes no {options[0]}"


def test_translate_godel_names_every_ff_option(capsys):
    code, out, err = run(capsys, "translate", "--mode", "godel", "--gamma", "q", "--witness",
                         "q", "--simplify", "--pretty", "p -> q")
    assert code == 2 and out == ""
    assert err == "error: godel mode takes no --gamma, --witness, --simplify, --pretty"


def spy(monkeypatch, owner, name) -> list:
    """The (args, kwargs) of each call to owner.name, which still runs."""
    calls = []
    real = getattr(owner, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


def test_human_translate_builds_no_json_tree(capsys, monkeypatch):
    calls = spy(monkeypatch, cli, "FormulaTable")
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E,C",
                       "--witness", "E", "--simplify", "--pretty", "[]p")
    assert code == 0 and out == "neg[E](neg[E](p))" and calls == []


def test_json_translate_prints_no_relative_negation(capsys, monkeypatch):
    # --pretty only changes the human text; the document holds indices
    calls = spy(monkeypatch, cli, "print_formula")
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E,C",
                       "--witness", "E", "--simplify", "--pretty", "--output", "json", "[]p")
    assert code == 0 and calls == []
    assert printed_fields(one_json_document(out))["simplified"] == "(p -> E) -> E"


@pytest.mark.parametrize("argv, owner, name", [
    (["eval", "--assign", "p=1", "p"], cli, "print_formula"),
    (["paper", "inoue"], harness.CheckReport, "to_json"),
], ids=["eval", "paper"])
def test_human_output_builds_no_json_document(capsys, monkeypatch, argv, owner, name):
    calls = spy(monkeypatch, owner, name)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out and calls == []


def test_prove_ip_provable_exit_zero(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "p |- (p -> q) -> q")
    assert code == 0 and out == "Provable"


def test_prove_ip_trace_json(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--trace",
                       "--output", "json", "|- p -> p")
    blob = json.loads(out)
    assert code == 0 and blob["verdict"] == "Provable"
    assert [step["rule"] for step in blob["trace"]["steps"]] == ["axiom", "R-impl"]


def test_prove_ep_countermodel_exit_one(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ep", "--output", "json",
                       "|- p -> []p")
    blob = json.loads(out)
    assert code == 1 and blob["verdict"] == "NotProvable"
    assert set(blob["countermodel"]) == {"worlds", "relation", "valuation", "root"}


def test_prove_box_in_ip_is_error(capsys):
    code, _, err = run(capsys, "prove", "--logic", "ip", "|- []p")
    assert code == 2 and "Box not allowed in IP" in err


def test_prove_error_json_is_valid(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--output", "json", "|- []p")
    assert code == 2
    assert "error" in json.loads(out)


# a checker rejecting every certificate, and a sequent whose verdict carries one
@pytest.mark.parametrize("logic, checker, rejection, sequent", [
    ("ip", "validate_trace", "forged", "p |- p"),
    ("ep", "check_kripke", False, "p |- []p"),
], ids=["ip", "ep"])
def test_prove_rejected_certificate_is_json_error(capsys, monkeypatch, logic, checker,
                                                  rejection, sequent):
    monkeypatch.setattr(harness, checker, lambda *args: rejection)
    code, out, _ = run(capsys, "prove", "--logic", logic, "--output", "json", sequent)
    assert code == 2
    assert one_json_document(out)["error"].startswith("certificate rejected: ")


def test_prove_ep_trace_is_json_error(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ep", "--trace", "--output", "json",
                       "p |- []p")
    assert code == 2
    assert one_json_document(out) == {"schema_version": 3, "error": "--trace needs --logic ip"}


def test_eval_inadmissibility_witness(capsys):
    code, out, _ = run(capsys, "eval", "--chain", "3",
                       "--assign", "B=0", "--assign", "C=0", "--assign", "E=1",
                       "((((E -> C) -> C) -> ((B -> C) -> C)) -> E) -> E")
    assert code == 0 and out == "value 1 of 0..2 (not top)"


def test_eval_tautology_top(capsys):
    code, out, _ = run(capsys, "eval", "--chain", "5", "--assign", "p=3", "p -> p")
    assert code == 0 and "(top)" in out


def test_eval_unassigned_atom(capsys):
    code, _, err = run(capsys, "eval", "--chain", "3", "p -> q")
    assert code == 2 and "unassigned atoms: p, q" in err


def test_eval_out_of_range(capsys):
    code, _, err = run(capsys, "eval", "--chain", "3", "--assign", "p=7", "p")
    assert code == 2 and "out of range" in err


def test_eval_bad_assignment_is_json_error(capsys):
    code, out, _ = run(capsys, "eval", "--output", "json", "--assign", "p", "p")
    assert code == 2
    assert json.loads(out) == {"schema_version": 3,
                               "error": "bad assignment 'p', expected atom=index"}


@pytest.mark.parametrize("assign, error", [
    ("p=x", "bad assignment 'p=x', expected atom=index"),
    ("p=1.0", "bad assignment 'p=1.0', expected atom=index"),
    ("p=-1", "atom 'p' has value -1, out of range 0..2"),
], ids=["letter", "decimal", "negative"])
def test_eval_index_is_an_int_in_range(capsys, assign, error):
    code, out, _ = run(capsys, "eval", "--output", "json", "--assign", assign, "p")
    assert code == 2 and one_json_document(out) == {"schema_version": 3, "error": error}


@pytest.mark.parametrize("assign, error", [
    (["p=0", "zz=1"], "atom 'zz' does not occur in the formula"),
    (["p=0", "p=2"], "atom 'p' is assigned twice"),
    (["p=1", " p =1"], "atom 'p' is assigned twice"),
], ids=["unknown-atom", "twice", "twice-spaced"])
@pytest.mark.parametrize("output", ["human", "json"])
def test_eval_rejects_ignored_assignments(capsys, assign, error, output):
    argv = ["eval", "--output", output, *(a for x in assign for a in ("--assign", x)), "p"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    if output == "json":
        assert one_json_document(out) == {"schema_version": 3, "error": error}
    else:
        assert out == "" and err == f"error: {error}"


def test_eval_respects_env_chain(capsys, monkeypatch):
    monkeypatch.setenv("EPIST2INT_MAX_CHAIN", "2")
    code, out, _ = run(capsys, "eval", "--assign", "p=1", "p")
    assert code == 0 and out == "value 1 of 0..1 (top)"


@pytest.mark.parametrize("target", ["thm2", "fernandez", "inoue"])
def test_paper_targets_pass(capsys, target):
    code, out, _ = run(capsys, "paper", target)
    assert code == 0 and "PASS" in out


def test_paper_human_names_a_failing_check(capsys, monkeypatch):
    failing = harness.CheckReport("broken", "fail", {"failures": [{"check": "x"}]})
    monkeypatch.setitem(harness.ALL_CHECKS, "inoue", (lambda: failing,))
    code, out, _ = run(capsys, "paper", "inoue")
    assert code == 1
    assert out.splitlines()[-1] == 'failures in broken: [{"check": "x"}]'


def test_paper_lemmas_sampled(capsys):
    code, out, _ = run(capsys, "paper", "lemmas", "--sample", "3", "--output", "json")
    blob = json.loads(out)
    assert code == 0
    assert blob["reports"][0]["status"] == "pass"


def test_paper_soundness_sampled_with_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EPIST2INT_SEED", "5")
    code, out, _ = run(capsys, "paper", "soundness", "--sample", "5", "--output", "json")
    blob = json.loads(out)
    assert code == 0 and blob["reports"][0]["seed"] == 5


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_paper_empty_sample_is_error(capsys, sample):
    code, out, _ = run(capsys, "paper", "lemmas", "--sample", sample, "--output", "json")
    assert code == 2 and json.loads(out)["error"] == "sample must be positive"


@pytest.mark.parametrize("target", ["thm2", "fernandez", "inoue", "godel"])
def test_paper_sample_without_a_sampled_check_is_error(capsys, target):
    code, out, _ = run(capsys, "paper", target, "--sample", "3", "--output", "json")
    assert code == 2
    assert one_json_document(out)["error"] == f"{target} takes no --sample"


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_paper_sample_is_rejected_before_its_value(capsys, sample):
    # fernandez takes no sample at all, so its value is beside the point
    code, out, _ = run(capsys, "paper", "fernandez", "--sample", sample, "--output", "json")
    assert code == 2 and one_json_document(out)["error"] == "fernandez takes no --sample"


@pytest.mark.parametrize("target", ["thm2", "fernandez", "inoue", "godel"])
@pytest.mark.parametrize("output", ["json", "human"])
def test_paper_seed_without_a_seeded_check_is_error(capsys, target, output):
    code, out, err = run(capsys, "paper", target, "--seed", "3", "--output", output)
    assert code == 2
    if output == "json":
        assert one_json_document(out)["error"] == f"{target} takes no --seed"
    else:
        assert out == "" and err == f"error: {target} takes no --seed"


def test_paper_env_seed_is_a_silent_default(capsys, monkeypatch):
    monkeypatch.setenv("EPIST2INT_SEED", "3")
    code, out, _ = run(capsys, "paper", "fernandez", "--output", "json")
    assert code == 0 and one_json_document(out)["reports"][0]["seed"] is None


def test_paper_malformed_env_seed_is_error(capsys, monkeypatch):
    monkeypatch.setenv("EPIST2INT_SEED", "x")
    code, out, _ = run(capsys, "paper", "fernandez", "--output", "json")
    assert code == 2 and "--seed" in one_json_document(out)["error"]


def one_json_document(out: str) -> dict:
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


# Each variable is read by one subcommand only; the others ignore it.
@pytest.mark.parametrize("name, value, argv, shown", [
    ("EPIST2INT_MAX_CHAIN", "0", ["prove", "--logic", "ip", "p |- p"], "Provable"),
    ("EPIST2INT_NODE_CAP", "abc", ["translate", "--mode", "godel", "p"], "[]p"),
    ("EPIST2INT_NODE_CAP", "abc", ["eval", "--assign", "p=2", "p"], "value 2 of 0..2 (top)"),
    ("EPIST2INT_SEED", "x", ["eval", "--assign", "p=2", "p"], "value 2 of 0..2 (top)"),
], ids=["max-chain-prove", "node-cap-translate", "node-cap-eval", "seed-eval"])
def test_env_read_only_by_its_subcommand(capsys, monkeypatch, name, value, argv, shown):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == shown and err == ""


@pytest.mark.parametrize("argv", [
    ["translate", "--mode", "godel", "--node-cap", "5", "p"],
    ["eval", "--node-cap", "5", "--assign", "p=1", "p"],
    ["paper", "thm2", "--node-cap", "1"],
], ids=["translate", "eval", "paper"])
def test_node_cap_only_on_prove(capsys, argv):
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 2 and "--node-cap" in one_json_document(out)["error"]


# --node-cap and --chain take a positive integer, from the command line or
# from the environment variable that gives their default
@pytest.mark.parametrize("env, argv", [
    ({"EPIST2INT_NODE_CAP": "-1"}, ["prove", "--logic", "ip", "p |- p"]),
    ({}, ["prove", "--logic", "ip", "--node-cap", "-1", "p |- p"]),
    ({}, ["eval", "--chain", "0", "--assign", "p=0", "p"]),
    ({"EPIST2INT_MAX_CHAIN": "abc"}, ["eval", "--assign", "p=0", "p"]),
], ids=["env-node-cap", "node-cap", "chain", "env-chain"])
def test_bad_count_is_usage_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, _ = run(capsys, *argv, "--output", "json")
    assert code == 2 and "not a positive integer" in one_json_document(out)["error"]


# a chain above make_chain's bound is an error found before any chain is
# built, from the command line or from the environment
@pytest.mark.parametrize("env, argv", [
    ({}, ["--chain", "100000"]),
    ({"EPIST2INT_MAX_CHAIN": "100000"}, []),
], ids=["chain", "env-chain"])
def test_chain_above_bound_is_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "eval", *argv, "--assign", "p=3", "p", "--output", "json")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and one_json_document(out) == {
        "schema_version": 3, "error": f"a chain has 1 to {MAX_CHAIN} elements, not 100000"}


def test_paper_all_runs_every_check_in_order(capsys, monkeypatch):
    # the full Goedel check is acceptance criterion 6; order and status
    # need only the formulas up to size 3
    small = harness.enumerate_ip_formulas(3)
    monkeypatch.setattr(harness, "enumerate_ip_formulas", lambda max_size: small)
    code, out, _ = run(capsys, "paper", "all", "--sample", "2", "--seed", "1",
                       "--output", "json")
    blob = one_json_document(out)
    checks = [c for target in harness.ALL_CHECKS.values() for c in target]
    assert code == 0 and blob["target"] == "all"
    assert [(r["name"], r["status"], r["seed"]) for r in blob["reports"]] == [
        (c.__name__.removeprefix("check_"), "pass", 1 if c in harness._SEEDED else None)
        for c in checks]


def test_node_cap_flag(capsys):
    code, _, err = run(capsys, "prove", "--logic", "ip", "--node-cap", "1",
                       "|- ~~(p \\/ ~p)")
    assert code == 2 and "node cap" in err


def test_node_cap_flag_ep_json(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ep", "--node-cap", "2",
                       "--output", "json", "|- ([]p -> q) \\/ ([]q -> p) \\/ (p /\\ q)")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


def test_deep_godel_translation_is_one_json_document(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "godel", "--output", "json",
                       "~" * 1000 + "p")
    assert code == 0
    # the tree is flat, so json.loads reads it at the default recursion limit
    blob = one_json_document(out)
    assert printed_fields(blob) == {"input": "~" * 1000 + "p", "raw": "[]~" * 1000 + "[]p",
                                    "simplified": None}
    # p, _|_ and []p, then for each ~ the input's implication, and the
    # translation's implication and its box
    assert len(blob["tree"]) == 3 + 3 * 1000 and blob["raw"] == len(blob["tree"]) - 1


def test_translate_tree_has_each_distinct_node_once(capsys):
    # ff_translate copies a box's body once per member of gamma, so the
    # printed raw text grows as 3^9 here while the interned nodes do not:
    # the translation's 78, and the input's nine boxes over its p
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "q,r,q->r", "--witness",
                       "q", "--output", "json", "[]" * 9 + "p")
    assert code == 0 and len(one_json_document(out)["tree"]) == 78 + 9


# the translation of []^13 p under three witnesses prints 3^13 copies of
# the body as text, and 52.6 MB of JSON when the document carried that text
DEEP_ARGV = ["translate", "--mode", "ff", "--gamma", "q,r,q->r", "--witness", "q", "--output",
             "json", "[]" * 13 + "p"]
DEEP_SHA256 = "d60a272cf199bb51d514f8f755abbb05fe32c459f4217c1f2f709a874fb60c50"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_deep_translate_document_is_small_and_deterministic(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(epist2int.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-m", "epist2int.cli", *DEEP_ARGV], env=env,
                         capture_output=True, check=True, timeout=60).stdout
    assert len(out) == 4956 and hashlib.sha256(out).hexdigest() == DEEP_SHA256
    doc = one_json_document(out.decode())
    assert (doc["input"], doc["raw"], doc["simplified"]) == (13, len(doc["tree"]) - 1, None)
    # no formula text: the only strings are keys, node kinds and atom names
    assert not re.search(rb"->|\\/|/\\|\[\]", out)


@pytest.mark.parametrize("option, value, error", [
    ("--gamma", "q, []r", "--gamma: Box not allowed in IP (at position 3)"),
    ("--gamma", "q,,r", "--gamma: empty formula (at position 2)"),
    ("--gamma", "q,r,", "--gamma: empty formula (at position 4)"),
    ("--gamma", ",q", "--gamma: empty formula (at position 0)"),
    ("--gamma", "q, ,r", "--gamma: empty formula (at position 2)"),
    ("--gamma", "q, r s", "--gamma: trailing input 's' (at position 5)"),
    ("--witness", "q )", "--witness: trailing input ')' (at position 2)"),
    ("--witness", "[]q", "--witness: Box not allowed in IP (at position 0)"),
    ("--witness", " ", "--witness: empty formula (at position 0)"),
], ids=["gamma-box", "gamma-empty-member", "gamma-empty-last", "gamma-empty-first",
        "gamma-blank-member", "gamma-trailing", "witness-trailing", "witness-box", "witness-blank"])
def test_translate_option_parse_error_names_option_and_offset(capsys, option, value, error):
    options = {"--gamma": "q", "--witness": "q", option: value}
    code, out, _ = run(capsys, "translate", "--mode", "ff", *(x for kv in options.items() for x in kv),
                       "--output", "json", "p")
    assert code == 2 and one_json_document(out) == {"schema_version": 3, "error": error}


def test_json_output_is_formatted_as_json_dumps(capsys):
    for argv in (["translate", "--mode", "ff", "--gamma", "E,C", "--witness", "E", "--simplify",
                  "--output", "json", "[]p \\/ q"],
                 ["prove", "--logic", "ip", "--trace", "--output", "json", "p \\/ q |- q \\/ p"],
                 ["paper", "fernandez", "--output", "json"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == json.dumps(json.loads(out)), argv
    # the trace line of human mode too
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--trace", "p \\/ q |- q \\/ p")
    verdict, trace = out.split("\ntrace: ")
    assert code == 0 and verdict == "Provable" and trace == json.dumps(json.loads(trace))


# n disjunctions pi \/ pi in the context: the trace has 3n distinct nodes,
# but 102 399 as a tree at n = 12, and schema 1 wrote the tree
WIDE = ", ".join(f"p{i} \\/ p{i}" for i in range(14)) + " |- q \\/ (" + " /\\ ".join(
    f"p{i}" for i in range(14)) + ")"
WIDE_ARGV = ["prove", "--logic", "ip", "--trace", "--output", "json", WIDE]
WIDE_SHA256 = "b77e5f29f81ec7681e3f92a82935e3ab7a2a83b74fd30db7f4f880587c89ec5b"


def test_wide_trace_document_is_linear(capsys):
    code = main(WIDE_ARGV)
    out = capsys.readouterr().out
    doc = one_json_document(out)
    assert code == 0 and len(doc["trace"]["steps"]) == 42 and len(doc["trace"]["formulas"]) == 43
    assert len(out.encode()) == 7576
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SHA256


@pytest.mark.parametrize("seed, interned", [
    ("0", ""), ("1", ""), ("0", "q \\/ (p13 /\\ p12), " + ", ".join(
        f"p{i} \\/ p{i} -> p{i}" for i in reversed(range(14))) + " |- q"),
], ids=["seed-0", "seed-1", "interned-first"])
def test_trace_document_bytes_are_deterministic(seed, interned):
    """A fresh process prints the bytes pinned above, whatever its hash
    seed and whatever formulas it built before."""
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(epist2int.__file__).resolve().parent.parent))
    code = ("import sys; from epist2int.cli import main; from epist2int.syntax import parse_sequent; "
            "sys.argv[1] and parse_sequent(sys.argv[1]); sys.exit(main(sys.argv[2:]))")
    out = subprocess.run([sys.executable, "-c", code, interned, *WIDE_ARGV], env=env,
                         capture_output=True, check=True, timeout=60).stdout
    assert hashlib.sha256(out).hexdigest() == WIDE_SHA256


def test_deep_formula_is_json_error(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--output", "json",
                       "|- " + "~" * 1200 + "p")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "formula nested too deeply"


def test_deep_eval_is_json_error(capsys):
    # the mask evaluator recurses once per nesting level
    code, out, _ = run(capsys, "eval", "--output", "json", "--chain", "3", "--assign", "p=1",
                       "~" * 1200 + "p")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "formula nested too deeply"


def test_prove_deep_implication_chain(capsys):
    chain = " -> ".join(f"a{i}" for i in range(400))
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--output", "json", f"|- {chain} -> a0")
    assert code == 0
    assert json.loads(out)["verdict"] == "Provable"
    # human mode writes the same flat trace document
    chain = " -> ".join(f"a{i}" for i in range(600))
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--trace", f"|- {chain} -> a0")
    assert code == 0 and out.startswith("Provable\ntrace: {")


def test_translate_ff_deep_negation(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "q", "--witness", "q",
                       "~" * 1200 + "p")
    assert code == 0
    # the translation of ~A is T(A) -> T(_|_), with T(_|_) = (_|_ -> q) -> q
    assert out == "(" * 1200 + "(p -> q) -> q" + ") -> (_|_ -> q) -> q" * 1200
    # neg[q](A) is never parenthesised
    to_falsum = " -> neg[q](neg[q](_|_))"
    pretty = "(" * 1499 + "neg[q](neg[q](p))" + to_falsum + (")" + to_falsum) * 1499
    for output, shown in (("human", pretty), ("json", '{"command": "translate"')):
        code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "q", "--witness", "q",
                           "--pretty", "--output", output, "~" * 1500 + "p")
        assert code == 0 and out.startswith(shown)


@pytest.mark.parametrize("argv", [
    ["prove", "--logic", "ip", "--output", "json", "->p"],
    ["prove", "--logic", "ip", "--output", "json", "--bogus", "p |- p"],
    ["paper", "nosuch", "--output", "json"],
    ["paper", "nosuch", "--output=json"],
    ["prove", "--logic", "ip", "--out", "json", "->p"],
    ["prove", "--logic", "ip", "--outp=json", "->p"],
    ["prove", "--logic", "ip", "--output", "human", "--output", "json", "--bogus", "p |- p"],
])
def test_usage_error_is_json_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]


# argparse reads the last --output given, so a usage error is reported in
# the mode that the same command line without the error would use
@pytest.mark.parametrize("argv", [
    ["prove", "--logic", "ip", "--output", "json", "--output", "human", "--bogus", "p |- p"],
    ["prove", "--logic", "ip", "--out=json", "--o", "human", "->p"],
], ids=["bogus", "abbreviated"])
def test_usage_error_in_last_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("usage: epist2int")


def test_json_after_double_dash_is_an_operand(capsys):
    code, out, err = run(capsys, "prove", "--logic", "ip", "--", "--output", "json")
    assert code == 2 and out == "" and err.startswith("usage: epist2int")


def test_usage_error_human_prints_usage(capsys):
    code, out, err = run(capsys, "prove", "--logic", "xx", "p")
    assert code == 2 and out == ""
    assert err.startswith("usage: epist2int prove")
    assert "error: argument --logic: invalid choice" in err


FUZZ_TOKENS = ["p", "q", "T", "_|_", "~", "[]", "/\\", "\\/", "->", "(", ")", ",", "|-", "@"]


def test_prove_fuzz_gives_one_json_document(capsys):
    rng = random.Random(0)
    codes = set()
    for k in range(300):
        tokens = [rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 10))]
        if rng.random() < 0.5:
            tokens.insert(rng.randint(0, len(tokens)), "|-")
        text = "".join(tok + rng.choice(("", " ")) for tok in tokens)
        # "--" ends the options, since argparse reads a text such as "->p" as one
        code = main(["prove", "--logic", ("ip", "ep")[k % 2], "--output", "json",
                     "--node-cap", "300", "--", text])
        blob = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2), text
        assert ("error" in blob) == (code == 2), text
        codes.add(code)
    assert codes == {0, 1, 2}


def readme_cli_examples() -> list:
    """(command line, exit code, shown output) for each `epist2int` line of
    README's CLI block.  A trailing backslash continues a line, a "# exit N"
    comment states the exit code, and the lines indented under a command,
    if any, are its output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    examples = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("epist2int "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            code = int(re.search(r"# exit (\d)", line).group(1))
            examples.append((line, code, []))
        elif line.startswith("    ") and examples:
            examples[-1][2].append(line.strip())
    return [pytest.param(line, code, "\n".join(shown), id=" ".join(line.split("#")[0].split()))
            for line, code, shown in examples]


@pytest.mark.parametrize("line, code, shown", readme_cli_examples())
def test_readme_cli_example(capsys, line, code, shown):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "epist2int"
    got, out, _ = run(capsys, *argv[1:])
    assert got == code
    if shown:
        assert out == shown
