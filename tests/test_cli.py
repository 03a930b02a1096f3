import json
import random

import pytest

from epist2int.cli import Config, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


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


def test_translate_json_has_raw_and_simplified(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E",
                       "--witness", "E", "--simplify", "--output", "json", "[]p")
    blob = json.loads(out)
    assert code == 0
    assert blob["schema_version"] == 1
    assert blob["raw"] == "(((p -> E) -> E) -> E) -> E"
    assert blob["simplified"] == "(p -> E) -> E"


def test_translate_pretty(capsys):
    code, out, _ = run(capsys, "translate", "--mode", "ff", "--gamma", "E,C",
                       "--witness", "E", "--simplify", "--pretty", "[]p")
    assert code == 0 and out == "neg[E](neg[E](p))"


def test_prove_ip_provable_exit_zero(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "p |- (p -> q) -> q")
    assert code == 0 and out == "Provable"


def test_prove_ip_trace_json(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--trace",
                       "--output", "json", "|- p -> p")
    blob = json.loads(out)
    assert code == 0 and blob["verdict"] == "Provable"
    assert blob["trace"]["rule"] == "R-impl"


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


def test_eval_respects_env_chain(capsys, monkeypatch):
    monkeypatch.setenv("EPIST2INT_MAX_CHAIN", "2")
    code, out, _ = run(capsys, "eval", "--assign", "p=1", "p")
    assert code == 0 and out == "value 1 of 0..1 (top)"


@pytest.mark.parametrize("target", ["thm2", "fernandez", "inoue"])
def test_paper_targets_pass(capsys, target):
    code, out, _ = run(capsys, "paper", target)
    assert code == 0 and "PASS" in out


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


def test_config_validation():
    with pytest.raises(ValueError):
        Config(max_chain=0)
    with pytest.raises(ValueError):
        Config(node_cap=-1)


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


def test_deep_formula_is_json_error(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "ip", "--output", "json",
                       "|- " + "~" * 1200 + "p")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "formula nested too deeply"


@pytest.mark.parametrize("argv", [
    ["prove", "--logic", "ip", "--output", "json", "->p"],
    ["prove", "--logic", "ip", "--output", "json", "--bogus", "p |- p"],
    ["paper", "nosuch", "--output", "json"],
    ["paper", "nosuch", "--output=json"],
])
def test_usage_error_is_json_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]


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
