import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polagram.cli import BUILTIN_CORPUS, main, parse_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse --------------------------------------------------------------------

def test_parse_grammatical(capsys):
    code, out, _ = run(capsys, "parse", "Nobody saw anybody")
    assert code == 0
    assert "grammatical, 1 reading" in out
    assert "nobody > anybody (linear)" in out


def test_parse_ungrammatical(capsys):
    code, out, _ = run(capsys, "parse", "Anybody saw nobody")
    assert code == 1
    assert "ungrammatical (no proof within budget)" in out


def test_parse_ambiguous(capsys):
    code, out, _ = run(capsys, "parse", "Somebody saw everybody")
    assert code == 0
    assert "2 readings" in out
    assert "somebody > everybody (linear)" in out
    assert "everybody > somebody (inverse)" in out


def test_parse_show_derivation_uses_logic_rule_names(capsys):
    code, out, _ = run(capsys, "parse", "Nobody saw anybody",
                       "--show-derivation")
    assert code == 0
    for label in ["Axiom", "/cE", "\\cI", "Root", "Left", "Right", "T",
                  "K′", "Unquote", "◇pI", "□↓pI"]:
        assert label in out, label


def test_parse_unknown_word_exit_2(capsys):
    code, _, err = run(capsys, "parse", "Alice saw aardvark")
    assert code == 2
    assert "aardvark" in err


def test_parse_timeout_is_unknown(capsys):
    code, out, _ = run(capsys, "parse", "Anybody saw nobody", "--json",
                       "--time-limit", "0")
    assert code == 3
    blob = json.loads(out)
    assert blob["verdict"] == "unknown"
    assert blob["timed_out"] is True
    code, out, _ = run(capsys, "parse", "Anybody saw nobody",
                       "--time-limit", "0")
    assert code == 3
    assert "unknown (search timed out)" in out


BAD_INPUTS = {
    "budget": (["parse", "Alice saw Bob", "--budget", "-1"], None),
    "t-budget": (["parse", "Alice saw Bob", "--t-budget", "-1"], None),
    "max-derivations": (["parse", "Alice saw Bob", "--max-derivations", "0"],
                        None),
    "max-domain-9": (["monotonic", "--max-domain", "9"], None),
    "max-domain-0": (["monotonic", "--max-domain", "0"], None),
    "empty-sentence": (["parse", ""], None),
    "punctuation-only": (["parse", "?!"], None),
    "corpus-unknown-word": (["corpus"], "Alice saw aardvark\tbad\n"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, name):
    argv, corpus = BAD_INPUTS[name]
    if corpus is not None:
        path = tmp_path / "corpus.tsv"
        path.write_text(corpus, encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parse_json_stable(capsys):
    code1, out1, _ = run(capsys, "parse", "Nobody saw anybody", "--json")
    code2, out2, _ = run(capsys, "parse", "Nobody saw anybody", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "grammatical"
    assert payload["readings"] == [
        {"scope": [{"word": "nobody", "pos": 0},
                   {"word": "anybody", "pos": 2}],
         "linear": True}]


# -- sequent ------------------------------------------------------------------

def test_sequent_conversion(capsys):
    assert run(capsys, "sequent", "s0", "s+")[0] == 0


def test_sequent_identity(capsys):
    assert run(capsys, "sequent", "np", "np")[0] == 0


def test_sequent_underivable(capsys):
    code, out, _ = run(capsys, "sequent", "s-", "s0")
    assert code == 1
    assert "not derivable within budget" in out


def test_sequent_stuck_configuration(capsys):
    code, _, _ = run(capsys, "sequent", "np *c ((1 * <>anybody) * <>saw)", "s-")
    assert code == 1


def test_sequent_json_reports_timeout(capsys):
    code, out, _ = run(capsys, "sequent", "np", "np", "--json")
    assert code == 0
    assert json.loads(out)["timed_out"] is False
    code, out, _ = run(capsys, "sequent",
                       "nobody * ('s_mother * (saw * (anybody * 's_father)))",
                       "s0", "--json", "--time-limit", "0")
    assert code == 3
    blob = json.loads(out)
    assert blob["timed_out"] is True
    assert blob["budget_exhausted"] is True
    assert blob["derivable"] is False


def test_sequent_syntax_error(capsys):
    code, _, err = run(capsys, "sequent", "np *((", "np")
    assert code == 2
    assert "column" in err


# -- fsm ----------------------------------------------------------------------

def test_fsm_licensing(capsys):
    code, out, _ = run(capsys, "fsm", "nobody", "anybody")
    assert code == 0
    assert "nobody > anybody (linear)" in out
    assert "inverse" not in out


def test_fsm_ambiguous(capsys):
    code, out, _ = run(capsys, "fsm", "somebody", "everybody")
    assert code == 0
    assert "somebody > everybody (linear)" in out
    assert "everybody > somebody (inverse)" in out


def test_fsm_inverse_only(capsys):
    code, out, _ = run(capsys, "fsm", "nobody", "somebody")
    assert code == 0
    assert "somebody > nobody (inverse)" in out
    assert "(linear)" not in out
    assert "window passes through" in out


def test_fsm_unknown_quantifier(capsys):
    code, _, err = run(capsys, "fsm", "nobody", "alice")
    assert code == 2
    assert "alice" in err


def test_fsm_no_admissible_order(capsys):
    code, out, _ = run(capsys, "fsm", "anybody")
    assert code == 1
    assert "no admissible scope order" in out


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_closed_output_pipe_exits_1_quietly(flags):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "polagram.cli", "fsm", "nobody",
             "anybody", *flags],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# -- corpus -------------------------------------------------------------------

def test_parse_corpus_format():
    lines = parse_corpus("Alice saw Bob\tok\t1\n"
                         "# comment\n"
                         "\n"
                         "Anybody saw nobody\tbad\n")
    assert [(l.sentence, l.expected, l.reading_count) for l in lines] == [
        ("Alice saw Bob", "ok", 1), ("Anybody saw nobody", "bad", None)]


def test_parse_corpus_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_corpus("no tab separator here\n")


def test_corpus_small_file_passes(tmp_path, capsys):
    path = tmp_path / "corpus.tsv"
    path.write_text("Alice saw Bob\tok\t1\nAnybody saw nobody\tbad\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "2/2 passed" in out


def test_corpus_wrong_expectation_fails(tmp_path, capsys):
    path = tmp_path / "corpus.tsv"
    path.write_text("Alice saw Bob\tbad\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 1
    assert "FAIL" in out


def test_corpus_timeout_never_passes(tmp_path, capsys):
    # a row expected "bad" must not pass by way of a timed-out search, and
    # a timed-out row is no disagreement with the machine, which admits a
    # reading for the "ok" row
    path = tmp_path / "corpus.tsv"
    path.write_text("Anybody saw nobody\tbad\nNobody saw anybody\tok\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path), "--json",
                       "--time-limit", "0")
    assert code == 1
    rows = json.loads(out)
    assert [row["fsm"] for row in rows] == ["bad", "ok"]
    for row in rows:
        assert row["prover"] == "unknown" and row["pass"] is False
        assert row["engines_agree"] is None
    code, out, _ = run(capsys, "corpus", str(path), "--time-limit", "0")
    assert code == 1
    rows = out.splitlines()[1:3]
    assert all(row.endswith("FAIL (search timed out)") for row in rows), out
    assert "engines disagree" not in out
    assert "0/2 passed" in out


def test_corpus_empty_file_passes(tmp_path, capsys):
    path = tmp_path / "corpus.tsv"
    path.write_text("# nothing here\n", encoding="utf-8")
    code, out, _ = run(capsys, "corpus", str(path))
    assert code == 0
    assert "0/0 passed" in out


def test_corpus_missing_file(capsys):
    code, _, err = run(capsys, "corpus", "/nonexistent/corpus.tsv")
    assert code == 2


def test_builtin_corpus_matches_acceptance_table():
    expected = {
        "Alice saw Bob": "ok",
        "Alice saw a man's mother": "ok",
        "Nobody saw anybody": "ok",
        "Everybody saw anybody": "bad",
        "Alice saw anybody": "bad",
        "Anybody saw nobody": "bad",
        "Nobody's mother saw anybody's father": "ok",
        "Anybody's mother saw nobody's father": "bad",
        "Somebody saw everybody": "ok",
    }
    assert {l.sentence: l.expected for l in BUILTIN_CORPUS} == expected


# -- monotonic ----------------------------------------------------------------

def test_monotonic_table(capsys):
    code, out, _ = run(capsys, "monotonic", "--max-domain", "2")
    assert code == 0
    assert "nobody" in out and "everybody" in out


def test_monotonic_json(capsys):
    code, out, _ = run(capsys, "monotonic", "--max-domain", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    nobody = [r for r in rows if r["word"] == "nobody" and r["domain_size"] == 3]
    assert nobody == [{"word": "nobody", "domain_size": 3,
                       "downward": True, "upward": False}]
