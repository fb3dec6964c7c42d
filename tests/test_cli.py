"""CLI subcommands: exit codes, printed output, and file round trips."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwc import cli
from rwc import compiler as C
from rwc import kk, oracle
from rwc import rulespec as R
from rwc import textio
from rwc.bench import CSV_HEADER, run_bench
from rwc.boolean_ops import compact_transducer
from rwc.cli import main
from rwc.errors import BadOptionError
from rwc.fsm import EPS, Alphabet, Transducer, aut_sigma_star

from .helpers import (rand_phonology_text, reference_compare, rng_for,
                      time_limit)

RULE9 = ("alphabet: b m n p N a ;\n"
         f"N -> <{-math.log(0.9)!r}> m + <{-math.log(0.1)!r}> n"
         " / _ [b m p] ;\n")

SMALL = "alphabet: a b c d ;\na -> b / c _ d ;\n"

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def rule9_file(tmp_path):
    p = tmp_path / "rule9.rules"
    p.write_text(RULE9)
    return p


def test_compile_and_apply_rule9(rule9_file, tmp_path, capsys):
    out = tmp_path / "rule9.fst"
    assert main(["compile", str(rule9_file), "-o", str(out)]) == 0
    assert out.exists()
    assert main(["apply", str(out), "Nb"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["mb 0.105361", "nb 2.302585"]


def test_apply_nbest(rule9_file, tmp_path, capsys):
    out = tmp_path / "rule9.fst"
    main(["compile", str(rule9_file), "-o", str(out)])
    capsys.readouterr()
    assert main(["apply", str(out), "Nb", "--nbest", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["mb 0.105361"]


def test_apply_undeclared_symbol_fails(rule9_file, tmp_path, capsys):
    out = tmp_path / "rule9.fst"
    main(["compile", str(rule9_file), "-o", str(out)])
    assert main(["apply", str(out), "Nz"]) == 1
    assert "E_UNKNOWN_SYMBOL" in capsys.readouterr().err


def test_compile_empty_ruleset_is_identity(tmp_path, capsys):
    rules = tmp_path / "empty.rules"
    rules.write_text("alphabet: a b ;\n")
    out = tmp_path / "ident.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["apply", str(out), "ab"]) == 0
    assert capsys.readouterr().out.splitlines() == ["ab 0.000000"]


def test_compile_weight_overflow_exits_1(tmp_path, capsys):
    rules = tmp_path / "big.rules"
    rules.write_text("alphabet: a b ;\n"
                     "a -> <1e308> b / _ ;\nb -> <1e308> a / _ ;\n")
    assert main(["compile", str(rules), "-o", str(tmp_path / "big.fst")]) \
        == 1
    assert "E_WEIGHT_OVERFLOW" in capsys.readouterr().err


def test_apply_weight_overflow_exits_1(tmp_path, capsys):
    rules = tmp_path / "big.rules"
    rules.write_text("alphabet: a b ;\na -> <1e308> b / _ ;\n")
    out = tmp_path / "big.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["apply", str(out), "a"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"b {1e308:.6f}"]
    # two rewrites cost 2e308: an error, not an empty answer
    assert main(["apply", str(out), "aa"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "E_WEIGHT_OVERFLOW" in captured.err


def test_compile_overflow_in_an_epsilon_closure_exits_1(tmp_path, capsys):
    # psi is the one string b at weight 2e308, summed over an epsilon path
    rules = tmp_path / "big.rules"
    rules.write_text("alphabet: a b ;\na -> <1e308> (<1e308> b) / _ ;\n")
    assert main(["compile", str(rules), "-o", str(tmp_path / "big.fst")]) \
        == 1
    assert "E_WEIGHT_OVERFLOW" in capsys.readouterr().err


def test_compile_overflow_split_over_two_psi_arcs_exits_1(tmp_path, capsys):
    # psi is b b at weight 2e308, carried by two arcs that no later sum adds
    rules = tmp_path / "big.rules"
    rules.write_text("alphabet: a b ;\na -> (<1e308> b) (<1e308> b) / _ ;\n")
    assert main(["compile", str(rules), "-o", str(tmp_path / "big.fst")]) \
        == 1
    assert "E_WEIGHT_OVERFLOW" in capsys.readouterr().err
    # below the float range the rule compiles
    rules.write_text("alphabet: a b ;\na -> (<1e307> b) (<1e307> b) / _ ;\n")
    assert main(["compile", str(rules), "-o", str(tmp_path / "ok.fst")]) \
        == 0


# rules 2-4 of a file over a b c d e: c -> d -> e costs 2e308
OVERFLOW_TAIL = "b -> b / _ ;\nc -> <1e308> d / _ ;\nd -> <1e308> e / _ ;\n"


def test_compile_overflow_only_off_the_cascade_exits_0(tmp_path, capsys):
    # rule 1 leaves no c for rule 3: the product of the last two rules
    # alone overflows, the cascade does not
    rules = tmp_path / "right.rules"
    rules.write_text("alphabet: a b c d e ;\nc -> a / _ ;\n" + OVERFLOW_TAIL)
    out = tmp_path / "right.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 0
    assert capsys.readouterr().out == \
        f"wrote {out}: states=1 arcs=5 weighted=yes\n"
    assert main(["apply", str(out), "cde"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"aee {1e308:.6f}"]


def test_compile_overflow_on_the_cascade_exits_1(tmp_path, capsys):
    # a first rule that leaves c: "c" is rewritten to "e" at 2e308
    rules = tmp_path / "right.rules"
    rules.write_text("alphabet: a b c d e ;\na -> b / _ c ;\n"
                     + OVERFLOW_TAIL)
    assert main(["compile", str(rules), "-o", str(tmp_path / "r.fst")]) == 1
    assert "E_WEIGHT_OVERFLOW" in capsys.readouterr().err


@pytest.mark.parametrize("rules_text", [
    "alphabet: a b ;\na a -> <1e308> b / _ ;\na -> <1e308> b / _ ;\n",
    "alphabet: a b ;\na -> <1e308> b / _ ;\n"])
def test_check_weight_overflow_exits_1(tmp_path, capsys, rules_text):
    # "aa" costs 2e308: an error, not an oracle without output
    rules = tmp_path / "big.rules"
    rules.write_text(rules_text)
    assert main(["check", str(rules), "--max-len", "3"]) == 1
    captured = capsys.readouterr()
    assert "E_WEIGHT_OVERFLOW" in captured.err
    assert "no output" not in captured.out + captured.err


def test_compile_malformed_file_exits_1(tmp_path, capsys):
    rules = tmp_path / "bad.rules"
    rules.write_text("alphabet a b ;\n")
    out = tmp_path / "bad.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 1
    assert "E_SYNTAX" in capsys.readouterr().err


def test_compile_deeply_nested_rule_exits_1(tmp_path, capsys):
    rules = tmp_path / "deep.rules"
    rules.write_text("alphabet: a b ;\n" + "(" * 300 + "a" + ")" * 300
                     + " -> b ;\n")
    out = tmp_path / "deep.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "E_SYNTAX" in err
    assert f"(line 2, col {R.MAX_NESTING + 1})" in err


def test_compile_kk_algorithm(tmp_path, capsys):
    rules = tmp_path / "small.rules"
    rules.write_text(SMALL)
    out = tmp_path / "small_kk.fst"
    assert main(["compile", str(rules), "-o", str(out),
                 "--algorithm", "kk"]) == 0
    capsys.readouterr()
    assert main(["apply", str(out), "cad"]) == 0
    assert capsys.readouterr().out.splitlines() == ["cbd 0.000000"]


def test_compile_kk_chain_demo_is_golden(tmp_path, capsys):
    # both compilers fold compacted rules over the same blocks, so they
    # write the same machine: one golden per rule file
    for rules in (DEMOS / "nasal.rules", DEMOS / "chain.rules"):
        out = tmp_path / "demo.kk.fst"
        assert main(["compile", str(rules), "-o", str(out),
                     "--algorithm", "kk"]) == 0
        assert out.read_bytes() == \
            (GOLDEN / f"{rules.stem}.fst").read_bytes(), rules
    out = tmp_path / "phonology194.kk.fst"
    assert main(["compile", str(GOLDEN / "phonology194.rules"),
                 "-o", str(out), "--algorithm", "kk"]) == 0
    golden = json.loads((GOLDEN / "phonology194.json").read_text())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]


def test_compile_paper_scale_file_is_golden(tmp_path, capsys):
    out = tmp_path / "phonology194.fst"
    assert main(["compile", str(GOLDEN / "phonology194.rules"),
                 "-o", str(out)]) == 0
    golden = json.loads((GOLDEN / "phonology194.json").read_text())
    assert capsys.readouterr().out == (
        f"wrote {out}: states={golden['states']} arcs={golden['arcs']} "
        "weighted=yes\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]


def test_apply_paper_scale_file_is_golden(tmp_path, capsys, monkeypatch):
    # 200 strings of 10-40 of the 194 multi-character names, and an empty
    # line, which --stdin applies like any other
    import io

    fst = tmp_path / "phonology194.fst"
    assert main(["compile", str(GOLDEN / "phonology194.rules"),
                 "-o", str(fst)]) == 0
    capsys.readouterr()
    inputs = (GOLDEN / "phonology194.inputs").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(inputs))
    assert main(["apply", str(fst), "--stdin"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "phonology194.apply").read_text()


def test_compile_32_rule_file_is_golden(tmp_path, capsys):
    # four 8-rule files over the paper's 194 symbols, composed as a tree
    out = tmp_path / "phonology32.fst"
    assert main(["compile", str(GOLDEN / "phonology32.rules"),
                 "-o", str(out)]) == 0
    golden = json.loads((GOLDEN / "phonology32.json").read_text())
    assert capsys.readouterr().out == (
        f"wrote {out}: states={golden['states']} arcs={golden['arcs']} "
        "weighted=yes\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("algorithm", ["new", "kk"])
@pytest.mark.parametrize("rules", [DEMOS / "nasal.rules",
                                   DEMOS / "chain.rules",
                                   GOLDEN / "phonology194.rules"],
                         ids=lambda p: p.stem)
def test_compile_no_compact_is_golden(rules, algorithm, tmp_path, capsys):
    # the uncompacted machines: compaction would hide a change in the
    # products and ε:ε arcs it canonicalises
    out = tmp_path / "loose.fst"
    assert main(["compile", str(rules), "--no-compact", "--algorithm",
                 algorithm, "-o", str(out)]) == 0
    golden = json.loads((GOLDEN / "no_compact.json").read_text())
    golden = golden[f"{rules.stem} {algorithm}"]
    assert capsys.readouterr().out.startswith(
        f"wrote {out}: states={golden['states']} arcs={golden['arcs']} ")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["sha256"]


def test_compile_kk_weighted_rule_writes_the_direct_bytes(rule9_file,
                                                          tmp_path, capsys):
    direct, baseline = tmp_path / "new.fst", tmp_path / "kk.fst"
    assert main(["compile", str(rule9_file), "-o", str(direct)]) == 0
    assert main(["compile", str(rule9_file), "-o", str(baseline),
                 "--algorithm", "kk"]) == 0
    assert baseline.read_bytes() == direct.read_bytes()
    assert "weighted=yes" in capsys.readouterr().out


def test_check_passes_on_good_rules(tmp_path, capsys):
    rules = tmp_path / "small.rules"
    rules.write_text(SMALL)
    assert main(["check", str(rules), "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert "oracle equivalence" in out and "kk cross-check: ok" in out


def test_check_weighted_rule_gets_kk_check(rule9_file, capsys):
    assert main(["check", str(rule9_file), "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "rule 0: kk cross-check: ok" in out and "skipped" not in out


def test_check_against_corrupted_fst_exits_2(tmp_path, capsys):
    rules = tmp_path / "small.rules"
    rules.write_text(SMALL)
    good = tmp_path / "good.fst"
    assert main(["compile", str(rules), "-o", str(good)]) == 0
    text = good.read_text()
    # corrupt one output label: b -> a on some arc
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        parts = ln.split()
        if parts[0] == "arc" and parts[4] == "2":
            parts[4] = "1"
            lines[i] = " ".join(parts)
            break
    bad = tmp_path / "bad.fst"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["check", str(rules), "--max-len", "4",
                 "--against", str(bad)]) == 2
    assert main(["check", str(rules), "--max-len", "4",
                 "--against", str(good)]) == 0


def test_apply_stdin(rule9_file, tmp_path, capsys, monkeypatch):
    import io

    out = tmp_path / "rule9.fst"
    main(["compile", str(rule9_file), "-o", str(out)])
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("Nb\nNa\n"))
    assert main(["apply", str(out), "--stdin", "--nbest", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["mb 0.105361",
                                                    "Na 0.000000"]


def test_apply_stdin_applies_blank_lines(capsys, monkeypatch):
    # as `rwc apply FST ""` does, the empty input gives the empty output
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\nNb\n"))
    assert main(["apply", str(GOLDEN / "nasal.fst"), "--stdin"]) == 0
    assert capsys.readouterr().out.splitlines() == [" 0.000000",
                                                    "mb 0.105361",
                                                    "nb 2.302585"]


def test_check_psi_with_zero_weight_loop_exits_1(tmp_path, capsys):
    rules = tmp_path / "loop.rules"
    rules.write_text("alphabet: a b c ;\na -> b* c ;\n")
    with time_limit(10):
        assert main(["check", str(rules), "--max-len", "2"]) == 1
    assert "E_DIVERGENT" in capsys.readouterr().err


@pytest.mark.parametrize("loop, exit_", [("a", "b"), ("b", "a")])
def test_apply_zero_weight_output_loop_truncates(loop, exit_, tmp_path,
                                                 capsys):
    ab = Alphabet(["a", "b"])
    fst = tmp_path / "loop.fst"
    textio.write_machine(fst, Transducer(
        2, 0, {1: 0.0}, [(0, EPS, ab.id_of(loop), 0.0, 0),
                         (0, EPS, ab.id_of(exit_), 0.0, 1)]), ab)
    with time_limit(10):
        assert main(["apply", str(fst), "", "--bound", "5"]) == 0
    out, err = capsys.readouterr()
    assert "truncated at 5 strings" in err
    assert sorted(out.splitlines()) == sorted(
        f"{loop * k}{exit_} 0.000000" for k in range(5))


@pytest.mark.parametrize("family, kmax, kwargs", [
    ("left", -1, {}),
    ("left", 1, {"alphabet_size": 2}),
    ("middle", 1, {}),
    ("right", 0, {"deadline_ms": 0}),
    ("left", 0, {"skip_after": -1}),
])
def test_run_bench_rejects_out_of_range_arguments(family, kmax, kwargs):
    with pytest.raises(BadOptionError):
        run_bench(family, kmax, **kwargs)


def test_bench_kmax0_writes_two_rows(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", str(out), "--family", "left", "--kmax", "0",
                 "--alphabet-size", "12", "--deadline-ms", "60000"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("left,0,new,")
    assert lines[2].startswith("left,0,kk,")


def test_multicharacter_symbols_roundtrip(tmp_path, capsys):
    rules = tmp_path / "multi.rules"
    rules.write_text("alphabet: s000 s001 s002 ;\n"
                     "s000 -> s001 / s002 _ ;\n")
    out = tmp_path / "multi.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 0
    capsys.readouterr()
    # whitespace-tokenized input, space-joined output
    assert main(["apply", str(out), "s002 s000"]) == 0
    assert capsys.readouterr().out.splitlines() == ["s002 s001 0.000000"]


def test_bench_csv_deterministic_except_ms(tmp_path):
    def strip_ms(path):
        rows = []
        for ln in path.read_text().splitlines()[1:]:
            cols = ln.split(",")
            rows.append(cols[:3] + cols[4:])
        return rows

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert main(["bench", str(p), "--family", "right", "--kmax", "2",
                     "--alphabet-size", "10",
                     "--deadline-ms", "60000"]) == 0
    assert strip_ms(a) == strip_ms(b)


def test_check_against_compiled_nasal_demo(tmp_path, capsys):
    # weights such as -log(0.9) must survive the FST file exactly
    out = tmp_path / "n.fst"
    rules = str(DEMOS / "nasal.rules")
    assert main(["compile", rules, "-o", str(out)]) == 0
    assert main(["check", rules, "--max-len", "4",
                 "--against", str(out)]) == 0


def test_compile_unweighted_rules_writes_unweighted_header(tmp_path):
    out = tmp_path / "c.fst"
    assert main(["compile", str(DEMOS / "chain.rules"), "-o", str(out)]) == 0
    assert out.read_text().splitlines()[0] == \
        "WFST v1 unweighted transducer"


def test_compile_weighted_rule_that_never_fires_writes_unweighted(tmp_path,
                                                                  capsys):
    # rule 1 rewrites every a, so the weighted rule 2 never fires and the
    # machine carries no nonzero weight
    rules = tmp_path / "dead.rules"
    rules.write_text("alphabet: a b c ;\na -> b ;\na -> <1> c ;\n")
    out = tmp_path / "dead.fst"
    assert main(["compile", str(rules), "-o", str(out)]) == 0
    assert capsys.readouterr().out == \
        f"wrote {out}: states=1 arcs=3 weighted=no\n"
    assert out.read_text().splitlines()[0] == \
        "WFST v1 unweighted transducer"
    assert main(["apply", str(out), "abc"]) == 0
    assert capsys.readouterr().out.splitlines() == ["bbc 0.000000"]


def test_check_refuses_sweep_over_budget(tmp_path, capsys):
    # each sweep counts the symbols it sweeps: a rule's representatives,
    # and the full alphabet for --against only when that file is swept
    names = " ".join(f"s{i:03d}" for i in range(194))
    wide = tmp_path / "wide.rules"
    # 10 blocks: s000, s001, s002 to s008 one each, and the other 185
    wide.write_text(f"alphabet: {names} ;\n"
                    "s000 -> s001 / s002 s003 s004 s005 s006 s007 s008 _ ;\n")
    # 10 representatives up to the default --max-len 6 are 1,111,111 strings
    assert main(["check", str(wide)]) == 1
    err = capsys.readouterr().err
    assert "E_BUDGET: 10 symbols up to length 6" in err
    rules = tmp_path / "narrow.rules"
    rules.write_text(f"alphabet: {names} ;\ns000 -> s001 / s002 _ ;\n")
    other = tmp_path / "other.rules"
    other.write_text(f"alphabet: {names} ;\ns000 -> s002 ;\n")
    for path in (rules, other):
        assert main(["compile", str(path), "-o", f"{path}.fst"]) == 0
    capsys.readouterr()
    # a differing file is swept over all 194 symbols: 7.3e6 strings up to 3
    assert main(["check", str(rules), "--max-len", "3",
                 "--against", f"{other}.fst"]) == 1
    err = capsys.readouterr().err
    assert "E_BUDGET: 194 symbols up to length 3" in err
    # the rule's own compiled file is decided without that sweep
    assert main(["check", str(rules), "--max-len", "3",
                 "--against", f"{rules}.fst"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_check_budget_error_adds_the_max_len_hint(tmp_path, capsys):
    # a, b and the block {c, d}: 3 representatives up to length 13 are
    # 2,391,484 strings
    rules = tmp_path / "small.rules"
    rules.write_text("alphabet: a b c d ;\na -> b ;\n")
    assert main(["check", str(rules), "--max-len", "13"]) == 1
    assert capsys.readouterr().err == (
        "error: E_BUDGET: 3 symbols up to length 13 are more than 1,000,000 "
        "input strings; lower max_len (--max-len)\n")


def test_import_loads_neither_dataclasses_nor_bench():
    # what every `rwc` command imports first; diffing sys.modules ignores
    # whatever the interpreter's site set-up loads
    code = ("import sys; before = set(sys.modules); import rwc, rwc.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    new = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "rwc.cli" in new
    assert not {"dataclasses", "inspect", "rwc.bench"} & set(new)


def test_check_budget_admits_nasal_demo_default(monkeypatch):
    # 6 symbols up to --max-len 6 are 55,987 strings
    checked = []
    monkeypatch.setattr(cli, "_check_one_rule",
                        lambda idx, *args: checked.append(idx) or [])
    assert main(["check", str(DEMOS / "nasal.rules")]) == 0
    assert checked == [0]


@pytest.mark.parametrize("argv", [
    ["check", str(DEMOS / "nasal.rules"), "--max-len", "-1"],
    ["apply", "{fst}", "Nb", "--nbest", "-1"],
    ["apply", "{fst}", "Nb", "--nbest", "0"],
    ["apply", "{fst}", "Nb", "--bound", "0"],
    ["bench", "{fst}.csv", "--family", "left", "--kmax", "-1"],
    ["bench", "{fst}.csv", "--family", "left", "--alphabet-size", "2"],
    ["bench", "{fst}.csv", "--family", "right", "--deadline-ms", "-5"],
    ["bench", "{fst}.csv", "--family", "right", "--deadline-ms", "0"],
    ["bench", "{fst}.csv", "--family", "left", "--skip-after", "-1"],
    ["check", str(DEMOS / "nasal.rules"), "--deadline-ms", "0"],
    ["compile", str(DEMOS / "nasal.rules"), "-o", "{fst}.out",
     "--deadline-ms", "-3"],
])
def test_option_out_of_range_exits_1(argv, rule9_file, tmp_path, capsys):
    fst = tmp_path / "rule9.fst"
    assert main(["compile", str(rule9_file), "-o", str(fst)]) == 0
    capsys.readouterr()
    assert main([a.format(fst=fst) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "E_BAD_OPTION" in err and argv[-2] in err


def test_apply_without_input_exits_1_with_bad_option(rule9_file, tmp_path,
                                                     capsys):
    fst = tmp_path / "rule9.fst"
    assert main(["compile", str(rule9_file), "-o", str(fst)]) == 0
    capsys.readouterr()
    assert main(["apply", str(fst)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: E_BAD_OPTION: provide an input string or --stdin\n")


def test_check_reports_oracle_mismatch(tmp_path, capsys, monkeypatch):
    rules = tmp_path / "small.rules"
    rules.write_text(SMALL)

    def identity_compile(rule, alphabet):
        return C.CompiledRule(C.identity_over_sigma(alphabet), None)

    monkeypatch.setattr(cli.compiler, "compile_rule", identity_compile)
    assert main(["check", str(rules), "--max-len", "3"]) == 2
    out, err = capsys.readouterr()
    assert "rule 0: oracle equivalence on 85 strings: FAIL" in out
    assert ("rule 0: input ('c', 'a', 'd'): compiled "
            "{('c', 'a', 'd'): 0.0} != oracle {('c', 'b', 'd'): 0.0}") in err


THREE_RULES = ("alphabet: a b c ;\n"
               "a -> b / c _ ;\n"
               "b -> <0.5> c + a ;\n"
               "c -> a / _ b ;\n")


def _count_sweeps(monkeypatch):
    """Record the (machine, sigma) of every relation sweep."""
    calls = []
    sweep = oracle._relation

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(oracle, "_relation", counted)
    return calls


def test_check_sweeps_each_relation_once(tmp_path, capsys, monkeypatch):
    # 3 compiled rules and the --against FST: the 3 compacted KK machines
    # are identical to machines already swept, and the FST to the composed
    # set, with a sweep that a bound shows raises nothing, so 3 sweeps,
    # where sweeping every machine took 8
    rules = tmp_path / "three.rules"
    rules.write_text(THREE_RULES)
    fst = tmp_path / "three.fst"
    assert main(["compile", str(rules), "-o", str(fst)]) == 0
    calls = _count_sweeps(monkeypatch)
    assert main(["check", str(rules), "--max-len", "3",
                 "--against", str(fst)]) == 0
    assert len(calls) == 3
    out = capsys.readouterr().out
    assert out.count("kk cross-check: ok") == 3
    assert "ruleset vs" in out and "all checks passed" in out


FOUR_BLOCKS = ("alphabet: a b c d e ;\n"
               "a -> b / c _ ;\n"
               "b -> <0.5> c + a ;\n"
               "a -> e / _ d ;\n")


@pytest.mark.parametrize("reweight", [False, True])
def test_check_against_compiles_each_rule_once(reweight, tmp_path, capsys,
                                               monkeypatch):
    # the composed set is built from the 3 machines the rule checks
    # compiled, each over its own blocks (d and e share one for rule 0):
    # 3 compile_rule calls, where compiling the set again took 6, and the
    # verdict and counterexamples of composing freshly compiled rules
    rules = tmp_path / "four.rules"
    rules.write_text(FOUR_BLOCKS)
    fst = tmp_path / "four.fst"
    assert main(["compile", str(rules), "-o", str(fst)]) == 0
    if reweight:
        lines = fst.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("arc "))
        parts = lines[k].split()
        parts[-1] = repr(float(parts[-1]) + 7.0)
        lines[k] = " ".join(parts)
        fst.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    calls = []
    compile_rule = C.compile_rule
    monkeypatch.setattr(C, "compile_rule", lambda rule, *args, **kwargs:
                        calls.append(rule) or compile_rule(rule, *args,
                                                           **kwargs))
    assert main(["check", str(rules), "--max-len", "3",
                 "--against", str(fst)]) == 2 * reweight
    assert len(calls) == 3
    out, err = capsys.readouterr()
    assert out == "".join(
        f"rule {i}: oracle equivalence on {n} strings: ok\n"
        f"rule {i}: kk cross-check: ok\n" for i, n in enumerate((85, 85, 85))
    ) + f"ruleset vs {fst}: {'FAIL' if reweight else 'ok'}\n" + (
        "" if reweight else "all checks passed\n")
    monkeypatch.setattr(C, "compile_rule", compile_rule)
    ruleset = R.parse_rule_file(FOUR_BLOCKS)
    rep = oracle.equivalent_on(C.compile_ruleset(ruleset),
                               textio.read_transducer(str(fst))[0],
                               ruleset.alphabet, 3)
    assert rep.equivalent is not reweight
    assert err == "".join(
        [f"{len(rep.counterexamples)} failure(s):\n"] * reweight +
        [f"  against: mismatch on {u!r}: {a!r} vs {b!r}\n"
         for u, a, b in rep.counterexamples])


def test_check_sweeps_rule_blocks_and_full_alphabet_against(capsys,
                                                             monkeypatch):
    # nasal's rule tells apart 5 blocks of its 6 symbols (b and p share
    # one): its sweep covers the 19,531 strings over 5 representatives up
    # to the default --max-len 6; the golden is the composed machine, and
    # a bound shows its sweep raises nothing, so it is not swept
    calls = _count_sweeps(monkeypatch)
    assert main(["check", str(DEMOS / "nasal.rules"),
                 "--against", str(GOLDEN / "nasal.fst")]) == 0
    out = capsys.readouterr().out
    assert "rule 0: oracle equivalence on 19531 strings: ok" in out
    assert [len(sigma) for _, sigma in calls] == [5]


def test_check_sweeps_machines_that_differ(tmp_path, capsys, monkeypatch):
    # uncompacted KK machines and an uncompacted FST are not identical to
    # the compiled ones: 3 + 3 + 2 sweeps, all agreeing
    rules = tmp_path / "three.rules"
    rules.write_text(THREE_RULES)
    fst = tmp_path / "loose.fst"
    assert main(["compile", str(rules), "--no-compact", "-o", str(fst)]) == 0
    monkeypatch.setattr(kk, "compact_transducer", lambda t: t)
    calls = _count_sweeps(monkeypatch)
    assert main(["check", str(rules), "--max-len", "3",
                 "--against", str(fst)]) == 0
    assert len(calls) == 3 + 3 + 2
    out = capsys.readouterr().out
    assert out.count("kk cross-check: ok") == 3 and "all checks passed" in out


def test_check_against_own_fst_raises_overflow_of_the_composed_set(
        tmp_path, capsys):
    # each rule alone stays in the float range up to length 2, but "ac" is
    # rewritten to "bd" at 1.5e308 + 0.5e308 by the two together. Only the
    # sweep of the composed machine reaches that sum: the FST is identical
    # to it, and is swept all the same
    rules = tmp_path / "split.rules"
    rules.write_text("alphabet: a b c d ;\n"
                     "a -> <1.5e308> b / _ c ;\nc -> <0.5e308> d / _ ;\n")
    fst = tmp_path / "split.fst"
    assert main(["compile", str(rules), "-o", str(fst)]) == 0
    assert main(["check", str(rules), "--max-len", "2"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert main(["check", str(rules), "--max-len", "2",
                 "--against", str(fst)]) == 1
    out, err = capsys.readouterr()
    assert out.count(": ok\n") == 4 and "ruleset vs" not in out
    assert err == "error: E_WEIGHT_OVERFLOW: a path weight is past the " \
        "float range\n"


@pytest.mark.parametrize("edit", ["arc", "final"])
def test_check_against_nearly_equal_fst_reports_each_mismatch(
        edit, rule9_file, tmp_path, capsys):
    # one weight 1e-6 above the compiled one is past the 1e-9 tolerance:
    # the failures are those of comparing the two full relations
    fst = tmp_path / "rule9.fst"
    assert main(["compile", str(rule9_file), "-o", str(fst)]) == 0
    lines = fst.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith(edit + " "))
    parts = lines[k].split()
    parts[-1] = repr(float(parts[-1]) + 1e-6)
    lines[k] = " ".join(parts)
    fst.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(rule9_file), "--max-len", "3",
                 "--against", str(fst)]) == 2
    ruleset = R.parse_rule_file(rule9_file.read_text())
    alphabet = ruleset.alphabet
    got = oracle.relation_upto(C.compile_ruleset(ruleset), alphabet, 3)
    want = oracle.relation_upto(textio.read_machine(fst)[0], alphabet, 3)
    _, cex, _ = reference_compare(got, lambda u: want.get(u, {}), alphabet, 3)
    assert cex
    assert capsys.readouterr().err == "".join(
        [f"{len(cex)} failure(s):\n"] +
        [f"  against: mismatch on {u!r}: {a!r} vs {b!r}\n"
         for u, a, b in cex])


def test_check_reports_kk_machine_of_another_relation(tmp_path, capsys,
                                                      monkeypatch):
    # the compiled machine with one arc reweighted: as many states and arcs
    # after compaction, but another relation
    rules = tmp_path / "small.rules"
    rules.write_text(SMALL)

    def reweighted_kk(rule, alphabet):
        t = C.compile_rule(rule, alphabet).transducer
        s, i, o, w, d = t.arcs[0]
        arcs = ((s, i, o, w + 1.0, d),) + t.arcs[1:]
        return kk.KkCompiledRule(Transducer(t.num_states, t.initial, t.finals,
                                            arcs), None)

    ruleset = R.parse_rule_file(SMALL)
    t = C.compile_rule(ruleset.rules[0], ruleset.alphabet).transducer
    fake = compact_transducer(
        reweighted_kk(ruleset.rules[0], ruleset.alphabet).transducer)
    assert (fake.num_states, len(fake.arcs)) == (t.num_states, len(t.arcs))
    monkeypatch.setattr(cli.kk, "kk_compile_rule", reweighted_kk)
    assert main(["check", str(rules), "--max-len", "3"]) == 2
    out, err = capsys.readouterr()
    assert "rule 0: kk cross-check: FAIL" in out
    assert "rule 0: kk mismatch on" in err


def test_check_against_acceptor_compares_its_identity(tmp_path, capsys):
    # `apply` reads an acceptor as its identity transducer; so does check
    alphabet = R.parse_rule_file((DEMOS / "chain.rules").read_text()).alphabet
    acc = tmp_path / "acc.fst"
    textio.write_machine(acc, aut_sigma_star(alphabet.sigma()), alphabet)
    assert acc.read_text().startswith("WFST v1 unweighted acceptor")
    assert main(["check", str(DEMOS / "chain.rules"), "--max-len", "2",
                 "--against", str(acc)]) == 2
    out, err = capsys.readouterr()
    assert f"ruleset vs {acc}: FAIL" in out
    # chain rewrites b before d, the one input up to length 2 it changes
    assert err == ("1 failure(s):\n  against: mismatch on ('b', 'd'): "
                   "{('c', 'd'): 0.0} vs {('b', 'd'): 0.0}\n")


def test_check_divergent_sweep_exits_1(tmp_path, capsys):
    # an epsilon-input loop that writes a symbol: the sweep of the
    # --against machine outgrows its output bound
    alphabet = R.parse_rule_file((DEMOS / "nasal.rules").read_text()).alphabet
    fst = tmp_path / "loop.fst"
    textio.write_machine(fst, Transducer(1, 0, {0: 0.0},
                                         [(0, EPS, 1, 0.0, 0)]), alphabet)
    with time_limit(20):
        assert main(["check", str(DEMOS / "nasal.rules"), "--max-len", "2",
                     "--against", str(fst)]) == 1
    assert "E_DIVERGENT" in capsys.readouterr().err


def test_check_past_deadline_exits_1(capsys):
    # 55,987 inputs up to --max-len 6 take far longer than 1 ms
    with time_limit(60):
        assert main(["check", str(DEMOS / "nasal.rules"), "--max-len", "6",
                     "--deadline-ms", "1"]) == 1
    out, err = capsys.readouterr()
    assert "E_TIMEOUT" in err and "all checks passed" not in out


@pytest.mark.parametrize("algorithm", ["new", "kk"])
def test_compile_past_deadline_exits_1(algorithm, tmp_path, capsys):
    # a right context of 8 symbols over 194 labels compiles in well over
    # 1 ms with either algorithm
    names = " ".join(f"s{i:03d}" for i in range(194))
    rules = tmp_path / "wide.rules"
    rules.write_text(f"alphabet: {names} ;\n"
                     f"s000 -> s001 / _ {' '.join(['s002'] * 8)} ;\n")
    out = tmp_path / "wide.fst"
    with time_limit(120):
        assert main(["compile", str(rules), "-o", str(out), "--algorithm",
                     algorithm, "--deadline-ms", "1"]) == 1
    assert "E_TIMEOUT" in capsys.readouterr().err
    assert not out.exists()


def test_compile_128_rules_past_deadline_exits_1(tmp_path, capsys):
    rng = rng_for("cli-128-rules")
    texts = [rand_phonology_text(rng) for _ in range(16)]
    rules = tmp_path / "r128.rules"
    rules.write_text(texts[0].splitlines()[0] + "\n" + "".join(
        line + "\n" for text in texts for line in text.splitlines()[1:]))
    out = tmp_path / "r128.fst"
    with time_limit(120):
        assert main(["compile", str(rules), "-o", str(out),
                     "--deadline-ms", "200"]) == 1
    assert "E_TIMEOUT" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", str(DEMOS / "nasal.rules"), "--max-len", "6"],
    ["compile", str(DEMOS / "nasal.rules"), "-o", "{out}"],
])
def test_a_command_past_its_deadline_leaves_none_behind(argv, tmp_path,
                                                        capsys):
    # a 1 ms deadline stops the command, and names its limit; the next
    # command in the process runs without one
    argv = [a.format(out=tmp_path / "n.fst") for a in argv]
    with time_limit(60):
        assert main(argv + ["--deadline-ms", "1"]) == 1
    assert capsys.readouterr().err == \
        "error: E_TIMEOUT: the 1 ms deadline has passed\n"
    assert main(argv) == 0


def test_deadline_leaves_results_unchanged(tmp_path, capsys):
    out = tmp_path / "n.fst"
    rules = str(DEMOS / "nasal.rules")
    assert main(["compile", rules, "-o", str(out),
                 "--deadline-ms", "600000"]) == 0
    capsys.readouterr()
    assert main(["check", rules, "--max-len", "3", "--against", str(out),
                 "--deadline-ms", "600000"]) == 0
    with_deadline = capsys.readouterr()
    assert main(["check", rules, "--max-len", "3", "--against",
                 str(out)]) == 0
    assert capsys.readouterr() == with_deadline


def _run_coded(argv, capsys):
    """main(argv), which may fail only with a coded error (exit 1)."""
    with time_limit(20):
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert code != 1 or err.startswith("error: E_"), err


FST_TOKENS = ["0", "1", "2", "5", "7", "9", "12", "-1", "0.5", "-0.5",
              "nan", "inf", "1e400", "x", "<eps>", "b", "N", "arc", "final",
              "states", "sym", "init", "WFST", "transducer", "acceptor"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(["del", "dup", "swap", "token"]),
                          st.integers(0, 40), st.integers(0, 5),
                          st.sampled_from(FST_TOKENS)),
                min_size=1, max_size=4))
def test_mutated_fst_fails_only_with_coded_errors(tmp_path, capsys, edits):
    rules = DEMOS / "nasal.rules"
    ruleset = R.parse_rule_file(rules.read_text())
    lines = textio.format_machine(C.compile_ruleset(ruleset),
                                  ruleset.alphabet).splitlines()
    for op, i, j, token in edits:
        i %= len(lines)
        if op == "del":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j % len(lines)] = lines[j % len(lines)], lines[i]
        else:
            parts = lines[i].split() or [""]
            parts[j % len(parts)] = token
            lines[i] = " ".join(parts)
    fst = tmp_path / "mutated.fst"
    fst.write_text("\n".join(lines) + "\n")
    _run_coded(["apply", str(fst), "Nb", "--bound", "20"], capsys)
    _run_coded(["check", str(rules), "--max-len", "2", "--against", str(fst)],
               capsys)


@pytest.mark.parametrize("command", ["apply", "check"])
def test_huge_state_count_is_a_format_error(tmp_path, capsys, command):
    # the reader would otherwise hand `apply` and the sweep a machine whose
    # per-state tables fill memory
    rules = DEMOS / "nasal.rules"
    ruleset = R.parse_rule_file(rules.read_text())
    lines = textio.format_machine(C.compile_ruleset(ruleset),
                                  ruleset.alphabet).splitlines()
    assert lines[1].startswith("states ")
    lines[1] = "states 1000000000"
    fst = tmp_path / "huge.fst"
    fst.write_text("\n".join(lines) + "\n")
    argv = (["apply", str(fst), "Nb"] if command == "apply" else
            ["check", str(rules), "--max-len", "2", "--against", str(fst)])
    with time_limit(20):
        assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: E_FORMAT")


def test_apply_refuses_an_arc_label_outside_the_symbol_table(tmp_path,
                                                             capsys):
    # a machine with label 999 could not be written back, so no file may
    # hold one
    fst = tmp_path / "bad.fst"
    fst.write_text("WFST v1 unweighted transducer\nsym 0 <eps>\nsym 1 a\n"
                   "sym 2 <rb>\nsym 3 <lb1>\nsym 4 <lb2>\ninit 0\n"
                   "final 1 0.0\narc 0 1 1 999 0.0\n")
    assert main(["apply", str(fst), "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: E_FORMAT: label 999 has no name")


RULE_TOKENS = ["a", "b", "c", "z", "0", "(", ")", "[", "[^", "]", "*", "+",
               "?", "<1.5>", "<-1>", "<nan>", "<", ">", "->", "/", "_", ";",
               "#", ":", "alphabet"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(RULE_TOKENS), st.booleans()),
                max_size=14),
       st.lists(st.sampled_from(["a", "b", "c", "(a b)*", "[a c]", "0",
                                 "a+", "<0.5> b + c", "b?"]),
                min_size=4, max_size=4))
def test_random_rule_bodies_fail_only_with_coded_errors(tmp_path, capsys,
                                                        body, parts):
    # a token soup, and a well-formed rule from random parts
    soup = "".join(tok + (" " if space else "") for tok, space in body)
    phi, psi, lam, rho = parts
    rules = tmp_path / "random.rules"
    out = tmp_path / "random.fst"
    for text in (soup, f"{phi} -> {psi} / {lam} _ {rho} ;"):
        rules.write_text("alphabet: a b c ;\n" + text + "\n")
        _run_coded(["compile", str(rules), "-o", str(out)], capsys)
