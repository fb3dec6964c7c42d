"""CLI subcommands: exit codes, printed output, and file round trips."""

import math
import pathlib

import pytest

from rwc import cli
from rwc import compiler as C
from rwc import rulespec as R
from rwc import textio
from rwc.bench import CSV_HEADER, run_bench
from rwc.cli import main
from rwc.errors import BadOptionError
from rwc.fsm import EPS, Alphabet, Transducer

from .helpers import time_limit

RULE9 = ("alphabet: b m n p N a ;\n"
         f"N -> <{-math.log(0.9)!r}> m + <{-math.log(0.1)!r}> n"
         " / _ [b m p] ;\n")

SMALL = "alphabet: a b c d ;\na -> b / c _ d ;\n"

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


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


def test_compile_kk_rejects_weighted(rule9_file, tmp_path, capsys):
    out = tmp_path / "x.fst"
    assert main(["compile", str(rule9_file), "-o", str(out),
                 "--algorithm", "kk"]) == 1


def test_check_passes_on_good_rules(tmp_path, capsys):
    rules = tmp_path / "small.rules"
    rules.write_text(SMALL)
    assert main(["check", str(rules), "--max-len", "4"]) == 0
    out = capsys.readouterr().out
    assert "oracle equivalence" in out and "kk cross-check: ok" in out


def test_check_weighted_skips_kk(rule9_file, capsys):
    assert main(["check", str(rule9_file), "--max-len", "3"]) == 0
    assert "skipped (weighted rule)" in capsys.readouterr().out


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
    ("left", 0, {"repeats_new": 0}),
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


def _no_sweep(*args):
    raise AssertionError("check swept inputs")


def test_check_refuses_sweep_over_budget(tmp_path, capsys, monkeypatch):
    # 194 symbols up to the default --max-len 6 are 5.7e13 strings
    names = " ".join(f"s{i:03d}" for i in range(194))
    rules = tmp_path / "wide.rules"
    rules.write_text(f"alphabet: {names} ;\ns000 -> s001 / s002 _ ;\n")
    monkeypatch.setattr(cli, "_check_one_rule", _no_sweep)
    assert main(["check", str(rules)]) == 1
    err = capsys.readouterr().err
    assert "E_BUDGET" in err and "--max-len 6" in err
    # 1 + 194 + 194^2 + 194^3 strings are over the budget too
    assert main(["check", str(rules), "--max-len", "3"]) == 1


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
])
def test_option_out_of_range_exits_1(argv, rule9_file, tmp_path, capsys):
    fst = tmp_path / "rule9.fst"
    assert main(["compile", str(rule9_file), "-o", str(fst)]) == 0
    capsys.readouterr()
    assert main([a.format(fst=fst) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "E_BAD_OPTION" in err and argv[-2] in err


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
