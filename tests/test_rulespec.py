"""Grammar, series semantics, and round-trip stability."""

import math

import pytest

from rwc import rulespec as R
from rwc.errors import (NegativeWeightError, PhiNullableError, PsiEmptyError,
                        RuleSyntaxError, UnknownSymbolError)
from rwc.fsm import INF, Alphabet
from rwc.rulespec import (evaluate_series, parse_regex, parse_rule_file,
                          parse_series, pretty, pretty_rule, series_to_wfsa)

from .helpers import all_strings, naive_series_value, rand_regex, \
    rand_series, rng_for

AB = Alphabet(["a", "b"])
NASAL = Alphabet(["b", "m", "n", "p", "N", "a"])


def ev(series_text, s, alphabet=AB):
    ast = parse_series(series_text, alphabet)
    wfsa = series_to_wfsa(ast, alphabet)
    return evaluate_series(wfsa, alphabet.string_to_ids(s))


# ---------------------------------------------------------------------------
# Series values
# ---------------------------------------------------------------------------

def test_series_S_examples():
    s = "(<4> a)(<2> b)* (<3> b)"
    assert ev(s, "abbb") == 11.0
    assert ev(s, "ab") == 7.0       # zero loop iterations: 4 + 3
    assert ev(s, "a") == INF


def test_series_S_prime_takes_min_over_matches():
    s = "(<2> a)(<3> b)(<4> b) + (<5> a)(<3> b)*"
    assert ev(s, "abb") == 9.0      # min(2+3+4, 5+3+3)


def test_series_unweighted_default_weight_zero():
    assert ev("a b", "ab") == 0.0


def test_weighted_zero_is_neutral():
    rng = rng_for("weighted-zero")
    for _ in range(10):
        ast = rand_series(rng, AB, 2)
        wrapped = R.Weighted(0.0, ast)
        w1 = series_to_wfsa(ast, AB)
        w2 = series_to_wfsa(wrapped, AB)
        for s in all_strings(AB.sigma(), 4):
            assert evaluate_series(w1, s) == evaluate_series(w2, s)


def test_series_agrees_with_brute_force_path_values():
    rng = rng_for("series-brute")
    for _ in range(30):
        ast = rand_series(rng, AB, 3)
        wfsa = series_to_wfsa(ast, AB)
        for ids in all_strings(AB.sigma(), 6):
            names = tuple(AB.name_of(i) for i in ids)
            got = evaluate_series(wfsa, ids)
            want = naive_series_value(ast, names)
            assert (got == want == INF or
                    math.isclose(got, want, abs_tol=1e-9)), (ast, names)


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------

def test_parse_rule9():
    rs = parse_rule_file(
        "alphabet: b m n p N a ;\n"
        "N -> <0.1054> m + <2.3026> n / _ [b m p] ;\n")
    rule = rs.rules[0]
    assert rule.phi == R.Sym("N")
    assert rule.psi == R.Alt((R.Weighted(0.1054, R.Sym("m")),
                              R.Weighted(2.3026, R.Sym("n"))))
    assert rule.lam == R.Eps()
    assert rule.rho == R.Cls(("b", "m", "p"))


def test_parse_rule10_left_context_power():
    rs = parse_rule_file("alphabet: a b c ;\n a -> b / c c c _ ;\n")
    rule = rs.rules[0]
    assert rule.lam == R.Cat((R.Sym("c"), R.Sym("c"), R.Sym("c")))
    assert rule.rho == R.Eps()


def test_parse_empty_context_defaults_to_epsilon():
    rs = parse_rule_file("alphabet: a b ;\n a -> b / _ ;\n")
    assert rs.rules[0].lam == R.Eps() and rs.rules[0].rho == R.Eps()
    rs2 = parse_rule_file("alphabet: a b ;\n a -> b ;\n")
    assert rs2.rules[0].lam == R.Eps() and rs2.rules[0].rho == R.Eps()


def test_parse_negated_class_expands_over_alphabet():
    rs = parse_rule_file("alphabet: a b c ;\n a -> b / _ [^ a c] ;\n")
    assert rs.rules[0].rho == R.Cls(("b",))


def test_postfix_plus_vs_union():
    alpha = Alphabet(["a", "b"])
    assert parse_regex("a+ b", alpha) == R.Cat((R.Plus(R.Sym("a")),
                                                R.Sym("b")))
    assert parse_regex("a + b", alpha) == R.Alt((R.Sym("a"), R.Sym("b")))


def test_parse_errors():
    with pytest.raises(RuleSyntaxError) as e:
        parse_rule_file("alphabet a b ;\n")
    assert e.value.line == 1
    with pytest.raises(UnknownSymbolError):
        parse_rule_file("alphabet: a ;\n a -> q ;\n")
    with pytest.raises(PhiNullableError):
        parse_rule_file("alphabet: a b ;\n a? -> b ;\n")
    with pytest.raises(PsiEmptyError):
        parse_rule_file("alphabet: a b ;\n a -> [^ a b] ;\n")
    with pytest.raises(NegativeWeightError):
        parse_series("<-1> a", AB)
    with pytest.raises(RuleSyntaxError):
        parse_regex("<1> a", AB)  # weights only in targets


def test_parse_rejects_infinite_weight():
    # 1e400 reads as float inf, which no machine may carry
    with pytest.raises(RuleSyntaxError):
        parse_rule_file("alphabet: a b ;\n a -> <1e400> b ;\n")


def test_comments_ignored():
    rs = parse_rule_file("# top\nalphabet: a b ;  # trailing\n"
                         "a -> b ;  # rule\n")
    assert len(rs.rules) == 1


# ---------------------------------------------------------------------------
# Round-trip stability
# ---------------------------------------------------------------------------

def test_pretty_parse_fixpoint_on_random_trees():
    rng = rng_for("pretty-roundtrip")
    for _ in range(40):
        ast = rand_regex(rng, NASAL, depth=3)
        printed = pretty(ast, NASAL)
        assert parse_regex(printed, NASAL) == ast, printed
    for _ in range(40):
        ast = rand_series(rng, NASAL, depth=3)
        printed = pretty(ast, NASAL)
        assert parse_series(printed, NASAL) == ast, printed


def test_rule_roundtrip():
    text = ("alphabet: b m n p N a ;\n"
            "N -> <0.1054> m + <2.3026> n / _ [b m p] ;\n"
            "a -> b m / N? _ (a + b)* ;\n")
    rs = parse_rule_file(text)
    printed = "alphabet: " + " ".join(rs.alphabet.symbols) + " ;\n" + \
        "\n".join(pretty_rule(r) for r in rs.rules)
    assert parse_rule_file(printed) == rs
