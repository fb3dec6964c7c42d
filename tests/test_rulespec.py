"""Grammar, series semantics, and round-trip stability."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwc import compiler as C
from rwc import rulespec as R
from rwc.errors import (NegativeWeightError, PhiNullableError, PsiEmptyError,
                        RuleSyntaxError, UnknownSymbolError,
                        WeightOverflowError)
from rwc.fsm import INF, Alphabet
from rwc.rulespec import (evaluate_series, parse_regex, parse_rule_file,
                          parse_series, pretty, pretty_rule, series_to_wfsa)

from .helpers import all_strings, naive_series_value, rand_regex, \
    rand_series, reference_lex, rng_for

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


def test_series_sum_past_the_float_range_raises():
    # read as INF, the sum would say the string is not in the support
    with pytest.raises(WeightOverflowError):
        ev("(<1e308> a)(<1e308> a)", "aa")  # a step sum
    with pytest.raises(WeightOverflowError):
        ev("(<1e308> a)(<1e308> 0)", "a")   # the final sum


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
    for text, message, line, col in [
        ("a -> b ;\n", "rule files start with 'alphabet:'", 1, 1),
        ("alphabet: ;\n", "lists at least one symbol", 1, 11),
        ("\n  alphabet: a a ;\n", "duplicate symbol name 'a'", 2, 3),
    ]:
        with pytest.raises(RuleSyntaxError, match=message) as e:
            parse_rule_file(text)
        assert (e.value.code, e.value.line, e.value.col) == \
            ("E_SYNTAX", line, col)
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


def test_parse_bounds_nesting_at_the_crossing_bracket():
    deep = "(" * 300 + "a" + ")" * 300
    with pytest.raises(RuleSyntaxError) as e:
        parse_rule_file(f"alphabet: a b ;\n{deep} -> b ;\n")
    assert (e.value.line, e.value.col) == (2, R.MAX_NESTING + 1)
    # weight prefixes nest too: the 51st "<1>" starts at col 6 + 4 * 50
    prefixes = "<1> " * 300
    with pytest.raises(RuleSyntaxError) as e:
        parse_rule_file(f"alphabet: a b ;\na -> {prefixes}b ;\n")
    assert (e.value.line, e.value.col) == (2, 6 + 4 * R.MAX_NESTING)


def test_parse_admits_nesting_at_the_limit():
    # the deepest admitted expression, in the shape that costs the tree
    # walkers the most frames per level, compiles and pretty-prints
    x = "a"
    for _ in range(R.MAX_NESTING):
        x = "(" + x + "* b + a)"
    rs = parse_rule_file(f"alphabet: a b ;\n{x} -> b ;\n")
    text = "alphabet: a b ;\n" + pretty_rule(rs.rules[0]) + "\n"
    assert parse_rule_file(text) == rs
    C.compile_rule(rs.rules[0], rs.alphabet)


def test_parse_rejects_infinite_weight():
    # 1e400 reads as float inf, which no machine may carry
    with pytest.raises(RuleSyntaxError):
        parse_rule_file("alphabet: a b ;\n a -> <1e400> b ;\n")


def test_comments_ignored():
    rs = parse_rule_file("# top\nalphabet: a b ;  # trailing\n"
                         "a -> b ;  # rule\n")
    assert len(rs.rules) == 1


# Pieces of rule-file text that lex: every token kind, weights with
# exponents and non-ASCII digits ("\u0663" is a digit to float), names,
# comments and every kind of whitespace
LEX_TOKENS = [
    ";", ":", "/", "*", "?", "(", ")", "[", "]", "_", "+", "->", "[^",
    "<1e-3>", "<2.5>", "<1E+2>", "<\u0663>", "\u00e9", "a", "e", "b1",
    "x_y", "0", " ", "\t", "\r", "\x0b", "\n", "# note", "#"]
# and pieces that raise: negative, overflowing, empty, unclosed and bad
# weights ("\u00b2" is a digit to str.isdigit but not to float), names
# that start with a digit, and characters no token starts with
LEX_ERRORS = ["-", "<", ">", "^", ".", "%", "7", "0a", "0_", "<-1>",
              "<1e999>", "<>", "<1e>", "<1.2.3>", "<\u00b2>", "<7"]


def _lex_outcome(lex, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lex(text)]
    except Exception as e:
        return (type(e), str(e), getattr(e, "line", None),
                getattr(e, "col", None))


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(LEX_TOKENS), max_size=30),
       st.sampled_from([None] + LEX_ERRORS), st.integers(0, 30),
       st.booleans())
def test_lex_matches_reference_lexer(parts, bad, at, final_newline):
    if bad is not None:
        parts.insert(at, bad)
    text = "".join(parts) + ("\n" if final_newline else "")
    assert _lex_outcome(R._lex, text) == _lex_outcome(reference_lex, text)


# ---------------------------------------------------------------------------
# Syntax trees as values
# ---------------------------------------------------------------------------

def test_syntax_trees_are_values():
    a = R.Sym("a")
    assert a == R.Sym("a") and a != R.Sym("b")
    assert hash(a) == hash(("a",)) and hash(R.Eps()) == hash(())
    assert R.Cat((a, a)) != R.Alt((a, a))
    assert len({R.Star(a), R.Star(a), R.Plus(a), R.Opt(a)}) == 3
    assert repr(R.Weighted(2.0, a)) == \
        "Weighted(weight=2.0, child=Sym(name='a'))"
    assert repr(R.Eps()) == "Eps()"


def test_syntax_trees_are_immutable():
    a = R.Sym("a")
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        del a.name
    with pytest.raises(AttributeError):
        a.other = 1
    assert a.name == "a"


def test_rule_construction_by_position_or_keyword():
    phi, psi, lam, rho = R.Sym("a"), R.Sym("b"), R.Eps(), R.Cls(("a", "b"))
    rule = R.Rule(phi=phi, psi=psi, lam=lam, rho=rho)
    assert rule == R.Rule(phi, psi, lam, rho) == R.Rule(phi, psi, rho=rho,
                                                        lam=lam)
    assert (rule.phi, rule.psi, rule.lam, rule.rho) == (phi, psi, lam, rho)
    for args, kwargs in [((phi, psi, lam), {}),
                         ((phi, psi, lam, rho, rho), {}),
                         ((phi, psi, lam), {"phi": phi}),
                         ((phi, psi, lam), {"sigma": rho}),
                         ((phi, psi, lam, rho), {"rho": rho})]:
        with pytest.raises(TypeError):
            R.Rule(*args, **kwargs)
    with pytest.raises(TypeError):
        R.Eps(phi)


def test_rule_sets_copy_and_pickle_to_equal_values():
    text = ("alphabet: b m n p N a ;\n"
            "N -> <0.1054> m + <2.3026> n / _ [b m p] ;\n"
            "a -> b m / N? _ (a + b)* ;\n")
    rs = parse_rule_file(text)
    for node in (rs, rs.alphabet, *rs.rules, rs.rules[0].psi):
        for twin in (copy.copy(node), copy.deepcopy(node),
                     pickle.loads(pickle.dumps(node))):
            assert type(twin) is type(node) and twin == node
            assert hash(twin) == hash(node)
    # an alphabet hashes by its symbols, so a rule set is a set member
    again = parse_rule_file(text)
    assert again == rs and hash(again) == hash(rs)
    assert again in {rs}


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
