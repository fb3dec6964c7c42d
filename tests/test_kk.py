"""The bracket-cascade reference compiler: relation equivalence with the
direct compiler, operation-count floor, and the determinization probe."""

import json
import math
import pathlib
import time

import pytest

from rwc import compiler as C
from rwc import kk as K
from rwc import oracle as O
from rwc import rulespec as R
from rwc.boolean_ops import compact_transducer
from rwc.bench import bench_alphabet, bench_rule
from rwc.errors import DeadlineExceeded, PhiNullableError
from rwc.fsm import Alphabet, Deadline
from rwc.rulespec import parse_rule_file
from rwc.textio import format_machine

from .helpers import (check_rule, rand_phonology_text, rand_ruleset_text,
                      rng_for, rule_corpus)

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def rule_of(text):
    rs = parse_rule_file(text)
    return rs.alphabet, rs.rules[0]


def assert_kk_matches_direct(alphabet, rule, max_len):
    kkc = K.kk_compile_rule(rule, alphabet)
    direct = C.compile_rule(rule, alphabet)
    rep = O.equivalent_on(direct.transducer, kkc.transducer, alphabet,
                          max_len)
    assert rep.equivalent, \
        f"{R.pretty_rule(rule, alphabet)}\n{rep}"
    return kkc


def test_kk_simple_context_rule():
    alphabet, rule = rule_of("alphabet: a b c d ;\n a -> b / c _ d ;")
    assert_kk_matches_direct(alphabet, rule, 5)


def test_kk_no_context_rule():
    alphabet, rule = rule_of("alphabet: a b ;\n a -> b / _ ;")
    kkc = assert_kk_matches_direct(alphabet, rule, 6)
    wss, _ = O.apply(kkc.transducer, "aa", alphabet)
    assert dict(wss.entries) == {("b", "b"): 0.0}


def test_kk_context_power_rules():
    # the benchmark families at small k
    for k in range(0, 4):
        ctx = " ".join(["c"] * k) + " " if k else ""
        for tmpl in (f"alphabet: a b c ;\n a -> b / {ctx}_ ;",
                     f"alphabet: a b c ;\n a -> b / _ {ctx};"):
            alphabet, rule = rule_of(tmpl)
            assert_kk_matches_direct(alphabet, rule, 6)


def test_kk_rejects_nullable_phi():
    alphabet = Alphabet(["a", "b"])
    bad = R.Rule(phi=R.Opt(R.Sym("a")), psi=R.Sym("b"),
                 lam=R.Eps(), rho=R.Eps())
    with pytest.raises(PhiNullableError):
        K.kk_compile_rule(bad, alphabet)


def test_kk_operation_count_floor():
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> b / c _ c ;")
    kkc = K.kk_compile_rule(rule, alphabet)
    assert kkc.ops["intersect"] >= 4
    assert kkc.ops["complement"] >= 11


def test_kk_random_corpus_equivalence():
    for alphabet, rule in rule_corpus("kk-corpus", 8, {2: 5, 3: 3},
                                      weighted=False):
        assert_kk_matches_direct(alphabet, rule, 5)


def test_kk_weighted_corpus_matches_oracle():
    # weight enters the cascade only through its replace stage; the rules
    # whose psi carries a nonzero weight are kept
    checked = 0
    for alphabet, rule in rule_corpus("kk-weighted-corpus", 48,
                                      {2: 24, 3: 14, 4: 10}, weighted=True):
        psi = R.series_to_wfsa(rule.psi, alphabet)
        if not (any(a[2] for a in psi.arcs) or any(psi.finals.values())):
            continue
        kkc = K.kk_compile_rule(rule, alphabet)
        rep = check_rule(rule, kkc.transducer, alphabet, 5)
        assert rep.equivalent, f"{R.pretty_rule(rule, alphabet)}\n{rep}"
        checked += 1
    assert checked >= 8


def assert_compacted_kk_sweeps_alike(ruleset, max_len, note=None):
    """`rwc check` sweeps the compacted KK machine of each rule: it must
    have the raw machine's relation."""
    sigma = ruleset.alphabet.sigma()
    for rule in ruleset.rules:
        raw = K.kk_compile_rule(rule, ruleset.alphabet).transducer
        assert O._relation(compact_transducer(raw), sigma, max_len) == \
            O._relation(raw, sigma, max_len), note


def test_compacted_kk_machine_has_the_same_relation_demo():
    for demo in ("nasal.rules", "chain.rules"):
        assert_compacted_kk_sweeps_alike(
            parse_rule_file((DEMOS / demo).read_text()), 5, demo)


def test_compacted_kk_machine_has_the_same_relation_random_corpus():
    rng = rng_for("ruleset-blocks")
    for _ in range(60):
        text = rand_ruleset_text(rng)
        assert_compacted_kk_sweeps_alike(parse_rule_file(text), 3, text)


def test_compile_ruleset_with_kk_rules_writes_the_same_text_paper_scale():
    rng = rng_for("ruleset-paper-scale")
    for _ in range(12):
        text = rand_phonology_text(rng)
        rs = parse_rule_file(text)
        kk_fold = C.compile_ruleset(rs, compile_one=K.rule_transducer)
        assert format_machine(kk_fold, rs.alphabet) == \
            format_machine(C.compile_ruleset(rs), rs.alphabet), text


# ---------------------------------------------------------------------------
# The right-context probe
# ---------------------------------------------------------------------------

def cpow(k):
    return R.Cat(tuple(R.Sym("c") for _ in range(k))) if k else R.Eps()


def test_probe_arc_counts_increase_with_k():
    alphabet = Alphabet(["a", "b", "c"])
    _, d1 = K.kk_rightcontext_probe(cpow(1), alphabet)
    _, d2 = K.kk_rightcontext_probe(cpow(2), alphabet)
    assert d2 > d1


def test_probe_log_arcs_affine_in_k():
    from rwc.bench import affine_fit

    alphabet = Alphabet(["a", "b", "c"])
    ks = list(range(0, 8))
    dfa_arcs = [K.kk_rightcontext_probe(cpow(k), alphabet)[1] for k in ks]
    _, _, r2 = affine_fit(ks, [math.log(a) for a in dfa_arcs])
    assert r2 >= 0.98, (dfa_arcs, r2)


def test_probe_k0_golden_regression():
    alphabet = Alphabet(["a", "b", "c"])
    nfa_arcs, dfa_arcs = K.kk_rightcontext_probe(cpow(0), alphabet)
    golden = json.loads((GOLDEN / "probe_k0.json").read_text())
    assert golden == {"alphabet_size": 3, "nfa_arcs": nfa_arcs,
                      "dfa_arcs": dfa_arcs}


def test_kk_entry_points_open_the_deadline_they_are_given():
    # c^6 right contexts over 3 labels reach a product's or a subset
    # construction's check; `deadline=None` leaves the enclosing one
    alphabet, rule = bench_alphabet(3), bench_rule("right", 6)
    calls = [lambda d: K.kk_compile_rule(rule, alphabet, deadline=d),
             lambda d: K.kk_rightcontext_probe(rule.rho, alphabet,
                                               deadline=d)]
    expired = Deadline(0)
    time.sleep(0.01)
    for call in calls:
        call(None)
        with pytest.raises(DeadlineExceeded) as e:
            call(expired)
        assert e.value.code == "E_TIMEOUT"
        with expired, pytest.raises(DeadlineExceeded):
            call(None)
        with expired:
            call(Deadline(60_000))


def test_growth_machine_sizes_at_194_labels_are_golden():
    # the raw cascade machines of the paper's growth rules and the probe's
    # DFA: their arcs sum to growth-kk's out_arcs (454,398)
    from rwc.bench import bench_alphabet, bench_rule

    golden = json.loads((GOLDEN / "kk_growth194.json").read_text())
    alphabet = bench_alphabet(golden["alphabet_size"])
    for family in ("left", "right"):
        sizes = []
        for k in range(len(golden[f"kk_{family}"])):
            t = K.kk_compile_rule(bench_rule(family, k), alphabet).transducer
            sizes.append([t.num_states, len(t.arcs)])
        assert sizes == golden[f"kk_{family}"], family
    assert [K.kk_rightcontext_probe(bench_rule("right", k).rho, alphabet)[1]
            for k in range(len(golden["probe_dfa_arcs"]))] \
        == golden["probe_dfa_arcs"]
