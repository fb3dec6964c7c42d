"""The paper's five factors and the fused left-context filter, each
against its definition, then whole-rule compilation against the rewriting
oracle."""

import math
import pathlib

import pytest

from rwc import compiler as C
from rwc import oracle as O
from rwc import rulespec as R
from rwc.bench import bench_alphabet, bench_rule
from rwc.boolean_ops import compact_transducer
from rwc.errors import PhiNullableError, PsiEmptyError
from rwc.fsm import EPS, Alphabet, Transducer, compose
from rwc.rulespec import parse_regex, parse_rule_file, parse_series, \
    series_to_wfsa

from rwc.textio import format_machine

from .helpers import (canonical, check_rule, enum_relation,
                      rand_phonology_text, rand_regex, rand_ruleset_text,
                      reference_apply, reference_cascade, reference_ruleset,
                      rng_for, rule_corpus, weights_close)

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
GOLDEN = pathlib.Path(__file__).parent / "golden"

ABC = Alphabet(["a", "b", "c"])
ABCD = Alphabet(["a", "b", "c", "d"])


def outputs_for(t, ids, max_out=24):
    rel = enum_relation(t, len(ids), max_out)
    return {o for (i, o) in rel if i == tuple(ids)}


def ids(alphabet, text):
    return alphabet.string_to_ids(text)


def names(alphabet, text):
    return tuple(alphabet.name_of(i) for i in alphabet.string_to_ids(text))


# ---------------------------------------------------------------------------
# r, f, replace, l1, l2 and tau_l in isolation
# ---------------------------------------------------------------------------

def test_build_r_marks_before_every_rho_instance():
    r = C.build_r(parse_regex("c", ABC), ABC)
    rb = ABC.rb
    a, b, c = ABC.ids_of(["a", "b", "c"])
    assert outputs_for(r, (a, c, c, a)) == {(a, rb, c, rb, c, a)}


def test_build_r_epsilon_rho_marks_everywhere():
    r = C.build_r(R.Eps(), ABC)
    rb = ABC.rb
    a, b = ABC.ids_of(["a", "b"])
    assert outputs_for(r, (a, b)) == {(rb, a, rb, b, rb)}


def test_build_r_multisymbol_rho():
    r = C.build_r(parse_regex("c d", ABCD), ABCD)
    rb = ABCD.rb
    a, c, d = ABCD.ids_of(["a", "c", "d"])
    assert outputs_for(r, (a, c, d)) == {(a, rb, c, d)}


def test_build_f_marks_phi_before_rb():
    f = C.build_f(parse_regex("a", ABC), ABC)
    a, c = ABC.ids_of(["a", "c"])
    rb, lb1, lb2 = ABC.rb, ABC.lb1, ABC.lb2
    assert outputs_for(f, (a, rb, c)) == {(lb1, a, rb, c), (lb2, a, rb, c)}
    assert outputs_for(f, (a, ABC.id_of("b"))) == {(a, ABC.id_of("b"))}


def test_build_f_ignores_rb_inside_phi():
    f = C.build_f(parse_regex("a b", ABC), ABC)
    a, b = ABC.ids_of(["a", "b"])
    rb, lb1, lb2 = ABC.rb, ABC.lb1, ABC.lb2
    outs = outputs_for(f, (a, rb, b, rb))
    assert (lb1, a, rb, b, rb) in outs and (lb2, a, rb, b, rb) in outs


def test_build_replace_forces_replacement_after_lb1():
    a, b = ABC.ids_of(["a", "b"])
    rb, lb1, lb2 = ABC.rb, ABC.lb1, ABC.lb2
    rep = C.build_replace(parse_regex("a", ABC),
                          series_to_wfsa(parse_series("b", ABC), ABC), ABC)
    assert outputs_for(rep, (lb1, a, rb)) == {(lb1, b)}
    assert outputs_for(rep, (lb2, a)) == {(lb2, a)}
    assert outputs_for(rep, (rb,)) == {()}


def test_build_replace_weighted_alternatives():
    alpha = Alphabet(["b", "m", "n", "p", "N", "a"])
    wa, wb = -math.log(0.9), -math.log(0.1)
    psi = series_to_wfsa(
        parse_series(f"<{wa!r}> m + <{wb!r}> n", alpha), alpha)
    rep = C.build_replace(parse_regex("N", alpha), psi, alpha)
    nid, mid, n2 = alpha.ids_of(["N", "m", "n"])
    rel = enum_relation(rep, 3, 3)
    got = {o: w for (i, o), w in rel.items()
           if i == (alpha.lb1, nid, alpha.rb)}
    assert weights_close(got, {(alpha.lb1, mid): wa, (alpha.lb1, n2): wb})


def test_build_replace_rejects_bad_rules():
    with pytest.raises(PhiNullableError):
        C.build_replace(parse_regex("a?", ABC),
                        series_to_wfsa(parse_series("b", ABC), ABC), ABC)
    # a hand-built rule skips the parser's check; compile_rule refuses it
    with pytest.raises(PhiNullableError):
        C.compile_rule(R.Rule(phi=parse_regex("a?", ABC),
                              psi=parse_series("b", ABC), lam=R.Eps(),
                              rho=R.Eps()), ABC)
    with pytest.raises(PsiEmptyError):
        C.build_replace(parse_regex("a", ABC),
                        series_to_wfsa(R.Cls(()), ABC), ABC)


def test_build_l1_requires_lambda_before_lb1():
    l1 = C.build_l1(parse_regex("c", ABC), ABC)
    a, b, c = ABC.ids_of(["a", "b", "c"])
    lb1, lb2 = ABC.lb1, ABC.lb2
    assert outputs_for(l1, (c, lb1, b)) == {(c, b)}
    assert outputs_for(l1, (a, lb1, b)) == set()
    assert outputs_for(l1, (c, lb2, lb1, b)) == {(c, lb2, b)}


def test_build_l1_epsilon_lambda_accepts_all_placements():
    l1 = C.build_l1(R.Eps(), ABC)
    a = ABC.id_of("a")
    assert outputs_for(l1, (ABC.lb1, a, ABC.lb1)) == {(a,)}


def test_build_l2_requires_no_lambda_before_lb2():
    l2 = C.build_l2(parse_regex("c", ABC), ABC)
    a, b, c = ABC.ids_of(["a", "b", "c"])
    assert outputs_for(l2, (a, ABC.lb2, b)) == {(a, b)}
    assert outputs_for(l2, (c, ABC.lb2, b)) == set()


def test_build_l2_empty_language_lambda_accepts_everything():
    l2 = C.build_l2(R.Cls(()), ABC)
    a = ABC.id_of("a")
    assert outputs_for(l2, (ABC.lb2, a, ABC.lb2)) == {(a,)}


def test_tau_l_is_l1_composed_with_l2():
    # the empty language and epsilon first, then random lambdas; inputs mix
    # Σ with LB1 and LB2 up to length 4
    rng = rng_for("tau-l")
    lams = [R.Cls(()), R.Eps()] + [rand_regex(rng, ABC, 2) for _ in range(30)]
    markers_read = set()
    for lam in lams:
        tau_l = C._tau_l(C._lambda_dfa(lam, ABC), ABC)
        got = enum_relation(tau_l, 4)
        assert got == enum_relation(
            compose(C.build_l1(lam, ABC), C.build_l2(lam, ABC)), 4), lam
        markers_read.update(l for i, _ in got for l in i)
    assert {ABC.lb1, ABC.lb2} <= markers_read


# ---------------------------------------------------------------------------
# compile_rule
# ---------------------------------------------------------------------------

def apply_names(t, alphabet, text):
    wss, truncated = O.apply(t, text, alphabet)
    assert not truncated
    return dict(wss.entries)


def test_compile_rule_basic_context():
    rs = parse_rule_file("alphabet: a b c d ;\n a -> b / c _ d ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    assert apply_names(cr.transducer, rs.alphabet, "cad") == \
        {names(rs.alphabet, "cbd"): 0.0}
    assert apply_names(cr.transducer, rs.alphabet, "ad") == \
        {names(rs.alphabet, "ad"): 0.0}


def test_compile_rule_left_context_reads_output_side():
    rs = parse_rule_file("alphabet: a b ;\n a -> b / b _ ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    assert apply_names(cr.transducer, rs.alphabet, "baa") == \
        {names(rs.alphabet, "bbb"): 0.0}


def test_compile_rule_right_context_reads_input_side():
    rs = parse_rule_file("alphabet: a b ;\n a -> b / _ a ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    assert apply_names(cr.transducer, rs.alphabet, "aaa") == \
        {names(rs.alphabet, "bba"): 0.0}


def test_compile_rule_nasal_weights():
    wa, wb = -math.log(0.9), -math.log(0.1)
    rs = parse_rule_file(
        "alphabet: b m n p N a ;\n"
        f"N -> <{wa!r}> m + <{wb!r}> n / _ [b m p] ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    got = apply_names(cr.transducer, rs.alphabet, "Nb")
    assert weights_close(got, {names(rs.alphabet, "mb"): wa,
                               names(rs.alphabet, "nb"): wb})
    assert apply_names(cr.transducer, rs.alphabet, "Na") == \
        {names(rs.alphabet, "Na"): 0.0}


def test_compile_rule_exactly_three_subset_constructions():
    rs = parse_rule_file("alphabet: a b c ;\n"
                         "a -> b / c _ c ;\n"
                         "a b -> c c / (a + b)* _ ;\n")
    for rule in rs.rules:
        cr = C.compile_rule(rule, rs.alphabet)
        assert cr.stats.subset_constructions == 3


@pytest.mark.parametrize("family, size", [("left", (11, 2134)),
                                          ("right", (21, 2154))])
def test_bench_rule_k10_sizes(family, size):
    # the growth bench's largest point, on the full 194-label alphabet
    cr = C.compile_rule(bench_rule(family, 10), bench_alphabet(194))
    assert (cr.stats.states, cr.stats.arcs) == size


def test_compile_rule_leaves_no_markers():
    rs = parse_rule_file("alphabet: a b c ;\n a -> b / c _ c ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet, compact=False)
    used = cr.transducer.labels_used()
    assert not (used & set(rs.alphabet.markers()))


def test_compile_rule_totality_on_random_strings():
    rs = parse_rule_file("alphabet: a b c ;\n b -> c a / a _ b? ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    rng = rng_for("totality")
    rel = O.relation_upto(cr.transducer, rs.alphabet, 8)
    for _ in range(200):
        u = tuple(rng.choice(rs.alphabet.symbols)
                  for _ in range(rng.randint(0, 8)))
        assert rel.get(u), u


def test_single_output_determinism():
    # single-length phi, single-string psi: the relation is a function
    rs = parse_rule_file("alphabet: a b c ;\n a -> b / _ c ;\n")
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    rel = O.relation_upto(cr.transducer, rs.alphabet, 6)
    for u, outs in rel.items():
        assert len(outs) == 1, (u, outs)


def test_compile_rule_oracle_equivalence_random_corpus():
    for alphabet, rule in rule_corpus("compiler-corpus", 12,
                                      {2: 8, 3: 4}):
        cr = C.compile_rule(rule, alphabet)
        rep = check_rule(rule, cr.transducer, alphabet, 6)
        assert rep.equivalent, (R.pretty_rule(rule, alphabet), str(rep))


# ---------------------------------------------------------------------------
# The composition order against the left fold r ∘ f ∘ replace ∘ l1 ∘ l2
# ---------------------------------------------------------------------------

def assert_same_as_reference_cascade(rule, alphabet, max_in=None, note=None):
    """The compacted machine formats to the reference's text; with
    `max_in`, the uncompacted machines also have the same relation on
    inputs up to that length (their texts may differ: the reversal of
    tau_r ∘ tau_f adds a super-initial state with ε:ε arcs)."""
    got = C.compile_rule(rule, alphabet).transducer
    assert format_machine(got, alphabet) == \
        format_machine(reference_cascade(rule, alphabet), alphabet), note
    if max_in is not None:
        loose = C.compile_rule(rule, alphabet, compact=False).transducer
        ref = reference_cascade(rule, alphabet, compact=False)
        # a phi symbol writes at most two psi symbols in these rules
        assert weights_close(enum_relation(loose, max_in, 2 * max_in),
                             enum_relation(ref, max_in, 2 * max_in)), note


@pytest.mark.parametrize("family", ["left", "right"])
def test_compile_rule_equals_reference_cascade_bench(family):
    alphabet = bench_alphabet(194)
    for k in range(11):
        assert_same_as_reference_cascade(bench_rule(family, k), alphabet,
                                         note=k)


def test_compile_rule_compacts_one_representative_per_block(monkeypatch):
    # s003 and s004 share a phi class, so their arcs rewrite them to s001
    # and are no identity copies; they are compacted as one label all the
    # same, and the machine is the reference's over all 194 labels
    rs = parse_rule_file(f"alphabet: {' '.join(bench_alphabet(194).symbols)}"
                         " ;\n[s003 s004] -> s001 / _ s002 ;\n")
    alphabet, (rule,) = rs.alphabet, rs.rules
    seen = set()

    def spy(t):
        seen.update(l for a in t.arcs for l in a[1:3])
        return compact_transducer(t)

    monkeypatch.setattr(C, "compact_transducer", spy)
    assert_same_as_reference_cascade(rule, alphabet)
    assert seen == {EPS, *alphabet.ids_of(["s000", "s001", "s002", "s003"])}


def test_compile_rule_without_block_mates_compacts_in_sorted_order(
        monkeypatch):
    # over `rule_over_blocks`' pair, as compile_ruleset compiles a rule,
    # no block has two members: nothing is dropped or widened, and the
    # compacted arcs are already in sorted order
    def no_expand(*args):
        raise AssertionError("_expand called")

    monkeypatch.setattr(C, "_expand", no_expand)
    rng = rng_for("compile-rule-no-block-mates")
    for _ in range(2):
        rs = parse_rule_file(rand_phonology_text(rng))
        for rule in rs.rules:
            rule, small, _ = C.rule_over_blocks(rule, rs.alphabet)
            arcs = C.compile_rule(rule, small).transducer.arcs
            assert list(arcs) == sorted(arcs)
            assert_same_as_reference_cascade(rule, small)


@pytest.mark.parametrize("demo", ["nasal.rules", "chain.rules"])
def test_compile_rule_equals_reference_cascade_demos(demo):
    rs = parse_rule_file((DEMOS / demo).read_text())
    for rule in rs.rules:
        assert_same_as_reference_cascade(rule, rs.alphabet, max_in=4)


def test_compile_rule_equals_reference_cascade_random_corpus():
    rng = rng_for("ruleset-blocks")
    for _ in range(60):
        text = rand_ruleset_text(rng)
        rs = parse_rule_file(text)
        for rule in rs.rules:
            assert_same_as_reference_cascade(rule, rs.alphabet, max_in=2,
                                             note=text)


def test_compile_ruleset_applies_rules_in_order():
    rs = parse_rule_file("alphabet: a b c ;\n a -> b / _ ;\n b -> c / _ ;\n")
    t = C.compile_ruleset(rs)
    assert apply_names(t, rs.alphabet, "a") == {names(rs.alphabet, "c"): 0.0}


def test_compile_ruleset_empty_is_identity():
    rs = parse_rule_file("alphabet: a b ;\n")
    t = C.compile_ruleset(rs)
    assert (t.num_states, len(t.arcs)) == (1, 2)
    for text in ("", "a", "ab", "bba"):
        assert apply_names(t, rs.alphabet, text) == \
            {names(rs.alphabet, text): 0.0}


def test_compile_ruleset_matches_single_rule():
    rs = parse_rule_file("alphabet: a b c ;\n a -> b / c _ ;\n")
    t = C.compile_ruleset(rs)
    cr = C.compile_rule(rs.rules[0], rs.alphabet)
    rep = O.equivalent_on(t, cr.transducer, rs.alphabet, 5)
    assert rep.equivalent, str(rep)


def test_compile_ruleset_matches_sequential_oracle():
    rs = parse_rule_file("alphabet: a b c ;\n"
                         "a -> <0.5> b + c / _ b ;\n"
                         "b -> c / c _ ;\n"
                         "c c -> a / _ ;\n")
    t = C.compile_ruleset(rs)
    rel = O.relation_upto(t, rs.alphabet, 5)
    oracles = [O.RewriteOracle(r, rs.alphabet) for r in rs.rules]
    for u in O._all_inputs(rs.alphabet, 5):
        stage = {tuple(rs.alphabet.id_of(x) for x in u): 0.0}
        for orc in oracles:
            nxt = {}
            for ids, w in stage.items():
                for out, v in orc.rewrite_ids(ids).items():
                    nw = w + v
                    if nw < nxt.get(out, float("inf")):
                        nxt[out] = nw
            stage = nxt
        want = {tuple(rs.alphabet.name_of(s) for s in k): w
                for k, w in stage.items()}
        assert weights_close(rel.get(u, {}), want), (u, want)


# ---------------------------------------------------------------------------
# Rule sets over blocks of interchangeable symbols
# ---------------------------------------------------------------------------

def full_fold(ruleset, compact=True):
    """compile_ruleset's fold run over the whole alphabet."""
    alphabet = ruleset.alphabet
    t = C.identity_over_sigma(alphabet)
    for rule in ruleset.rules:
        t = compose(t, C.compile_rule(rule, alphabet, compact).transducer)
        if compact:
            t = compact_transducer(t)
    return t


def assert_same_as_full_fold(ruleset, note=None):
    assert canonical(C.compile_ruleset(ruleset)) == \
        canonical(full_fold(ruleset)), note
    loose = C.compile_ruleset(ruleset, compact=False)
    ref = full_fold(ruleset, compact=False)
    assert (loose.num_states, len(loose.arcs), loose.weighted) == \
        (ref.num_states, len(ref.arcs), ref.weighted), note


def test_compile_ruleset_equals_full_fold_random_corpus():
    rng = rng_for("ruleset-blocks")
    for _ in range(60):
        text = rand_ruleset_text(rng)
        assert_same_as_full_fold(parse_rule_file(text), text)


@pytest.mark.parametrize("demo", ["nasal.rules", "chain.rules"])
def test_compile_ruleset_equals_full_fold_demos(demo):
    assert_same_as_full_fold(parse_rule_file((DEMOS / demo).read_text()))


def test_compile_ruleset_equals_full_fold_acceptance_corpora():
    corpus = (rule_corpus("acceptance-oracle", 100, {2: 60, 3: 30, 4: 10})
              + rule_corpus("acceptance-kk", 20, {2: 10, 3: 6, 4: 4},
                            weighted=False))
    for alphabet, rule in corpus:
        assert_same_as_full_fold(R.RuleSet(alphabet, (rule,)))


def assert_same_text_as_reference_fold(ruleset, note=None):
    assert format_machine(C.compile_ruleset(ruleset), ruleset.alphabet) == \
        format_machine(reference_ruleset(ruleset), ruleset.alphabet), note


def test_compile_ruleset_text_equals_stepwise_compacted_fold_random_corpus():
    rng = rng_for("ruleset-blocks")
    for _ in range(60):
        text = rand_ruleset_text(rng)
        assert_same_text_as_reference_fold(parse_rule_file(text), text)


def test_compile_ruleset_text_equals_file_block_fold_paper_scale():
    rng = rng_for("ruleset-paper-scale")
    for _ in range(12):
        text = rand_phonology_text(rng)
        assert_same_text_as_reference_fold(parse_rule_file(text), text)


def test_compile_ruleset_compiles_each_rule_over_its_own_blocks(monkeypatch):
    rs = parse_rule_file(rand_phonology_text(rng_for("ruleset-own-blocks")))
    blocks = C.symbol_blocks(rs)
    rep = {x: block[0] for block in blocks for x in block}
    reduced = Alphabet([block[0] for block in blocks])
    renamed = [R.Rule(*(R.rename(ast, rep)
                        for ast in (r.phi, r.psi, r.lam, r.rho)))
               for r in rs.rules]
    want = [len(C.symbol_blocks(R.RuleSet(reduced, (r,)))) for r in renamed]
    sizes = []
    compile_rule = C.compile_rule

    def spy(rule, alphabet, **kwargs):
        sizes.append(alphabet.n)
        return compile_rule(rule, alphabet, **kwargs)

    monkeypatch.setattr(C, "compile_rule", spy)
    C.compile_ruleset(rs)
    assert sizes == want
    assert max(sizes) < len(blocks)


@pytest.mark.parametrize("gen", [rand_ruleset_text, rand_phonology_text])
def test_rule_over_blocks_is_the_pair_compile_ruleset_compiles(gen):
    # `rwc check --against` stores each rule's machine under
    # `rule_over_blocks(rule, alphabet)` and hands `compile_ruleset` a
    # compile_one that looks them up: each pair it asks for must be one of
    # those, in file order
    rng = rng_for("check-machine-keys", gen.__name__)
    for _ in range(60):
        rs = parse_rule_file(gen(rng))
        asked = []

        def compile_one(rule, small, compact):
            asked.append((rule, small))
            return C.identity_over_sigma(small)

        C.compile_ruleset(rs, compact=False, compile_one=compile_one)
        assert asked == [C.rule_over_blocks(rule, rs.alphabet)[:2]
                         for rule in rs.rules]


def test_rule_over_blocks_decides_every_string_over_the_alphabet():
    # both relations of a rule over the full alphabet, each symbol renamed
    # to its block's representative, are those of the rule over its
    # blocks: so `rwc check` sweeps the representatives only, and the
    # (rule, alphabet) pair is the one `compile_ruleset` compiles
    rng = rng_for("rule-over-blocks")
    max_len, fewer, n_rules = 3, 0, 0
    for _ in range(60):
        text = rand_ruleset_text(rng)
        rs = parse_rule_file(text)
        sigma = rs.alphabet
        compiled = []

        def record(rule, alphabet, compact):
            compiled.append((rule, alphabet))
            return C.rule_transducer(rule, alphabet, compact)

        C.compile_ruleset(rs, compile_one=record)
        for rule, pair in zip(rs.rules, compiled):
            small_rule, small, blocks = C.rule_over_blocks(rule, sigma)
            assert (small_rule, small) == pair, text
            n_rules += 1
            fewer += len(blocks) < sigma.n
            to_small = {sigma.id_of(x): small.id_of(block[0])
                        for block in blocks for x in block}

            def over_reps(rel):
                reps = {}
                for u, outs in rel.items():
                    v = tuple(map(to_small.__getitem__, u))
                    w = {tuple(map(to_small.__getitem__, o)): x
                         for o, x in outs.items()}
                    assert len(w) == len(outs), (text, u)
                    assert reps.setdefault(v, w) == w, (text, u)
                return reps

            assert over_reps(O.RewriteOracle(rule, sigma).relation(
                sigma.sigma(), max_len)) == O.RewriteOracle(
                    small_rule, small).relation(small.sigma(), max_len), text
            assert over_reps(O._relation(
                C.compile_rule(rule, sigma).transducer, sigma.sigma(),
                max_len)) == O._relation(
                    C.compile_rule(small_rule, small).transducer,
                    small.sigma(), max_len), text
    assert fewer > n_rules // 2


@pytest.mark.parametrize("demo", ["nasal", "chain"])
def test_compile_ruleset_demo_text_is_golden(demo):
    rs = parse_rule_file((DEMOS / f"{demo}.rules").read_text())
    assert_same_text_as_reference_fold(rs)
    assert format_machine(C.compile_ruleset(rs), rs.alphabet) == \
        (GOLDEN / f"{demo}.fst").read_text()


@pytest.mark.parametrize("compact", [True, False])
def test_compile_ruleset_compacts_each_rule_and_the_fold_once(monkeypatch,
                                                              compact):
    calls = []

    def counting(t):
        calls.append(t)
        return compact_transducer(t)

    monkeypatch.setattr(C, "compact_transducer", counting)
    for demo in ("nasal.rules", "chain.rules"):
        rs = parse_rule_file((DEMOS / demo).read_text())
        calls.clear()
        C.compile_ruleset(rs, compact=compact)
        assert len(calls) == (len(rs.rules) + 1 if compact else 0), demo


def assert_apply_matches_reference(t, alphabet, inputs, note=None):
    for u in inputs:
        wss, truncated = O.apply(t, u, alphabet)
        want, want_truncated = reference_apply(t, u, alphabet)
        assert truncated == want_truncated, (note, u)
        if not truncated:
            assert weights_close(dict(wss.entries), want), (note, u)


@pytest.mark.parametrize("demo", ["nasal.rules", "chain.rules"])
def test_apply_matches_composition_reference_demos(demo):
    rs = parse_rule_file((DEMOS / demo).read_text())
    assert_apply_matches_reference(C.compile_ruleset(rs), rs.alphabet,
                                   O._all_inputs(rs.alphabet, 4))


def test_apply_matches_composition_reference_random_corpus():
    rng = rng_for("ruleset-blocks")
    inputs_rng = rng_for("ruleset-blocks-apply")
    for _ in range(60):
        text = rand_ruleset_text(rng)
        rs = parse_rule_file(text)
        inputs = [tuple(inputs_rng.choice(rs.alphabet.symbols)
                        for _ in range(inputs_rng.randint(0, 6)))
                  for _ in range(20)]
        assert_apply_matches_reference(C.compile_ruleset(rs), rs.alphabet,
                                       inputs, text)


def test_blocks_for_negated_left_context():
    rs = parse_rule_file("alphabet: a b c d e f g ;\n"
                         "[a b] -> [c d] / [^ a] _ ;\n")
    assert C.symbol_blocks(rs) == [("a",), ("b",), ("c",), ("d",),
                                   ("e", "f", "g")]
    assert_same_as_full_fold(rs)
    t = C.compile_ruleset(rs)
    assert apply_names(t, rs.alphabet, "ga") == {
        names(rs.alphabet, "gc"): 0.0, names(rs.alphabet, "gd"): 0.0}
    assert apply_names(t, rs.alphabet, "aa") == {names(rs.alphabet, "aa"): 0.0}
    assert apply_names(t, rs.alphabet, "ba") == {
        names(rs.alphabet, "bc"): 0.0, names(rs.alphabet, "bd"): 0.0}


def test_blocks_when_phi_class_overlaps_psi_symbol():
    # b is both in the phi class and the target: it must not share a
    # representative with a and c, or b:b would read as a copy
    rs = parse_rule_file("alphabet: a b c d e f ;\n[a b c] -> b / _ d ;\n")
    assert C.symbol_blocks(rs) == [("a", "c"), ("b",), ("d",), ("e", "f")]
    assert_same_as_full_fold(rs)
    t = C.compile_ruleset(rs)
    for text, want in (("ad", "bd"), ("bd", "bd"), ("cd", "bd"),
                       ("ed", "ed"), ("ca", "ca"), ("fcd", "fbd")):
        assert apply_names(t, rs.alphabet, text) == \
            {names(rs.alphabet, want): 0.0}


def test_expand_rejects_output_only_block_representative():
    reduced = Alphabet(["a", "c"])
    members = [(EPS,), (1, 2), (3,)]
    t = Transducer(1, 0, {0: 0.0}, [(0, 2, 1, 0.0, 0)])
    with pytest.raises(AssertionError):
        C._expand(t, members, reduced)
    t = Transducer(1, 0, {0: 0.0}, [(0, reduced.rb, 1, 0.0, 0)])
    with pytest.raises(AssertionError):
        C._expand(t, members, reduced)
