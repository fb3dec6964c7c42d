"""The rewriting oracle itself, transducer application, and the
equivalence checker."""

import math
import pathlib
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwc import compiler as C
from rwc import oracle as O
from rwc.errors import (BadOptionError, DeadlineExceeded, DivergentError,
                        InputBudgetError, RwcError, WeightOverflowError)
from rwc.fsm import EPS, Alphabet, Automaton, Deadline, Transducer, \
    aut_sigma_star, id_transducer, remove_epsilon
from rwc.rulespec import Cls, Eps, Rule, Sym, parse_rule_file

from .helpers import (check_rule, reference_apply, reference_compare,
                      reference_equivalent_on, reference_relation_upto,
                      reference_rewrite_ids, rng_for, rule_corpus,
                      time_limit, weights_close)

ABC = Alphabet(["a", "b", "c"])
AB = Alphabet(["a", "b"])


def rule_of(text):
    rs = parse_rule_file(text)
    return rs.alphabet, rs.rules[0]


def rewrite(text, s):
    alphabet, rule = rule_of(text)
    return {alphabet.names_to_string(k): w
            for k, w in O.oracle_rewrite(rule, alphabet, s)}


def test_oracle_basic_context():
    assert rewrite("alphabet: a b c d ;\n a -> b / c _ d ;", "cad") == \
        {"cbd": 0.0}


def test_oracle_output_side_left_context():
    assert rewrite("alphabet: a b ;\n a -> b / b _ ;", "baa") == \
        {"bbb": 0.0}


def test_oracle_input_side_right_context():
    assert rewrite("alphabet: a b ;\n a -> b / _ a ;", "aaa") == \
        {"bba": 0.0}


def test_oracle_weighted_nasal_rule():
    wa, wb = -math.log(0.9), -math.log(0.1)
    got = rewrite("alphabet: b m n p N a ;\n"
                  f"N -> <{wa!r}> m + <{wb!r}> n / _ [b m p] ;", "Nb")
    assert weights_close(got, {"mb": wa, "nb": wb})


def test_oracle_accumulates_weights_across_applications():
    got = rewrite("alphabet: a b ;\n a -> <1.5> b / _ ;", "aa")
    assert weights_close(got, {"bb": 3.0})


def test_oracle_weights_sum_per_choice_closed_form():
    # every a rewrites independently to b (cost 1) or c (cost 2): 2^n
    # outputs, each costing the sum of its per-site choices
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> <1> b + <2> c ;")
    n = 4
    got = O.oracle_rewrite(rule, alphabet, "a" * n)
    want = {}
    for bits in range(2 ** n):
        out = tuple("b" if bits & (1 << i) else "c" for i in range(n))
        want[out] = sum(1.0 if s == "b" else 2.0 for s in out)
    assert weights_close(dict(got.entries), want)


def test_oracle_divergent_psi_raises():
    alphabet, rule = rule_of("alphabet: a b ;\n a -> b* ;")
    with pytest.raises(DivergentError):
        O.oracle_rewrite(rule, alphabet, "a", bound=20)
    # ...but an input with no match site stays finite
    out = O.oracle_rewrite(rule, alphabet, "", bound=20)
    assert dict(out.entries) == {(): 0.0}


@pytest.mark.parametrize("psi", ["b* c", "c* b", "b* <1> c"])
def test_oracle_psi_with_zero_weight_loop_is_divergent(psi):
    # a zero-weight loop on b, whose label sorts before the exit's: ties
    # broken by output string popped ever longer b-prefixes and never a
    # whole string; with a weighted exit, so did ties broken by weight alone
    alphabet, rule = rule_of(f"alphabet: a b c ;\n a -> {psi} ;")
    with time_limit(10):
        orc = O.RewriteOracle(rule, alphabet, bound=20)
        assert orc.psi_truncated and len(orc.psi_strings) == 21
        with pytest.raises(DivergentError):
            orc.rewrite_ids(alphabet.ids_of(["a"]))


def test_enumerate_language_best_first():
    # a loop writing a with weight 1 and an exit writing b: the bound
    # keeps the lightest strings
    a, b = AB.ids_of(["a", "b"])
    aut = Automaton(2, 0, {1: 0.5}, [(0, a, 1.0, 0), (0, b, 0.0, 1)])
    got, truncated = O.enumerate_language(aut, 3)
    assert truncated
    assert got == {(b,): 0.5, (a, b): 1.5, (a, a, b): 2.5}
    got, truncated = O.enumerate_language(aut, 100)
    assert truncated and len(got) == 100


def loop_machine(loop, exit_, exit_weight=0.0):
    """Two states: an epsilon-input loop writing `loop` on the initial
    state, and an epsilon-input arc writing `exit_` to the final one."""
    return Transducer(2, 0, {1: 0.0},
                      [(0, EPS, AB.id_of(loop), 0.0, 0),
                       (0, EPS, AB.id_of(exit_), exit_weight, 1)])


@pytest.mark.parametrize("loop, exit_, exit_weight", [
    ("a", "b", 0.0), ("b", "a", 0.0), ("a", "b", 1.0)])
def test_apply_zero_weight_output_loop_truncates(loop, exit_, exit_weight):
    t = loop_machine(loop, exit_, exit_weight)
    with time_limit(10):
        wss, truncated = O.apply(t, "", AB, bound=5)
    assert truncated
    assert dict(wss.entries) == {
        (loop,) * k + (exit_,): exit_weight for k in range(5)}


def test_apply_skips_state_dead_for_the_input():
    # on input "a", state 2 is reachable and co-accessible in t (by b),
    # but dead for the string; its zero-weight epsilon:a loop must not
    # be searched
    a, b = AB.ids_of(["a", "b"])
    t = Transducer(3, 0, {1: 0.0},
                   [(0, a, b, 0.5, 1), (0, a, a, 0.0, 2),
                    (2, EPS, a, 0.0, 2), (2, b, b, 0.0, 1)])
    with time_limit(10):
        wss, truncated = O.apply(t, "a", AB)
        assert not truncated and dict(wss.entries) == {("b",): 0.5}
        # on "ab" it is live, and the loop gives infinitely many outputs
        wss, truncated = O.apply(t, "ab", AB, bound=4)
    assert truncated and dict(wss.entries) == {
        ("a",) * k + ("b",): 0.0 for k in range(1, 5)}


def test_apply_outputs_best_first_when_truncated():
    # outputs a^k b cost k: the bound keeps the k < 3
    t = Transducer(2, 0, {1: 0.0},
                   [(0, EPS, AB.id_of("a"), 1.0, 0),
                    (0, EPS, AB.id_of("b"), 0.0, 1)])
    wss, truncated = O.apply(t, "", AB, bound=3)
    assert truncated
    assert dict(wss.entries) == {("b",): 0.0, ("a", "b"): 1.0,
                                 ("a", "a", "b"): 2.0}


@st.composite
def cyclic_transducers(draw):
    """Weighted transducers over a, b with epsilon-input arcs, epsilon:
    epsilon arcs, final weights and at least one loop."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    label = st.sampled_from((EPS, 1, 2))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    loop = draw(st.tuples(state, label, label, weight))
    arcs = draw(st.lists(st.tuples(state, label, label, weight, state),
                         max_size=9))
    arcs.append(loop + (loop[0],))
    finals = draw(st.dictionaries(state, weight, min_size=1))
    return Transducer(n, draw(state), finals, arcs)


@settings(max_examples=300, deadline=None)
@given(cyclic_transducers(), st.lists(st.sampled_from("ab"), max_size=4),
       st.integers(1, 6))
def test_apply_matches_composition_reference(t, u, bound):
    with time_limit(10):
        wss, truncated = O.apply(t, u, AB, bound=bound)
        want, want_truncated = reference_apply(t, u, AB, bound=bound)
    assert truncated == want_truncated
    assert len(wss) == (bound if truncated else len(want))
    if not truncated:
        assert weights_close(dict(wss.entries), want)


def test_apply_identity_transducer():
    ident = id_transducer(remove_epsilon(aut_sigma_star(ABC.sigma())))
    wss, truncated = O.apply(ident, "ab", ABC)
    assert not truncated and dict(wss.entries) == {("a", "b"): 0.0}


def test_apply_compiled_rule_two_applications():
    alphabet, rule = rule_of("alphabet: a b c d ;\n a -> b / c _ d ;")
    cr = C.compile_rule(rule, alphabet)
    wss, _ = O.apply(cr.transducer, "cadcad", alphabet)
    assert dict(wss.entries) == {tuple("cbdcbd"): 0.0}


def test_apply_truncates_infinite_outputs():
    alphabet, rule = rule_of("alphabet: a b ;\n a -> b b* ;")
    cr = C.compile_rule(rule, alphabet)
    wss, truncated = O.apply(cr.transducer, "a", alphabet, bound=5)
    assert truncated and len(wss) == 5


def test_apply_weight_overflow_is_a_coded_error():
    alphabet, rule = rule_of("alphabet: a b ;\n a -> <1e308> b / _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    wss, _ = O.apply(t, "a", alphabet)
    assert dict(wss.entries) == {("b",): 1e308}
    # two rewrites cost 2e308, past the float range
    with pytest.raises(WeightOverflowError):
        O.apply(t, "aa", alphabet)


@pytest.mark.parametrize("other, finals", [
    # "ab" overflows on its arc into the final state
    ([(1, EPS, EPS, 0.0, 2), (1, EPS, 2, 1e308, 2)], {2: 0.0}),
    # "a" overflows on adding state 1's final weight
    ([(1, EPS, 2, 0.0, 2)], {1: 1e308, 2: 0.0})])
def test_apply_overflow_off_the_best_path_is_a_coded_error(other, finals):
    # "a" has another output that costs 1e308, so the least weights of the
    # backward pass all stay finite
    a = AB.id_of("a")
    t = Transducer(3, 0, finals, [(0, a, a, 1e308, 1)] + other)
    with pytest.raises(WeightOverflowError):
        O.apply(t, "a", AB)


def test_oracle_weight_overflow_is_a_coded_error():
    alphabet, rule = rule_of("alphabet: a b ;\n a -> <1e308> b / _ ;")
    orc = O.RewriteOracle(rule, alphabet)
    a, b = alphabet.ids_of(["a", "b"])
    assert orc.rewrite_ids((a,)) == {(b,): 1e308}
    with pytest.raises(WeightOverflowError):
        orc.rewrite_ids((a, a))


@pytest.mark.parametrize("arcs, finals", [
    # two symbol arcs
    ([(0, 1, 1, 1e308, 1), (1, 1, 1, 1e308, 2)], {2: 0.0}),
    # a symbol arc, then an epsilon-input arc
    ([(0, 1, 1, 1e308, 1), (1, EPS, 2, 1e308, 2)], {2: 0.0}),
    # a symbol arc, then a final weight
    ([(0, 1, 1, 1e308, 1)], {1: 1e308})])
def test_relation_weight_overflow_is_a_coded_error(arcs, finals):
    t = Transducer(3, 0, finals, arcs)
    with pytest.raises(WeightOverflowError):
        O._relation(t, AB.sigma(), 2)
    # a machine identical to the one compared is swept all the same
    with pytest.raises(WeightOverflowError):
        O.equivalent_on(t, t, AB, 2)


def _ladder(k):
    """k epsilon:epsilon diamonds in a row, each with a light branch and a
    heavy one of weight 2**(k-1-i), listed light first so that a LIFO
    worklist takes the heavy one first: every state is improved once per
    path that reaches it, about 3 * 2**(k+1) steps over 3k+1 states."""
    arcs = []
    for i in range(k):
        v = 3 * i
        arcs += [(v, EPS, EPS, 0.0, v + 1),
                 (v, EPS, EPS, float(2 ** (k - 1 - i)), v + 2),
                 (v + 1, EPS, EPS, 0.0, v + 3), (v + 2, EPS, EPS, 0.0, v + 3)]
    return Transducer(3 * k + 1, 0, {3 * k: 0.0}, arcs)


def _fork(alphabet):
    """One state reading "a" as any of the alphabet's symbols."""
    a = alphabet.id_of("a")
    return Transducer(1, 0, {0: 0.0},
                      [(0, a, o, 0.0, 0) for o in alphabet.sigma()])


def _chain(n):
    """n epsilon:a arcs, then one a:a arc, into the final state."""
    a = AB.id_of("a")
    return Transducer(n + 2, 0, {n + 1: 0.0},
                      [(i, EPS, a, 0.0, i + 1) for i in range(n)]
                      + [(n, a, a, 0.0, n + 1)])


_THIRTEEN = Alphabet(["a"] + [f"x{i}" for i in range(12)])


# (machine, alphabet, max_len, the message of the guard its sweep trips)
_GUARDS = [
    # 2,000,000 closure steps over 58 states, in bounded memory
    (_ladder(19), AB, 0, "epsilon closure diverged"),
    # "aaaa" has 13**4 outputs, more than 4,096
    (_fork(_THIRTEEN), _THIRTEEN, 4,
     "more outputs than the enumeration bound"),
    # 40 epsilon:a arcs reach the bound 8 * 1 + 32; the a:a arc passes it
    (_chain(40), AB, 1, "output grew past bound"),
    # an epsilon:a loop, an epsilon-input cycle: its outputs never stop
    (Transducer(1, 0, {0: 0.0}, [(0, EPS, AB.id_of("a"), 0.0, 0)]), AB, 0,
     "output grew past the enumeration bound"),
]


@pytest.mark.parametrize("t, sigma, max_len, message", [
    (t, alphabet.sigma(), max_len, message)
    for t, alphabet, max_len, message in _GUARDS])
def test_relation_guards_raise_divergent(t, sigma, max_len, message):
    with pytest.raises(DivergentError, match=message) as e:
        O._relation(t, sigma, max_len)
    assert e.value.code == "E_DIVERGENT"


@pytest.mark.parametrize("t, alphabet, max_len, message", _GUARDS)
def test_equivalent_on_identical_machines_keep_guard_errors(t, alphabet,
                                                            max_len, message):
    # no bound shows that these sweeps raise nothing: the ladder's and the
    # chain's paths are longer than the output bound, the fork offers too
    # many paths and the loop is a cycle, so the machine is swept though it
    # is the one compared
    with pytest.raises(DivergentError, match=message):
        O.equivalent_on(t, t, alphabet, max_len)


def test_relation_upto_agrees_with_apply():
    rng = rng_for("relation-vs-apply")
    alphabet, rule = rule_of(
        "alphabet: a b c ;\n a -> <0.25> b + c c / _ b? ;")
    cr = C.compile_rule(rule, alphabet)
    rel = O.relation_upto(cr.transducer, alphabet, 4)
    for u in O._all_inputs(alphabet, 4):
        wss, _ = O.apply(cr.transducer, u, alphabet)
        assert weights_close(rel.get(u, {}), dict(wss.entries)), u


def test_equivalent_on_reflexive():
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> b / c _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    # a bound shows that its sweep raises nothing, so it is not swept
    with mock.patch.object(O, "_relation") as sweep:
        rep = O.equivalent_on(t, t, alphabet, 4)
    sweep.assert_not_called()
    assert rep.equivalent and rep.counterexamples == []
    assert str(rep) == "equivalent on all 121 strings"


def test_equivalent_on_finds_constructed_difference():
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> b / c _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    # drop one final state: some input loses its outputs
    broken_finals = dict(t.finals)
    broken_finals.pop(next(iter(broken_finals)))
    broken = Transducer(t.num_states, t.initial, broken_finals, t.arcs)
    rep = O.equivalent_on(t, broken, alphabet, 4)
    assert not rep.equivalent and rep.counterexamples
    head, *lines = str(rep).splitlines()
    assert head == f"NOT equivalent ({len(rep.counterexamples)} " \
        "counterexamples shown)"
    assert lines == [f"  input {u!r}: {lhs!r} vs {rhs!r}"
                     for u, lhs, rhs in rep.counterexamples]


def test_check_rule_accepts_compiled_rule():
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> <0.5> b + c / c _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    rep = check_rule(rule, t, alphabet, 4)
    assert rep.equivalent
    assert rep.strings_checked == sum(3 ** n for n in range(5))


def test_check_rule_reports_wrong_transducer():
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> b / c _ ;")
    t = C.identity_over_sigma(alphabet)
    rep = check_rule(rule, t, alphabet, 3)
    assert not rep.equivalent
    u, got, exp = rep.counterexamples[0]
    assert u == ("c", "a")
    assert got == {("c", "a"): 0.0} and exp == {("c", "b"): 0.0}


def test_check_rule_counts_empty_oracle_output():
    # psi denotes nothing, so the oracle maps "a" to no output; a machine
    # that also maps "a" to nothing still fails the check
    alphabet = Alphabet(["a", "b"])
    rule = Rule(phi=Sym("a"), psi=Cls(()), lam=Eps(), rho=Eps())
    b = alphabet.id_of("b")
    t = Transducer(1, 0, {0: 0.0}, [(0, b, b, 0.0, 0)])
    rep = check_rule(rule, t, alphabet, 1)
    assert rep.counterexamples == [(("a",), {}, {})]
    assert rep.strings_checked == 3


def _outcome(fn, *args):
    """fn(*args), or the type of the coded error it raises."""
    try:
        return fn(*args)
    except DivergentError as e:
        return type(e)


def corrupt(t, how, k):
    """A copy of t with its k-th arc (modulo the arc count) reweighted or
    dropped, or its k-th final state (modulo) dropped."""
    arcs = list(t.arcs)
    finals = dict(t.finals)
    if how == "final" and len(finals) > 1:
        finals.pop(sorted(finals)[k % len(finals)])
    elif arcs:
        s, i, o, w, d = arcs[k % len(arcs)]
        if how == "weight":
            arcs[k % len(arcs)] = (s, i, o, w + 0.5, d)
        else:
            del arcs[k % len(arcs)]
    return Transducer(t.num_states, t.initial, finals, arcs)


@settings(max_examples=200, deadline=None)
@given(cyclic_transducers(), st.sampled_from(("weight", "drop", "final")),
       st.integers(0, 20), st.integers(0, 3), st.integers(1, 10))
def test_equivalent_on_matches_named_reference(t, how, k, max_len,
                                               max_report):
    # the id-level sweep reports what the name-level one did: verdict,
    # strings checked and counterexamples, in names and in order, for any
    # bound on the counterexamples reported
    for t2 in (t, corrupt(t, how, k)):
        with time_limit(20), mock.patch.object(O, "_MAX_REPORT", max_report):
            got = _outcome(O.equivalent_on, t, t2, AB, max_len, 1e-9)
            want = _outcome(reference_equivalent_on, t, t2, AB, max_len,
                            1e-9, max_report)
        if want is DivergentError:
            assert got is DivergentError
        else:
            assert (got.equivalent, got.counterexamples,
                    got.strings_checked) == want


def test_relation_upto_matches_named_reference():
    for alphabet, rule in rule_corpus("sweep-reference", 12, {2: 6, 3: 6}):
        t = C.compile_rule(rule, alphabet).transducer
        assert O.relation_upto(t, alphabet, 4) == \
            reference_relation_upto(t, alphabet, 4)


def test_check_rule_matches_named_reference():
    # against the right machine and the identity, which fails on every
    # rule that rewrites some input
    for alphabet, rule in rule_corpus("check-reference", 12, {2: 6, 3: 6}):
        orc = O.RewriteOracle(rule, alphabet)

        def expected(u):
            return {O._names(alphabet, o): w for o, w in
                    orc.rewrite_ids(alphabet.ids_of(u)).items()}

        for t in (C.compile_rule(rule, alphabet).transducer,
                  C.identity_over_sigma(alphabet)):
            rep = check_rule(rule, t, alphabet, 3)
            want = reference_compare(reference_relation_upto(t, alphabet, 3),
                                     expected, alphabet, 3, need_output=True)
            assert (rep.equivalent, rep.counterexamples,
                    rep.strings_checked) == want


@st.composite
def relation_pairs(draw):
    """(rel, expected, max_len): `expected` a relation on some inputs over
    a, b, some of them mapped to {}; `rel` it as `_relation` would record
    it (no empty output sets), maybe with one weight moved by 5e-10 or by
    0.5, or with one input dropped."""
    max_len = draw(st.integers(0, 3))
    full = draw(st.booleans())  # every input with an output
    outputs = st.dictionaries(st.lists(st.sampled_from((1, 2)), max_size=2)
                              .map(tuple), st.floats(0.0, 4.0),
                              min_size=int(full), max_size=2)
    expected = {}
    for u in O._strings(AB.sigma(), max_len):
        if full or draw(st.booleans()):
            expected[u] = draw(outputs)
    rel = {u: dict(o) for u, o in expected.items() if o}
    how = draw(st.sampled_from(("equal", "tolerance", "weight", "drop")))
    if rel and how != "equal":
        u = draw(st.sampled_from(sorted(rel)))
        if how == "drop":
            del rel[u]
        else:
            k = next(iter(rel[u]))
            rel[u][k] += 5e-10 if how == "tolerance" else 0.5
    return rel, expected, max_len


@settings(max_examples=300, deadline=None)
@given(relation_pairs(), st.booleans(), st.integers(1, 10))
def test_compare_matches_named_reference(pair, need_output, max_report):
    # the dict-equality fast path reports what the ordered loop does
    rel, expected, max_len = pair
    with mock.patch.object(O, "_MAX_REPORT", max_report):
        rep = O._compare(rel, expected, AB, max_len, need_output=need_output)

    def named(r):
        return {O._names(AB, u): O._named(AB, o) for u, o in r.items()}

    want_exp = named(expected)
    want = reference_compare(named(rel), lambda u: want_exp.get(u, {}), AB,
                             max_len, need_output=need_output,
                             max_report=max_report)
    assert (rep.equivalent, rep.counterexamples, rep.strings_checked) == want


def _coded(fn, *args):
    """fn(*args), or the code of the toolkit error it raises."""
    try:
        return fn(*args)
    except RwcError as e:
        return e.code


DEMOS = pathlib.Path(__file__).parent.parent / "demos"


def _relation_cases():
    """(alphabet, rule, the code of the error the oracle raises or None)"""
    for weighted in (True, False):
        tag = "weighted" if weighted else "unweighted"
        for k, (alphabet, rule) in enumerate(rule_corpus(
                f"oracle-relation-{tag}", 16, {2: 8, 3: 8},
                weighted=weighted)):
            yield pytest.param(alphabet, rule, None, id=f"corpus-{tag}-{k}")
    for demo in ("nasal", "chain"):
        rs = parse_rule_file((DEMOS / f"{demo}.rules").read_text())
        for k, rule in enumerate(rs.rules):
            yield pytest.param(rs.alphabet, rule, None, id=f"demo-{demo}-{k}")
    yield pytest.param(AB, Rule(phi=Sym("a"), psi=Cls(()), lam=Eps(),
                                rho=Eps()), None, id="psi-empty")
    for text, error, tag in (
            ("a -> b / _ ;", None, "empty-contexts"),
            ("[a b] -> <0.5> c + a / a _ b? ;", None, "overlapping"),
            # a rho match "c" that is a prefix of a longer one, "cc"
            ("a -> <0.5> b + c / _ c c? ;", None, "rho-prefix"),
            ("a -> b* c / _ ;", "E_DIVERGENT", "psi-past-bound"),
            ("a -> <1e308> b / _ ;", "E_WEIGHT_OVERFLOW", "overflow")):
        alphabet, rule = rule_of(f"alphabet: a b c ;\n{text}")
        yield pytest.param(alphabet, rule, error, id=tag)


@pytest.mark.parametrize("alphabet, rule, error", _relation_cases())
def test_oracle_relation_equals_reference_rewrite(alphabet, rule, error):
    # one sweep with suffix-shared tables and the no-site shortcut gives
    # exactly what the per-string oracle gave, or raises its coded error
    orc = O.RewriteOracle(rule, alphabet)
    sigma = alphabet.sigma()
    want = {u: _coded(reference_rewrite_ids, orc, u)
            for u in O._strings(sigma, 4)}
    for u, w in want.items():
        assert _coded(orc.rewrite_ids, u) == w, u
        # callers may pass a list; outputs are keyed by tuples all the same
        assert _coded(orc.rewrite_ids, list(u)) == w, u
    errors = {w for w in want.values() if isinstance(w, str)}
    assert errors == ({error} if error else set())
    assert _coded(orc.relation, sigma, 4) == (error or want)


def test_oracle_matchers_run_under_the_open_deadline():
    # phi of 70 symbols: its matcher's determinization visits 71 subsets,
    # past the first check at 64
    alphabet, rule = rule_of(f"alphabet: a b ;\n{' a' * 70} -> b ;")
    O.RewriteOracle(rule, alphabet)
    deadline = Deadline(0)
    time.sleep(0.01)
    with deadline, pytest.raises(DeadlineExceeded) as e:
        O.RewriteOracle(rule, alphabet)
    assert e.value.code == "E_TIMEOUT"


# the sizes the CLI refuses: a length below 0, a bound below 1
@pytest.mark.parametrize("call", [
    lambda t, rule, ab: O.equivalent_on(t, t, ab, -1),
    lambda t, rule, ab: O.relation_upto(t, ab, -1),
    lambda t, rule, ab: O.RewriteOracle(rule, ab).relation(ab.sigma(), -1),
    lambda t, rule, ab: O.apply(t, "a", ab, bound=0),
    lambda t, rule, ab: O.enumerate_language(aut_sigma_star(ab.sigma()), 0),
    lambda t, rule, ab: O.RewriteOracle(rule, ab, bound=0),
    lambda t, rule, ab: O.oracle_rewrite(rule, ab, "ca", bound=0),
], ids=["equivalent_on", "relation_upto", "RewriteOracle.relation", "apply",
        "enumerate_language", "RewriteOracle", "oracle_rewrite"])
def test_library_entry_point_refuses_size_out_of_range(call):
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> b / c _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    with pytest.raises(BadOptionError):
        call(t, rule, alphabet)


@pytest.mark.parametrize("call", [
    lambda t, rule, ab: O.relation_upto(t, ab, 13),
    lambda t, rule, ab: O.RewriteOracle(rule, ab).relation(ab.sigma(), 13),
], ids=["relation_upto", "RewriteOracle.relation"])
def test_library_budget_error_names_max_len_not_the_cli_option(call):
    # 3 symbols up to length 13 are 2,391,484 strings
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> b / c _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    with pytest.raises(InputBudgetError) as e:
        call(t, rule, alphabet)
    assert str(e.value) == ("E_BUDGET: 3 symbols up to length 13 are more "
                            "than 1,000,000 input strings; lower max_len")


@pytest.mark.parametrize("raise_by, equivalent", [(5e-10, True),
                                                  (2e-9, False)])
def test_equivalent_on_tolerance_edge(raise_by, equivalent):
    # weights within 1e-9 of each other are equal; exact equality is only
    # the sweep's fast path
    alphabet, rule = rule_of("alphabet: a b c ;\n a -> <0.5> b / c _ ;")
    t = C.compile_rule(rule, alphabet).transducer
    arcs = list(t.arcs)
    k = next(j for j, arc in enumerate(arcs) if arc[3] > 0)
    s, i, o, w, d = arcs[k]
    arcs[k] = (s, i, o, w + raise_by, d)
    t2 = Transducer(t.num_states, t.initial, t.finals, arcs)
    rep = O.equivalent_on(t, t2, alphabet, 3)
    assert rep.equivalent is equivalent
    for _, lhs, rhs in rep.counterexamples:
        assert lhs.keys() == rhs.keys() and lhs != rhs
