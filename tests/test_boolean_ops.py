"""Determinization, completion, complementation, intersection,
subtraction, minimization, and compaction against enumeration oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwc import boolean_ops as B
from rwc import compiler as C
from rwc import fsm
from rwc.boolean_ops import (compact_transducer, complement, complete,
                             count_ops, determinize, intersect, is_complete,
                             minimize, subtract)
from rwc.errors import NotDeterministicError, WeightedInputError
from rwc.fsm import Alphabet, Automaton, aut_concat, aut_label, \
    aut_sigma_star
from rwc.rulespec import compile_regex, parse_regex, parse_rule_file
from rwc.textio import format_machine

from .helpers import (accepts_by_enum, all_strings, canonical, enum_relation,
                      lang_set, not_dfas, rand_automaton, rand_regex,
                      rand_transducer, reference_compact_transducer, rng_for,
                      weights_close)

AB = Alphabet(["a", "b"])
A, B_ = AB.ids_of(["a", "b"])
ABC = Alphabet(["a", "b", "c"])


def hand_nfa_sigma_star_b():
    # q0 loops on a,b; q0 -b-> q1 (final)
    return Automaton(2, 0, {1: 0.0},
                     [(0, A, 0.0, 0), (0, B_, 0.0, 0), (0, B_, 0.0, 1)])


# ---------------------------------------------------------------------------
# determinize
# ---------------------------------------------------------------------------

def test_determinize_sigma_star_b_by_hand():
    d = determinize(hand_nfa_sigma_star_b())
    assert d.num_states == 2
    assert is_complete(d, AB.sigma())
    for s in all_strings(AB.sigma(), 5):
        assert accepts_by_enum(d, s) == (len(s) > 0 and s[-1] == B_)


def test_determinize_preserves_language_of_dfa_input():
    d = determinize(hand_nfa_sigma_star_b())
    d2 = determinize(d)
    assert lang_set(d, 5) == lang_set(d2, 5)


def test_determinize_counter_increments():
    with count_ops() as c:
        determinize(hand_nfa_sigma_star_b())
        determinize(hand_nfa_sigma_star_b())
    assert c["determinize"] == 2


def test_nested_count_ops_add_into_the_outer_tally():
    with count_ops() as outer:
        determinize(hand_nfa_sigma_star_b())
        with count_ops() as inner:
            determinize(hand_nfa_sigma_star_b())
            complement(determinize(hand_nfa_sigma_star_b()), AB.sigma())
            assert outer == {"determinize": 1}
        assert inner == {"determinize": 2, "complement": 1}
    assert outer == {"determinize": 3, "complement": 1}


def test_count_ops_restores_the_tally_when_the_block_raises():
    before = B._tally.get()
    with count_ops() as outer:
        with pytest.raises(ValueError):
            with count_ops():
                determinize(hand_nfa_sigma_star_b())
                determinize(Automaton(2, 0, {1: 0.0}, [(0, A, 1.0, 1)]))
        assert B._tally.get() is outer
    assert B._tally.get() is before
    assert outer == {"determinize": 1}


def test_compile_rule_counts_construction_apart_from_compaction():
    rs = parse_rule_file("alphabet: a b c ;\na -> b / c _ c ;\n")
    with count_ops() as ops:
        cr = C.compile_rule(rs.rules[0], rs.alphabet)
    # three subset constructions build the rule; compaction runs a fourth
    assert ops["determinize"] == 4
    assert cr.stats.subset_constructions == 3


def test_determinize_rejects_weighted():
    aut = Automaton(2, 0, {1: 0.0}, [(0, A, 1.0, 1)])
    with pytest.raises(ValueError):
        determinize(aut)


_WEIGHTED = Automaton(2, 0, {1: 0.0}, [(0, A, 1.0, 1)])
_PLAIN = aut_label(A)


@pytest.mark.parametrize("op", [
    lambda: determinize(_WEIGHTED),
    lambda: intersect(_WEIGHTED, _PLAIN),
    lambda: intersect(_PLAIN, _WEIGHTED),
    lambda: subtract(_WEIGHTED, _PLAIN, AB.sigma()),
    lambda: subtract(_PLAIN, _WEIGHTED, AB.sigma()),
    lambda: fsm.cross_product(_WEIGHTED, _PLAIN),
], ids=["determinize", "intersect-a", "intersect-b", "subtract-a",
        "subtract-b", "cross_product"])
def test_weighted_acceptor_is_refused_with_a_code(op):
    with pytest.raises(WeightedInputError) as e:
        op()
    assert e.value.code == "E_WEIGHTED"
    assert str(e.value).startswith("E_WEIGHTED: ")


def test_dfa_certificate_rejects_nondeterminism():
    # every function that needs a DFA checks its input
    checks = [lambda d: is_complete(d, AB.sigma()),
              lambda d: complete(d, AB.sigma()),
              lambda d: complement(d, AB.sigma()),
              minimize]
    for aut in not_dfas(A, B_):
        for check in checks:
            with pytest.raises(NotDeterministicError):
                check(aut)


def test_dfa_results_are_plain_automata():
    d = determinize(hand_nfa_sigma_star_b())
    for m in (d, complete(d, ABC.sigma()), complement(d, ABC.sigma()),
              minimize(d)):
        assert type(m) is Automaton


def test_determinize_blowup_grows_exponentially():
    # det of "anything . b . anything^k" needs ~2^k states: log arc count
    # is close to linear in k
    logs = []
    for k in range(2, 8):
        nfa = aut_concat([aut_sigma_star(AB.sigma()), aut_label(B_)]
                         + [fsm.aut_class(AB.sigma()) for _ in range(k)])
        d = determinize(nfa)
        logs.append(math.log(len(d.arcs)))
    diffs = [b - a for a, b in zip(logs, logs[1:])]
    assert all(0.4 < d < 1.0 for d in diffs), diffs


# ---------------------------------------------------------------------------
# is_complete / complete / complement
# ---------------------------------------------------------------------------

def test_det_sigma_star_beta_is_complete():
    rng = rng_for("prop1-completeness")
    for _ in range(30):
        beta = rand_regex(rng, ABC, depth=2)
        nfa = aut_concat([aut_sigma_star(ABC.sigma()),
                          compile_regex(beta, ABC)])
        assert is_complete(determinize(nfa), ABC.sigma())


def test_incomplete_single_state():
    d = Automaton(1, 0, {0: 0.0}, ())
    assert not is_complete(d, AB.sigma())


def test_complete_adds_one_sink():
    d = Automaton(2, 0, {1: 0.0}, [(0, A, 0.0, 1)])
    c = complete(d, AB.sigma())
    assert c.num_states == d.num_states + 1
    assert is_complete(c, AB.sigma())
    already = complete(c, AB.sigma())
    assert already.num_states == c.num_states


def test_complete_preserves_language():
    rng = rng_for("complete")
    for _ in range(20):
        aut = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        d = determinize(aut)
        c = complete(d, ABC.sigma())
        assert lang_set(d, 5) == lang_set(c, 5)


def test_complement_of_sigma_star_is_empty():
    d = determinize(aut_sigma_star(AB.sigma()))
    c = complement(d, AB.sigma())
    assert not lang_set(c, 4)


def test_complement_involution_and_membership():
    rng = rng_for("complement")
    sig = set(all_strings(ABC.sigma(), 5))
    for _ in range(20):
        aut = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        d = determinize(aut)
        comp = complement(d, ABC.sigma())
        lang = lang_set(d, 5)
        lang_c = lang_set(comp, 5)
        assert lang_c == sig - lang
        assert lang_set(complement(comp, ABC.sigma()), 5) == lang


def test_complement_drops_labels_outside_its_alphabet():
    # L(d) = {ε}; its arc on c reaches a state of its own, which goes too
    C_ = ABC.id_of("c")
    d = Automaton(2, 0, {0: 0.0}, [(0, C_, 0.0, 1)])
    comp = complement(d, AB.sigma())
    assert comp.num_states == 2 and is_complete(comp, AB.sigma())
    assert {a[1] for a in comp.arcs} == set(AB.sigma())
    assert lang_set(comp, 3) == set(all_strings(AB.sigma(), 3)) - {()}


def test_complement_over_a_sub_alphabet_is_its_star_minus_the_language():
    rng = rng_for("complement-sub")
    sub = AB.sigma()
    sig = set(all_strings(sub, 5))
    for _ in range(30):
        d = determinize(rand_automaton(rng, ABC.sigma(), p_eps=0.2))
        comp = complement(d, sub)
        assert is_complete(comp, sub)
        assert {a[1] for a in comp.arcs} <= set(sub)
        assert lang_set(comp, 5) == sig - lang_set(d, 5)


# ---------------------------------------------------------------------------
# intersect / subtract
# ---------------------------------------------------------------------------

def test_intersect_with_sigma_star_is_identity():
    rng = rng_for("intersect-id")
    star = aut_sigma_star(ABC.sigma())
    for _ in range(15):
        aut = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        assert lang_set(intersect(star, aut), 5) == lang_set(aut, 5)


def test_intersect_disjoint_singletons_empty():
    assert not lang_set(intersect(aut_label(A), aut_label(B_)), 3)


def test_intersect_subtract_membership():
    rng = rng_for("bool-membership")
    for _ in range(20):
        x = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        y = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        lx, ly = lang_set(x, 5), lang_set(y, 5)
        assert lang_set(intersect(x, y), 5) == lx & ly
        assert lang_set(subtract(x, y, ABC.sigma()), 5) == lx - ly


def test_subtract_self_and_empty():
    aut = compile_regex(parse_regex("a b* + b", ABC), ABC)
    assert not lang_set(subtract(aut, aut, ABC.sigma()), 5)
    out = subtract(aut, fsm.aut_empty(), ABC.sigma())
    assert lang_set(out, 5) == lang_set(aut, 5)


def test_de_morgan_union_of_parts():
    rng = rng_for("de-morgan")
    for _ in range(15):
        x = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        y = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        diff = subtract(x, y, ABC.sigma())
        inter = intersect(x, y)
        union = fsm.aut_union([diff, inter])
        assert lang_set(union, 5) == lang_set(x, 5)


def test_subtract_counts_component_operations():
    with count_ops() as c:
        subtract(aut_label(A), aut_label(B_), AB.sigma())
    assert c["subtract"] == 1
    assert c["intersect"] == 1 and c["complement"] == 1
    assert c["determinize"] == 1


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def test_minimize_merges_equivalent_finals():
    # two final states with identical continuations collapse
    aut = Automaton(3, 0, {1: 0.0, 2: 0.0},
                    [(0, A, 0.0, 1), (0, B_, 0.0, 2),
                     (1, A, 0.0, 1), (2, A, 0.0, 2)])
    m = minimize(aut)
    assert m.num_states == 2
    assert lang_set(m, 4) == lang_set(aut, 4)


def test_minimize_minimal_input_is_isomorphic():
    d = determinize(hand_nfa_sigma_star_b())
    m = minimize(d)
    assert m.num_states == 2
    m2 = minimize(m)
    assert m2.num_states == m.num_states and len(m2.arcs) == len(m.arcs)


def test_minimize_random_language_and_size():
    rng = rng_for("minimize")
    for _ in range(25):
        aut = rand_automaton(rng, ABC.sigma(), p_eps=0.25)
        d = determinize(aut)
        m = minimize(d)
        assert m.num_states <= d.num_states
        assert lang_set(m, 5) == lang_set(d, 5)


def test_minimize_output_is_trim():
    rng = rng_for("minimize-trim")
    for _ in range(25):
        m = minimize(determinize(rand_automaton(rng, ABC.sigma())))
        t = fsm.trim(m)
        assert (t.num_states, t.finals, t.arcs) == \
            (m.num_states, m.finals, m.arcs)


def test_minimize_invariant_under_state_relabeling():
    rng = rng_for("minimize-relabel")
    for _ in range(15):
        aut = rand_automaton(rng, ABC.sigma(), p_eps=0.2)
        d = determinize(aut)
        perm = list(range(d.num_states))
        rng.shuffle(perm)
        relabeled = Automaton(
            d.num_states, perm[d.initial],
            {perm[q]: w for q, w in d.finals.items()},
            [(perm[s], l, w, perm[t]) for s, l, w, t in d.arcs])
        m1 = minimize(d)
        m2 = minimize(relabeled)
        assert m1.num_states == m2.num_states
        assert len(m1.arcs) == len(m2.arcs)


# ---------------------------------------------------------------------------
# compact_transducer
# ---------------------------------------------------------------------------

def test_compact_shrinks_duplicated_identity():
    # two copies of the same identity branch merge
    t = fsm.Transducer(
        5, 0, {1: 0.0, 2: 0.0},
        [(0, A, A, 0.0, 1), (0, A, A, 0.0, 2),
         (1, B_, B_, 0.0, 3), (2, B_, B_, 0.0, 4)])
    c = compact_transducer(t)
    assert c.num_states < 5
    assert weights_close(enum_relation(t, 4), enum_relation(c, 4))


def test_compact_idempotent():
    rng = rng_for("compact")
    for _ in range(20):
        t = rand_transducer(rng, ABC.sigma(), max_states=4)
        c1 = compact_transducer(t)
        c2 = compact_transducer(c1)
        assert weights_close(enum_relation(t, 5), enum_relation(c1, 5))
        assert (c2.num_states, len(c2.arcs)) == (c1.num_states, len(c1.arcs))


def _rand_compaction_input(rng, kind):
    """rand_transducer unweighted (kind 0), weighted (1), or weighted with
    zero-weight eps:eps arcs added and, one time in three, a nonzero final
    weight (2)."""
    t = rand_transducer(rng, ABC.sigma(), max_states=5, weighted=kind > 0)
    if kind < 2:
        return t
    n = t.num_states
    arcs = list(t.arcs) + [
        (rng.randrange(n), fsm.EPS, fsm.EPS, 0.0, rng.randrange(n))
        for _ in range(rng.randint(1, 3))]
    finals = dict(t.finals)
    if rng.random() < 1 / 3:
        finals[rng.choice(list(finals))] = round(rng.uniform(0, 2), 3)
    return fsm.Transducer(n, t.initial, finals, arcs)


def test_compact_absorbs_zero_weight_epsilons_random():
    # zero-weight eps:eps arcs go to determinize as acceptor epsilons
    # unless an eps:eps arc or a final carries a weight; either way the
    # result is the compaction of the eps-removed machine, and no
    # zero-weight eps:eps arc survives
    rng = rng_for("compact-eps")
    for n in range(900):
        t = _rand_compaction_input(rng, n % 3)
        c = compact_transducer(t)
        assert weights_close(enum_relation(t, 4), enum_relation(c, 4))
        assert canonical(c) == canonical(
            compact_transducer(fsm.remove_epsilon(t)))
        assert not any(i == fsm.EPS and o == fsm.EPS and w == 0.0
                       for _, i, o, w, _ in c.arcs)


def test_compact_absorbs_zero_weight_super_final_arcs():
    # the weighted eps:eps arc 1 -> 0 forces eps-removal, which makes 1 a
    # final of weight 3.183; the zero-weight finals 0 and 3 then reach the
    # super-final state by zero-weight eps:eps arcs, which determinize
    # must absorb for the result to be this small
    t = fsm.Transducer(
        4, 1, {0: 0.0, 2: 0.0, 3: 0.0},
        [(3, 3, 2, 2.244, 0), (1, 0, 0, 3.183, 0), (1, 2, 2, 1.51, 3),
         (2, 0, 0, 0.0, 1), (1, 0, 0, 0.0, 1), (3, 0, 0, 0.0, 3)])
    c = compact_transducer(t)
    assert (c.num_states, len(c.arcs)) == (3, 3)
    assert weights_close(enum_relation(t, 4), enum_relation(c, 4))


def test_compact_preserves_nonzero_final_weights():
    t = fsm.Transducer(2, 0, {1: 1.5}, [(0, A, B_, 0.5, 1)])
    c = compact_transducer(t)
    assert weights_close(enum_relation(c, 2), {((A,), (B_,)): 2.0})


def test_compact_preserves_compiled_rule_relations():
    from rwc import compiler as C
    from rwc import oracle as O
    from rwc.rulespec import parse_rule_file

    rs = parse_rule_file("alphabet: a b c ;\n"
                         "a -> <0.5> b + c / c? _ a* ;\n"
                         "b c -> a / _ b ;\n")
    for rule in rs.rules:
        raw = C.compile_rule(rule, rs.alphabet, compact=False).transducer
        packed = compact_transducer(raw)
        assert packed.num_states <= raw.num_states
        rep = O.equivalent_on(raw, packed, rs.alphabet, 5)
        assert rep.equivalent, str(rep)


@st.composite
def transducer_and_shuffled_copy(draw):
    """A weighted transducer with ε on either tape or both, repeated
    (in, out, weight) triples and weighted finals, and the same machine
    with its arcs in another order. A zero weight may be -0.0."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    label = st.sampled_from((fsm.EPS,) + ABC.sigma())
    weight = st.sampled_from((0.0, -0.0, 0.5, 1.25))
    arcs = draw(st.lists(st.tuples(state, label, label, weight, state),
                         min_size=1, max_size=12))
    finals = draw(st.dictionaries(state, weight, min_size=1))
    initial = draw(state)
    return [fsm.Transducer(n, initial, finals, a)
            for a in (arcs, draw(st.permutations(arcs)))]


@settings(max_examples=300, deadline=None)
@given(transducer_and_shuffled_copy())
def test_compact_does_not_depend_on_arc_order(pair):
    t, shuffled = pair
    assert format_machine(compact_transducer(t), ABC) == \
        format_machine(compact_transducer(shuffled), ABC)


@st.composite
def encoded_dfa_transducer(draw):
    """A weighted transducer whose encoding is an accessible DFA: at each
    state distinct (in, out, weight) triples, none a zero-weight ε:ε, and
    each state q > 0 entered from a lower state. Then, as drawn: states
    nothing enters, a triple repeated at one state, and nonzero final
    weights. Returns the machine and whether its encoding is still a DFA."""
    n = draw(st.integers(1, 5))
    label = st.sampled_from((fsm.EPS,) + ABC.sigma())
    triple = st.tuples(label, label, st.sampled_from((0.0, 0.5, 1.25))) \
        .filter(lambda x: x[:2] != (fsm.EPS, fsm.EPS))
    out = [{} for _ in range(n)]
    for q in range(1, n):
        p = draw(st.integers(0, q - 1))
        out[p][draw(triple.filter(lambda x: x not in out[p]))] = q
    for _ in range(draw(st.integers(0, 8))):
        p = draw(st.integers(0, n - 1))
        out[p].setdefault(draw(triple), draw(st.integers(0, n - 1)))
    arcs = [(p, *x, q) for p, o in enumerate(out) for x, q in o.items()]
    inaccessible = draw(st.integers(0, 2))
    for q in range(n, n + inaccessible):
        arcs.extend((q, *draw(triple), draw(st.integers(0, q)))
                    for _ in range(draw(st.integers(0, 2))))
    n += inaccessible
    repeated = draw(st.booleans()) and bool(arcs)
    if repeated:
        s, i, o, w, _ = draw(st.sampled_from(arcs))
        arcs.append((s, i, o, w, draw(st.integers(0, n - 1))))
    final_weight = st.sampled_from((0.0, 0.75)) if draw(st.booleans()) \
        else st.just(0.0)
    finals = draw(st.dictionaries(st.integers(0, n - 1), final_weight,
                                  min_size=1))
    t = fsm.Transducer(n, 0, finals, draw(st.permutations(arcs)))
    # beside a weighted final, a zero-weight one enters the super-final
    # state by an acceptor epsilon
    mixed = any(finals.values()) and 0.0 in finals.values()
    return t, not (inaccessible or repeated or mixed)


@settings(max_examples=400, deadline=None)
@given(encoded_dfa_transducer())
def test_compact_skips_determinize_on_an_encoded_dfa(case):
    t, encoded_dfa = case
    with count_ops() as ops:
        c = compact_transducer(t)
    assert ops["determinize"] == (not encoded_dfa)
    assert format_machine(c, ABC) == \
        format_machine(reference_compact_transducer(t), ABC)


ABCDEF = Alphabet(["a", "b", "c", "d", "e", "f"])


@st.composite
def transducer_with_copied_identities(draw):
    """A weighted transducer over a and b, ε on either tape or both, whose
    identity arcs on one label are copied onto 1-3 of the fresh labels c
    to f, so that those labels form a block with it. Then near misses, as
    drawn: a copy with one arc of another weight, one arc fewer or one
    arc twice, a copy that also occurs on a non-identity arc, and a copy
    whose zero weights are -0.0."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    label = st.sampled_from((fsm.EPS,) + ABCDEF.ids_of(["a", "b"]))
    weight = st.sampled_from((0.0, 0.5, 1.25))
    arcs = draw(st.lists(st.tuples(state, label, label, weight, state),
                         min_size=1, max_size=10))
    src = draw(st.sampled_from(ABCDEF.ids_of(["a", "b"])))
    arcs += [(s, src, src, draw(weight), d) for s, d in
             draw(st.lists(st.tuples(state, state), min_size=1, max_size=3))]
    ident = [a for a in arcs if a[1] == a[2] == src]
    fresh = draw(st.lists(st.sampled_from(ABCDEF.ids_of(["c", "d", "e",
                                                         "f"])),
                          min_size=1, max_size=3, unique=True))
    for x in fresh:
        copies = [(s, x, x, w, d) for s, _, _, w, d in ident]
        miss = draw(st.sampled_from(("none", "weight", "fewer", "twice",
                                     "mixed", "signed")))
        k = draw(st.integers(0, len(copies) - 1))
        s, _, _, w, d = copies[k]
        if miss == "weight":
            copies[k] = (s, x, x, 2.0 if w else 0.5, d)
        elif miss == "fewer":
            del copies[k]
        elif miss == "twice":
            copies.append(copies[k])
        elif miss == "mixed":
            copies.append((s, x, draw(label), w, d))
        elif miss == "signed":
            copies = [(s, x, x, w or -0.0, d) for s, x, x, w, d in copies]
        arcs += copies
    finals = draw(st.dictionaries(state, st.sampled_from((0.0, 0.75)),
                                  min_size=1))
    return fsm.Transducer(n, draw(state), finals,
                          draw(st.permutations(arcs)))


@settings(max_examples=400, deadline=None)
@given(transducer_with_copied_identities())
def test_compact_over_label_blocks_equals_reference(t):
    # reading the copies as one block changes nothing in the machine
    assert format_machine(compact_transducer(t), ABCDEF) == \
        format_machine(reference_compact_transducer(t), ABCDEF)


def test_compact_block_member_with_a_repeated_arc_is_determinized():
    # b's arcs are a's with one of them twice: the full encoding is no
    # DFA, so b is no block mate of a, and the subset construction runs
    a, b = ABC.ids_of(["a", "b"])
    t = fsm.Transducer(2, 0, {1: 0.0}, [(0, a, a, 0.0, 1), (0, b, b, 0.0, 1),
                                        (0, b, b, 0.0, 1)])
    with count_ops() as ops:
        c = compact_transducer(t)
    assert ops["determinize"] == 1
    assert format_machine(c, ABC) == \
        format_machine(reference_compact_transducer(t), ABC)
