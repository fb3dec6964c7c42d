"""Core machinery: tropical weights, regex compilation vs a naive matcher,
and the elementary machine operations against path-enumeration oracles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwc import fsm
from rwc.errors import EmptyLanguageError, FormatError, WeightOverflowError
from rwc.fsm import (EPS, INF, Alphabet, Automaton, Transducer, aut_class,
                     aut_concat, aut_label, aut_sigma_star, aut_star,
                     compose, cross_product, id_transducer, remove_epsilon,
                     reverse, trim)
from rwc.rulespec import compile_regex, parse_regex
from rwc.textio import parse_machine

from .helpers import (all_strings, aut_string, enum_language,
                      enum_relation, naive_match, rand_automaton,
                      rand_transducer, rng_for, weights_close)

ABC = Alphabet(["a", "b", "c"])
A, B, C = ABC.ids_of(["a", "b", "c"])

finite_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
weights = st.one_of(finite_weights, st.just(INF))


# ---------------------------------------------------------------------------
# Tropical semiring laws
# ---------------------------------------------------------------------------

@given(weights, weights, weights)
def test_semiring_min_assoc_comm(x, y, z):
    assert min(min(x, y), z) == min(x, min(y, z))
    assert min(x, y) == min(y, x)


@given(finite_weights, finite_weights, finite_weights)
def test_semiring_plus_assoc_comm(x, y, z):
    assert math.isclose(x + (y + z), (x + y) + z, abs_tol=1e-9)
    assert x + y == y + x


@given(finite_weights, finite_weights, finite_weights)
def test_semiring_distributivity(x, y, z):
    assert math.isclose(x + min(y, z), min(x + y, x + z), abs_tol=1e-9)


@given(weights)
def test_semiring_identities(x):
    assert x + 0.0 == x
    assert min(x, INF) == x
    assert x + INF == INF  # infinity absorbs addition


# ---------------------------------------------------------------------------
# Alphabet
# ---------------------------------------------------------------------------

def test_alphabet_ids_and_markers():
    assert ABC.ids_of(["a", "b", "c"]) == (1, 2, 3)
    assert (ABC.rb, ABC.lb1, ABC.lb2) == (4, 5, 6)
    assert ABC.name_of(ABC.rb) == "<rb>"
    assert ABC.name_of(EPS) == "<eps>"


def test_alphabet_rejects_bad_names():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["a", "<rb>"])
    with pytest.raises(ValueError):
        Alphabet(["0"])


def test_alphabet_rejects_whitespace_in_names():
    # such a name would be written to an FST file that reads back as a
    # different alphabet
    for name in ("a b", "a\tb", " a", "a\n"):
        with pytest.raises(ValueError):
            Alphabet([name, "c"])


def test_unweighted_machines_reject_weights():
    # the reader refuses an unweighted header over a nonzero arc or final
    # weight
    head = ("WFST v1 unweighted acceptor\nsym 0 <eps>\nsym 1 a\n"
            "sym 2 <rb>\nsym 3 <lb1>\nsym 4 <lb2>\ninit 0\n")
    for lines in ("final 1 0.0\narc 0 1 1 1.0\n",
                  "final 1 1.0\narc 0 1 1 0.0\n"):
        with pytest.raises(FormatError, match="unweighted machine carries"):
            parse_machine(head + lines)


def _one_arc_machine(cls, arc_w=0.0, final_w=0.0):
    arc = (0, A, arc_w, 1) if cls is Automaton else (0, A, B, arc_w, 1)
    return cls(2, 0, {1: final_w}, [arc])


@pytest.mark.parametrize("cls", [Automaton, Transducer])
@pytest.mark.parametrize("w", [math.nan, INF])
def test_machines_reject_non_finite_arc_weights(cls, w):
    with pytest.raises(ValueError):
        _one_arc_machine(cls, arc_w=w)


@pytest.mark.parametrize("cls", [Automaton, Transducer])
@pytest.mark.parametrize("w", [math.nan, INF, -1.0])
def test_machines_reject_bad_final_weights(cls, w):
    with pytest.raises(ValueError):
        _one_arc_machine(cls, final_w=w)


@pytest.mark.parametrize("cls", [Automaton, Transducer])
@pytest.mark.parametrize("where", ["arc_w", "final_w"])
def test_machines_refuse_infinite_weights_as_overflow(cls, where):
    with pytest.raises(WeightOverflowError):
        _one_arc_machine(cls, **{where: INF})
    for w in (math.nan, -1.0):
        with pytest.raises(ValueError) as e:
            _one_arc_machine(cls, **{where: w})
        assert not isinstance(e.value, WeightOverflowError)


# ---------------------------------------------------------------------------
# Regex compilation vs the naive matcher
# ---------------------------------------------------------------------------

def test_regex_example_accepts_trailing_c():
    aut = compile_regex(parse_regex("(a + b)* c", ABC), ABC)
    lang = set(enum_language(aut, 3))
    assert (C,) in lang and (A, B, C) in lang
    assert () not in lang and (A, B) not in lang


def test_regex_random_asts_agree_with_naive_matcher():
    from .helpers import rand_regex

    rng = rng_for("regex-vs-naive")
    for _ in range(60):
        ast = rand_regex(rng, ABC, depth=rng.randint(0, 4))
        aut = compile_regex(ast, ABC)
        lang = set(enum_language(aut, 5))
        for s in all_strings(ABC.sigma(), 5):
            names = tuple(ABC.name_of(i) for i in s)
            assert (s in lang) == naive_match(ast, names), (ast, names)


# ---------------------------------------------------------------------------
# id_transducer / cross_product
# ---------------------------------------------------------------------------

def test_id_transducer_is_identity_on_language():
    aut = compile_regex(parse_regex("a b", ABC), ABC)
    rel = enum_relation(id_transducer(aut), 3)
    assert rel == {((A, B), (A, B)): 0.0}


def test_id_transducer_preserves_weights():
    aut = Automaton(2, 0, {1: 0.5}, [(0, A, 1.5, 1)])
    rel = enum_relation(id_transducer(aut), 2)
    assert rel == {((A,), (A,)): 2.0}


def test_cross_product_singletons():
    cp = cross_product(aut_label(A), aut_label(B))
    assert enum_relation(cp, 2) == {((A,), (B,)): 0.0}


def test_cross_product_pads_shorter_side():
    cp = cross_product(aut_label(A), aut_concat([aut_label(B), aut_label(C)]))
    assert enum_relation(cp, 3) == {((A,), (B, C)): 0.0}


def test_cross_product_weighted_alternatives():
    wa, wb = -math.log(0.9), -math.log(0.1)
    psi = fsm.aut_union([fsm.aut_weighted(wa, aut_label(B)),
                         fsm.aut_weighted(wb, aut_label(C))])
    cp = cross_product(aut_label(A), psi)
    rel = enum_relation(cp, 2)
    assert weights_close(rel, {((A,), (B,)): wa, ((A,), (C,)): wb})


def test_cross_product_rejects_empty_sides():
    with pytest.raises(EmptyLanguageError):
        cross_product(fsm.aut_empty(), aut_label(B))
    with pytest.raises(EmptyLanguageError):
        cross_product(aut_label(A), fsm.aut_empty())


def test_cross_product_rejects_weighted_phi():
    with pytest.raises(ValueError):
        cross_product(fsm.aut_weighted(1.0, aut_label(A)), aut_label(B))


# ---------------------------------------------------------------------------
# reverse
# ---------------------------------------------------------------------------

def test_reverse_reverses_strings():
    aut = aut_string([A, B, C])
    assert set(enum_language(reverse(aut), 3)) == {(C, B, A)}


def test_reverse_is_involution_on_language():
    rng = rng_for("reverse-involution")
    for _ in range(25):
        aut = rand_automaton(rng, ABC.sigma())
        lang1 = enum_language(aut, 4)
        lang2 = enum_language(reverse(reverse(aut)), 4)
        assert lang1 == lang2


def test_reverse_transducer_reverses_both_tapes():
    t = Transducer(3, 0, {2: 0.0},
                   [(0, A, B, 0.0, 1), (1, B, C, 0.0, 2)])
    assert enum_relation(reverse(t), 3) == {((B, A), (C, B)): 0.0}


# ---------------------------------------------------------------------------
# remove_epsilon / trim
# ---------------------------------------------------------------------------

def test_remove_epsilon_simple_weighted_path():
    aut = Automaton(3, 0, {2: 0.0},
                    [(0, EPS, 2.0, 1), (1, A, 3.0, 2)])
    out = remove_epsilon(aut)
    assert all(l != EPS for _, l, _, _ in out.arcs)
    assert enum_language(out, 2) == {(A,): 5.0}


def test_remove_epsilon_between_finals():
    aut = Automaton(2, 0, {0: 0.0, 1: 0.0}, [(0, EPS, 0.0, 1)])
    out = remove_epsilon(aut)
    assert all(l != EPS for _, l, _, _ in out.arcs)
    assert set(enum_language(out, 1)) == {()}


def test_remove_epsilon_random_language_preserved():
    rng = rng_for("eps-removal")
    for i in range(30):
        aut = rand_automaton(rng, ABC.sigma(), weighted=bool(i % 2),
                             p_eps=0.35)
        lang1 = enum_language(aut, 5)
        lang2 = enum_language(remove_epsilon(aut), 5)
        assert weights_close(lang1, lang2)
    # transducers: only arcs that are epsilon on both tapes go
    rng = rng_for("eps-removal-transducer")
    for _ in range(30):
        t = rand_transducer(rng, ABC.sigma(), p_eps=0.4)
        finals = {q: round(rng.uniform(0, 2), 3) for q in t.finals}
        t = Transducer(t.num_states, t.initial, finals, t.arcs)
        out = remove_epsilon(t)
        assert not any(i == EPS and o == EPS for _, i, o, _, _ in out.arcs)
        assert weights_close(enum_relation(t, 4), enum_relation(out, 4))


def test_trim_drops_unreachable_state():
    aut = Automaton(3, 0, {1: 0.0}, [(0, A, 0.0, 1), (2, B, 0.0, 1)])
    out = trim(aut)
    assert out.num_states == 2


def test_trim_empty_relation_collapses():
    aut = Automaton(3, 0, {}, [(0, A, 0.0, 1)])
    out = trim(aut)
    assert out.num_states == 1 and not out.finals and not out.arcs


def test_trim_preserves_relation():
    rng = rng_for("trim")
    for _ in range(30):
        t = rand_transducer(rng, ABC.sigma())
        assert weights_close(enum_relation(t, 5), enum_relation(trim(t), 5))


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_single_path_adds_weights():
    t1 = Transducer(2, 0, {1: 0.0}, [(0, A, B, 1.0, 1)])
    t2 = Transducer(2, 0, {1: 0.0}, [(0, B, C, 2.0, 1)])
    assert weights_close(enum_relation(compose(t1, t2), 2),
                         {((A,), (C,)): 3.0})


@pytest.mark.parametrize("arc_w, final_w", [(1e308, 0.0), (0.0, 1e308)])
def test_compose_weight_overflow_is_a_coded_error(arc_w, final_w):
    # each side is finite; their sum on an arc or a final state is not
    t1 = Transducer(2, 0, {1: final_w}, [(0, A, B, arc_w, 1)])
    t2 = Transducer(2, 0, {1: final_w}, [(0, B, C, arc_w, 1)])
    with pytest.raises(WeightOverflowError):
        compose(t1, t2)
    # below the float range the sum stands
    half = Transducer(2, 0, {1: final_w / 2}, [(0, B, C, arc_w / 2, 1)])
    assert weights_close(enum_relation(compose(t1, half), 2),
                         {((A,), (C,)): 1.5e308})


def test_compose_overflow_into_a_dead_state_is_no_error():
    # t1's state 2 reaches no final, so the product drops the arc whose
    # weights add up to 2e308 before any machine holds it
    t1 = Transducer(3, 0, {1: 0.0},
                    [(0, A, B, 0.0, 1), (0, A, B, 1e308, 2)])
    t2 = Transducer(2, 0, {1: 0.0}, [(0, B, C, 1e308, 1)])
    assert weights_close(enum_relation(compose(t1, t2), 2),
                         {((A,), (C,)): 1e308})


def test_epsilon_closure_weight_overflow_is_a_coded_error():
    # two epsilon arcs of 1e308 in a row
    aut = Automaton(3, 0, {2: 0.0}, [(0, EPS, 1e308, 1), (1, EPS, 1e308, 2)])
    with pytest.raises(WeightOverflowError):
        remove_epsilon(aut)


def test_compose_with_identity_is_identity():
    rng = rng_for("compose-id")
    ident = id_transducer(remove_epsilon(aut_sigma_star(ABC.sigma())))
    for _ in range(15):
        t = rand_transducer(rng, ABC.sigma())
        lhs = enum_relation(compose(t, ident), 4)
        assert weights_close(lhs, enum_relation(t, 4))


def test_compose_matches_brute_force_pair_enumeration():
    # epsilon-free machines keep the middle tape no longer than the input,
    # so bounded path-pair enumeration is exact
    rng = rng_for("compose-brute")
    for _ in range(30):
        t1 = rand_transducer(rng, ABC.sigma(), max_states=3, p_eps=0.0)
        t2 = rand_transducer(rng, ABC.sigma(), max_states=3, p_eps=0.0)
        got = enum_relation(compose(t1, t2), 4, 4)
        r1 = enum_relation(t1, 4, 4)
        r2 = enum_relation(t2, 4, 4)
        want = {}
        for (i1, o1), w1 in r1.items():
            for (i2, o2), w2 in r2.items():
                if o1 == i2:
                    key = (i1, o2)
                    w = w1 + w2
                    if w < want.get(key, INF):
                        want[key] = w
        assert weights_close(got, want)


def test_compose_coordinates_inner_epsilons():
    # t1 deletes its second symbol; t2 inserts a c. Every interleaving of
    # the one-sided moves must be available exactly once in weight terms.
    t1 = Transducer(3, 0, {2: 0.0},
                    [(0, A, B, 1.0, 1), (1, A, EPS, 2.0, 2)])
    t2 = Transducer(3, 0, {2: 0.0},
                    [(0, B, B, 4.0, 1), (1, EPS, C, 8.0, 2)])
    got = enum_relation(compose(t1, t2), 3, 3)
    assert weights_close(got, {((A, A), (B, C)): 15.0})


def test_compose_associative_as_relation():
    rng = rng_for("compose-assoc")
    for _ in range(12):
        t1 = rand_transducer(rng, ABC.sigma(), max_states=3, p_eps=0.15)
        t2 = rand_transducer(rng, ABC.sigma(), max_states=3, p_eps=0.15)
        t3 = rand_transducer(rng, ABC.sigma(), max_states=3, p_eps=0.15)
        lhs = enum_relation(compose(compose(t1, t2), t3), 3, 3)
        rhs = enum_relation(compose(t1, compose(t2, t3)), 3, 3)
        assert weights_close(lhs, rhs)
