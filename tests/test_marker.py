"""Marker transducers: insertion after matching prefixes (TYPE 1), filters
for markers after matching (TYPE 2) and non-matching (TYPE 3) prefixes."""

import pytest

from rwc import fsm
from rwc.boolean_ops import determinize
from rwc.errors import BadMarkerSpecError, NotCompleteError, \
    NotDeterministicError
from rwc.fsm import Alphabet, Automaton, aut_concat, aut_sigma_star
from rwc.marker import MarkerKind, MarkerSpec, marker
from rwc.rulespec import compile_regex, parse_regex

from .helpers import (all_strings, enum_relation, lang_set, not_dfas,
                      rand_regex, rng_for)

AB = Alphabet(["a", "b"])
A, B = AB.ids_of(["a", "b"])
HASH = AB.rb  # any marker label works; use RB as "#"


def prefix_dfa(beta, alphabet=AB):
    if isinstance(beta, str):
        beta = parse_regex(beta, alphabet)
    nfa = compile_regex(beta, alphabet)
    return determinize(aut_concat([aut_sigma_star(alphabet.sigma()), nfa]))


def t1(beta_text, insertions=(HASH,), deletions=()):
    return marker(prefix_dfa(beta_text),
                  MarkerSpec(MarkerKind.TYPE1, frozenset(insertions),
                             frozenset(deletions)), AB.sigma())


def outputs_for(t, ids, max_out=16):
    rel = enum_relation(t, len(ids), max_out)
    return {o for (i, o) in rel if i == tuple(ids)}


def test_type1_inserts_after_every_matching_prefix():
    tau = t1("b")
    assert outputs_for(tau, (A, B, B, A)) == {(A, B, HASH, B, HASH, A)}


def test_type1_epsilon_beta_marks_everywhere():
    tau = t1("0")
    assert outputs_for(tau, (A, B)) == {(HASH, A, HASH, B, HASH)}


def test_type1_multiple_alternative_markers():
    tau = marker(prefix_dfa("b"),
                 MarkerSpec(MarkerKind.TYPE1,
                            frozenset({AB.lb1, AB.lb2})), AB.sigma())
    outs = outputs_for(tau, (B, B))
    # two insertion points, two choices each
    assert len(outs) == 4
    assert (AB.lb1, B, AB.lb2, B) not in outs  # markers go after the match
    assert (B, AB.lb1, B, AB.lb2) in outs


def test_type1_deletion_variant_consumes_required_marker():
    tau = marker(prefix_dfa("b"),
                 MarkerSpec(MarkerKind.TYPE1, deletions=frozenset({HASH})),
                 AB.sigma())
    assert outputs_for(tau, (A, B, HASH)) == {(A, B)}
    # the marker is mandatory after b-ending prefixes
    assert outputs_for(tau, (A, B)) == set()


def test_type2_filters_marker_placement():
    tau = marker(prefix_dfa("b"),
                 MarkerSpec(MarkerKind.TYPE2, deletions=frozenset({HASH})),
                 AB.sigma())
    assert outputs_for(tau, (A, B, HASH)) == {(A, B)}
    assert outputs_for(tau, (A, HASH, B)) == set()
    assert outputs_for(tau, (A, B)) == {(A, B)}


def test_type3_filters_complement_placement():
    tau = marker(prefix_dfa("b"),
                 MarkerSpec(MarkerKind.TYPE3, deletions=frozenset({HASH})),
                 AB.sigma())
    assert outputs_for(tau, (A, HASH, B)) == {(A, B)}
    assert outputs_for(tau, (A, B, HASH)) == set()


def test_marker_requires_completeness_for_types_1_and_2():
    incomplete = fsm.Automaton(2, 0, {1: 0.0}, [(0, B, 0.0, 1)])
    for kind, spec in [
            (MarkerKind.TYPE1, MarkerSpec(MarkerKind.TYPE1,
                                          frozenset({HASH}))),
            (MarkerKind.TYPE2, MarkerSpec(MarkerKind.TYPE2,
                                          deletions=frozenset({HASH})))]:
        with pytest.raises(NotCompleteError):
            marker(incomplete, spec, AB.sigma())


def test_marker_type3_completes_internally():
    incomplete = fsm.Automaton(2, 0, {1: 0.0}, [(0, B, 0.0, 1)])
    tau = marker(incomplete,
                 MarkerSpec(MarkerKind.TYPE3, deletions=frozenset({HASH})),
                 AB.sigma())
    # "a" reaches the internal sink, a non-matching state: marker allowed
    assert outputs_for(tau, (A, HASH)) == {(A,)}


def test_marker_rejects_nondeterministic_input():
    nfa = fsm.Automaton(2, 0, {1: 0.0},
                        [(0, B, 0.0, 0), (0, B, 0.0, 1), (0, A, 0.0, 0),
                         (1, A, 0.0, 1), (1, B, 0.0, 1)])
    specs = [MarkerSpec(MarkerKind.TYPE1, frozenset({HASH})),
             MarkerSpec(MarkerKind.TYPE2, deletions=frozenset({HASH})),
             MarkerSpec(MarkerKind.TYPE3, deletions=frozenset({HASH}))]
    for aut in [nfa] + not_dfas(A, B):
        for spec in specs:
            with pytest.raises(NotDeterministicError):
                marker(aut, spec, AB.sigma())


def test_marker_spec_validation():
    with pytest.raises(BadMarkerSpecError):
        MarkerSpec(MarkerKind.TYPE1)
    with pytest.raises(BadMarkerSpecError):
        MarkerSpec(MarkerKind.TYPE1, frozenset({HASH}), frozenset({HASH}))
    with pytest.raises(BadMarkerSpecError):
        MarkerSpec(MarkerKind.TYPE2, deletions=frozenset({AB.lb1, AB.lb2}))


def test_marker_spec_is_an_immutable_value():
    spec = MarkerSpec(MarkerKind.TYPE2, deletions={AB.lb1})
    assert spec.deletions == frozenset({AB.lb1}) and spec.insertions == set()
    assert spec == MarkerSpec(kind=MarkerKind.TYPE2,
                              deletions=frozenset({AB.lb1}))
    assert spec != MarkerSpec(MarkerKind.TYPE3, deletions={AB.lb1})
    with pytest.raises(AttributeError):
        spec.deletions = frozenset({AB.lb2})
    with pytest.raises(BadMarkerSpecError) as e:
        MarkerSpec(MarkerKind.TYPE3, insertions={AB.lb1}, deletions={AB.lb2})
    assert e.value.code == "E_BAD_SPEC"


def test_size_bounds_on_random_betas():
    rng = rng_for("marker-size")
    for i in range(30):
        beta = rand_regex(rng, AB, depth=2)
        dfa = prefix_dfa(beta)
        spec = [MarkerSpec(MarkerKind.TYPE1, frozenset({HASH})),
                MarkerSpec(MarkerKind.TYPE1, frozenset({AB.lb1, AB.lb2})),
                MarkerSpec(MarkerKind.TYPE2, deletions=frozenset({HASH})),
                MarkerSpec(MarkerKind.TYPE3, deletions=frozenset({HASH}))
                ][i % 4]
        tau = marker(dfa, spec, AB.sigma())
        k = len(spec.insertions) + len(spec.deletions)
        assert tau.num_states <= 2 * dfa.num_states
        assert len(tau.arcs) <= len(dfa.arcs) + k * dfa.num_states


def test_type1_correctness_against_prefix_definition():
    rng = rng_for("marker-oracle")
    for _ in range(12):
        beta = rand_regex(rng, AB, depth=2)
        dfa = prefix_dfa(beta)
        tau = marker(dfa, MarkerSpec(MarkerKind.TYPE1, frozenset({HASH})),
                     AB.sigma())
        lang = lang_set(dfa, 5)
        for ids in all_strings(AB.sigma(), 5):
            outs = outputs_for(tau, ids, max_out=12)
            # the unique output interleaves a marker after every prefix
            # accepted by the dfa
            expected = []
            for i in range(len(ids) + 1):
                if ids[:i] in lang:
                    expected.append(HASH)
                if i < len(ids):
                    expected.append(ids[i])
            assert outs == {tuple(expected)}, (beta, ids)


def test_type2_after_type1_is_identity_roundtrip():
    rng = rng_for("marker-roundtrip")
    for _ in range(10):
        beta = rand_regex(rng, AB, depth=2)
        dfa = prefix_dfa(beta)
        ins = marker(dfa, MarkerSpec(MarkerKind.TYPE1, frozenset({HASH})),
                     AB.sigma())
        filt = marker(dfa, MarkerSpec(MarkerKind.TYPE2,
                                      deletions=frozenset({HASH})),
                      AB.sigma())
        combined = fsm.compose(ins, filt)
        rel = enum_relation(combined, 4, 4)
        for (i, o), w in rel.items():
            assert i == o and w == 0.0
        ids_seen = {i for (i, o) in rel}
        assert ids_seen == set(all_strings(AB.sigma(), 4))


def test_type2_and_type3_partition_single_marker_strings():
    rng = rng_for("marker-partition")
    for _ in range(10):
        beta = rand_regex(rng, AB, depth=2)
        dfa = prefix_dfa(beta)
        f2 = marker(dfa, MarkerSpec(MarkerKind.TYPE2,
                                    deletions=frozenset({HASH})), AB.sigma())
        f3 = marker(dfa, MarkerSpec(MarkerKind.TYPE3,
                                    deletions=frozenset({HASH})), AB.sigma())
        for ids in all_strings(AB.sigma(), 3):
            for cut in range(len(ids) + 1):
                marked = ids[:cut] + (HASH,) + ids[cut:]
                in2 = bool(outputs_for(f2, marked))
                in3 = bool(outputs_for(f3, marked))
                assert in2 != in3, (beta, marked)
