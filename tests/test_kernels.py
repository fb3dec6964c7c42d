"""The construction kernels against their reference versions in helpers:
determinization over label classes, and the products on integer state
keys with one backward pass, must build the same machines, state for
state and arc for arc. Each loop that checks the deadline must also stop
with E_TIMEOUT once the innermost open ``Deadline`` has expired, and only
inside its block. The kernels build through ``_Machine._built``, which
checks no arc: the validating constructors must accept every machine
they build, and build the same ones."""

import pathlib
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwc import compiler, fsm, kk
from rwc import oracle as O
from rwc.bench import bench_alphabet, bench_rule
from rwc.boolean_ops import (compact_transducer, determinize, intersect,
                             minimize)
from rwc.errors import DeadlineExceeded
from rwc.fsm import EPS, Alphabet, Automaton, Deadline, Transducer
from rwc.rulespec import parse_rule_file
from rwc.textio import format_machine

from .helpers import (machine_fields, rand_ruleset_text, reference_compose,
                      reference_determinize, reference_intersect,
                      reference_trim, rng_for)

ROOT = pathlib.Path(__file__).parent.parent

LABELS = (EPS, 1, 2, 3, 4)


@st.composite
def nfas(draw):
    """Unweighted acceptors with epsilon arcs, duplicate arcs, labels
    whose rows are identical, states that are not accessible, and
    (with no finals) the empty language. Arcs come in random order."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(state, st.sampled_from(LABELS), state),
                         max_size=12))
    labels = sorted({l for _, l, _ in arcs} - {EPS})
    if labels:
        # copy one label's row to others, so classes have several labels
        row = draw(st.sampled_from(labels))
        for l in draw(st.lists(st.integers(1, 7), max_size=3)):
            arcs += [(s, l, d) for s, m, d in arcs if m == row]
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=3))
    if draw(st.booleans()):
        # a state nothing enters, with arcs into the rest
        arcs += [(n, l, d) for l, d in draw(st.lists(
            st.tuples(st.sampled_from(LABELS), state), max_size=3))]
        n += 1
    arcs = draw(st.permutations(arcs))
    finals = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return Automaton(n, draw(st.integers(0, n - 1)),
                     {q: 0.0 for q in finals},
                     [(s, l, 0.0, d) for s, l, d in arcs])


@st.composite
def transducers(draw):
    """Cyclic weighted transducers with epsilon on either tape or both,
    final weights, and possibly no finals at all."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    label = st.sampled_from(LABELS[:4])
    weight = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    arcs = draw(st.lists(st.tuples(state, label, label, weight, state),
                         max_size=10))
    loop = draw(st.tuples(state, label, label, weight))
    arcs.append(loop + (loop[0],))
    finals = draw(st.dictionaries(state, weight))
    return Transducer(n, draw(state), finals, arcs)


@settings(max_examples=400, deadline=None)
@given(nfas())
@example(Automaton(1, 0, {}, ()))
def test_determinize_matches_reference(a):
    assert machine_fields(determinize(a)) \
        == machine_fields(reference_determinize(a))


@settings(max_examples=300, deadline=None)
@given(nfas(), nfas())
def test_intersect_matches_reference(a, b):
    assert machine_fields(intersect(a, b)) \
        == machine_fields(reference_intersect(a, b))


@settings(max_examples=300, deadline=None)
@given(transducers(), transducers())
def test_compose_matches_reference(t1, t2):
    assert machine_fields(fsm.compose(t1, t2)) \
        == machine_fields(reference_compose(t1, t2))


@settings(max_examples=100, deadline=None)
@given(nfas(), nfas(), transducers(), transducers())
def test_products_with_only_dead_states_are_empty(a, b, t1, t2):
    # with no finals on one side, every product state is dead
    empty_b = Automaton(b.num_states, b.initial, {}, b.arcs)
    empty_t2 = Transducer(t2.num_states, t2.initial, {}, t2.arcs)
    for got, want, cls in (
            (intersect(a, empty_b), reference_intersect(a, empty_b),
             Automaton),
            (fsm.compose(t1, empty_t2), reference_compose(t1, empty_t2),
             Transducer)):
        assert machine_fields(got) == machine_fields(want) \
            == (cls, 1, 0, {}, False, ())


@settings(max_examples=300, deadline=None)
@given(st.one_of(nfas(), transducers()))
def test_trim_matches_reference(m):
    got, want = fsm.trim(m), reference_trim(m)
    assert machine_fields(got) == machine_fields(want)
    # a machine with nothing to drop comes back as it is
    assert (got is m) == (want is m)


def _chain(n, tapes):
    """The string of n - 1 labels 1 on n states, as an acceptor or as an
    identity transducer."""
    if tapes == 1:
        return Automaton(n, 0, {n - 1: 0.0},
                         [(q, 1, 0.0, q + 1) for q in range(n - 1)])
    return Transducer(n, 0, {n - 1: 0.0},
                      [(q, 1, 1, 0.0, q + 1) for q in range(n - 1)])


def _expired():
    """A Deadline that has passed."""
    deadline = Deadline(0)
    time.sleep(0.01)
    return deadline


_RULES = parse_rule_file("alphabet: a b c ;\n a -> b / c _ ;")
_ORACLE = O.RewriteOracle(_RULES.rules[0], _RULES.alphabet)

# each input is large enough to reach its kernel's deadline check: the
# products check every 256 states and determinize every 64 subsets;
# minimize checks every round, and _relation and RewriteOracle.relation
# every input length. _compare checks every 4096 inputs, and only when the
# relations differ: here on the empty input alone, of the 8191 inputs over
# two symbols up to 12
KERNEL_CALLS = {
    "compose": lambda: fsm.compose(_chain(300, 2), _chain(300, 2)),
    "intersect": lambda: intersect(_chain(300, 1), _chain(300, 1)),
    "determinize": lambda: determinize(_chain(100, 1)),
    "minimize": lambda: minimize(_chain(3, 1)),
    "compact_transducer": lambda: compact_transducer(_chain(3, 2)),
    "_relation": lambda: O._relation(_chain(3, 2), [1], 2),
    "_compare": lambda: O._compare({(): {(): 0.0}}, {},
                                   Alphabet(["a", "b"]), 12),
    "RewriteOracle.relation": lambda: _ORACLE.relation((1, 2, 3), 3),
}


@pytest.mark.parametrize("call", KERNEL_CALLS.values(), ids=KERNEL_CALLS)
def test_kernel_stops_at_an_expired_deadline(call):
    call()
    with _expired():
        with pytest.raises(DeadlineExceeded) as e:
            call()
    assert e.value.code == "E_TIMEOUT"
    # the scope is closed: nothing times out after it
    call()


def test_inner_deadline_replaces_the_outer_one_for_its_block():
    call = KERNEL_CALLS["minimize"]
    with _expired():
        with Deadline(60_000):
            call()
        with pytest.raises(DeadlineExceeded):
            call()
    with Deadline(60_000):
        with _expired():
            with pytest.raises(DeadlineExceeded):
                call()
        call()


def test_exception_leaving_a_scope_restores_the_outer_deadline():
    call = KERNEL_CALLS["minimize"]
    with Deadline(60_000):
        with pytest.raises(DeadlineExceeded):
            with _expired():
                call()
        call()
    with pytest.raises(ValueError):
        with _expired():
            raise ValueError("not a timeout")
    call()


def _compiled_texts():
    """The FST text of both demos, phonology194 and 20 random rule files,
    each compiled with both algorithms, compacted and not, and of the
    growth rules at 194 labels, direct for k = 0-10 and KK for k <= 4,
    compacted and not."""
    rng = rng_for("built-shortcut")
    texts = [(ROOT / path).read_text() for path in (
        "demos/nasal.rules", "demos/chain.rules",
        "tests/golden/phonology194.rules")]
    texts += [rand_ruleset_text(rng) for _ in range(20)]
    out = []
    for text in texts:
        ruleset = parse_rule_file(text)
        for algorithm in (compiler, kk):
            for compact in (True, False):
                m = compiler.compile_ruleset(
                    ruleset, compact=compact,
                    compile_one=algorithm.rule_transducer)
                out.append(format_machine(m, ruleset.alphabet))
    alphabet = bench_alphabet(194)
    for family in ("left", "right"):
        for k in range(11):
            rule = bench_rule(family, k)
            machines = [compiler.compile_rule(rule, alphabet,
                                              compact=False).transducer]
            if k <= 4:
                machines.append(kk.kk_compile_rule(rule, alphabet).transducer)
            for t in machines:
                out += [format_machine(t, alphabet),
                        format_machine(compact_transducer(t), alphabet)]
    return out


def test_kernels_build_machines_the_validating_constructors_accept(
        monkeypatch):
    # `_built` is only a shortcut: routed through the public constructors,
    # which check every arc, the same compiles raise nothing and write the
    # same text
    want = _compiled_texts()
    built = []

    def validating(cls, num_states, initial, finals, arcs):
        built.append(cls)
        return cls(num_states, initial, finals, arcs)

    monkeypatch.setattr(fsm._Machine, "_built", classmethod(validating))
    assert _compiled_texts() == want
    assert built
