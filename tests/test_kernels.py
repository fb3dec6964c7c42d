"""The construction kernels against their reference versions in helpers:
determinization over label classes, and the products on integer state
keys with one backward pass, must build the same machines, state for
state and arc for arc. Each kernel that takes a deadline must also stop
with E_TIMEOUT once it has expired."""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwc import fsm
from rwc import oracle as O
from rwc.boolean_ops import (compact_transducer, determinize, intersect,
                             minimize)
from rwc.errors import DeadlineExceeded
from rwc.fsm import EPS, Alphabet, Automaton, Deadline, Transducer

from .helpers import (machine_fields, reference_compose,
                      reference_determinize, reference_intersect,
                      reference_trim)

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


# each input is large enough to reach its kernel's deadline check: the
# products check every 256 states and determinize every 64 subsets;
# minimize checks every round, and _relation every input length. _compare
# checks every 4096 inputs, and only when the relations differ: here on
# the empty input alone, of the 8191 inputs over two symbols up to 12
KERNEL_CALLS = {
    "compose": lambda d: fsm.compose(_chain(300, 2), _chain(300, 2), d),
    "intersect": lambda d: intersect(_chain(300, 1), _chain(300, 1), d),
    "determinize": lambda d: determinize(_chain(100, 1), d),
    "minimize": lambda d: minimize(_chain(3, 1), d),
    "compact_transducer": lambda d: compact_transducer(_chain(3, 2), d),
    "_relation": lambda d: O._relation(_chain(3, 2), [1], 2, d),
    "_compare": lambda d: O._compare({(): {(): 0.0}}, {},
                                     Alphabet(["a", "b"]), 12, deadline=d),
}


@pytest.mark.parametrize("call", KERNEL_CALLS.values(), ids=KERNEL_CALLS)
def test_kernel_stops_at_an_expired_deadline(call):
    call(None)
    deadline = Deadline(0)
    time.sleep(0.01)
    with pytest.raises(DeadlineExceeded) as e:
        call(deadline)
    assert e.value.code == "E_TIMEOUT"
