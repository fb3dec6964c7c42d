"""FST text format round trips and error handling."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwc import compiler as C
from rwc import oracle as O
from rwc import textio
from rwc.errors import FormatError
from rwc.fsm import Alphabet, Automaton, Transducer
from rwc.rulespec import parse_rule_file
from rwc.textio import format_machine, parse_machine

from .helpers import (enum_language, enum_relation, rand_automaton,
                      rand_transducer, reference_format_machine,
                      weights_close)

AB = Alphabet(["a", "b"])
A, B = AB.ids_of(["a", "b"])


def test_acceptor_round_trip():
    aut = Automaton(3, 0, {2: 0.5},
                    [(0, A, 1.25, 1), (1, B, 0.0, 2), (2, A, 2.0, 2)])
    text = format_machine(aut, AB)
    m, alpha = parse_machine(text)
    assert isinstance(m, Automaton)
    assert alpha == AB
    assert weights_close(enum_language(aut, 4), enum_language(m, 4), 1e-6)


def test_transducer_round_trip_exact_structure():
    t = Transducer(2, 0, {1: 0.0},
                   [(0, A, B, 0.5, 1), (1, AB.rb, 0, 0.0, 1)])
    text = format_machine(t, AB)
    m, alpha = parse_machine(text)
    assert m.num_states == 2 and m.initial == 0
    assert weights_close(enum_relation(t, 3), enum_relation(m, 3), 1e-6)


def test_header_and_symbol_table_shape():
    aut = Automaton(1, 0, {0: 0.0}, [(0, A, 0.0, 0)])
    lines = format_machine(aut, AB).splitlines()
    assert lines[0] == "WFST v1 unweighted acceptor"
    assert "sym 0 <eps>" in lines
    assert "sym 1 a" in lines and "sym 2 b" in lines
    assert "sym 3 <rb>" in lines and "sym 5 <lb2>" in lines


def test_reader_accepts_any_weight_precision():
    text = ("WFST v1 weighted acceptor\n"
            "sym 0 <eps>\nsym 1 a\nsym 2 <rb>\nsym 3 <lb1>\nsym 4 <lb2>\n"
            "init 0\nfinal 1 0.25000000001\narc 0 1 1 1e-3\n")
    m, alpha = parse_machine(text)
    assert m.num_states == 2  # no states line: 1 + the highest state
    assert m.finals[1] == 0.25000000001
    assert m.arcs[0][2] == 1e-3


def test_malformed_files_raise():
    with pytest.raises(FormatError):
        parse_machine("")
    with pytest.raises(FormatError):
        parse_machine("WFST v2 weighted acceptor\ninit 0\n")
    with pytest.raises(FormatError):
        parse_machine("WFST v1 weighted acceptor\nsym 0 <eps>\n")  # no init
    with pytest.raises(FormatError, match="bad kind 'graph'"):
        parse_machine("WFST v1 weighted graph\ninit 0\n")
    with pytest.raises(FormatError, match="malformed line 'states x'"):
        parse_machine("WFST v1 weighted acceptor\nstates x\ninit 0\n")
    with pytest.raises(FormatError):
        parse_machine("WFST v1 weighted acceptor\nsym 0 <eps>\nsym 1 a\n"
                      "sym 2 <rb>\nsym 3 <lb1>\nsym 4 <lb2>\n"
                      "init 0\narc 0 zero 1\n")
    # the symbol table must be Alphabet.name_of over ids 0..n+3
    for table, msg in [
        ("<eps> a _ b <rb> <lb1> <lb2>", "not contiguous"),    # gap in users
        ("<eps> <rb> a <lb1> <lb2>", "not contiguous"),        # rb at user id
        ("<eps> a <rb> <lb1>", "not contiguous"),              # no lb2
        ("<eps> a a <rb> <lb1> <lb2>", "duplicate symbol name 'a'"),
        ("<eps> > <rb> <lb1> <lb2>", "symbol name '>' is reserved"),
    ]:
        syms = "".join(f"sym {i} {name}\n"
                       for i, name in enumerate(table.split()) if name != "_")
        with pytest.raises(FormatError, match=msg):
            parse_machine(f"WFST v1 weighted acceptor\n{syms}init 0\n")
    # a line that sets one value may appear only once
    for line in ["states 2", "init 0", "final 1 0.5", "sym 1 a"]:
        with pytest.raises(FormatError, match=f"repeated .*'{line}'"):
            parse_machine(_ACCEPTOR_HEAD + "states 2\nfinal 1 5.0\n"
                          + line + "\n")


def test_weighted_header_over_zero_weights_reads_back_unweighted():
    m, _ = parse_machine(_ACCEPTOR_HEAD + "final 1 0.0\narc 0 1 1 0.0\n"
                         "arc 0 1 1 -0.0\n")
    assert not m.weighted
    assert format_machine(m, AB).startswith("WFST v1 unweighted acceptor\n")


def test_compiled_rule_round_trip_preserves_relation(tmp_path):
    rs = parse_rule_file("alphabet: a b c ;\n a -> <0.5> b / c _ ;\n")
    t = C.compile_ruleset(rs)
    path = tmp_path / "rule.fst"
    from rwc.textio import read_machine, write_machine
    write_machine(path, t, rs.alphabet)
    m, alpha = read_machine(path)
    rep = O.equivalent_on(t, m, rs.alphabet, 5, tol=1e-6)
    assert rep.equivalent, str(rep)


# Random machines, trailing states that no arc, final or initial mark
# mentions included, with arbitrary finite non-negative weights.
_weights = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _machines(draw):
    acceptor = draw(st.booleans())
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    label = st.integers(0, AB.num_labels - 1)
    arc = (st.tuples(state, label, _weights, state) if acceptor
           else st.tuples(state, label, label, _weights, state))
    arcs = draw(st.lists(arc, max_size=8))
    finals = draw(st.dictionaries(state, _weights, max_size=n))
    cls = Automaton if acceptor else Transducer
    return cls(n, draw(state), finals, arcs)


@given(_machines())
def test_format_parse_is_identity(m):
    assert m.weighted == (any(a[-2] for a in m.arcs)
                          or any(m.finals.values()))
    m2, alpha = parse_machine(format_machine(m, AB))
    assert alpha == AB
    assert type(m2) is type(m)
    assert (m2.num_states, m2.initial, m2.finals, m2.arcs, m2.weighted) \
        == (m.num_states, m.initial, m.finals, m.arcs, m.weighted)


_ACCEPTOR_HEAD = ("WFST v1 weighted acceptor\nsym 0 <eps>\nsym 1 a\n"
                  "sym 2 <rb>\nsym 3 <lb1>\nsym 4 <lb2>\ninit 0\n")


@pytest.mark.parametrize("line", ["final 1 nan", "final 1 inf",
                                  "final 1 -1", "arc 0 1 1 nan",
                                  "arc 0 1 1 inf"])
def test_parse_rejects_bad_weights(line):
    with pytest.raises(FormatError):
        parse_machine(_ACCEPTOR_HEAD + "final 1 0\narc 0 1 1 0\n" + line)


_TRANSDUCER_HEAD = _ACCEPTOR_HEAD.replace("acceptor", "transducer")


@pytest.mark.parametrize("label", [-7, 5])
@pytest.mark.parametrize("head, arc", [
    (_ACCEPTOR_HEAD, "arc 0 1 {} 0"),
    (_TRANSDUCER_HEAD, "arc 0 1 {} 1 0"),
    (_TRANSDUCER_HEAD, "arc 0 1 1 {} 0"),
], ids=["acceptor", "transducer-input", "transducer-output"])
def test_parse_refuses_labels_the_symbol_table_does_not_name(head, arc,
                                                             label):
    # one user symbol: the table names 0..4, as format_machine writes it
    with pytest.raises(FormatError, match=f"label {label} has no name"):
        parse_machine(head + "final 1 0\n" + arc.format(label) + "\n")
    m, alpha = parse_machine(head + "final 1 0\n" + arc.format(4) + "\n")
    assert parse_machine(format_machine(m, alpha))[0].arcs == m.arcs


def test_parse_rejects_extra_fields():
    # "sym 1 a b" used to read silently as the symbol "a"
    with pytest.raises(FormatError):
        parse_machine(_ACCEPTOR_HEAD.replace("sym 1 a", "sym 1 a b"))


def test_states_line_keeps_isolated_trailing_states():
    aut = Automaton(4, 0, {1: 0.0}, [(0, A, 0.0, 1)])
    text = format_machine(aut, AB)
    assert text.splitlines()[1] == "states 4"
    assert parse_machine(text)[0].num_states == 4


def test_parse_rejects_state_beyond_states_line():
    head = _ACCEPTOR_HEAD.replace("init 0\n", "states 2\ninit 0\n")
    assert parse_machine(head + "final 1 0\n")[0].num_states == 2
    # the machine constructor refuses the state; the reader says E_FORMAT
    for line, msg in [
        ("final 2 0", "final state out of range"),
        ("arc 0 2 1 0", r"bad endpoint or weight: \(0, 1, 0\.0, 2\)"),
        ("arc 2 0 1 0", r"bad endpoint or weight: \(2, 1, 0\.0, 0\)"),
    ]:
        with pytest.raises(FormatError, match=msg):
            parse_machine(head + line + "\n")
    with pytest.raises(FormatError, match="initial state out of range"):
        parse_machine(head.replace("states 2", "states 0"))


def test_state_count_is_bounded():
    head = _ACCEPTOR_HEAD.replace("init 0\n", "states {}\ninit 0\n")
    big = textio.MAX_STATES + 1
    assert parse_machine(head.format(textio.MAX_STATES))[0].num_states \
        == textio.MAX_STATES
    with pytest.raises(FormatError):
        parse_machine(head.format(big))
    # without a states line the count is inferred, and bounded alike
    with pytest.raises(FormatError):
        parse_machine(_ACCEPTOR_HEAD + f"arc 0 {big - 1} 1 0\n")
    # the writer refuses what the reader would, so every file round-trips
    with pytest.raises(FormatError):
        format_machine(Automaton(big, 0, {}, ()), AB)


# -0.0 is written as such; 5e-324 and 1e308 sit near the float range's ends
_WRITER_WEIGHTS = (0.0, -0.0, 5e-324, 1 / 3, 0.1, 1e308)


@given(st.integers(0, 2 ** 32), st.booleans(), st.booleans(), st.data())
def test_format_machine_equals_reference_writer(seed, acceptor, weighted,
                                                data):
    rng = random.Random(seed)
    labels = list(range(AB.num_labels))
    m = (rand_automaton(rng, labels) if acceptor
         else rand_transducer(rng, labels))
    weight = st.sampled_from(_WRITER_WEIGHTS if weighted else (0.0, -0.0))
    arcs = [a[:-2] + (data.draw(weight), a[-1]) for a in m.arcs]
    finals = {q: data.draw(weight) for q in m.finals}
    m = type(m)(m.num_states, m.initial, finals, arcs)
    assert format_machine(m, AB) == reference_format_machine(m, AB)


@pytest.mark.parametrize("m", [
    Automaton(2, 0, {1: 0.0}, [(0, A, 0.0, 1), (0, 6, 0.0, 1),
                               (1, 9, 0.0, 1)]),
    Transducer(2, 0, {1: 0.0}, [(0, A, B, 0.0, 1), (0, -1, 7, 0.0, 1)]),
    Transducer(2, 0, {1: 0.0}, [(0, A, B, 0.0, 1), (0, B, 6, 0.0, 1),
                                (1, 8, 0, 0.0, 1)]),
], ids=["acceptor", "transducer-input", "transducer-output"])
def test_format_machine_names_the_first_unnamed_label(m):
    with pytest.raises(FormatError) as want:
        reference_format_machine(m, AB)
    with pytest.raises(FormatError) as got:
        format_machine(m, AB)
    assert str(got.value) == str(want.value)
