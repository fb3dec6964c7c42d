"""Marker transducers built from a deterministic automaton for a prefix
language: TYPE 1 machines insert (or consume) a marker after every
matching prefix; TYPE 2 and TYPE 3 machines are filters that admit a
marker only after matching (resp. non-matching) prefixes and delete it.

The input is a plain ``Automaton`` that must be deterministic and
accessible; ``is_complete`` and ``complete`` check that and raise
E_NOT_DETERMINISTIC otherwise. TYPE 1 and TYPE 2 require it to be complete
over the working alphabet; a deterministic automaton for a language of the
form Σ*β always is, but callers must have expanded the Σ*-loop over the
full working alphabet. TYPE 3 is completed internally with a non-final
sink: the sink is a non-matching state, so admitting markers there is
exactly what the filter means.
"""

from dataclasses import dataclass, field
from enum import Enum

from .boolean_ops import complete, is_complete
from .errors import BadMarkerSpecError, NotCompleteError
from .fsm import EPS, Transducer


class MarkerKind(Enum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3


@dataclass(frozen=True)
class MarkerSpec:
    kind: MarkerKind
    insertions: frozenset = field(default_factory=frozenset)
    deletions: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        ins = frozenset(self.insertions)
        dels = frozenset(self.deletions)
        object.__setattr__(self, "insertions", ins)
        object.__setattr__(self, "deletions", dels)
        if self.kind is MarkerKind.TYPE1:
            if bool(ins) == bool(dels):
                raise BadMarkerSpecError(
                    "TYPE 1 takes insertions or deletions, not both/neither")
        else:
            if ins or len(dels) != 1:
                raise BadMarkerSpecError(
                    "TYPE 2/3 take exactly one deletion label and no "
                    "insertions")


def marker(alpha, spec, working_labels):
    """Build the marker transducer of the requested kind from `alpha`, a
    deterministic accessible automaton that must be complete over
    `working_labels` (TYPE 3 completes internally)."""
    # both checks raise E_NOT_DETERMINISTIC on a non-DFA
    aut = alpha
    if spec.kind is MarkerKind.TYPE3:
        aut = complete(alpha, working_labels)
    elif not is_complete(alpha, working_labels):
        raise NotCompleteError(
            "marker input must be complete over the working alphabet")
    n = aut.num_states
    finals_in = set(aut.finals)

    if spec.kind is MarkerKind.TYPE1:
        # Non-final states become final. Every final state q is split: q
        # keeps only marker arcs to a fresh copy q' that carries q's
        # original outgoing arcs and the finality.
        copy_of = {}
        nxt = n
        for q in sorted(finals_in):
            copy_of[q] = nxt
            nxt += 1
        arcs = []
        for s, l, _, t in aut.arcs:
            src = copy_of[s] if s in finals_in else s
            arcs.append((src, l, l, 0.0, t))
        for q, q2 in copy_of.items():
            for m in sorted(spec.insertions):
                arcs.append((q, EPS, m, 0.0, q2))
            for m in sorted(spec.deletions):
                arcs.append((q, m, EPS, 0.0, q2))
        finals = {q: 0.0 for q in range(n) if q not in finals_in}
        finals.update({q2: 0.0 for q2 in copy_of.values()})
        out = Transducer(nxt, aut.initial, finals, arcs)
    else:
        # TYPE 2 deletes the marker at the final states, TYPE 3 elsewhere
        mark, = spec.deletions
        at_finals = spec.kind is MarkerKind.TYPE2
        arcs = [(s, l, l, 0.0, t) for s, l, _, t in aut.arcs]
        arcs.extend((q, mark, EPS, 0.0, q) for q in range(n)
                    if (q in finals_in) == at_finals)
        out = Transducer(n, aut.initial, {q: 0.0 for q in range(n)}, arcs)

    _assert_size_bound(aut, spec, out)
    return out


def _assert_size_bound(alpha, spec, out):
    # Linear-size guarantee: at most one extra state per final state and one
    # extra arc per marker label per state.
    k = len(spec.insertions) + len(spec.deletions)
    assert out.num_states <= 2 * alpha.num_states
    assert len(out.arcs) <= len(alpha.arcs) + k * alpha.num_states
