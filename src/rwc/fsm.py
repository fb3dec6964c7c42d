"""Core finite-state machinery: alphabets, acceptors, weighted transducers,
and the elementary constructions everything else builds on (regex-style
combinators, identity, cross product, reversal, epsilon removal,
trimming, weighted composition).

Acceptors and transducers share one base class and one arc index by
state and label (``in_index``); reversal, epsilon removal and trimming
take either kind. ``Automaton(...)`` and ``Transducer(...)``, and so the
FST reader, validate every arc. A kernel derives its arcs from validated
machines and builds through ``_Machine._built``, which checks only the
finals: reversal, epsilon removal, trimming, composition, identity,
determinization, complementation, intersection, minimization,
compaction, the markers, the λ filter and rule-set expansion.
Composition checks the sums on the arcs it keeps, epsilon removal those
on its arcs and finals. ``_eps_closures`` is the one epsilon-closure
routine, and determinization reuses it; it runs ``_distances``, the one
shortest-distance routine, which the oracle's n-best search runs too.
``_reachable`` is the one reachability pass: ``trim`` runs it forward
and backward, and composition and intersection, whose states are all
accessible by construction, run only the backward pass (through
``_product``).

Weights live in the tropical semiring (min, +) over finite non-negative
64-bit floats; ``math.inf`` plays the role of the absorbing "no path"
value and never appears on an arc or a final state: it is refused as a
sum past the float range (E_WEIGHT_OVERFLOW). Machines are immutable
once constructed, their per-state arc indexes tuples: an operation
returns a new machine, or its input when there is nothing to change, so
machines can be shared freely between threads.

Labels are plain ints. 0 is epsilon; an :class:`Alphabet` assigns
1..n to the user symbols and the next three ids to the rewrite markers
RB (">"), LB1 ("<1"), LB2 ("<2"). Modules that need further private
labels (four of the KK baseline's) allocate ids above ``num_labels``.
"""

import math
import time
from collections import deque
from contextvars import ContextVar
from heapq import heapify, heappush, heappop
from itertools import groupby
from operator import itemgetter

from .errors import (DeadlineExceeded, EmptyLanguageError,
                     UnknownSymbolError, WeightedInputError,
                     WeightOverflowError)

EPS = 0
INF = math.inf

RESERVED_NAMES = ("<eps>", "<rb>", "<lb1>", "<lb2>")
# Names users may not declare: serialized reserved names, the markers'
# display forms, and "0" (the epsilon atom in rule files).
_FORBIDDEN_USER_NAMES = set(RESERVED_NAMES) | {">", "<1", "<2", "0"}
# the open Deadlines as a chain (innermost, (outer, ...)); None outside all
_open = ContextVar("rwc_deadline", default=None)


class Value:
    """An immutable value: its class's ``__slots__`` are its fields, set by
    position or keyword; equal and hashed by class and field values."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        rest = names[len(args):]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(self).__qualname__}() takes the fields "
                            f"{', '.join(names) or 'none'}")
        for name, v in zip(names, args + tuple(map(kwargs.get, rest))):
            object.__setattr__(self, name, v)

    def _fields(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return (self._fields() == other._fields()
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}"
                           for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__


class Deadline:
    """Wall-clock limit of `ms` milliseconds from construction, in force
    in a ``with Deadline(ms):`` block, whose long loops call
    ``check_timeout``; no kernel takes a deadline argument. A nested
    block's Deadline replaces the outer one until it exits, even by raising."""

    __slots__ = ("ms", "limit")

    def __init__(self, ms):
        self.ms = ms
        self.limit = time.monotonic() + ms / 1000.0

    def __enter__(self):
        _open.set((self, _open.get()))

    def __exit__(self, *exc):
        _open.set(_open.get()[1])


def check_timeout():
    """Raise E_TIMEOUT once the innermost open Deadline has passed."""
    scope = _open.get()
    if scope is not None and time.monotonic() > scope[0].limit:
        raise DeadlineExceeded(f"the {scope[0].ms} ms deadline has passed")


class Alphabet:
    """Symbol table mapping user symbol names to contiguous label ids.

    Ids: 0 = epsilon, 1..n = user symbols in declaration order, then
    rb = n+1, lb1 = n+2, lb2 = n+3; `num_labels` = n+4. The layout and
    the table of names by id are built once, on construction.
    """

    __slots__ = ("symbols", "n", "rb", "lb1", "lb2", "num_labels",
                 "_ids", "_names", "_chars")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet needs at least one symbol")
        seen = set()
        for name in symbols:
            if name.split() != [name]:
                raise ValueError(f"symbol name {name!r} is empty or "
                                 "contains whitespace")
            if name in _FORBIDDEN_USER_NAMES:
                raise ValueError(f"symbol name {name!r} is reserved")
            if name in seen:
                raise ValueError(f"duplicate symbol name {name!r}")
            seen.add(name)
        self.symbols = symbols
        self.n = n = len(symbols)
        self.rb, self.lb1, self.lb2 = n + 1, n + 2, n + 3
        self.num_labels = n + 4
        self._ids = {name: i + 1 for i, name in enumerate(symbols)}
        self._names = RESERVED_NAMES[:1] + symbols + RESERVED_NAMES[1:]
        # text is read and written per character when every name is one
        self._chars = all(len(s) == 1 for s in symbols)

    def sigma(self):
        """User symbol ids, in declaration order."""
        return tuple(range(1, self.n + 1))

    def markers(self):
        return (self.rb, self.lb1, self.lb2)

    def id_of(self, name):
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownSymbolError(f"undeclared symbol {name!r}") from None

    def name_of(self, label):
        if 0 <= label < self.num_labels:
            return self._names[label]
        return f"<lab{label}>"

    def ids_of(self, names):
        return tuple(map(self.id_of, names))

    def string_to_ids(self, text):
        """Tokenize an input string: per character when every symbol name is
        a single character, else on whitespace."""
        if self._chars:
            toks = text.replace(" ", "")
        else:
            toks = text.split()
        return tuple(map(self.id_of, toks))

    def names_to_string(self, names):
        if self._chars:
            return "".join(names)
        return " ".join(names)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"


_weight = itemgetter(-2)
_src = itemgetter(0)
_ends = itemgetter(0, -1)
_dst = itemgetter(-1)


def _bad_weight(w, message):
    """An infinite weight is a sum past the float range; else ValueError."""
    if w == INF:
        raise WeightOverflowError(f"weight {w!r} is past the float range")
    raise ValueError(message)


class _Machine:
    """State-numbered machine: `num_states` states 0..n-1, an initial
    state, finals mapping state -> final weight, and a tuple of arcs whose
    first element is the source state, last the destination and
    second-to-last the weight. Weights are finite and non-negative.
    `weighted` is derived, never declared: it is True exactly when some
    arc or final weight is nonzero (-0.0 counts as zero). The public
    constructors check every arc and final; the kernels' `_built` checks
    only the finals (see the module docstring)."""

    __slots__ = ("num_states", "initial", "finals", "arcs", "weighted", "_out",
                 "_in_idx")

    def __init__(self, num_states, initial, finals, arcs):
        if not (0 <= initial < num_states):
            raise ValueError("initial state out of range")
        arcs = tuple(arcs)
        self._check_arcs(arcs, num_states)
        self._fill(num_states, initial, finals, arcs)

    @classmethod
    def _built(cls, num_states, initial, finals, arcs):
        """The machine of these fields, for a kernel that derived its arcs
        from validated machines. Only the final states and weights are
        checked, so a kernel that adds weights on arcs checks those sums
        itself (E_WEIGHT_OVERFLOW)."""
        m = object.__new__(cls)
        m._fill(num_states, initial, finals, tuple(arcs))
        return m

    def _fill(self, num_states, initial, finals, arcs):
        finals = dict(finals)
        for q, w in finals.items():
            if not (0 <= q < num_states):
                raise ValueError("final state out of range")
            if not 0.0 <= w < INF:
                _bad_weight(w, f"final weight {w!r} is not finite and "
                               "non-negative")
        self.num_states = num_states
        self.initial = initial
        self.finals = finals
        self.arcs = arcs
        self.weighted = any(map(_weight, arcs)) or any(finals.values())
        self._out = None
        self._in_idx = None

    def out_arcs(self, state):
        """Outgoing arcs of `state`, a tuple in arc order; built for every
        state on first use."""
        out = self._out
        if out is None:
            out = self._out = [()] * self.num_states
            # a run of arcs from one source joins that source's tuple
            for s, run in groupby(self.arcs, _src):
                out[s] += tuple(run)
        return out[state]

    def in_index(self, state):
        """Outgoing arcs of `state` grouped by their (input) label a[1], as
        label -> (arc, ...) in arc order; one index for both machine
        kinds, built per state on first use."""
        if self._in_idx is None:
            self._in_idx = [None] * self.num_states
        d = self._in_idx[state]
        if d is None:
            d = self._in_idx[state] = {}
            for a in self.out_arcs(state):
                e = d.get(a[1])
                d[a[1]] = (a,) if e is None else e + (a,)
        return d

    def __repr__(self):
        return (f"{type(self).__name__}(states={self.num_states}, "
                f"arcs={len(self.arcs)}, finals={len(self.finals)}, "
                f"weighted={self.weighted})")


class Automaton(_Machine):
    """Finite-state acceptor. Arcs are (src, label, weight, dst) tuples;
    finals maps state -> final weight (0.0 by default)."""

    __slots__ = ()
    tapes = 1

    @staticmethod
    def _check_arcs(arcs, num_states):
        # unpacking, not indexing: the builders and the FST reader run
        # this loop over every arc
        for s, l, w, d in arcs:
            if not (0 <= s < num_states and 0 <= d < num_states
                    and 0.0 <= w < INF):
                _bad_weight(w, f"bad endpoint or weight: {(s, l, w, d)}")


class Transducer(_Machine):
    """Weighted finite-state transducer. Arcs are
    (src, ilabel, olabel, weight, dst) tuples."""

    __slots__ = ()
    tapes = 2

    @staticmethod
    def _check_arcs(arcs, num_states):
        for s, i, o, w, d in arcs:
            if not (0 <= s < num_states and 0 <= d < num_states
                    and 0.0 <= w < INF):
                _bad_weight(w, f"bad endpoint or weight: {(s, i, o, w, d)}")

    def labels_used(self):
        labs = set()
        for _, i, o, _, _ in self.arcs:
            labs.add(i)
            labs.add(o)
        return labs


class WeightedStringSet:
    """Finite map from output string (tuple of symbol names) to its least
    weight. It holds the map it is given: its builders, `apply` and
    `oracle_rewrite`, give one finite least weight per string."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        self.entries = dict(entries)

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kw: (kw[1], kw[0]))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.items())

    def __repr__(self):
        return f"WeightedStringSet({self.entries!r})"


# ---------------------------------------------------------------------------
# NFA combinators (Thompson-style; results may contain epsilon arcs)
# ---------------------------------------------------------------------------

def aut_empty():
    """Acceptor of the empty language."""
    return Automaton(1, 0, {}, ())


def aut_epsilon():
    return Automaton(1, 0, {0: 0.0}, ())


def aut_label(label):
    return Automaton(2, 0, {1: 0.0}, ((0, label, 0.0, 1),))


def aut_class(labels):
    labels = sorted(set(labels))
    if not labels:
        return aut_empty()
    return Automaton(2, 0, {1: 0.0}, tuple((0, l, 0.0, 1) for l in labels))


def _shift(aut, offset):
    return [(s + offset, l, w, d + offset) for s, l, w, d in aut.arcs]


def aut_union(parts):
    parts = list(parts)
    if not parts:
        return aut_empty()
    arcs = []
    finals = {}
    off = 1
    for p in parts:
        arcs.append((0, EPS, 0.0, p.initial + off))
        arcs.extend(_shift(p, off))
        for q, w in p.finals.items():
            finals[q + off] = w
        off += p.num_states
    return Automaton(off, 0, finals, arcs)


def aut_concat(parts):
    parts = list(parts)
    if not parts:
        return aut_epsilon()
    arcs = []
    off = 0
    initial = parts[0].initial
    prev_finals = None
    for p in parts:
        arcs.extend(_shift(p, off))
        if prev_finals is not None:
            for q, w in prev_finals:
                arcs.append((q, EPS, w, p.initial + off))
        prev_finals = [(q + off, w) for q, w in p.finals.items()]
        off += p.num_states
    return Automaton(off, initial, dict(prev_finals), arcs)


def aut_star(a):
    arcs = [(0, EPS, 0.0, a.initial + 1)]
    arcs.extend(_shift(a, 1))
    arcs.extend((q + 1, EPS, w, 0) for q, w in a.finals.items())
    return Automaton(a.num_states + 1, 0, {0: 0.0}, arcs)


def aut_plus(a):
    return aut_concat([a, aut_star(a)])


def aut_opt(a):
    return aut_union([aut_epsilon(), a])


def aut_sigma_star(labels):
    return aut_star(aut_class(labels))


def aut_weighted(w, a):
    """Prefix a series term with weight w (an entry arc carrying w)."""
    arcs = [(0, EPS, float(w), a.initial + 1)]
    arcs.extend(_shift(a, 1))
    finals = {q + 1: fw for q, fw in a.finals.items()}
    return Automaton(a.num_states + 1, 0, finals, arcs)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def id_transducer(a):
    """Identity relation restricted to L(a); weights preserved."""
    arcs = tuple((s, l, l, w, d) for s, l, w, d in a.arcs)
    return Transducer._built(a.num_states, a.initial, a.finals, arcs)


def cross_product(phi, psi, pad_out=EPS):
    """Relation L(phi) x L(psi) with the weight of each pair taken from the
    psi path. The shorter side of a pair is suffix-padded: phi symbols pair
    with epsilon outputs (or `pad_out`) once psi is exhausted, and psi
    symbols ride epsilon inputs once phi is exhausted.
    """
    if phi.weighted:
        raise WeightedInputError("cross_product: phi must be unweighted")
    phi = trim(remove_epsilon(phi))
    psi = trim(remove_epsilon(psi))
    if not phi.finals:
        raise EmptyLanguageError("phi denotes the empty language")
    if not psi.finals:
        raise EmptyLanguageError("psi denotes the empty language")
    state_ids = {}
    queue = deque()

    def sid(pq):
        if pq not in state_ids:
            state_ids[pq] = len(state_ids)
            queue.append(pq)
        return state_ids[pq]

    start = (phi.initial, psi.initial)
    sid(start)
    arcs = []
    finals = {}
    while queue:
        p, q = pq = queue.popleft()
        cur = state_ids[pq]
        p_final = p in phi.finals
        q_final = q in psi.finals
        if p_final and q_final:
            finals[cur] = psi.finals[q]
        for _, a, _, p2 in phi.out_arcs(p):
            for _, b, w, q2 in psi.out_arcs(q):
                arcs.append((cur, a, b, w, sid((p2, q2))))
            if q_final:
                arcs.append((cur, a, pad_out, 0.0, sid((p2, q))))
        if p_final:
            for _, b, w, q2 in psi.out_arcs(q):
                arcs.append((cur, EPS, b, w, sid((p, q2))))
    return Transducer(len(state_ids), 0, finals, arcs)


def reverse(m):
    """Reverse the language/relation by arc reversal. A fresh super-initial
    state with epsilon arcs to the old finals encodes multiple starts; old
    final weights ride those arcs."""
    init = m.num_states  # super-initial
    eps = (EPS,) * m.tapes
    arcs = [(a[-1], *a[1:-1], a[0]) for a in m.arcs]
    arcs.extend((init, *eps, w, q) for q, w in m.finals.items())
    return type(m)._built(init + 1, init, {m.initial: 0.0}, arcs)


def _distances(start, succ):
    """{node: least weight} over the nodes reached from `start`, a map of
    start node to its weight, along succ[q], the (weight, r) steps from q.
    Min-plus Dijkstra (weights >= 0). A sum past the float range raises
    E_WEIGHT_OVERFLOW: read as INF, it would drop a node silently."""
    dist = dict(start)
    heap = [(v, q) for q, v in dist.items()]
    heapify(heap)
    while heap:
        d, q = heappop(heap)
        if d > dist[q]:
            continue
        for w, r in succ[q]:
            nd = d + w
            if nd < dist.get(r, INF):
                dist[r] = nd
                heappush(heap, (nd, r))
            elif nd == INF:
                raise WeightOverflowError("a path weight is past the "
                                          "float range")
    return dist


def _eps_closures(num_states, eps_from):
    """Min-plus epsilon closure of every state, by `_distances`; a state
    with no epsilon arc is its own closure, with no search."""
    return [_distances({s: 0.0}, eps_from) if eps_from[s] else {s: 0.0}
            for s in range(num_states)]


def remove_epsilon(m):
    """Equivalent acceptor or transducer with no epsilon arcs, i.e. no
    arcs whose every label is epsilon (a transducer keeps its one-sided
    epsilon arcs). Weights combine by + along epsilon paths and by min
    across alternatives. A sum past the float range, on an arc or a
    final state, raises E_WEIGHT_OVERFLOW."""
    # a[1] and a[-3] are the one label of an acceptor arc, and the two
    # labels of a transducer arc
    if not any(a[1] == EPS and a[-3] == EPS for a in m.arcs):
        return m
    # a super-final node n, reached from each final state q along its final
    # weight: a state's closure distance to n is its final weight
    n = m.num_states
    eps_from = [[] for _ in range(n + 1)]
    real_from = [[] for _ in range(n + 1)]
    for q, w in m.finals.items():
        eps_from[q].append((w, n))
    for a in m.arcs:
        if a[1] == EPS and a[-3] == EPS:
            eps_from[a[0]].append((a[-2], a[-1]))
        else:
            real_from[a[0]].append((a[1:-2], a[-2], a[-1]))
    closures = _eps_closures(n, eps_from)
    arcs = []
    for s in range(n):
        for t, dcost in closures[s].items():
            for labels, w, d in real_from[t]:
                arcs.append((s, *labels, dcost + w, d))
    if INF in map(_weight, arcs):
        raise WeightOverflowError("an arc weight is past the float range")
    finals = {s: c[n] for s, c in enumerate(closures) if n in c}
    return type(m)._built(n, m.initial, finals, arcs)


def _reachable(starts, adj):
    """Marks (a bytearray) of the states reachable from `starts` along
    adj[q], each state's neighbours: over successors the accessible
    states, over predecessors (from the finals) the co-accessible ones."""
    marks = bytearray(len(adj))
    stack = list(starts)
    for q in stack:
        marks[q] = 1
    while stack:
        for r in adj[stack.pop()]:
            if not marks[r]:
                marks[r] = 1
                stack.append(r)
    return marks


def _restrict(cls, n, initial, finals, arcs, live):
    """The machine of class `cls` on the states q with live[q], renumbered
    in order; the 1-state empty machine when none is live. The initial
    state must be live whenever any state is."""
    keep = [q for q in range(n) if live[q]]
    if len(keep) == n:
        return cls._built(n, initial, finals, arcs)
    if not keep:
        return cls._built(1, 0, {}, ())
    remap = {q: i for i, q in enumerate(keep)}
    # unpacking, not slicing: this runs over every arc of a product
    if cls.tapes == 1:
        arcs = [(remap[s], l, w, remap[d]) for s, l, w, d in arcs
                if s in remap and d in remap]
    else:
        arcs = [(remap[s], i, o, w, remap[d]) for s, i, o, w, d in arcs
                if s in remap and d in remap]
    finals = {remap[q]: w for q, w in finals.items() if q in remap}
    return cls._built(len(keep), remap[initial], finals, arcs)


def _product(cls, finals, arcs, ends):
    """The trimmed result of a product (``compose``, and
    ``boolean_ops.intersect``). Its states are numbered from initial state
    0 in discovery order, so all are accessible, and state q's arcs are
    ``arcs[ends[q - 1]:ends[q]]`` (from 0 for q = 0). Only the states that
    reach no final are dropped, by one backward pass; the untrimmed
    machine is never built."""
    into = [[] for _ in ends]
    lo = 0
    for q, hi in enumerate(ends):
        # the distinct targets: the parallel arcs of a Σ*-loop are one
        for d in set(map(_dst, arcs[lo:hi])):
            into[d].append(q)
        lo = hi
    return _restrict(cls, len(ends), 0, finals, arcs,
                     _reachable(finals, into))


def trim(m):
    """Keep only states that are both accessible and co-accessible. An
    empty-relation machine trims to a single non-final initial state;
    a machine with nothing to drop is returned as it is."""
    n = m.num_states
    fwd = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    # the distinct (source, target) pairs: the parallel arcs of a Σ*-loop
    # are one
    for s, d in set(map(_ends, m.arcs)):
        fwd[s].append(d)
        into[d].append(s)
    reach = _reachable((m.initial,), fwd)
    coreach = _reachable([q for q in m.finals if reach[q]], into)
    # a kept state reaches a final, so the initial state, which reaches
    # every kept state, is kept whenever any is
    live = [r and c for r, c in zip(reach, coreach)]
    if all(live):
        return m
    return _restrict(type(m), n, m.initial, m.finals, m.arcs, live)


def ignore_labels(a, labels, allow_leading=True):
    """The language of `a` with the given labels freely interleaved: a
    zero-weight loop on each at every state of trim(remove_epsilon(a)).
    With allow_leading=False the first symbol of every match is real: a
    fresh start state, which no loop or arc enters, copies the initial
    state's arcs and final weight, so absorbed junk can never precede the
    match.
    """
    a = trim(remove_epsilon(a))
    n, start = a.num_states, a.initial
    arcs, finals = list(a.arcs), dict(a.finals)
    if not allow_leading:
        start = n
        arcs.extend((n, l, w, d) for s, l, w, d in a.arcs if s == a.initial)
        if a.initial in finals:
            finals[n] = finals[a.initial]
    labels = sorted(set(labels))
    for q in range(n):
        arcs.extend((q, l, 0.0, q) for l in labels)
    return Automaton(n + (not allow_leading), start, finals, arcs)


def compose(t1, t2):
    """Weighted relational composition. Weights of matched paths add; the
    inner tape's epsilons are coordinated by a three-state filter so every
    interleaving of one-sided moves has a canonical representative and path
    duplication stays bounded.

    Filter states: 0 = free, 1 = only t1 may keep moving on its output
    epsilon, 2 = only t2 may keep moving on its input epsilon. A matched
    real symbol resets to 0; a paired epsilon move is allowed only from 0.
    States are numbered in BFS discovery order and the result is trim.
    Raises E_WEIGHT_OVERFLOW when the weights of a kept arc or final
    state add up past the float range; an arc into a dropped state raises
    nothing.
    """
    # a state (q1, q2, filter) is keyed by (q1 * n2 + q2) * 3 + filter, and
    # numbered by its position in `keys`, the FIFO of discovered states;
    # ends[q] is the number of arcs built once state q is done
    n2 = t2.num_states
    f1 = t1.finals
    f2 = t2.finals
    start = (t1.initial * n2 + t2.initial) * 3
    ids = {start: 0}
    keys = [start]
    arcs = []
    ends = []
    finals = {}
    head = 0
    while head < len(keys):
        q, flt = divmod(keys[head], 3)
        q1, q2 = divmod(q, n2)
        cur = head
        head += 1
        if head % 256 == 0:
            check_timeout()
        if q1 in f1 and q2 in f2:
            finals[cur] = f1[q1] + f2[q2]
        idx2 = t2.in_index(q2)
        eps2 = idx2.get(EPS, ())
        for _, a, b, w1, p1 in t1.out_arcs(q1):
            if b != EPS:
                for _, _, c, w2, p2 in idx2.get(b, ()):
                    k = (p1 * n2 + p2) * 3
                    nid = ids.get(k)
                    if nid is None:
                        nid = ids[k] = len(keys)
                        keys.append(k)
                    arcs.append((cur, a, c, w1 + w2, nid))
            else:
                if flt != 2:
                    k = (p1 * n2 + q2) * 3 + 1
                    nid = ids.get(k)
                    if nid is None:
                        nid = ids[k] = len(keys)
                        keys.append(k)
                    arcs.append((cur, a, EPS, w1, nid))
                if flt == 0:
                    for _, _, c, w2, p2 in eps2:
                        k = (p1 * n2 + p2) * 3
                        nid = ids.get(k)
                        if nid is None:
                            nid = ids[k] = len(keys)
                            keys.append(k)
                        arcs.append((cur, a, c, w1 + w2, nid))
        if flt != 1:
            for _, _, c, w2, p2 in eps2:
                k = (q1 * n2 + p2) * 3 + 2
                nid = ids.get(k)
                if nid is None:
                    nid = ids[k] = len(keys)
                    keys.append(k)
                arcs.append((cur, EPS, c, w2, nid))
        ends.append(len(arcs))
    m = _product(Transducer, finals, arcs, ends)
    # only two nonzero weights can add up past the float range
    if t1.weighted and t2.weighted and INF in map(_weight, m.arcs):
        raise WeightOverflowError("an arc weight is past the float range")
    return m
