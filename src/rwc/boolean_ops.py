"""Classical unweighted automata algorithms: subset-construction
determinization, completion, complementation, intersection, subtraction,
DFA minimization, and label-encoded transducer compaction.

Epsilon closures come from the core machinery: determinization takes its
subsets from ``fsm._eps_closures``. Intersection reads ``in_index``, the
arc index composition reads, and trims its product with ``fsm._product``;
minimization and complementation drop states with ``fsm._reachable``,
and ``_dfa_out`` finds inaccessible ones with it.
Compaction hands a zero-weight arc that is epsilon on both tapes to
determinization as an acceptor epsilon, and runs ``fsm.remove_epsilon``
first only when such an arc or a final state carries a weight. It skips
determinization when ``_dfa_out`` accepts the encoding as it is, as a
rule set's composed product usually is. It encodes every label it is
given: which symbols a rule cannot tell apart is the compiler's decision.

The working alphabet for completion and complementation is always an
explicit parameter (a sequence of label ids), never inferred from the
machine's arcs: the marker constructions operate over extended alphabets
and the right answer depends on which one. A complement holds only
strings over its alphabet: arcs on other labels are dropped.

A DFA is a plain ``Automaton``: unweighted, epsilon-free, at most one arc
per (state, label) and every state accessible. ``determinize``,
``complete``, ``complement`` and ``minimize`` return such machines, and
the functions that need the property (``is_complete``, ``complete``,
``complement`` and ``minimize``) check it on their input with
``_dfa_out``.
"""

from collections import Counter, deque
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import repeat
from operator import itemgetter

from . import fsm
from .errors import NotDeterministicError, WeightedInputError
from .fsm import EPS, Automaton, Transducer

_label_weight = itemgetter(1, 2, 3)

# calls of determinize, complement, intersect and subtract, by name; the
# default tally, open for the whole process, is never read
_tally = ContextVar("rwc_op_tally", default=Counter())


@contextmanager
def count_ops():
    """Yield a fresh tally (a Counter) of the kernel calls made in the
    block. On exit, also by an exception, the enclosing tally is restored
    and gets these counts added."""
    ops = Counter()
    token = _tally.set(ops)
    try:
        yield ops
    finally:
        _tally.reset(token)
        _tally.get().update(ops)


def _dfa_out(aut):
    """Each state's arcs as a dict {label: target}, for an accessible
    deterministic acceptor. Raises E_NOT_DETERMINISTIC on a weighted
    machine, an epsilon arc, two arcs with one label from one state, or an
    inaccessible state."""
    if aut.weighted:
        raise NotDeterministicError("weighted machines are not DFAs here")
    out = [{} for _ in range(aut.num_states)]
    for s, l, _, d in aut.arcs:
        if l == EPS:
            raise NotDeterministicError("epsilon arc in DFA")
        o = out[s]
        if l in o:
            raise NotDeterministicError(
                f"two arcs with label {l} leave state {s}")
        o[l] = d
    if 0 in fsm._reachable((aut.initial,), [o.values() for o in out]):
        raise NotDeterministicError("DFA has inaccessible states")
    return out


def determinize(a):
    """Subset construction. Language preserved, result deterministic and
    accessible; no minimization.

    Id order: the subsets are numbered in BFS discovery order, and each
    subset's arcs are emitted in ascending label order, a new target
    subset taking the next id at the least label that reaches it. So the
    numbering depends only on the input machine, never on set iteration
    order.

    The work is done per label class, not per label: labels with the same
    set of (source, target) pairs send every subset to the same target
    subset, so each subset computes one target per class. The classes are
    visited in order of their least label, which assigns the ids above;
    only the emitted arcs are per label. A Σ*-loop state over many labels
    costs a few classes, not one set per label."""
    if a.weighted:
        raise WeightedInputError("determinize expects an unweighted acceptor")
    _tally.get()["determinize"] += 1
    finals_in = set(a.finals)
    eps_from = [[] for _ in range(a.num_states)]
    pairs = {}
    for s, l, w, d in a.arcs:
        if l == EPS:
            eps_from[s].append((w, d))
        else:
            pairs.setdefault(l, set()).add((s, d))
    closures = [frozenset(c) for c in fsm._eps_closures(a.num_states,
                                                        eps_from)]
    # class ids follow the least label of each class
    class_of = {}
    labels_of = []
    for l in sorted(pairs):
        key = frozenset(pairs[l])
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(labels_of)
            labels_of.append([])
        labels_of[c].append(l)
    # each state's classes, with the union of its targets' closures
    class_from = [[] for _ in range(a.num_states)]
    for key, c in class_of.items():
        dsts = {}
        for s, d in key:
            dsts.setdefault(s, []).append(closures[d])
        for s, cl in dsts.items():
            class_from[s].append((c, frozenset().union(*cl)))
    # per tuple of classes leaving a subset: its labels in ascending order,
    # and the position in the tuple of each label's class
    merged = {}

    start = closures[a.initial]
    ids = {start: 0}
    order = [start]
    arcs = []
    finals = {}
    head = 0
    while head < len(order):
        cur = order[head]
        cur_id = head
        head += 1
        if head % 64 == 0:
            fsm.check_timeout()
        if not finals_in.isdisjoint(cur):
            finals[cur_id] = 0.0
        parts = {}
        for q in cur:
            for c, u in class_from[q]:
                p = parts.get(c)
                if p is None:
                    parts[c] = [u]
                else:
                    p.append(u)
        if not parts:
            continue
        classes = tuple(sorted(parts))
        tids = []
        for c in classes:
            p = parts[c]
            tfro = p[0] if len(p) == 1 else frozenset().union(*p)
            nid = ids.get(tfro)
            if nid is None:
                nid = len(order)
                ids[tfro] = nid
                order.append(tfro)
            tids.append(nid)
        lp = merged.get(classes)
        if lp is None:
            lp = merged[classes] = tuple(zip(*sorted(
                (l, i) for i, c in enumerate(classes) for l in labels_of[c])))
        labels, pos = lp
        arcs.extend(zip(repeat(cur_id), labels, repeat(0.0),
                        map(tids.__getitem__, pos)))
    return Automaton._built(len(order), 0, finals, arcs)


def is_complete(d, labels):
    """True iff every state has a transition on every label of the given
    working alphabet."""
    return all(l in o for o in _dfa_out(d) for l in labels)


def complete(d, labels):
    """Add a non-final sink (if needed) so the DFA is complete over
    `labels`. Language unchanged."""
    missing = [(q, l) for q, o in enumerate(_dfa_out(d)) for l in labels
               if l not in o]
    if not missing:
        return d
    sink = d.num_states
    arcs = list(d.arcs)
    arcs.extend((q, l, 0.0, sink) for q, l in missing)
    arcs.extend((sink, l, 0.0, sink) for l in labels)
    return Automaton(d.num_states + 1, d.initial, d.finals, arcs)


def complement(d, labels):
    """DFA for labels* \\ L(d): d's arcs on other labels are dropped, with
    the states only they reach, and the rest is completed over `labels`
    and its finality flipped."""
    _tally.get()["complement"] += 1
    out = _dfa_out(d)
    states = range(d.num_states)
    initial = d.initial
    arcs = d.arcs
    keep = set(labels)
    if not all(map(keep.issuperset, out)):
        live = fsm._reachable((initial,), [
            [t for l, t in o.items() if l in keep] for o in out])
        states = [q for q in states if live[q]]
        new = dict(zip(states, range(len(states))))
        initial = new[initial]
        # a kept arc from a live state reaches a live one
        arcs = [(new[s], l, 0.0, new[t]) for s, l, _, t in arcs
                if l in keep and live[s]]
    # a non-final sink, flipped to final, takes the labels a state lacks
    sink = len(states)
    missing = [(i, l, 0.0, sink) for i, q in enumerate(states)
               for l in labels if l not in out[q]]
    finals = {i: 0.0 for i, q in enumerate(states) if q not in d.finals}
    if missing:
        missing.extend((sink, l, 0.0, sink) for l in labels)
        finals[sink] = 0.0
    return Automaton._built(sink + bool(missing), initial, finals,
                            [*arcs, *missing])


def intersect(a, b):
    """Product construction; L = L(a) ∩ L(b). Inputs unweighted. States
    are numbered in BFS discovery order and the result is trim."""
    if a.weighted or b.weighted:
        raise WeightedInputError("intersect expects unweighted acceptors")
    _tally.get()["intersect"] += 1
    a = fsm.remove_epsilon(a)
    b = fsm.remove_epsilon(b)
    # a state (p, q) is keyed by p * nb + q, and numbered by its position
    # in `keys`, the FIFO of discovered states; ends[p] is the number of
    # arcs built once state p is done
    nb = b.num_states
    start = a.initial * nb + b.initial
    ids = {start: 0}
    keys = [start]
    arcs = []
    ends = []
    finals = {}
    head = 0
    while head < len(keys):
        p, q = divmod(keys[head], nb)
        cur = head
        head += 1
        if head % 256 == 0:
            fsm.check_timeout()
        if p in a.finals and q in b.finals:
            finals[cur] = 0.0
        idx = b.in_index(q)
        for _, l, _, p2 in a.out_arcs(p):
            for _, _, _, q2 in idx.get(l, ()):
                key = p2 * nb + q2
                nid = ids.get(key)
                if nid is None:
                    nid = ids[key] = len(keys)
                    keys.append(key)
                arcs.append((cur, l, 0.0, nid))
        ends.append(len(arcs))
    return fsm._product(Automaton, finals, arcs, ends)


def subtract(a, b, labels):
    """L(a) \\ L(b) over `labels`, via intersect(a, complement(det(b)))."""
    _tally.get()["subtract"] += 1
    return intersect(a, complement(determinize(b), labels))


def minimize(d):
    """Unique minimal partial DFA for L(d) (up to isomorphism): drop the
    states that reach no final, then Moore partition refinement. The first
    classes split on finality and on the labels of a state's own arcs; a
    state's signature is then its class and its targets' classes in label
    order, so a round costs O(arcs). The classes are rebuilt in BFS order
    so equal languages give identical machines (which are trim: every
    class of a trim DFA is accessible and co-accessible)."""
    out = _dfa_out(d)
    # every state is accessible, so the initial state reaches a final
    # whenever there is one
    if not d.finals:
        return Automaton._built(1, 0, {}, ())
    n = d.num_states
    into = [[] for _ in range(n)]
    for q, o in enumerate(out):
        for t in o.values():
            into[t].append(q)
    live = fsm._reachable(d.finals, into)
    states = [q for q in range(n) if live[q]]
    first = {}
    cls = [0] * n
    dsts = [None] * n
    for q in states:
        out[q] = o = sorted(a for a in out[q].items() if live[a[1]])
        dsts[q] = [t for _, t in o]
        cls[q] = first.setdefault((q in d.finals, tuple(l for l, _ in o)),
                                  len(first))
    n_classes = len(first)
    new_cls = [0] * n
    while True:
        fsm.check_timeout()
        sigs = {}
        for q in states:
            sig = (cls[q], tuple(map(cls.__getitem__, dsts[q])))
            nid = sigs.get(sig)
            if nid is None:
                nid = len(sigs)
                sigs[sig] = nid
            new_cls[q] = nid
        if len(sigs) == n_classes:
            break
        cls, new_cls = new_cls, cls
        n_classes = len(sigs)
    cls = new_cls
    # Rebuild, numbering classes in BFS order from the initial class.
    rep = {}
    for q in states:
        rep.setdefault(cls[q], q)
    order = {cls[d.initial]: 0}
    queue = deque([cls[d.initial]])
    arcs = []
    finals = {}
    while queue:
        c = queue.popleft()
        cid = order[c]
        q = rep[c]
        if q in d.finals:
            finals[cid] = 0.0
        for l, t in out[q]:
            t = cls[t]
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            arcs.append((cid, l, 0.0, order[t]))
    return Automaton._built(len(order), 0, finals, arcs)


def compact_transducer(t):
    """Shrink a transducer without changing its relation or weights: each
    (in, out, weight) triple becomes a synthetic label, the machine is
    determinized and minimized as an acceptor, then decoded. An encoding
    that is already a DFA (`minimize`'s `_dfa_out` accepts it) goes
    straight to `minimize`, whose canonical numbering makes the result
    the same.

    The labels number the distinct triples in sorted order, a -0.0 weight
    read as 0.0, so the result depends only on the encoded language,
    never on the order of t's arcs, and each state's arcs come in (in,
    out, weight) order. A zero-weight arc that is epsilon on both tapes
    becomes an acceptor epsilon, which `determinize`'s closures absorb.
    Only where an ε:ε arc or a final state carries a weight does
    ``fsm.remove_epsilon`` run first: the encoding would keep one path per
    weight where ε-removal keeps the least, so the result would be
    correct but larger."""
    if any(t.finals.values()) or any(w for _, i, o, w, _ in t.arcs
                                     if i == o == EPS):
        t = fsm.remove_epsilon(t)
        # Nonzero final weights would be lost by the unweighted encoding;
        # move them onto entry arcs of a fresh super-final state first.
        if any(t.finals.values()):
            sf = t.num_states
            entries = [(q, EPS, EPS, w, sf) for q, w in t.finals.items()]
            t = Transducer._built(t.num_states + 1, t.initial, {sf: 0.0},
                                  t.arcs + tuple(entries))
    # a zero-weight eps:eps arc encodes as epsilon (label 0), every other
    # triple as its rank among the distinct triples; (EPS, EPS, 0.0) is
    # the least, as weights are non-negative
    triples = {(i, o, w + 0.0) for i, o, w in set(map(_label_weight, t.arcs))}
    decode = sorted(triples | {(EPS, EPS, 0.0)})
    codes = {key: lab for lab, key in enumerate(decode)}
    enc = Automaton._built(t.num_states, t.initial,
                           {q: 0.0 for q in t.finals},
                           [(a[0], codes[a[1:4]], 0.0, a[4]) for a in t.arcs])
    # minimize's `_dfa_out` refuses an encoding that is not yet a DFA
    try:
        m = minimize(enc)
    except NotDeterministicError:
        m = minimize(determinize(enc))
    return Transducer._built(m.num_states, m.initial, m.finals,
                             [(s, *decode[lab], d) for s, lab, _, d in m.arcs])
