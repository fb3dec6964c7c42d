"""Classical unweighted automata algorithms: subset-construction
determinization, completion, complementation, intersection, subtraction,
DFA minimization, and label-encoded transducer compaction.

Epsilon closures come from the core machinery: determinization takes its
subsets from ``fsm._eps_closures``. Compaction hands a zero-weight arc that
is epsilon on both tapes to determinization as an acceptor epsilon, and
runs ``fsm.remove_epsilon`` first only when such an arc or a final state
carries a weight.

The working alphabet for completion and complementation is always an
explicit parameter (a sequence of label ids), never inferred from the
machine's arcs: the marker constructions operate over extended alphabets
and the right answer depends on which one.

A DFA is a plain ``Automaton``: unweighted, epsilon-free, at most one arc
per (state, label) and every state accessible. ``determinize``,
``complete``, ``complement`` and ``minimize`` return such machines, and
the functions that need the property (``is_complete``, ``complete`` and
``minimize``) check it on their input with ``_delta``.
"""

from collections import deque
from dataclasses import dataclass

from . import fsm
from .errors import NotDeterministicError
from .fsm import EPS, Automaton, Transducer


@dataclass
class OpCounter:
    """Instrumentation for operation-count claims."""

    determinizations: int = 0
    intersections: int = 0
    complementations: int = 0
    subtractions: int = 0


def _delta(aut):
    """The transition map {(state, label): target} of an accessible
    deterministic acceptor. Raises E_NOT_DETERMINISTIC on a weighted
    machine, an epsilon arc, two arcs with one label from one state, or an
    inaccessible state."""
    if aut.weighted:
        raise NotDeterministicError("weighted machines are not DFAs here")
    delta = {}
    for s, l, _, d in aut.arcs:
        if l == EPS:
            raise NotDeterministicError("epsilon arc in DFA")
        if (s, l) in delta:
            raise NotDeterministicError(
                f"two arcs with label {l} leave state {s}")
        delta[(s, l)] = d
    seen = {aut.initial}
    stack = [aut.initial]
    while stack:
        q = stack.pop()
        for _, _, _, d in aut.out_arcs(q):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    if len(seen) != aut.num_states:
        raise NotDeterministicError("DFA has inaccessible states")
    return delta


def determinize(a, counter=None, deadline=None):
    """Subset construction. Language preserved, result deterministic and
    accessible; no minimization. States come out in BFS discovery order and
    arcs are emitted in sorted label order, so sizes are reproducible."""
    if a.weighted:
        raise ValueError("determinize expects an unweighted acceptor")
    if counter is not None:
        counter.determinizations += 1
    finals_in = set(a.finals)
    eps_from = [[] for _ in range(a.num_states)]
    sym_from = [[] for _ in range(a.num_states)]
    for s, l, w, d in a.arcs:
        if l == EPS:
            eps_from[s].append((w, d))
        else:
            sym_from[s].append((l, d))
    closures = [frozenset(c) for c in fsm._eps_closures(a.num_states,
                                                        eps_from)]

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
        if deadline is not None and head % 64 == 0:
            deadline.check()
        if not finals_in.isdisjoint(cur):
            finals[cur_id] = 0.0
        targets = {}
        for q in cur:
            for l, d in sym_from[q]:
                tset = targets.get(l)
                if tset is None:
                    targets[l] = set(closures[d])
                else:
                    tset.update(closures[d])
        for l in sorted(targets):
            tfro = frozenset(targets[l])
            nid = ids.get(tfro)
            if nid is None:
                nid = len(order)
                ids[tfro] = nid
                order.append(tfro)
            arcs.append((cur_id, l, 0.0, nid))
    return Automaton(len(order), 0, finals, arcs)


def is_complete(d, labels):
    """True iff every state has a transition on every label of the given
    working alphabet."""
    delta = _delta(d)
    return all((q, l) in delta
               for q in range(d.num_states) for l in labels)


def complete(d, labels):
    """Add a non-final sink (if needed) so the DFA is complete over
    `labels`. Language unchanged."""
    delta = _delta(d)
    missing = [(q, l) for q in range(d.num_states) for l in labels
               if (q, l) not in delta]
    if not missing:
        return d
    sink = d.num_states
    arcs = list(d.arcs)
    arcs.extend((q, l, 0.0, sink) for q, l in missing)
    arcs.extend((sink, l, 0.0, sink) for l in labels)
    return Automaton(d.num_states + 1, d.initial, d.finals, arcs)


def complement(d, labels, counter=None):
    """DFA for the complement of L(d) over `labels`* (completion applied
    internally)."""
    if counter is not None:
        counter.complementations += 1
    d = complete(d, labels)
    finals = {q: 0.0 for q in range(d.num_states) if q not in d.finals}
    return Automaton(d.num_states, d.initial, finals, d.arcs)


def intersect(a, b, counter=None, deadline=None):
    """Product construction; L = L(a) ∩ L(b). Inputs unweighted."""
    if a.weighted or b.weighted:
        raise ValueError("intersect expects unweighted acceptors")
    if counter is not None:
        counter.intersections += 1
    a = fsm.remove_epsilon(a)
    b = fsm.remove_epsilon(b)
    b_idx = [None] * b.num_states

    def bi(q):
        d = b_idx[q]
        if d is None:
            d = {}
            for _, l, _, t in b.out_arcs(q):
                d.setdefault(l, []).append(t)
            b_idx[q] = d
        return d

    ids = {(a.initial, b.initial): 0}
    queue = deque([(a.initial, b.initial)])
    arcs = []
    finals = {}
    n = 0
    while queue:
        p, q = pq = queue.popleft()
        cur = ids[pq]
        n += 1
        if deadline is not None and n % 256 == 0:
            deadline.check()
        if p in a.finals and q in b.finals:
            finals[cur] = 0.0
        idx = bi(q)
        for _, l, _, p2 in a.out_arcs(p):
            for q2 in idx.get(l, ()):
                key = (p2, q2)
                nid = ids.get(key)
                if nid is None:
                    nid = len(ids)
                    ids[key] = nid
                    queue.append(key)
                arcs.append((cur, l, 0.0, nid))
    return fsm.trim(Automaton(len(ids), 0, finals, arcs))


def subtract(a, b, labels, counter=None, deadline=None):
    """L(a) \\ L(b) over `labels`, via intersect(a, complement(det(b)))."""
    if counter is not None:
        counter.subtractions += 1
    b_c = complement(determinize(b, counter, deadline), labels, counter)
    return intersect(a, b_c, counter, deadline)


def minimize(d, deadline=None):
    """Unique minimal partial DFA for L(d) (up to isomorphism): trim, then
    Moore partition refinement. A state's signature is its class, the
    labels of its own arcs in label order and their targets' classes, so
    a round costs O(arcs). The classes are rebuilt in BFS order so equal
    languages give identical machines (which are trim: every class of a
    trim DFA is accessible and co-accessible)."""
    _delta(d)
    aut = fsm.trim(d)
    if not aut.finals:
        return Automaton(1, 0, {}, ())
    n = aut.num_states
    out = [sorted((l, t) for _, l, _, t in aut.out_arcs(q)) for q in range(n)]
    labs = [tuple(l for l, _ in o) for o in out]
    dsts = [[t for _, t in o] for o in out]
    cls = [1 if q in aut.finals else 0 for q in range(n)]
    n_classes = 2 if any(c == 0 for c in cls) else 1
    while True:
        if deadline is not None:
            deadline.check()
        sigs = {}
        new_cls = [0] * n
        for q in range(n):
            sig = (cls[q], labs[q], tuple(map(cls.__getitem__, dsts[q])))
            nid = sigs.get(sig)
            if nid is None:
                nid = len(sigs)
                sigs[sig] = nid
            new_cls[q] = nid
        if len(sigs) == n_classes:
            break
        cls = new_cls
        n_classes = len(sigs)
    cls = new_cls
    # Rebuild, numbering classes in BFS order from the initial class.
    rep = {}
    for q in range(n):
        rep.setdefault(cls[q], q)
    order = {cls[aut.initial]: 0}
    queue = deque([cls[aut.initial]])
    arcs = []
    finals = {}
    while queue:
        c = queue.popleft()
        cid = order[c]
        q = rep[c]
        if q in aut.finals:
            finals[cid] = 0.0
        for l, t in out[q]:
            t = cls[t]
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            arcs.append((cid, l, 0.0, order[t]))
    return Automaton(len(order), 0, finals, arcs)


def compact_transducer(t, deadline=None):
    """Shrink a transducer without changing its relation or weights: each
    (in, out, weight) triple becomes a synthetic label, the machine is
    determinized and minimized as an acceptor, then decoded.

    A zero-weight arc that is epsilon on both tapes becomes an acceptor
    epsilon, which `determinize`'s closures absorb. Only where an ε:ε arc
    or a final state carries a weight does ``fsm.remove_epsilon`` run
    first: the encoding would keep one path per weight where ε-removal
    keeps the least, so the result would be correct but larger."""
    if (any(w != 0.0 for w in t.finals.values())
            or any(i == EPS and o == EPS and w != 0.0
                   for _, i, o, w, _ in t.arcs)):
        t = fsm.remove_epsilon(t)
    # Nonzero final weights would be lost by the unweighted encoding; move
    # them onto entry arcs of a fresh super-final state first.
    if any(w != 0.0 for w in t.finals.values()):
        sf = t.num_states
        arcs = list(t.arcs)
        arcs.extend((q, EPS, EPS, w, sf) for q, w in t.finals.items())
        t = Transducer(t.num_states + 1, t.initial, {sf: 0.0}, arcs,
                       weighted=t.weighted)
    # a zero-weight eps:eps arc encodes as epsilon, every other triple as
    # 1, 2, ... in order of first appearance
    codes = {(EPS, EPS, 0.0): EPS}
    enc_arcs = []
    for s, i, o, w, d in t.arcs:
        key = (i, o, w)
        lab = codes.get(key)
        if lab is None:
            lab = len(codes)
            codes[key] = lab
        enc_arcs.append((s, lab, 0.0, d))
    enc = Automaton(t.num_states, t.initial, {q: 0.0 for q in t.finals},
                    enc_arcs)
    m = minimize(determinize(enc, deadline=deadline), deadline=deadline)
    decode = {lab: key for key, lab in codes.items()}
    out_arcs = []
    for s, lab, _, d in m.arcs:
        i, o, w = decode[lab]
        out_arcs.append((s, i, o, w, d))
    return Transducer(m.num_states, m.initial, m.finals, out_arcs,
                      weighted=t.weighted)
