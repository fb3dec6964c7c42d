"""Independent ground truth for rule compilation: a direct string-rewriting
interpreter for obligatory left-to-right weighted rules, plus transducer
application and relation-equivalence checking.

The interpreter never touches the marker/composition pipeline: it scans the
input with plain DFA matchers. Right contexts are matched against the raw
input; left contexts against the output built so far (newly written
material feeds later left contexts), mirroring the compiled semantics.
Application and the relation sweep read a transducer through the arc
index composition reads (``in_index``).
"""

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappush, heappop

from . import fsm
from .boolean_ops import determinize
from .errors import DivergentError, WeightOverflowError, at_least
from .fsm import EPS, INF, WeightedStringSet
from .rulespec import compile_regex, series_to_wfsa


def _to_ids(alphabet, s):
    if isinstance(s, str):
        return alphabet.string_to_ids(s)
    return tuple(alphabet.id_of(x) if isinstance(x, str) else x for x in s)


def _names(alphabet, ids):
    return tuple(map(alphabet.name_of, ids))


def _named(alphabet, outputs):
    """{output ids: weight} -> {output names: weight}."""
    return {_names(alphabet, o): w for o, w in outputs.items()}


# ---------------------------------------------------------------------------
# n-best strings (best-first search with exact potentials)
# ---------------------------------------------------------------------------

# keys within this relative distance of their parent's key are the parent's:
# along a best completion the exact key never changes, but the forward and
# backward sums that compute it round differently
_KEY_SLACK = 1e-9


def _overflow():
    return WeightOverflowError("a path weight is past the float range")


def _nbest(adj, into, start, finals, limit):
    """The distinct strings of the paths from `start` to a final node, with
    their minimal weights, in order of weight, up to `limit` of them.
    Returns ({label tuple: weight}, truncated); `truncated` is True exactly
    when there are more than `limit` strings.

    adj[c] lists the arcs (label, weight, d) leaving node c, with label
    EPS for an arc that writes nothing, and into[d] the same arcs as
    (weight, c), for every node d; finals maps a node to its final
    weight. First h[c], the least weight from c to a final, final weight
    included, is found by ``fsm._distances`` on `into` (no entry: c is
    dead). Then the search runs over (string prefix, node) pairs, keyed
    by the prefix's weight plus h of the node, then by insertion order
    (Mohri & Riley, ICSLP 2002); prefixes are never compared. Keys do not
    increase along a best completion and equal keys pop first in, first
    out, so a popped pair reaches a final within a bounded number of pops,
    even on a zero-weight cycle that writes symbols. A sum of weights that
    either pass forms past the float range raises E_WEIGHT_OVERFLOW: read
    as INF, it would drop a string silently."""
    h = fsm._distances(finals, into)
    results = {}
    if start not in h:
        return results, False
    best = {((), start): 0.0}
    # (key, insertion count, weight, prefix, node); node None: the prefix
    # is a string, with this weight
    heap = [(h[start], 0, 0.0, (), start)]
    count = 1
    while heap:
        f, _, g, s, c = heappop(heap)
        if c is None:
            if s in results:
                # the same weight, summed in another order
                if g < results[s]:
                    results[s] = g
                continue
            if len(results) >= limit:
                return results, True
            if g == INF:
                raise _overflow()
            results[s] = g
            continue
        if g > best[(s, c)]:
            continue
        tie = f + _KEY_SLACK * (1.0 + f)
        fw = finals.get(c)
        if fw is not None:
            nf = g + fw
            heappush(heap, (f if nf <= tie else nf, count, nf, s, None))
            count += 1
        for lab, w, d in adj[c]:
            hd = h.get(d)
            if hd is None:
                continue
            ns = s + (lab,) if lab != EPS else s
            ng = g + w
            key = (ns, d)
            if ng < best.get(key, INF):
                best[key] = ng
                nf = ng + hd
                heappush(heap, (f if nf <= tie else nf, count, ng, ns, d))
                count += 1
            elif ng == INF:
                raise _overflow()
    return results, False


def enumerate_language(aut, limit):
    """Accepted strings of a weighted acceptor with their minimal weights,
    best first, up to `limit` distinct strings. Returns (dict, truncated).
    """
    at_least("limit", limit, 1)
    adj = {q: [] for q in range(aut.num_states)}
    into = {q: [] for q in range(aut.num_states)}
    for s, lab, w, d in aut.arcs:
        adj[s].append((lab, w, d))
        into[d].append((w, s))
    return _nbest(adj, into, aut.initial, aut.finals, limit)


# ---------------------------------------------------------------------------
# Transducer application
# ---------------------------------------------------------------------------

def apply(t, input_seq, alphabet, bound=1000):
    """Apply a transducer to one string: the outputs of t's paths that
    read the string, each with its one finite least weight, best first,
    up to `bound` of them. Returns (WeightedStringSet, truncated);
    `truncated` is True exactly when the string has more than `bound`
    outputs. A `bound` below 1 raises E_BAD_OPTION, and a path weight past
    the float range E_WEIGHT_OVERFLOW.

    No machine is built: a forward pass walks the (position, state) pairs
    of the string and t and records the arcs it takes, a backward pass
    gives each pair its least weight to (end of string, final state), and
    `_nbest` searches the live pairs.
    """
    at_least("bound", bound, 1)
    ids = _to_ids(alphabet, input_seq)
    n = t.num_states
    last = len(ids)
    index = t.in_index
    # pair (i, q) is node i * n + q; adj[node] is its arcs (out, w, node2)
    adj = {}
    into = defaultdict(list)
    layer = [t.initial]
    for i in range(last + 1):
        base = i * n
        nbase = base + n
        a = ids[i] if i < last else None
        seen = set(layer)
        moved = {}
        for q in layer:  # the layer grows as epsilon-input arcs reach states
            arcs = index(q)
            out = []
            c = base + q
            for _, _, o, w, r in arcs.get(EPS, ()):
                out.append((o, w, base + r))
                into[base + r].append((w, c))
                if r not in seen:
                    seen.add(r)
                    layer.append(r)
            for _, _, o, w, r in arcs.get(a, ()):
                out.append((o, w, nbase + r))
                into[nbase + r].append((w, c))
                moved[r] = None
            adj[c] = out
        if i < last:  # the last layer stays, for its finals
            layer = list(moved)
    finals = {base + q: t.finals[q] for q in layer if q in t.finals}
    raw, truncated = _nbest(adj, into, t.initial, finals, bound)
    return WeightedStringSet(_named(alphabet, raw)), truncated


# the most outputs one input may have in a sweep
_OUTPUTS_PER_INPUT = 4096


def _relation(t, sigma, max_len):
    """The full relation of `t` on inputs over the symbol ids `sigma` up to
    max_len, as {input ids: {output ids: weight}}, by one batched
    breadth-first traversal (equivalent to calling apply on every string).
    An output longer than 8 * max_len + 32 symbols, or more than
    _OUTPUTS_PER_INPUT outputs for one input, raises E_DIVERGENT.
    """
    max_out_len = 8 * max_len + 32
    idx = list(map(t.in_index, range(t.num_states)))
    eps_states = {q for q, d in enumerate(idx) if EPS in d}

    def eps_close(configs):
        # only configurations on a state with an epsilon-input arc move
        if not eps_states:
            return configs
        work = [(k, w) for k, w in configs.items() if k[0] in eps_states]
        steps = 0
        while work:
            (q, out), w = work.pop()
            if w > configs.get((q, out), INF):
                continue
            for _, _, o, aw, r in idx[q].get(EPS, ()):
                no = out + (o,) if o != EPS else out
                if len(no) > max_out_len:
                    raise DivergentError(
                        "output grew past the enumeration bound; "
                        "does psi admit infinitely many strings?")
                nw = w + aw
                key = (r, no)
                if nw < configs.get(key, INF):
                    configs[key] = nw
                    work.append((key, nw))
                    steps += 1
                    if steps > 2_000_000:
                        raise DivergentError("epsilon closure diverged")
                elif nw == INF:
                    raise _overflow()
        return configs

    results = {}

    def record(u, configs):
        rec = {}
        for (q, out), w in configs.items():
            if q in t.finals:
                tw = w + t.finals[q]
                if tw < rec.get(out, INF):
                    rec[out] = tw
                elif tw == INF:
                    raise _overflow()
        if len(rec) > _OUTPUTS_PER_INPUT:
            raise DivergentError("more outputs than the enumeration bound")
        if rec:
            results[u] = rec

    layer = {(): eps_close({(t.initial, ()): 0.0})}
    record((), layer[()])
    for depth in range(max_len):
        fsm.check_timeout()
        nxt = {}
        for u, configs in layer.items():
            for a in sigma:
                moved = {}
                for (q, out), w in configs.items():
                    for _, _, o, aw, r in idx[q].get(a, ()):
                        no = out + (o,) if o != EPS else out
                        if len(no) > max_out_len:
                            raise DivergentError("output grew past bound")
                        nw = w + aw
                        key = (r, no)
                        if nw < moved.get(key, INF):
                            moved[key] = nw
                        elif nw == INF:
                            raise _overflow()
                if moved:
                    nxt[u + (a,)] = eps_close(moved)
        layer = nxt
        for u, configs in layer.items():
            record(u, configs)
    return results


def relation_upto(t, alphabet, max_len):
    """The full relation of `t` on inputs over the user alphabet up to
    max_len, as {input names: {output names: weight}} (see `_relation`).
    """
    at_least("max_len", max_len, 0)
    rel = _relation(t, alphabet.sigma(), max_len)
    return {_names(alphabet, u): _named(alphabet, rec)
            for u, rec in rel.items()}


# ---------------------------------------------------------------------------
# The rewriting oracle
# ---------------------------------------------------------------------------

class _Matcher:
    """DFA wrapper for the oracle's context checks."""

    __slots__ = ("delta", "finals", "initial")

    def __init__(self, ast, alphabet, reverse=False):
        a = compile_regex(ast, alphabet)
        if reverse:
            a = fsm.reverse(a)
        d = determinize(a)
        self.delta = {(s, l): t for s, l, _, t in d.arcs}
        self.finals = set(d.finals)
        self.initial = d.initial

    def match_lengths(self, ids, start):
        """Lengths m such that ids[start:start+m] is accepted."""
        out = []
        q = self.initial
        if q in self.finals:
            out.append(0)
        for j in range(start, len(ids)):
            q = self.delta.get((q, ids[j]))
            if q is None:
                break
            if q in self.finals:
                out.append(j - start + 1)
        return out

    def ends_with_match(self, out_ids):
        # self must be built with reverse=True; walk the output backwards.
        q = self.initial
        if q in self.finals:
            return True
        for j in range(len(out_ids) - 1, -1, -1):
            q = self.delta.get((q, out_ids[j]))
            if q is None:
                return False
            if q in self.finals:
                return True
        return False


class RewriteOracle:
    """Reusable interpreter for one rule (matchers are built once).
    `rewrite_ids` rewrites one string and `relation` every string up to a
    length, in one sweep; both run one dynamic program, `_rewrite`."""

    def __init__(self, rule, alphabet, bound=1000):
        at_least("bound", bound, 1)
        self.alphabet = alphabet
        self.bound = bound
        self.phi = _Matcher(rule.phi, alphabet)
        self.rho = _Matcher(rule.rho, alphabet)
        self.lam_rev = _Matcher(rule.lam, alphabet, reverse=True)
        psi_wfsa = series_to_wfsa(rule.psi, alphabet)
        self.psi_strings, self.psi_truncated = enumerate_language(
            psi_wfsa, bound + 1)

    def rewrite_ids(self, ids):
        """Map input ids -> {output ids: min weight}."""
        n = len(ids)
        rho_ok = [bool(self.rho.match_lengths(ids, j)) for j in range(n + 1)]
        # All phi match lengths with a valid right context, per position.
        sites = [[m for m in self.phi.match_lengths(ids, i)
                  if m > 0 and rho_ok[i + m]] for i in range(n)]
        return self._rewrite(ids, sites)

    def relation(self, sigma, max_len):
        """{input ids: {output ids: weight}} for every input over `sigma` up
        to max_len, equal to `rewrite_ids` on each. The tables of u = (a,) +
        t are t's with one new entry at position 0, so an input costs one
        rho walk and one phi walk; only the previous length's tables are
        kept. The deadline is checked once per input length."""
        at_least("max_len", max_len, 0)
        rho, phi = self.rho, self.phi
        layer = {(): ((bool(rho.match_lengths((), 0)),), ())}
        results = {(): self._rewrite((), ())}
        for _ in range(max_len):
            fsm.check_timeout()
            nxt = {}
            for t, (rho_ok, sites) in layer.items():
                for a in sigma:
                    u = (a,) + t
                    rok = (bool(rho.match_lengths(u, 0)),) + rho_ok
                    ms = ([m for m in phi.match_lengths(u, 0)
                           if m > 0 and rok[m]],) + sites
                    nxt[u] = (rok, ms)
                    results[u] = self._rewrite(u, ms)
            layer = nxt
        return results

    def _rewrite(self, ids, sites):
        """Obligatory left-to-right rewriting of `ids`, given sites[i]: the
        phi match lengths at position i with a valid right context."""
        if not any(sites):
            # what the copy loop below builds; errors arise only at sites
            return {tuple(ids): 0.0}
        n = len(ids)
        bound = self.bound
        buckets = [dict() for _ in range(n + 1)]
        buckets[0][()] = 0.0
        results = {}
        for i in range(n + 1):
            for out, w in buckets[i].items():
                if i == n:
                    if w < results.get(out, INF):
                        results[out] = w
                    continue
                ms = sites[i]
                if ms and self.lam_rev.ends_with_match(out):
                    if self.psi_truncated:
                        # psi has more strings than the enumeration bound:
                        # the output set here would exceed any bound
                        raise DivergentError(
                            f"psi admits more than {bound} strings")
                    for m in ms:
                        tgt = buckets[i + m]
                        for s, v in self.psi_strings.items():
                            no = out + s
                            nw = w + v
                            if nw < tgt.get(no, INF):
                                tgt[no] = nw
                            elif nw == INF:
                                raise _overflow()
                else:
                    no = out + (ids[i],)
                    tgt = buckets[i + 1]
                    if w < tgt.get(no, INF):
                        tgt[no] = w
        return results


def oracle_rewrite(rule, alphabet, input_seq, bound=1000):
    """Ground-truth obligatory left-to-right rewriting of one string.
    Returns a WeightedStringSet keyed by output name tuples, each with its
    one finite least weight (a sum past the float range raises
    E_WEIGHT_OVERFLOW). A `bound` below 1 raises E_BAD_OPTION."""
    ids = _to_ids(alphabet, input_seq)
    orc = RewriteOracle(rule, alphabet, bound)
    return WeightedStringSet(_named(alphabet, orc.rewrite_ids(ids)))


# ---------------------------------------------------------------------------
# Relation equivalence
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    equivalent: bool
    counterexamples: list
    strings_checked: int

    def __str__(self):
        if self.equivalent:
            return f"equivalent on all {self.strings_checked} strings"
        lines = [f"NOT equivalent ({len(self.counterexamples)} "
                 f"counterexamples shown)"]
        for inp, lhs, rhs in self.counterexamples:
            lines.append(f"  input {inp!r}: {lhs!r} vs {rhs!r}")
        return "\n".join(lines)


def _strings(symbols, max_len):
    """Every string over `symbols` up to max_len, shortest first, each
    length in the order of `symbols`."""
    todo = [()]
    for _ in range(max_len + 1):
        nxt = []
        for u in todo:
            yield u
            if len(u) < max_len:
                nxt.extend(u + (a,) for a in symbols)
        todo = nxt
        if not todo:
            break


def _all_inputs(alphabet, max_len):
    """Every input over the user alphabet up to max_len, as name tuples."""
    return _strings(alphabet.symbols, max_len)


# the sweep checks its deadline once per this many inputs
_DEADLINE_EVERY = 4096
# a failed comparison stops at this many counterexamples
_MAX_REPORT = 10


def _compare(rel, expected, alphabet, max_len, need_output=False, tol=1e-9):
    """Compare a relation of `_relation` with `expected`, a relation
    {input ids: {output ids: weight}} on inputs up to max_len (an input it
    lacks has no output), on every input over the user alphabet up to
    max_len. With need_output, an input with no expected output is a
    counterexample too. Counterexamples are reported in names."""
    sigma = alphabet.sigma()
    n_inputs = sum(len(sigma) ** k for k in range(max_len + 1))
    # equal dicts, compared in C, agree on every input; `rel` records no
    # empty output set, so with every input present each has an output
    if rel == expected and (not need_output or len(expected) == n_inputs):
        return EquivalenceReport(True, [], n_inputs)
    counterexamples = []
    checked = 0
    for u in _strings(sigma, max_len):
        checked += 1
        if checked % _DEADLINE_EVERY == 0:
            fsm.check_timeout()
        o1 = rel.get(u, {})
        o2 = expected.get(u) or {}
        # exact equality first, in C; the tolerance only when that fails
        ok = o1 == o2 or o1.keys() == o2.keys() and all(
            abs(w - o2[k]) <= tol for k, w in o1.items())
        if not ok or (need_output and not o2):
            counterexamples.append((_names(alphabet, u), _named(alphabet, o1),
                                    _named(alphabet, o2)))
            if len(counterexamples) >= _MAX_REPORT:
                break
    return EquivalenceReport(not counterexamples, counterexamples, checked)


def _same_machine(a, b):
    """True when a and b have the same states, initial state, final
    weights and multiset of arcs, so the same relation on every input.
    False proves nothing."""
    return (a.num_states == b.num_states and a.initial == b.initial
            and a.finals == b.finals
            and (a.arcs == b.arcs or sorted(a.arcs) == sorted(b.arcs)))


def equivalent_on(t1, t2, alphabet, max_len, tol=1e-9):
    """Compare two transducers as weighted relations on every input over
    the user alphabet up to max_len. t2 is always swept, so its errors are
    raised; a t1 identical to it shares its relation."""
    at_least("max_len", max_len, 0)
    sigma = alphabet.sigma()
    r2 = _relation(t2, sigma, max_len)
    r1 = r2 if _same_machine(t1, t2) else _relation(t1, sigma, max_len)
    return _compare(r1, r2, alphabet, max_len, tol=tol)
