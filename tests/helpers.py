"""Shared test helpers: independent brute-force oracles (path enumeration,
naive regex matching) and seeded random generators for machines, regexes,
and rules. These deliberately avoid the library's own traversal code so
the tests compare two unrelated routes to the same answer.

The corpus seed comes from the RWC_SEED environment variable (default 0).
"""

import contextlib
import itertools
import math
import os
import random
import signal
from collections import deque, namedtuple
from heapq import heappush, heappop

from rwc import fsm
from rwc import rulespec as R
from rwc.errors import NegativeWeightError, RuleSyntaxError
from rwc.fsm import EPS, INF, Alphabet


# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


class TimeLimitExceeded(Exception):
    """Not an OSError, which the CLI would catch and report."""


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the block with TimeLimitExceeded, rather than hang, when it
    runs past `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def corpus_seed():
    return int(os.environ.get("RWC_SEED", "0"))


def rng_for(name, extra=0):
    # string seeds hash stably across processes, unlike tuple hashes
    return random.Random(f"{corpus_seed()}:{name}:{extra}")


# ---------------------------------------------------------------------------
# Brute-force enumeration oracles
# ---------------------------------------------------------------------------

def enum_language(aut, max_len):
    """All accepted strings up to max_len with min weights, by exhaustive
    path walking (epsilon arcs allowed)."""
    best = {}
    results = {}
    heap = [(0.0, aut.initial, ())]
    best[(aut.initial, ())] = 0.0
    while heap:
        w, q, s = heappop(heap)
        if w > best.get((q, s), INF):
            continue
        if q in aut.finals:
            tot = w + aut.finals[q]
            if tot < results.get(s, INF):
                results[s] = tot
        for _, lab, aw, r in aut.out_arcs(q):
            ns = s if lab == EPS else s + (lab,)
            if len(ns) > max_len:
                continue
            nw = w + aw
            if nw < best.get((r, ns), INF):
                best[(r, ns)] = nw
                heappush(heap, (nw, r, ns))
    return results


def enum_relation(t, max_in, max_out=None):
    """All (input, output) pairs up to the length bounds with min weights,
    by exhaustive path walking."""
    if max_out is None:
        max_out = max_in
    best = {}
    results = {}
    start = (t.initial, (), ())
    best[start] = 0.0
    heap = [(0.0,) + start]
    while heap:
        w, q, i, o = heappop(heap)
        if w > best.get((q, i, o), INF):
            continue
        if q in t.finals:
            tot = w + t.finals[q]
            if tot < results.get((i, o), INF):
                results[(i, o)] = tot
        for _, il, ol, aw, r in t.out_arcs(q):
            ni = i if il == EPS else i + (il,)
            no = o if ol == EPS else o + (ol,)
            if len(ni) > max_in or len(no) > max_out:
                continue
            nw = w + aw
            key = (r, ni, no)
            if nw < best.get(key, INF):
                best[key] = nw
                heappush(heap, (nw,) + key)
    return results


def lang_set(aut, max_len):
    return set(enum_language(aut, max_len))


def accepts_by_enum(aut, s, max_len=None):
    return tuple(s) in lang_set(aut, len(s))


def all_strings(labels, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(labels, repeat=n)


# ---------------------------------------------------------------------------
# Naive recursive regex matcher (denotation oracle for compile_regex)
# ---------------------------------------------------------------------------

def naive_match(ast, s):
    """Does the name-tuple s belong to the denotation of the tree?"""
    if isinstance(ast, R.Sym):
        return s == (ast.name,)
    if isinstance(ast, R.Eps):
        return s == ()
    if isinstance(ast, R.Cls):
        return len(s) == 1 and s[0] in ast.names
    if isinstance(ast, R.Weighted):
        return naive_match(ast.child, s)
    if isinstance(ast, R.Cat):
        return _match_cat(ast.parts, s)
    if isinstance(ast, R.Alt):
        return any(naive_match(p, s) for p in ast.parts)
    if isinstance(ast, R.Opt):
        return s == () or naive_match(ast.child, s)
    if isinstance(ast, R.Star):
        return s == () or _match_plus(ast.child, s)
    if isinstance(ast, R.Plus):
        return _match_plus(ast.child, s)
    raise TypeError(ast)


def _match_cat(parts, s):
    if not parts:
        return s == ()
    head, rest = parts[0], parts[1:]
    return any(naive_match(head, s[:i]) and _match_cat(rest, s[i:])
               for i in range(len(s) + 1))


def _match_plus(child, s):
    # one or more repetitions; the first must be non-empty unless s is empty
    if naive_match(child, s):
        return True
    return any(naive_match(child, s[:i]) and _match_plus(child, s[i:])
               for i in range(1, len(s)))


def naive_series_value(ast, s):
    """Min-plus value of a series tree on the name-tuple s, by direct
    recursion over the denotation."""
    if isinstance(ast, R.Sym):
        return 0.0 if s == (ast.name,) else INF
    if isinstance(ast, R.Eps):
        return 0.0 if s == () else INF
    if isinstance(ast, R.Cls):
        return 0.0 if (len(s) == 1 and s[0] in ast.names) else INF
    if isinstance(ast, R.Weighted):
        return ast.weight + naive_series_value(ast.child, s)
    if isinstance(ast, R.Alt):
        return min(naive_series_value(p, s) for p in ast.parts)
    if isinstance(ast, R.Cat):
        return _series_cat(ast.parts, s)
    if isinstance(ast, R.Opt):
        v = naive_series_value(ast.child, s)
        return min(v, 0.0) if s == () else v
    if isinstance(ast, R.Star):
        return 0.0 if s == () else _series_plus(ast.child, s)
    if isinstance(ast, R.Plus):
        return _series_plus(ast.child, s)
    raise TypeError(ast)


def _series_cat(parts, s):
    if not parts:
        return 0.0 if s == () else INF
    head, rest = parts[0], parts[1:]
    best = INF
    for i in range(len(s) + 1):
        a = naive_series_value(head, s[:i])
        if a == INF:
            continue
        b = _series_cat(rest, s[i:])
        best = min(best, a + b)
    return best


def _series_plus(child, s):
    best = naive_series_value(child, s)
    for i in range(1, len(s)):
        a = naive_series_value(child, s[:i])
        if a == INF:
            continue
        best = min(best, a + _series_plus(child, s[i:]))
    return best


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def rand_alphabet(rng, size):
    return Alphabet([chr(ord("a") + j) for j in range(size)])


def rand_regex(rng, alphabet, depth, allow_eps=True, allow_empty_class=True):
    names = alphabet.symbols
    choices = ["sym", "cls"] + (["eps"] if allow_eps else [])
    if depth > 0:
        choices += ["cat", "alt", "star", "plus", "opt"]
    kind = rng.choice(choices)
    if kind == "sym":
        return R.Sym(rng.choice(names))
    if kind == "eps":
        return R.Eps()
    if kind == "cls":
        lo = 0 if allow_empty_class else 1
        k = rng.randint(lo, len(names))
        return R.Cls(tuple(sorted(rng.sample(names, k))))
    if kind in ("cat", "alt"):
        node = R.Cat if kind == "cat" else R.Alt
        parts = tuple(rand_regex(rng, alphabet, depth - 1, allow_eps,
                                 allow_empty_class)
                      for _ in range(rng.randint(2, 3)))
        return node(parts)
    child = rand_regex(rng, alphabet, depth - 1, allow_eps,
                       allow_empty_class)
    return {"star": R.Star, "plus": R.Plus, "opt": R.Opt}[kind](child)


def rand_phi(rng, alphabet, depth):
    while True:
        ast = rand_regex(rng, alphabet, depth, allow_eps=False,
                         allow_empty_class=False)
        if not R.nullable(ast) and not R.empty_language(ast):
            return ast


def rand_series(rng, alphabet, depth, weighted=True, allow_alt=True):
    """A finite series (no stars), so rewriting output sets stay
    enumerable. With allow_alt=False the series denotes one string."""
    kinds = ["sym"]
    if depth > 0:
        kinds += ["cat"] + (["alt"] if allow_alt else []) \
            + (["w"] if weighted else [])
    kind = rng.choice(kinds)
    if kind == "sym":
        return R.Sym(rng.choice(alphabet.symbols))
    if kind == "w":
        return R.Weighted(round(rng.uniform(0.0, 3.0), 4),
                          rand_series(rng, alphabet, depth - 1, weighted,
                                      allow_alt))
    parts = tuple(rand_series(rng, alphabet, depth - 1, weighted, allow_alt)
                  for _ in range(2))
    return (R.Cat if kind == "cat" else R.Alt)(parts)


def rand_rule(rng, alphabet, depth=2, weighted=True, allow_alt=True):
    return R.Rule(phi=rand_phi(rng, alphabet, depth),
                  psi=rand_series(rng, alphabet, depth, weighted=weighted,
                                  allow_alt=allow_alt),
                  lam=rand_regex(rng, alphabet, depth),
                  rho=rand_regex(rng, alphabet, depth))


def rule_corpus(name, count, sizes, depth=2, weighted=True):
    """Deterministic corpus of (alphabet, rule) pairs; `sizes` maps
    alphabet size -> how many rules of that size. Alternative-bearing
    targets are confined to the smallest alphabets: exhaustive sweeps over
    bigger alphabets would otherwise face output sets exponential in the
    string length."""
    rng = rng_for(name)
    out = []
    for size, n in sorted(sizes.items()):
        for _ in range(n):
            alphabet = rand_alphabet(rng, size)
            out.append((alphabet,
                        rand_rule(rng, alphabet, depth, weighted=weighted,
                                  allow_alt=size <= 2)))
    rng.shuffle(out)
    assert len(out) == count
    return out


def rand_ruleset_text(rng):
    """A rule file of 1-3 rules over 5-8 symbols. Leaves are symbols,
    classes and negated classes drawn from a pool of 2-4 of the symbols,
    so the rest are named only by negated classes; psi takes symbols and
    classes, and half the targets are weighted alternatives."""
    names = [chr(ord("a") + j) for j in range(rng.randint(5, 8))]
    pool = rng.sample(names, rng.randint(2, 4))

    def leaf(kinds=("sym", "cls", "neg")):
        kind = rng.choice(kinds)
        if kind == "sym":
            return rng.choice(pool)
        body = " ".join(rng.sample(pool, rng.randint(1, len(pool))))
        return f"[{body}]" if kind == "cls" else f"[^ {body}]"

    def leaves(lo, hi, kinds=("sym", "cls", "neg")):
        return " ".join(leaf(kinds) for _ in range(rng.randint(lo, hi)))

    rules = []
    for _ in range(rng.randint(1, 3)):
        lam = leaves(0, 2)
        if lam and rng.random() < 0.3:
            lam += "*"
        alts = [leaves(1, 2, ("sym", "cls")) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            alts = [f"<{rng.uniform(0, 3):.3f}> ({a})" for a in alts]
        rules.append(f"{leaves(1, 2)} -> {' + '.join(alts)} "
                     f"/ {lam} _ {leaves(0, 2)} ;")
    return f"alphabet: {' '.join(names)} ;\n" + "\n".join(rules) + "\n"


def rand_phonology_text(rng):
    """An 8-rule file over the paper's 194 symbols, drawn from 40 of them.
    Contexts take 0-3 atoms, each a class of 2-3 symbols a quarter of the
    time; two rules rewrite a class, three have weighted 2-way targets and
    one has a negated class in its left context."""
    names = [f"s{j:03d}" for j in range(194)]
    active = rng.sample(names, 40)

    def atom():
        if rng.random() < 0.25:
            return f"[{' '.join(rng.sample(active, rng.randint(2, 3)))}]"
        return rng.choice(active)

    def context(lo=0):
        return [atom() for _ in range(rng.randint(lo, 3))]

    kinds = rng.sample(["cls"] * 2 + ["weighted"] * 3 + ["neg"] + [None] * 2,
                       8)
    rules = []
    for kind in kinds:
        phi = (f"[{' '.join(rng.sample(active, rng.randint(2, 3)))}]"
               if kind == "cls" else rng.choice(active))
        psi = rng.choice(active)
        if kind == "weighted":
            psi = " + ".join(f"<{rng.uniform(0, 3):.4f}> {s}"
                             for s in rng.sample(active, 2))
        lam = context(lo=1 if kind == "neg" else 0)
        if kind == "neg":
            lam[rng.randrange(len(lam))] = \
                f"[^ {' '.join(rng.sample(active, rng.randint(1, 3)))}]"
        rules.append(f"{phi} -> {psi} / {' '.join(lam + ['_'] + context())} ;")
    return f"alphabet: {' '.join(names)} ;\n" + "\n".join(rules) + "\n"


def aut_string(labels):
    """The acceptor of the one string `labels`."""
    from rwc.fsm import Automaton
    arcs = [(i, lab, 0.0, i + 1) for i, lab in enumerate(labels)]
    return Automaton(len(labels) + 1, 0, {len(labels): 0.0}, arcs)


def rand_automaton(rng, labels, max_states=4, p_eps=0.2, weighted=False):
    n = rng.randint(1, max_states)
    arcs = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        lab = EPS if rng.random() < p_eps else rng.choice(labels)
        w = round(rng.uniform(0, 4), 3) if weighted else 0.0
        arcs.append((rng.randrange(n), lab, w, rng.randrange(n)))
    finals = {q: 0.0 for q in range(n) if rng.random() < 0.5}
    if not finals and rng.random() < 0.8:
        finals = {rng.randrange(n): 0.0}
    from rwc.fsm import Automaton
    return Automaton(n, rng.randrange(n), finals, arcs)


def rand_transducer(rng, labels, max_states=4, p_eps=0.25, weighted=True):
    n = rng.randint(1, max_states)
    arcs = []
    for _ in range(rng.randint(1, 2 * n + 3)):
        il = EPS if rng.random() < p_eps else rng.choice(labels)
        ol = EPS if rng.random() < p_eps else rng.choice(labels)
        w = round(rng.uniform(0, 4), 3) if weighted else 0.0
        arcs.append((rng.randrange(n), il, ol, w, rng.randrange(n)))
    finals = {q: 0.0 for q in range(n) if rng.random() < 0.5}
    if not finals:
        finals = {rng.randrange(n): 0.0}
    from rwc.fsm import Transducer
    return Transducer(n, rng.randrange(n), finals, arcs)


def reference_apply(t, input_seq, alphabet, bound=1000):
    """`oracle.apply` by the composition route it replaced: compose the
    string's identity transducer with t, project the output side, remove
    epsilons, trim, and enumerate the result's language."""
    from rwc import fsm, oracle
    ids = oracle._to_ids(alphabet, input_seq)
    comp = fsm.compose(fsm.id_transducer(aut_string(ids)), t)
    out = fsm.Automaton(comp.num_states, comp.initial, comp.finals,
                        [(s, o, w, d) for s, _, o, w, d in comp.arcs])
    raw, truncated = oracle.enumerate_language(
        fsm.trim(fsm.remove_epsilon(out)), bound)
    return {oracle._names(alphabet, s): w for s, w in raw.items()}, truncated


def not_dfas(a, b):
    """Acceptors over labels a and b that are not accessible DFAs, one per
    way of failing: two arcs with one label from one state, an epsilon
    arc, an inaccessible state, and a weighted machine."""
    from rwc.fsm import Automaton
    return [
        Automaton(2, 0, {1: 0.0},
                  [(0, a, 0.0, 0), (0, b, 0.0, 0), (0, b, 0.0, 1)]),
        Automaton(2, 0, {1: 0.0}, [(0, EPS, 0.0, 1)]),
        Automaton(3, 0, {1: 0.0}, [(0, a, 0.0, 1), (2, b, 0.0, 1)]),
        Automaton(2, 0, {1: 0.0}, [(0, a, 1.0, 1)]),
    ]


def canonical(t):
    """State count, finals, arcs and weighted flag of a transducer under
    BFS renumbering from the initial state, each state's arcs visited in
    (in, out, weight) order; states BFS does not reach follow in their
    old order. Unique for compacted machines, whose arcs leaving a state
    differ in (in, out, weight)."""
    order = {}
    queue = deque()

    def number(q):
        if q not in order:
            order[q] = len(order)
            queue.append(q)

    number(t.initial)
    while queue or len(order) < t.num_states:
        if not queue:
            number(min(set(range(t.num_states)) - set(order)))
        for a in sorted(t.out_arcs(queue.popleft()), key=lambda a: a[1:-1]):
            number(a[-1])
    arcs = sorted((order[s], i, o, w, order[d]) for s, i, o, w, d in t.arcs)
    finals = {order[q]: w for q, w in t.finals.items()}
    return t.num_states, finals, arcs, t.weighted


def weights_close(d1, d2, tol=1e-9):
    return set(d1) == set(d2) and all(
        math.isclose(d1[k], d2[k], abs_tol=tol) for k in d1)


# ---------------------------------------------------------------------------
# Reference sweep: the name-level relation and comparison that the id-level
# sweep in rwc.oracle replaced, kept as they were
# ---------------------------------------------------------------------------

def reference_relation_upto(t, alphabet, max_len, bound_per_input=4096,
                            max_out_len=None):
    """{input names: {output names: weight}} of t on every input over the
    user alphabet up to max_len, by the breadth-first traversal that
    converts every input and output to names."""
    from rwc.errors import DivergentError
    from rwc.oracle import _names
    sigma = alphabet.sigma()
    if max_out_len is None:
        max_out_len = 8 * max_len + 32
    n = t.num_states
    eps_arcs = [[] for _ in range(n)]
    sym_arcs = [dict() for _ in range(n)]
    for s, i, o, w, d in t.arcs:
        if i == EPS:
            eps_arcs[s].append((o, w, d))
        else:
            sym_arcs[s].setdefault(i, []).append((o, w, d))

    def eps_close(configs):
        work = list(configs.items())
        steps = 0
        while work:
            (q, out), w = work.pop()
            if w > configs.get((q, out), INF):
                continue
            for o, aw, r in eps_arcs[q]:
                no = out + (o,) if o != EPS else out
                if len(no) > max_out_len:
                    raise DivergentError("output grew past the bound")
                nw = w + aw
                key = (r, no)
                if nw < configs.get(key, INF):
                    configs[key] = nw
                    work.append((key, nw))
                    steps += 1
                    if steps > 2_000_000:
                        raise DivergentError("epsilon closure diverged")
        return configs

    results = {}

    def record(u, configs):
        rec = {}
        for (q, out), w in configs.items():
            if q in t.finals:
                tw = w + t.finals[q]
                if tw < rec.get(out, INF):
                    rec[out] = tw
        if len(rec) > bound_per_input:
            raise DivergentError("more outputs than the enumeration bound")
        if rec:
            results[u] = rec

    layer = {(): eps_close({(t.initial, ()): 0.0})}
    record((), layer[()])
    for _ in range(max_len):
        nxt = {}
        for u, configs in layer.items():
            for a in sigma:
                moved = {}
                for (q, out), w in configs.items():
                    for o, aw, r in sym_arcs[q].get(a, ()):
                        no = out + (o,) if o != EPS else out
                        if len(no) > max_out_len:
                            raise DivergentError("output grew past bound")
                        nw = w + aw
                        key = (r, no)
                        if nw < moved.get(key, INF):
                            moved[key] = nw
                if moved:
                    nxt[u + (a,)] = eps_close(moved)
        layer = nxt
        for u, configs in layer.items():
            record(u, configs)
    named = {}
    for u, rec in results.items():
        named[_names(alphabet, u)] = {
            _names(alphabet, o): w for o, w in rec.items()}
    return named


def reference_compare(rel, expected, alphabet, max_len, need_output=False,
                      tol=1e-9, max_report=10):
    """Compare a relation of `reference_relation_upto` with `expected`, a
    function from input names to {output names: weight}; returns
    (equivalent, counterexamples, strings checked)."""
    counterexamples = []
    checked = 0
    for u in all_strings(alphabet.symbols, max_len):
        checked += 1
        o1 = rel.get(u, {})
        o2 = expected(u)
        ok = set(o1) == set(o2) and all(
            abs(w - o2[k]) <= tol for k, w in o1.items())
        if not ok or (need_output and not o2):
            counterexamples.append((u, o1, o2))
            if len(counterexamples) >= max_report:
                break
    return not counterexamples, counterexamples, checked


def reference_equivalent_on(t1, t2, alphabet, max_len, tol=1e-9,
                            max_report=10):
    r2 = reference_relation_upto(t2, alphabet, max_len)
    return reference_compare(reference_relation_upto(t1, alphabet, max_len),
                             lambda u: r2.get(u, {}), alphabet, max_len,
                             tol=tol, max_report=max_report)


def check_rule(rule, t, alphabet, max_len):
    """Compare the transducer t compiled from `rule` with the rewriting
    oracle on every input over the user alphabet up to max_len.
    Counterexamples are (input, t's outputs, the oracle's outputs); an
    input the oracle maps to nothing is one too."""
    from rwc import oracle
    orc = oracle.RewriteOracle(rule, alphabet)
    return oracle._compare(oracle._relation(t, alphabet.sigma(), max_len),
                           orc.relation(alphabet.sigma(), max_len), alphabet,
                           max_len, need_output=True)


def reference_rewrite_ids(orc, ids):
    """`RewriteOracle.rewrite_ids` as it was before the oracle's sweep
    shared its tables: both tables built from scratch for the one string,
    and the dynamic program run on every input, site or no site."""
    from rwc.errors import DivergentError
    from rwc.oracle import _overflow
    n = len(ids)
    bound = orc.bound
    rho_ok = [bool(orc.rho.match_lengths(ids, j)) for j in range(n + 1)]
    sites = []
    for i in range(n):
        ms = [m for m in orc.phi.match_lengths(ids, i)
              if m > 0 and rho_ok[i + m]]
        sites.append(ms)
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
            if ms and orc.lam_rev.ends_with_match(out):
                if orc.psi_truncated:
                    raise DivergentError(
                        f"psi admits more than {bound} strings")
                for m in ms:
                    tgt = buckets[i + m]
                    for s, v in orc.psi_strings.items():
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


# ---------------------------------------------------------------------------
# Reference kernels: determinization, composition, intersection and trimming
# as they were before label classes and integer state keys, less the counter
# and deadline; the library's versions must build byte-identical machines
# ---------------------------------------------------------------------------

def reference_determinize(a):
    """Subset construction one label at a time."""
    from rwc.fsm import Automaton, _eps_closures
    finals_in = set(a.finals)
    eps_from = [[] for _ in range(a.num_states)]
    sym_from = [[] for _ in range(a.num_states)]
    for s, l, w, d in a.arcs:
        if l == EPS:
            eps_from[s].append((w, d))
        else:
            sym_from[s].append((l, d))
    closures = [frozenset(c) for c in _eps_closures(a.num_states, eps_from)]

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


def reference_trim(m):
    """Accessible and co-accessible states, by a forward and a backward
    walk over every arc."""
    n = m.num_states
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for a in m.arcs:
        fwd[a[0]].append(a[-1])
        bwd[a[-1]].append(a[0])
    reach = bytearray(n)
    stack = [m.initial]
    reach[m.initial] = 1
    while stack:
        q = stack.pop()
        for r in fwd[q]:
            if not reach[r]:
                reach[r] = 1
                stack.append(r)
    coreach = bytearray(n)
    stack = [q for q in m.finals if reach[q]]
    for q in stack:
        coreach[q] = 1
    while stack:
        q = stack.pop()
        for r in bwd[q]:
            if not coreach[r]:
                coreach[r] = 1
                stack.append(r)
    keep = [q for q in range(n) if reach[q] and coreach[q]]
    if len(keep) == n:
        return m
    if not keep:
        return type(m)(1, 0, {}, ())
    remap = {q: i for i, q in enumerate(keep)}
    arcs = [(remap[a[0]], *a[1:-1], remap[a[-1]]) for a in m.arcs
            if a[0] in remap and a[-1] in remap]
    finals = {remap[q]: w for q, w in m.finals.items() if q in remap}
    return type(m)(len(keep), remap[m.initial], finals, arcs)


def reference_intersect(a, b):
    """Product on tuple-keyed states, built whole, then trimmed."""
    from rwc.fsm import Automaton, remove_epsilon
    a = remove_epsilon(a)
    b = remove_epsilon(b)
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
    while queue:
        p, q = pq = queue.popleft()
        cur = ids[pq]
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
    return reference_trim(Automaton(len(ids), 0, finals, arcs))


def reference_compose(t1, t2):
    """Filtered composition on tuple-keyed states, built whole, then
    trimmed."""
    from rwc.fsm import Transducer
    state_ids = {}
    queue = deque()

    def sid(key):
        if key not in state_ids:
            state_ids[key] = len(state_ids)
            queue.append(key)
        return state_ids[key]

    def in_index(q):
        # t2's arcs out of q by input label, as (olabel, weight, dst)
        d = {}
        for _, ilab, olab, w, dst in t2.out_arcs(q):
            d.setdefault(ilab, []).append((olab, w, dst))
        return d

    sid((t1.initial, t2.initial, 0))
    arcs = []
    finals = {}
    while queue:
        key = queue.popleft()
        q1, q2, flt = key
        cur = state_ids[key]
        if q1 in t1.finals and q2 in t2.finals:
            finals[cur] = t1.finals[q1] + t2.finals[q2]
        idx2 = in_index(q2)
        eps2 = idx2.get(EPS, ())
        for _, a, b, w1, p1 in t1.out_arcs(q1):
            if b != EPS:
                for c, w2, p2 in idx2.get(b, ()):
                    arcs.append((cur, a, c, w1 + w2, sid((p1, p2, 0))))
            else:
                if flt != 2:
                    arcs.append((cur, a, EPS, w1, sid((p1, q2, 1))))
                if flt == 0:
                    for c, w2, p2 in eps2:
                        arcs.append((cur, a, c, w1 + w2, sid((p1, p2, 0))))
        if flt != 1:
            for c, w2, p2 in eps2:
                arcs.append((cur, EPS, c, w2, sid((q1, p2, 2))))
    out = Transducer(len(state_ids), 0, finals, arcs)
    return reference_trim(out)


def machine_fields(m):
    """Everything that defines a machine, arcs in order: two machines with
    equal fields format to the same text."""
    return (type(m), m.num_states, m.initial, m.finals, m.weighted, m.arcs)


# ---------------------------------------------------------------------------
# Reference cascade: compile_rule's five factors as a left fold, the order
# used before r ∘ f was built from the unreversed markers
# ---------------------------------------------------------------------------

def reference_cascade(rule, alphabet, compact=True):
    """(((r ∘ f) ∘ replace) ∘ l1) ∘ l2 from the five public builders,
    compacted over every label by `reference_compact_transducer` unless
    `compact` is False."""
    from rwc import compiler as C
    from rwc import fsm
    from rwc.rulespec import series_to_wfsa
    t = fsm.compose(C.build_r(rule.rho, alphabet),
                    C.build_f(rule.phi, alphabet))
    for m in (C.build_replace(rule.phi, series_to_wfsa(rule.psi, alphabet),
                              alphabet),
              C.build_l1(rule.lam, alphabet),
              C.build_l2(rule.lam, alphabet)):
        t = fsm.compose(t, m)
    return reference_compact_transducer(t) if compact else t


# ---------------------------------------------------------------------------
# Reference fold and writer: compile_ruleset compacting after every
# composition, and format_machine writing one arc at a time
# ---------------------------------------------------------------------------

def reference_ruleset(ruleset, compact=True):
    """compile_ruleset's left fold over the block representatives, with
    every rule compiled over all of the file's representatives and the
    fold compacted over every label (`reference_compact_transducer`)
    after each composition."""
    from rwc import compiler as C
    from rwc import fsm
    alphabet = ruleset.alphabet
    blocks = C.symbol_blocks(ruleset)
    rep = {x: block[0] for block in blocks for x in block}
    reduced = Alphabet([block[0] for block in blocks])
    t = C.identity_over_sigma(reduced)
    for rule in ruleset.rules:
        rule = R.Rule(*(R.rename(ast, rep)
                        for ast in (rule.phi, rule.psi, rule.lam, rule.rho)))
        t = fsm.compose(t, C.compile_rule(rule, reduced, compact).transducer)
        if compact:
            t = reference_compact_transducer(t)
    members = [(EPS,)] + [alphabet.ids_of(block) for block in blocks]
    return C._expand(t, members, reduced)


def reference_format_machine(m, alphabet):
    """format_machine's text, built line by line with a label check on
    each arc label in turn."""
    from rwc.errors import FormatError
    from rwc.fsm import RESERVED_NAMES
    from rwc.textio import _check_size
    _check_size(m.num_states)
    kind = "acceptor" if m.tapes == 1 else "transducer"
    wtag = "weighted" if m.weighted else "unweighted"
    lines = [f"WFST v1 {wtag} {kind}", f"states {m.num_states}"]
    lines.append("sym 0 <eps>")
    for i, name in enumerate(alphabet.symbols, start=1):
        lines.append(f"sym {i} {name}")
    for off, name in enumerate(RESERVED_NAMES[1:], start=1):
        lines.append(f"sym {alphabet.n + off} {name}")
    max_label = alphabet.num_labels - 1
    lines.append(f"init {m.initial}")
    for q in sorted(m.finals):
        lines.append(f"final {q} {float(m.finals[q])!r}")
    for a in m.arcs:
        labs = a[1:-2]
        for l in labs:
            if not (0 <= l <= max_label):
                raise FormatError(
                    f"label {l} has no name in the symbol table")
        lines.append(f"arc {a[0]} {a[-1]} " + " ".join(map(str, labs))
                     + f" {float(a[-2])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference compaction: compact_transducer encoding every label and running
# the subset construction even on an encoding that is already a DFA
# ---------------------------------------------------------------------------

def reference_compact_transducer(t):
    """compact_transducer over every label, with determinize always run
    on the encoding: no label blocks and no skipped subset construction.
    A -0.0 weight reads as 0.0."""
    from rwc.boolean_ops import determinize, minimize
    from rwc.fsm import Automaton, Transducer

    def triples(arcs):
        return {(i, o, w + 0.0) for _, i, o, w, _ in arcs}

    if any(t.finals.values()) or any(i == EPS and o == EPS and w
                                     for i, o, w in triples(t.arcs)):
        t = fsm.remove_epsilon(t)
    if any(t.finals.values()):
        sf = t.num_states
        entries = [(q, EPS, EPS, w, sf) for q, w in t.finals.items()]
        t = Transducer(t.num_states + 1, t.initial, {sf: 0.0},
                       t.arcs + tuple(entries))
    decode = sorted(triples(t.arcs) | {(EPS, EPS, 0.0)})
    codes = {key: lab for lab, key in enumerate(decode)}
    enc = Automaton(t.num_states, t.initial, {q: 0.0 for q in t.finals},
                    [(a[0], codes[a[1:4]], 0.0, a[4]) for a in t.arcs])
    m = minimize(determinize(enc))
    out_arcs = [(s, *decode[lab], d) for s, lab, _, d in m.arcs]
    return Transducer(m.num_states, m.initial, m.finals, out_arcs)


# ---------------------------------------------------------------------------
# Reference lexer: rulespec._lex before its branches shared one token tail
# ---------------------------------------------------------------------------

_Tok = namedtuple("_Tok", "kind value line col")
_PUNCT = {";": "SEMI", ":": "COLON", "/": "SLASH", "*": "STAR",
          "?": "QMARK", "(": "LPAREN", ")": "RPAREN", "]": "RBRACK"}
_ATOM_END = {"NAME", "ZERO", "RPAREN", "RBRACK"}


def reference_lex(text):
    """The rule-file lexer as it was when every token branch appended its
    own token and advanced the offset, the column and `prev_end`."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg, l=None, c=None):
        raise RuleSyntaxError(msg, l if l is not None else line,
                              c if c is not None else col)

    def adjacent_atom():
        return toks and toks[-1].kind in _ATOM_END and prev_end == i

    prev_end = -1
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(_Tok("ARROW", "->", line, col))
                i += 2
                col += 2
                prev_end = i
                continue
            err("stray '-' (expected '->')")
        if ch == "+":
            kind = "PLUSPOST" if adjacent_atom() else "PLUSUNION"
            toks.append(_Tok(kind, "+", line, col))
            i += 1
            col += 1
            prev_end = i
            continue
        if ch == "[":
            if i + 1 < n and text[i + 1] == "^":
                toks.append(_Tok("LBRACKNEG", "[^", line, col))
                i += 2
                col += 2
            else:
                toks.append(_Tok("LBRACK", "[", line, col))
                i += 1
                col += 1
            prev_end = i
            continue
        if ch == "<":
            j = i + 1
            if j < n and text[j] == "-":
                raise NegativeWeightError(
                    f"negative weight at line {start_line}, "
                    f"col {start_col}")
            k = j
            while k < n and (text[k].isdigit() or text[k] in ".eE"
                             or (text[k] in "+-" and k > j
                                 and text[k - 1] in "eE")):
                k += 1
            if k == j or k >= n or text[k] != ">":
                err("expected '<number>' weight")
            try:
                w = float(text[j:k])
            except ValueError:
                err(f"bad weight literal {text[j:k]!r}",
                    start_line, start_col)
            if w < 0:
                raise NegativeWeightError(
                    f"negative weight at line {start_line}")
            if w == fsm.INF:
                err(f"weight {text[j:k]!r} is too large",
                    start_line, start_col)
            toks.append(_Tok("WEIGHT", w, line, col))
            col += k + 1 - i
            i = k + 1
            prev_end = i
            continue
        if ch in _PUNCT:
            toks.append(_Tok(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            prev_end = i
            continue
        if ch == "_":
            toks.append(_Tok("USCORE", "_", line, col))
            i += 1
            col += 1
            prev_end = i
            continue
        if ch == "0":
            if i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_"):
                err("names may not start with a digit")
            toks.append(_Tok("ZERO", "0", line, col))
            i += 1
            col += 1
            prev_end = i
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], line, col))
            col += j - i
            i = j
            prev_end = i
            continue
        err(f"unexpected character {ch!r}")
    toks.append(_Tok("EOF", None, line, col))
    return toks
