"""Compilation of obligatory left-to-right rewrite rules into weighted
transducers by composing five machines:

    r ∘ f ∘ replace ∘ l1 ∘ l2

r inserts the marker RB (">") before every occurrence of the right
context; f inserts one of LB1/LB2 ("<1"/"<2") before every occurrence of
phi that sits immediately before an RB; replace rewrites every LB1-opened
phi span to a psi string (deleting RB everywhere); l1 admits LB1 only
right after a left-context match and deletes it; l2 admits LB2 only where
the left context does NOT match and deletes it.

Because r and f run before replace and l1/l2 after, the right context is
matched against the input side and the left context against the already
rewritten output side. Only three subset constructions are needed per
rule: the r automaton, the f automaton, and one shared Σ*λ automaton for
l1 and l2.

A rule set compiles over one representative per block of symbols its
rules cannot tell apart, and is expanded to the full alphabet once at
the end; `compile_rule` always works over the alphabet it is given.
"""

import time
from dataclasses import dataclass

from . import fsm
from .boolean_ops import OpCounter, compact_transducer, determinize
from .errors import PhiNullableError, PsiEmptyError
from .fsm import EPS, Alphabet, Transducer
from .marker import MarkerKind, MarkerSpec, marker
from .rulespec import (Rule, compile_regex, leaf_names, nullable, rename,
                       series_to_wfsa)


@dataclass
class CompileStats:
    states: int
    arcs: int
    build_ms: float
    subset_constructions: int


@dataclass
class CompiledRule:
    transducer: Transducer
    stats: CompileStats


def _marker_dfa(beta_nfa, working_labels, counter=None, deadline=None):
    """det( working* . beta ), the marker-construction input."""
    nfa = fsm.aut_concat([fsm.aut_sigma_star(working_labels), beta_nfa])
    return determinize(nfa, counter, deadline)


def build_r(rho, alphabet, counter=None, deadline=None):
    """Transducer inserting RB before every occurrence of rho: the reversed
    TYPE 1 marker of det(Σ* reverse(rho))."""
    sigma = alphabet.sigma()
    rho_rev = fsm.reverse(compile_regex(rho, alphabet))
    dfa = _marker_dfa(rho_rev, sigma, counter, deadline)
    tau = marker(dfa, MarkerSpec(MarkerKind.TYPE1,
                                 insertions=frozenset({alphabet.rb})),
                 sigma)
    return fsm.reverse(tau)


def build_f(phi, alphabet, counter=None, deadline=None):
    """Transducer inserting one of LB1/LB2 before each phi occurrence
    (RB-ignoring) that sits immediately before an RB; works over Σ ∪ {RB}.
    """
    if nullable(phi):
        raise PhiNullableError("phi accepts the empty string")
    work = alphabet.sigma() + (alphabet.rb,)
    phi_rb = fsm.ignore_labels(compile_regex(phi, alphabet), {alphabet.rb})
    beta = fsm.aut_concat([fsm.aut_label(alphabet.rb), fsm.reverse(phi_rb)])
    dfa = _marker_dfa(beta, work, counter, deadline)
    tau = marker(dfa, MarkerSpec(MarkerKind.TYPE1,
                                 insertions=frozenset({alphabet.lb1,
                                                       alphabet.lb2})),
                 work)
    return fsm.reverse(tau)


def build_replace(phi, psi_wfsa, alphabet, pad_out=EPS, open_label=None,
                  pass_label=None, close_label=None):
    """The replacement transducer: a base state copying Σ, deleting the
    close label and passing the pass label; the open label opens a
    mandatory phi x psi block whose states delete all three labels,
    exiting back to base on the span-closing close label. Open, pass and
    close (all or none) default to LB1, LB2 and RB; the KK baseline passes
    its brackets, and a `pad_out` for phi symbols psi leaves unmatched."""
    if nullable(phi):
        raise PhiNullableError("phi accepts the empty string")
    psi_t = fsm.trim(psi_wfsa)
    if not psi_t.finals:
        raise PsiEmptyError("psi denotes the empty language")
    phi_aut = compile_regex(phi, alphabet)
    cp = fsm.cross_product(phi_aut, psi_wfsa, pad_out=pad_out)
    if open_label is None:
        open_label, pass_label, close_label = (alphabet.lb1, alphabet.lb2,
                                               alphabet.rb)
    off = 1
    arcs = [(0, a, a, 0.0, 0) for a in alphabet.sigma()]
    arcs.append((0, close_label, EPS, 0.0, 0))
    arcs.append((0, pass_label, pass_label, 0.0, 0))
    arcs.append((0, open_label, open_label, 0.0, cp.initial + off))
    for s, i, o, w, d in cp.arcs:
        arcs.append((s + off, i, o, w, d + off))
    for q in range(cp.num_states):
        for m in (close_label, open_label, pass_label):
            arcs.append((q + off, m, EPS, 0.0, q + off))
    for q, fw in cp.finals.items():
        arcs.append((q + off, close_label, EPS, fw, 0))
    return Transducer(cp.num_states + 1, 0, {0: 0.0}, arcs,
                      weighted=any(a[3] for a in arcs))


def _lambda_dfa(lam, alphabet, counter=None, deadline=None):
    return _marker_dfa(compile_regex(lam, alphabet), alphabet.sigma(),
                       counter, deadline)


def build_l1(lam, alphabet, counter=None, lam_dfa=None, deadline=None):
    """Filter admitting LB1 only immediately after a lambda match, deleting
    it; LB2 passes through transparently via added self-loops."""
    if lam_dfa is None:
        lam_dfa = _lambda_dfa(lam, alphabet, counter, deadline)
    tau = marker(lam_dfa, MarkerSpec(MarkerKind.TYPE2,
                                     deletions=frozenset({alphabet.lb1})),
                 alphabet.sigma())
    return fsm.add_loops(tau, {(alphabet.lb2, alphabet.lb2)})


def build_l2(lam, alphabet, counter=None, lam_dfa=None, deadline=None):
    """Filter admitting LB2 only after a prefix NOT ending in a lambda
    match, deleting it."""
    if lam_dfa is None:
        lam_dfa = _lambda_dfa(lam, alphabet, counter, deadline)
    return marker(lam_dfa, MarkerSpec(MarkerKind.TYPE3,
                                      deletions=frozenset({alphabet.lb2})),
                  alphabet.sigma())


def assert_no_markers(t, alphabet):
    """Compiled transducers must not leak marker labels."""
    bad = set(alphabet.markers()) & t.labels_used()
    if bad:
        names = ", ".join(alphabet.name_of(l) for l in sorted(bad))
        raise AssertionError(f"marker labels leaked into the result: {names}")


def compile_rule(rule, alphabet, compact=True, deadline=None):
    """Compose the five transducers for one rule and (by default) compact.
    The caller must ensure the rule does not rewrite its own non-contextual
    part; that condition is not checked here."""
    t0 = time.perf_counter()
    counter = OpCounter()
    r = build_r(rule.rho, alphabet, counter, deadline)
    f = build_f(rule.phi, alphabet, counter, deadline)
    psi_wfsa = series_to_wfsa(rule.psi, alphabet)
    rep = build_replace(rule.phi, psi_wfsa, alphabet)
    lam_dfa = _lambda_dfa(rule.lam, alphabet, counter, deadline)
    l1 = build_l1(rule.lam, alphabet, lam_dfa=lam_dfa)
    l2 = build_l2(rule.lam, alphabet, lam_dfa=lam_dfa)
    t = fsm.compose(r, f, deadline)
    t = fsm.compose(t, rep, deadline)
    t = fsm.compose(t, l1, deadline)
    t = fsm.compose(t, l2, deadline)
    if compact:
        t = compact_transducer(t, deadline)
    assert_no_markers(t, alphabet)
    ms = (time.perf_counter() - t0) * 1000.0
    stats = CompileStats(
        states=t.num_states, arcs=len(t.arcs), build_ms=ms,
        subset_constructions=counter.determinizations)
    return CompiledRule(transducer=t, stats=stats)


def identity_over_sigma(alphabet):
    """One-state identity transducer over Σ* (the empty rule set compiles
    to this)."""
    return Transducer(1, 0, {0: 0.0},
                      [(0, a, a, 0.0, 0) for a in alphabet.sigma()])


def symbol_blocks(ruleset):
    """Partition Σ into blocks of symbols the rule set cannot tell apart:
    two symbols share a block when they sit in exactly the same phi,
    lambda and rho leaves (Sym or Cls, negated classes expanded). Every
    symbol of a psi leaf is a block of its own, so a representative never
    stands on both tapes of a phi x psi pair. Blocks come in declaration
    order of their first member, members in declaration order."""
    sets = {frozenset(names) for rule in ruleset.rules
            for ast in (rule.phi, rule.lam, rule.rho)
            for names in leaf_names(ast)}
    psi = {n for rule in ruleset.rules for names in leaf_names(rule.psi)
           for n in names}
    blocks = {}
    for name in ruleset.alphabet.symbols:
        key = name if name in psi else frozenset(s for s in sets if name in s)
        blocks.setdefault(key, []).append(name)
    return [tuple(b) for b in blocks.values()]


def _expand(t, members, reduced):
    """t over the representatives of `reduced`, with each arc r:r turned
    into x:x and each arc r:o into x:o for every member label x of r's
    block; members[r] lists them (members[EPS] is (EPS,))."""
    arcs = []
    for s, i, o, w, d in t.arcs:
        if i > reduced.n or o > reduced.n:
            raise AssertionError("marker label leaked into the result: "
                                 + reduced.name_of(max(i, o)))
        if i == o:
            arcs.extend((s, x, x, w, d) for x in members[i])
            continue
        if len(members[o]) > 1:
            raise AssertionError("block representative "
                                 f"{reduced.name_of(o)} is an output only")
        arcs.extend((s, x, members[o][0], w, d) for x in members[i])
    return Transducer(t.num_states, t.initial, t.finals, arcs,
                      weighted=t.weighted)


def compile_ruleset(ruleset, compact=True, deadline=None):
    """Left fold of weighted composition over the rules in file order,
    compacting after each composition. The fold runs over one
    representative per block of `symbol_blocks`, and the result is
    expanded back to the full alphabet once at the end."""
    alphabet = ruleset.alphabet
    blocks = symbol_blocks(ruleset)
    rep = {x: block[0] for block in blocks for x in block}
    reduced = Alphabet([block[0] for block in blocks])
    t = identity_over_sigma(reduced)
    for rule in ruleset.rules:
        rule = Rule(*(rename(ast, rep)
                      for ast in (rule.phi, rule.psi, rule.lam, rule.rho)))
        cr = compile_rule(rule, reduced, compact=compact, deadline=deadline)
        t = fsm.compose(t, cr.transducer, deadline)
        if compact:
            t = compact_transducer(t, deadline=deadline)
    members = [(EPS,)] + [alphabet.ids_of(block) for block in blocks]
    return _expand(t, members, reduced)
