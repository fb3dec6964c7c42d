"""Compilation of obligatory left-to-right rewrite rules into weighted
transducers. The paper composes five machines:

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
rule: the r automaton, the f automaton, and one Σ*λ automaton.

`compile_rule` composes four machines:

    reverse(tau_r ∘ tau_f) ∘ (replace ∘ tau_l)

r and f are the reversals of the TYPE 1 markers tau_r and tau_f, and
r ∘ f = reverse(tau_r ∘ tau_f). Built forward from the deterministic
markers, the product visits only live pairs, where r ∘ f built forward
from the reversed machines mostly reaches no final. l1 and l2 step the
same Σ*λ DFA and neither moves on a marker, so their product is that DFA
with LB1 deleted at its finals and LB2 elsewhere: tau_l builds it with
no |Σ|-wide product. replace ∘ tau_l is small, so it is built first and
the |Σ|-wide product once. After compaction the machine is that of the
paper's left fold. `build_r`, `build_f`, `build_l1` and `build_l2`, the
paper's factors, serve only as that reference and for tracing by name.

`symbol_blocks` decides which symbols a rule cannot tell apart: they sit
in the same phi, lambda and rho leaves and in no psi leaf, so their arcs
copy one another's. `compile_rule` builds its machine over the alphabet
it is given and compacts it over one representative per block, widening
the result back with `_expand`; compaction is canonical, so the machine
is the one of compacting over every label. A rule set compiles over one
representative per block of symbols its rules cannot tell apart: each
rule over its own representatives (`rule_over_blocks`), widened to the
file's, the rules composed as a balanced tree (pairs, then pairs of
pairs; composition is associative), the product compacted once and
expanded to the full alphabet once at the end.
"""

from collections import defaultdict

from . import fsm
from .boolean_ops import compact_transducer, count_ops, determinize
from .errors import PhiNullableError, PsiEmptyError, WeightOverflowError
from .fsm import EPS, Alphabet, Transducer
from .marker import MarkerKind, MarkerSpec, marker
from .rulespec import (Rule, RuleSet, compile_regex, leaf_names, nullable,
                       rename, series_to_wfsa)


class CompileStats:
    __slots__ = ("states", "arcs", "subset_constructions")

    def __init__(self, states, arcs, subset_constructions):
        self.states, self.arcs = states, arcs
        self.subset_constructions = subset_constructions


class CompiledRule:
    __slots__ = ("transducer", "stats")

    def __init__(self, transducer, stats):
        self.transducer, self.stats = transducer, stats


def _marker_dfa(beta_nfa, working_labels):
    """det( working* . beta ), the marker-construction input."""
    nfa = fsm.aut_concat([fsm.aut_sigma_star(working_labels), beta_nfa])
    return determinize(nfa)


def _tau_r(rho, alphabet):
    """The TYPE 1 marker of det(Σ* reverse(rho)): read left to right, it
    inserts RB after every occurrence of reverse(rho)."""
    sigma = alphabet.sigma()
    rho_rev = fsm.reverse(compile_regex(rho, alphabet))
    spec = MarkerSpec(MarkerKind.TYPE1, insertions={alphabet.rb})
    return marker(_marker_dfa(rho_rev, sigma), spec, sigma)


def build_r(rho, alphabet):
    """Transducer inserting RB before every occurrence of rho: the reversed
    TYPE 1 marker of det(Σ* reverse(rho))."""
    return fsm.reverse(_tau_r(rho, alphabet))


def _tau_f(phi, alphabet):
    """The TYPE 1 marker of det((Σ ∪ {RB})* RB reverse(phi)), phi
    ignoring RB: read left to right, it inserts LB1 or LB2 after every
    occurrence of RB reverse(phi)."""
    if nullable(phi):
        raise PhiNullableError("phi accepts the empty string")
    work = alphabet.sigma() + (alphabet.rb,)
    phi_rb = fsm.ignore_labels(compile_regex(phi, alphabet), {alphabet.rb})
    beta = fsm.aut_concat([fsm.aut_label(alphabet.rb), fsm.reverse(phi_rb)])
    spec = MarkerSpec(MarkerKind.TYPE1,
                      insertions={alphabet.lb1, alphabet.lb2})
    return marker(_marker_dfa(beta, work), spec, work)


def build_f(phi, alphabet):
    """Transducer inserting one of LB1/LB2 before each phi occurrence
    (RB-ignoring) that sits immediately before an RB; works over Σ ∪ {RB}.
    """
    return fsm.reverse(_tau_f(phi, alphabet))


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
    if psi_t.weighted:
        # psi's weights are never summed later; on a trim psi each shortest
        # distance (final weights included) is part of some path's weight
        n = psi_t.num_states
        succ = [[] for _ in range(n + 1)]
        for s, _, w, d in psi_t.arcs:
            succ[s].append((w, d))
        for q, fw in psi_t.finals.items():
            succ[q].append((fw, n))
        fsm._eps_closures(n + 1, succ)
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
    return Transducer(cp.num_states + 1, 0, {0: 0.0}, arcs)


def _lambda_dfa(lam, alphabet):
    return _marker_dfa(compile_regex(lam, alphabet), alphabet.sigma())


def build_l1(lam, alphabet):
    """Filter admitting LB1 only immediately after a lambda match, deleting
    it; LB2 passes through transparently on a self-loop at every state."""
    tau = marker(_lambda_dfa(lam, alphabet),
                 MarkerSpec(MarkerKind.TYPE2, deletions={alphabet.lb1}),
                 alphabet.sigma())
    lb2 = alphabet.lb2
    loops = [(q, lb2, lb2, 0.0, q) for q in range(tau.num_states)]
    return Transducer(tau.num_states, tau.initial, tau.finals,
                      tau.arcs + tuple(loops))


def build_l2(lam, alphabet):
    """Filter admitting LB2 only after a prefix NOT ending in a lambda
    match, deleting it."""
    return marker(_lambda_dfa(lam, alphabet),
                  MarkerSpec(MarkerKind.TYPE3, deletions={alphabet.lb2}),
                  alphabet.sigma())


def _tau_l(lam_dfa, alphabet):
    """l1 ∘ l2 as one filter over det(Σ* lambda): the TYPE 2 marker
    deleting LB1 at each final (lambda-matching) state, plus an LB2:ε
    self-loop at each non-final state."""
    tau = marker(lam_dfa, MarkerSpec(MarkerKind.TYPE2,
                                     deletions={alphabet.lb1}),
                 alphabet.sigma())
    lb2 = alphabet.lb2
    loops = [(q, lb2, EPS, 0.0, q) for q in range(tau.num_states)
             if q not in lam_dfa.finals]
    return Transducer._built(tau.num_states, tau.initial, tau.finals,
                             tau.arcs + tuple(loops))


def assert_no_markers(t, alphabet):
    """Compiled transducers must not leak marker labels."""
    bad = set(alphabet.markers()) & t.labels_used()
    if bad:
        names = ", ".join(alphabet.name_of(l) for l in sorted(bad))
        raise AssertionError(f"marker labels leaked into the result: {names}")


def compile_rule(rule, alphabet, compact=True):
    """Compose the four transducers for one rule over `alphabet` and (by
    default) compact. Compaction sees only one representative per block
    of `symbol_blocks` for the rule alone: block mates' arcs copy the
    representative's, so they are dropped, and `_expand` widens the
    compacted machine back, its arcs sorted into the (state, in, out,
    weight) order of compacting over every label; with no block mates, as
    on `compile_ruleset`'s path, it is compacted as it is, already in that
    order. The caller must ensure the rule does not rewrite its own
    non-contextual part; that condition is not checked here. The stats
    count the subset constructions of the construction proper, not
    compaction's."""
    with count_ops() as ops:
        tau_r = _tau_r(rule.rho, alphabet)
        tau_f = _tau_f(rule.phi, alphabet)
        psi_wfsa = series_to_wfsa(rule.psi, alphabet)
        rep = build_replace(rule.phi, psi_wfsa, alphabet)
        tau_l = _tau_l(_lambda_dfa(rule.lam, alphabet), alphabet)
        rf = fsm.reverse(fsm.compose(tau_r, tau_f))
        right = fsm.compose(rep, tau_l)
        t = fsm.compose(rf, right)
    if compact:
        blocks = symbol_blocks(RuleSet(alphabet, (rule,)))
        if len(blocks) == alphabet.n:  # no block mates: nothing to drop
            t = compact_transducer(t)
        else:
            blocks = list(map(alphabet.ids_of, blocks))
            drop = {x for block in blocks for x in block[1:]}
            t = compact_transducer(Transducer._built(
                t.num_states, t.initial, t.finals,
                [a for a in t.arcs if a[1] not in drop]))
            members = {block[0]: block for block in blocks}
            members[EPS] = (EPS,)
            t = _expand(t, members, alphabet)
            t = Transducer._built(t.num_states, t.initial, t.finals,
                                  sorted(t.arcs))
    assert_no_markers(t, alphabet)
    stats = CompileStats(states=t.num_states, arcs=len(t.arcs),
                         subset_constructions=ops["determinize"])
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
    # a name's key: the leaves it sits in, in one iteration order of
    # `sets`, or the name itself in psi; () for the names of no leaf
    key = {}
    for s in sets:
        for name in s:
            key[name] = key.get(name, ()) + (s,)
    key.update(zip(psi, psi))
    blocks = defaultdict(list)
    for name in ruleset.alphabet.symbols:
        blocks[key.get(name, ())].append(name)
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
    return Transducer._built(t.num_states, t.initial, t.finals, arcs)


def rule_over_blocks(rule, alphabet):
    """The rule over one representative per block of symbols it alone
    cannot tell apart: (the rule with every symbol replaced by its block's
    first member, the Alphabet of those representatives, the blocks).
    Block mates sit in the same phi, lambda and rho leaves and in no psi
    leaf, so the rule's relation is unchanged when the symbol at any one
    position is replaced by a block mate, on the input and on its copy in
    the output; the rule over its representatives decides its relation on
    every string over `alphabet`."""
    blocks = symbol_blocks(RuleSet(alphabet, (rule,)))
    rep = {x: block[0] for block in blocks for x in block}
    return (Rule(*(rename(ast, rep)
                   for ast in (rule.phi, rule.psi, rule.lam, rule.rho))),
            Alphabet([block[0] for block in blocks]), blocks)


def rule_transducer(rule, alphabet, compact):
    """`compile_ruleset`'s default per-rule compiler: `compile_rule`'s
    machine."""
    return compile_rule(rule, alphabet, compact=compact).transducer


def _compose_all(machines):
    """The composition of `machines` in order, as a balanced tree: pairs,
    then pairs of pairs, an odd machine carried up a level. A right
    sub-product also covers strings its left neighbours never output, so
    it can overflow where the whole cascade does not; then the left fold,
    whose every step lies on a path of the whole, decides."""
    level = machines
    try:
        while len(level) > 1:
            odd = level[-1:] if len(level) % 2 else []
            level = [fsm.compose(a, b)
                     for a, b in zip(level[::2], level[1::2])] + odd
        return level[0]
    except WeightOverflowError:
        t = machines[0]
        for m in machines[1:]:
            t = fsm.compose(t, m)
        return t


def compile_ruleset(ruleset, compact=True, compile_one=rule_transducer):
    """Weighted composition of the rules in file order, built as a
    balanced tree by `_compose_all` with no compaction in between and
    compacted once at the end. The tree runs over one representative per
    block of `symbol_blocks`, and the result is expanded back to the full
    alphabet once at the end. Each rule is compiled by `compile_one(rule,
    alphabet, compact)` over the pair `rule_over_blocks` gives for the
    full alphabet, and `_expand` widens each of its blocks to the file's
    representatives inside it: the file's blocks split the rule's.
    A left fold re-composes an ever-growing product; the tree composes
    machines of similar size, and its compacted result is the same
    canonical machine.
    `kk.rule_transducer` compacts each KK rule even when compact is
    False: its raw bracket-cascade machine is mostly ε:ε arcs, and their
    products can outgrow memory."""
    alphabet = ruleset.alphabet
    blocks = symbol_blocks(ruleset)
    reduced = Alphabet([block[0] for block in blocks])
    reps = set(reduced.symbols)
    machines = []
    for rule in ruleset.rules:
        rule, small, own = rule_over_blocks(rule, alphabet)
        m = compile_one(rule, small, compact)
        widen = [(EPS,)] + [reduced.ids_of([x for x in block if x in reps])
                            for block in own]
        machines.append(_expand(m, widen, small))
    t = _compose_all(machines or [identity_over_sigma(reduced)])
    if compact:
        t = compact_transducer(t)
    members = [(EPS,)] + [alphabet.ids_of(block) for block in blocks]
    return _expand(t, members, reduced)
