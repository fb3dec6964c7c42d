"""Reference bracket-cascade compiler in the Kaplan–Kay style, for
weighted obligatory left-to-right rules. Used for relation-equivalence
cross-checks against the direct compiler, as `rwc compile --algorithm kk`
and for the growth benchmarks.

The pipeline composes six transducers:

    Prologue ∘ Id(Obligatory) ∘ Id(Rightcontext) ∘ Replace
             ∘ Id(Leftcontext) ∘ Prologue⁻¹

Prologue freely introduces the six context brackets <a <i <c >a >i >c;
the constraint stages then restrict where they may occur, Replace rewrites
<a-opened phi spans (emitting the reserved placeholder "0" for deleted
material), and Prologue⁻¹ erases brackets and placeholders. The bracket
discipline mirrors the direct compiler's markers:

  * >c sits in the bracket cluster before every right-context start and
    nowhere else (two intersectands; the expensive direction "every >c is
    followed by a right-context match" is the right one and is what the
    right-context probe measures),
  * every eligible phi start carries an <a or <i mark positioned after
    its cluster's >c (so a replacement block exiting through the cluster
    cannot swallow the mark),
  * post-replacement, <a demands a left-context match and <i demands its
    absence; <c, >a, >i are never licensed.

The constraint stages are unweighted acceptors applied as identities;
weight enters only through Replace, the direct compiler's
`build_replace`, and tropical composition adds it along each path.

Everything is built from intersections, complementations, and
subtractions over the bracket-extended alphabet, which is exactly what
makes this pipeline expensive; `KkCompiledRule.ops` is the
``boolean_ops.count_ops`` tally of one rule's kernel calls.
"""

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass

from . import fsm
from .boolean_ops import (compact_transducer, complement, count_ops,
                          determinize, intersect, subtract)
from .compiler import build_replace
from .errors import PhiNullableError
from .fsm import EPS, Transducer
from .rulespec import compile_regex, nullable, series_to_wfsa


class KkBrackets:
    """The six context bracket labels plus the deleted-material placeholder
    "0", allocated above the core label scheme of an alphabet."""

    __slots__ = ("la", "li", "lc", "ra", "ri", "rc", "zero")

    def __init__(self, alphabet):
        base = alphabet.num_labels
        self.la = base
        self.li = base + 1
        self.lc = base + 2
        self.ra = base + 3
        self.ri = base + 4
        self.rc = base + 5
        self.zero = base + 6

    def all(self):
        return (self.la, self.li, self.lc, self.ra, self.ri, self.rc)


@dataclass
class KkCompiledRule:
    transducer: Transducer
    ops: Counter


def _forbid(pattern_nfa, gamma):
    """Complement of a forbidden-pattern language over gamma*."""
    return complement(determinize(pattern_nfa), gamma)


def _constraints(rule, alphabet, br):
    """The three Id() constraint stages, as acceptors over the
    bracket-extended alphabet."""
    sigma = alphabet.sigma()
    brackets = br.all()
    gamma = sigma + brackets
    gamma_post = gamma + (br.zero,)
    ignorables = set(brackets) | {br.zero}
    gs = fsm.aut_sigma_star(gamma)
    marks = (br.la, br.li)
    no_rc_junk = sorted(ignorables - {br.rc})    # cluster junk without >c
    no_mark_junk = sorted(ignorables - set(marks))

    phi_ig = fsm.ignore_labels(compile_regex(rule.phi, alphabet),
                               ignorables, allow_leading=False)
    rho_ig = fsm.ignore_labels(compile_regex(rule.rho, alphabet),
                               ignorables, allow_leading=False)
    lam_ig_lead = fsm.ignore_labels(compile_regex(rule.lam, alphabet),
                                    ignorables, allow_leading=True)

    # Obligatory: no eligible phi start (phi match, then cluster junk, then
    # >c) whose cluster lacks a mark placed after any >c. "Marked" prefixes
    # end with <a/<i followed only by >c-free junk.
    marked = fsm.aut_concat([gs, fsm.aut_class(marks),
                             fsm.aut_star(fsm.aut_class(no_rc_junk))])
    unmarked = subtract(gs, marked, gamma)
    obligatory = _forbid(
        fsm.aut_concat([unmarked, phi_ig,
                        fsm.aut_star(fsm.aut_class(no_mark_junk)),
                        fsm.aut_label(br.rc), gs]), gamma)
    # Unused brackets never occur; at most one >c per cluster.
    nostray = _forbid(
        fsm.aut_concat([gs, fsm.aut_class((br.lc, br.ra, br.ri)), gs]),
        gamma)
    unique_rc = _forbid(
        fsm.aut_concat([gs, fsm.aut_label(br.rc),
                        fsm.aut_star(fsm.aut_class(no_rc_junk)),
                        fsm.aut_label(br.rc), gs]), gamma)
    obligatory_stage = intersect(intersect(obligatory, nostray), unique_rc)

    # Rightcontext: >c iff a right-context match starts in the next cluster.
    # Left intersectand: every rho start is preceded, within its cluster,
    # by a >c. Right intersectand: every >c is followed by a rho match;
    # its inner pattern is the one whose determinization blows up.
    not_after_rc = subtract(
        gs, fsm.aut_concat([gs, fsm.aut_label(br.rc),
                            fsm.aut_star(fsm.aut_class(no_rc_junk))]), gamma)
    if nullable(rule.rho):
        # Every real boundary (including the end of the string) starts an
        # empty rho match; a split inside a bracket cluster does not.
        witness = fsm.aut_union([
            fsm.aut_concat([fsm.aut_class(sigma), gs]), fsm.aut_epsilon()])
    else:
        witness = fsm.aut_concat([rho_ig, gs])
    rc_left = _forbid(fsm.aut_concat([not_after_rc, witness]), gamma)
    rc_right = _forbid(_rc_right_pattern(rule.rho, alphabet, br), gamma)
    rightcontext_stage = intersect(rc_left, rc_right)

    # Leftcontext (post-replacement): <a only right after a lambda match,
    # <i only elsewhere.
    gs_post = fsm.aut_sigma_star(gamma_post)
    lam_post = fsm.aut_concat([gs_post, lam_ig_lead])
    no_lam = subtract(gs_post, lam_post, gamma_post)
    lc_a = _forbid(fsm.aut_concat([no_lam, fsm.aut_label(br.la), gs_post]),
                   gamma_post)
    lc_i = _forbid(fsm.aut_concat([lam_post, fsm.aut_label(br.li), gs_post]),
                   gamma_post)
    leftcontext_stage = intersect(lc_a, lc_i)

    return obligatory_stage, rightcontext_stage, leftcontext_stage


def _rc_right_pattern(rho, alphabet, br):
    """Forbidden pattern of the right intersectand: a >c followed by
    something that is not a rho match (junk-leading allowed), over the
    bracket-extended alphabet."""
    gamma = alphabet.sigma() + br.all()
    gs = fsm.aut_sigma_star(gamma)
    rho_ig_lead = fsm.ignore_labels(compile_regex(rho, alphabet),
                                    br.all() + (br.zero,), allow_leading=True)
    not_rho = subtract(gs, fsm.aut_concat([rho_ig_lead, gs]), gamma)
    return fsm.aut_concat([gs, fsm.aut_label(br.rc), not_rho])


def _prologue(alphabet, br):
    arcs = [(0, a, a, 0.0, 0) for a in alphabet.sigma()]
    arcs.extend((0, EPS, b, 0.0, 0) for b in br.all())
    return Transducer(1, 0, {0: 0.0}, arcs)


def _prologue_inv(alphabet, br):
    arcs = [(0, a, a, 0.0, 0) for a in alphabet.sigma()]
    arcs.extend((0, b, EPS, 0.0, 0) for b in br.all())
    arcs.append((0, br.zero, EPS, 0.0, 0))
    return Transducer(1, 0, {0: 0.0}, arcs)


def kk_compile_rule(rule, alphabet, deadline=None):
    """Compile one weighted rule through the bracket cascade. Returns a
    KkCompiledRule carrying the (uncompacted) transducer and the operation
    counts. A given `deadline` bounds the build in place of the enclosing
    one; the parameter stays only because the benchmark harness passes it."""
    if nullable(rule.phi):
        raise PhiNullableError("phi accepts the empty string")
    br = KkBrackets(alphabet)
    with deadline or nullcontext(), count_ops() as ops:
        obligatory, rightcontext, leftcontext = _constraints(
            rule, alphabet, br)
        t = _prologue(alphabet, br)
        rep = build_replace(rule.phi, series_to_wfsa(rule.psi, alphabet),
                            alphabet, pad_out=br.zero, open_label=br.la,
                            pass_label=br.li, close_label=br.rc)
        for stage in (fsm.id_transducer(obligatory),
                      fsm.id_transducer(rightcontext), rep,
                      fsm.id_transducer(leftcontext),
                      _prologue_inv(alphabet, br)):
            t = fsm.compose(t, stage)
    leftovers = t.labels_used() & (set(br.all()) | {br.zero})
    if leftovers:
        raise AssertionError(f"bracket labels leaked: {sorted(leftovers)}")
    return KkCompiledRule(transducer=t, ops=ops)


def rule_transducer(rule, alphabet, compact):
    """`compiler.compile_ruleset`'s per-rule compiler for the KK baseline:
    the compacted KK machine, also when compact is False, since a fold of
    the raw cascade machines can outgrow memory."""
    return compact_transducer(kk_compile_rule(rule, alphabet).transducer)


def kk_rightcontext_probe(rho, alphabet, deadline=None):
    """Build the nondeterministic automaton inside the right intersectand
    of Rightcontext, determinize it without minimization, and return
    (nfa_arcs, dfa_arcs); `deadline` as in `kk_compile_rule`."""
    with deadline or nullcontext():
        nfa = _rc_right_pattern(rho, alphabet, KkBrackets(alphabet))
        dfa = determinize(nfa)
    return len(nfa.arcs), len(dfa.arcs)
