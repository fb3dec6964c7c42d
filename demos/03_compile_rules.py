"""Compiling rewrite rules into transducers.

A rule phi -> psi / lambda _ rho rewrites phi to psi wherever lambda
precedes and rho follows, obligatorily, scanning left to right. The
compiler builds it as a composition of four transducers (the paper's
five, with the two left-context filters fused); this demo only looks at
the result.
"""

import math

from rwc import apply, compile_rule, compile_ruleset, oracle_rewrite
from rwc.rulespec import parse_rule_file

# Right contexts are matched against the input, left contexts against the
# already rewritten output. The second rule shows why that matters: the b
# written by one application feeds the left context of the next.
rules = parse_rule_file("""
alphabet: a b c d ;
a -> b / c _ d ;
""")
cr = compile_rule(rules.rules[0], rules.alphabet)
print(f"a -> b / c _ d compiles to {cr.stats.states} states, "
      f"{cr.stats.arcs} arcs, {cr.stats.subset_constructions} subset "
      "constructions")
for text in ["cad", "ad", "cadcad"]:
    out, _ = apply(cr.transducer, text, rules.alphabet)
    print(f"  {text} -> {sorted(out.entries)}")

chain = parse_rule_file("alphabet: a b ;\n a -> b / b _ ;\n")
cb = compile_rule(chain.rules[0], chain.alphabet)
out, _ = apply(cb.transducer, "baa", chain.alphabet)
print(f"\na -> b / b _ on 'baa' -> {sorted(out.entries)}  "
      "(each new b licenses the next)")

# A weighted rule: an abstract nasal N becomes m with cost -log 0.9 and n
# with cost -log 0.1 before a labial.
wa, wb = -math.log(0.9), -math.log(0.1)
nasal = parse_rule_file(
    "alphabet: b m n p N a ;\n"
    f"N -> <{wa!r}> m + <{wb!r}> n / _ [b m p] ;\n")
cn = compile_rule(nasal.rules[0], nasal.alphabet)
out, _ = apply(cn.transducer, "Nb", nasal.alphabet)
print("\nweighted nasal rule on 'Nb':")
for names, w in out.sorted_items():
    print(f"  {''.join(names)}  {w:.6f}")

# The independent oracle interprets the rule directly on strings; it and
# the compiled transducer must always agree.
print("\noracle says:", dict(oracle_rewrite(nasal.rules[0], nasal.alphabet,
                                            "Nb").entries))

# Rule sets compose in file order (with compaction after each step).
two = parse_rule_file("alphabet: a b c ;\n a -> b / _ ;\n b -> c / _ ;\n")
t = compile_ruleset(two)
out, _ = apply(t, "a", two.alphabet)
print("\nruleset a->b then b->c sends 'a' to", sorted(out.entries))
