"""The bracket-cascade baseline compiler and where its cost explodes.

The baseline introduces context brackets everywhere and then restricts
them with intersections and complementations; complementation needs
determinization, and for right contexts the automaton being determinized
grows exponentially with the context length. The direct compiler only
ever determinizes three small prefix automata.
"""

import math

from rwc import Alphabet, equivalent_on, compile_rule, kk_compile_rule, \
    kk_rightcontext_probe
from rwc.rulespec import parse_rule_file, Cat, Eps, Sym

rules = parse_rule_file("alphabet: a b c d ;\n a -> b / c _ d ;\n")
direct = compile_rule(rules.rules[0], rules.alphabet)
baseline = kk_compile_rule(rules.rules[0], rules.alphabet)
print(f"direct:   {direct.stats.states} states, "
      f"{direct.stats.subset_constructions} determinizations")
print(f"baseline: {baseline.transducer.num_states} states, "
      f"{baseline.ops['determinize']} determinizations, "
      f"{baseline.ops['intersect']} intersections, "
      f"{baseline.ops['complement']} complementations")

report = equivalent_on(direct.transducer, baseline.transducer,
                       rules.alphabet, 5)
print("same relation?", report)

# The probe: arcs of the nondeterministic right-context intersectand and
# of its determinization, for rho = c^k. Log-linear growth of the second
# column is the exponential blow-up.
alphabet = Alphabet(["a", "b", "c"])
print("\n k   nfa_arcs   dfa_arcs   log2(dfa_arcs)")
for k in range(0, 9):
    rho = Cat(tuple(Sym("c") for _ in range(k))) if k else Eps()
    nfa_arcs, dfa_arcs = kk_rightcontext_probe(rho, alphabet)
    print(f"{k:2d}   {nfa_arcs:8d}   {dfa_arcs:8d}   "
          f"{math.log2(dfa_arcs):6.2f}")
