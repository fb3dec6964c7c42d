"""rwc: a compiler from weighted context-dependent rewrite rules
(phi -> psi / lambda _ rho, obligatory, left-to-right) to weighted
finite-state transducers over the tropical semiring, with a
bracket-cascade reference compiler, a brute-force rewriting oracle, and a
growth benchmark harness.
"""

from .boolean_ops import (compact_transducer, complement, complete,
                          count_ops, determinize, intersect, is_complete,
                          minimize, subtract)
from .compiler import (CompiledRule, build_f, build_l1, build_l2, build_r,
                       build_replace, compile_rule, compile_ruleset)
from .errors import RwcError
from .fsm import (EPS, INF, Alphabet, Automaton, Deadline, Transducer,
                  WeightedStringSet, aut_class, aut_concat, aut_epsilon,
                  aut_label, aut_sigma_star, aut_star, aut_union,
                  aut_weighted, compose, cross_product, id_transducer,
                  ignore_labels, remove_epsilon, reverse, trim)
from .kk import KkBrackets, kk_compile_rule, kk_rightcontext_probe
from .marker import MarkerKind, MarkerSpec, marker
from .oracle import (RewriteOracle, apply, equivalent_on, oracle_rewrite,
                     relation_upto)
from .rulespec import (Rule, RuleSet, compile_regex, evaluate_series,
                       parse_regex, parse_rule_file, parse_series,
                       series_to_wfsa)
from .textio import format_machine, parse_machine, read_machine, write_machine

__version__ = "0.1.0"
