"""Command-line front end.

    rwc compile RULES -o OUT.fst [--no-compact] [--algorithm new|kk]
                [--deadline-ms D]
    rwc apply OUT.fst INPUT [--stdin] [--nbest N]
    rwc check RULES [--max-len L] [--against OUT.fst] [--deadline-ms D]
    rwc bench --family left|right [--kmax K] [--alphabet-size N]
              [--deadline-ms D] [--skip-after N] OUT.csv

`compile --algorithm kk` folds the KK baseline's compacted rules through
the same rule-set fold. `check` exhaustively compares each compiled rule
against the brute-force rewriting oracle and against the KK baseline
compiler on every string up to the length bound; it exits 2 with
counterexamples on any mismatch. Each rule is compiled and swept over one
representative per block of symbols it alone cannot tell apart, as
`compile` compiles it, which decides every string over the alphabet; the
--against comparison composes those machines, compiling no rule again,
and sweeps the full alphabet, unless the file holds the composed machine
and a bound shows that its sweep raises nothing. Each sweep refuses
(exit 1, E_BUDGET) to cover more than `oracle.CHECK_BUDGET` input strings
over the symbols it sweeps: a rule's representatives, or the full
alphabet for --against when it sweeps.
`compile` and `check` given --deadline-ms run under one Deadline and exit 1
with E_TIMEOUT once that many milliseconds of wall time have passed.
Every subcommand exits 1 with a coded error on bad input, including an
option out of range (--max-len below 0, --nbest, --bound or --deadline-ms
below 1). The RWC_SEED environment variable seeds the
random corpora used by the test suite; the CLI subcommands themselves are
deterministic.
"""

import argparse
import sys
from contextlib import nullcontext

from . import compiler, kk, oracle, rulespec, textio
from .errors import BadOptionError, InputBudgetError, RwcError, at_least
from .fsm import Deadline


def _load_rules(path):
    with open(path, encoding="utf-8") as f:
        return rulespec.parse_rule_file(f.read())


def _scope(args):
    """The command's scope: a Deadline, or a null one without --deadline-ms."""
    at_least("--deadline-ms", args.deadline_ms, 1)
    return Deadline(args.deadline_ms) if args.deadline_ms else nullcontext()


def cmd_compile(args):
    compile_one = (kk if args.algorithm == "kk" else compiler).rule_transducer
    with _scope(args):
        ruleset = _load_rules(args.rules)
        t = compiler.compile_ruleset(ruleset, compact=not args.no_compact,
                                     compile_one=compile_one)
        textio.write_machine(args.out, t, ruleset.alphabet)
    print(f"wrote {args.out}: states={t.num_states} arcs={len(t.arcs)} "
          f"weighted={'yes' if t.weighted else 'no'}")
    return 0


def cmd_apply(args):
    at_least("--nbest", args.nbest, 1)
    at_least("--bound", args.bound, 1)
    t, alphabet = textio.read_transducer(args.fst)
    if args.stdin:
        # every line, blank ones too, as it arrives
        inputs = (ln.rstrip("\n") for ln in sys.stdin)
    elif args.input is not None:
        inputs = [args.input]
    else:
        raise BadOptionError("provide an input string or --stdin")
    for text in inputs:
        wss, truncated = oracle.apply(t, text, alphabet, bound=args.bound)
        if truncated:
            print(f"warning: output enumeration truncated at {args.bound} "
                  f"strings for {text!r}", file=sys.stderr)
        items = wss.sorted_items()
        if args.nbest is not None:
            items = items[:args.nbest]
        for names, w in items:
            print(f"{alphabet.names_to_string(names)} {w:.6f}")
    return 0


def _check_one_rule(idx, rule, alphabet, max_len, machines):
    """Oracle equivalence and KK cross-check for one rule; returns a list
    of failure strings. The rule is compiled, run through the oracle and
    the KK compiler, and swept over one representative per block of
    `compiler.rule_over_blocks`, the machine `compile_ruleset` widens:
    agreement on every string over the representatives is agreement on
    every string over the alphabet. So the strings counted and the
    counterexamples reported are over the representatives. The compiled
    rule's relation is swept once and serves both comparisons, and a KK
    machine identical to the compiled one is not swept at all. The
    oracle's relation is one sweep too (`RewriteOracle.relation`), in
    which an input with no rewrite site maps to itself at once. The
    compiled machine is stored in the dict `machines` under (the rule
    over its blocks, their representatives' names), the pair
    `compile_ruleset` compiles it from."""
    rule, alphabet, _ = compiler.rule_over_blocks(rule, alphabet)
    cr = compiler.compile_rule(rule, alphabet)
    machines[rule, alphabet.symbols] = cr.transducer
    orc = oracle.RewriteOracle(rule, alphabet)
    rel = oracle._relation(cr.transducer, alphabet.sigma(), max_len)
    rep = oracle._compare(rel, orc.relation(alphabet.sigma(), max_len),
                          alphabet, max_len, need_output=True)
    failures = [f"rule {idx}: input {u!r}: compiled {got!r} != "
                f"oracle {exp!r}" if exp else
                f"rule {idx}: oracle produced no output for {u!r}"
                for u, got, exp in rep.counterexamples]
    print(f"rule {idx}: oracle equivalence on {rep.strings_checked} "
          f"strings: {'ok' if rep.equivalent else 'FAIL'}")
    # the compacted KK machine: its compaction depends only on the encoded
    # (in, out, weight) language, so it is mostly the compiled machine,
    # whose relation `rel` is and whose sweep raised any error
    kt = kk.rule_transducer(rule, alphabet, True)
    kk_rel = rel if oracle._same_machine(kt, cr.transducer) else \
        oracle._relation(kt, alphabet.sigma(), max_len)
    rep = oracle._compare(rel, kk_rel, alphabet, max_len)
    print(f"rule {idx}: kk cross-check: "
          f"{'ok' if rep.equivalent else 'FAIL'}")
    failures.extend(f"rule {idx}: kk mismatch on {inp!r}: {a!r} vs {b!r}"
                    for inp, a, b in rep.counterexamples)
    return failures


def cmd_check(args):
    at_least("--max-len", args.max_len, 0)
    with _scope(args):
        ruleset = _load_rules(args.rules)
        alphabet = ruleset.alphabet
        failures = []
        machines = {}
        for idx, rule in enumerate(ruleset.rules):
            failures.extend(_check_one_rule(idx, rule, alphabet,
                                            args.max_len, machines))
        if args.against:
            t, alpha2 = textio.read_transducer(args.against)
            if alpha2.symbols != alphabet.symbols:
                failures.append("--against machine declares a different "
                                "alphabet")
            else:
                # the rules' machines, compiled once by _check_one_rule
                composed = compiler.compile_ruleset(
                    ruleset, compile_one=lambda rule, small, compact:
                    machines[rule, small.symbols])
                rep = oracle.equivalent_on(composed, t, alphabet,
                                           args.max_len)
                print(f"ruleset vs {args.against}: "
                      f"{'ok' if rep.equivalent else 'FAIL'}")
                failures.extend(f"against: mismatch on {inp!r}: {a!r} vs {b!r}"
                                for inp, a, b in rep.counterexamples)
    if failures:
        print(f"{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


def cmd_bench(args):
    from . import bench as bench_mod  # loaded by `rwc bench` only
    records = bench_mod.run_bench(
        args.family, args.kmax, alphabet_size=args.alphabet_size,
        deadline_ms=args.deadline_ms, skip_after=args.skip_after)
    bench_mod.write_csv(args.out, records)
    n_timeouts = sum(r.timeout for r in records)
    print(f"wrote {args.out}: {len(records)} rows, {n_timeouts} timeouts")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rwc",
        description="Compile weighted context-dependent rewrite rules "
                    "into weighted finite-state transducers.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a rule file to an FST file")
    c.add_argument("rules")
    c.add_argument("-o", "--out", required=True)
    c.add_argument("--no-compact", action="store_true")
    c.add_argument("--algorithm", choices=("new", "kk"), default="new")
    c.add_argument("--deadline-ms", type=int, default=None,
                   help="exit 1 with E_TIMEOUT after this much wall time")
    c.set_defaults(func=cmd_compile)

    a = sub.add_parser("apply", help="apply a compiled FST to input")
    a.add_argument("fst")
    a.add_argument("input", nargs="?")
    a.add_argument("--stdin", action="store_true",
                   help="read one input per line from stdin")
    a.add_argument("--nbest", type=int, default=None)
    a.add_argument("--bound", type=int, default=1000,
                   help="output enumeration bound")
    a.set_defaults(func=cmd_apply)

    k = sub.add_parser("check", help="verify compiled rules against the "
                                     "rewriting oracle and the KK baseline")
    k.add_argument("rules")
    k.add_argument("--max-len", type=int, default=6)
    k.add_argument("--against", default=None,
                   help="also compare the composed ruleset with this FST")
    k.add_argument("--deadline-ms", type=int, default=None,
                   help="exit 1 with E_TIMEOUT after this much wall time")
    k.set_defaults(func=cmd_check)

    b = sub.add_parser("bench", help="growth benchmark, CSV output")
    b.add_argument("out")
    b.add_argument("--family", choices=("left", "right"), required=True)
    b.add_argument("--kmax", type=int, default=10)
    b.add_argument("--alphabet-size", type=int, default=194)
    b.add_argument("--deadline-ms", type=int, default=300_000)
    b.add_argument("--skip-after", type=int, default=2,
                   help="skip remaining KK points after this many "
                        "consecutive timeouts (0: never skip)")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (RwcError, OSError) as e:
        hint = " (--max-len)" if isinstance(e, InputBudgetError) else ""
        print(f"error: {e}{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
