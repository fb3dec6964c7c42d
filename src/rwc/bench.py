"""Growth benchmarks: compile a -> b rules whose left or right context is
c^k for k in [0, kmax] with both algorithms over a synthetic alphabet,
recording compile times, machine sizes, and the right-context
determinization probe. Results go to CSV (gnuplot-ready).

Both algorithms' rows are timed one way. The `ms` of a row is CPU time
with gc paused, the median over its samples: repeats run round-robin over
k for a `new` (direct compiler) row; for a `kk` (baseline) row five in a
row under the per-point deadline, or one if it takes 1 s or more. Each
sample is divided by a fixed pure-Python reference work timed around it
and scaled back to CPU ms at the run's median reference time, i.e. at the
run's median host speed. So a slow stretch of a shared host, or a gc
pause, does not land on one k and bend the growth curve. The median, not
the minimum: the reference correction errs both ways when the host's
speed changes within a sample, and a minimum keeps just the samples it
made too fast.

The synthetic alphabet has `alphabet_size` labels s000, s001, ... (the
default 194 mirrors a realistic text-to-speech symbol set). Absolute
timings are machine-dependent; only growth shapes are meaningful.
"""

import gc
import time
from contextlib import suppress
from statistics import median

from . import compiler, kk, rulespec
from .errors import BadOptionError, DeadlineExceeded, at_least
from .fsm import Alphabet, Deadline

CSV_HEADER = "rule,k,algorithm,ms,states,arcs,dfa_arcs,timeout"
# round-robin rounds of direct-compiler samples over every k
REPEATS_NEW = 7


class BenchRecord:
    # rule: "left" or "right"; algorithm: "new" or "kk"; sizes may be None
    __slots__ = ("rule", "k", "algorithm", "ms", "states", "arcs",
                 "dfa_arcs", "timeout")

    def __init__(self, rule, k, algorithm, ms, states, arcs, dfa_arcs,
                 timeout):
        self.rule, self.k, self.algorithm, self.ms = rule, k, algorithm, ms
        self.states, self.arcs, self.dfa_arcs = states, arcs, dfa_arcs
        self.timeout = timeout

    def csv_row(self):
        opt = lambda v: "" if v is None else str(v)
        return (f"{self.rule},{self.k},{self.algorithm},{self.ms:.3f},"
                f"{opt(self.states)},{opt(self.arcs)},{opt(self.dfa_arcs)},"
                f"{int(self.timeout)}")


def bench_alphabet(size):
    return Alphabet([f"s{i:03d}" for i in range(size)])


def bench_rule(family, k):
    """a -> b with a c^k left or right context, over the bench alphabet."""
    ctx = (rulespec.Cat(tuple(rulespec.Sym("s002") for _ in range(k)))
           if k else rulespec.Eps())
    lam, rho = (ctx, rulespec.Eps()) if family == "left" \
        else (rulespec.Eps(), ctx)
    return rulespec.Rule(phi=rulespec.Sym("s000"), psi=rulespec.Sym("s001"),
                         lam=lam, rho=rho)


def _reference_work():
    """Fixed pure-Python work: a small subset construction over dicts,
    tuples and frozensets, the operations the compiler's loops spend their
    time on. It never changes with rwc, so its CPU time tracks the host's
    speed."""
    n = 256
    succ = [((q * 5 + 1) % n, (q * 11 + 3) % n) for q in range(n)]
    seen = {}
    todo = [frozenset((0, 1))]
    while todo and len(seen) < 200:
        states = todo.pop()
        if states in seen:
            continue
        seen[states] = len(seen)
        for lab in (0, 1):
            nxt = {succ[q][lab] for q in states} | {(min(states) + lab) % n}
            nxt = frozenset(sorted(nxt)[:5])
            if nxt not in seen:
                todo.append(nxt)
    return len(seen)


def _sample(refs, fn, *args):
    """(CPU ns of fn(*args), that over the mean CPU ns of the reference
    work run just before and after it, which go to `refs`; fn's result).
    gc is collected first and paused during the three, even if fn raises."""
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.thread_time_ns()
        _reference_work()
        c1 = time.thread_time_ns()
        out = fn(*args)
        c2 = time.thread_time_ns()
        _reference_work()
        c3 = time.thread_time_ns()
    finally:
        if gc_was_enabled:
            gc.enable()
    ns, r0, r1 = c2 - c1, c1 - c0, c3 - c2
    refs += (r0, r1)
    return ns, ns / ((r0 + r1) / 2), out


def run_bench(family, kmax, alphabet_size=194, deadline_ms=300_000,
              skip_after=2):
    """Bench one rule family for k in [0, kmax]. The direct compiler is
    timed first, REPEATS_NEW round-robin rounds over every k (see the
    module docstring). KK points run under a per-point deadline; after
    `skip_after` consecutive KK timeouts the remaining (larger, strictly
    slower) KK points are recorded as timeouts without running. Returns a
    list of BenchRecords (2 per k: the `new` row, then the `kk` row).
    Out-of-range arguments raise BadOptionError."""
    if family not in ("left", "right"):
        raise BadOptionError(f"family must be 'left' or 'right', "
                             f"not {family!r}")
    at_least("kmax (--kmax)", kmax, 0)
    # the bench rule names s000, s001 and s002
    at_least("alphabet_size (--alphabet-size)", alphabet_size, 3)
    at_least("deadline_ms (--deadline-ms)", deadline_ms, 1)
    at_least("skip_after (--skip-after)", skip_after, 0)
    alphabet = bench_alphabet(alphabet_size)
    rules = [bench_rule(family, k) for k in range(kmax + 1)]
    refs = []
    new_ratios = [[] for _ in rules]
    stats = [None] * len(rules)
    for _ in range(REPEATS_NEW):
        for k, rule in enumerate(rules):
            _, ratio, cr = _sample(refs, compiler.compile_rule, rule,
                                   alphabet)
            new_ratios[k].append(ratio)
            stats[k] = cr.stats
    records = []
    kk_consecutive_timeouts = 0
    for k, rule in enumerate(rules):
        records.append(BenchRecord(family, k, "new", median(new_ratios[k]),
                                   stats[k].states, stats[k].arcs, None,
                                   False))
        dfa_arcs = None
        if family == "right":
            with suppress(DeadlineExceeded), Deadline(deadline_ms):
                _, dfa_arcs = kk.kk_rightcontext_probe(rule.rho, alphabet)
        timeout = BenchRecord(family, k, "kk", float(deadline_ms), None,
                              None, dfa_arcs, True)
        if skip_after and kk_consecutive_timeouts >= skip_after:
            records.append(timeout)
            continue
        ratios = []
        try:
            while len(ratios) < 5:
                with Deadline(deadline_ms):
                    ns, ratio, compiled = _sample(refs, kk.kk_compile_rule,
                                                  rule, alphabet)
                ratios.append(ratio)
                if ns >= 1e9:
                    break
        except DeadlineExceeded:
            records.append(timeout)
            kk_consecutive_timeouts += 1
            continue
        kk_consecutive_timeouts = 0
        t = compiled.transducer
        records.append(BenchRecord(family, k, "kk", median(ratios),
                                   t.num_states, len(t.arcs), dfa_arcs,
                                   False))
    # each `ms` so far is a median ratio: scale it to the run's host speed
    ref_ms = median(refs) / 1e6
    for r in records:
        if not r.timeout:
            r.ms *= ref_ms
    return records


def write_csv(path, records):
    with open(path, "w", encoding="utf-8") as f:
        f.write(CSV_HEADER + "\n")
        for r in records:
            f.write(r.csv_row() + "\n")


def affine_fit(xs, ys):
    """Least-squares y ~ a*x + b; returns (a, b, r_squared). R² is 1.0
    when every y is the same."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    a = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    b = my - a * mx
    ss_tot = sum((y - my) ** 2 for y in ys)
    if ss_tot == 0.0:
        return a, b, 1.0
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    return a, b, 1.0 - ss_res / ss_tot
