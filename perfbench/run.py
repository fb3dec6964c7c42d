"""rwc benchmark: one seeded workload per process, single-threaded, closed
loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rwc is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines before it name every figure
with its unit. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
IMPORT_REPS = 9
# operation CPU time between two timings of the reference work
REF_EVERY_NS = 50_000_000
# setup_s is given in seconds on a host where the reference work takes
# this long (about its time on a 2-core x86-64 Linux machine)
REF_S = 0.004

# generic end-to-end metric -> (workload-specific name, scale, unit)
ALIASES = {
    "ruleset-compile": {"op_ms_p50": ("compile.file_ms_p50", 1.0, "ms"),
                        "op_ms_tail": ("compile.file_ms_tail", 1.0, "ms"),
                        "out_arcs": ("compile.fst_arcs", 1, "count")},
    "apply-stream": {"op_ms_p50": ("apply.string_us_p50", 1e3, "us"),
                     "op_ms_tail": ("apply.string_us_tail", 1e3, "us"),
                     "ops_per_s": ("apply.strings_per_s", 1.0, "1/s")},
    "check-small": {"op_ms_p50": ("check.file_s_p50", 1e-3, "s")},
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_rwc():
    if not os.path.isfile(os.path.join(SRC, "rwc", "__init__.py")):
        fail(f"no rwc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import rwc
    import rwc.cli  # noqa: F401  (check-small drives the CLI in-process)
    if not os.path.abspath(rwc.__file__).startswith(SRC + os.sep):
        fail(f"imported rwc from {rwc.__file__}, not from {SRC}")
    return rwc


def reference_ns():
    """Thread CPU time of one run of the reference work."""
    c0 = time.thread_time_ns()
    reference_work()
    return time.thread_time_ns() - c0


def set_up_cost(fn, *args):
    """Runs one program set-up unit; returns (its thread CPU time divided
    by the mean of reference timings just before and after it, its
    result)."""
    gc.collect()
    r0 = reference_ns()
    c0 = time.thread_time_ns()
    out = fn(*args)
    cpu = time.thread_time_ns() - c0
    return cpu / ((r0 + reference_ns()) / 2), out


def import_costs():
    """Costs of `import rwc, rwc.cli` in fresh interpreters: what every
    `rwc` command pays before it reads its input. Each child times its own
    import in thread CPU time; a first, untimed import writes the bytecode
    caches."""
    code = ("import time; c = time.thread_time_ns(); import rwc, rwc.cli; "
            "print(time.thread_time_ns() - c)")
    env = dict(os.environ, PYTHONPATH=SRC)

    def child_ns():
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        return int(out.stdout.strip().splitlines()[-1])

    child_ns()
    costs = []
    for _ in range(IMPORT_REPS):
        r0 = reference_ns()
        ns = child_ns()
        costs.append(ns / ((r0 + reference_ns()) / 2))
    return costs


def peak_rss():
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(sorted_vals):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, n). Below 22 samples no such percentile sits at or
    above the median, so the maximum is reported instead."""
    n = len(sorted_vals)
    if n >= 22:
        return sorted_vals[n - 11], 100.0 * (n - 10) / n, n
    return sorted_vals[-1], 100.0, n


def stream_tail(req_values, stream):
    """``tail`` of each stream's request values, as (median over the
    streams, percentile, streams, requests per stream). A stream is the
    request set one `rwc` process would see (``Workload.stream``), so the
    figure is a typical process's tail, not that of its heaviest input."""
    groups = {}
    for req, v in req_values.items():
        groups.setdefault(stream(req), []).append(v)
    tails = [tail(sorted(g)) for g in groups.values()]
    return (statistics.median(t[0] for t in tails),
            statistics.median(t[1] for t in tails), len(tails),
            statistics.median(t[2] for t in tails))


def reference_work():
    """Fixed pure-Python work: a small subset construction over dicts,
    tuples and frozensets, the operations rwc's own loops spend their time
    on. It never changes with rwc, so its time tracks the host's speed."""
    n = 400
    succ = {q: ((q * 7 + 1) % n, (q * 13 + 5) % n, (q * 29 + 3) % n)
            for q in range(n)}
    seen = {}
    todo = [frozenset((0,))]
    while todo and len(seen) < 300:
        states = todo.pop()
        if states in seen:
            continue
        seen[states] = len(seen)
        for lab in range(3):
            nxt = frozenset(succ[q][lab] for q in states)
            nxt = frozenset(sorted(nxt | {(min(states) + lab) % n})[:6])
            if nxt not in seen:
                todo.append(nxt)
    return len(seen)


class Loop:
    """The closed loop: one operation at a time. Automatic collection
    stays on, so an operation pays for the collections its own allocations
    trigger, as it does in the `rwc` command. Outside the timed region the
    young generations are collected before each sample, which starts every
    sample with the same collector counts, and the whole heap is collected
    before each timing of the reference work. That work is timed before
    the first operation, after the last, and whenever 50 ms of operation
    CPU time have passed since it last ran."""

    def __init__(self, wl, seconds):
        self.wl = wl
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors = {}
        self.refs = []        # (operations before it, CPU ns)
        self._since_ref = None
        # CPU time of automatic collections inside timed operations
        self.gc_ns = 0
        self.gc_runs = 0
        self._in_op = False
        self._gc_start = 0

    def on_gc(self, phase, info):
        """gc.callbacks hook: times the collections that land inside a
        timed operation."""
        if not self._in_op:
            return
        if phase == "start":
            self._gc_start = time.thread_time_ns()
        else:
            self.gc_ns += time.thread_time_ns() - self._gc_start
            self.gc_runs += 1

    def reference(self):
        gc.collect()
        self.refs.append((self.attempted, reference_ns()))
        self._since_ref = 0

    def call(self, req, fn, *args):
        """Time one operation and verify it; returns its wall and thread
        CPU time in ns."""
        if self._since_ref is None or self._since_ref >= REF_EVERY_NS:
            self.reference()
        gc.collect(1)
        self._in_op = True
        c0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as e:  # an operation failure, counted below
            wall, cpu = time.perf_counter_ns() - t0, time.thread_time_ns() - c0
            self._in_op = False
            self._error(e)
            ok = False
        else:
            wall, cpu = time.perf_counter_ns() - t0, time.thread_time_ns() - c0
            self._in_op = False
            try:
                ok = self.wl.verify(req, result)
            except Exception as e:
                self._error(e)
                ok = False
        self.attempted += 1
        self.failed += not ok
        self._since_ref += cpu
        return wall, cpu

    def _error(self, e):
        key = type(e).__name__
        if key not in self.errors:
            traceback.print_exc(file=sys.stderr)
        self.errors[key] = self.errors.get(key, 0) + 1

    def requests(self, min_ops):
        """Yield requests in order, cycling, until the time is up and at
        least min_ops requests ran."""
        reqs = self.wl.requests
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < self.seconds:
            yield i, reqs[i % len(reqs)]
            i += 1

    def reference_per_op(self):
        """Closes the loop with a last reference measurement; returns, for
        each operation, the mean of the reference times just before and
        just after it."""
        self.reference()
        refs = self.refs
        out = []
        k = 0
        for i in range(self.attempted):
            while refs[k + 1][0] <= i:
                k += 1
            out.append((refs[k][1] + refs[k + 1][1]) / 2)
        return out


def measure(loop):
    """Returns [(request, wall_ns, cpu_ns)] in run order."""
    wl = loop.wl
    return [(req,) + loop.call(req, wl.run, req)
            for _, req in loop.requests(wl.min_ops)]


def measure_traced(loop, tracer):
    """Every request runs twice, traced and untraced, in alternating
    order; the traced copies give the per-layer figures and the pair sums
    give the tracing overhead. Per-layer figures are means per operation,
    so this loop needs no full pass over the request set."""
    wl = loop.wl
    traced_ns = plain_ns = 0
    for i, req in loop.requests(1):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
                try:
                    traced_ns += loop.call(req, tracer.request, i, wl.run,
                                           req)[0]
                finally:
                    tracer.uninstall()
            else:
                plain_ns += loop.call(req, wl.run, req)[0]
    return traced_ns, plain_ns


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rwc = import_rwc()
    import tracing as trace_mod

    os.makedirs(RUN_DIR, exist_ok=True)
    tmpdir = os.path.join(RUN_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        wl = WORKLOADS[args.workload](rwc, args.seed, tmpdir, set_up_cost)
        tracer = trace_mod.Tracer() if args.trace else None
        t0 = time.perf_counter()
        units = wl.setup()
        imports = import_costs()
        setup_wall_s = time.perf_counter() - t0
        setup_peak_mb = peak_rss()
        import_cost = statistics.median(imports)
        unit_cost = statistics.median(units) if units else 0.0
        loop = Loop(wl, args.seconds)
        gc.callbacks.append(loop.on_gc)
        try:
            if tracer is None:
                ops = measure(loop)
            else:
                traced_ns, plain_ns = measure_traced(loop, tracer)
        finally:
            gc.callbacks.remove(loop.on_gc)
        peak_rss_mb = peak_rss()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    lines = [
        ("failed_share", loop.failed / loop.attempted, "share",
         f"{loop.failed} of {loop.attempted} operations failed or were "
         f"wrong" + (f"; exceptions {loop.errors}" if loop.errors else "")),
        ("compile.lossy_weights", sum(wl.lossy), "count",
         f"weights changed by format_machine -> parse_machine over "
         f"{len(wl.lossy)} machines"),
        ("setup.import_cost", import_cost, "ref",
         f"median of {len(imports)} fresh-interpreter imports"),
        ("setup.unit_cost", unit_cost, "ref",
         f"median of {len(units)} program set-up units"),
        ("setup.wall_s", setup_wall_s, "s",
         "wall time of the whole set-up, input generation included"),
        ("setup.peak_rss_mb", setup_peak_mb, "MB",
         "peak resident set at the end of set-up"),
        ("gc.ms_per_op", loop.gc_ns / 1e6 / loop.attempted, "ms",
         f"CPU time of the {loop.gc_runs} automatic collections inside "
         f"timed operations, per operation"),
    ]
    if tracer is None:
        # a request's figure is the median of its repeats, so the tail
        # ranks the heaviest inputs rather than hiccups of the host
        cost, cpu_ms = {}, {}
        for (req, _, cpu), ref in zip(ops, loop.reference_per_op()):
            cost.setdefault(req, []).append(cpu / ref)
            cpu_ms.setdefault(req, []).append(cpu / 1e6)
        req_cost = {r: statistics.median(v) for r, v in cost.items()}
        req_ms = {r: statistics.median(v) for r, v in cpu_ms.items()}
        tail_cost, tail_pct, n_streams, n = stream_tail(req_cost, wl.stream)
        metrics = {
            "setup_s": ((import_cost + unit_cost) * REF_S, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_cost_p50": (statistics.median(req_cost.values()), "ref"),
            "op_cost_tail": (tail_cost, "ref"),
            "op_cost_mean": (statistics.fmean(c for v in cost.values()
                                              for c in v), "ref"),
            "out_arcs": (wl.out_arcs, "count"),
        }
        raw = {
            "op_ms_p50": statistics.median(req_ms.values()),
            "op_ms_tail": stream_tail(req_ms, wl.stream)[0],
            "ops_per_s": len(ops) / (sum(w for _, w, _ in ops) / 1e9),
        }
        lines += [
            ("reference_ms", statistics.median(r for _, r in loop.refs) / 1e6,
             "ms", f"median of {len(loop.refs)} timings of the reference "
             f"work; op_cost = operation CPU time / reference time"),
            ("op_cost_tail.percentile", tail_pct, "%",
             f"highest percentile with >= 10 of {n:g} distinct requests "
             f"beyond it, median over {n_streams} stream(s); {len(ops)} "
             f"operations"),
            ("op_cost_tail.pooled", tail(sorted(req_cost.values()))[0], "ref",
             "the same percentile over all streams' requests together"),
            ("op_ms_p50", raw["op_ms_p50"], "ms", "CPU time, not normalized"),
            ("op_ms_tail", raw["op_ms_tail"], "ms", "CPU time, not normalized"),
            ("ops_per_s", raw["ops_per_s"], "1/s", "operations / wall time"),
        ]
        for key, (name, scale, unit) in ALIASES.get(wl.name, {}).items():
            value = raw[key] if key in raw else metrics[key][0]
            lines.append((name, value * scale, unit, f"= {key}"))
        lines += wl.report(cpu_ms)
    else:
        layer = tracer.summary()
        layer["textio.format_machine.lossy_weights"] = (
            sum(wl.lossy) / len(wl.lossy) if wl.lossy else 0.0)
        layer["perfbench.trace.overhead_pct"] = (
            100.0 * (traced_ns / plain_ns - 1.0))
        tracer.write(os.path.join(
            RUN_DIR, "spans", f"{wl.name}-seed{args.seed}.tsv.gz"))
        metrics = {k: (layer[k], trace_mod.metric_unit(k))
                   for k in trace_mod.metric_names()}
        lines.append(("perfbench.trace.spans", len(tracer.fn), "count",
                      f"written to {os.path.relpath(RUN_DIR, ROOT)}/spans"))

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, value, unit, note in lines:
        print(f"# {name} = {value} {unit}  ({note})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
