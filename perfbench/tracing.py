"""Out-of-program tracing of rwc's layers.

The tracer wraps public functions of the rwc modules from outside: each
function is replaced at every ``rwc.*`` module attribute (and class
attribute) that binds it, because several modules import the functions
they use by name. A wrapped call records one span: function, start, end,
parent span and request id. Spans stay in memory and are written once, at
the end of a run.

A recursive call of a function inside its own span is folded into the
outer span, so ``compile_regex`` shows one span per top-level regex.
"""

import gzip
import os
import sys
import time

# (module, attribute) of every traced function; methods are written as
# "Class.method"
LAYERS = (
    ("rulespec", "parse_rule_file"),
    ("rulespec", "compile_regex"),
    ("rulespec", "series_to_wfsa"),
    ("marker", "marker"),
    ("compiler", "build_r"),
    ("compiler", "build_f"),
    ("compiler", "build_replace"),
    ("compiler", "build_l1"),
    ("compiler", "build_l2"),
    ("compiler", "compile_rule"),
    ("compiler", "compile_ruleset"),
    ("boolean_ops", "determinize"),
    ("boolean_ops", "minimize"),
    ("boolean_ops", "compact_transducer"),
    ("boolean_ops", "intersect"),
    ("boolean_ops", "subtract"),
    ("boolean_ops", "complement"),
    ("fsm", "compose"),
    ("fsm", "trim"),
    ("fsm", "remove_epsilon"),
    ("kk", "kk_compile_rule"),
    ("kk", "kk_rightcontext_probe"),
    ("oracle", "apply"),
    ("oracle", "enumerate_language"),
    ("oracle", "relation_upto"),
    ("oracle", "RewriteOracle.rewrite_ids"),
    ("oracle", "equivalent_on"),
    ("textio", "format_machine"),
    ("textio", "parse_machine"),
)


# name -> (extractor, {stat: (kind, numerator index, denominator index)}).
# An extractor maps (args, result) of one call to numbers summed per name.
# kind "per_call": sum(num) / calls; "ratio": sum(num) / sum(den);
# "per_op": sum(num) / traced operations.
SIZE_STATS = {
    "fsm.compose": (
        lambda a, r: (r.num_states, len(r.arcs)),
        {"states_out": ("per_call", 0, None), "arcs_out": ("per_call", 1, None)}),
    "fsm.trim": (
        lambda a, r: (r.num_states, a[0].num_states),
        {"kept_ratio": ("ratio", 0, 1)}),
    "boolean_ops.compact_transducer": (
        lambda a, r: (len(r.arcs), len(a[0].arcs)),
        {"arcs_kept": ("ratio", 0, 1)}),
    "boolean_ops.determinize": (
        lambda a, r: (r.num_states,),
        {"states_out": ("per_call", 0, None)}),
    "boolean_ops.minimize": (
        lambda a, r: (r.num_states,),
        {"states_out": ("per_call", 0, None)}),
    "compiler.compile_rule": (
        lambda a, r: (len(r.transducer.arcs),),
        {"arcs_out": ("per_call", 0, None)}),
    "compiler.compile_ruleset": (
        lambda a, r: (len(r.arcs),),
        {"arcs_out": ("per_call", 0, None)}),
    "oracle.enumerate_language": (
        lambda a, r: (len(r[0]),),
        {"outputs": ("per_call", 0, None)}),
    "oracle.apply": (
        lambda a, r: (int(r[1]),),
        {"truncated": ("per_op", 0, None)}),
    "kk.kk_rightcontext_probe": (
        lambda a, r: (r[1],),
        {"dfa_arcs": ("per_call", 0, None)}),
    "textio.format_machine": (
        lambda a, r: (len(r.encode("utf-8")),),
        {"bytes": ("per_call", 0, None)}),
}

# functions whose raised exceptions are reported as "<name>.raised" per op
RAISED_STATS = ("kk.kk_compile_rule",)

ROOT = "perfbench.op"


def metric_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_ms"):
        return "ms"
    if stat.endswith("_pct"):
        return "%"
    if stat in ("kept_ratio", "arcs_kept"):
        return "ratio"
    if stat == "bytes":
        return "bytes"
    return "count"


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for mod, attr in LAYERS:
        base = f"{mod}.{attr}"
        names += [f"{base}.calls", f"{base}.self_ms", f"{base}.total_ms"]
        if base in SIZE_STATS:
            names += [f"{base}.{s}" for s in SIZE_STATS[base][1]]
        if base in RAISED_STATS:
            names.append(f"{base}.raised")
    return names + list(RUN_STATS)


# measured by the benchmark around the traced functions rather than by them
RUN_STATS = (
    "textio.format_machine.lossy_weights",
    "perfbench.op.traced_ms",
    "perfbench.op.unattributed_ms",
    "perfbench.trace.overhead_pct",
    "perfbench.trace.misnested_spans",
    "perfbench.trace.spans_per_op",
)


class Tracer:
    """Span recorder. ``install`` patches the rwc bindings, ``uninstall``
    restores them; spans are recorded only while installed and inside
    ``request``."""

    def __init__(self):
        self.names = [ROOT] + [f"{m}.{a}" for m, a in LAYERS]
        self._fn_id = {n: i for i, n in enumerate(self.names)}
        # span columns
        self.fn = []
        self.start = []
        self.end = []
        self.parent = []
        self.req = []
        self._stack = []
        self._req_id = -1
        self.sizes = {n: [0, 0] for n in SIZE_STATS}
        self.raised = {n: 0 for n in RAISED_STATS}
        self.ops = 0
        self._patches = self._find_bindings()

    # -- patching -------------------------------------------------------

    def _find_bindings(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "rwc" or n.startswith("rwc.")}
        patches = []
        for mod, attr in LAYERS:
            owner = sys.modules[f"rwc.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig,
                                self._wrap(f"{mod}.{attr}", orig)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{mod}.{attr}", orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        patches.append((m, key, orig, wrapped))
        return patches

    def install(self):
        for obj, key, _, wrapped in self._patches:
            setattr(obj, key, wrapped)

    def uninstall(self):
        for obj, key, orig, _ in self._patches:
            setattr(obj, key, orig)

    def _wrap(self, name, fn):
        fid = self._fn_id[name]
        sizes = SIZE_STATS.get(name)
        counts_raise = name in RAISED_STATS
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack or tracer.fn[stack[-1]] == fid:
                # outside a request, or a recursive call: fold it in
                return fn(*args, **kwargs)
            idx = len(tracer.fn)
            tracer.fn.append(fid)
            tracer.parent.append(stack[-1])
            tracer.req.append(tracer._req_id)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.end[idx] = clock()
                stack.pop()
                if counts_raise:
                    tracer.raised[name] += 1
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if sizes is not None:
                acc = tracer.sizes[name]
                for j, v in enumerate(sizes[0](args, result)):
                    acc[j] += v
            return result

        return wrapper

    # -- requests ---------------------------------------------------------

    def request(self, req_id, fn, *args):
        """Run fn(*args) as one traced operation under a root span."""
        self._req_id = req_id
        idx = len(self.fn)
        self.fn.append(0)
        self.parent.append(-1)
        self.req.append(req_id)
        self.end.append(0)
        self._stack.append(idx)
        self.ops += 1
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- analysis -------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns: duration minus direct children."""
        self_ns = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]
        return self_ns

    def misnested(self, roots):
        """Spans that break the tree the self times assume: a span must
        start after its previous sibling ends, end inside its parent, and
        descend from the root of its own request. Given such a tree, a
        request's self times add up to its root's duration by construction
        and none is negative; this counts the spans for which that
        assumption fails. Spans are stored in start order, so the spans
        after a root and before the next one belong to that root."""
        bad = 0
        for k, r in enumerate(roots):
            stop = roots[k + 1] if k + 1 < len(roots) else len(self.fn)
            child_end = {}
            for i in range(r + 1, stop):
                p = self.parent[i]
                ok = (r <= p < i and self.req[i] == self.req[r]
                      and self.start[i] >= child_end.get(p, self.start[p])
                      and self.end[i] <= self.end[p])
                bad += not ok
                child_end[p] = self.end[i]
        return bad

    def summary(self):
        """Per-layer metrics (per traced operation) plus root statistics."""
        self_ns = self.self_times()
        n_fn = len(self.names)
        calls = [0] * n_fn
        self_tot = [0] * n_fn
        total_tot = [0] * n_fn
        for i, f in enumerate(self.fn):
            calls[f] += 1
            self_tot[f] += self_ns[i]
            total_tot[f] += self.end[i] - self.start[i]
        ops = max(self.ops, 1)
        out = {}
        for mod, attr in LAYERS:
            name = f"{mod}.{attr}"
            f = self._fn_id[name]
            out[f"{name}.calls"] = calls[f] / ops
            out[f"{name}.self_ms"] = self_tot[f] / 1e6 / ops
            out[f"{name}.total_ms"] = total_tot[f] / 1e6 / ops
            if name in SIZE_STATS:
                acc = self.sizes[name]
                for stat, (kind, num, den) in SIZE_STATS[name][1].items():
                    if kind == "per_call":
                        v = acc[num] / calls[f] if calls[f] else 0.0
                    elif kind == "ratio":
                        v = acc[num] / acc[den] if acc[den] else 0.0
                    else:
                        v = acc[num] / ops
                    out[f"{name}.{stat}"] = v
            if name in RAISED_STATS:
                out[f"{name}.raised"] = self.raised[name] / ops
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        out["perfbench.op.traced_ms"] = sum(
            self.end[r] - self.start[r] for r in roots) / 1e6 / ops
        out["perfbench.op.unattributed_ms"] = sum(
            self_ns[r] for r in roots) / 1e6 / ops
        out["perfbench.trace.misnested_spans"] = self.misnested(roots)
        out["perfbench.trace.spans_per_op"] = len(self.fn) / ops
        return out

    def write(self, path):
        """Write every span as one TSV row (gzip): id, parent, request,
        function, start_ns, end_ns, self_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self_ns = self.self_times()
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.fn)):
                f.write(f"{i}\t{self.parent[i]}\t{self.req[i]}\t"
                        f"{self.names[self.fn[i]]}\t{self.start[i] - t0}\t"
                        f"{self.end[i] - t0}\t{self_ns[i]}\n")
