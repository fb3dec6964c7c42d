"""Run one workload of the benchmark on several seeds, one after another,
and print each metric's median and quartile spread (distance between the
first and third quartile as a share of the median).

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]
                                [--seconds S] [--trace 0|1]

Run from the root of a source checkout. --seconds defaults to the
run_seconds in BENCHMARK.json; each metric's bound is printed beside its
spread when BENCHMARK.json has one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True)
        wall = time.perf_counter() - t0
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: attempted {res['attempted']} failed "
              f"{res['failed']} correct {res['correct']} wall {wall:.1f} s",
              file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs, {seconds:g} s each")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        if bound is not None and spread > bound / 3:
            note += "  (spread above a third of the bound)"
        print(f"  {name:40s} median {med:<14.6g} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
