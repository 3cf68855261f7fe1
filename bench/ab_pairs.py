#!/usr/bin/env python3
"""Run the perfbench workload on two revisions in alternating pairs.

    python3 bench/ab_pairs.py BASE CHANGE --workload fleet_ingest \\
        --seed 7 --seconds 30 --pairs 10 [--trace 0] [--workdir DIR]

BASE and CHANGE are git revisions of this repository (exported with
`git archive` into DIR/base and DIR/change) or paths to existing source
trees, which are used as they are. Each side builds with its own
`perfbench/run.py` into its own CARGO_TARGET_DIR (DIR/<side>-target), so
the two builds never share objects. Pair i runs base then change when i is
even and change then base when it is odd, so slow drift of the host falls
on both sides alike.

For every metric in BENCHMARK.json (the end-to-end ones; the per-layer ones
too with --trace 1) the script prints each side's median and quartiles, the
ratio of the medians, and in how many pairs the change was better (ties
count for neither side). A gain holds when the change wins at least nine
tenths of the pairs and the medians differ by more than the base's
interquartile range; the last column says whether it does. The script only
drives perfbench: it changes nothing under perfbench/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(revision, dest):
    """A source tree for `revision`: an existing directory, or an export."""
    if os.path.isdir(revision):
        return os.path.abspath(revision)
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", revision],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def run_once(tree, target, args):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no result from {tree} (exit {proc.returncode})")
    return json.loads(lines[-1])


def metric(result, name):
    """A metric's value in one perfbench result, None when it has none."""
    entry = result["metrics"].get(name)
    return entry["value"] if entry else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer"] if trace else spec["end_to_end"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".ab_pairs"))
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    sides = {}
    for side, revision in (("base", args.base), ("change", args.change)):
        sides[side] = (export(revision, os.path.join(args.workdir, side)),
                       os.path.join(args.workdir, side + "-target"))

    results = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            out = run_once(*sides[side], args)
            results[side].append(out)
            print(f"pair {i + 1}/{args.pairs} {side}: correct="
                  f"{out.get('correct')} failed={out.get('failed')} "
                  f"ops_per_s={metric(out, 'ops_per_s')}",
                  file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.seconds} s, "
          f"{args.pairs} alternating pairs, trace {args.trace}")
    print(f"{'metric':34} {'base median [q1-q3]':>34} "
          f"{'change median [q1-q3]':>34} {'ratio':>7} {'wins':>6} gain")
    for spec in metric_specs(args.trace):
        name = spec["name"]
        base = [metric(r, name) for r in results["base"]]
        change = [metric(r, name) for r in results["change"]]
        if any(v is None for v in base + change) or not any(base + change):
            continue  # not reported, or all zero: not this workload's
        higher = spec["better"] == "higher"
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q1, b_q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        ratio = c_med / b_med if b_med else float("nan")
        better = c_med > b_med if higher else c_med < b_med
        gain = (better and wins * 10 >= 9 * args.pairs and
                abs(c_med - b_med) > b_q3 - b_q1)
        b_cell = f"{b_med:.6g} [{b_q1:.6g}-{b_q3:.6g}]"
        c_cell = f"{c_med:.6g} [{c_q1:.6g}-{c_q3:.6g}]"
        print(f"{name:34} {b_cell:>34} {c_cell:>34} {ratio:>7.3f} "
              f"{wins:>3}/{args.pairs:<2} {'yes' if gain else 'no'}")
    failed = {side: sum(r.get("failed", 0) for r in runs)
              for side, runs in results.items()}
    print(f"failed ops: base {failed['base']}, change {failed['change']}")
    return 0 if all(r.get("correct") for runs in results.values()
                    for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
