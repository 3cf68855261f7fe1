#!/usr/bin/env python3
"""perfbench's own tests. Run from the repository root:

    python3 perfbench/selftest.py

1. Contract: each workload prints one JSON line whose metric names and
   units are exactly BENCHMARK.json's end_to_end list (--trace 0) or
   per_layer list (--trace 1).
2. Modeled-clock determinism: two runs with the same seed print identical
   model_cycles_per_op and identical modeled per-layer numbers, although
   their host timings differ.
3. A fresh seed, not used while the benchmark was written, passes every
   correctness check with zero failed ops on every workload.

Exits 0 when all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build step)

SECONDS = "2"
SEED = "7"
FRESH_SEED = "90210"
# Per-layer numbers that come from the modeled clock or from counts of
# modeled events; everything in unit "cycles" is modeled as well.
MODELED_COUNTS = {
    "fleet.resume_ratio", "fleet.verify_cache_hit_ratio",
    "fleet.tickets_rejected", "fleet.shed_ratio", "net.messages_per_op",
    "net.bytes_per_op", "runtime.calls_per_doorbell",
    "runtime.zero_copy_byte_share",
}


def invoke(driver, workload, seed, trace):
    proc = subprocess.run(
        [driver, "--workload", workload, "--seed", seed, "--seconds",
         SECONDS, "--trace", trace, "--out-dir",
         os.path.join(run.build_root(), "traces")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    driver = run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace in ("0", "1"):
            first_code, first = invoke(driver, w, SEED, trace)
            second_code, second = invoke(driver, w, SEED, trace)
            check(first_code == 0 and second_code == 0 and first
                  and second and first["correct"] and second["correct"]
                  and first["failed"] == 0,
                  f"{w} trace={trace}: runs correct, zero failed ops")
            if not first or not second:
                continue
            units = {k: v["unit"] for k, v in first["metrics"].items()}
            check(units == expected[trace],
                  f"{w} trace={trace}: metric names and units match "
                  "BENCHMARK.json")
            modeled = [k for k, u in units.items()
                       if u == "cycles" or k in MODELED_COUNTS]
            same = [k for k in modeled
                    if first["metrics"][k]["value"]
                    == second["metrics"][k]["value"]]
            check(len(same) == len(modeled),
                  f"{w} trace={trace}: {len(modeled)} modeled numbers "
                  "identical for one seed"
                  + ("" if len(same) == len(modeled) else
                     f" (differ: {sorted(set(modeled) - set(same))})"))
        code, fresh = invoke(driver, w, FRESH_SEED, "0")
        check(code == 0 and fresh and fresh["correct"]
              and fresh["failed"] == 0 and fresh["attempted"] > 0,
              f"{w}: fresh seed {FRESH_SEED} passes every check")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
