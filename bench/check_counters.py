#!/usr/bin/env python3
"""Fail when a modeled counter in a fresh BENCH_FIG*.json drifts.

Usage: check_counters.py COMMITTED_DIR FRESH_DIR

Compares BENCH_FIG9.json .. BENCH_FIG16.json in FRESH_DIR (just written by
the bench binaries) with the same files in COMMITTED_DIR (the committed
artifacts). Every counter computed on the simulated clock is deterministic,
so each must match exactly; a change that moves one must regenerate and
commit the artifact. Skipped: google-benchmark's own fields, and the named
counters read from the host clock, which vary from run to run.
"""
import json
import pathlib
import sys

FIGURES = [f"BENCH_FIG{n}.json" for n in range(9, 17)]

# Written by google-benchmark itself: identity, repetition and timing fields.
BENCHMARK_FIELDS = {
    "name",
    "run_name",
    "run_type",
    "family_index",
    "per_family_instance_index",
    "repetition_index",
    "repetitions",
    "threads",
    "time_unit",
    "iterations",
    "real_time",
    "cpu_time",
    "items_per_second",
}

# Counters the bench computes from the host clock.
HOST_CLOCK = {
    "BENCH_FIG14.json": {
        "cold_per_sec",
        "full_cold_us",
        "full_warm_cache_us",
        "resumed_per_sec",
        "resumed_speedup",
        "resumed_us",
        "readings_per_sec",
    },
    "BENCH_FIG15.json": {
        "wall_us_per_update",
        "staging_mbytes_per_sec",
        "detect_wall_us",
    },
}


def load_rows(path):
    with open(path) as f:
        return {row["name"]: row for row in json.load(f)["benchmarks"]}


def compare(figure, committed, fresh):
    """Yield one message per difference between two files' rows."""
    for name in sorted(committed.keys() - fresh.keys()):
        yield f"{figure}: {name}: missing from the fresh run"
    for name in sorted(fresh.keys() - committed.keys()):
        yield f"{figure}: {name}: not in the committed file"
    skip = BENCHMARK_FIELDS | HOST_CLOCK.get(figure, set())
    for name in sorted(committed.keys() & fresh.keys()):
        old, new = committed[name], fresh[name]
        for key in sorted((old.keys() | new.keys()) - skip):
            if old.get(key) != new.get(key):
                yield (f"{figure}: {name}: {key}: committed "
                       f"{old.get(key)!r}, fresh {new.get(key)!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed_dir, fresh_dir = (pathlib.Path(arg) for arg in argv[1:])
    drift = []
    for figure in FIGURES:
        drift.extend(compare(figure, load_rows(committed_dir / figure),
                             load_rows(fresh_dir / figure)))
    for line in drift:
        print(line)
    if drift:
        print(f"{len(drift)} modeled counter(s) drifted from the committed "
              "artifacts")
        return 1
    print(f"modeled counters of {len(FIGURES)} artifacts match exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
