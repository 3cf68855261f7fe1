#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

    python3 perfbench/run.py --workload fleet_ingest --seed 1 --seconds 30 --trace 0

Run from the repository root. The driver and the `lateral` library it links
are built (CMake, Release) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set; the first run builds, later
runs only check that the build is current. Build output goes to stderr, so
the last line on stdout is the driver's JSON result. The exit code is the
driver's: 0 when every correctness check passed. Traced runs write their
spans to <build dir>/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the build before the first run may not.
RUN_TIMEOUT_S = 175


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build():
    """Configure once, then build incrementally. Returns the driver path."""
    out = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def main(argv):
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [driver, *argv, "--out-dir", os.path.join(build_root(), "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
