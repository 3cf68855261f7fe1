#!/usr/bin/env python3
"""Keep hand-written page walks out of src/.

Domain memory is walked page by page in one place: the paged-memory module
(src/substrate/paged_memory.*), which every frame-list backend uses, and
the simulated hardware under src/hw/. This lint fails on the first step of
any other walk, splitting an offset into a page index and an in-page offset
by dividing (or taking the remainder) by kPageSize, anywhere else under the
given source root.

Usage: page_walk_lint.py <src-dir>
"""
import pathlib
import re
import sys

# `offset / hw::kPageSize`, `at % kPageSize`, `x /= kPageSize`, ...
SPLIT = re.compile(r"[/%]=?\s*(?:hw::)?kPageSize\b")

EXEMPT_DIRS = ("hw/",)
EXEMPT_FILES = ("substrate/paged_memory.h", "substrate/paged_memory.cpp")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1])
    failures = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith(EXEMPT_DIRS) or rel in EXEMPT_FILES:
            continue
        for number, text in enumerate(path.read_text().splitlines(), 1):
            if SPLIT.search(text):
                failures.append(f"{rel}:{number}: {text.strip()}")
    if failures:
        print("page walk outside src/substrate/paged_memory.* "
              "(use PagedSubstrate::read_span/write_span/page_span):")
        for failure in failures:
            print("  " + failure)
        return 1
    print("page_walk_lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
