#!/usr/bin/env python3
"""Keep a second RPC method registry out of src/.

Every RPC server (the sync and async dispatchers and the fleet server's
inline methods) looks its methods up in one table, net::MethodTable in
src/net/remote.h. A method registry is a name-keyed map of RPC methods: a
std::map, std::unordered_map or std::multimap keyed by std::string (or
std::string_view) whose values are a `Method` type or a handler of the RPC
signature std::function<Result<Bytes>(BytesView ...)>. This lint fails on
every registry under the given source root but the one inside
`class MethodTable`, and when that one is missing.

Usage: rpc_lint.py <src-dir>
"""
import pathlib
import re
import sys

REGISTRY = re.compile(
    r"\b(?:std::)?(?:unordered_|multi)?map\s*<\s*(?:const\s+)?"
    r"std::string(?:_view)?\s*,\s*"
    r"(?:[\w:]*\bMethod\b|std::function\s*<\s*Result\s*<\s*Bytes\s*>\s*"
    r"\(\s*BytesView)")

TABLE_FILE = "net/remote.h"
TABLE_CLASS = re.compile(r"^class MethodTable \{$.*?^\};$", re.M | re.S)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1])
    failures = []
    tables = 0
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        table = TABLE_CLASS.search(text) if rel == TABLE_FILE else None
        # Searched over the whole file: a declaration may wrap its type.
        for match in REGISTRY.finditer(text):
            if table and table.start() <= match.start() < table.end():
                tables += 1
                continue
            number = text.count("\n", 0, match.start()) + 1
            line = text.splitlines()[number - 1].strip()
            failures.append(f"{rel}:{number}: {line}")
    if failures:
        print("RPC method registry outside net::MethodTable "
              "(register on a MethodTable instead):")
        for failure in failures:
            print("  " + failure)
        return 1
    if tables != 1:
        print(f"rpc_lint: expected one registry in class MethodTable "
              f"({TABLE_FILE}), found {tables}")
        return 1
    print("rpc_lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
