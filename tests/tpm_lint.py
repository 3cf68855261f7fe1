#!/usr/bin/env python3
"""Keep the TPM's state banks inside src/tpm/.

The nine TPM commands run in one place, tpm::CommandSet (src/tpm/), which
owns the PCR bank and the NV counter bank behind both the discrete chip and
the TrustZone firmware TPM. A second holder of either bank under src/ would
be a second copy of the commands over it, so this lint fails wherever
`PcrBank` or `NvCounterBank` is named, in code or comment, anywhere under
the given source root but src/tpm/.

Usage: tpm_lint.py <src-dir>
"""
import pathlib
import re
import sys

BANK = re.compile(r"\b(?:PcrBank|NvCounterBank)\b")

EXEMPT_DIRS = ("tpm/",)


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
        if rel.startswith(EXEMPT_DIRS):
            continue
        for number, text in enumerate(path.read_text().splitlines(), 1):
            if BANK.search(text):
                failures.append(f"{rel}:{number}: {text.strip()}")
    if failures:
        print("TPM bank named outside src/tpm/ "
              "(use the tpm::CommandSet commands):")
        for failure in failures:
            print("  " + failure)
        return 1
    print("tpm_lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
