#!/usr/bin/env python3
"""Keep hand-written integer codecs out of src/.

Every wire format lays out its integers through src/util/wire.h. This lint
fails on the byte-at-a-time shift idioms a hand-written codec is made of,
anywhere under the given source root except wire.h itself and the short
allowlist below, whose lines are not wire formats.

Usage: wire_lint.py <src-dir>
"""
import pathlib
import re
import sys

# The shapes of a hand-written codec: a big-endian reader (`(v << 8) | b`),
# a writer (`v >> (8 * i)`, `v >> (56 - 8 * i)`) and a little-endian reader
# (`b << (8 * i)`).
IDIOMS = re.compile(r"<< 8\) \||>> \(8 \*|>> \(56 - 8|<< \(8 \*")

EXEMPT_FILE = "util/wire.h"

# (file under src/, exact stripped line, why it is not a wire codec)
ALLOWLIST = [
    ("crypto/sha256.cpp",
     "(std::uint32_t(blocks[4 * i + 2]) << 8) |",
     "portable SHA-256 kernel: message-schedule word load"),
    ("crypto/aes.cpp",
     "(std::uint32_t(kSbox[(w >> 8) & 0xFF]) << 8) |",
     "portable AES kernel: S-box word substitution"),
    ("crypto/aes.cpp",
     "std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }",
     "portable AES kernel: key-schedule word rotation"),
    ("crypto/aes.cpp",
     "(std::uint32_t(key[4 * i + 2]) << 8) | std::uint32_t(key[4 * i + 3]);",
     "portable AES kernel: key-schedule word load"),
    ("crypto/bignum.cpp",
     "std::uint32_t(big_endian[i]) << (8 * (byte_from_lsb % 4));",
     "bignum limb conversion from big-endian bytes"),
    ("trace/trace.cpp",
     "for (int i = 0; i < 8; ++i) lo |= "
     "static_cast<std::uint64_t>(e.payload[i]) << (8 * i);",
     "flight-recorder ring: in-memory word packing, never on a wire"),
    ("trace/trace.cpp",
     "hi |= static_cast<std::uint64_t>(e.payload[8 + i]) << (8 * i);",
     "flight-recorder ring: in-memory word packing, never on a wire"),
    ("trace/trace.cpp",
     "e.payload[i] = static_cast<std::uint8_t>(w[5] >> (8 * i));",
     "flight-recorder ring: in-memory word unpacking, never on a wire"),
    ("trace/trace.cpp",
     "e.payload[8 + i] = static_cast<std::uint8_t>(w[6] >> (8 * i));",
     "flight-recorder ring: in-memory word unpacking, never on a wire"),
    ("hw/machine.cpp",
     "seed_bytes[i] = static_cast<std::uint8_t>(seed >> (8 * i));",
     "vendor DRBG seed from an integer, in memory, never on a wire"),
]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1])
    allowed = {(path, line) for path, line, _ in ALLOWLIST}
    used = set()
    failures = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel == EXEMPT_FILE:
            continue
        for number, text in enumerate(path.read_text().splitlines(), 1):
            if not IDIOMS.search(text):
                continue
            key = (rel, text.strip())
            if key in allowed:
                used.add(key)
                continue
            failures.append(f"{rel}:{number}: {text.strip()}")
    for path, line, _ in ALLOWLIST:
        if (path, line) not in used:
            failures.append(f"{path}: allowlisted line is gone: {line}")
    if failures:
        print("hand-written integer codec outside util/wire.h "
              "(use wire::ByteWriter/ByteReader):")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"wire_lint: ok ({len(ALLOWLIST)} allowlisted lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
