#!/usr/bin/env python3
"""Every registered counter must be documented.

Scans the C++ sources under src/ for LAO_STAT(pass, name) uses and
requires each resulting counter name, written `pass.name` (in
backticks), to appear in docs/OBSERVABILITY.md. Prints the missing
names and exits 1 when any is undocumented; exits 0 otherwise.

Usage: check_counter_docs.py [--root <repo>]

The root defaults to the repository containing this script.
"""

import argparse
import pathlib
import re
import sys

# Lower-case arguments only: the macro's own definition,
# LAO_STAT(PASS, NAME), is not a counter.
COUNTER_RE = re.compile(
    r"LAO_STAT\(\s*([a-z_][a-z0-9_]*)\s*,\s*([a-z_][a-z0-9_]*)\s*\)")


def registered_counters(src: pathlib.Path) -> dict:
    """Maps each counter name to the first file:line that bumps it."""
    found = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".h") or not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        for match in COUNTER_RE.finditer(text):
            name = f"{match.group(1)}.{match.group(2)}"
            line = text.count("\n", 0, match.start()) + 1
            found.setdefault(name, f"{path}:{line}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()

    src = args.root / "src"
    doc = args.root / "docs" / "OBSERVABILITY.md"
    if not src.is_dir() or not doc.is_file():
        print(f"check_counter_docs: need {src}/ and {doc}", file=sys.stderr)
        return 1

    counters = registered_counters(src)
    if not counters:
        print(f"check_counter_docs: no LAO_STAT uses under {src}",
              file=sys.stderr)
        return 1
    doc_text = doc.read_text(encoding="utf-8")
    missing = sorted(n for n in counters if f"`{n}`" not in doc_text)
    for name in missing:
        print(f"undocumented counter {name} ({counters[name]}): add "
              f"`{name}` to {doc}", file=sys.stderr)
    if missing:
        return 1
    print(f"check_counter_docs: all {len(counters)} counters documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
