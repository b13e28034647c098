#!/bin/sh
# Non-test line counts: for every `crates/*/src` file, the lines before its
# first `#[cfg(test)]`, then the total. ROADMAP and CHANGES quote these
# figures. Run from the repository root: `sh .github/lines.sh`.
set -eu
for f in $(find crates/*/src -name '*.rs' | sort); do
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ {exit} {n++} END {printf "%6d %s\n", n, FILENAME}' "$f"
done | awk '{print} {t += $1} END {printf "%6d total\n", t}'
