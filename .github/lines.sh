#!/bin/sh
# Non-test line counts: for every `crates/*/src` file, the lines before its
# first `#[cfg(test)]`, then the total. A file that a `#[cfg(test)] mod x;`
# pulls in is test code through and through, and counts 0. ROADMAP and
# CHANGES quote these figures. Run from the repository root:
# `sh .github/lines.sh`.
set -eu
files=$(find crates/*/src -name '*.rs' | sort)
# The files `#[cfg(test)] mod x;` declarations pull in, one per line: `x.rs`
# beside a `lib.rs`/`main.rs`/`mod.rs`, else in the directory named after
# the declaring file.
test_files=$(for f in $files; do
  awk -v f="$f" '
    /^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1 }
    gated && /(^|[^A-Za-z0-9_])mod [A-Za-z0-9_]+;/ {
      name = $0
      sub(/.*mod /, "", name)
      sub(/;.*/, "", name)
      dir = f
      sub(/\/[^\/]*$/, "", dir)
      stem = f
      sub(/.*\//, "", stem)
      sub(/\.rs$/, "", stem)
      if (stem != "lib" && stem != "main" && stem != "mod") dir = dir "/" stem
      print dir "/" name ".rs"
    }
    !/^[[:space:]]*#\[cfg\(test\)\]/ { gated = 0 }
  ' "$f"
done)
for f in $files; do
  if printf '%s\n' "$test_files" | grep -qxF "$f"; then
    printf "%6d %s\n" 0 "$f"
  else
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ {exit} {n++} END {printf "%6d %s\n", n, FILENAME}' "$f"
  fi
done | awk '{print} {t += $1} END {printf "%6d total\n", t}'
