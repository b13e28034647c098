#!/bin/sh
# Non-test line counts: for every `crates/*/src` file, the lines before its
# first `#[cfg(test)]`, then the total. A file that a `#[cfg(test)] mod x;`
# pulls in is test code through and through, and counts 0. ROADMAP and
# CHANGES quote these figures. Run from the repository root:
# `sh .github/lines.sh`.
#
# The count is only right when a file's first `#[cfg(test)]` gates a `mod`
# (`mod tests { ... }` at the end, or `mod x;`): one on a lone function or
# `use` would cut the count off mid-file. The script exits 1, naming each
# such file, instead of printing a short figure.
set -eu
files=$(find crates/*/src -name '*.rs' | sort)
# Files whose first `#[cfg(test)]` is followed (past further attributes,
# comments and blank lines) by something other than a `mod` item.
stray=$(for f in $files; do
  awk '
    !seen && /^[[:space:]]*#\[cfg\(test\)\]/ {
      seen = 1
      sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "")
      if ($0 == "") next
    }
    seen && /^[[:space:]]*(#\[|\/\/|$)/ { next }
    seen {
      if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+/) print FILENAME
      exit
    }
  ' "$f"
done)
if [ -n "$stray" ]; then
  for f in $stray; do
    echo "lines.sh: the first #[cfg(test)] in $f does not gate a mod;" \
      "move the test code into its test module" >&2
  done
  exit 1
fi
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
