#!/bin/sh
# Non-test code lines of the Rust files in one source directory: every
# `#[cfg(test)]` item is skipped, at any indentation, up to the brace that
# closes it (or its `;` when it has no body), then comment and blank lines
# are dropped. Usage: non_test_lines.sh crates/core/src
for f in "$1"/*.rs; do
  awk '
    !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; open = 0; next }
    skip {
      o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c
      if (o) open = 1
      if ((open && depth <= 0) || (!open && /;[[:space:]]*$/)) skip = 0
      next
    }
    { print }' "$f"
done | grep -vcE '^\s*(//|$)'
