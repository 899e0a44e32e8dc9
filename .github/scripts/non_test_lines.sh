#!/bin/sh
# Non-test code lines of the Rust files in one source directory: every
# `#[cfg(test)]` item is skipped, at any indentation, up to the brace that
# closes it (or its `;` when it has no body), then comment and blank lines
# are dropped. A file whose module a sibling declares under `#[cfg(test)]`
# (`#[cfg(test)] mod tests;` with the body in `tests.rs`) is test code as
# a whole and is skipped. Usage: non_test_lines.sh crates/core/src
for f in "$1"/*.rs; do
  m=$(basename "$f" .rs)
  if cat "$1"/*.rs | awk -v m="$m" '
    /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 }
    t && $0 ~ ("mod[[:space:]]+" m "[[:space:]]*;") { found = 1 }
    t && !/^[[:space:]]*#\[/ { t = 0 }
    END { exit !found }'; then
    continue
  fi
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
