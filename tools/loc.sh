#!/usr/bin/env bash
# Net line count of the shipped code (src/ + tools/) between two
# commits, so every change reports its size the same way.
#
#   tools/loc.sh [base]      base defaults to HEAD~1
#
# Counts the committed trees of HEAD and `base`, not the working tree.
# "physical" is every line; "code" drops blank lines and comment-only
# lines: // and /* */ in C++ sources, # in shell, Python and CMake
# (a #! line counts as a comment). Prints one row per commit and the
# delta. Exits nonzero only when a revision cannot be resolved.
set -euo pipefail

cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
paths=(src tools)

# Prints "<physical> <code>" for the tree at revision $1.
count_tree() {
  local rev="$1" physical=0 code=0 p c file
  while IFS= read -r file; do
    read -r p c < <(git show "$rev:$file" | awk -v name="$file" '
      BEGIN {
        cpp = name ~ /\.(c|cc|cpp|h|hpp|inl|inc)$/
        hash = name ~ /(\.(sh|py|cmake)|CMakeLists\.txt)$/
      }
      {
        physical++
        line = $0
        gsub(/^[ \t]+|[ \t\r]+$/, "", line)
        if (line == "") next
        if (cpp) {
          if (in_block) {
            if (index(line, "*/") > 0) in_block = 0
            next
          }
          if (substr(line, 1, 2) == "//") next
          if (substr(line, 1, 2) == "/*") {
            if (index(substr(line, 3), "*/") == 0) in_block = 1
            next
          }
        } else if (hash && substr(line, 1, 1) == "#") {
          next
        }
        code++
      }
      END { print physical + 0, code + 0 }')
    physical=$((physical + p))
    code=$((code + c))
  done < <(git ls-tree -r --name-only "$rev" -- "${paths[@]}")
  echo "$physical $code"
}

head_rev="$(git rev-parse --short HEAD)"
base_rev="$(git rev-parse --short "$base")"
read -r head_phys head_code < <(count_tree HEAD)
read -r base_phys base_code < <(count_tree "$base")

printf '%-14s %10s %10s\n' "src/ + tools/" physical code
printf '%-14s %10d %10d\n' "base $base_rev" "$base_phys" "$base_code"
printf '%-14s %10d %10d\n' "HEAD $head_rev" "$head_phys" "$head_code"
printf '%-14s %+10d %+10d\n' "delta" "$((head_phys - base_phys))" \
  "$((head_code - base_code))"
