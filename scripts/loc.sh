#!/usr/bin/env bash
# Print non-test Go lines per package: the tracked number of ROADMAP
# item 12. Every deletion PR records this table in CHANGES.md, counted
# the same way each time:
#
#   find <pkg> -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
#
# One row per package directory that holds non-test Go files (a package's
# sub-packages are their own rows), plus one row for all of bench/.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
        xargs -0 cat | wc -l
}

for dir in $(find . -path ./bench -prune -o -path './.*' -prune -o \
        -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -printf '%h\n' | sort -u); do
    printf '%-40s %6d\n' "${dir#./}" "$(count "$dir" -maxdepth 1)"
done
printf '%-40s %6d\n' "bench/" "$(count bench)"
