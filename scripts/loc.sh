#!/usr/bin/env bash
# First-party line count: every .rs file under crates/*/src (vendored
# stand-ins in crates/compat/ excluded), the root crate's src/ and the
# repository benchmark's benchmark/src. "Non-test" lines stop at a file's
# first top-level `#[cfg(test)]`, where its unit-test module starts.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<lines> <non-test lines>" for the .rs files under the given roots.
count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { total++; if (!in_test) code++ }
        END { printf "%d %d\n", total, code }'
}

crates=$(find crates -mindepth 2 -maxdepth 2 -type d -name src -not -path 'crates/compat/*' | sort)
read -r crate_lines crate_code < <(count $crates)
read -r root_lines root_code < <(count src)
read -r bench_lines bench_code < <(count benchmark/src)

printf '%-40s %8s %10s\n' "area" "lines" "non-test"
printf '%-40s %8d %10d\n' "crates/*/src (excluding compat/)" "$crate_lines" "$crate_code"
printf '%-40s %8d %10d\n' "src" "$root_lines" "$root_code"
printf '%-40s %8d %10d\n' "benchmark/src" "$bench_lines" "$bench_code"
printf '%-40s %8d %10d\n' "total" $((crate_lines + root_lines + bench_lines)) \
    $((crate_code + root_code + bench_code))
