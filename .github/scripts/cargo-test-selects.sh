#!/usr/bin/env bash
# Runs `cargo test "$@"` and fails when cargo fails or when no test binary
# ran a single test: a name filter that a rename or a deletion left
# selecting nothing must not pass as "0 passed".
#
#   bash .github/scripts/cargo-test-selects.sh -q -p starfish-pagestore wal
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! sed 's/\x1b\[[0-9;]*m//g' "$log" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
    echo "error: \`cargo test $*\` selected no test" >&2
    exit 1
fi
