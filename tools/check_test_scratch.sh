#!/usr/bin/env bash
# Tests must not share scratch directories. Tests in one binary run in
# parallel threads of one process, so a temp_dir() name keyed only on
# the process id is shared by every test that picks the same label, and
# one test's set-up or clean-up deletes the files another is writing.
# So every temp_dir() under crates/*/tests/ must live in the crate's one
# shared helper, tests/common/, and every temp_dir() in the unit tests
# of crates/scenarios/src must live in its helper, src/test_scratch.rs.
# Each helper must draw a process-wide counter (fetch_add) into the
# name. Doc comments are exempt: every doctest runs in its own process.
# Run from anywhere; CI runs it next to the docs check.
set -euo pipefail

cd "$(dirname "$0")/.."
failures=0

fail() {
    echo "test-scratch FAIL: $*" >&2
    failures=$((failures + 1))
}

while IFS= read -r hit; do
    file=${hit%%:*}
    case "$file" in
        crates/*/tests/common/* | crates/scenarios/src/test_scratch.rs)
            if ! grep -q 'fetch_add' "$file"; then
                fail "$hit: temp_dir() name is pid-only; add a process-wide counter"
            fi
            ;;
        *)
            fail "$hit: temp_dir() outside the crate's shared Scratch helper"
            ;;
    esac
done < <(grep -rn --include='*.rs' 'temp_dir()' crates/*/tests crates/scenarios/src \
    | grep -Ev '^[^:]+:[0-9]+:[[:space:]]*//[/!]' | cut -d: -f1,2 || true)

if [ "$failures" -gt 0 ]; then
    echo "test-scratch: $failures failure(s)" >&2
    exit 1
fi
echo "test-scratch: OK"
