#!/usr/bin/env bash
# Integration tests must not share scratch directories. Tests in one
# binary run in parallel threads of one process, so a temp_dir() name
# keyed only on the process id is shared by every test that picks the
# same label, and one test's set-up or clean-up deletes the files
# another is writing. So every temp_dir() under crates/*/tests/ must
# live in the crate's one shared helper, tests/common/, and that helper
# must draw a process-wide counter (fetch_add) into the name. Run from
# anywhere; CI runs it next to the docs check.
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
        crates/*/tests/common/*)
            if ! grep -q 'fetch_add' "$file"; then
                fail "$hit: temp_dir() name is pid-only; add a process-wide counter"
            fi
            ;;
        *)
            fail "$hit: temp_dir() outside tests/common/; use the crate's shared Scratch helper"
            ;;
    esac
done < <(grep -rn --include='*.rs' 'temp_dir()' crates/*/tests | cut -d: -f1,2 || true)

if [ "$failures" -gt 0 ]; then
    echo "test-scratch: $failures failure(s)" >&2
    exit 1
fi
echo "test-scratch: OK"
