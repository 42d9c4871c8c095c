#!/usr/bin/env bash
# No workspace member may contain `unsafe` code. The root Cargo.toml
# forbids it in [workspace.lints.rust], but a lint table binds only the
# members whose manifest opts in with `[lints]` + `workspace = true`.
# This reads the `members` list of the root Cargo.toml and fails,
# naming the manifest, for each member that does not opt in. Run from
# anywhere; CI runs it next to the docs check.
set -euo pipefail

cd "$(dirname "$0")/.."
failures=0

fail() {
    echo "lints FAIL: $*" >&2
    failures=$((failures + 1))
}

grep -q '^unsafe_code = "forbid"' Cargo.toml ||
    fail 'Cargo.toml: [workspace.lints.rust] must set unsafe_code = "forbid"'

members=$(awk '
    /^members = \[/ { inside = 1; next }
    inside && /^\]/ { exit }
    inside && !/^[[:space:]]*#/ { gsub(/[",[:space:]]/, ""); if ($0 != "") print }
' Cargo.toml)
[ -n "$members" ] || fail "Cargo.toml: no workspace members found"

for member in $members; do
    manifest="$member/Cargo.toml"
    if ! awk '
        /^\[/ { section = $0; next }
        section == "[lints]" && /^workspace[[:space:]]*=[[:space:]]*true/ { found = 1 }
        END { exit !found }
    ' "$manifest" 2>/dev/null; then
        fail "$manifest: add [lints] with workspace = true to inherit the workspace lints"
    fi
done

if [ "$failures" -gt 0 ]; then
    echo "lints: $failures failure(s)" >&2
    exit 1
fi
echo "lints: OK ($(echo "$members" | wc -l) members inherit the workspace lints)"
