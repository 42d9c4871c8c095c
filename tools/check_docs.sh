#!/usr/bin/env bash
# Consistency check for the docs/ book and README: every repository
# path the docs reference must exist, each binary's flag parsers and its
# section of docs/cli.md must agree both ways, every environment
# variable the code reads must be named in docs/cli.md, and the README
# must link the book. Run from the repository root (CI's `docs` step
# does).
set -euo pipefail

cd "$(dirname "$0")/.."
failures=0

fail() {
    echo "docs-check FAIL: $*" >&2
    failures=$((failures + 1))
}

# 1. Referenced repository paths exist. Matches crates/..., examples/...,
#    docs/..., tools/... tokens (trailing punctuation stripped).
for doc in docs/*.md README.md; do
    while IFS= read -r path; do
        # Strip sentence punctuation the token regex may have swallowed.
        while [[ "$path" == *. || "$path" == *- || "$path" == */ ]]; do
            path="${path%?}"
        done
        [ -z "$path" ] && continue
        if [ ! -e "$path" ]; then
            fail "$doc references missing path: $path"
        fi
    done < <(grep -oE '(crates|examples|docs|tools)/[A-Za-z0-9_/.-]+' "$doc" | sort -u)
done

# 2. docs/cli.md and each binary's parsers agree on flags, both ways:
#    every --flag a binary's section of the page names is one that binary
#    parses, and every flag a parser matches has a row in its table.
scenarios_src=crates/scenarios/src/bin/scenarios.rs
green_perf_src=crates/integration/src/bin/green_perf.rs
# The argument reader every binary shares parses `--help` for them all.
reader_src=crates/bench/src/args.rs
# The lines of docs/cli.md from the first line matching $1 up to, not
# including, the next line matching $2 (or the end of the page).
cli_section() {
    awk -v from="$1" -v to="$2" 'on && $0 ~ to { exit } $0 ~ from { on = 1 } on' docs/cli.md
}
# Every --flag a text on stdin names.
named_flags() {
    grep -oE '(^|[^A-Za-z0-9-])--[a-z][a-z-]+' | grep -oE '\-\-[a-z][a-z-]+' | sort -u
}
for binary in scenarios green-perf; do
    case $binary in
        scenarios) src=$scenarios_src; next='^## `green-perf`' ;;
        green-perf) src=$green_perf_src; next='^## [^`]' ;;
    esac
    for flag in $(cli_section "^## \`$binary\`" "$next" | named_flags); do
        grep -qF -- "\"$flag\"" "$src" "$reader_src" \
            || fail "docs/cli.md documents $flag under $binary but $src does not parse it"
    done
done
# Each parser against its table (checks 7 and 8 cover orchestrate and
# analyze): the flags function <fn> of <source> matches, and the table
# between the headings matching <from> and <to>.
while read -r src fn from to; do
    flags=$(sed -n "/^fn $fn(/,/^}\$/p" "$src" | grep -oE '"--[a-z][a-z-]+"' | tr -d '"' | sort -u)
    [ -n "$flags" ] || fail "could not extract the flags of $fn from $src"
    table=$(cli_section "$from" "$to")
    for flag in $flags; do
        grep -qF -- "| \`$flag\` |" <<< "$table" \
            || fail "$src's $fn parses $flag but docs/cli.md has no row for it"
    done
done <<TABLES
$scenarios_src main ^##.\`scenarios\` ^###
$scenarios_src merge_main ^###.\`scenarios.merge\` ^###
$scenarios_src watch_main ^###.\`scenarios.watch\` ^###
$green_perf_src main ^##.\`green-perf\` ^##
TABLES

# 3. Every [grid]/[workload] key documented in docs/sweep-format.md is a
#    key the parser knows (the KNOWN table in sweep.rs), and vice versa —
#    a new axis must be documented, a renamed one re-documented.
sweep_src=crates/scenarios/src/sweep.rs
known_keys=$(sed -n '/const KNOWN/,/^];/p' "$sweep_src" | grep -oE '"[a-z_]+"' | tr -d '"' \
    | grep -vxE 'grid|workload' | sort -u)  # section names are not keys
doc_keys=$(grep -oE '^\| `[a-z_]+` \|' docs/sweep-format.md | grep -oE '[a-z_]+' | sort -u)
for key in $known_keys; do
    if ! echo "$doc_keys" | grep -qx "$key"; then
        fail "sweep key \`$key\` (sweep.rs KNOWN) is undocumented in docs/sweep-format.md"
    fi
done
for key in $doc_keys; do
    if ! echo "$known_keys" | grep -qx "$key"; then
        fail "docs/sweep-format.md documents \`$key\` but sweep.rs does not parse it"
    fi
done

# 4. The README links every page of the book.
for page in docs/architecture.md docs/sweep-format.md docs/cli.md \
        docs/observability.md docs/orchestration.md docs/analytics.md \
        docs/robustness.md docs/performance.md; do
    if ! grep -q "$page" README.md; then
        fail "README.md does not link $page"
    fi
done

# 6. Every counter/phase wire name the recorder defines is documented in
#    docs/observability.md — a new signal must land with its taxonomy row.
obs_src=crates/obs/src/lib.rs
wire_names=$(grep -oE '=> "[a-z_]+"' "$obs_src" | grep -oE '[a-z_]+' | sort -u)
for name in $wire_names; do
    if ! grep -q "\`$name\`" docs/observability.md; then
        fail "recorder wire name \`$name\` is undocumented in docs/observability.md"
    fi
done

# 7. The orchestrator cannot grow undocumented surface: every flag the
#    `scenarios orchestrate` parser accepts and every event-log record
#    name the wire format defines must appear in docs/orchestration.md.
orch_flags=$(sed -n '/fn orchestrate_main/,/^}$/p' "$scenarios_src" \
    | grep -oE '"--[a-z][a-z-]+"' | tr -d '"' | sort -u)
[ -n "$orch_flags" ] || fail "could not extract orchestrate flags from $scenarios_src"
for flag in $orch_flags; do
    if ! grep -qF -- "\`$flag\`" docs/orchestration.md; then
        fail "orchestrate flag $flag is undocumented in docs/orchestration.md"
    fi
done
events_src=crates/scenarios/src/orchestrate/events.rs
event_names=$(grep -oE '=> "[a-z]+"' "$events_src" | grep -oE '[a-z]+' | sort -u)
[ -n "$event_names" ] || fail "could not extract event names from $events_src"
for name in $event_names; do
    if ! grep -qE "^\| \`$name\` \|" docs/orchestration.md; then
        fail "orchestrate event \`$name\` is undocumented in docs/orchestration.md"
    fi
done

# 8. The analytics surface cannot drift from its page: every flag the
#    `scenarios analyze` parser accepts, every stat column the report
#    emits, and every columnar wire name must appear in docs/analytics.md.
analyze_flags=$(sed -n '/fn analyze_main/,/^}$/p' "$scenarios_src" \
    | grep -oE '"--[a-z][a-z-]+"' | tr -d '"' | sort -u)
[ -n "$analyze_flags" ] || fail "could not extract analyze flags from $scenarios_src"
for flag in $analyze_flags; do
    if ! grep -qF -- "\`$flag\`" docs/analytics.md; then
        fail "analyze flag $flag is undocumented in docs/analytics.md"
    fi
done
analyze_src=crates/scenarios/src/analyze/mod.rs
stat_headers=$(sed -n '/^pub const ANALYZE_STAT_HEADERS/,/^];/p' "$analyze_src" \
    | grep -oE '"[a-z0-9]+"' | tr -d '"' | sort -u)
[ -n "$stat_headers" ] || fail "could not extract stat headers from $analyze_src"
for name in $stat_headers; do
    if ! grep -qE "^\| \`$name\` \|" docs/analytics.md; then
        fail "analyze output column \`$name\` is undocumented in docs/analytics.md"
    fi
done
columnar_src=crates/scenarios/src/analyze/columnar.rs
col_types=$(grep -oE '=> "[a-z0-9]+"' "$columnar_src" | grep -oE '[a-z0-9]+' | sort -u)
[ -n "$col_types" ] || fail "could not extract column wire names from $columnar_src"
for name in $col_types; do
    if ! grep -qE "^\| \`$name\` \|" docs/analytics.md; then
        fail "columnar wire name \`$name\` is undocumented in docs/analytics.md"
    fi
done
if ! grep -q 'green-cols/1' docs/analytics.md; then
    fail "columnar schema string green-cols/1 is undocumented in docs/analytics.md"
fi

# 9. The chaos surface cannot drift from its page: every failpoint
#    wire name the registry defines must have a catalog row in
#    docs/robustness.md, and every `--chaos` flag a binary parses must
#    be documented in docs/cli.md and docs/robustness.md.
chaos_src=crates/chaos/src/lib.rs
failpoint_names=$(sed -n '/pub fn name/,/^    }/p' "$chaos_src" \
    | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
[ -n "$failpoint_names" ] || fail "could not extract failpoint names from $chaos_src"
for name in $failpoint_names; do
    if ! grep -qE "^\| \`$name\` \|" docs/robustness.md; then
        fail "failpoint \`$name\` is undocumented in docs/robustness.md"
    fi
done
if grep -qF '"--chaos"' "$scenarios_src"; then
    for doc in docs/cli.md docs/robustness.md; do
        if ! grep -qF -- '--chaos' "$doc"; then
            fail "the --chaos flag is undocumented in $doc"
        fi
    done
else
    fail "docs/robustness.md documents --chaos but $scenarios_src does not parse it"
fi

# 10. The parallel-execution surface cannot drift from its pages: if the
#     scenarios binary parses --threads it must be documented in both
#     docs/cli.md and docs/performance.md, and every thread count in the
#     green-perf SCALING_THREADS ladder must have its scaling_paper_tN /
#     scaling_mega_tN bench names backticked in docs/performance.md.
if grep -qF '"--threads"' "$scenarios_src"; then
    for doc in docs/cli.md docs/performance.md; do
        if ! grep -qF -- '--threads' "$doc"; then
            fail "the --threads flag is undocumented in $doc"
        fi
    done
else
    fail "docs/performance.md documents --threads but $scenarios_src does not parse it"
fi
scaling_threads=$(sed -n 's/.*SCALING_THREADS: \[usize; [0-9]*\] = \[\(.*\)\];.*/\1/p' \
    "$green_perf_src" | tr ',' ' ')
[ -n "$scaling_threads" ] || fail "could not extract SCALING_THREADS from $green_perf_src"
for t in $scaling_threads; do
    for bench in "scaling_paper_t$t" "scaling_mega_t$t"; do
        if ! grep -q "\`$bench\`" docs/performance.md; then
            fail "scaling bench \`$bench\` is undocumented in docs/performance.md"
        fi
    done
done

# 11. Rust sources name only documents that exist: an upper-case file
#     at the repository root (README.md, ROADMAP.md, ...) or a docs/
#     page. A token preceded by `<` is a placeholder, not a file.
md_token='(docs/[A-Za-z0-9_-]+|[A-Z][A-Z0-9_]*)\.md'
md_refs=$(grep -rnoE --include='*.rs' "(^|[^A-Za-z0-9_/.<-])$md_token" crates \
    | sed -E "s#^([^:]+:[0-9]+:)[^A-Za-z0-9_/.<-]?$md_token\$#\1\2.md#" | sort -u)
[ -n "$md_refs" ] || fail "could not extract document references from crates/"
while IFS=: read -r file line doc; do
    [ -e "$doc" ] || fail "$file:$line names a missing document: $doc"
done <<< "$md_refs"

# 12. Bench baselines named in the README, the docs/ book or a Rust
#     source under crates/ exist at the repository root: a baseline
#     regeneration must move every reference to the new file.
while IFS=: read -r file line baseline; do
    [ -e "$baseline" ] || fail "$file:$line names a missing baseline: $baseline"
done < <(grep -rnoE --include='*.md' 'BENCH_[0-9]+\.json' README.md docs || true
    grep -rnoE --include='*.rs' 'BENCH_[0-9]+\.json' crates || true)

# 13. Every environment variable a non-test source under crates/ reads
#     (`env::var("NAME")` or `env::var_os("NAME")`) is named in
#     docs/cli.md. Files under a tests/ directory and the unit-test
#     module that closes a file (from its `#[cfg(test)]` line on) are
#     test sources.
env_reads=$(find crates -name '*.rs' -not -path '*/tests/*' -print0 | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && match($0, /env::var(_os)?\("[A-Za-z0-9_]+"/) {
        name = substr($0, RSTART, RLENGTH)
        sub(/^[^"]*"/, "", name)
        sub(/"$/, "", name)
        print FILENAME ":" FNR ":" name
    }')
while IFS=: read -r file line name; do
    [ -n "$name" ] || continue
    grep -qF -- "\`$name\`" docs/cli.md \
        || fail "$file:$line reads the environment variable $name, which docs/cli.md does not name"
done <<< "$env_reads"

# 5. Workload presets stay in sync between parser and docs.
for preset in micro tiny quick paper; do
    if ! grep -q "\`$preset\`" docs/sweep-format.md; then
        fail "preset \`$preset\` missing from docs/sweep-format.md"
    fi
done

if [ "$failures" -gt 0 ]; then
    echo "docs-check: $failures failure(s)" >&2
    exit 1
fi
echo "docs-check: OK"
