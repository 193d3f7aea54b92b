#!/bin/sh
# check-docs.sh — fail on markdown links that point at files missing
# from the repo. Run from the repository root; CI's docs job runs it on
# every push. External (http/https/mailto) links and pure #anchors are
# skipped; relative targets are resolved against the linking file's
# directory and checked for existence, so a doc rename that strands a
# reference breaks the build instead of rotting quietly.
#
# The docs also cite golden artifacts by path (ARCHITECTURE.md's
# golden-store paragraph, README's -verify workflow), usually in backticks
# rather than markdown links — so every testdata/golden/... path
# mentioned anywhere in the scanned docs is additionally checked
# against the store, and a renamed or deleted golden file breaks the
# build too.
#
# Every internal/ package must carry a godoc package comment
# ("// Package <name> ...") in at least one non-test file, so the doc
# surface brought up in PR 4 cannot silently regress when a package is
# added or its doc.go is deleted.
#
# The scenario catalog (docs/SCENARIOS.md, overridable via
# CATALOG= for the negative tests) must list exactly the experiment ids
# the registry knows — enumerated with `elbench -list` — in both
# directions: a registered id missing from the catalog fails, and a
# catalog row naming an unknown id fails, so the table can never rot.
# The listing command itself is overridable via LISTCMD= so the
# negative tests can feed a canned registry without building elbench.
#
# The same pass enforces the tag layer both ways: every registry entry
# must carry at least one tag (a tagless experiment is a docs failure,
# per the Experiment.Tags contract), and each catalog row's `tags`
# column must equal that experiment's registered tags exactly, so
# re-tagging an experiment without updating the catalog (or vice
# versa) breaks the build.
#
# Finally, the determinism-analyzer table in ARCHITECTURE.md's
# "Determinism invariants, statically enforced" section (overridable
# via ARCHDOC= for the negative tests) must name exactly the analyzers
# `elvet -list` registers, both directions, so the linter's documented
# contract can never drift from its registry either.
set -eu

files="README.md ARCHITECTURE.md ROADMAP.md examples/README.md docs/SCENARIOS.md"
fail=0

for f in $files; do
    if [ ! -f "$f" ]; then
        echo "check-docs: missing doc file: $f" >&2
        fail=1
        continue
    fi
    dir=$(dirname "$f")
    # Markdown inline links: capture the (target) of every ](target).
    for link in $(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//'); do
        case "$link" in
        http://* | https://* | mailto:*) continue ;;
        '#'*) continue ;;
        esac
        target=${link%%#*} # strip any section anchor
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "check-docs: $f links to nonexistent repo file: $target" >&2
            fail=1
        fi
    done
done

# Golden-store citations: any testdata/golden/... path a doc mentions
# (linked or in backticks) must exist. Placeholder forms like
# testdata/golden/<id>.txt are skipped by the character class.
for f in $files; do
    [ -f "$f" ] || continue
    for path in $(grep -oE 'testdata/golden/[A-Za-z0-9._-]+' "$f" | sort -u); do
        if [ ! -e "$path" ]; then
            echo "check-docs: $f cites nonexistent golden artifact: $path" >&2
            fail=1
        fi
    done
done

# Package doc comments: each internal package needs "// Package <pkg>"
# in some non-test .go file (conventionally doc.go). The grep is a
# shape check, not a position check — gofmt keeps doc comments glued to
# the package clause, so shape is the part that can rot.
for dir in internal/*/; do
    pkg=$(basename "$dir")
    found=0
    for g in "$dir"*.go; do
        [ -f "$g" ] || continue
        case "$g" in *_test.go) continue ;; esac
        if grep -q "^// Package $pkg " "$g"; then
            found=1
            break
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "check-docs: internal/$pkg has no package doc comment (// Package $pkg ... above the package clause)" >&2
        fail=1
    fi
done

# Scenario catalog cross-check: the ids in docs/SCENARIOS.md's table
# must be exactly the registry's ids. `elbench -list` is the
# authoritative enumeration (it reads the registry and runs nothing);
# the catalog side is the first column of its markdown table.
catalog="${CATALOG:-docs/SCENARIOS.md}"
if [ ! -f "$catalog" ]; then
    echo "check-docs: missing scenario catalog: $catalog" >&2
    fail=1
elif [ -z "${LISTCMD:-}" ] && ! command -v go >/dev/null 2>&1; then
    echo "check-docs: go toolchain unavailable; skipping the registry/catalog cross-check" >&2
else
    listing=$(eval "${LISTCMD:-go run ./cmd/elbench -list}")
    registry=$(printf '%s\n' "$listing" | cut -f1)
    # Tag contract: every registry entry carries at least one tag.
    # `|| true`: no untagged entries is the healthy case under set -e.
    untagged=$(printf '%s\n' "$listing" | awk -F'\t' 'NF < 3 || $3 == "" {print $1}' || true)
    for id in $untagged; do
        echo "check-docs: experiment $id is registered without any tags (Experiment.Tags must be non-empty)" >&2
        fail=1
    done
    # `|| true`: zero catalog rows must fall through to the loops below
    # (every registered id reported missing), not abort under set -e.
    listed=$(grep -oE '^\| *`?(table|figure)[0-9]+`? *\|' "$catalog" | tr -d '|` ' || true)
    for id in $registry; do
        case " $(echo $listed) " in
        *" $id "*) ;;
        *)
            echo "check-docs: experiment $id is registered but missing from $catalog" >&2
            fail=1
            continue
            ;;
        esac
        # The catalog row's `tags` column (second table column) must
        # match the registered tags exactly, order included — both are
        # meant to read as the same vocabulary in the same order.
        rtags=$(printf '%s\n' "$listing" | awk -F'\t' -v id="$id" '$1 == id {print $3}')
        dtags=$(awk -F'|' -v id="$id" '{
            col2 = $2; gsub(/[` ]/, "", col2)
            if (col2 == id) { print $3 }
        }' "$catalog")
        if [ "$(echo $rtags)" != "$(echo $dtags)" ]; then
            echo "check-docs: $catalog tags for $id are [$(echo $dtags)] but the registry says [$(echo $rtags)]" >&2
            fail=1
        fi
    done
    for id in $listed; do
        case " $(echo $registry) " in
        *" $id "*) ;;
        *)
            echo "check-docs: $catalog lists $id but the registry has no such experiment (see elbench -list)" >&2
            fail=1
            ;;
        esac
    done
fi

# Analyzer cross-check: the first column of the analyzer table inside
# the "Determinism invariants, statically enforced" section must match
# `elvet -list` exactly. The section is sliced out with awk so other
# backticked first-column tables elsewhere in the doc cannot
# contaminate the comparison.
archdoc="${ARCHDOC:-ARCHITECTURE.md}"
if [ ! -f "$archdoc" ]; then
    echo "check-docs: missing architecture doc: $archdoc" >&2
    fail=1
elif ! command -v go >/dev/null 2>&1; then
    echo "check-docs: go toolchain unavailable; skipping the analyzer cross-check" >&2
else
    registered=$(go run ./cmd/elvet -list | cut -f1)
    # `|| true`: a doc with no analyzer rows must fall through to the
    # loops (every registered analyzer reported missing), not abort.
    documented=$(awk '/^## Determinism invariants, statically enforced/,/^## The shared/' "$archdoc" |
        grep -oE '^\| *`[a-z0-9]+` *\|' | tr -d '|` ' || true)
    for a in $registered; do
        case " $(echo $documented) " in
        *" $a "*) ;;
        *)
            echo "check-docs: analyzer $a is registered in elvet but missing from $archdoc's invariants table" >&2
            fail=1
            ;;
        esac
    done
    for a in $documented; do
        case " $(echo $registered) " in
        *" $a "*) ;;
        *)
            echo "check-docs: $archdoc documents analyzer $a but elvet does not register it (see elvet -list)" >&2
            fail=1
            ;;
        esac
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "check-docs: FAILED" >&2
    exit 1
fi
echo "check-docs: links, golden citations, package doc comments, the scenario catalog and the analyzer registry all check out"
