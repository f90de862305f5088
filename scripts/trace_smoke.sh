#!/usr/bin/env bash
# End-to-end smoke test for the observability layer (`ringen-obs`).
#
# Exercises every way a trace can leave the process and validates each
# artifact with `trace_check` (which re-parses the JSON with the same
# parser that wrote it):
#
#   1. `--report-json` on the default solver — span tree, counters,
#      histograms, automaton-store stats;
#   2. `--report-json` on the portfolio — all five entrants must appear
#      as children of the `race` span, each with a verdict;
#   3. `RINGEN_TRACE` (env, no flag) — same document, env-driven;
#   4. `RINGEN_TRACE_FORMAT=chrome` — Chrome trace_event JSON for
#      Perfetto, validated structurally (`trace_check --chrome`): one
#      complete event per span, monotone timestamps, parent
#      containment, exactly one event per portfolio entrant;
#   5. `RINGEN_TRACE_FORMAT=flame` — collapsed stacks for
#      inferno/speedscope: `name;name;... <self-ns>` lines rooted at
#      `solve`;
#   6. bounded sinks — `RINGEN_TRACE_RING` (ring-buffer span store) and
#      `RINGEN_TRACE_SAMPLE` (head sampling) runs must still produce
#      valid reports, with drops surfaced under `dropped_spans`;
#   7. `trace_diff` — a report compared against itself passes, and a
#      doctored copy with an inflated phase latency fails the gate;
#   8. a recorder-off run must NOT create the trace file.
#
# Usage: scripts/trace_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q
RINGEN=target/release/ringen
CHECK=target/release/trace_check
DIFF=target/release/trace_diff

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Example 1 of the paper (SAT for every engine; fast everywhere).
cat > "$tmp/even.smt2" <<'EOF'
(declare-datatypes ((Nat 0)) (((Z) (S (pre Nat)))))
(declare-fun even (Nat) Bool)
(assert (even Z))
(assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
(assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
EOF

fail() {
    echo "trace_smoke: FAIL: $*" >&2
    exit 1
}

run() { # run DESC TIMEOUT_S CMD...
    local desc=$1 limit=$2
    shift 2
    echo "== $desc"
    timeout "${limit}s" "$@" || fail "$desc (status $?)"
}

# 1. Default solver, explicit flag.
run "ringen --report-json" 60 \
    "$RINGEN" --quiet --report-json "$tmp/solve.json" "$tmp/even.smt2"
run "validate solve report" 10 "$CHECK" "$tmp/solve.json"

# 2. Portfolio race: the report must show every entrant.
run "portfolio --report-json" 60 \
    "$RINGEN" --quiet --solver portfolio --report-json "$tmp/race.json" \
    "$tmp/even.smt2"
run "validate race report" 10 "$CHECK" --portfolio "$tmp/race.json"

# 3. Env-driven trace, no flag.
run "RINGEN_TRACE" 60 \
    env RINGEN_TRACE="$tmp/env.json" \
    "$RINGEN" --quiet "$tmp/even.smt2"
run "validate env report" 10 "$CHECK" "$tmp/env.json"

# 4. Chrome trace_event export — `--portfolio` demands exactly one
#    complete event per race entrant.
run "RINGEN_TRACE_FORMAT=chrome" 60 \
    env RINGEN_TRACE="$tmp/chrome.json" RINGEN_TRACE_FORMAT=chrome \
    "$RINGEN" --quiet --solver portfolio "$tmp/even.smt2"
run "validate chrome trace" 10 "$CHECK" --chrome --portfolio "$tmp/chrome.json"

# 5. Collapsed-stack (flamegraph) export: every line is a
#    `;`-separated path with an integer self-time weight, and the
#    solve root must appear.
run "RINGEN_TRACE_FORMAT=flame" 60 \
    env RINGEN_TRACE="$tmp/flame.txt" RINGEN_TRACE_FORMAT=flame \
    "$RINGEN" --quiet "$tmp/even.smt2"
[ -s "$tmp/flame.txt" ] || fail "flame export is empty"
grep -Eq '^solve[; ]' "$tmp/flame.txt" || fail "flame export has no solve root"
if grep -Evq ' [0-9]+$' "$tmp/flame.txt"; then
    fail "flame export has a line without an integer weight"
fi

# 6a. Ring-buffer sink: a tiny cap must still yield a valid report
#     (root retained, histograms fed before eviction) and surface the
#     evictions under dropped_spans.ring.
run "RINGEN_TRACE_RING=4" 60 \
    env RINGEN_TRACE="$tmp/ring.json" RINGEN_TRACE_RING=4 \
    "$RINGEN" --quiet "$tmp/even.smt2"
run "validate ring-capped report" 10 "$CHECK" "$tmp/ring.json"
grep -Eq '"ring": [1-9]' "$tmp/ring.json" || fail "ring cap reported no drops"

# 6b. Head sampling: a single-root trace is always kept (first root
#     wins), so the report stays complete and the knob must not break
#     anything.
run "RINGEN_TRACE_SAMPLE=1/2" 60 \
    env RINGEN_TRACE="$tmp/sample.json" RINGEN_TRACE_SAMPLE=1/2 \
    "$RINGEN" --quiet "$tmp/even.smt2"
run "validate sampled report" 10 "$CHECK" "$tmp/sample.json"

# 7. trace_diff gate: identical inputs carry no regression; a doctored
#    copy with one phase latency inflated to ~99 s must fail.
run "trace_diff self-compare" 10 "$DIFF" "$tmp/solve.json" "$tmp/solve.json"
sed -E 's/"p50_us": [0-9.]+/"p50_us": 99000000/' "$tmp/solve.json" \
    > "$tmp/doctored.json"
echo "== trace_diff detects a doctored slowdown"
if timeout 10s "$DIFF" "$tmp/solve.json" "$tmp/doctored.json" >/dev/null; then
    fail "trace_diff accepted a 99 s phase regression"
fi

# 8. Empty RINGEN_TRACE means "off": solve must still succeed and no
#    stray artifact may appear in the scratch dir.
before=$(ls "$tmp" | wc -l)
run "recorder disabled (RINGEN_TRACE=)" 60 \
    env RINGEN_TRACE= "$RINGEN" --quiet "$tmp/even.smt2"
after=$(ls "$tmp" | wc -l)
[ "$before" = "$after" ] || fail "trace file written with recorder off"

echo "trace_smoke: OK"
