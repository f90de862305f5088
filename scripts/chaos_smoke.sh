#!/usr/bin/env bash
# Chaos smoke: drives the solve service (`ringen --serve`) through a
# batch that mixes fast-terminating systems, a system only one engine
# can solve (EvenLeftDiag ∈ RegElem only) with that engine under
# injected cancels, a duplicate (memo traffic), and a malformed file,
# all under injected faults (RINGEN_FAULTS) and a per-attempt deadline
# (RINGEN_DEADLINE_MS).
# Asserts the service's graceful-degradation contract end to end:
#
#   * every query terminates with a typed outcome (no hang, no abort):
#     the batch exits within the outer `timeout`;
#   * an injected entrant panic is quarantined and retried, not fatal;
#   * with the one engine that can solve EvenLeftDiag knocked out by an
#     injected cancel, the system comes home `unknown`, not wedged;
#   * the malformed file is a typed `invalid` line (and the only
#     reason the exit code is non-zero);
#   * the health snapshot is a valid `ringen-server-health-v1`
#     document — `trace_check --health` re-validates the accounting
#     identities (drained queue, admissions balanced, faults counted).
#
# Usage: scripts/chaos_smoke.sh   (builds --release if needed)
set -euo pipefail

cd "$(dirname "$0")/.."

DEADLINE_MS=3000
OUTER=300 # seconds; the batch itself finishes in a few seconds

cargo build --release -q --bin ringen --bin trace_check

tmp="$(mktemp -d /tmp/ringen_chaos_smoke.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "chaos smoke FAILED: $*" >&2
  exit 1
}

# Even: fast SAT for three of the four engines.
cat > "$tmp/even.smt2" <<'EOF'
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (S_0 Nat)))))
(declare-fun even (Nat) Bool)
(assert (even Z))
(assert (forall ((x Nat)) (=> (even x) (even (S (S x))))))
(assert (forall ((x Nat)) (=> (and (even x) (even (S x))) false)))
(check-sat)
EOF

# IncDec: fast SAT for every engine.
cat > "$tmp/incdec.smt2" <<'EOF'
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (S_0 Nat)))))
(declare-fun p (Nat Nat) Bool)
(assert (forall ((x Nat)) (p x (S x))))
(assert (forall ((x Nat) (y Nat)) (=> (p (S x) (S y)) (p x y))))
(assert (forall ((x Nat)) (=> (p (S x) x) false)))
(check-sat)
EOF

# EvenLeftDiag: its invariant lies outside Elem, SizeElem, and Reg —
# only the regelem engine can solve it. The fault plan below cancels
# every attempt that opens the `regelem` entrant, the retry ladder
# sheds regelem, and the surviving engines ride the deadline (or their
# budgets) home as `unknown`.
cat > "$tmp/eld.smt2" <<'EOF'
(set-logic HORN)
(declare-datatypes ((Tree 0)) (((leaf) (node (node_0 Tree) (node_1 Tree)))))
(declare-fun evenleftpair (Tree Tree) Bool)
(assert (evenleftpair leaf leaf))
(assert (forall ((x Tree) (y Tree) (u Tree) (v Tree)) (=> (evenleftpair x y) (evenleftpair (node (node x u) v) (node (node y u) v)))))
(assert (forall ((x Tree) (y Tree)) (=> (and (not (= x y)) (evenleftpair x y)) false)))
(assert (forall ((x Tree) (y Tree) (u Tree) (w Tree)) (=> (and (evenleftpair x y) (evenleftpair (node x u) w)) false)))
(check-sat)
EOF

# Malformed on purpose: the service must shed it as `invalid`, typed.
printf '(assert (incomplete' > "$tmp/broken.smt2"

echo "== serve batch under injected faults + deadline =="
# panic@fmf#1: the first opening of the racer's `fmf` entrant span
# panics — unwinding that attempt into the panic quarantine; the next
# occurrence runs clean. cancel@regelem: every opening of the `regelem`
# entrant trips the attempt guard, so the ladder retries without
# regelem — fatal only to EvenLeftDiag, which no other engine solves.
# delay@sat.round adds latency at every saturation round without
# changing any verdict.
out_file="$tmp/serve.out"
rc=0
timeout "$OUTER" env \
  RINGEN_FAULTS="panic@fmf#1, cancel@regelem, delay@sat.round:1" \
  RINGEN_DEADLINE_MS="$DEADLINE_MS" \
  RINGEN_SERVER_RETRIES=2 \
  RINGEN_SERVER_BACKOFF_MS=1 \
  ./target/release/ringen --serve --health-json "$tmp/health.json" \
  "$tmp/even.smt2" "$tmp/incdec.smt2" "$tmp/even.smt2" \
  "$tmp/eld.smt2" "$tmp/broken.smt2" \
  > "$out_file" 2> "$tmp/serve.err" || rc=$?
cat "$out_file"

# The malformed file makes the batch exit non-zero (and nothing else
# should): 124 would be the outer timeout, i.e. a hang.
[ "$rc" -eq 124 ] && fail "service hung: outer ${OUTER}s timeout fired"
[ "$rc" -eq 1 ] || fail "expected exit 1 (one invalid query), got $rc"

# One typed line per query, in submission order.
[ "$(wc -l < "$out_file")" -eq 5 ] || fail "expected 5 outcome lines"
grep -q "even.smt2: sat" "$out_file" || fail "even did not come home sat"
grep -q "incdec.smt2: sat" "$out_file" || fail "incdec did not come home sat"
grep -q "eld.smt2: unknown" "$out_file" || fail "regelem-starved EvenLeftDiag did not degrade to unknown"
grep -q "invalid:" "$out_file" || fail "malformed file was not a typed invalid outcome"

echo "== health snapshot validates =="
./target/release/trace_check --health "$tmp/health.json" \
  || fail "health snapshot failed validation"

# The injected entrant panic must actually have fired and been
# quarantined — otherwise the chaos leg silently tested nothing.
grep -q '"panics": 0' "$tmp/health.json" && fail "no injected panic was recorded"
grep -q '"quarantined": 0' "$tmp/health.json" && fail "no attempt was quarantined"

echo "== fault-free rerun is clean =="
rc=0
timeout "$OUTER" env \
  RINGEN_DEADLINE_MS="$DEADLINE_MS" \
  ./target/release/ringen --serve --quiet --health-json "$tmp/health2.json" \
  "$tmp/even.smt2" "$tmp/incdec.smt2" > "$tmp/rerun.out" 2>/dev/null || rc=$?
[ "$rc" -eq 0 ] || fail "fault-free rerun: expected exit 0, got $rc"
grep -q "even.smt2: sat" "$tmp/rerun.out" || fail "rerun: even did not come home sat"
./target/release/trace_check --health "$tmp/health2.json" \
  || fail "rerun health snapshot failed validation"

echo "chaos smoke OK (deadline ${DEADLINE_MS}ms, outer timeout ${OUTER}s)"
