#!/usr/bin/env bash
# Deadline smoke: runs the CLI and the portfolio example on a
# known-divergent system under a tiny RINGEN_DEADLINE_MS and asserts a
# clean cooperative exit — code 0, expected verdict, no hang. Every run
# is wrapped in a shell `timeout` as the *outer* guard, so a broken
# cancellation path fails the smoke instead of wedging CI.
#
# The divergent system is benchgen's Diag (the eq/diseq diagonal):
# Prop. 11 of the paper shows the diagonal is not regular, so the
# regular-invariant engine's model sweep never succeeds — only
# cooperative cancellation (or budget exhaustion) brings it home, and
# either way the verdict printed is `unknown` on any host speed.
#
# Usage: scripts/deadline_smoke.sh   (builds --release if needed)
set -euo pipefail

cd "$(dirname "$0")/.."

DEADLINE_MS=50
OUTER=120 # seconds; generous — every run below finishes in well under 1s

cargo build --release -q --bin ringen --example hybrid_portfolio

tmp="$(mktemp -d /tmp/ringen_deadline_smoke.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

# Diag, as printed by `ringen_chc::to_smtlib(&programs::diag())`.
cat > "$tmp/diag.smt2" <<'EOF'
(set-logic HORN)
(declare-datatypes ((Nat 0)) (((Z) (S (S_0 Nat)))))
(declare-fun eq (Nat Nat) Bool)
(declare-fun diseq (Nat Nat) Bool)
(assert (forall ((x Nat)) (eq x x)))
(assert (forall ((x Nat)) (diseq (S x) Z)))
(assert (forall ((y Nat)) (diseq Z (S y))))
(assert (forall ((x Nat) (y Nat)) (=> (diseq x y) (diseq (S x) (S y)))))
(assert (forall ((x Nat) (y Nat)) (=> (and (eq x y) (diseq x y)) false)))
(check-sat)
EOF

fail() {
  echo "deadline smoke FAILED: $*" >&2
  exit 1
}

# Run a command under the outer timeout, capture stdout, assert exit 0.
# $1 = label, rest = command.
run() {
  local label="$1"
  shift
  local out
  if ! out="$(timeout "$OUTER" "$@")"; then
    fail "$label: non-zero exit (or outer timeout)"
  fi
  printf '%s\n' "$out"
}

echo "== default solver, divergent Diag, RINGEN_DEADLINE_MS=$DEADLINE_MS =="
out="$(run "cli-default" env RINGEN_DEADLINE_MS=$DEADLINE_MS \
  ./target/release/ringen --quiet "$tmp/diag.smt2")"
[ "$out" = "unknown" ] || fail "cli-default: expected 'unknown', got '$out'"

echo "== same, RINGEN_THREADS=1 =="
out="$(run "cli-default-t1" env RINGEN_DEADLINE_MS=$DEADLINE_MS RINGEN_THREADS=1 \
  ./target/release/ringen --quiet "$tmp/diag.smt2")"
[ "$out" = "unknown" ] || fail "cli-default-t1: expected 'unknown', got '$out'"

echo "== portfolio race, sequential (RINGEN_THREADS=1) =="
# At one worker the race degenerates to the sequential chain: the
# refuter (which cannot refute a safe system) and then fmf's divergent
# sweep run first and eat the whole deadline, so the field times out
# and the verdict is deterministically 'unknown'.
out="$(run "portfolio-t1" env RINGEN_DEADLINE_MS=$DEADLINE_MS RINGEN_THREADS=1 \
  ./target/release/ringen --quiet --solver portfolio "$tmp/diag.smt2")"
[ "$out" = "unknown" ] || fail "portfolio-t1: expected 'unknown', got '$out'"

echo "== portfolio race, parallel =="
# With a worker per entrant, elem may still win Diag inside the
# deadline (host-dependent), so assert only the clean-exit contract:
# exit 0 and a single definitive verdict line.
out="$(run "portfolio" env RINGEN_DEADLINE_MS=$DEADLINE_MS \
  ./target/release/ringen --quiet --solver portfolio "$tmp/diag.smt2")"
case "$out" in
  sat | unsat | unknown) ;;
  *) fail "portfolio: unexpected output '$out'" ;;
esac

echo "== hybrid_portfolio example under the deadline =="
run "example" env RINGEN_DEADLINE_MS=$DEADLINE_MS \
  ./target/release/examples/hybrid_portfolio > /dev/null

echo "deadline smoke OK (deadline ${DEADLINE_MS}ms, outer timeout ${OUTER}s)"
