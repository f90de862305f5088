#!/usr/bin/env bash
# Runs the automata-kernel + term-pool + parallel-saturation +
# semi-naive-saturation + saturation-enumeration + memoized-Boolean-algebra
# micro-bench suite
# and records the results — including the interned-vs-reference
# speedups (for the parallel_saturation group: 4-worker vs inline
# sequential saturation on a multi-clause join system; for the
# semi_naive_saturation group: the delta-driven engine vs the naive
# full-rescan matcher on a deep recursive chain, gated by bench_diff
# on an absolute >=2x floor; for the fmf_incremental group: the
# one-live-solver incremental size sweep vs the one-shot
# solver-per-vector reference on an exhausting two-sorted dual phase
# ring, gated on the same absolute >=2x floor; for the
# boolean_ops_memoized group: warm
# AutStore memo probes vs cold kernel reconstruction, gated on an
# absolute >=10x floor; for the elem_cube group: one ADT cube check over
# S^64 chains vs eight over S^8 chains, gated on an absolute >=0.5x
# floor read from the current run alone, so a return to cube checks
# super-linear in term depth fails even against an older baseline; for
# the saturation_enum group: a 20k-fact tree saturation whose rule binds
# a free head variable by enumeration vs one whose facts all come from
# the body join, gated the same way on an absolute >=0.5x floor, so
# enumeration through per-candidate substitutions fails it) and
# the Dfta::step zero-allocation check — in BENCH_automata.json at the
# repo root. Speedup ratios are measured
# in-process and machine-portable, with one caveat: the
# parallel_saturation ratio reflects the measuring host's core count
# (~1.0 on a single-core container, where it gates scheduling overhead
# instead of speedup); the semi_naive_saturation ratio is algorithmic
# and holds on any host.
#
# Usage:
#   scripts/bench_automata.sh           # full measurement, refreshes the
#                                       # committed BENCH_automata.json
#   QUICK=1 scripts/bench_automata.sh   # fast smoke run (CI): measures
#                                       # into a scratch file and diffs it
#                                       # against the committed baseline,
#                                       # failing on >20% speedup
#                                       # regressions (bench_diff).
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${QUICK:-}" = "1" ]; then
  export CRITERION_QUICK=1
  out="$(mktemp /tmp/BENCH_automata.XXXXXX.json)"
  trap 'rm -f "$out"' EXIT
  export BENCH_AUTOMATA_JSON="$out"
  cargo bench -p ringen-bench --bench automata
  echo
  echo "=== bench_diff vs committed BENCH_automata.json ==="
  cargo run --release -q -p ringen-bench --bin bench_diff -- \
    BENCH_automata.json "$out"
else
  export BENCH_AUTOMATA_JSON="$PWD/BENCH_automata.json"
  cargo bench -p ringen-bench --bench automata
  echo
  echo "=== BENCH_automata.json ==="
  cat "$BENCH_AUTOMATA_JSON"
fi
