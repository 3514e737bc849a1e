#!/usr/bin/env bash
# Offline verification gate: the workspace must build, test, and lint
# without touching the network (the build is fully hermetic — no external
# crates, see CHANGES.md).
#
#   scripts/verify.sh [--bench-smoke] [--train-resume] [--load-smoke] [--shard-smoke] [--sched-smoke] [--obs-smoke] [--mutate-smoke] [--distill-smoke] [--online-smoke]
#
# With --bench-smoke, additionally runs the smoke benchmarks: they write
# BENCH_decode.json / BENCH_matmul.json at the repo root, fail on any
# malformed BENCH_*.json, and enforce the >=3x KV-cache decode speedup.
#
# With --train-resume, additionally runs the crash-safe-training check:
# train N steps, kill the trainer, resume from the checkpoint directory,
# and require the resumed curve and weights to be bit-for-bit identical to
# an uninterrupted run (plus torn-commit recovery through the fault
# injector). Writes + validates CURVE_train_resume.json at the repo root,
# and fails unless the regenerated file is byte-identical to the committed
# one (the curve is deterministic; any change to it must be deliberate).
#
# With --load-smoke, additionally runs the serving-runtime load generator
# at small scale: it writes + validates BENCH_serve.json at the repo root,
# requires batched runtime responses to be byte-identical to the
# sequential baseline, enforces the >=2x micro-batched throughput bar on
# the decode-heavy tail mix (carried by coalescing: repeated tail queries
# of one batch share one online decode through the per-batch memo), and
# checks graceful overload accounting.
#
# With --shard-smoke, additionally runs the load generator's shard-scaling
# sweep (it shares the load_smoke binary, so the full load run rides
# along): sharded scatter-gather serving at shard counts {1, 4}, required
# to be byte-identical to the monolith at every count, plus the
# partial-results rate under a permanently poisoned shard (must be 1000
# per mille, every response ranked and stamped shards_ok = N-1). The
# validated shard_scaling entries land in BENCH_serve.json. When
# QRW_VERIFY_BUDGET is set to "full", the sweep covers {1, 2, 4, 8}.
#
# With --sched-smoke, additionally runs the load generator's
# scheduler-scaling sweep (it shares the load_smoke binary, so the full
# load run rides along): the mailbox scheduler at shard counts {1, 2, 4},
# required to be byte-identical to the sequential baseline at every
# count, plus the deterministic virtual-cost p99 scaling bar (p99 at 4
# shards must not exceed 1 shard on the burst mix — measured in virtual
# service units from the scheduler's minted batch_form spans, so the bar
# holds on single-core hosts too). The validated sched_scaling entries
# land in BENCH_serve.json and are re-checked by validate_sched_json.
#
# With --obs-smoke, additionally runs the observability smoke: the traced
# load mix through the runtime, validating the exported trace JSONL
# against the harness schema, asserting histogram totals equal the served
# request counts, and enforcing the <5% tracing-overhead bar.
#
# With --mutate-smoke, additionally runs the live-catalog smoke: serving
# under writer churn with the torn-read invariant checked byte-for-byte
# against serial per-epoch replays, frozen-vs-pinned overhead bounded,
# and recovery after a mid-commit kill verified by fingerprint. Writes +
# validates BENCH_mutate.json at the repo root. When QRW_VERIFY_BUDGET is
# set to "full", also sweeps EVERY byte offset of the commit stream as a
# kill point (slower; the same sweep always runs in the qrw-search
# tests/mutation.rs suite, so the quick mode loses no coverage per PR).
#
# With --distill-smoke, additionally runs the distill-and-quantize smoke:
# train a smoke-scale cyclic teacher, distill a quantized q2q student from
# its top-n rewrites (checkpointed atomically), round-trip the QRWT v3
# artifacts bitwise, require the student to hold win+tie >= lose against
# the teacher on the held-out oracle set and to decode at >=2x the
# KV-cached teacher's tokens/s. Writes + validates BENCH_distill.json at
# the repo root. When QRW_VERIFY_BUDGET is set to "full", distillation
# runs with a 3x step budget over the whole harvest corpus.
#
# With --online-smoke, additionally runs the closed-loop online-learning
# smoke: >=3 simulated days of serve -> click -> train -> hot-swap, the
# trainer running concurrently with serving, every request served from
# exactly one published model epoch (each day's traffic straddles the
# mid-day swap, no serving gap), and the held-out session-oracle
# relevance never regressing below day 0. Writes + validates
# BENCH_online.json at the repo root. When QRW_VERIFY_BUDGET is set to
# "full", the run extends to 5 days with a 2x per-tick step budget.
#
# Always runs the bitwise-oracle suites (matmul_props, quant_props,
# gradcheck, the cyclic trainer's frozen per-path oracle, the
# exhaustive quantizer-core sweep, kv_equivalence, decode_props, the
# student's frozen-oracle unit tests and the decode_alloc counting-
# allocator proof), the shard byte-transparency and
# fault-isolation suites (shard_equivalence, shard_resilience), and the
# qrw-search unit suites (the interned index against its string-scan
# oracle, BM25 bit-equality, fingerprint golden values) with the
# live-catalog mutation suite, the serve runtime's zero_alloc,
# scheduler_invariants, runtime and trace_invariants suites and the
# qrw-online unit suite (session-rewriter golden hashes) a second time in
# release mode, on the optimised code the benchmarks execute.
#
# Always runs clippy and rustdoc with warnings as errors.
#
# Always runs the test-inventory guard: every crates/*/src module must
# either contain #[test]s or be exercised by that crate's integration
# tests (re-export-only entry points are whitelisted below).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
TRAIN_RESUME=0
LOAD_SMOKE=0
SHARD_SMOKE=0
SCHED_SMOKE=0
OBS_SMOKE=0
MUTATE_SMOKE=0
DISTILL_SMOKE=0
ONLINE_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --train-resume) TRAIN_RESUME=1 ;;
    --load-smoke) LOAD_SMOKE=1 ;;
    --shard-smoke) SHARD_SMOKE=1 ;;
    --sched-smoke) SCHED_SMOKE=1 ;;
    --obs-smoke) OBS_SMOKE=1 ;;
    --mutate-smoke) MUTATE_SMOKE=1 ;;
    --distill-smoke) DISTILL_SMOKE=1 ;;
    --online-smoke) ONLINE_SMOKE=1 ;;
    *) echo "verify.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== test inventory (every src module tested or referenced) =="
# Whitelist: re-export-only crate roots and the bench crate's manually
# timed harness plumbing (exercised by the bins/benches themselves).
INVENTORY_WHITELIST='
crates/baseline/src/lib.rs
crates/bench/src/lib.rs
crates/core/src/lib.rs
crates/data/src/lib.rs
crates/metrics/src/lib.rs
crates/nmt/src/lib.rs
crates/obs/src/lib.rs
crates/online/src/lib.rs
crates/search/src/lib.rs
crates/serve/src/lib.rs
crates/tensor/src/lib.rs
crates/text/src/lib.rs
'
inventory_fail=0
for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
  [ -e "$f" ] || continue
  case "$f" in
    # Executables (smoke harnesses) are run by this script, not unit-tested.
    */src/bin/*) continue ;;
  esac
  case "$INVENTORY_WHITELIST" in
    *"$f"*) continue ;;
  esac
  if grep -q '#\[test\]' "$f"; then
    continue
  fi
  # No inline tests: require the module's name to appear in the crate's
  # integration tests (tests/ dir) so it is at least driven end-to-end.
  crate_dir="${f%%/src/*}"
  stem="$(basename "$f" .rs)"
  if [ -d "$crate_dir/tests" ] && grep -rqw "$stem" "$crate_dir/tests"; then
    continue
  fi
  echo "verify.sh: $f has no #[test] and no reference in $crate_dir/tests/" >&2
  inventory_fail=1
done
if [ "$inventory_fail" = 1 ]; then
  echo "verify.sh: test-inventory guard failed" >&2
  exit 1
fi

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== bit-exactness suites (release, offline) =="
# The run above uses the test profile (opt-level 1, debug assertions on);
# the benchmarks run the opt-level 3 release machine code, so the bitwise
# oracles and the shard tier's equivalence suites run against it too.
cargo test --release --offline -p qrw-tensor --test matmul_props --test quant_props --test gradcheck
# The cyclic trainer's stacked k-path pass against its frozen per-path
# oracle: loss and every parameter gradient of both models, bit for bit,
# on the optimised code the trainer runs.
cargo test --release --offline -p qrw-core --lib cyclic::oracle
# The exhaustive quantizer-core sweep (every f32 bit pattern) is too slow
# for the opt-level 1 run, so it is #[ignore]d there and runs here.
cargo test --release --offline -p qrw-tensor --lib -- --ignored
cargo test --release --offline -p qrw-nmt --test kv_equivalence --test decode_props
cargo test --release --offline -p qrw-nmt --lib --test decode_alloc
cargo test --release --offline -p qrw-search --test shard_equivalence --test shard_resilience
cargo test --release --offline -p qrw-search --lib --test mutation
# Scheduler races can show only under optimised code (one zero-alloc race
# did), so the allocation proof, the exactly-once suite, the runtime's
# standalone-equivalence suite (byte-identical responses and health
# counters under concurrent workers; a batch's repeated cache misses
# decode once through the per-batch memo on the online rung, never on
# the student) and the trace structure suite (no minted decode span;
# every online decode in its request's own trace) run here too.
cargo test --release --offline -p qrw-serve --test zero_alloc --test scheduler_invariants \
  --test runtime --test trace_invariants
# The q2q rewriter's equivalence, determinism and golden-hash tests
# (qrw-core's context module) pin the teacher and student decodes' bytes on
# the optimised code every serving path runs; the root rewriter contract
# suite and the online loop's unit suite ride along.
cargo test --release --offline -p qrw-core --lib
cargo test --release --offline -p cycle-rewrite --test rewriters
cargo test --release --offline -p qrw-online --lib

echo "== clippy (offline, warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (offline, warnings are errors) =="
# Broken intra-doc links, links to private items and stray HTML tags in
# doc comments fail here rather than rot.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

if [ "$BENCH_SMOKE" = 1 ]; then
  echo "== bench smoke (offline, writes + validates BENCH_*.json) =="
  cargo run --release --offline -p qrw-bench --bin bench_smoke -- --out .
fi

if [ "$TRAIN_RESUME" = 1 ]; then
  echo "== train-resume (kill, resume, assert bitwise curve equality) =="
  CURVE_BEFORE="$(mktemp)"
  trap 'rm -f "$CURVE_BEFORE"' EXIT
  cp CURVE_train_resume.json "$CURVE_BEFORE"
  cargo run --release --offline -p qrw-bench --bin train_resume -- --out .
  if ! cmp -s "$CURVE_BEFORE" CURVE_train_resume.json; then
    echo "verify.sh: CURVE_train_resume.json changed: the training curve is no longer byte-identical to the committed one" >&2
    diff "$CURVE_BEFORE" CURVE_train_resume.json | head -20 >&2 || true
    exit 1
  fi
fi

if [ "$LOAD_SMOKE" = 1 ] || [ "$SHARD_SMOKE" = 1 ] || [ "$SCHED_SMOKE" = 1 ]; then
  echo "== load smoke (offline, writes + validates BENCH_serve.json) =="
  SHARD_ARGS=""
  if [ "$SHARD_SMOKE" = 1 ] && [ "${QRW_VERIFY_BUDGET:-quick}" = "full" ]; then
    echo "   (QRW_VERIFY_BUDGET=full: shard-scaling sweep over counts 1/2/4/8)"
    SHARD_ARGS="--shard-sweep-full"
  fi
  # shellcheck disable=SC2086
  cargo run --release --offline -p qrw-bench --bin load_smoke -- --out . $SHARD_ARGS
fi

if [ "$OBS_SMOKE" = 1 ]; then
  echo "== obs smoke (traced load mix, JSONL schema, overhead bar) =="
  cargo run --release --offline -p qrw-bench --bin obs_smoke
fi

if [ "$MUTATE_SMOKE" = 1 ]; then
  echo "== mutate smoke (offline, writes + validates BENCH_mutate.json) =="
  MUTATE_ARGS=""
  if [ "${QRW_VERIFY_BUDGET:-quick}" = "full" ]; then
    echo "   (QRW_VERIFY_BUDGET=full: including the exhaustive kill-point sweep)"
    MUTATE_ARGS="--sweep"
  fi
  # shellcheck disable=SC2086
  cargo run --release --offline -p qrw-bench --bin mutate_smoke -- --out . $MUTATE_ARGS
fi

if [ "$DISTILL_SMOKE" = 1 ]; then
  echo "== distill smoke (offline, writes + validates BENCH_distill.json) =="
  DISTILL_ARGS=""
  if [ "${QRW_VERIFY_BUDGET:-quick}" = "full" ]; then
    echo "   (QRW_VERIFY_BUDGET=full: 3x distillation budget, full eval set)"
    DISTILL_ARGS="--full"
  fi
  # shellcheck disable=SC2086
  cargo run --release --offline -p qrw-bench --bin distill_smoke -- --out . $DISTILL_ARGS
fi

if [ "$ONLINE_SMOKE" = 1 ]; then
  echo "== online smoke (offline, writes + validates BENCH_online.json) =="
  ONLINE_ARGS=""
  if [ "${QRW_VERIFY_BUDGET:-quick}" = "full" ]; then
    echo "   (QRW_VERIFY_BUDGET=full: 5 simulated days, 2x per-tick step budget)"
    ONLINE_ARGS="--full"
  fi
  # shellcheck disable=SC2086
  cargo run --release --offline -p qrw-bench --bin online_smoke -- --out . $ONLINE_ARGS
fi

echo "verify: OK"
