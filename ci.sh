#!/usr/bin/env bash
# Repository CI gate: formatting, lints, docs, and the tier-1 verify
# (ROADMAP.md). Run from the repo root; fails fast on the first error.
#
# Flags:
#   --update-baseline   write the full-grid and service-scaling reports to
#                       the checked-in BENCH_grid.json / BENCH_serve.json
#                       (default: temp dir, tree stays clean)
set -euo pipefail
cd "$(dirname "$0")"

# Scratch space for the smoke reports below: one private directory
# (mktemp honours TMPDIR), removed on any exit, pass or fail.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT

UPDATE_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE_BASELINE=1 ;;
    *) echo "ci.sh: unknown flag '$arg'" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> hw-crypto lane: build + tests with the hardware kernels compiled in"
# The hw backends detect AES-NI/AVX2/AVX-512F at runtime and fall back
# to the portable engines when the ISA is absent, so this lane is safe on
# any host: with the extensions it exercises the AES-NI kernel and the
# 8-lane (AVX-512F) and 4-lane (AVX2) SHA-512 kernels, without them it
# validates the fallback path (graceful skip happens inside the
# backends, not here).  The release binaries the
# gates below run are rebuilt by this lane, so the storm smokes
# and the grid baseline exercise the hardware-class hot path.  The
# feature must be enabled per package (--workspace), not just on the
# root facade crate — a bare `--features hw-crypto` from the root only
# rebuilds the facade and leaves the gate binaries on scalar kernels.
cargo build --release --workspace --features hw-crypto
cargo test -q --workspace --features hw-crypto

echo "==> backend-equivalence smoke (scalar == multiblock == hw on fuzzed traces)"
# The suite sweeps every backend against the scalar reference: digests,
# grid JSON, crash/recovery verdicts, telemetry-on/off parity, plus the
# arena stress test.  Run against the hw-crypto build so a detected
# AES-NI/AVX2/AVX-512F host pins the real hardware kernels to the
# reference.
cargo test -q --features hw-crypto --test backend_equivalence

echo "==> crypto_micro regression guard (batched fold >= 2x scalar, 8-lane <= 0.75x 4-lane, batched pad <= 0.6x single)"
# Fails if the multi-block batched HMAC fold is not at least 2x faster
# than the scalar backend, where AVX-512F is detected if an 8-lane
# compress_batch costs more than 0.75x a 4-lane one per block, or where
# AES-NI is detected if a pad generated in a 256-pad batch costs more
# than 0.6x a single hw pad; each check self-skips (with a notice) on
# hosts without its kernel.
./target/release/crypto_micro --check

echo "==> artifact pins (secpb repro <table/figure> == results/*.txt)"
# Table V and Table VI come from the energy model alone, so they are
# instant and exact.  Table IV and Figures 6-9 replay the 18 workloads
# at the default 1M-instruction budget (4-8 s each on 2 cores); the
# simulation is deterministic, so they are exact too.  Any drift from
# the checked-in text (the numbers EXPERIMENTS.md quotes) fails the gate.
for artifact in table5 table6 table4 fig6 fig7 fig8 fig9; do
  diff <(./target/release/secpb repro "$artifact") "results/$artifact.txt" \
    || { echo "ci.sh: secpb repro $artifact diverged from results/$artifact.txt" >&2; exit 1; }
done

echo "==> fault-injection storm smoke (crash storms, brown-outs, bit flips)"
# secpb storm exits nonzero on any panic, silent corruption, accounting
# mismatch, or undetected bit flip across all schemes, every front, and
# both drain policies; --quick keeps this to a few seconds.  The
# brown-out pass runs the same storm on a battery budgeted at 25% of the
# provisioned worst case and must actually lose entries.
./target/release/secpb storm --quick
BROWN_OUT=$(./target/release/secpb storm --quick --brown-out 0.25)
echo "$BROWN_OUT" | grep -Eq '^storm: .*, [1-9][0-9]* entries lost' \
  || { echo "ci.sh: brown-out storm lost no entries" >&2; exit 1; }
# Each front sizes its budget against its own worst case, and at 25% the
# eadr and mc4-cobcm rows still drain every entry, so the pass above
# checks no lost-entry accounting there.  A budget of 0.02% bites on
# both: each row must report lost entries (column 4 of its table row).
BROWN_OUT_LOW=$(./target/release/secpb storm --quick --brown-out 0.0002)
for front in eadr mc4-cobcm; do
  echo "$BROWN_OUT_LOW" | awk -v cell="$front/" 'index($1, cell) == 1 && $4 > 0 { hit = 1 } END { exit !hit }' \
    || { echo "ci.sh: brown-out storm at 0.0002 lost no $front entries" >&2; exit 1; }
done

echo "==> grid determinism smoke (2 workloads x 2 schemes, serial vs parallel, telemetered)"
# bench_grid exits nonzero if the parallel grid diverges from the serial
# one; --smoke keeps this to a few seconds.  With --telemetry the serial
# pass runs with live rings attached, so the determinism gate also
# proves telemetry events observe without steering.
./target/release/bench_grid 50000 --jobs 4 --smoke --json "$CI_TMP/bench_grid_smoke_tel.json" --telemetry
./target/release/bench_grid 50000 --jobs 4 --smoke --json "$CI_TMP/bench_grid_smoke.json"
# Telemetry-on vs telemetry-off must produce byte-identical reports once
# host-timing and ring-accounting fields are stripped: every simulated
# number (cycles, ipc, recovery verdicts, recovery_cycles) is unchanged.
normalize_grid() {
  grep -vE '"(serial_seconds|parallel_seconds|speedup|serial_instructions_per_second|parallel_instructions_per_second|serial_ns_per_store|ns_per_store|telemetry|telemetry_events|telemetry_dropped)"' "$1"
}
if ! diff <(normalize_grid "$CI_TMP/bench_grid_smoke.json") <(normalize_grid "$CI_TMP/bench_grid_smoke_tel.json"); then
  echo "ci.sh: telemetry-on grid diverged from telemetry-off" >&2
  exit 1
fi

echo "==> grid parallel-determinism pin (--validate-parallel on every CI run)"
# --validate-parallel pins the parallel pass to 2 workers so even a
# 1-core CI host proves the serial/parallel byte-identity contract; the
# report must record that the check ran.
./target/release/bench_grid 50000 --smoke --validate-parallel --json "$CI_TMP/bench_grid_smoke_vp.json"
grep -q '"parallel_determinism_validated": true' "$CI_TMP/bench_grid_smoke_vp.json" \
  || { echo "ci.sh: grid smoke did not validate parallel determinism" >&2; exit 1; }

echo "==> sharded service smoke (secpb serve --quick)"
# The serve command itself exits nonzero on zero drained stores, any
# model-invariant anomaly, a QoS-violation counter > 0, or an
# inconsistent recovery sweep; assert the healthy lines anyway so a
# silent output regression cannot slip through.
SERVE_OUT=$(./target/release/secpb serve --quick)
echo "$SERVE_OUT" | grep -q '^anomalies       0$' || { echo "ci.sh: serve reported anomalies" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^qos violations  0$' || { echo "ci.sh: serve reported QoS violations" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^consistent      true$' || { echo "ci.sh: serve recovery inconsistent" >&2; exit 1; }
echo "$SERVE_OUT" | grep -Eq '^stores drained  [1-9]' || { echo "ci.sh: serve drained zero stores" >&2; exit 1; }

echo "==> checkpoint restore/rewind+replay byte-identity gate (tests/checkpoint_replay.rs)"
# Restoring a checkpoint at epoch N, or rewinding to an in-memory
# snapshot taken there, and replaying N..M must be byte-identical to the
# uninterrupted run for every scheme and tree organisation — the
# contract shard crash-recovery and the soak's restart storms build on.
cargo test --release -q --test checkpoint_replay

echo "==> host-time benchmark tests (hostbench/, every workload at a tiny budget)"
# hostbench is a standalone package that drives the simulator through
# its public API; its tests run every workload traced and untraced and
# require zero failed operations, so a library change that breaks the
# benchmark's calls or its output checks fails here.
cargo test --release --offline --manifest-path hostbench/Cargo.toml

echo "==> scheme byte-identity + persistence-policy gate (tests/scheme_equivalence.rs)"
# Pins the refactor's byte-identity contract: the 8 named schemes are
# one instantiation of the PersistencePolicy layer (round-trip +
# 32-combination legality sweep), the Triad/fast-recovery layouts
# never perturb a timing metric, and the baseline recovery accounting
# reproduces the historical root-only formula exactly.
cargo test --release -q --test scheme_equivalence
cargo test --release -q -p secpb-core --lib policy::

echo "==> recovery-latency sweep smoke (secpb recover-sweep --quick)"
# recover-sweep exits nonzero if any policy point recovers inconsistent
# or the write-amp vs recovery-latency curve loses its pinned monotone
# ordering (fastrec <= triad-full <= nogap <= cobcm); assert the
# verdict line anyway.  The same curve is embedded in BENCH_grid.json
# as recovery_curve by the full grid run below.
SWEEP_OUT=$(./target/release/secpb recover-sweep --quick)
echo "$SWEEP_OUT" | grep -q 'curve monotone' || { echo "ci.sh: recovery sweep curve not monotone" >&2; exit 1; }

echo "==> trace ingest truncation fuzz (tests/trace_io_fuzz.rs)"
# Every truncation point and seeded corruption of an SPB1 stream must
# fail with the item index and byte offset — never a panic or a
# silently short trace.
cargo test --release -q --test trace_io_fuzz

echo "==> fault-tolerance soak smoke (secpb soak --quick)"
# The soak exits nonzero unless it converged: crashes actually fired
# and were recovered, restored shards digest-identical to a crash-free
# reference, shed counts crash-invariant, restart storm byte-identical,
# zero anomalies, zero QoS violations.  Assert the verdict lines anyway.
SOAK_OUT=$(./target/release/secpb soak --quick)
echo "$SOAK_OUT" | grep -q 'match crash-free reference' || { echo "ci.sh: soak shard digests diverged" >&2; exit 1; }
echo "$SOAK_OUT" | grep -q 'byte-identical' || { echo "ci.sh: soak restart storm diverged" >&2; exit 1; }
echo "$SOAK_OUT" | grep -q '^converged         true$' || { echo "ci.sh: soak did not converge" >&2; exit 1; }

# The long-horizon storm (100+ injected mid-epoch shard crashes) is
# opt-in: SECPB_SOAK=1 ./ci.sh
if [ "${SECPB_SOAK:-0}" = "1" ]; then
  echo "==> full fault-tolerance soak (SECPB_SOAK=1, 100+ crashes)"
  ./target/release/secpb soak
fi

echo "==> service scaling + determinism smoke (serve_bench --smoke)"
# serve_bench exits nonzero if any shard outcome diverges from a solo
# re-run of its tenants (the shard-determinism contract) or, where the
# host has the cores to make wall-clock ratios meaningful, if aggregate
# stores/sec degrades as shards are added.  Validate the report fields
# the baseline depends on either way.
SERVE_JSON="$CI_TMP/bench_serve_smoke.json"
./target/release/serve_bench --smoke --json "$SERVE_JSON"
grep -q '"determinism_validated": true' "$SERVE_JSON" \
  || { echo "ci.sh: serve_bench did not validate shard determinism" >&2; exit 1; }
grep -q '"scaling_valid":' "$SERVE_JSON" \
  || { echo "ci.sh: serve_bench report missing scaling_valid" >&2; exit 1; }
grep -q '"aggregate_stores_per_sec":' "$SERVE_JSON" \
  || { echo "ci.sh: serve_bench report missing throughput fields" >&2; exit 1; }
if grep -q '"scaling_valid": true' "$SERVE_JSON"; then
  grep -q '"monotone_throughput": true' "$SERVE_JSON" \
    || { echo "ci.sh: serve_bench throughput degraded with shard count" >&2; exit 1; }
fi

echo "==> live telemetry watch smoke (storm cell, snapshots + zero anomalies)"
# secpb watch exits nonzero if it streams no snapshots, observes any
# model-invariant anomaly, or a storm-mode recovery is inconsistent.
WATCH_OUT=$(./target/release/secpb watch gamess cobcm --quick)
echo "$WATCH_OUT" | grep -q '"seq":1' || { echo "ci.sh: watch streamed no snapshots" >&2; exit 1; }
echo "$WATCH_OUT" | grep -q '^anomalies    0$' || { echo "ci.sh: watch reported anomalies" >&2; exit 1; }

echo "==> observability export smoke (debug_one --trace-out / --stats-json)"
# debug_one streams every scheme's measured-region spans into one Chrome
# trace through a telemetry ring drained after each trace item; a ring
# that dropped spans would leave the trace short of the tracer's
# aggregates, so the document must record zero losses.
./target/release/debug_one povray 20000 --trace-out "$CI_TMP/trace.json" \
  --stats-json "$CI_TMP/stats.json" > "$CI_TMP/debug_one.txt"
grep -q '"dropped_spans": 0}' "$CI_TMP/trace.json" \
  || { echo "ci.sh: debug_one trace dropped spans" >&2; exit 1; }

if [ "$UPDATE_BASELINE" = 1 ]; then
  echo "==> regenerate BENCH_grid.json (full grid wall-clock baseline)"
  ./target/release/bench_grid 200000 --jobs 4 --update-baseline
  echo "==> regenerate BENCH_serve.json (service scaling baseline)"
  ./target/release/serve_bench --update-baseline
else
  echo "==> full grid run (temp output; --update-baseline refreshes BENCH_grid.json)"
  ./target/release/bench_grid 200000 --jobs 4
fi

echo "CI OK"
