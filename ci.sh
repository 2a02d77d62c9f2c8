#!/usr/bin/env bash
# Tier-1 gate: everything here must pass, fully offline (the workspace has
# no external dependencies; see the [workspace.dependencies] note in
# Cargo.toml). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> oracle-checked perfbench at the held-out seed (digests must match, no failed job)"
checked_line="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload checked --seed 4242 --seconds 2 --trace 0 | tail -1)"
echo "$checked_line"
case "$checked_line" in
  *'"correct": true'*'"failed": 0,'*) ;;
  *) echo "perfbench checked workload failed at seed 4242" >&2; exit 1 ;;
esac

echo "==> fault-injection smoke campaign (fixed seed, fails on silent corruption)"
./target/release/moesi-sim faults --seed 7 --steps 800

echo "==> hierarchy fault smoke (fixed seed, >=1000 faults; exits nonzero on silent corruption)"
hier_j2="$(mktemp)" hier_j1="$(mktemp)"
./target/release/moesi-sim faults --hierarchy --seed 7 --jobs 2 --json --out "$hier_j2" \
  | grep -E "faults injected" \
  || { echo "hierarchy fault smoke produced no report" >&2; exit 1; }
./target/release/moesi-sim faults --hierarchy --seed 7 --jobs 1 --json --out "$hier_j1" >/dev/null
cmp "$hier_j2" "$hier_j1" \
  || { echo "hierarchy faults --jobs 2 diverged from --jobs 1" >&2; exit 1; }
hier_injected="$(grep -o '"injected": [0-9]*' "$hier_j1" | head -1 | grep -o '[0-9]*$')"
[ "${hier_injected:-0}" -ge 1000 ] \
  || { echo "hierarchy smoke injected only ${hier_injected:-0} faults (need >= 1000)" >&2; exit 1; }
grep -q '"silent": 0' "$hier_j1" \
  || { echo "hierarchy smoke saw silent corruption" >&2; exit 1; }
grep -q '"recovery_demonstrated": true' "$hier_j1" \
  || { echo "liveness probe failed to demonstrate livelock recovery" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$hier_j1" \
    || { echo "hierarchy faults output is not valid JSON" >&2; exit 1; }
fi
rm -f "$hier_j2" "$hier_j1"

echo "==> deep-hierarchy fault smoke (depth 3, 32 caches; --jobs 2 must match --jobs 1)"
deep_j2="$(mktemp)" deep_j1="$(mktemp)"
./target/release/moesi-sim faults --hierarchy --depth 3 --fanout 4 --clusters 4 \
    --cpus 2 --steps 500 --seed 7 --jobs 2 --json --out "$deep_j2" >/dev/null
./target/release/moesi-sim faults --hierarchy --depth 3 --fanout 4 --clusters 4 \
    --cpus 2 --steps 500 --seed 7 --jobs 1 --json --out "$deep_j1" >/dev/null
cmp "$deep_j2" "$deep_j1" \
  || { echo "deep hierarchy faults --jobs 2 diverged from --jobs 1" >&2; exit 1; }
grep -q '"depth": 3' "$deep_j1" && grep -q '"leaves": 16' "$deep_j1" \
  || { echo "deep hierarchy smoke did not run the depth-3, 16-leaf tree" >&2; exit 1; }
grep -q '"silent": 0' "$deep_j1" \
  || { echo "deep hierarchy smoke saw silent corruption" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$deep_j1" \
    || { echo "deep hierarchy faults output is not valid JSON" >&2; exit 1; }
fi
rm -f "$deep_j2" "$deep_j1"

echo "==> policy tables match the committed fixture (paper Tables 3-7)"
tables_out="$(mktemp)"
./target/release/moesi-sim table > "$tables_out"
cmp "$tables_out" tests/fixtures/tables/paper_tables.txt \
  || { echo "rendered policy tables diverged from tests/fixtures/tables/paper_tables.txt" >&2; exit 1; }
rm -f "$tables_out"

# The bench JSON rows carry host-side measurements (host wall/cpu/critical
# time, host throughput, speedup) that legitimately differ run to run; every
# determinism comparison strips them first. Simulated results must survive
# unchanged. Mirrors bench::sweep::strip_host_fields.
strip_host_fields() {
  sed -E 's/"(host_wall_ns|host_cpu_ns|host_critical_ns|host_elapsed_ns)": [0-9]+, //g;
          s/"(engine_accesses_per_sec|speedup)": [0-9]+\.[0-9]+, //g' "$1"
}

echo "==> hybrid bench smoke (fixed seed; sharded run must match the sequential one)"
hyb_j2="$(mktemp)" hyb_j1="$(mktemp)"
./target/release/moesi-sim bench --protocol hybrid --seed 7 --steps 500 --jobs 2 \
    --json --out "$hyb_j2" >/dev/null
./target/release/moesi-sim bench --protocol hybrid --seed 7 --steps 500 --jobs 1 \
    --json --out "$hyb_j1" >/dev/null
cmp <(strip_host_fields "$hyb_j2") <(strip_host_fields "$hyb_j1") \
  || { echo "hybrid bench --jobs 2 diverged from --jobs 1" >&2; exit 1; }
rm -f "$hyb_j2" "$hyb_j1"

echo "==> bench smoke (fixed seed; sharded run must match the sequential one)"
bench_j2="$(mktemp)" bench_j1="$(mktemp)" trace_j2="$(mktemp)" trace_j1="$(mktemp)"
./target/release/moesi-sim bench --seed 7 --steps 500 --jobs 2 --json --out "$bench_j2" \
    --trace-out "$trace_j2" \
  | grep -E "total [1-9][0-9]* accesses" \
  || { echo "bench smoke reported zero throughput" >&2; exit 1; }
./target/release/moesi-sim bench --seed 7 --steps 500 --jobs 1 --json --out "$bench_j1" \
    --trace-out "$trace_j1" >/dev/null
cmp <(strip_host_fields "$bench_j2") <(strip_host_fields "$bench_j1") \
  || { echo "bench --jobs 2 diverged from --jobs 1" >&2; exit 1; }
grep -q '"phase_p50_ns"' "$bench_j1" \
  || { echo "bench JSON is missing the per-phase percentiles" >&2; exit 1; }
grep -q '"host_wall_ns"' "$bench_j1" \
  || { echo "bench JSON is missing the host-side measurements" >&2; exit 1; }

echo "==> shard smoke (--shards 2 must match --shards 1 byte for byte)"
shard_2="$(mktemp)" shard_1="$(mktemp)"
./target/release/moesi-sim bench --shards 2 --seed 7 --steps 500 --json \
    --out "$shard_2" >/dev/null
./target/release/moesi-sim bench --shards 1 --seed 7 --steps 500 --json \
    --out "$shard_1" >/dev/null
cmp <(strip_host_fields "$shard_2") <(strip_host_fields "$shard_1") \
  || { echo "bench --shards 2 diverged from --shards 1" >&2; exit 1; }
rm -f "$shard_2" "$shard_1"

echo "==> committed bench artifact matches a fresh default sweep (host fields ignored)"
bench_fresh="$(mktemp)"
./target/release/moesi-sim bench --json --out "$bench_fresh" >/dev/null
cmp <(strip_host_fields "$bench_fresh") <(strip_host_fields BENCH_protocols.json) \
  || { echo "BENCH_protocols.json diverged from a fresh default sweep; regenerate it" >&2; exit 1; }
rm -f "$bench_fresh"

echo "==> sharded baseline smoke (scaling sweep vs committed BENCH_shards.json; host fields ignored)"
shards_committed="$(grep -o '"shards": [0-9]*' BENCH_shards.json | grep -o '[0-9]*$' | paste -sd, -)"
[ -n "$shards_committed" ] \
  || { echo "BENCH_shards.json has no shard rows" >&2; exit 1; }
scale_fresh="$(mktemp)"
./target/release/moesi-sim bench --shards "$shards_committed" --json --out "$scale_fresh" >/dev/null
cmp <(strip_host_fields "$scale_fresh") <(strip_host_fields BENCH_shards.json) \
  || { echo "BENCH_shards.json diverged from a fresh scaling sweep; regenerate it" >&2; exit 1; }
speedups="$(grep -oc '"speedup": [0-9]*\.[0-9]*' "$scale_fresh")"
zero_speedups="$(grep -c '"speedup": 0\.000' "$scale_fresh" || true)"
[ "${speedups:-0}" -ge 2 ] && [ "${zero_speedups:-0}" -eq 0 ] \
  || { echo "scaling sweep speedup column is empty or zero" >&2; exit 1; }
rm -f "$scale_fresh"

echo "==> hierarchy saturation smoke (--jobs 2 must match --jobs 1; filters must suppress)"
hsat_j2="$(mktemp)" hsat_j1="$(mktemp)"
./target/release/moesi-sim bench --hierarchy --protocol moesi --clusters 2 --depth 3 \
    --fanout 2 --cpus 2 --steps 80 --seed 7 --jobs 2 --json --out "$hsat_j2" >/dev/null
./target/release/moesi-sim bench --hierarchy --protocol moesi --clusters 2 --depth 3 \
    --fanout 2 --cpus 2 --steps 80 --seed 7 --jobs 1 --json --out "$hsat_j1" >/dev/null
cmp <(strip_host_fields "$hsat_j2") <(strip_host_fields "$hsat_j1") \
  || { echo "bench --hierarchy --jobs 2 diverged from --jobs 1" >&2; exit 1; }
grep -q '"suppressed": [1-9]' "$hsat_j1" \
  || { echo "saturation smoke saw no snoop-filter suppression" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$hsat_j1" \
    || { echo "hierarchy bench output is not valid JSON" >&2; exit 1; }
fi
rm -f "$hsat_j2" "$hsat_j1"

echo "==> committed hierarchy artifact matches a fresh default study (host fields ignored)"
hier_fresh="$(mktemp)"
./target/release/moesi-sim bench --hierarchy --json --out "$hier_fresh" >/dev/null
cmp <(strip_host_fields "$hier_fresh") <(strip_host_fields BENCH_hierarchy.json) \
  || { echo "BENCH_hierarchy.json diverged from a fresh default study; regenerate it" >&2; exit 1; }
grep -q '"caches": 64' BENCH_hierarchy.json \
  || { echo "BENCH_hierarchy.json is missing the 64-cache depth-3 rows" >&2; exit 1; }
rm -f "$hier_fresh"

echo "==> chrome-trace smoke (fixed seed; --jobs must not perturb the trace)"
cmp "$trace_j2" "$trace_j1" \
  || { echo "trace --jobs 2 diverged from --jobs 1" >&2; exit 1; }
grep -q '"traceEvents"' "$trace_j1" \
  || { echo "trace output is not a Chrome trace document" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$trace_j1" \
    || { echo "trace output is not valid JSON" >&2; exit 1; }
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$bench_j1" \
    || { echo "bench output is not valid JSON" >&2; exit 1; }
fi
rm -f "$bench_j2" "$bench_j1" "$trace_j2" "$trace_j1"

echo "==> synth smoke (fixed seed, tiny cell budget; sharded run must match the sequential one)"
synth_t2="$(mktemp)" synth_t1="$(mktemp)" synth_j2="$(mktemp)" synth_j1="$(mktemp)"
./target/release/moesi-sim synth --workload ping-pong --cpus 2 --steps 80 --rounds 1 \
    --campaign-steps 300 --sensitivity --seed 7 --jobs 2 \
    --out "$synth_t2" --json-out "$synth_j2" >/dev/null
./target/release/moesi-sim synth --workload ping-pong --cpus 2 --steps 80 --rounds 1 \
    --campaign-steps 300 --sensitivity --seed 7 --jobs 1 \
    --out "$synth_t1" --json-out "$synth_j1" >/dev/null
cmp "$synth_t2" "$synth_t1" \
  || { echo "synth tables --jobs 2 diverged from --jobs 1" >&2; exit 1; }
cmp "$synth_j2" "$synth_j1" \
  || { echo "synth JSON --jobs 2 diverged from --jobs 1" >&2; exit 1; }
grep -q '"faults_silent": 0' "$synth_j1" \
  || { echo "synth smoke saw silent corruption" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$synth_j1" \
    || { echo "synth output is not valid JSON" >&2; exit 1; }
fi
rm -f "$synth_t2" "$synth_t1" "$synth_j2" "$synth_j1"

echo "==> synthesized winners match the committed fixture (best-known tables per workload)"
synth_tables="$(mktemp)" synth_json="$(mktemp)"
./target/release/moesi-sim synth --seed 7 --out "$synth_tables" --json-out "$synth_json" >/dev/null
cmp "$synth_tables" tests/fixtures/synth/best_tables.txt \
  || { echo "synthesized tables diverged from tests/fixtures/synth/best_tables.txt" >&2; exit 1; }
cmp "$synth_json" tests/fixtures/synth/best_tables.json \
  || { echo "synth report diverged from tests/fixtures/synth/best_tables.json" >&2; exit 1; }
rm -f "$synth_tables" "$synth_json"

echo "==> mutation sweep accepts a loaded table (synth fixture as the base)"
./target/release/moesi-sim verify --mutate --table tests/fixtures/synth/best_tables.txt >/dev/null 2>&1 \
  && { echo "mutation sweep accepted a multi-table document as one table" >&2; exit 1; }
first_table="$(mktemp)" mutate_out="$(mktemp)"
head -20 tests/fixtures/synth/best_tables.txt > "$first_table"
./target/release/moesi-sim verify --mutate --table "$first_table" > "$mutate_out"
grep -q "single-cell mutations of \`synth-general\`" "$mutate_out" \
  || { echo "verify --mutate --table failed on the synthesized winner" >&2; exit 1; }
rm -f "$first_table" "$mutate_out"

echo "ci: all green"
