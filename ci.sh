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

echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied: broken or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo check --workspace --all-targets --all-features --offline (every target builds)"
cargo check --workspace --all-targets --all-features --offline

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# flat-read/flat-write: System::run_timed; tree: the fabric tree's access
# path; checked: the oracle path.
for workload in flat-read flat-write tree checked; do
  echo "==> perfbench $workload at the held-out seed (digests must match, no failed job)"
  line="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 4242 --seconds 2 --trace 0 | tail -1)"
  echo "$line"
  case "$line" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench $workload workload failed at seed 4242" >&2; exit 1 ;;
  esac
done

echo "==> perfbench's own tests (reference digests at both recorded seeds, forwarding wrappers, conservation laws)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# A traced run counts heap allocations per reference: the simulator's
# (mpsim.allocs_per_op) and, for the oracle-checked workload, the oracle's
# own (checker.allocs_per_op, the checked run's count less its unchecked
# twin's). The counts repeat exactly from run to run, so these bounds are
# deterministic: a steady-state bus transaction allocates nothing, neither
# does feeding a reference from its stream to the machine, and the golden
# image grows one slab instead of allocating per line.
for gate in tree:mpsim:0.05 flat-write:mpsim:0.02 flat-read:mpsim:0.01 checked:checker:0.06; do
  workload="${gate%%:*}"
  bound="${gate##*:}"
  metric="${gate#*:}"
  metric="${metric%%:*}.allocs_per_op"
  echo "==> perfbench $workload traced allocation gate ($metric <= $bound)"
  line="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 4242 --seconds 1 --trace 1 | tail -1)"
  allocs="$(printf '%s' "$line" | grep -o "\"$metric\": {\"value\": [0-9.]*" \
      | grep -o '[0-9.]*$' || true)"
  echo "$metric = ${allocs:-missing}"
  case "$line" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "traced perfbench $workload failed at seed 4242" >&2; exit 1 ;;
  esac
  awk -v a="$allocs" -v b="$bound" 'BEGIN { exit !(a != "" && a + 0 <= b + 0) }' \
    || { echo "perfbench $workload allocates ${allocs:-?} per reference in $metric (bound $bound)" >&2; exit 1; }
done

echo "==> fault-injection smoke campaign (fixed seed, fails on silent corruption)"
./target/release/moesi-sim faults --seed 7 --steps 800

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "==> default fault campaign verdicts match the committed fixture"
./target/release/moesi-sim faults --seed 7 --json --out "$work/flat" >/dev/null
cmp "$work/flat" tests/fixtures/faults/flat.json \
  || { echo "faults --json diverged from tests/fixtures/faults/flat.json" >&2; exit 1; }

echo "==> default fault campaign reports match the committed text fixtures (flat and hierarchy)"
./target/release/moesi-sim faults --seed 7 > "$work/flat_text"
cmp "$work/flat_text" tests/fixtures/faults/flat.txt \
  || { echo "faults diverged from tests/fixtures/faults/flat.txt" >&2; exit 1; }
./target/release/moesi-sim faults --hierarchy --seed 7 > "$work/hier_text"
cmp "$work/hier_text" tests/fixtures/faults/hierarchy.txt \
  || { echo "faults --hierarchy diverged from tests/fixtures/faults/hierarchy.txt" >&2; exit 1; }

# Every host-side figure in a bench JSON document sits in a "host" object,
# the last member of its row or of the file; those legitimately differ run to
# run, so every determinism comparison drops them (with the separator before
# each) first. Simulated results must survive unchanged. Mirrors
# bench::strip_host.
strip_host() {
  sed -zE 's/,[[:space:]]*"host": \{[^}]*\}//g' "$1"
}

# pair FLAG ARGS...: runs `moesi-sim ARGS...` twice, first with `FLAG 2`, then
# with `FLAG 1`. A word `@NAME` in ARGS names an output file: `$work/NAME.2`
# in the first run, `$work/NAME.1` in the second. The first run's stdout
# passes through; the second's is discarded.
pair() {
  local flag="$1" n arg args
  shift
  for n in 2 1; do
    args=()
    for arg in "$@"; do
      case "$arg" in
        @*) args+=("$work/${arg#@}.$n") ;;
        *) args+=("$arg") ;;
      esac
    done
    if [ "$n" = 2 ]; then
      ./target/release/moesi-sim "${args[@]}" "$flag" 2
    else
      ./target/release/moesi-sim "${args[@]}" "$flag" 1 >/dev/null
    fi
  done
}

# same NAME LABEL FLAG [host]: the two `pair` outputs `@NAME` must be equal,
# after strip_host when the last argument is `host`.
same() {
  local a="$work/$1.2" b="$work/$1.1"
  if [ "${4:-}" = host ]; then
    cmp <(strip_host "$a") <(strip_host "$b")
  else
    cmp "$a" "$b"
  fi || { echo "$2 $3 2 diverged from $3 1" >&2; exit 1; }
}

# json_ok FILE LABEL: FILE must parse as JSON (checked when python3 exists).
json_ok() {
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$1" \
      || { echo "$2 output is not valid JSON" >&2; exit 1; }
  fi
}

echo "==> hierarchy fault smoke (fixed seed, >=1000 faults; exits nonzero on silent corruption)"
pair --jobs faults --hierarchy --seed 7 --json --out @hier \
  | grep -E "faults injected" \
  || { echo "hierarchy fault smoke produced no report" >&2; exit 1; }
same hier "hierarchy faults" --jobs
hier_injected="$(grep -o '"injected": [0-9]*' "$work/hier.1" | head -1 | grep -o '[0-9]*$')"
[ "${hier_injected:-0}" -ge 1000 ] \
  || { echo "hierarchy smoke injected only ${hier_injected:-0} faults (need >= 1000)" >&2; exit 1; }
grep -q '"silent": 0' "$work/hier.1" \
  || { echo "hierarchy smoke saw silent corruption" >&2; exit 1; }
grep -q '"recovery_demonstrated": true' "$work/hier.1" \
  || { echo "liveness probe failed to demonstrate livelock recovery" >&2; exit 1; }
json_ok "$work/hier.1" "hierarchy faults"
cmp "$work/hier.1" tests/fixtures/faults/hierarchy.json \
  || { echo "faults --hierarchy --json diverged from tests/fixtures/faults/hierarchy.json" >&2; exit 1; }

echo "==> sharded hierarchy fault smoke (--shards 2 must match --shards 1 byte for byte)"
pair --shards faults --hierarchy --seed 7 --steps 400 --json --out @hshard >/dev/null
same hshard "hierarchy faults" --shards
grep -q '"silent": 0' "$work/hshard.1" \
  || { echo "sharded hierarchy smoke saw silent corruption" >&2; exit 1; }

echo "==> deep-hierarchy fault smoke (depth 3, 32 caches; --jobs 2 must match --jobs 1)"
pair --jobs faults --hierarchy --depth 3 --fanout 4 --clusters 4 \
    --cpus 2 --steps 500 --seed 7 --json --out @deep >/dev/null
same deep "deep hierarchy faults" --jobs
grep -q '"depth": 3' "$work/deep.1" && grep -q '"leaves": 16' "$work/deep.1" \
  || { echo "deep hierarchy smoke did not run the depth-3, 16-leaf tree" >&2; exit 1; }
grep -q '"silent": 0' "$work/deep.1" \
  || { echo "deep hierarchy smoke saw silent corruption" >&2; exit 1; }
json_ok "$work/deep.1" "deep hierarchy faults"
cmp "$work/deep.1" tests/fixtures/faults/deep.json \
  || { echo "deep hierarchy faults diverged from tests/fixtures/faults/deep.json" >&2; exit 1; }

echo "==> default simulator output matches the committed fixtures (flat and clusters)"
./target/release/moesi-sim --protocol moesi,dragon,write-through,non-caching \
    --workload general --steps 500 --seed 7 --check --census --trace 8 > "$work/sim_flat"
cmp "$work/sim_flat" tests/fixtures/simulate/flat.txt \
  || { echo "moesi-sim diverged from tests/fixtures/simulate/flat.txt" >&2; exit 1; }
./target/release/moesi-sim --clusters 2x2 --steps 300 --seed 7 --check > "$work/sim_clusters"
cmp "$work/sim_clusters" tests/fixtures/simulate/clusters.txt \
  || { echo "moesi-sim --clusters diverged from tests/fixtures/simulate/clusters.txt" >&2; exit 1; }

echo "==> policy tables match the committed fixtures (paper Tables 3-7, then every shipped protocol)"
./target/release/moesi-sim table > "$work/tables"
cmp "$work/tables" tests/fixtures/tables/paper_tables.txt \
  || { echo "rendered policy tables diverged from tests/fixtures/tables/paper_tables.txt" >&2; exit 1; }
./target/release/moesi-sim table --protocol moesi,moesi-invalidating,puzak,hybrid,write-through,non-caching,berkeley,dragon,write-once,illinois,firefly,synapse,random > "$work/all_tables"
cmp "$work/all_tables" tests/fixtures/tables/all_tables.txt \
  || { echo "rendered policy tables diverged from tests/fixtures/tables/all_tables.txt" >&2; exit 1; }

echo "==> hybrid bench smoke (fixed seed; sharded run must match the sequential one)"
pair --jobs bench --protocol hybrid --seed 7 --steps 500 --json --out @hybrid >/dev/null
same hybrid "hybrid bench" --jobs host

echo "==> bench smoke (fixed seed; sharded run must match the sequential one)"
pair --jobs bench --seed 7 --steps 500 --json --out @bench --trace-out @trace \
  | grep -E "total [1-9][0-9]* accesses" \
  || { echo "bench smoke reported zero throughput" >&2; exit 1; }
same bench "bench" --jobs host
grep -q '"phase_p50_ns"' "$work/bench.1" \
  || { echo "bench JSON is missing the per-phase percentiles" >&2; exit 1; }
grep -q '"host": {' "$work/bench.1" \
  || { echo "bench JSON is missing the host-side measurements" >&2; exit 1; }

echo "==> shard smoke (--shards 2 must match --shards 1 byte for byte)"
pair --shards bench --seed 7 --steps 500 --json --out @shard >/dev/null
same shard "bench" --shards host

echo "==> committed bench artifact matches a fresh default sweep (host fields ignored)"
./target/release/moesi-sim bench --json --out "$work/bench_fresh" >/dev/null
cmp <(strip_host "$work/bench_fresh") <(strip_host BENCH_protocols.json) \
  || { echo "BENCH_protocols.json diverged from a fresh default sweep; regenerate it" >&2; exit 1; }

echo "==> sharded baseline smoke (scaling sweep vs committed BENCH_shards.json; host fields ignored)"
shards_committed="$(grep -o '"shards": [0-9]*' BENCH_shards.json | grep -o '[0-9]*$' | paste -sd, -)"
[ -n "$shards_committed" ] \
  || { echo "BENCH_shards.json has no shard rows" >&2; exit 1; }
./target/release/moesi-sim bench --shards "$shards_committed" --json --out "$work/scale_fresh" >/dev/null
cmp <(strip_host "$work/scale_fresh") <(strip_host BENCH_shards.json) \
  || { echo "BENCH_shards.json diverged from a fresh scaling sweep; regenerate it" >&2; exit 1; }
speedups="$(grep -oc '"modelled_speedup": [0-9]*\.[0-9]*' "$work/scale_fresh")"
zero_speedups="$(grep -c '"modelled_speedup": 0\.000' "$work/scale_fresh" || true)"
[ "${speedups:-0}" -ge 2 ] && [ "${zero_speedups:-0}" -eq 0 ] \
  || { echo "scaling sweep speedup column is empty or zero" >&2; exit 1; }

echo "==> hierarchy saturation smoke (--jobs 2 must match --jobs 1; filters must suppress)"
pair --jobs bench --hierarchy --protocol moesi --clusters 2 --depth 3 \
    --fanout 2 --cpus 2 --steps 80 --seed 7 --json --out @hsat >/dev/null
same hsat "bench --hierarchy" --jobs host
grep -q '"suppressed": [1-9]' "$work/hsat.1" \
  || { echo "saturation smoke saw no snoop-filter suppression" >&2; exit 1; }
json_ok "$work/hsat.1" "hierarchy bench"

echo "==> committed hierarchy artifact matches a fresh default study (host fields ignored)"
./target/release/moesi-sim bench --hierarchy --json --out "$work/hier_fresh" >/dev/null
cmp <(strip_host "$work/hier_fresh") <(strip_host BENCH_hierarchy.json) \
  || { echo "BENCH_hierarchy.json diverged from a fresh default study; regenerate it" >&2; exit 1; }
grep -q '"caches": 64' BENCH_hierarchy.json \
  || { echo "BENCH_hierarchy.json is missing the 64-cache depth-3 rows" >&2; exit 1; }

echo "==> chrome-trace smoke (fixed seed; --jobs must not perturb the trace)"
same trace "trace" --jobs
grep -q '"traceEvents"' "$work/trace.1" \
  || { echo "trace output is not a Chrome trace document" >&2; exit 1; }
json_ok "$work/trace.1" "trace"
json_ok "$work/bench.1" "bench"

echo "==> synth smoke (fixed seed, tiny cell budget; sharded run must match the sequential one)"
pair --jobs synth --workload ping-pong --cpus 2 --steps 80 --rounds 1 \
    --campaign-steps 300 --sensitivity --seed 7 \
    --out @synth_tables --json-out @synth_json >/dev/null
same synth_tables "synth tables" --jobs
same synth_json "synth JSON" --jobs
grep -q '"faults_silent": 0' "$work/synth_json.1" \
  || { echo "synth smoke saw silent corruption" >&2; exit 1; }
json_ok "$work/synth_json.1" "synth"

echo "==> synthesized winners match the committed fixture (best-known tables per workload)"
./target/release/moesi-sim synth --seed 7 --out "$work/best_tables" --json-out "$work/best_json" >/dev/null
cmp "$work/best_tables" tests/fixtures/synth/best_tables.txt \
  || { echo "synthesized tables diverged from tests/fixtures/synth/best_tables.txt" >&2; exit 1; }
cmp "$work/best_json" tests/fixtures/synth/best_tables.json \
  || { echo "synth report diverged from tests/fixtures/synth/best_tables.json" >&2; exit 1; }

echo "==> mutation sweep accepts a loaded table (synth fixture as the base)"
./target/release/moesi-sim verify --mutate --table tests/fixtures/synth/best_tables.txt >/dev/null 2>&1 \
  && { echo "mutation sweep accepted a multi-table document as one table" >&2; exit 1; }
head -20 tests/fixtures/synth/best_tables.txt > "$work/first_table"
./target/release/moesi-sim verify --mutate --table "$work/first_table" > "$work/mutate_out"
grep -q "single-cell mutations of \`synth-general\`" "$work/mutate_out" \
  || { echo "verify --mutate --table failed on the synthesized winner" >&2; exit 1; }

echo "==> model checker output matches the committed fixtures (matrix and mutation sweep)"
./target/release/moesi-sim verify --matrix --jobs 1 > "$work/verify_matrix"
cmp "$work/verify_matrix" tests/fixtures/verify/matrix.txt \
  || { echo "verify --matrix diverged from tests/fixtures/verify/matrix.txt" >&2; exit 1; }
./target/release/moesi-sim verify --mutate > "$work/verify_mutate"
cmp "$work/verify_mutate" tests/fixtures/verify/mutate.txt \
  || { echo "verify --mutate diverged from tests/fixtures/verify/mutate.txt" >&2; exit 1; }

echo "==> model checker state count (4 full-table caches, 1 line)"
./target/release/moesi-sim verify --caches 4 | grep -q "184 states, 30984 transitions" \
  || { echo "verify --caches 4 no longer explores 184 states and 30984 transitions" >&2; exit 1; }

echo "ci: all green"
