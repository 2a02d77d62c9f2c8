//! Sharded runs are the benchmark of record, so their determinism contract
//! is load-bearing: a fixed address-region partition means the worker count
//! can never change a simulated result. These tests pin `--shards K` ≡
//! `--shards 1` byte for byte across every sharded surface — the benchmark
//! sweep, the scaling sweep, the fault campaign and the synth fitness
//! function — over several seeds.

use bench::hierarchy::{hierarchy_json, hierarchy_sweep, HierarchyBenchConfig};
use bench::sweep::{
    scaling_json, shard_scaling, sweep, sweep_json, table_fitness, ScalingRow, SweepConfig,
    SweepRow,
};
use bench::{strip_host, Host};
use futurebus::Discipline;
use moesi::Protocol;
use mpsim::{campaign_report_json, run_campaign, CampaignConfig, TreeShape};

const SEEDS: [u64; 3] = [1, 7, 42];

fn sharded_config(seed: u64, shards: usize) -> SweepConfig {
    SweepConfig {
        protocols: vec!["moesi".into(), "dragon".into(), "write-through".into()],
        workloads: vec!["general".into(), "ping-pong".into()],
        cpus: 2,
        steps: 200,
        seed,
        shards,
        jobs: 1,
        ..SweepConfig::default()
    }
}

#[test]
fn sharded_sweep_is_byte_identical_across_worker_counts() {
    for seed in SEEDS {
        let one = sweep(&sharded_config(seed, 1)).unwrap();
        let four = sweep(&sharded_config(seed, 4)).unwrap();
        assert_eq!(one, four, "seed {seed}: rows diverged");
        // The full JSON document, host-side measurements stripped, must
        // match to the byte — the same check ci.sh runs on the committed
        // baseline.
        let json_one = strip_host(&sweep_json(&sharded_config(seed, 1), &one));
        let json_four = strip_host(&sweep_json(&sharded_config(seed, 4), &four));
        assert_eq!(json_one, json_four, "seed {seed}: JSON diverged");
    }
}

/// Every key of `json` in document order, except `"host"` objects and
/// their members: a brace-depth walk, independent of `strip_host`.
fn simulated_keys(json: &str) -> Vec<&str> {
    let (mut keys, mut depth, mut host_depth) = (Vec::new(), 0, usize::MAX);
    let mut rest = json;
    while let Some(at) = rest.find(['{', '}', '"']) {
        match rest.as_bytes()[at] {
            b'{' => depth += 1,
            b'}' => {
                if depth == host_depth {
                    host_depth = usize::MAX;
                }
                depth -= 1;
            }
            _ => {
                let end = at + 1 + rest[at + 1..].find('"').expect("strings close");
                let word = &rest[at + 1..end];
                if rest[end + 1..].starts_with(": ") && depth < host_depth {
                    if word == "host" {
                        host_depth = depth + 1;
                    } else {
                        keys.push(word);
                    }
                }
                rest = &rest[end + 1..];
                continue;
            }
        }
        rest = &rest[at + 1..];
    }
    keys
}

#[test]
fn stripping_host_fields_removes_every_volatile_key() {
    // Each BENCH document is rendered from measured rows and again from the
    // same rows with zeroed host figures.
    let cfg = sharded_config(7, 2);
    let rows = sweep(&cfg).unwrap();
    let zeroed_rows: Vec<SweepRow> = rows
        .iter()
        .map(|r| SweepRow {
            host: Host::default(),
            ..r.clone()
        })
        .collect();
    let (_, scaling) = shard_scaling(&cfg, &[1, 2]).unwrap();
    let zeroed_scaling: Vec<ScalingRow> = scaling
        .iter()
        .map(|r| ScalingRow {
            host: Host::default(),
            ..r.clone()
        })
        .collect();
    let hier_cfg = HierarchyBenchConfig {
        protocols: vec!["moesi".into()],
        clusters: vec![2],
        depths: vec![2, 3],
        fanouts: vec![2],
        disciplines: vec![Discipline::Priority],
        cpus: 2,
        steps: 40,
        jobs: 1,
        ..HierarchyBenchConfig::default()
    };
    let mut hier = hierarchy_sweep(&hier_cfg).unwrap();
    let hier_json = hierarchy_json(&hier_cfg, &hier);
    for row in &mut hier {
        row.host = Host::default();
    }
    let documents = [
        (sweep_json(&cfg, &rows), sweep_json(&cfg, &zeroed_rows)),
        (
            scaling_json(&cfg, &scaling),
            scaling_json(&cfg, &zeroed_scaling),
        ),
        (hier_json, hierarchy_json(&hier_cfg, &hier)),
    ];
    for (json, zeroed) in &documents {
        assert!(json.contains("\"host\": {"), "{json}");
        let stripped = strip_host(json);
        assert!(!stripped.contains("\"host\""), "{stripped}");
        let squeezed: String = stripped.split_whitespace().collect();
        assert!(!squeezed.contains(",}"), "dangling separator: {stripped}");
        assert!(!simulated_keys(json).is_empty());
        assert_eq!(simulated_keys(&stripped), simulated_keys(json));
        assert_eq!(stripped, strip_host(zeroed));
    }
    // The first scaling row is its own measured baseline.
    assert_eq!(scaling[0].host.measured_speedup, 1.0);
    let first_row = documents[1]
        .0
        .lines()
        .find(|l| l.contains("\"shards\": 1,"))
        .expect("a one-worker row");
    assert!(
        first_row.contains("\"measured_speedup\": 1.000"),
        "{first_row}"
    );
}

#[test]
fn scaling_sweep_agrees_with_the_plain_sharded_sweep() {
    for seed in SEEDS {
        let cfg = sharded_config(seed, 1);
        let (rows, scaling) = shard_scaling(&cfg, &[1, 2, 4]).unwrap();
        let direct = sweep(&cfg).unwrap();
        assert_eq!(rows, direct, "seed {seed}: baseline rows diverged");
        assert_eq!(scaling.len(), 3);
        // Simulated totals are identical at every worker count; only the
        // host-side schedule varies.
        for row in &scaling {
            assert_eq!(row.accesses, scaling[0].accesses, "seed {seed}");
            assert_eq!(row.wall_ns, scaling[0].wall_ns, "seed {seed}");
            assert_eq!(row.busy_ns, scaling[0].busy_ns, "seed {seed}");
            assert_eq!(row.wait_ns, scaling[0].wait_ns, "seed {seed}");
            assert!(
                row.host.modelled_speedup > 0.0,
                "seed {seed}: empty speedup column"
            );
        }
        // One worker cannot beat its own serial schedule.
        assert!(
            (scaling[0].host.modelled_speedup - 1.0).abs() < 1e-9,
            "seed {seed}"
        );
    }
}

#[test]
fn sharded_fault_campaign_is_byte_identical_across_worker_counts() {
    // The flat bus, and a 2x2 tree through the same region partition.
    for tree in [None, Some(TreeShape::default())] {
        for seed in SEEDS {
            let base = CampaignConfig {
                protocols: vec!["moesi".into(), "berkeley".into()],
                steps: 300,
                seed,
                jobs: 1,
                ..CampaignConfig::default()
            };
            let base = match tree {
                None => base,
                Some(_) => CampaignConfig {
                    tree,
                    cpus: 2,
                    faults: CampaignConfig::hierarchy().faults,
                    ..base
                },
            };
            let one = run_campaign(&CampaignConfig {
                shards: 1,
                ..base.clone()
            })
            .unwrap();
            let four = run_campaign(&CampaignConfig { shards: 4, ..base }).unwrap();
            assert_eq!(
                campaign_report_json(&one),
                campaign_report_json(&four),
                "seed {seed}, tree {tree:?}: campaign diverged"
            );
            assert!(one.tally().injected() > 0, "seed {seed}, tree {tree:?}");
            assert_eq!(one.tally().silent(), 0, "seed {seed}, tree {tree:?}");
        }
    }
}

#[test]
fn sharded_fitness_is_byte_identical_across_worker_counts() {
    let table = *moesi::protocols::moesi_preferred()
        .policy_table()
        .expect("moesi ships a policy table");
    for seed in SEEDS {
        let one = table_fitness(&sharded_config(seed, 1), table, "ping-pong").unwrap();
        let four = table_fitness(&sharded_config(seed, 4), table, "ping-pong").unwrap();
        assert_eq!(one, four, "seed {seed}: fitness row diverged");
        assert_eq!(
            one.accesses, four.accesses,
            "seed {seed}: simulated work diverged"
        );
    }
}
