//! The paper-shaped orderings behind the experiments in DESIGN.md, as plain
//! assertions on simulated quantities (bus time, hit ratio, traffic). Host
//! timing of the same machines is `perfbench/`'s job; these tests pin only
//! the shapes, which are deterministic.

use bench::{homogeneous_system, workload_streams, LINE};
use cache_array::{CacheConfig, ReplacementKind};
use futurebus::TimingConfig;
use moesi::protocols::{by_name, MoesiPreferred};
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, Sequential, SystemBuilder, TimedReport};

/// `cpus` Dubois-Briggs streams over `model`.
fn dubois_briggs(cpus: usize, model: SharingModel, seed: u64) -> Vec<Box<dyn RefStream + Send>> {
    (0..cpus)
        .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, seed)) as _)
        .collect()
}

/// E10, §1's saturation argument: `cpus` processors of `kind` ("none" for
/// cacheless) under the contention-aware timed mode.
fn saturation_run(kind: &str, cpus: usize) -> TimedReport {
    let cfg = CacheConfig::new(4096, LINE, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(LINE);
    for i in 0..cpus {
        b = match kind {
            "none" => b.uncached(by_name("non-caching", i as u64).unwrap()),
            name => b.cache(by_name(name, i as u64).unwrap(), cfg),
        };
    }
    let model = SharingModel {
        p_shared: 0.1,
        line_size: LINE as u64,
        ..SharingModel::default()
    };
    b.build()
        .run_timed(&mut dubois_briggs(cpus, model, 9), 800, 50)
}

#[test]
fn caches_prevent_bus_saturation() {
    // At 8 CPUs the cacheless bus is saturated and its throughput is far
    // below the copy-back machine's.
    let none = saturation_run("none", 8);
    let moesi = saturation_run("moesi", 8);
    assert!(
        none.bus_utilization() > 0.99,
        "cacheless bus must saturate: {none}"
    );
    assert!(
        moesi.refs_per_us() > 3.0 * none.refs_per_us(),
        "copy-back caches must multiply aggregate throughput ({} vs {})",
        moesi.refs_per_us(),
        none.refs_per_us()
    );
    // And caches must scale: 4 CPUs beat 1 CPU clearly.
    let one = saturation_run("moesi", 1);
    let four = saturation_run("moesi", 4);
    assert!(
        four.refs_per_us() > 1.2 * one.refs_per_us(),
        "{} vs {}",
        four.refs_per_us(),
        one.refs_per_us()
    );
}

/// Simulated bus time of a 4-CPU ping-pong run of `protocol` under `timing`.
fn ping_pong_busy_ns(protocol: &str, timing: TimingConfig, steps: u64, seed: u64) -> u64 {
    let mut sys = homogeneous_system(protocol, 4, 4096, LINE, timing, false);
    sys.run(&mut workload_streams("ping-pong", 4, LINE, seed), steps);
    sys.bus_stats().busy_ns
}

#[test]
fn intervention_cost_matters_only_to_intervening_protocols() {
    // E5, §5.2's cost sensitivity: the intervention protocol's bus time grows
    // with intervention latency, while Illinois never intervenes.
    let at = |protocol: &str, intervention_latency_ns: u64| {
        let timing = TimingConfig {
            intervention_latency_ns,
            ..TimingConfig::default()
        };
        ping_pong_busy_ns(protocol, timing, 150, 3)
    };
    let (cheap, dear) = (at("moesi-invalidating", 50), at("moesi-invalidating", 600));
    assert!(
        dear > cheap,
        "intervention cost must matter ({cheap} vs {dear})"
    );
    assert_eq!(
        at("illinois", 50),
        at("illinois", 600),
        "illinois never intervenes"
    );
}

#[test]
fn larger_lines_hit_more_and_move_more_bytes() {
    // E6, §5.1's line-size trade-off on a sequential stream.
    let run = |line: usize| {
        let mut sys = homogeneous_system("moesi", 1, 4096, line, TimingConfig::default(), false);
        let mut streams: Vec<Box<dyn RefStream + Send>> =
            vec![Box::new(Sequential::new(0, 4, 4096, 0.2, 9))];
        sys.run(&mut streams, 1_000);
        (sys.total_stats().hit_ratio(), sys.bus_stats().bytes_moved)
    };
    let (hit_small, bytes_small) = run(8);
    let (hit_large, bytes_large) = run(128);
    assert!(
        hit_large > hit_small,
        "larger lines must exploit sequential locality ({hit_small} vs {hit_large})"
    );
    assert!(
        bytes_large > bytes_small,
        "larger lines must move more bytes ({bytes_small} vs {bytes_large})"
    );
}

#[test]
fn refined_update_policy_receives_fewer_updates() {
    // E4, §5.2's Puzak refinement: under private pressure that ages shared
    // lines, update-if-recent applies fewer updates than always-update.
    let model = SharingModel {
        shared_lines: 8,
        private_lines: 48,
        p_shared: 0.3,
        p_write: 0.4,
        p_rereference: 0.2,
        line_size: LINE as u64,
    };
    let updates = |protocol: &str| {
        let mut sys = homogeneous_system(protocol, 4, 1024, LINE, TimingConfig::default(), false);
        sys.run(&mut dubois_briggs(4, model, 5), 300);
        sys.total_stats().updates_received
    };
    let (always, refined) = (updates("moesi"), updates("puzak"));
    assert!(
        refined < always,
        "the refinement must skip some updates ({refined} vs {always})"
    );
}

#[test]
fn two_level_parent_bus_carries_under_half_the_flat_traffic() {
    // E7, §6: 4 clusters of 2 CPUs with cluster-local sharing versus the same
    // 8 CPUs on one bus.
    let cfg = CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru);
    let model = SharingModel {
        shared_lines: 8,
        private_lines: 32,
        p_shared: 0.15,
        p_write: 0.3,
        p_rereference: 0.4,
        line_size: LINE as u64,
    };
    let stream = |cluster: usize| -> Box<dyn RefStream + Send> {
        Box::new(DuboisBriggs::new(cluster, model, 5))
    };

    let mut b = SystemBuilder::new(LINE);
    for _ in 0..8 {
        b = b.cache(Box::new(MoesiPreferred::new()), cfg);
    }
    let mut flat = b.build();
    let mut streams: Vec<_> = (0..8).map(|cpu| stream(cpu / 2)).collect();
    flat.run(&mut streams, 200);
    let flat_txns = flat.bus_stats().transactions;

    let mut b = TreeBuilder::new(LINE);
    for _ in 0..4 {
        let mut leaf = TreeSpec::leaf();
        for _ in 0..2 {
            leaf = leaf.cache(Box::new(MoesiPreferred::new()), cfg);
        }
        b = b.child(leaf);
    }
    let mut tree = b.build();
    let mut streams: Vec<Vec<_>> = (0..4)
        .map(|cluster| (0..2).map(|_| stream(cluster)).collect())
        .collect();
    tree.run(&mut streams, 200);
    let parent_txns = tree.parent_stats().transactions;

    assert!(
        parent_txns * 2 < flat_txns,
        "the parent bus must carry far less than the flat bus ({parent_txns} vs {flat_txns})"
    );
}

#[test]
fn update_beats_invalidate_on_ping_pong() {
    // E3's headline ordering: on live sharing, broadcast updates cost less
    // bus time than invalidate-and-refetch.
    let update = ping_pong_busy_ns("moesi", TimingConfig::default(), 200, 7);
    let invalidate = ping_pong_busy_ns("moesi-invalidating", TimingConfig::default(), 200, 7);
    assert!(
        update < invalidate,
        "update ({update} ns) must beat invalidate ({invalidate} ns) on ping-pong"
    );
}
