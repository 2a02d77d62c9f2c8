//! §6's multiple-bus question, answered: a two-level hierarchy where each
//! cluster is "one big cache" running MOESI on the parent bus.
//!
//! The demo measures the point of a hierarchy: intra-cluster sharing never
//! touches the parent bus, so the machine scales past what one bus could
//! carry.
//!
//! Run with `cargo run --example two_level_bus`.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::moesi_preferred;
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, System, SystemBuilder};

const LINE: usize = 32;
const CLUSTERS: usize = 4;
const CPUS_PER_CLUSTER: usize = 2;
const STEPS: u64 = 800;

fn cfg() -> CacheConfig {
    CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru)
}

fn build_hierarchy() -> System {
    let mut b = TreeBuilder::new(LINE).checking(true);
    for _ in 0..CLUSTERS {
        let mut leaf = TreeSpec::leaf();
        for _ in 0..CPUS_PER_CLUSTER {
            leaf = leaf.cache(Box::new(moesi_preferred()), cfg());
        }
        b = b.child(leaf);
    }
    b.build()
}

fn main() {
    println!("— A walking tour of cluster-level MOESI —\n");
    let mut sys = build_hierarchy();
    let addr = 0x4000;
    sys.write_at(&[0], 0, addr, &[42; 4]);
    println!(
        "cluster0/cpu0 writes: cluster states = {}",
        (0..CLUSTERS)
            .map(|c| sys.cluster_state_of(c, addr).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let v = sys.read_at(&[2], 1, addr, 4);
    println!(
        "cluster2/cpu1 reads {v:?}: cluster states = {}",
        (0..CLUSTERS)
            .map(|c| sys.cluster_state_of(c, addr).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    sys.write_at(&[2], 0, addr, &[43; 4]);
    println!(
        "cluster2/cpu0 writes: cluster states = {}",
        (0..CLUSTERS)
            .map(|c| sys.cluster_state_of(c, addr).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("  (the whole cluster behaves as one MOESI cache on the parent bus)\n");

    println!("— Bandwidth: flat single bus vs two-level hierarchy —\n");

    // Workload: each processor mostly shares with its cluster neighbours
    // (private pools double as \"cluster-local\" data) plus some global sharing.
    let model = SharingModel {
        shared_lines: 8,
        private_lines: 32,
        p_shared: 0.15, // only 15% of traffic is globally shared
        p_write: 0.3,
        p_rereference: 0.4,
        line_size: LINE as u64,
    };

    // Flat machine: all 8 CPUs on one bus.
    let mut flat = {
        let mut b = SystemBuilder::new(LINE).checking(true);
        for _ in 0..CLUSTERS * CPUS_PER_CLUSTER {
            b = b.cache(Box::new(moesi_preferred()), cfg());
        }
        b.build()
    };
    let flat_streams: Vec<Box<dyn RefStream + Send>> = (0..CLUSTERS * CPUS_PER_CLUSTER)
        // Pair up CPUs onto shared \"private\" pools to emulate cluster locality.
        .map(|cpu| Box::new(DuboisBriggs::new(cpu / CPUS_PER_CLUSTER, model, 5)) as _)
        .collect();
    flat.run(&mut [flat_streams], STEPS);

    // Hierarchical machine: 4 clusters x 2 CPUs.
    let mut hier = build_hierarchy();
    let mut hier_streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..CLUSTERS)
        .map(|cluster| {
            (0..CPUS_PER_CLUSTER)
                .map(|_| {
                    Box::new(DuboisBriggs::new(cluster, model, 5)) as Box<dyn RefStream + Send>
                })
                .collect()
        })
        .collect();
    hier.run(&mut hier_streams, STEPS);
    hier.verify().expect("consistent");

    let flat_txns = flat.bus_stats().transactions;
    let parent_txns = hier.bus_stats().transactions;
    let cluster_txns: u64 = (0..CLUSTERS)
        .map(|c| hier.bridge(c).fabric().bus().stats().transactions)
        .sum();

    println!("flat single bus:      {flat_txns:>7} transactions on THE one bus");
    println!("hierarchy parent bus: {parent_txns:>7} transactions");
    println!("hierarchy cluster buses (sum of {CLUSTERS} independent buses): {cluster_txns:>7}");
    println!(
        "\nThe parent bus carries {:.1}x less traffic than the flat bus —",
        flat_txns as f64 / parent_txns.max(1) as f64
    );
    println!("cluster-local sharing is absorbed by the cluster buses, which operate");
    println!("in parallel. That is the scaling §6 asks after, built from nothing but");
    println!("the MOESI class applied recursively: each bridge is a Table 1/2 cache");
    println!("master whose 'cache' is its whole cluster.");
}
