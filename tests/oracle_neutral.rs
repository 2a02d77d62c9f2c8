//! The oracle watches the machine and changes nothing in it: a seeded run
//! with the consistency oracle on ends in exactly the state, statistics and
//! timing of the same run with it off. The oracle reads each processor
//! read's bytes where they land, on the one read path every run takes, so
//! this is a property of that path, not of a separate checked copy.

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::{BusStats, SparseMemory};
use moesi::protocols::by_name;
use mpsim::hierarchy::{BridgeStats, FabricNode, TreeBuilder};
use mpsim::{CpuStats, DuboisBriggs, RefStream, SharingModel, System, SystemBuilder, TimedReport};

const LINE: usize = 32;

/// Write sharing over a small hot pool, so reads miss, owners intervene and
/// victims are written back.
const SHARING: SharingModel = SharingModel {
    shared_lines: 8,
    private_lines: 48,
    p_shared: 0.5,
    p_write: 0.3,
    p_rereference: 0.3,
    line_size: LINE as u64,
};

fn cfg() -> CacheConfig {
    CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru)
}

fn stream(id: usize, seed: u64) -> Box<dyn RefStream + Send> {
    Box::new(DuboisBriggs::new(id, SHARING, seed))
}

/// A memory's image: every written line and its bytes, in address order.
fn image(memory: &SparseMemory) -> Vec<(u64, Vec<u8>)> {
    memory
        .line_addrs()
        .into_iter()
        .map(|line| (line, memory.peek(line).to_vec()))
        .collect()
}

/// Everything a run leaves behind that the oracle must not touch.
struct Outcome {
    cpus: Vec<CpuStats>,
    buses: Vec<BusStats>,
    bridges: Vec<BridgeStats>,
    memories: Vec<Vec<(u64, Vec<u8>)>>,
    timed: Option<TimedReport>,
}

/// The outcome of `sys` after a run that reported `timed`: every
/// processor's statistics, every bus's (the root first, then each bridge's
/// own bus in pre-order) with its memory, and every bridge's counters.
fn outcome(sys: &System, timed: Option<TimedReport>) -> Outcome {
    let mut buses = vec![*sys.bus_stats()];
    let mut memories = vec![image(sys.bus().memory())];
    let mut bridges = Vec::new();
    for bridge in sys.bridges_preorder() {
        bridges.push(*bridge.stats());
        let bus = match bridge.node() {
            FabricNode::Leaf(fabric) => fabric.bus(),
            FabricNode::Interior(seg) => seg.bus(),
        };
        buses.push(*bus.stats());
        memories.push(image(bus.memory()));
    }
    Outcome {
        cpus: (0..sys.nodes()).map(|lane| *sys.stats(lane)).collect(),
        buses,
        bridges,
        memories,
        timed,
    }
}

/// A flat 4-cache bus of `protocol`, run timed for 300 references per
/// processor.
fn flat_run(protocol: &str, seed: u64, checking: bool) -> Outcome {
    let mut b = SystemBuilder::new(LINE).checking(checking);
    for id in 0..4 {
        b = b.cache(by_name(protocol, 1000 + id as u64).expect("shipped"), cfg());
    }
    let mut sys = b.build();
    let mut streams: Vec<_> = (0..4).map(|id| stream(id, seed)).collect();
    let timed = sys.run_timed(&mut streams, 300, 50);
    sys.verify().expect("consistent");
    outcome(&sys, Some(timed))
}

/// A 2×2 tree of `protocol`, run untimed for 200 steps per processor.
fn tree_run(protocol: &str, seed: u64, checking: bool) -> Outcome {
    let mut sys = TreeBuilder::uniform(LINE, 2, 2, 1, 2, |leaf, cpu| {
        let id = leaf * 2 + cpu;
        (
            by_name(protocol, 1000 + id as u64).expect("shipped"),
            Some(cfg()),
        )
    })
    .seed(seed)
    .checking(checking)
    .build();
    let mut streams: Vec<Vec<_>> = (0..2)
        .map(|leaf| (0..2).map(|cpu| stream(leaf * 2 + cpu, seed)).collect())
        .collect();
    sys.run(&mut streams, 200);
    sys.verify().expect("consistent");
    outcome(&sys, None)
}

/// Asserts `checked` is `unchecked`, field by field, naming the run
/// `what`; the memory images are compared without printing them.
fn assert_same(checked: &Outcome, unchecked: &Outcome, what: &str) {
    assert_eq!(checked.cpus, unchecked.cpus, "{what}: processor stats");
    assert_eq!(checked.buses, unchecked.buses, "{what}: bus stats");
    assert_eq!(checked.bridges, unchecked.bridges, "{what}: bridge stats");
    assert_eq!(checked.timed, unchecked.timed, "{what}: timed report");
    assert!(
        checked.memories == unchecked.memories,
        "{what}: memory images differ"
    );
}

#[test]
fn a_checked_run_ends_exactly_where_the_unchecked_run_does() {
    for protocol in ["moesi", "dragon", "berkeley", "write-through"] {
        for seed in [7, 4242] {
            let unchecked = flat_run(protocol, seed, false);
            assert!(unchecked.cpus.iter().any(|s| s.reads > s.read_hits));
            let what = format!("flat {protocol}, seed {seed}");
            assert_same(&flat_run(protocol, seed, true), &unchecked, &what);
            let unchecked = tree_run(protocol, seed, false);
            assert!(unchecked.bridges.iter().any(|s| s.fetches > 0));
            let what = format!("2x2 tree {protocol}, seed {seed}");
            assert_same(&tree_run(protocol, seed, true), &unchecked, &what);
        }
    }
}
