//! The cache arrays' deterministic work count: tag scans per processor
//! reference, pinned for seeded write-sharing runs on a flat 4-cache bus
//! and on a 2×2 tree. A scan is one search of a set's ways for a tag
//! (`CacheArray::tag_scans`); the count is the same in every build and on
//! every host, so a change to how often the machine looks a line up shows
//! here as an exact diff.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::by_name;
use mpsim::hierarchy::TreeBuilder;
use mpsim::{DuboisBriggs, RefStream, SharingModel, System, SystemBuilder};

const LINE: usize = 32;

/// A hot pool of 8 shared lines takes 60% of references and half of all
/// references are writes: most writes hit a line another cache holds.
const WRITE_SHARING: SharingModel = SharingModel {
    shared_lines: 8,
    private_lines: 64,
    p_shared: 0.6,
    p_write: 0.5,
    p_rereference: 0.2,
    line_size: LINE as u64,
};

/// Tag scans summed over every processor's cache, and references issued.
fn scans(sys: &System) -> (u64, u64) {
    let mut scans = 0;
    let mut refs = 0;
    for lane in 0..sys.nodes() {
        let ctrl = sys.controller(lane);
        scans += ctrl.cache().map_or(0, |c| c.tag_scans());
        refs += ctrl.stats().references();
    }
    (scans, refs)
}

/// MOESI machines with empty 4 KiB 2-way caches, oracle off, one seed-7
/// stream per processor: a flat 4-cache bus for 500 timed steps per
/// processor, and a 2×2 tree for 250 steps per processor.
fn seeded_scans() -> [(u64, u64); 2] {
    let cfg = CacheConfig::new(4096, LINE, 2, ReplacementKind::Lru);
    let protocol = |id: usize| by_name("moesi", 1000 + id as u64).expect("shipped");
    let stream = |id: usize| -> Box<dyn RefStream + Send> {
        Box::new(DuboisBriggs::new(id, WRITE_SHARING, 7))
    };

    let mut flat = SystemBuilder::new(LINE);
    for id in 0..4 {
        flat = flat.cache(protocol(id), cfg);
    }
    let mut flat = flat.build();
    let mut streams: Vec<_> = (0..4).map(stream).collect();
    flat.run_timed(&mut streams, 500, 50);

    let mut tree = TreeBuilder::uniform(LINE, 2, 2, 1, 2, |leaf, cpu| {
        (protocol(leaf * 2 + cpu), Some(cfg))
    })
    .seed(7)
    .build();
    let mut streams: Vec<Vec<_>> = (0..2)
        .map(|leaf| (0..2).map(|cpu| stream(leaf * 2 + cpu)).collect())
        .collect();
    tree.run(&mut streams, 250);

    [scans(&flat), scans(&tree)]
}

#[test]
fn tag_scans_per_reference_at_seed_7_are_pinned() {
    let [flat, tree] = seeded_scans();
    // (tag scans, references). One scan per snooper per transaction, one
    // per hit probe or write decision, one per fill; a snooper's commit and
    // the write after a decision reuse the slot their scan found.
    assert_eq!(flat, (5445, 2000), "flat 4-cache bus");
    assert_eq!(tree, (2613, 1000), "2x2 tree");
}

#[test]
fn tag_scans_repeat_exactly_from_run_to_run() {
    assert_eq!(seeded_scans(), seeded_scans());
}
