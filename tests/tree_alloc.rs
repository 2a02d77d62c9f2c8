//! Allocation accounting for the fabric tree's access path, in a test binary
//! of its own because it installs a counting `#[global_allocator]`.
//!
//! - A read hit through a depth-3 tree allocates nothing once the caller's
//!   buffer has grown: `System::run` over read-hit streams costs
//!   its fixed set-up and not one allocation per step.
//! - Once every line of the working set is in memory, bus transactions
//!   allocate nothing either — fetches, broadcasts forwarded two levels
//!   down, CA+IM invalidations, interventions and dirty victim write-backs —
//!   on a depth-3 tree and on a flat bus alike.
//! - With the consistency oracle on, a warm flat bus and a warm 2×2 tree
//!   allocate nothing per read hit or per bus transaction either.
//! - The buffer path returns what the oracle's golden image says, for line
//!   crossers, for reads from a degraded (retired-bridge) cluster, and at
//!   depth 3.
//! - A Puzak or Hybrid decision that falls back to its table cell allocates
//!   nothing: the refinement builds a cell's permitted set only on the
//!   branch that picks from it.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{hybrid, moesi_preferred, puzak};
use moesi::rng::SmallRng;
use moesi::{BusEvent, LineState, LocalCtx, LocalEvent, Protocol, SnoopCtx};
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::{Access, Checker, CpuStats, RefStream, System, SystemBuilder};

/// Counts this thread's allocations (fresh blocks and reallocations), so
/// tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the counter
// is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru)
}

/// 2 root subtrees × 2 leaf clusters × 2 MOESI caches: a depth-3 tree.
fn depth_three(checking: bool) -> System {
    TreeBuilder::uniform(LINE, 2, 3, 2, 2, |_, _| {
        (
            Box::new(moesi_preferred()) as Box<dyn Protocol + Send>,
            Some(cfg()),
        )
    })
    .checking(checking)
    .build()
}

/// Reads that cycle over a few lines, one access crossing a line boundary:
/// after one lap every access is a hit.
struct HitStream {
    next: usize,
}

const HIT_READS: [(u64, usize); 4] = [(0x1000, 4), (0x1044, 8), (0x1080, 32), (0x10BC, 8)];

impl RefStream for HitStream {
    fn next_access(&mut self) -> Access {
        let (addr, size) = HIT_READS[self.next % HIT_READS.len()];
        self.next += 1;
        Access::read(addr, size)
    }
}

fn hit_streams(sys: &System) -> Vec<Vec<Box<dyn RefStream + Send>>> {
    (0..sys.leaves())
        .map(|leaf| {
            (0..sys.leaf_fabric(leaf).nodes())
                .map(|_| Box::new(HitStream { next: 0 }) as Box<dyn RefStream + Send>)
                .collect()
        })
        .collect()
}

/// (reads, read hits) summed over every cache in the tree.
fn read_counts(sys: &System) -> (u64, u64) {
    (0..sys.leaves())
        .flat_map(|leaf| sys.leaf_fabric(leaf).controllers())
        .fold((0, 0), |(r, h), c| {
            (r + c.stats().reads, h + c.stats().read_hits)
        })
}

#[test]
fn read_hits_through_a_depth_three_tree_allocate_nothing() {
    let mut sys = depth_three(false);
    let mut streams = hit_streams(&sys);
    // Warm-up: one lap fills every line in every cache.
    sys.run(&mut streams, HIT_READS.len() as u64);
    let (reads, hits) = read_counts(&sys);
    assert!(reads > hits, "the warm-up lap must miss");

    // A single access into a warm buffer: not one allocation.
    let paths = sys.leaf_paths();
    let mut buf = Vec::with_capacity(2 * LINE);
    for path in &paths {
        for &(addr, size) in &HIT_READS {
            buf.clear();
            let n = allocs_during(|| sys.read_into(path, 1, addr, size, &mut buf));
            assert_eq!(n, 0, "read hit at {addr:#x} via {path:?} allocated");
        }
    }

    // `run` allocates its set-up (the leaf paths, and its read buffer
    // growing to the widest read) once per call and nothing per step: one
    // lap of the streams and a hundred laps cost the same.
    let lap = HIT_READS.len() as u64;
    let one = allocs_during(|| sys.run(&mut streams, lap));
    let many = allocs_during(|| sys.run(&mut streams, 100 * lap));
    assert_eq!(one, many, "run allocated per step");

    let (reads_after, hits_after) = read_counts(&sys);
    assert_eq!(
        reads_after - reads,
        hits_after - hits,
        "every measured read was a hit"
    );
    assert!(reads_after - reads >= 101 * lap * 8);
    assert_eq!(sys.parent_errors(), []);
}

/// Write sharing over 8 lines that fall into two sets of every cache (4
/// lines per 2-way set), half the accesses writes: every access misses,
/// broadcasts, invalidates or intervenes often, and fills keep evicting
/// dirty lines.
struct SharingStream {
    rng: SmallRng,
}

impl RefStream for SharingStream {
    fn next_access(&mut self) -> Access {
        let line = self.rng.gen_range(0u64..8);
        let addr = 0x4000 + (line % 2) * LINE as u64 + (line / 2) * 0x200;
        let addr = addr + 4 * self.rng.gen_range(0u64..(LINE as u64 / 4));
        if self.rng.gen_bool(0.5) {
            Access::write(addr, 4)
        } else {
            Access::read(addr, 4)
        }
    }
}

fn sharing_stream(id: u64) -> Box<dyn RefStream + Send> {
    Box::new(SharingStream {
        rng: SmallRng::seed_from_u64(0x5EED + id),
    })
}

/// Asserts that `run(k)` allocates exactly what `run(2k)` does, after a
/// warm-up that puts every line of the working set in every memory and
/// grows every map and buffer to its steady size.
fn assert_steady(label: &str, mut run: impl FnMut(u64)) {
    run(4_000);
    let one = allocs_during(|| run(500));
    let two = allocs_during(|| run(1_000));
    assert_eq!(one, two, "{label}: a run allocated per step");
}

fn cpu_sum(stats: impl Iterator<Item = CpuStats>, field: fn(&CpuStats) -> u64) -> u64 {
    stats.map(|s| field(&s)).sum()
}

#[test]
fn steady_state_bus_transactions_allocate_nothing() {
    let mut tree = depth_three(false);
    let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..tree.leaves() as u64)
        .map(|leaf| (0..2).map(|cpu| sharing_stream(2 * leaf + cpu)).collect())
        .collect();
    assert_steady("tree", |k| tree.run(&mut streams, k));
    // Every kind of transaction ran, at every level.
    let paths = tree.leaf_paths();
    let leaf_bridges = || paths.iter().map(|p| *tree.bridge_at(p).stats());
    assert!(leaf_bridges().map(|s| s.fetches).sum::<u64>() > 0);
    assert!(
        leaf_bridges().map(|s| s.updates_in).sum::<u64>() > 0,
        "root broadcasts forwarded two levels down"
    );
    assert!(leaf_bridges().map(|s| s.invalidations_in).sum::<u64>() > 0);
    assert!(tree.bus().stats().interventions > 0);
    let caches = || {
        (0..tree.leaves()).flat_map(|leaf| {
            tree.leaf_fabric(leaf)
                .controllers()
                .iter()
                .map(|c| *c.stats())
        })
    };
    assert!(cpu_sum(caches(), |s| s.interventions_supplied) > 0);
    assert!(cpu_sum(caches(), |s| s.write_backs) > 0, "dirty victims");
    assert_eq!(tree.parent_errors(), []);

    let mut flat = (0..4)
        .fold(SystemBuilder::new(LINE), |b, _| {
            b.cache(Box::new(moesi_preferred()), cfg())
        })
        .build();
    let mut streams: [Vec<_>; 1] = [(0..4).map(sharing_stream).collect()];
    assert_steady("flat", |k| flat.run(&mut streams, k));
    let bus = flat.bus_stats();
    assert!(bus.broadcasts > 0 && bus.interventions > 0 && bus.memory_reads > 0);
    let cpus = || (0..4).map(|cpu| *flat.stats(cpu));
    assert!(cpu_sum(cpus(), |s| s.invalidations_received) > 0);
    assert!(cpu_sum(cpus(), |s| s.write_backs) > 0, "dirty victims");
}

/// The oracle-checked shape of the benchmark: 2 leaf clusters × 2 MOESI
/// caches.
fn two_by_two_checked() -> System {
    TreeBuilder::uniform(LINE, 2, 2, 1, 2, |_, _| {
        (
            Box::new(moesi_preferred()) as Box<dyn Protocol + Send>,
            Some(cfg()),
        )
    })
    .checking(true)
    .build()
}

#[test]
fn an_audited_warm_machine_allocates_nothing_per_access() {
    // Bus transactions: once every line of the working set is in the golden
    // image, every memory and every map, a checked run allocates only its
    // set-up. Debug builds also run the full differential audit after every
    // access; it reuses the oracle's line list too.
    let mut tree = two_by_two_checked();
    let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..tree.leaves() as u64)
        .map(|leaf| (0..2).map(|cpu| sharing_stream(2 * leaf + cpu)).collect())
        .collect();
    assert_steady("checked tree", |k| tree.run(&mut streams, k));
    assert!(tree.bus_stats().transactions > 0);
    tree.verify().expect("consistent");

    let mut flat = (0..4)
        .fold(SystemBuilder::new(LINE).checking(true), |b, _| {
            b.cache(Box::new(moesi_preferred()), cfg())
        })
        .build();
    let mut streams: [Vec<_>; 1] = [(0..4).map(sharing_stream).collect()];
    assert_steady("checked flat", |k| flat.run(&mut streams, k));
    assert!(flat.bus_stats().broadcasts > 0 && flat.bus_stats().interventions > 0);
    flat.verify().expect("consistent");

    // Read hits, each checked against the golden image and audited.
    let mut tree = two_by_two_checked();
    let mut streams = hit_streams(&tree);
    tree.run(&mut streams, HIT_READS.len() as u64);
    let mut buf = Vec::with_capacity(2 * LINE);
    for path in tree.leaf_paths() {
        for &(addr, size) in &HIT_READS {
            buf.clear();
            let n = allocs_during(|| tree.read_into(&path, 1, addr, size, &mut buf));
            assert_eq!(n, 0, "checked read hit at {addr:#x} via {path:?} allocated");
        }
    }
    let mut flat = (0..2)
        .fold(SystemBuilder::new(LINE).checking(true), |b, _| {
            b.cache(Box::new(moesi_preferred()), cfg())
        })
        .build();
    let mut streams: [Vec<Box<dyn RefStream + Send>>; 1] = [(0..2)
        .map(|_| Box::new(HitStream { next: 0 }) as Box<dyn RefStream + Send>)
        .collect()];
    let lap = HIT_READS.len() as u64;
    flat.run(&mut streams, lap);
    let before = *flat.stats(0);
    let one = allocs_during(|| flat.run(&mut streams, lap));
    let many = allocs_during(|| flat.run(&mut streams, 100 * lap));
    assert_eq!(one, many, "a checked flat read hit allocated");
    let after = flat.stats(0);
    assert_eq!(
        after.reads - before.reads,
        after.read_hits - before.read_hits,
        "every measured read was a hit"
    );
    assert!(after.reads - before.reads >= 101 * lap);
}

#[test]
fn a_matching_read_check_allocates_nothing() {
    let mut ck = Checker::new(LINE);
    ck.record_write(0x100, &[1, 2, 3, 4]);
    ck.record_write(0x0FC, &[9, 9, 9, 9]);
    let got = ck.golden_bytes(0x0FC, 8);
    assert_eq!(got, [9, 9, 9, 9, 1, 2, 3, 4]);
    let n = allocs_during(|| ck.check_read(0, 0x0FC, &got).expect("golden bytes match"));
    assert_eq!(n, 0);
    let err = ck.check_read(0, 0x0FC, &[0; 8]).unwrap_err();
    assert!(
        err.to_string()
            .contains("expected [9, 9, 9, 9, 1, 2, 3, 4]"),
        "{err}"
    );
}

#[test]
fn refined_decisions_that_keep_the_table_cell_allocate_nothing() {
    use BusEvent::{CacheBroadcastWrite, CacheRead, UncachedWrite};
    use LineState::{Exclusive, Invalid, Modified, Owned, Shareable};
    let local = LocalCtx {
        recency_rank: Some(0),
        ways: 2,
        line_addr: Some(0x40),
    };
    // Recently used, so Puzak keeps the update.
    let snoop = SnoopCtx {
        recency_rank: Some(0),
        ways: 2,
        line_addr: Some(0x40),
    };
    for mut p in [puzak(), hybrid()] {
        // Give Hybrid's per-line counters their first (and only) block.
        p.on_bus(Shareable, CacheBroadcastWrite, &snoop);
        p.on_local(Shareable, LocalEvent::Read, &local);
        let table = *p.table();
        let n = allocs_during(|| {
            for state in [Modified, Owned, Exclusive, Shareable, Invalid] {
                for event in [LocalEvent::Read, LocalEvent::Write] {
                    let a = p.on_local(state, event, &local);
                    assert_eq!(Some(a), table.local(state, event));
                }
            }
            // Non-broadcasts, an owner, and Hybrid's first foreign write
            // since the line's last local use.
            for (state, event) in [
                (Shareable, CacheRead),
                (Exclusive, UncachedWrite),
                (Owned, CacheBroadcastWrite),
                (Shareable, CacheBroadcastWrite),
            ] {
                let r = p.on_bus(state, event, &snoop);
                assert_eq!(
                    Some(r),
                    table.bus(state, event),
                    "{} ({state}, {event})",
                    p.name()
                );
            }
        });
        assert_eq!(n, 0, "{} allocated on a table-cell decision", p.name());
    }
}

/// Reads `len` bytes at `addr` through the buffer path, after a prefix the
/// read must leave alone, and checks the appended bytes against the oracle.
fn assert_golden_read(sys: &mut System, path: &[usize], cpu: usize, addr: u64, len: usize) {
    let mut buf = vec![0xEE; 3];
    sys.read_into(path, cpu, addr, len, &mut buf);
    assert_eq!(buf[..3], [0xEE; 3], "the read must append");
    let golden = sys.checker().expect("oracle on").golden_bytes(addr, len);
    assert_eq!(
        buf[3..],
        golden[..],
        "read {len}B at {addr:#x} via {path:?}"
    );
    assert_eq!(sys.read_at(path, cpu, addr, len), golden);
}

#[test]
fn line_crossing_reads_at_depth_three_match_the_golden_image() {
    let mut sys = depth_three(true);
    let paths = sys.leaf_paths();
    let bytes: Vec<u8> = (1..=80).collect();
    // A write spanning three lines, then partial overwrites from elsewhere.
    sys.write_at(&paths[0], 0, 0x1010, &bytes);
    sys.write_at(&paths[3], 1, 0x103C, &[0xA5; 8]);
    for (i, path) in paths.iter().enumerate() {
        for (addr, len) in [(0x1010, 80), (0x101C, 8), (0x1038, 12), (0x1000, 96)] {
            assert_golden_read(&mut sys, path, i % 2, addr, len);
        }
    }
    sys.verify().expect("consistent");
}

#[test]
fn random_reads_at_depth_three_match_the_golden_image() {
    let mut sys = depth_three(true);
    let paths = sys.leaf_paths();
    let mut rng = SmallRng::seed_from_u64(0x7EE);
    for step in 0..600u32 {
        let path = &paths[rng.gen_range(0..paths.len())];
        let cpu = rng.gen_range(0usize..2);
        let addr = 0x2000 + rng.gen_range(0u64..6 * LINE as u64);
        let len = rng.gen_range(1usize..2 * LINE);
        if rng.gen_range(0u32..3) == 0 {
            let bytes: Vec<u8> = (0..len).map(|i| (step as usize + i) as u8).collect();
            sys.write_at(path, cpu, addr, &bytes);
        } else {
            assert_golden_read(&mut sys, path, cpu, addr, len);
        }
    }
    sys.verify().expect("consistent");
}

#[test]
fn reads_from_a_degraded_cluster_match_the_golden_image() {
    let leaf = || {
        TreeSpec::leaf()
            .cache(Box::new(moesi_preferred()), cfg())
            .cache(Box::new(moesi_preferred()), cfg())
    };
    let mut sys = TreeBuilder::new(LINE)
        .child(leaf())
        .child(leaf())
        .checking(true)
        .build();
    sys.write_at(&[0], 0, 0x1000, &[5; 40]);
    sys.write_at(&[1], 1, 0x1030, &[6; 8]); // cluster 1 owns the second line
    sys.retire_bridge(0, true);
    assert!(sys.bridge(0).degraded());
    let degraded_before = sys.bridge(0).stats().degraded_accesses;
    for (addr, len) in [(0x1000, 4), (0x101C, 8), (0x1028, 16), (0x1000, 64)] {
        assert_golden_read(&mut sys, &[0], 1, addr, len);
    }
    assert!(
        sys.bridge(0).stats().degraded_accesses > degraded_before,
        "the reads went memory-direct"
    );
    sys.verify().expect("consistent");
}
