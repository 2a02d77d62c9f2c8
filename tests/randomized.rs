//! Randomized whole-stack properties: random operation sequences against
//! mixed-protocol flat machines and §6 hierarchies must preserve the shared
//! memory image, a hierarchy must be observationally identical to a flat
//! machine, and the pure layers must uphold their structural invariants
//! under arbitrary inputs. Inputs come from the in-tree
//! `moesi::rng::SmallRng` with fixed seeds, so every case is reproducible.

use cache_array::{split_line_crossers, CacheConfig, ReplacementKind};
use moesi::protocols::{
    berkeley, dragon, moesi_invalidating, moesi_preferred, non_caching, puzak, random,
    write_through,
};
use moesi::rng::SmallRng;
use moesi::{table, BusEvent, CacheKind, LineState, LocalEvent, Protocol};
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::{System, SystemBuilder};

const LINE: usize = 32;

/// One scripted operation against the system.
#[derive(Clone, Debug)]
enum Op {
    Read {
        cpu: usize,
        line: u64,
        offset: u64,
        len: usize,
    },
    Write {
        cpu: usize,
        line: u64,
        offset: u64,
        val: u8,
        len: usize,
    },
    Flush {
        cpu: usize,
        line: u64,
    },
    Pass {
        cpu: usize,
        line: u64,
    },
}

fn random_op(rng: &mut SmallRng, cpus: usize, lines: u64) -> Op {
    let cpu = rng.gen_range(0..cpus);
    let line = rng.gen_range(0u64..lines);
    match rng.gen_range(0u32..4) {
        0 => Op::Read {
            cpu,
            line,
            offset: rng.gen_range(0u64..7) * 4,
            len: rng.gen_range(1usize..5),
        },
        1 => Op::Write {
            cpu,
            line,
            offset: rng.gen_range(0u64..7) * 4,
            val: rng.gen_range(0u32..256) as u8,
            len: rng.gen_range(1usize..5),
        },
        2 => Op::Flush { cpu, line },
        _ => Op::Pass { cpu, line },
    }
}

fn apply(sys: &mut System, op: &Op) {
    let base = 0x1000;
    match *op {
        Op::Read {
            cpu,
            line,
            offset,
            len,
        } => {
            let _ = sys.read(cpu, base + line * LINE as u64 + offset, len);
        }
        Op::Write {
            cpu,
            line,
            offset,
            val,
            len,
        } => {
            sys.write(cpu, base + line * LINE as u64 + offset, &vec![val; len]);
        }
        Op::Flush { cpu, line } => {
            sys.flush(cpu, base + line * LINE as u64);
        }
        Op::Pass { cpu, line } => {
            sys.pass(cpu, base + line * LINE as u64);
        }
    }
}

fn cfg() -> CacheConfig {
    CacheConfig::new(512, LINE, 2, ReplacementKind::Lru)
}

fn mixed_system(seed: u64) -> System {
    // Small caches force evictions; the checker is on, so every operation is
    // audited and reads are compared against the golden image.
    SystemBuilder::new(LINE)
        .checking(true)
        .seed(seed)
        .cache(Box::new(moesi_preferred()), cfg())
        .cache(Box::new(moesi_invalidating()), cfg())
        .cache(Box::new(berkeley()), cfg())
        .cache(Box::new(dragon()), cfg())
        .cache(Box::new(puzak()), cfg())
        .cache(Box::new(write_through()), cfg())
        .cache(Box::new(random(CacheKind::CopyBack, seed)), cfg())
        .uncached(Box::new(non_caching()))
        .build()
}

#[test]
fn random_op_sequences_preserve_consistency() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_mul(0x9E37_79B9));
        let mut sys = mixed_system(rng.next_u64() % 1000);
        let steps = rng.gen_range(1usize..120);
        for _ in 0..steps {
            let op = random_op(&mut rng, 8, 6);
            apply(&mut sys, &op); // panics (fails the test) on any violation
        }
        assert!(sys.verify().is_ok());
    }
}

#[test]
fn last_write_wins_for_every_reader() {
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_add(7));
        let mut sys = mixed_system(1);
        let addr = 0x1000;
        let mut last = None;
        for _ in 0..rng.gen_range(1usize..40) {
            let cpu = rng.gen_range(0usize..4);
            let val = rng.gen_range(0u32..256) as u8;
            sys.write(cpu, addr, &[val; 4]);
            last = Some(val);
        }
        let expected = vec![last.expect("non-empty"); 4];
        for cpu in 0..sys.nodes() {
            assert_eq!(sys.read(cpu, addr, 4), expected);
        }
    }
}

#[test]
fn line_crosser_pieces_partition_any_access() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..500 {
        let addr = rng.gen_range(0u64..10_000);
        let size = rng.gen_range(0usize..400);
        let line = 1usize << rng.gen_range(3u32..9);
        let pieces: Vec<_> = split_line_crossers(addr, size, line).collect();
        let total: usize = pieces.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, size);
        let mut cursor = addr;
        for (a, l) in pieces {
            assert_eq!(a, cursor);
            assert!(l > 0);
            // Each piece fits within one line.
            assert_eq!(a / line as u64, (a + l as u64 - 1) / line as u64);
            cursor += l as u64;
        }
    }
}

#[test]
fn permitted_bus_results_never_create_second_owners_from_nothing() {
    for state in LineState::ALL {
        for event in BusEvent::ALL {
            for ch in [false, true] {
                for reaction in table::permitted_bus(state, event) {
                    if reaction.busy.is_some() {
                        continue;
                    }
                    let result = reaction.result.resolve(ch);
                    // Ownership cannot be conjured by snooping.
                    if !state.is_owned() {
                        assert!(!result.is_owned(), "({state}, {event}): {reaction}");
                    }
                    // Validity cannot be conjured by snooping either.
                    if !state.is_valid() {
                        assert!(!result.is_valid(), "({state}, {event}): {reaction}");
                    }
                }
            }
        }
    }
}

#[test]
fn permitted_local_never_silently_modifies_shared_data() {
    for state in LineState::ALL {
        for kind in CacheKind::ALL {
            for action in table::permitted_local(state, LocalEvent::Write, kind) {
                if state.is_non_exclusive() {
                    assert!(
                        action.bus_op.uses_bus(),
                        "silent write to non-exclusive {state} under {kind:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn random_policy_is_always_in_class() {
    let mut rng = SmallRng::seed_from_u64(0xFACE);
    for _ in 0..16 {
        let seed = rng.next_u64();
        for kind in CacheKind::ALL {
            let mut p = random(kind, seed);
            let report = moesi::compat::check_protocol(&mut p);
            assert!(report.is_class_member(), "{report}");
        }
    }
}

#[test]
fn sector_cache_valid_subsectors_never_exceed_capacity() {
    use cache_array::SectorCache;
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..40 {
        let mut sc: SectorCache<u8> = SectorCache::new(4, 64, 16);
        for _ in 0..rng.gen_range(1usize..80) {
            let addr = rng.gen_range(0u64..2_048);
            let state = rng.gen_range(0usize..3);
            sc.install(addr * 4, state as u8);
            assert!(sc.valid_subsectors() <= 4 * 4);
        }
    }
}

/// The hierarchy tests' protocol mix, cycling by node index.
fn protocol(k: usize) -> Box<dyn Protocol + Send> {
    match k % 4 {
        0 => Box::new(moesi_preferred()),
        1 => Box::new(moesi_invalidating()),
        2 => Box::new(dragon()),
        _ => Box::new(write_through()),
    }
}

/// A depth-3 fabric tree (2 root subtrees x 2 leaf clusters x 2 caches),
/// protocols cycling, with the bridges' inclusion snoop filters on or off.
fn deep_tree(filter: bool) -> System {
    let mut k = 0usize;
    TreeBuilder::uniform(LINE, 2, 3, 2, 2, |_, _| {
        let p = protocol(k);
        k += 1;
        (p, Some(cfg()))
    })
    .snoop_filter(filter)
    .checking(true)
    .build()
}

/// A two-level hierarchy of `shape[c]` nodes per cluster, protocols cycling.
fn hierarchy(shape: &[usize]) -> System {
    let mut b = TreeBuilder::new(LINE).checking(true);
    let mut k = 0;
    for &nodes in shape {
        let mut leaf = TreeSpec::leaf();
        for _ in 0..nodes {
            leaf = leaf.cache(protocol(k), cfg());
            k += 1;
        }
        b = b.child(leaf);
    }
    b.build()
}

/// A flat machine with the same nodes as `hierarchy(shape)`, in order.
fn flat(shape: &[usize]) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true);
    for k in 0..shape.iter().sum() {
        b = b.cache(protocol(k), cfg());
    }
    b.build()
}

/// Maps a flat node index to (cluster, cpu) under `shape`.
fn locate(shape: &[usize], node: usize) -> (usize, usize) {
    let mut remaining = node;
    for (cluster, &n) in shape.iter().enumerate() {
        if remaining < n {
            return (cluster, remaining);
        }
        remaining -= n;
    }
    unreachable!("node index within total");
}

/// One random hierarchy operation: a 4-byte write of a random value or a
/// 4-byte read, on one of 6 lines.
struct NodeOp {
    node: usize,
    addr: u64,
    write: Option<u8>,
}

fn random_node_op(rng: &mut SmallRng, nodes: usize) -> NodeOp {
    NodeOp {
        node: rng.gen_range(0..nodes),
        addr: 0x1000 + rng.gen_range(0u64..6) * LINE as u64 + rng.gen_range(0u64..7) * 4,
        write: rng.gen_bool(0.5).then(|| rng.gen_range(0u32..256) as u8),
    }
}

#[test]
fn hierarchy_and_flat_machine_observe_identical_values() {
    for case in 0..16u64 {
        let shape: &[usize] = [&[2, 2][..], &[1, 3], &[2, 1, 1]][case as usize % 3];
        let mut rng = SmallRng::seed_from_u64(case.wrapping_mul(0xA11C));
        let mut hier = hierarchy(shape);
        let mut plain = flat(shape);
        for _ in 0..rng.gen_range(1usize..80) {
            let op = random_node_op(&mut rng, 4);
            let (cluster, cpu) = locate(shape, op.node);
            match op.write {
                Some(v) => {
                    hier.write_at(&[cluster], cpu, op.addr, &[v; 4]);
                    plain.write(op.node, op.addr, &[v; 4]);
                }
                None => {
                    let h = hier.read_at(&[cluster], cpu, op.addr, 4);
                    let f = plain.read(op.node, op.addr, 4);
                    assert_eq!(h, f, "{shape:?}: divergence at {:#x}", op.addr);
                }
            }
        }
        assert!(hier.verify().is_ok(), "{shape:?}");
        assert!(plain.verify().is_ok(), "{shape:?}");
    }
}

#[test]
fn random_ops_with_global_sync_stay_consistent() {
    let shape = &[2usize, 2];
    for case in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_add(0x5C));
        let sync_every = rng.gen_range(5usize..20);
        let mut sys = hierarchy(shape);
        for i in 0..rng.gen_range(1usize..80) {
            let op = random_node_op(&mut rng, 4);
            let (cluster, cpu) = locate(shape, op.node);
            match op.write {
                Some(v) => sys.write_at(&[cluster], cpu, op.addr, &[v; 4]),
                None => {
                    let _ = sys.read_at(&[cluster], cpu, op.addr, 4);
                }
            }
            if i % sync_every == 0 {
                sys.make_all_consistent();
            }
        }
        assert!(sys.verify().is_ok());
    }
}

#[test]
fn hierarchy_survives_eviction_pressure() {
    // Tiny caches force evictions inside clusters; write-backs land in the
    // mirror, ownership stays at cluster level, and everything stays golden.
    let shape = &[2usize, 2];
    let mut sys = hierarchy(shape);
    for i in 0..120u32 {
        let (cluster, cpu) = locate(shape, (i % 4) as usize);
        let addr = 0x1000 + u64::from(i % 24) * LINE as u64;
        if i % 3 == 0 {
            sys.write_at(&[cluster], cpu, addr, &i.to_le_bytes());
        } else {
            let _ = sys.read_at(&[cluster], cpu, addr, 4);
        }
    }
    sys.verify().expect("consistent under eviction pressure");
}

#[test]
fn deep_tree_snoop_filter_is_invisible_and_inclusion_holds() {
    // The same random program runs on two depth-3 trees differing only in
    // the snoop filter: every read must observe identical bytes, and both
    // trees must pass the inclusion audit (`verify` rejects any copy cached
    // below an Invalid bridge tag).
    for case in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_mul(0xD1FF));
        let mut filtered = deep_tree(true);
        let mut flooded = deep_tree(false);
        let paths = filtered.leaf_paths();
        for _ in 0..rng.gen_range(1usize..80) {
            let node = rng.gen_range(0usize..8);
            let (leaf, cpu) = (node / 2, node % 2);
            let addr = 0x1000 + rng.gen_range(0u64..6) * LINE as u64 + rng.gen_range(0u64..7) * 4;
            if rng.gen_range(0u32..2) == 0 {
                let v = rng.gen_range(0u32..256) as u8;
                filtered.write_at(&paths[leaf], cpu, addr, &[v; 4]);
                flooded.write_at(&paths[leaf], cpu, addr, &[v; 4]);
            } else {
                let a = filtered.read_at(&paths[leaf], cpu, addr, 4);
                let b = flooded.read_at(&paths[leaf], cpu, addr, 4);
                assert_eq!(a, b, "snoop filter changed a read at {addr:#x}");
            }
        }
        assert!(
            filtered.verify().is_ok(),
            "inclusion violated with filter on"
        );
        assert!(
            flooded.verify().is_ok(),
            "inclusion violated with filter off"
        );
        // Every bridge's ledger conserves: a snoop is forwarded or
        // suppressed, never both, never dropped.
        for (sys, filter) in [(&filtered, true), (&flooded, false)] {
            for bridge in sys.bridges_preorder() {
                let s = bridge.stats();
                assert_eq!(
                    s.forwarded + s.suppressed,
                    s.snooped,
                    "ledger leaked a snoop"
                );
                assert!(s.filter_hits <= s.forwarded);
                if !filter {
                    assert_eq!(s.suppressed, 0, "disabled filter must forward everything");
                }
            }
        }
    }
}
