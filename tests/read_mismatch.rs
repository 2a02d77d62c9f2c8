//! What the read path hands the oracle: a processor read that returns the
//! wrong bytes is reported by `System` as a `ReadMismatch` naming the lane,
//! the read's address and the whole access's bytes, got and expected, on a
//! flat bus and in a 2×2 tree, for a read within one line and for one that
//! crosses into the next. The oracle checks each line's piece where it
//! lands, so the report waits until the access has completed.
//!
//! The wrong bytes come from a mutant table whose Modified owner ignores a
//! cache read: it neither supplies the line nor gives up ownership, so its
//! neighbour's miss is served the stale copy in memory.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cache_array::{CacheConfig, ReplacementKind};
use moesi::{BusEvent, BusReaction, CacheKind, LineState, PolicyTable, TablePolicy};
use mpsim::hierarchy::{TreeBuilder, TreeSpec};
use mpsim::{System, SystemBuilder, Violation};

const LINE: usize = 32;

/// The preferred table with its (M, cache read) cell silenced.
fn mute_owner() -> Box<TablePolicy> {
    let mut table = PolicyTable::preferred("mute-owner", CacheKind::CopyBack);
    table.set_bus_unchecked(
        LineState::Modified,
        BusEvent::CacheRead,
        BusReaction::quiet(LineState::Modified),
    );
    Box::new(TablePolicy::new(table))
}

fn cfg() -> CacheConfig {
    CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru)
}

/// A flat bus of two mute owners.
fn flat() -> System {
    SystemBuilder::new(LINE)
        .checking(true)
        .cache(mute_owner(), cfg())
        .cache(mute_owner(), cfg())
        .build()
}

/// A 2×2 tree of mute owners; the lanes of leaf 1 are 2 and 3.
fn tree() -> System {
    let leaf = || {
        TreeSpec::leaf()
            .cache(mute_owner(), cfg())
            .cache(mute_owner(), cfg())
    };
    TreeBuilder::new(LINE)
        .checking(true)
        .child(leaf())
        .child(leaf())
        .build()
}

/// Lane `lane` of the leaf at `path` (two processors per leaf) reads `len`
/// bytes at `addr`, which must fail the read check: the panic's message,
/// and how many line pieces the reader had read once it unwound.
fn failing_read(
    sys: &mut System,
    path: &[usize],
    lane: usize,
    addr: u64,
    len: usize,
) -> (String, u64) {
    let before = sys.stats(lane).reads;
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = sys.read_at(path, lane % 2, addr, len);
    }))
    .expect_err("the read check must fire");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    (msg, sys.stats(lane).reads - before)
}

/// The message `System` panics with for `violation`.
fn message(violation: Violation) -> String {
    format!("consistency violation: {violation}")
}

/// Pins the two reports on fresh machines from `machine`: lane `reader`
/// reads what its neighbour on the leaf at `path`, lane `reader - 1`,
/// wrote — first within the line, then across its end into a line that
/// is still right.
fn pin_read_mismatches(machine: fn() -> System, path: &[usize], reader: usize) {
    let owner = (reader - 1) % 2;
    let mut sys = machine();
    sys.write_at(path, owner, 0x11C, &[0xAA; 4]);
    let (msg, pieces) = failing_read(&mut sys, path, reader, 0x11A, 6);
    assert_eq!(
        msg,
        message(Violation::ReadMismatch {
            cpu: reader,
            addr: 0x11A,
            got: vec![0; 6],
            expected: vec![0, 0, 0xAA, 0xAA, 0xAA, 0xAA],
        })
    );
    assert_eq!(pieces, 1, "a read within one line is one piece");

    let mut sys = machine();
    sys.write_at(path, owner, 0x21C, &[0xBB; 4]);
    let (msg, pieces) = failing_read(&mut sys, path, reader, 0x21C, 8);
    assert_eq!(
        msg,
        message(Violation::ReadMismatch {
            cpu: reader,
            addr: 0x21C,
            got: vec![0; 8],
            expected: vec![0xBB, 0xBB, 0xBB, 0xBB, 0, 0, 0, 0],
        })
    );
    assert_eq!(pieces, 2, "both pieces were read before the report");
    assert!(
        sys.state_of(reader, 0x220).is_valid(),
        "the line after the mismatching piece was filled"
    );
}

#[test]
fn a_flat_bus_reports_the_whole_read_against_the_golden_bytes() {
    pin_read_mismatches(flat, &[], 1);
}

#[test]
fn a_tree_reports_the_reading_lane_and_the_whole_read() {
    pin_read_mismatches(tree, &[1], 3);
}

#[test]
fn a_mismatch_after_a_matching_piece_reports_the_matching_bytes_too() {
    // The first piece is right, from the reader's own copy, and the second
    // stale: the report still carries the whole access.
    let mut sys = flat();
    sys.write(0, 0x3FC, &[0x11; 4]);
    sys.write(1, 0x400, &[0x22; 4]);
    let (msg, pieces) = failing_read(&mut sys, &[], 0, 0x3FC, 8);
    assert_eq!(
        msg,
        message(Violation::ReadMismatch {
            cpu: 0,
            addr: 0x3FC,
            got: vec![0x11, 0x11, 0x11, 0x11, 0, 0, 0, 0],
            expected: vec![0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22],
        })
    );
    assert_eq!(pieces, 2);
}
