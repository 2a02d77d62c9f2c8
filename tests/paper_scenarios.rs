//! Scripted walk-throughs of the behaviours §3.3 enumerates, items 1–8,
//! plus the ownership-transfer chains the state model implies.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{moesi_invalidating, moesi_preferred, non_caching, write_through};
use moesi::LineState::{Exclusive, Invalid, Modified, Owned, Shareable};
use mpsim::{System, SystemBuilder};

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru)
}

fn moesi_system(n: usize) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true);
    for _ in 0..n {
        b = b.cache(Box::new(moesi_preferred()), cfg());
    }
    b.build()
}

// §3.3 item 1: "A cache with a read miss places the data in S or E states
// depending on whether anyone else has that information in its local cache
// (via CH)."
#[test]
fn item1_read_miss_chooses_s_or_e_via_ch() {
    let mut sys = moesi_system(3);
    sys.read(0, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Exclusive, "no CH: E");
    sys.read(1, 0x100, 4);
    assert_eq!(sys.state_of(1, 0x100), Shareable, "CH from cpu0: S");
    assert_eq!(sys.state_of(0, 0x100), Shareable, "cpu0 demotes E->S");
    sys.read(2, 0x100, 4);
    assert_eq!(sys.state_of(2, 0x100), Shareable);
}

// §3.3 item 2: a writer to O/S data either broadcasts (remaining O or going
// M by CH) or invalidates and goes M.
#[test]
fn item2_shared_write_broadcast_or_invalidate() {
    // Broadcast flavour.
    let mut sys = moesi_system(2);
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4);
    sys.write(0, 0x100, &[1; 4]);
    assert_eq!(sys.state_of(0, 0x100), Owned, "CH seen -> O");
    assert_eq!(sys.state_of(1, 0x100), Shareable);

    // Invalidate flavour.
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(moesi_invalidating()), cfg())
        .cache(Box::new(moesi_invalidating()), cfg())
        .build();
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4);
    sys.write(0, 0x100, &[1; 4]);
    assert_eq!(sys.state_of(0, 0x100), Modified);
    assert_eq!(sys.state_of(1, 0x100), Invalid);
}

// §3.3 item 2 corner: a broadcaster whose sharers all vanished goes M.
#[test]
fn item2_broadcast_with_no_listeners_goes_m() {
    let mut sys = moesi_system(2);
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4); // both S
    sys.flush(1, 0x100); // sharer evicts silently
    sys.write(0, 0x100, &[2; 4]); // broadcast, but no CH comes back
    assert_eq!(sys.state_of(0, 0x100), Modified);
}

// §3.3 item 3: a write miss is one RWITM transaction (or Read>Write).
#[test]
fn item3_write_miss_invalidates_in_one_transaction() {
    let mut sys = moesi_system(3);
    sys.read(1, 0x100, 4);
    sys.read(2, 0x100, 4);
    let txns_before = sys.bus_stats().transactions;
    sys.write(0, 0x100, &[3; 4]);
    assert_eq!(sys.bus_stats().transactions - txns_before, 1, "one RWITM");
    assert_eq!(sys.state_of(0, 0x100), Modified);
    assert_eq!(sys.state_of(1, 0x100), Invalid);
    assert_eq!(sys.state_of(2, 0x100), Invalid);
}

// §3.3 item 4: an intervenient cache supplies on read miss, captures
// non-caching writes, relinquishes on broadcast writes, and supplies +
// invalidates on write misses.
#[test]
fn item4_intervenient_duties() {
    // Supply on read miss.
    let mut sys = moesi_system(2);
    sys.write(0, 0x100, &[4; 4]);
    assert_eq!(sys.state_of(0, 0x100), Modified);
    let before = sys.bus_stats().memory_reads;
    assert_eq!(sys.read(1, 0x100, 4), vec![4; 4]);
    assert_eq!(sys.bus_stats().memory_reads, before, "memory preempted");
    assert_eq!(sys.state_of(0, 0x100), Owned);

    // Supply and invalidate on a write miss elsewhere.
    let mut sys = moesi_system(2);
    sys.write(0, 0x100, &[5; 4]);
    sys.write(1, 0x100, &[6; 4]); // RWITM
    assert_eq!(sys.state_of(0, 0x100), Invalid);
    assert_eq!(sys.state_of(1, 0x100), Modified);
    assert_eq!(sys.read(1, 0x100, 4), vec![6; 4]);
}

// §3.3 item 5: non-intervenient snoopers demote to S on reads, invalidate on
// non-broadcast writes.
#[test]
fn item5_non_intervenient_reactions() {
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(moesi_preferred()), cfg())
        .uncached(Box::new(non_caching()))
        .build();
    sys.read(0, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Exclusive);
    // Uncached read: E holder remains E (col 7).
    sys.read(1, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Exclusive);
    // Uncached write: E holder must invalidate (col 9).
    sys.write(1, 0x100, &[9; 4]);
    assert_eq!(sys.state_of(0, 0x100), Invalid);
    assert_eq!(sys.read(0, 0x100, 4), vec![9; 4]);
}

// §3.3 items 6-8: write-through cache behaviour.
#[test]
fn items6_to_8_write_through() {
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(write_through()), cfg())
        .cache(Box::new(moesi_preferred()), cfg())
        .build();
    // Item 7: read miss asserts CA and enters V(=S).
    sys.read(0, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    // Item 6: every write goes through the bus.
    let before = sys.bus_stats().writes;
    sys.write(0, 0x100, &[1; 4]);
    sys.write(0, 0x100, &[2; 4]);
    assert_eq!(sys.bus_stats().writes - before, 2);
    // Memory is current: a cold copy-back read gets it from memory.
    assert_eq!(sys.read(1, 0x100, 4), vec![2; 4]);
    // Item 8 (update flavour): cpu1 holds the line S, so its write is a
    // broadcast (col 8) and the V copy may update itself instead of dying.
    sys.write(1, 0x104, &[3; 4]);
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    assert_eq!(sys.read(0, 0x104, 4), vec![3; 4]);
}

// §3.3 item 8 (invalidate flavour): "On a non-broadcast write (cols. 6, 9),
// it must become invalid, since it is not capable of intervention or
// ownership."
#[test]
fn item8_non_broadcast_write_kills_the_v_copy() {
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(write_through()), cfg())
        .cache(Box::new(moesi_invalidating()), cfg())
        .build();
    sys.read(0, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    // The invalidating peer write-misses: RWITM, column 6.
    sys.write(1, 0x104, &[3; 4]);
    assert_eq!(sys.state_of(0, 0x100), Invalid);
    assert_eq!(
        sys.read(0, 0x104, 4),
        vec![3; 4],
        "re-fetched after invalidate"
    );
}

// Ownership transfer chain: M -> O -> (new writer) -> ... the line's owner
// is always unique and always holds the latest data.
#[test]
fn ownership_migrates_cleanly_around_the_ring() {
    let mut sys = moesi_system(4);
    let addr = 0x200;
    for round in 0..12u32 {
        let writer = (round as usize) % 4;
        sys.write(writer, addr, &round.to_le_bytes());
        // Everyone reads; all copies converge to the new value.
        for reader in 0..4 {
            assert_eq!(sys.read(reader, addr, 4), round.to_le_bytes().to_vec());
        }
        let owners = (0..4).filter(|&c| sys.state_of(c, addr).is_owned()).count();
        assert!(owners <= 1, "round {round}: {owners} owners");
    }
}

// Pass (note 3) makes memory current while retaining the copy; a subsequent
// eviction of the now-clean line is silent.
#[test]
fn pass_cleans_the_line() {
    let mut sys = moesi_system(2);
    sys.write(0, 0x100, &[7; 4]);
    let wb_before = sys.bus_stats().writes;
    assert!(sys.pass(0, 0x100));
    assert_eq!(sys.bus_stats().writes, wb_before + 1);
    assert_eq!(sys.state_of(0, 0x100), Exclusive);
    // Flushing an E line is silent: no further bus write.
    let wb = sys.bus_stats().writes;
    sys.flush(0, 0x100);
    assert_eq!(sys.bus_stats().writes, wb);
    // And memory serves the next reader correctly.
    assert_eq!(sys.read(1, 0x100, 4), vec![7; 4]);
}

// An O owner's eviction write-back leaves the remaining S copies consistent
// with (now-current) memory.
#[test]
fn owner_eviction_leaves_sharers_valid() {
    let mut sys = moesi_system(2);
    sys.write(0, 0x000, &[1; 4]);
    sys.read(1, 0x000, 4); // cpu0: O, cpu1: S
    assert_eq!(sys.state_of(0, 0x000), Owned);
    sys.flush(0, 0x000); // push + discard
    assert_eq!(sys.state_of(0, 0x000), Invalid);
    assert_eq!(sys.state_of(1, 0x000), Shareable);
    assert_eq!(sys.read(1, 0x000, 4), vec![1; 4]);
    sys.verify().expect("consistent");
}

// Line crossers (§5.1): a misaligned write spans two lines owned by two
// different caches.
#[test]
fn line_crosser_spanning_two_owners() {
    let mut sys = moesi_system(3);
    sys.write(0, 0x0E0, &[1; 4]); // cpu0 owns line 0x0E0
    sys.write(1, 0x100, &[2; 4]); // cpu1 owns line 0x100
                                  // cpu2 writes 8 bytes straddling the boundary at 0x100.
    let bytes: Vec<u8> = (10..18).collect();
    sys.write(2, 0x0FC, &bytes);
    assert_eq!(sys.read(0, 0x0FC, 8), bytes);
    assert_eq!(sys.read(1, 0x0FC, 8), bytes);
    sys.verify().expect("consistent");
}
