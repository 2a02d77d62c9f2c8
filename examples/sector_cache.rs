//! §5.1's sector-cache conclusion, demonstrated: "Consistency status also
//! appears to be necessarily associated with the transfer subsector, rather
//! than the address sector."
//!
//! Run with `cargo run --example sector_cache`.

use cache_array::{SectorCache, SectorProbe};
use moesi::LineState;

fn main() {
    // One address sector = 64 bytes tagged once; transfer subsector = 16
    // bytes, each carrying its own MOESI state.
    let mut cache: SectorCache<LineState> = SectorCache::new(4, 64, 16);
    println!("Sector cache: 4 frames x 64B address sectors, 16B transfer subsectors\n");

    println!("A read miss loads just one subsector of a sector:");
    assert_eq!(cache.probe(0x100), SectorProbe::SectorMiss);
    cache.install(0x100, LineState::Exclusive);
    println!(
        "  0x100 -> {:?}, state {:?}",
        cache.probe(0x100),
        cache.state_of(0x100)
    );
    println!(
        "  0x110 (same sector, next subsector) -> {:?}  <- only the subsector misses",
        cache.probe(0x110)
    );
    cache.install(0x110, LineState::Exclusive);
    cache.install(0x120, LineState::Exclusive);
    println!("  loaded 3 of 4 subsectors; tag storage paid once\n");

    println!("Now another cache write-misses the middle subsector. If consistency");
    println!("status lived on the address sector, the WHOLE 64 bytes would die.");
    println!("Attached to the transfer subsector, only 16 bytes do:");
    let invalidated = cache.invalidate_subsector(0x110);
    println!("  snooped invalidate @0x110: dropped state {invalidated:?}");
    println!("  0x100 -> {:?} (still valid)", cache.probe(0x100));
    println!("  0x110 -> {:?}", cache.probe(0x110));
    println!("  0x120 -> {:?} (still valid)", cache.probe(0x120));
    println!(
        "  valid subsectors remaining: {}\n",
        cache.valid_subsectors()
    );

    println!("The line-crosser rule (§5.1) applies at subsector granularity too:");
    let pieces: Vec<_> =
        cache_array::split_line_crossers(0x10C, 8, cache.subsector_size()).collect();
    println!("  an 8B access at 0x10C splits into {pieces:?}");
    println!("  -> one bus transaction per transfer subsector touched.\n");

    println!("What §5.1 leaves open — and this model makes concrete — is WHICH sizes");
    println!("must be standardised: the transfer subsector must match the system line");
    println!("size (it is the coherence unit); the address sector size is a private");
    println!("tag-cost/coverage trade-off each board may choose for itself.");
}
