//! Synchronisation on top of coherence: a shared counter and a spinlock,
//! exercised by every kind of board at once. This is why the consistency
//! problem matters — §1: "If such a system is to correctly and
//! deterministically execute computations, all references to a given
//! location ... should reference the same value."
//!
//! Run with `cargo run --example shared_counter`.

use cache_array::CacheConfig;
use moesi::protocols::{berkeley, dragon, moesi_invalidating, moesi_preferred};
use mpsim::SystemBuilder;

const COUNTER: u64 = 0x1000;
const LOCK: u64 = 0x2000;
const ROUNDS: u32 = 250;

fn main() {
    let mut sys = SystemBuilder::new(32)
        .cache(Box::new(moesi_preferred()), CacheConfig::small())
        .cache(Box::new(moesi_invalidating()), CacheConfig::small())
        .cache(Box::new(berkeley()), CacheConfig::small())
        .cache(Box::new(dragon()), CacheConfig::small())
        .checking(true)
        .build();
    let cpus = sys.nodes();

    println!("— fetch-and-add: {cpus} heterogeneous boards x {ROUNDS} increments —\n");
    for round in 0..ROUNDS {
        for cpu in 0..cpus {
            let old = sys.fetch_add_u32(cpu, COUNTER, 1);
            assert_eq!(old, round * cpus as u32 + cpu as u32, "lost update!");
        }
    }
    let total = u32::from_le_bytes(sys.read(0, COUNTER, 4).try_into().unwrap());
    println!(
        "  final counter: {total} (expected {})",
        ROUNDS * cpus as u32
    );
    assert_eq!(total, ROUNDS * cpus as u32);

    println!("\n— test-and-set spinlock guarding a critical section —\n");
    let mut acquisitions = vec![0u32; cpus];
    for i in 0..200 {
        let cpu = i % cpus;
        // Spin (bounded, since the simulator is cooperative).
        let mut tries = 0;
        while sys.test_and_set(cpu, LOCK) != 0 {
            tries += 1;
            assert!(tries < 3, "the lock must always be free here");
        }
        // Critical section: read-modify-write without atomics is now safe.
        let v = sys.read(cpu, COUNTER, 4);
        let n = u32::from_le_bytes(v.try_into().unwrap()) + 1;
        sys.write(cpu, COUNTER, &n.to_le_bytes());
        acquisitions[cpu] += 1;
        sys.clear_lock(cpu, LOCK);
    }
    let total2 = u32::from_le_bytes(sys.read(1, COUNTER, 4).try_into().unwrap());
    println!("  lock acquisitions per board: {acquisitions:?}");
    println!(
        "  final counter: {total2} (expected {})",
        ROUNDS * cpus as u32 + 200
    );
    assert_eq!(total2, ROUNDS * cpus as u32 + 200);

    println!("\n— what the coherence traffic looked like —\n");
    for cpu in 0..cpus {
        println!("  {:<22} {}", sys.controller(cpu).name(), sys.stats(cpu));
    }
    println!("\n{}", sys.bus_stats());
    sys.verify().expect("consistent");
    println!("\nconsistency oracle: OK — no lost updates across 4 different protocols");
}
