//! Quickstart: watch the MOESI states evolve on a two-cache Futurebus system.
//!
//! Run with `cargo run --example quickstart`.

use cache_array::CacheConfig;
use moesi::protocols::moesi_preferred;
use moesi::LineState;
use mpsim::SystemBuilder;

fn states(sys: &mpsim::System, addr: u64) -> String {
    (0..sys.nodes())
        .map(|cpu| format!("cpu{cpu}={}", sys.state_of(cpu, addr)))
        .collect::<Vec<_>>()
        .join("  ")
}

fn main() {
    let mut sys = SystemBuilder::new(32)
        .cache(Box::new(moesi_preferred()), CacheConfig::small())
        .cache(Box::new(moesi_preferred()), CacheConfig::small())
        .checking(true)
        .build();

    let addr = 0x1000;
    println!("A tour of the five MOESI states (line {addr:#x}):\n");

    println!("initially:                         {}", states(&sys, addr));

    sys.read(0, addr, 4);
    println!(
        "cpu0 reads  (miss, no sharers):    {}   <- Exclusive",
        states(&sys, addr)
    );
    assert_eq!(sys.state_of(0, addr), LineState::Exclusive);

    sys.write(0, addr, &[1, 2, 3, 4]);
    println!(
        "cpu0 writes (silent upgrade):      {}   <- Modified, no bus traffic",
        states(&sys, addr)
    );
    assert_eq!(sys.state_of(0, addr), LineState::Modified);

    let v = sys.read(1, addr, 4);
    println!(
        "cpu1 reads  (cpu0 intervenes):     {}   <- Owned supplies the data {v:?}",
        states(&sys, addr)
    );
    assert_eq!(sys.state_of(0, addr), LineState::Owned);
    assert_eq!(sys.state_of(1, addr), LineState::Shareable);

    sys.write(1, addr, &[5, 6, 7, 8]);
    println!(
        "cpu1 writes (broadcast update):    {}   <- ownership moves",
        states(&sys, addr)
    );

    let v = sys.read(0, addr, 4);
    println!(
        "cpu0 reads  (updated copy, hit):   {}   value {v:?}",
        states(&sys, addr)
    );
    assert_eq!(v, vec![5, 6, 7, 8]);

    sys.flush(1, addr);
    println!("cpu1 flushes (push + discard):     {}", states(&sys, addr));

    println!("\nPer-node statistics:");
    for cpu in 0..sys.nodes() {
        println!("  cpu{cpu}: {}", sys.stats(cpu));
    }
    println!("\n{}", sys.bus_stats());
    sys.verify().expect("consistent");
    println!("\nconsistency oracle: OK");
}
