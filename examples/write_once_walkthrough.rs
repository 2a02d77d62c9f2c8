//! A bus-analyser view of the Write-Once protocol (Table 5) and its §4.3
//! adaptation: "We replace intervention with an abort (BS), followed by an
//! immediate write back ('push') to main memory; when the transaction is
//! restarted, memory is up to date and intervention is no longer required."
//!
//! Run with `cargo run --example write_once_walkthrough`.

use cache_array::CacheConfig;
use moesi::protocols::write_once;
use moesi::LineState;
use mpsim::SystemBuilder;

fn main() {
    let mut sys = SystemBuilder::new(32)
        .cache(Box::new(write_once()), CacheConfig::small())
        .cache(Box::new(write_once()), CacheConfig::small())
        .checking(true)
        .build();
    sys.enable_trace(64);
    let addr = 0x2000;

    println!("The eponymous 'write once':\n");
    sys.read(0, addr, 4);
    sys.read(1, addr, 4);
    println!(
        "  both read:              cpu0={} cpu1={}",
        sys.state_of(0, addr),
        sys.state_of(1, addr)
    );
    sys.write(0, addr, &[1; 4]);
    println!(
        "  cpu0 first write:       cpu0={} cpu1={}   <- written through, reserved (E)",
        sys.state_of(0, addr),
        sys.state_of(1, addr)
    );
    sys.write(0, addr, &[2; 4]);
    println!(
        "  cpu0 second write:      cpu0={} cpu1={}   <- silent, dirty (M)",
        sys.state_of(0, addr),
        sys.state_of(1, addr)
    );

    println!("\nNow cpu1 reads the dirty line. On the real Futurebus a cache-to-cache");
    println!("transfer cannot update memory, so Write-Once must abort and push:\n");
    let v = sys.read(1, addr, 4);
    println!(
        "  cpu1 reads {v:?}: cpu0={} cpu1={}",
        sys.state_of(0, addr),
        sys.state_of(1, addr)
    );
    assert_eq!(sys.state_of(0, addr), LineState::Shareable);
    assert_eq!(sys.stats(0).pushes, 1);

    println!("\nThe bus trace (the logic-analyser view):\n");
    for line in sys.trace().render().lines() {
        println!("  {line}");
    }
    println!("\nReading the trace bottom-up: the final READ shows `(1 aborts)` — its");
    println!("first attempt was killed by BS; the PUSH wrote cpu0's dirty line to");
    println!("memory; the retried READ was then served by memory, exactly as §4.3");
    println!("prescribes. Memory is now current:");
    sys.make_all_consistent();
    println!("  memory@{addr:#x} = {:?}", sys.memory_peek(addr, 4));
    sys.verify().expect("consistent");
}
