//! The §3.4 compatibility claim, live: seven nodes running seven different
//! members of the compatible class — including one that picks a *random*
//! permitted action on every event — share one bus under a randomized
//! workload while the consistency oracle audits every access.
//!
//! Run with `cargo run --example mixed_protocols`.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{
    berkeley, dragon, moesi_invalidating, moesi_preferred, non_caching, puzak, random,
    write_through,
};
use moesi::CacheKind;
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, SystemBuilder};

fn main() {
    let line_size = 32;
    let cfg = CacheConfig::new(2048, line_size, 2, ReplacementKind::Lru);

    let mut sys = SystemBuilder::new(line_size)
        .cache(Box::new(moesi_preferred()), cfg)
        .cache(Box::new(moesi_invalidating()), cfg)
        .cache(Box::new(berkeley()), cfg)
        .cache(Box::new(dragon()), cfg)
        .cache(Box::new(puzak()), cfg)
        .cache(Box::new(write_through()), cfg)
        .cache(Box::new(random(CacheKind::CopyBack, 0xC0FFEE)), cfg)
        .uncached(Box::new(non_caching()))
        .checking(true)
        .build();

    let model = SharingModel {
        shared_lines: 8,
        private_lines: 32,
        p_shared: 0.4,
        p_write: 0.3,
        p_rereference: 0.3,
        line_size: line_size as u64,
    };
    let streams: Vec<Box<dyn RefStream + Send>> = (0..sys.nodes())
        .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, 42)) as Box<dyn RefStream + Send>)
        .collect();

    let steps = 2_000;
    println!(
        "Running {} accesses across {} heterogeneous nodes (oracle on)...\n",
        steps * sys.nodes(),
        sys.nodes()
    );
    sys.run(&mut [streams], steps as u64);
    sys.verify().expect("the class is compatible");

    println!(
        "{:<22} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "node", "refs", "hit%", "bus txns", "inv-recv", "upd-recv", "interv"
    );
    for cpu in 0..sys.nodes() {
        let s = sys.stats(cpu);
        println!(
            "{:<22} {:>8} {:>7.1}% {:>9} {:>9} {:>9} {:>8}",
            sys.controller(cpu).name(),
            s.references(),
            s.hit_ratio() * 100.0,
            s.bus_transactions,
            s.invalidations_received,
            s.updates_received,
            s.interventions_supplied,
        );
    }
    println!("\n{}", sys.bus_stats());
    println!("\nconsistency oracle: OK — every access returned the globally last-written value");
}
