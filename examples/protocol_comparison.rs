//! The §5.2 comparison: update versus invalidate, across all protocols.
//!
//! For each protocol, an identical homogeneous 4-processor system runs the
//! same sharing workloads; we report bus transactions, bus time, misses and
//! coherence events — the Archibald & Baer-style comparison the paper's
//! protocol preference rests on.
//!
//! Run with `cargo run --example protocol_comparison`.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::by_name;
use mpsim::workload::{DuboisBriggs, PingPong, ReadMostly, SharingModel};
use mpsim::{RefStream, System, SystemBuilder};

const LINE: usize = 32;
const CPUS: usize = 4;
const STEPS: u64 = 1_500;

const PROTOCOLS: &[&str] = &[
    "moesi",
    "moesi-invalidating",
    "puzak",
    "berkeley",
    "dragon",
    "write-once",
    "illinois",
    "firefly",
    "synapse",
    "write-through",
];

fn build(protocol: &str) -> System {
    let cfg = CacheConfig::new(4096, LINE, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(LINE).checking(true);
    for i in 0..CPUS {
        b = b.cache(by_name(protocol, 100 + i as u64).expect("known"), cfg);
    }
    b.build()
}

fn streams(kind: &str) -> Vec<Box<dyn RefStream + Send>> {
    (0..CPUS)
        .map(|cpu| -> Box<dyn RefStream + Send> {
            match kind {
                "ping-pong" => Box::new(PingPong::new(cpu, 0, LINE as u64)),
                "read-mostly" => Box::new(ReadMostly::new(cpu, 0, 16, LINE as u64, 8)),
                _ => Box::new(DuboisBriggs::new(
                    cpu,
                    SharingModel {
                        line_size: LINE as u64,
                        ..SharingModel::default()
                    },
                    7,
                )),
            }
        })
        .collect()
}

fn main() {
    for workload in ["general (Dubois-Briggs)", "ping-pong", "read-mostly"] {
        let key = workload.split(' ').next().unwrap_or(workload);
        println!("== workload: {workload} ({CPUS} CPUs x {STEPS} steps) ==");
        println!(
            "{:<20} {:>7} {:>9} {:>11} {:>8} {:>8} {:>8} {:>7}",
            "protocol", "hit%", "bus txns", "bus us", "inval", "update", "interv", "aborts"
        );
        for name in PROTOCOLS {
            let mut sys = build(name);
            sys.run(&mut [streams(key)], STEPS);
            sys.verify().expect("consistent");
            let t = sys.total_stats();
            let b = sys.bus_stats();
            println!(
                "{:<20} {:>6.1}% {:>9} {:>11.1} {:>8} {:>8} {:>8} {:>7}",
                name,
                t.hit_ratio() * 100.0,
                b.transactions,
                b.busy_ns as f64 / 1000.0,
                t.invalidations_received,
                t.updates_received,
                b.interventions,
                b.aborts,
            );
        }
        println!();
    }
    println!("Reading the table:");
    println!(" * On ping-pong sharing, update protocols (moesi, dragon, firefly) keep");
    println!("   every copy alive: zero re-miss traffic, at the price of a broadcast per write.");
    println!(" * Invalidation protocols (moesi-invalidating, berkeley, illinois, write-once)");
    println!("   pay a re-fetch per migration of the written line.");
    println!(" * write-once/illinois/firefly pay BS abort+push whenever dirty data is snooped,");
    println!("   because the Futurebus cannot update memory during intervention (§4.3-4.5).");
}
