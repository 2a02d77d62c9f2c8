//! Differential testing: every protocol — class member or adapted — must be
//! *functionally* identical. Protocols differ in traffic and states, never in
//! the values programs observe. The same deterministic workload is replayed
//! against homogeneous systems of each protocol and every read is compared.

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::{Discipline, Phase};
use moesi::protocols::by_name;
use mpsim::{System, SystemBuilder};

const LINE: usize = 32;
const CPUS: usize = 3;

const ALL_PROTOCOLS: &[&str] = &[
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

fn homogeneous(protocol: &str) -> System {
    let cfg = CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(LINE).checking(true);
    for i in 0..CPUS {
        b = b.cache(by_name(protocol, i as u64).expect("known"), cfg);
    }
    b.build()
}

/// A deterministic mixed script: (cpu, addr, write value or read marker).
fn script(seed: u64) -> Vec<(usize, u64, Option<u8>)> {
    // A simple LCG keeps the script reproducible without pulling in rand.
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..300)
        .map(|i| {
            let cpu = (next() % CPUS as u64) as usize;
            let addr = 0x1000 + (next() % 8) * LINE as u64 + (next() % 8) * 4;
            let is_write = next() % 3 == 0;
            (cpu, addr, if is_write { Some(i as u8) } else { None })
        })
        .collect()
}

/// Replays the script on `sys` and collects every read result.
fn replay(sys: &mut System, seed: u64) -> Vec<Vec<u8>> {
    let mut reads = Vec::new();
    for (cpu, addr, action) in script(seed) {
        match action {
            Some(v) => sys.write(cpu, addr, &[v; 4]),
            None => reads.push(sys.read(cpu, addr, 4)),
        }
    }
    sys.verify().expect("consistent");
    reads
}

fn observe(protocol: &str, seed: u64) -> Vec<Vec<u8>> {
    replay(&mut homogeneous(protocol), seed)
}

#[test]
fn every_protocol_observes_identical_values() {
    for seed in 0..3u64 {
        let reference = observe("moesi", seed);
        for protocol in ALL_PROTOCOLS {
            let got = observe(protocol, seed);
            assert_eq!(
                got, reference,
                "{protocol} (seed {seed}) diverged from the reference observation"
            );
        }
    }
}

#[test]
fn protocols_differ_in_traffic_but_not_in_answers() {
    // Sanity check that the differential test is not vacuous: the protocols
    // really do take different bus actions on this script.
    let mut traffic = std::collections::BTreeMap::new();
    for protocol in ["moesi", "moesi-invalidating", "illinois", "write-through"] {
        let mut sys = homogeneous(protocol);
        replay(&mut sys, 1);
        traffic.insert(protocol, sys.bus_stats().transactions);
    }
    let distinct: std::collections::BTreeSet<u64> = traffic.values().copied().collect();
    assert!(
        distinct.len() >= 3,
        "expected diverse traffic profiles, got {traffic:?}"
    );
}

#[test]
fn arbitration_policy_changes_fairness_not_values() {
    // The same script under each service discipline: the discipline decides
    // how long a master queues for the bus (the Arbitrate-phase charge),
    // never what any read observes. `replay` verifies the oracle each time.
    let run = |discipline: Discipline| {
        let mut sys = homogeneous("moesi");
        sys.fabric_mut().bus_mut().set_discipline(discipline);
        let reads = replay(&mut sys, 2);
        (reads, sys.bus_stats().phase_ns[Phase::Arbitrate as usize])
    };
    let (reference, priority_wait) = run(Discipline::Priority);
    assert_eq!(priority_wait, 0, "priority grants in the base slot");
    let mut waits = vec![priority_wait];
    for discipline in [Discipline::RoundRobin, Discipline::Fcfs] {
        let (reads, wait) = run(discipline);
        assert_eq!(reads, reference, "{discipline} changed a read");
        waits.push(wait);
    }
    assert!(
        waits[0] < waits[1] && waits[1] != waits[2] && waits[0] < waits[2],
        "the disciplines must charge different queueing: {waits:?}"
    );
}
