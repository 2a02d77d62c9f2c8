//! Homogeneous systems of the adapted protocols (Write-Once, Illinois,
//! Firefly, §4.3–4.5): each relies on the BS abort-push-restart mechanism and
//! must keep its own invariants — notably that their S/E states are
//! consistent with main memory, which plain MOESI does not promise.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::by_name;
use moesi::LineState::{Exclusive, Invalid, Modified, Shareable};
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, System, SystemBuilder};

const LINE: usize = 32;

fn homogeneous(protocol: &str, n: usize) -> System {
    let cfg = CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(LINE).checking(true);
    for i in 0..n {
        b = b.cache(by_name(protocol, i as u64).expect("known"), cfg);
    }
    b.build()
}

fn drive(sys: &mut System, steps: u64, seed: u64) {
    let model = SharingModel {
        shared_lines: 6,
        private_lines: 24,
        p_shared: 0.5,
        p_write: 0.4,
        p_rereference: 0.3,
        line_size: LINE as u64,
    };
    let streams: Vec<Box<dyn RefStream + Send>> = (0..sys.nodes())
        .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, seed)) as _)
        .collect();
    sys.run(&mut [streams], steps);
    sys.verify()
        .expect("homogeneous adapted system must be consistent");
}

#[test]
fn write_once_first_write_goes_through_then_silently() {
    let mut sys = homogeneous("write-once", 2);
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4); // both S
    let w_before = sys.bus_stats().writes;
    sys.write(0, 0x100, &[1; 4]); // the eponymous write-once
    assert_eq!(sys.bus_stats().writes, w_before + 1, "written through");
    assert_eq!(sys.state_of(0, 0x100), Exclusive, "reserved");
    assert_eq!(sys.state_of(1, 0x100), Invalid, "invalidated by CA,IM");
    // Memory is current after the write-through: verify via a fresh reader.
    let txns = sys.bus_stats().writes;
    sys.write(0, 0x100, &[2; 4]); // second write: silent, E -> M
    assert_eq!(sys.bus_stats().writes, txns);
    assert_eq!(sys.state_of(0, 0x100), Modified);
}

#[test]
fn write_once_dirty_read_aborts_pushes_and_restarts() {
    let mut sys = homogeneous("write-once", 2);
    sys.write(0, 0x100, &[3; 4]); // M at cpu0 (RWITM)
    assert_eq!(sys.state_of(0, 0x100), Modified);
    let v = sys.read(1, 0x100, 4);
    assert_eq!(v, vec![3; 4]);
    // The abort-push-retry leaves both S and memory current.
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    assert_eq!(sys.state_of(1, 0x100), Shareable);
    assert_eq!(sys.bus_stats().aborts, 1);
    assert_eq!(sys.bus_stats().pushes, 1);
    assert_eq!(sys.stats(0).pushes, 1);
    assert_eq!(sys.stats(1).aborts_suffered, 1);
}

#[test]
fn illinois_write_miss_on_dirty_line_pushes_too() {
    let mut sys = homogeneous("illinois", 2);
    sys.write(0, 0x100, &[4; 4]);
    sys.write(1, 0x100, &[5; 4]); // RWITM aborts, cpu0 pushes, retry
    assert!(sys.bus_stats().aborts >= 1);
    assert_eq!(sys.state_of(1, 0x100), Modified);
    assert_eq!(sys.state_of(0, 0x100), Invalid);
    assert_eq!(sys.read(1, 0x100, 4), vec![5; 4]);
}

#[test]
fn illinois_read_miss_picks_s_or_e_like_mesi() {
    let mut sys = homogeneous("illinois", 2);
    sys.read(0, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Exclusive);
    sys.read(1, 0x100, 4);
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    assert_eq!(sys.state_of(1, 0x100), Shareable);
}

#[test]
fn firefly_shared_write_stays_clean() {
    let mut sys = homogeneous("firefly", 2);
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4);
    sys.write(0, 0x100, &[6; 4]); // broadcast; memory updated too
    assert_eq!(
        sys.state_of(0, 0x100),
        Shareable,
        "CH seen, stays shared-clean"
    );
    assert_eq!(sys.state_of(1, 0x100), Shareable);
    assert_eq!(sys.read(1, 0x100, 4), vec![6; 4]);
    // Both copies and memory agree: flushing both is silent.
    let writes = sys.bus_stats().writes;
    sys.flush(0, 0x100);
    sys.flush(1, 0x100);
    assert_eq!(sys.bus_stats().writes, writes, "clean copies drop silently");
    assert_eq!(sys.read(0, 0x100, 4), vec![6; 4], "memory had it");
}

#[test]
fn firefly_writer_regains_exclusivity_when_sharers_vanish() {
    let mut sys = homogeneous("firefly", 2);
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4);
    sys.flush(1, 0x100);
    sys.write(0, 0x100, &[7; 4]); // broadcast, no CH back -> E
    assert_eq!(sys.state_of(0, 0x100), Exclusive);
    sys.write(0, 0x100, &[8; 4]); // now silent E -> M
    assert_eq!(sys.state_of(0, 0x100), Modified);
}

#[test]
fn firefly_dirty_read_pushes_via_e() {
    let mut sys = homogeneous("firefly", 2);
    sys.read(0, 0x100, 4);
    sys.write(0, 0x100, &[9; 4]); // E -> M silently
    assert_eq!(sys.state_of(0, 0x100), Modified);
    let v = sys.read(1, 0x100, 4);
    assert_eq!(v, vec![9; 4]);
    // Table 7: BS;E,CA,W then the retried read demotes E -> S.
    assert_eq!(sys.state_of(0, 0x100), Shareable);
    assert_eq!(sys.state_of(1, 0x100), Shareable);
    assert_eq!(sys.bus_stats().aborts, 1);
}

#[test]
fn adapted_protocols_never_leave_memory_stale_in_s_or_e() {
    // The defining property of the adapted protocols: after any access, every
    // S or E copy matches main memory (their S/E are memory-consistent).
    for protocol in ["write-once", "illinois", "firefly", "synapse"] {
        let mut sys = homogeneous(protocol, 3);
        drive(&mut sys, 300, 17);
        // The oracle already checks E-vs-memory; additionally check S here.
        for cpu in 0..sys.nodes() {
            let shared_lines: Vec<(u64, Box<[u8]>)> = sys
                .controller(cpu)
                .cache()
                .map(|cache| {
                    cache
                        .iter()
                        .filter(|(_, e)| e.state == Shareable)
                        .map(|(addr, e)| (addr, e.data.into()))
                        .collect()
                })
                .unwrap_or_default();
            for (addr, got) in shared_lines {
                let current = sys.read(cpu, addr, LINE);
                assert_eq!(&got[..], &current[..], "{protocol}: stale S at {addr:#x}");
            }
        }
    }
}

#[test]
fn homogeneous_adapted_systems_survive_random_workloads() {
    for protocol in ["write-once", "illinois", "firefly", "synapse"] {
        for seed in 0..4 {
            let mut sys = homogeneous(protocol, 4);
            drive(&mut sys, 250, seed);
            assert!(
                sys.bus_stats().transactions > 0,
                "{protocol} seed {seed}: no traffic?"
            );
        }
    }
}

#[test]
fn write_once_always_pushing_variant_works_too() {
    use moesi::protocols::write_once_always_pushing;
    let cfg = CacheConfig::new(2048, LINE, 2, ReplacementKind::Lru);
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(write_once_always_pushing()), cfg)
        .cache(Box::new(write_once_always_pushing()), cfg)
        .build();
    sys.write(0, 0x100, &[1; 4]);
    sys.write(1, 0x100, &[2; 4]); // write miss on dirty: BS push, then retry
    assert!(sys.bus_stats().aborts >= 1);
    assert_eq!(sys.read(0, 0x100, 4), vec![2; 4]);
    drive(&mut sys, 200, 3);
}
