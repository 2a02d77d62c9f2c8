//! E1 — the paper's headline claim (§3.4): any mixture of protocols from the
//! compatible class maintains consistency, even a board that selects its
//! action at random from the permitted set on every event.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::{
    berkeley, dragon, moesi_invalidating, moesi_preferred, non_caching, puzak, random,
    write_through, write_through_non_broadcasting,
};
use moesi::{CacheKind, Protocol};
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, System, SystemBuilder};

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru)
}

fn class_member(i: usize, seed: u64) -> (Box<dyn Protocol + Send>, bool) {
    // Cycle deterministically through every class member; bool = caching.
    match i % 9 {
        0 => (Box::new(moesi_preferred()), true),
        1 => (Box::new(moesi_invalidating()), true),
        2 => (Box::new(berkeley()), true),
        3 => (Box::new(dragon()), true),
        4 => (Box::new(puzak()), true),
        5 => (Box::new(write_through()), true),
        6 => (Box::new(write_through_non_broadcasting()), true),
        7 => (Box::new(random(CacheKind::CopyBack, seed)), true),
        _ => (Box::new(non_caching()), false),
    }
}

fn mixed_system(members: &[usize], seed: u64) -> System {
    let mut b = SystemBuilder::new(LINE).checking(true).seed(seed);
    for (slot, &i) in members.iter().enumerate() {
        let (p, caching) = class_member(i, seed.wrapping_add(slot as u64));
        b = if caching {
            b.cache(p, cfg())
        } else {
            b.uncached(p)
        };
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
    sys.verify().expect("class members must stay consistent");
}

#[test]
fn every_class_member_pair_coexists() {
    // All 9x9 ordered pairs of class members share a bus with heavy sharing.
    for a in 0..9usize {
        for b in 0..9usize {
            if a % 9 == 8 && b % 9 == 8 {
                continue; // two non-caching nodes exercise nothing cache-y
            }
            let mut sys = mixed_system(&[a, b], 42);
            drive(&mut sys, 150, (a * 9 + b) as u64);
        }
    }
}

#[test]
fn full_house_of_class_members_is_consistent() {
    let mut sys = mixed_system(&[0, 1, 2, 3, 4, 5, 6, 7, 8], 7);
    drive(&mut sys, 400, 7);
}

#[test]
fn all_random_policies_is_consistent() {
    // The extreme of the extreme case: every cache rolls dice on every event.
    let mut b = SystemBuilder::new(LINE).checking(true);
    for i in 0..5u64 {
        b = b.cache(Box::new(random(CacheKind::CopyBack, 100 + i)), cfg());
    }
    let mut sys = b.build();
    for seed in 0..3 {
        drive(&mut sys, 300, seed);
    }
}

#[test]
fn random_write_through_and_non_caching_randoms_mix() {
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(random(CacheKind::CopyBack, 1)), cfg())
        .cache(Box::new(random(CacheKind::WriteThrough, 2)), cfg())
        .uncached(Box::new(random(CacheKind::NonCaching, 3)))
        .cache(Box::new(moesi_preferred()), cfg())
        .build();
    drive(&mut sys, 400, 11);
}

#[test]
fn sequential_writes_are_observed_in_order_by_every_node() {
    let mut sys = mixed_system(&[0, 3, 5, 7, 8], 13);
    let addr = 0x1000;
    for round in 0..40u32 {
        let writer = (round as usize) % sys.nodes();
        sys.write(writer, addr, &round.to_le_bytes());
        for reader in 0..sys.nodes() {
            let got = sys.read(reader, addr, 4);
            assert_eq!(
                got,
                round.to_le_bytes().to_vec(),
                "round {round}, reader {reader}"
            );
        }
    }
}

#[test]
fn many_seeds_many_mixes() {
    // A broad randomized sweep: different mixes, seeds and sharing levels.
    for seed in 0..8u64 {
        let members: Vec<usize> = (0..4).map(|i| ((seed as usize) * 3 + i * 2) % 9).collect();
        let mut sys = mixed_system(&members, seed);
        drive(&mut sys, 200, seed * 31);
    }
}

#[test]
fn protocol_trait_objects_are_usable_generically() {
    // C-OBJECT: the Protocol trait must work as a trait object.
    let mut protocols: Vec<Box<dyn Protocol + Send>> = vec![
        Box::new(moesi_preferred()),
        Box::new(dragon()),
        Box::new(write_through()),
    ];
    for p in &mut protocols {
        let _ = p.name();
        let _ = p.kind();
        let a = p.on_local(
            moesi::LineState::Invalid,
            moesi::LocalEvent::Read,
            &moesi::LocalCtx::default(),
        );
        assert!(a.bus_op.uses_bus());
    }
}
