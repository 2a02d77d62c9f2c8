//! Atomic read-modify-write on top of the serialised bus: no increment may
//! ever be lost, whatever mixture of protocols performs them.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::by_name;
use moesi::Protocol;
use mpsim::hierarchy::TreeBuilder;
use mpsim::{System, SystemBuilder};

const LINE: usize = 32;

fn mixed(protocols: &[&str]) -> System {
    let cfg = CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(LINE).checking(true);
    for (i, p) in protocols.iter().enumerate() {
        b = b.cache(by_name(p, i as u64).expect("known"), cfg);
    }
    b.build()
}

/// Two clusters of two MOESI caches, oracle on.
fn two_by_two() -> System {
    let cfg = CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru);
    TreeBuilder::uniform(LINE, 2, 2, 1, 2, |leaf, cpu| {
        let protocol: Box<dyn Protocol + Send> =
            by_name("moesi", (2 * leaf + cpu) as u64).expect("known");
        (protocol, Some(cfg))
    })
    .checking(true)
    .build()
}

#[test]
fn fetch_add_never_loses_updates_across_protocols() {
    let machines = [
        &["moesi", "moesi-invalidating", "dragon"][..],
        &["berkeley", "write-through", "moesi"][..],
        &["illinois", "illinois", "illinois"][..],
        &["synapse", "synapse"][..],
    ]
    .map(|protocols| (format!("{protocols:?}"), mixed(protocols)));
    for (protocols, mut sys) in machines
        .into_iter()
        .chain([("2x2 tree".into(), two_by_two())])
    {
        let addr = 0x1000;
        let mut expected = 0u32;
        for round in 0..100u32 {
            let cpu = (round as usize) % sys.nodes();
            let old = sys.fetch_add_u32(cpu, addr, round);
            assert_eq!(old, expected, "{protocols:?} lost an update");
            expected = expected.wrapping_add(round);
        }
        let fin = u32::from_le_bytes(sys.read(0, addr, 4).try_into().unwrap());
        assert_eq!(fin, expected);
        sys.verify().expect("consistent");
    }
}

#[test]
fn test_and_set_is_mutually_exclusive() {
    let mut sys = mixed(&["moesi", "dragon"]);
    let lock = 0x2000;
    assert_eq!(sys.test_and_set(0, lock), 0, "first acquisition wins");
    assert_eq!(sys.test_and_set(1, lock), 1, "second sees it held");
    assert_eq!(sys.test_and_set(0, lock), 1, "even the holder re-reads 1");
    sys.clear_lock(0, lock);
    assert_eq!(sys.test_and_set(1, lock), 0, "released lock is takeable");
}

#[test]
fn rmw_returns_old_bytes_and_applies_new() {
    let mut sys = mixed(&["moesi"]);
    sys.write(0, 0x100, &[1, 2, 3, 4]);
    let old = sys.atomic_rmw(0, 0x100, 4, |b| b.iter().map(|x| x * 2).collect());
    assert_eq!(old, vec![1, 2, 3, 4]);
    assert_eq!(sys.read(0, 0x100, 4), vec![2, 4, 6, 8]);
}

#[test]
#[should_panic(expected = "must not cross a line")]
fn line_crossing_rmw_is_rejected() {
    let mut sys = mixed(&["moesi"]);
    let _ = sys.atomic_rmw(0, LINE as u64 - 2, 4, |b| b.to_vec());
}

#[test]
#[should_panic(expected = "preserve the operand size")]
fn size_changing_rmw_is_rejected() {
    let mut sys = mixed(&["moesi"]);
    let _ = sys.atomic_rmw(0, 0x100, 4, |_| vec![0; 2]);
}
