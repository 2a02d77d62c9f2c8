//! Fault injection: deliberately out-of-class boards must be *caught* by the
//! consistency oracle. A checker that never fires is worthless — these tests
//! prove each §3.1 invariant actually trips when a board misbehaves in the
//! corresponding way.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::moesi_preferred;
use moesi::{
    BusEvent, BusReaction, CacheKind, LineState, LocalAction, LocalCtx, LocalEvent, Protocol,
    SnoopCtx, TablePolicy,
};
use mpsim::{System, SystemBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};

const LINE: usize = 32;

fn cfg() -> CacheConfig {
    CacheConfig::new(1024, LINE, 2, ReplacementKind::Lru)
}

/// Wraps the preferred protocol, overriding one behaviour to break it.
struct Broken<F, G>
where
    F: FnMut(&mut TablePolicy, LineState, LocalEvent) -> LocalAction,
    G: FnMut(&mut TablePolicy, LineState, BusEvent) -> BusReaction,
{
    inner: TablePolicy,
    local: F,
    bus: G,
}

impl<F, G> Protocol for Broken<F, G>
where
    F: FnMut(&mut TablePolicy, LineState, LocalEvent) -> LocalAction,
    G: FnMut(&mut TablePolicy, LineState, BusEvent) -> BusReaction,
{
    fn name(&self) -> &str {
        "broken"
    }
    fn kind(&self) -> CacheKind {
        CacheKind::CopyBack
    }
    fn on_local(&mut self, state: LineState, event: LocalEvent, _ctx: &LocalCtx) -> LocalAction {
        (self.local)(&mut self.inner, state, event)
    }
    fn on_bus(&mut self, state: LineState, event: BusEvent, _ctx: &SnoopCtx) -> BusReaction {
        (self.bus)(&mut self.inner, state, event)
    }
}

fn default_local(p: &mut TablePolicy, s: LineState, e: LocalEvent) -> LocalAction {
    p.on_local(s, e, &LocalCtx::default())
}

fn default_bus(p: &mut TablePolicy, s: LineState, e: BusEvent) -> BusReaction {
    p.on_bus(s, e, &SnoopCtx::default())
}

fn violation_of(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = catch_unwind(f).expect_err("the oracle must catch the fault");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn ignoring_invalidations_is_caught() {
    // The board refuses to invalidate on a snooped read-for-modify (col 6):
    // the writer then holds M next to a surviving (stale) copy, so the oracle
    // reports either the exclusivity breach or the stale copy — both correct.
    let broken = Broken {
        inner: moesi_preferred(),
        local: default_local,
        bus: |p: &mut TablePolicy, s: LineState, e: BusEvent| {
            if e == BusEvent::CacheReadInvalidate && s.is_unowned_valid() {
                // "I keep my copy, thanks."
                BusReaction::hit(LineState::Shareable)
            } else {
                default_bus(p, s, e)
            }
        },
    };
    let msg = violation_of(AssertUnwindSafe(move || {
        let mut sys = SystemBuilder::new(LINE)
            .checking(true)
            .cache(Box::new(broken), cfg())
            .cache(Box::new(moesi::protocols::moesi_invalidating()), cfg())
            .build();
        sys.read(0, 0x100, 4); // broken board caches the line
        sys.write(1, 0x100, &[9; 4]); // RWITM; broken board keeps its copy
        let _ = sys.read(0, 0x100, 4); // reads the stale value
    }));
    assert!(
        msg.contains("stale") || msg.contains("exclusivity") || msg.contains("claims"),
        "wrong violation: {msg}"
    );
}

#[test]
fn claiming_exclusivity_next_to_a_sharer_is_caught() {
    // The board answers a read miss with E even though CH was asserted.
    let broken = Broken {
        inner: moesi_preferred(),
        local: |p: &mut TablePolicy, s: LineState, e: LocalEvent| {
            if s == LineState::Invalid && e == LocalEvent::Read {
                LocalAction::new(
                    LineState::Exclusive, // unconditionally E: wrong
                    moesi::MasterSignals::CA,
                    moesi::BusOp::Read,
                )
            } else {
                default_local(p, s, e)
            }
        },
        bus: default_bus,
    };
    let msg = violation_of(AssertUnwindSafe(move || {
        let mut sys = SystemBuilder::new(LINE)
            .checking(true)
            .cache(Box::new(moesi_preferred()), cfg())
            .cache(Box::new(broken), cfg())
            .build();
        sys.read(0, 0x100, 4); // honest board holds the line
        sys.read(1, 0x100, 4); // broken board claims E next to it
    }));
    assert!(
        msg.contains("exclusivity") || msg.contains("claims"),
        "wrong violation: {msg}"
    );
}

#[test]
fn double_ownership_is_caught() {
    // The board grabs ownership on a read miss (result M instead of S/E)
    // while the previous owner legitimately keeps O.
    let broken = Broken {
        inner: moesi_preferred(),
        local: |p: &mut TablePolicy, s: LineState, e: LocalEvent| {
            if s == LineState::Invalid && e == LocalEvent::Read {
                LocalAction::new(
                    LineState::Owned, // steals ownership without the right
                    moesi::MasterSignals::CA,
                    moesi::BusOp::Read,
                )
            } else {
                default_local(p, s, e)
            }
        },
        bus: default_bus,
    };
    let msg = violation_of(AssertUnwindSafe(move || {
        let mut sys = SystemBuilder::new(LINE)
            .checking(true)
            .cache(Box::new(moesi_preferred()), cfg())
            .cache(Box::new(broken), cfg())
            .build();
        sys.write(0, 0x100, &[1; 4]); // cpu0: M
        sys.read(1, 0x100, 4); // cpu0 -> O (intervenes); broken claims O too
    }));
    assert!(
        msg.contains("multiple") || msg.contains("owned by"),
        "wrong violation: {msg}"
    );
}

#[test]
fn dropping_dirty_data_is_caught_as_stale_memory() {
    // The board silently discards a Modified line instead of writing back.
    let broken = Broken {
        inner: moesi_preferred(),
        local: |p: &mut TablePolicy, s: LineState, e: LocalEvent| {
            if s == LineState::Modified && e == LocalEvent::Flush {
                LocalAction::silent(LineState::Invalid) // data loss!
            } else {
                default_local(p, s, e)
            }
        },
        bus: default_bus,
    };
    let msg = violation_of(AssertUnwindSafe(move || {
        let mut sys = SystemBuilder::new(LINE)
            .checking(true)
            .cache(Box::new(broken), cfg())
            .build();
        sys.write(0, 0x100, &[7; 4]);
        sys.flush(0, 0x100); // drops the only copy of the data
    }));
    assert!(
        msg.contains("memory is stale") || msg.contains("unowned"),
        "wrong violation: {msg}"
    );
}

#[test]
fn refusing_to_update_on_a_connected_broadcast_is_caught() {
    // The board asserts SL (so the writer believes it updated) but throws the
    // payload away and keeps its old data.
    struct KeepStale {
        inner: TablePolicy,
    }
    impl Protocol for KeepStale {
        fn name(&self) -> &str {
            "keep-stale"
        }
        fn kind(&self) -> CacheKind {
            CacheKind::CopyBack
        }
        fn on_local(&mut self, s: LineState, e: LocalEvent, c: &LocalCtx) -> LocalAction {
            self.inner.on_local(s, e, c)
        }
        fn on_bus(&mut self, s: LineState, e: BusEvent, c: &SnoopCtx) -> BusReaction {
            let r = self.inner.on_bus(s, e, c);
            if e == BusEvent::CacheBroadcastWrite && s == LineState::Shareable {
                // Keep the copy but do not connect: the data silently rots.
                BusReaction { sl: false, ..r }
            } else {
                r
            }
        }
    }
    let msg = violation_of(AssertUnwindSafe(move || {
        let mut sys = SystemBuilder::new(LINE)
            .checking(true)
            .cache(Box::new(moesi_preferred()), cfg())
            .cache(
                Box::new(KeepStale {
                    inner: moesi_preferred(),
                }),
                cfg(),
            )
            .build();
        sys.read(0, 0x100, 4);
        sys.read(1, 0x100, 4); // both S
        sys.write(0, 0x100, &[5; 4]); // broadcast; board 1 keeps stale data
        let _ = sys.read(1, 0x100, 4);
    }));
    assert!(msg.contains("stale"), "wrong violation: {msg}");
}

#[test]
fn honest_systems_never_trip_these_alarms() {
    // Sanity: the identical scenarios with honest boards pass.
    let mut sys = SystemBuilder::new(LINE)
        .checking(true)
        .cache(Box::new(moesi_preferred()), cfg())
        .cache(Box::new(moesi_preferred()), cfg())
        .build();
    sys.read(0, 0x100, 4);
    sys.read(1, 0x100, 4);
    sys.write(1, 0x100, &[9; 4]);
    sys.write(0, 0x100, &[1; 4]);
    sys.flush(0, 0x100);
    let _ = sys.read(1, 0x100, 4);
    sys.verify().expect("honest boards are consistent");
}

/// Keep `System` in scope for rustdoc links in the module comment.
#[allow(dead_code)]
fn _ty(_: &System) {}
