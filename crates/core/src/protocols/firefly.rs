//! The Firefly protocol (DEC SRC) — Table 7.

use crate::action::{BusOp, BusReaction, LocalAction, ResultState};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;

fn push() -> BusReaction {
    BusReaction::busy_push(LineState::Exclusive, MasterSignals::CA)
}

/// Table 7 as data.
fn firefly_table() -> PolicyTable {
    use LineState::{Exclusive, Invalid, Modified, Shareable};
    let mut t = PolicyTable::empty("Firefly", CacheKind::CopyBack).with_bs();
    for s in [Modified, Exclusive, Shareable] {
        t.set_local_unchecked(s, LocalEvent::Read, LocalAction::silent(s));
    }
    // `CH:S/E,CA,R`.
    t.set_local_unchecked(
        Invalid,
        LocalEvent::Read,
        LocalAction::new(ResultState::CH_S_E, MasterSignals::CA, BusOp::Read),
    );
    t.set_local_unchecked(Modified, LocalEvent::Write, LocalAction::silent(Modified));
    t.set_local_unchecked(Exclusive, LocalEvent::Write, LocalAction::silent(Modified));
    // `CH:S/E,CA,IM,BC,W`: broadcast update; the Futurebus updates memory
    // too, so the writer stays clean and may regain E when no other cache
    // answers CH.
    t.set_local_unchecked(
        Shareable,
        LocalEvent::Write,
        LocalAction::new(ResultState::CH_S_E, MasterSignals::CA_IM_BC, BusOp::Write),
    );
    // `Read>Write`.
    t.set_local_unchecked(Invalid, LocalEvent::Write, LocalAction::read_then_write());
    t.set_local_unchecked(
        Modified,
        LocalEvent::Pass,
        LocalAction::new(Exclusive, MasterSignals::CA, BusOp::Write),
    );
    t.set_local_unchecked(
        Modified,
        LocalEvent::Flush,
        LocalAction::new(Invalid, MasterSignals::NONE, BusOp::Write),
    );
    t.set_local_unchecked(Exclusive, LocalEvent::Flush, LocalAction::silent(Invalid));
    t.set_local_unchecked(Shareable, LocalEvent::Flush, LocalAction::silent(Invalid));

    // Table 7, column 5 is `BS;E,CA,W`; the completion cells (§4 leaves them
    // open) push dirty data for any foreign access, update clean copies on
    // broadcasts, and invalidate them on non-broadcast modifies.
    for ev in BusEvent::ALL {
        t.set_bus_unchecked(Modified, ev, push());
        t.set_bus_unchecked(Invalid, ev, BusReaction::IGNORE);
    }
    for s in [Exclusive, Shareable] {
        t.set_bus_unchecked(s, BusEvent::CacheRead, BusReaction::hit(Shareable));
        t.set_bus_unchecked(s, BusEvent::CacheReadInvalidate, BusReaction::IGNORE);
        t.set_bus_unchecked(s, BusEvent::UncachedWrite, BusReaction::IGNORE);
    }
    t.set_bus_unchecked(
        Exclusive,
        BusEvent::UncachedRead,
        BusReaction::quiet(Exclusive),
    );
    t.set_bus_unchecked(
        Shareable,
        BusEvent::UncachedRead,
        BusReaction::hit(Shareable),
    );
    // Table 7, column 8: holders connect and update, staying S.
    t.set_bus_unchecked(
        Shareable,
        BusEvent::CacheBroadcastWrite,
        BusReaction::hit(Shareable).with_sl(),
    );
    t.set_bus_unchecked(
        Shareable,
        BusEvent::UncachedBroadcastWrite,
        BusReaction::hit(Shareable).with_sl(),
    );
    t.set_bus_unchecked(
        Exclusive,
        BusEvent::UncachedBroadcastWrite,
        BusReaction::quiet(Exclusive).with_sl(),
    );
    t.set_bus_unchecked(
        Exclusive,
        BusEvent::CacheBroadcastWrite,
        BusReaction::IGNORE,
    );
    t
}

/// The Firefly update protocol, adapted to the Futurebus with BS (Table 7).
///
/// Firefly broadcasts writes to shared lines and relies on memory being
/// updated by the broadcast (which the Futurebus does), so a shared write
/// leaves the writer clean: `CH:S/E,CA,IM,BC,W`. When an intervenient cache
/// would have to provide data, memory must be updated at the same time, which
/// the Futurebus cannot do — so M holders abort with BS, push, and let the
/// restarted transaction be served by memory (§4.5). After the push the
/// holder is in E (`BS;E,CA,W`); the restarted read then demotes it to S
/// through the normal E-row reaction.
///
/// Not a member of the MOESI compatible class (requires BS, and its S/E
/// states are defined as consistent with memory); the table is built with
/// the unchecked setters.
#[must_use]
pub fn firefly() -> TablePolicy {
    TablePolicy::new(firefly_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use LineState::{Exclusive, Modified, Shareable};

    #[test]
    fn shared_write_stays_clean_because_memory_is_updated() {
        // The writer ends in S or E — never M or O — after a broadcast write.
        let mut p = firefly();
        let a = p.on_local(Shareable, LocalEvent::Write, &LocalCtx::default());
        for r in a.result.possible() {
            assert!(!r.is_owned(), "{r}");
        }
        assert!(a.signals.bc);
    }

    #[test]
    fn push_lands_in_e_so_the_retried_read_demotes_to_s() {
        let mut p = firefly();
        let r = p.on_bus(Modified, BusEvent::CacheRead, &SnoopCtx::default());
        let push = r.busy.expect("Firefly M/CacheRead aborts");
        assert_eq!(push.result, Exclusive);
        // After the push the retried read hits the E row: S,CH.
        let retry = p.on_bus(Exclusive, BusEvent::CacheRead, &SnoopCtx::default());
        assert_eq!(retry.to_string(), "S,CH");
    }

    #[test]
    fn firefly_is_not_a_class_member() {
        let report = compat::check_protocol(&mut firefly());
        assert!(!report.is_class_member());
        assert!(!firefly().policy_table().unwrap().is_class_member());
    }

    #[test]
    fn requires_bs() {
        assert!(firefly().requires_bs());
    }
}
