//! The Illinois protocol (Papamarcos & Patel 1984) — Table 6.

use crate::action::{BusOp, BusReaction, LocalAction, ResultState};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;

fn push() -> BusReaction {
    BusReaction::busy_push(LineState::Shareable, MasterSignals::CA)
}

/// Table 6 as data.
fn illinois_table() -> PolicyTable {
    use LineState::{Exclusive, Invalid, Modified, Shareable};
    let mut t = PolicyTable::empty("Illinois", CacheKind::CopyBack).with_bs();
    for s in [Modified, Exclusive, Shareable] {
        t.set_local_unchecked(s, LocalEvent::Read, LocalAction::silent(s));
    }
    // `CH:S/E,CA,R` (printed "CU:S/E" in the paper — a typo).
    t.set_local_unchecked(
        Invalid,
        LocalEvent::Read,
        LocalAction::new(ResultState::CH_S_E, MasterSignals::CA, BusOp::Read),
    );
    t.set_local_unchecked(Modified, LocalEvent::Write, LocalAction::silent(Modified));
    t.set_local_unchecked(Exclusive, LocalEvent::Write, LocalAction::silent(Modified));
    // `M,CA,IM`: address-only invalidate.
    t.set_local_unchecked(
        Shareable,
        LocalEvent::Write,
        LocalAction::new(Modified, MasterSignals::CA_IM, BusOp::AddressOnly),
    );
    // `M,CA,IM,R`.
    t.set_local_unchecked(
        Invalid,
        LocalEvent::Write,
        LocalAction::new(Modified, MasterSignals::CA_IM, BusOp::Read),
    );
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

    // Table 6, columns 5 and 6: dirty data aborts and pushes — every M
    // reaction uses BS, never DI (memory must always end up current).
    for ev in BusEvent::ALL {
        t.set_bus_unchecked(Modified, ev, push());
        t.set_bus_unchecked(Invalid, ev, BusReaction::IGNORE);
    }
    for s in [Exclusive, Shareable] {
        t.set_bus_unchecked(s, BusEvent::CacheRead, BusReaction::hit(Shareable));
        t.set_bus_unchecked(s, BusEvent::CacheReadInvalidate, BusReaction::IGNORE);
    }
    // Completion cells for foreign masters (§4 leaves them open).
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
    for s in [Exclusive, Shareable] {
        for ev in [
            BusEvent::UncachedWrite,
            BusEvent::CacheBroadcastWrite,
            BusEvent::UncachedBroadcastWrite,
        ] {
            t.set_bus_unchecked(s, ev, BusReaction::IGNORE);
        }
    }
    t
}

/// The Illinois (MESI) protocol, adapted to the Futurebus with BS (Table 6).
///
/// Two adaptations were necessary (§4.4): dirty lines passed between caches
/// must update memory — done here by aborting with BS, pushing, and
/// restarting — and the original's "all caches respond, bus priority
/// resolves" cannot be permitted, so only an intervenient cache or memory
/// responds.
///
/// "It is possible to map the states of the Illinois protocol into our
/// states, but we note that the S state has a different meaning. The Illinois
/// protocol defines the S state as consistent with memory; that is not the
/// case for the protocol as we have defined it."
///
/// Not a member of the MOESI compatible class (requires BS): the table is
/// built with the unchecked setters and `class_violations` reports the BS
/// cells.
#[must_use]
pub fn illinois() -> TablePolicy {
    TablePolicy::new(illinois_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat;
    use crate::protocol::{Protocol, SnoopCtx};
    use LineState::Modified;

    #[test]
    fn illinois_is_not_a_class_member() {
        let report = compat::check_protocol(&mut illinois());
        assert!(!report.is_class_member());
        assert!(!illinois().policy_table().unwrap().is_class_member());
    }

    #[test]
    fn dirty_lines_never_intervene_directly() {
        // Unlike MOESI, Illinois memory must always end up current: every
        // reaction from M uses BS, never DI.
        let mut p = illinois();
        for ev in BusEvent::ALL {
            let r = p.on_bus(Modified, ev, &SnoopCtx::default());
            assert!(r.busy.is_some(), "({ev}): {r}");
            assert!(!r.di);
        }
    }

    #[test]
    fn requires_bs() {
        assert!(illinois().requires_bs());
    }
}
