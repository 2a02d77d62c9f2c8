//! The Synapse protocol (Frank 1984, the Synapse N+1) — the sixth protocol
//! of the Archibald & Baer comparison the paper's §5.2 builds on.

use crate::action::{BusOp, BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;

/// On a snooped read: NAK, write back, keep the copy as Valid.
fn push_to_valid() -> BusReaction {
    BusReaction::busy_push(LineState::Shareable, MasterSignals::CA)
}

/// On a snooped read-for-ownership: NAK, write back, invalidate.
fn push_to_invalid() -> BusReaction {
    BusReaction::busy_push(LineState::Invalid, MasterSignals::NONE)
}

/// The Synapse table as data: M, S and I rows only.
fn synapse_table() -> PolicyTable {
    use LineState::{Invalid, Modified, Shareable};
    let mut t = PolicyTable::empty("Synapse", CacheKind::CopyBack).with_bs();
    t.set_local_unchecked(Modified, LocalEvent::Read, LocalAction::silent(Modified));
    t.set_local_unchecked(Shareable, LocalEvent::Read, LocalAction::silent(Shareable));
    // Read misses always enter Valid; Synapse has no E state.
    t.set_local_unchecked(
        Invalid,
        LocalEvent::Read,
        LocalAction::new(Shareable, MasterSignals::CA, BusOp::Read),
    );
    t.set_local_unchecked(Modified, LocalEvent::Write, LocalAction::silent(Modified));
    // The signature inefficiency: no invalidation transaction exists, so a
    // write to Valid data is a full read-for-ownership.
    for s in [Shareable, Invalid] {
        t.set_local_unchecked(
            s,
            LocalEvent::Write,
            LocalAction::new(Modified, MasterSignals::CA_IM, BusOp::Read),
        );
    }
    // Pushes: only Dirty data writes back; Valid data drops silently.
    t.set_local_unchecked(
        Modified,
        LocalEvent::Pass,
        LocalAction::new(Shareable, MasterSignals::CA, BusOp::Write),
    );
    t.set_local_unchecked(
        Modified,
        LocalEvent::Flush,
        LocalAction::new(Invalid, MasterSignals::NONE, BusOp::Write),
    );
    t.set_local_unchecked(Shareable, LocalEvent::Flush, LocalAction::silent(Invalid));

    for ev in BusEvent::ALL {
        t.set_bus_unchecked(Invalid, ev, BusReaction::IGNORE);
    }
    // Dirty data NAKs everything: memory must be made current first.
    for ev in [BusEvent::CacheRead, BusEvent::UncachedRead] {
        t.set_bus_unchecked(Modified, ev, push_to_valid());
        // Valid copies: stay on reads (CH for compatibility)...
        t.set_bus_unchecked(Shareable, ev, BusReaction::hit(Shareable));
    }
    for ev in [
        BusEvent::CacheReadInvalidate,
        BusEvent::UncachedWrite,
        BusEvent::CacheBroadcastWrite,
        BusEvent::UncachedBroadcastWrite,
    ] {
        t.set_bus_unchecked(Modified, ev, push_to_invalid());
        // ...and die on any modification — Synapse has no update path.
        t.set_bus_unchecked(Shareable, ev, BusReaction::IGNORE);
    }
    t
}

/// The Synapse ownership protocol, adapted to the Futurebus with BS.
///
/// Synapse N+1 \[Fran84\] is the simplest of the classic ownership protocols:
/// three states (Invalid, Valid ≡ S, Dirty ≡ M), no cache-to-cache
/// transfers, and no invalidate-only transaction. Its two signature
/// behaviours:
///
/// * a dirty holder never supplies data — it rejects the access (the N+1's
///   bus NAK, our BS abort), writes back, and lets memory serve the retry;
/// * a write to a *Valid* line cannot simply invalidate the other copies —
///   lacking an invalidation transaction, the cache performs a full
///   read-for-ownership on the bus even though it already holds the data,
///   which is Synapse's well-known inefficiency in the Archibald & Baer
///   results.
///
/// Not a member of the MOESI compatible class: it needs BS, and its
/// V-write re-fetch is not a Table 1 entry — the table is built with the
/// unchecked setters, and both the O and E rows are empty.
#[must_use]
pub fn synapse() -> TablePolicy {
    TablePolicy::new(synapse_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat;
    use crate::protocol::{Protocol, SnoopCtx};
    use LineState::{Invalid, Modified, Shareable};

    fn bus(state: LineState, event: BusEvent) -> String {
        synapse()
            .on_bus(state, event, &SnoopCtx::default())
            .to_string()
    }

    #[test]
    fn three_states_only() {
        let reachable = compat::reachable_states(&mut synapse());
        assert!(reachable.contains(&Modified));
        assert!(reachable.contains(&Shareable));
        assert!(reachable.contains(&Invalid));
        assert!(!reachable.contains(&LineState::Owned));
        assert!(!reachable.contains(&LineState::Exclusive));
    }

    #[test]
    fn dirty_holders_nak_and_push() {
        assert_eq!(bus(Modified, BusEvent::CacheRead), "BS;S,CA,W");
        assert_eq!(bus(Modified, BusEvent::CacheReadInvalidate), "BS;I,-,W");
        assert_eq!(bus(Modified, BusEvent::UncachedRead), "BS;S,CA,W");
    }

    #[test]
    fn valid_copies_die_on_any_modification() {
        for ev in [
            BusEvent::CacheReadInvalidate,
            BusEvent::UncachedWrite,
            BusEvent::CacheBroadcastWrite,
            BusEvent::UncachedBroadcastWrite,
        ] {
            assert_eq!(bus(Shareable, ev), "I", "{ev}");
        }
        assert_eq!(bus(Shareable, BusEvent::CacheRead), "S,CH");
    }

    #[test]
    fn synapse_is_not_a_class_member() {
        let report = compat::check_protocol(&mut synapse());
        assert!(!report.is_class_member());
        // Its V-write action is outside Table 1 as well as needing BS.
        assert!(
            report.violations().iter().any(|v| v.contains("(S, Write)")),
            "{report}"
        );
    }

    #[test]
    fn the_o_and_e_rows_are_empty() {
        let p = synapse();
        assert!(p.table_is_exact());
        let t = p.policy_table().unwrap();
        assert!(!t.is_class_member());
        for s in [LineState::Owned, LineState::Exclusive] {
            for ev in LocalEvent::ALL {
                assert_eq!(t.local(s, ev), None);
            }
            for ev in BusEvent::ALL {
                assert_eq!(t.bus(s, ev), None);
            }
        }
    }

    #[test]
    fn requires_bs() {
        assert!(synapse().requires_bs());
    }
}
