//! The Berkeley protocol (Katz et al., SPUR) — Table 3.

use crate::action::{BusOp, BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;

/// Table 3 as data: the preferred table, minus the E row, with Berkeley's
/// invalidation-flavoured choices.
fn berkeley_table() -> PolicyTable {
    use LineState::{Exclusive, Invalid, Modified, Owned, Shareable};
    let mut t = PolicyTable::preferred("Berkeley", CacheKind::CopyBack);
    t.clear_state(Exclusive);
    // `S,CA,R`: read misses always enter S (no E state).
    t.set_local(
        Invalid,
        LocalEvent::Read,
        LocalAction::new(Shareable, MasterSignals::CA, BusOp::Read),
    );
    // `M,CA,IM`: invalidate other copies, address-only.
    for s in [Owned, Shareable] {
        t.set_local(
            s,
            LocalEvent::Write,
            LocalAction::new(Modified, MasterSignals::CA_IM, BusOp::AddressOnly),
        );
    }
    // Pushes are not tabulated in Table 3; keep the copy in S (the note 10
    // weakening of the MOESI `CH:S/E` result, since Berkeley has no E state).
    for s in [Modified, Owned] {
        t.set_local(
            s,
            LocalEvent::Pass,
            LocalAction::new(Shareable, MasterSignals::CA, BusOp::Write),
        );
    }
    // Completion: unowned copies discard on any snooped broadcast write
    // (invalidation-based protocol; the `I` alternative of the Table 2 cells).
    t.set_bus(
        Shareable,
        BusEvent::CacheBroadcastWrite,
        BusReaction::IGNORE,
    );
    t.set_bus(
        Shareable,
        BusEvent::UncachedBroadcastWrite,
        BusReaction::IGNORE,
    );
    t.set_bus(Owned, BusEvent::CacheBroadcastWrite, BusReaction::IGNORE);
    t
}

/// The Berkeley ownership protocol as mapped onto the Futurebus (Table 3).
///
/// "The states in that protocol map into M, O, S and I; there is no state
/// that corresponds to E. The facilities of Futurebus are sufficient to
/// implement the Berkeley Protocol" (§4.1). Every cell of its table is an
/// entry of Tables 1–2 (using the note 10 weakening `S` for `CH:S/E`), so
/// Berkeley is a member of the compatible class; the CH signal is generated for
/// compatibility with the MOESI mechanism even though \[Katz85\] does not use
/// it.
///
/// Cells Table 3 leaves unspecified (events from write-through and non-caching
/// masters, columns 7–10) are completed in the protocol's invalidation-based
/// spirit: reads are answered per the MOESI preferred entries, snooped
/// broadcast writes discard unowned copies, and owners capture or update as
/// Table 2 requires. The E row is cleared — Berkeley can never reach it.
#[must_use]
pub fn berkeley() -> TablePolicy {
    TablePolicy::new(berkeley_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ResultState;
    use crate::compat;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use LineState::{Invalid, Modified, Owned, Shareable};

    fn bus(state: LineState, event: BusEvent) -> String {
        berkeley()
            .on_bus(state, event, &SnoopCtx::default())
            .to_string()
    }

    #[test]
    fn never_reads_into_exclusive() {
        // Berkeley has no E state: a read miss lands in S even when no other
        // cache holds the line.
        let a = berkeley().on_local(Invalid, LocalEvent::Read, &LocalCtx::default());
        assert_eq!(a.result, ResultState::Fixed(Shareable));
    }

    #[test]
    fn berkeley_is_a_class_member() {
        let report = compat::check_protocol(&mut berkeley());
        assert!(report.is_class_member(), "{report}");
    }

    #[test]
    fn completion_cells_discard_on_broadcast_writes() {
        assert_eq!(bus(Shareable, BusEvent::CacheBroadcastWrite), "I");
        assert_eq!(bus(Shareable, BusEvent::UncachedBroadcastWrite), "I");
        assert_eq!(bus(Owned, BusEvent::CacheBroadcastWrite), "I");
    }

    #[test]
    fn owners_still_serve_uncached_masters() {
        assert_eq!(bus(Modified, BusEvent::UncachedRead), "M,DI");
        assert_eq!(bus(Owned, BusEvent::UncachedWrite), "O,DI");
    }

    #[test]
    fn the_exclusive_row_is_cleared() {
        let p = berkeley();
        assert!(p.table_is_exact());
        let t = p.policy_table().unwrap();
        assert!(t.is_class_member());
        for ev in LocalEvent::ALL {
            assert_eq!(t.local(LineState::Exclusive, ev), None);
        }
        for ev in BusEvent::ALL {
            assert_eq!(t.bus(LineState::Exclusive, ev), None);
        }
    }
}
