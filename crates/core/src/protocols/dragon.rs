//! The Dragon protocol (Xerox PARC) — Table 4.

use crate::action::LocalAction;
use crate::event::LocalEvent;
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::state::LineState;

/// Table 4 as data.
fn dragon_table() -> PolicyTable {
    let mut t = PolicyTable::preferred("Dragon", CacheKind::CopyBack);
    // `Read>Write`: a write miss is a read miss followed by a write.
    t.set_local(
        LineState::Invalid,
        LocalEvent::Write,
        LocalAction::read_then_write(),
    );
    t
}

/// The Dragon update protocol as mapped onto the Futurebus (Table 4).
///
/// "The Dragon protocol is implementable almost exactly using the Futurebus
/// features. The one exception is that when a broadcast write is done on the
/// Futurebus, it affects all caches holding the line and also main memory
/// ... Extra memory updates, however, cause no incompatibility" (§4.2).
///
/// Dragon never invalidates: writes to shared lines are broadcast and every
/// holder updates. All its transitions are cells of Tables 1–2, so it is a
/// member of the compatible class. Cells Table 4 leaves unspecified (columns
/// 6, 7, 9, 10) are completed with the MOESI preferred entries, except that
/// snooped uncached broadcast writes update rather than discard, keeping the
/// protocol's update-everywhere character.
///
/// As a table, Dragon *is* the preferred table except for one cell: the write
/// miss uses the two-transaction `Read>Write` instead of read-for-modify —
/// the Dragon write miss first obtains the line like any read miss, then
/// performs the (possibly broadcast) write.
#[must_use]
pub fn dragon() -> TablePolicy {
    TablePolicy::new(dragon_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::BusOp;
    use crate::compat;
    use crate::event::BusEvent;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use LineState::Shareable;

    fn bus(state: LineState, event: BusEvent) -> String {
        dragon()
            .on_bus(state, event, &SnoopCtx::default())
            .to_string()
    }

    #[test]
    fn dragon_never_invalidates_other_caches_on_a_write() {
        // Every local write either stays silent or broadcasts (BC asserted);
        // no address-only invalidates, no read-for-modify.
        let mut p = dragon();
        for s in LineState::ALL {
            let a = p.on_local(s, LocalEvent::Write, &LocalCtx::default());
            if a.bus_op.uses_bus() && a.bus_op != BusOp::ReadThenWrite {
                assert!(a.signals.bc, "({s}, Write): {a} does not broadcast");
            }
        }
    }

    #[test]
    fn dragon_is_a_class_member() {
        let report = compat::check_protocol(&mut dragon());
        assert!(report.is_class_member(), "{report}");
    }

    #[test]
    fn snooped_updates_keep_copies_alive() {
        assert_eq!(bus(Shareable, BusEvent::UncachedBroadcastWrite), "S,CH,SL");
    }

    #[test]
    fn the_table_is_exact_and_in_class() {
        let p = dragon();
        assert!(p.table_is_exact());
        assert!(p.policy_table().unwrap().is_class_member());
    }
}
