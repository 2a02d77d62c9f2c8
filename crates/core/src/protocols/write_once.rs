//! The Write-Once protocol (Goodman 1983) — Table 5.

use crate::action::{BusOp, BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;

fn push() -> BusReaction {
    BusReaction::busy_push(LineState::Shareable, MasterSignals::CA)
}

/// Table 5 as data. `push_on_read_invalidate` picks the second alternative of
/// the ambiguous M column-6 cell.
fn write_once_table(push_on_read_invalidate: bool) -> PolicyTable {
    use LineState::{Exclusive, Invalid, Modified, Shareable};
    let mut t = PolicyTable::empty("Write-Once", CacheKind::CopyBack).with_bs();
    for s in [Modified, Exclusive, Shareable] {
        t.set_local_unchecked(s, LocalEvent::Read, LocalAction::silent(s));
    }
    // `S,CA,R`: read misses enter S (Goodman's Valid).
    t.set_local_unchecked(
        Invalid,
        LocalEvent::Read,
        LocalAction::new(Shareable, MasterSignals::CA, BusOp::Read),
    );
    t.set_local_unchecked(Modified, LocalEvent::Write, LocalAction::silent(Modified));
    t.set_local_unchecked(Exclusive, LocalEvent::Write, LocalAction::silent(Modified));
    // The eponymous write-once: write through, invalidating other copies
    // (CA,IM without BC), and reserve the line (E).
    t.set_local_unchecked(
        Shareable,
        LocalEvent::Write,
        LocalAction::new(Exclusive, MasterSignals::CA_IM, BusOp::Write),
    );
    // `M,CA,IM,R or Read>Write` — prefer the single transaction.
    t.set_local_unchecked(
        Invalid,
        LocalEvent::Write,
        LocalAction::new(Modified, MasterSignals::CA_IM, BusOp::Read),
    );
    // Pushes: dirty lines write back; Table 5 does not tabulate them.
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

    // Table 5, column 5: abort, push, resume — memory then supplies.
    t.set_bus_unchecked(Modified, BusEvent::CacheRead, push());
    // Table 5, column 6: `I,DI or BS;S,CA,W`.
    t.set_bus_unchecked(
        Modified,
        BusEvent::CacheReadInvalidate,
        if push_on_read_invalidate {
            push()
        } else {
            BusReaction::quiet(Invalid).with_di()
        },
    );
    for s in [Exclusive, Shareable] {
        t.set_bus_unchecked(s, BusEvent::CacheRead, BusReaction::hit(Shareable));
        t.set_bus_unchecked(s, BusEvent::CacheReadInvalidate, BusReaction::IGNORE);
    }
    for ev in BusEvent::ALL {
        t.set_bus_unchecked(Invalid, ev, BusReaction::IGNORE);
    }
    // Completion cells for foreign masters: dirty data is pushed so memory
    // can serve or accept the access; clean copies behave as an invalidation
    // protocol.
    for ev in [
        BusEvent::UncachedRead,
        BusEvent::UncachedWrite,
        BusEvent::CacheBroadcastWrite,
        BusEvent::UncachedBroadcastWrite,
    ] {
        t.set_bus_unchecked(Modified, ev, push());
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

/// The Write-Once protocol, adapted to the Futurebus with BS (Table 5).
///
/// "The write-once protocol requires that on an intervenient action, memory
/// be updated at the same time that the intervenient cache supplies the data
/// to the active cache. This is not possible with Futurebus, so an exact
/// implementation is not possible. We replace intervention with an abort
/// (BS), followed by an immediate write back ('push') to main memory; when
/// the transaction is restarted, memory is up to date and intervention is no
/// longer required" (§4.3).
///
/// States: M, E, S, I (no O — dirty data never stays shared). The name comes
/// from the first write to an S line being written through (`E,CA,IM,W`),
/// invalidating other copies; subsequent writes are local (E → M).
///
/// The paper notes the original definition is ambiguous for the M column-6
/// cell ("I,DI or BS;S,CA,W"); this constructor takes the first (direct
/// intervention), [`write_once_always_pushing`] the second.
///
/// This protocol is **not** a member of the MOESI compatible class: its S
/// state means "consistent with memory", it relies on writes-through updating
/// memory beneath CA,IM signalling, and it needs BS — so its table is built
/// with the unchecked setters and `class_violations` reports the
/// out-of-class cells. It is safe among caches running Write-Once (and with
/// non-caching masters via its completion cells), which is how §4 frames all
/// of Tables 3–7.
#[must_use]
pub fn write_once() -> TablePolicy {
    TablePolicy::new(write_once_table(false))
}

/// The Write-Once variant that aborts and pushes on read-for-modify as well
/// (`BS;S,CA,W`, the second alternative of the ambiguous cell).
#[must_use]
pub fn write_once_always_pushing() -> TablePolicy {
    TablePolicy::new(write_once_table(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use LineState::{Exclusive, Modified, Shareable};

    fn bus(state: LineState, event: BusEvent) -> String {
        write_once()
            .on_bus(state, event, &SnoopCtx::default())
            .to_string()
    }

    #[test]
    fn ambiguous_cell_alternative() {
        let mut p = write_once_always_pushing();
        let r = p.on_bus(
            Modified,
            BusEvent::CacheReadInvalidate,
            &SnoopCtx::default(),
        );
        assert_eq!(r.to_string(), "BS;S,CA,W");
    }

    #[test]
    fn requires_bs() {
        assert!(write_once().requires_bs());
    }

    #[test]
    fn write_once_is_not_a_class_member() {
        // Its signature S/Write action (`E,CA,IM,W`) is not a Table 1 cell,
        // and its M/CacheRead reaction needs BS.
        let report = compat::check_protocol(&mut write_once());
        assert!(!report.is_class_member());
        assert!(
            report.violations().iter().any(|v| v.contains("(S, Write)")),
            "{report}"
        );
        assert!(
            report.violations().iter().any(|v| v.contains("BS")),
            "{report}"
        );
    }

    #[test]
    fn the_table_agrees_it_is_out_of_class() {
        let p = write_once();
        assert!(p.table_is_exact());
        let t = p.policy_table().unwrap();
        assert!(!t.is_class_member());
        assert!(t.requires_bs());
        // No O row: Write-Once dirty data never stays shared.
        for ev in LocalEvent::ALL {
            assert_eq!(t.local(LineState::Owned, ev), None);
        }
        for ev in BusEvent::ALL {
            assert_eq!(t.bus(LineState::Owned, ev), None);
        }
    }

    #[test]
    fn first_write_goes_through_the_bus_second_is_silent() {
        let mut p = write_once();
        let first = p.on_local(Shareable, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(first.bus_op, BusOp::Write);
        assert!(
            !first.signals.bc,
            "write-once invalidates, it does not broadcast"
        );
        let second = p.on_local(Exclusive, LocalEvent::Write, &LocalCtx::default());
        assert!(!second.bus_op.uses_bus());
    }

    #[test]
    fn dirty_lines_push_for_foreign_masters() {
        assert_eq!(bus(Modified, BusEvent::UncachedRead), "BS;S,CA,W");
        assert_eq!(bus(Modified, BusEvent::UncachedWrite), "BS;S,CA,W");
    }
}
