//! The write-through cache member of the class (§3.3, items 6–8).

use crate::event::LocalEvent;
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::state::LineState;
use crate::table;

/// The write-through table: the preferred write-through-kind table with the
/// write cells picked by the `broadcast` / `allocate_on_write` flags.
fn write_through_table(broadcast: bool, allocate_on_write: bool) -> PolicyTable {
    let mut t = PolicyTable::preferred("write-through", CacheKind::WriteThrough);
    // `S,IM,BC,W` (index 0) or `S,IM,W` (index 1).
    let shared = table::permitted_local(
        LineState::Shareable,
        LocalEvent::Write,
        CacheKind::WriteThrough,
    );
    t.set_local(
        LineState::Shareable,
        LocalEvent::Write,
        shared[usize::from(!broadcast)],
    );
    let miss = table::permitted_local(
        LineState::Invalid,
        LocalEvent::Write,
        CacheKind::WriteThrough,
    );
    let pick = if allocate_on_write {
        2 // Read>Write (§3.3 item 6)
    } else {
        usize::from(!broadcast)
    };
    t.set_local(LineState::Invalid, LocalEvent::Write, miss[pick]);
    t
}

/// A write-through cache: two states, V (≡ S) and I.
///
/// "A write through cache is not capable of ownership" (§3.3); it writes
/// through on every write, asserts CA on reads, and invalidates on any
/// non-broadcast write it snoops. On snooped broadcast writes it may either
/// update itself or invalidate; this implementation updates.
///
/// Two flavours differ in whether writes assert BC: this one broadcasts its
/// writes (`S,IM,BC,W`: column 10 for snoopers, letting them update),
/// [`write_through_non_broadcasting`] does not (column 9, forcing them to
/// invalidate). [`write_through_allocating`] reads the line in on a write
/// miss.
#[must_use]
pub fn write_through() -> TablePolicy {
    TablePolicy::new(write_through_table(true, false))
}

/// A write-through cache whose writes are not broadcast (`S,IM,W`).
#[must_use]
pub fn write_through_non_broadcasting() -> TablePolicy {
    TablePolicy::new(write_through_table(false, false))
}

/// A broadcasting write-through cache with write-allocate: a write miss
/// reads the line first (`Read>Write`, §3.3 item 6).
#[must_use]
pub fn write_through_allocating() -> TablePolicy {
    TablePolicy::new(write_through_table(true, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{BusOp, LocalAction, ResultState};
    use crate::event::BusEvent;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use crate::signals::MasterSignals;
    use LineState::{Invalid, Shareable};

    #[test]
    fn writes_go_through_retaining_the_copy() {
        let mut p = write_through();
        let a = p.on_local(Shareable, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(a.to_string(), "S,IM,BC,W");
        assert!(!a.signals.ca, "write-through writes do not assert CA");
        let mut q = write_through_non_broadcasting();
        let a = q.on_local(Shareable, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(a.to_string(), "S,IM,W");
    }

    #[test]
    fn read_miss_asserts_ca_and_enters_v() {
        let mut p = write_through();
        let a = p.on_local(Invalid, LocalEvent::Read, &LocalCtx::default());
        assert_eq!(a.signals, MasterSignals::CA);
        assert_eq!(a.result, ResultState::Fixed(Shareable));
        assert_eq!(a.bus_op, BusOp::Read);
    }

    #[test]
    fn write_miss_writes_past_unless_allocating() {
        let mut p = write_through();
        let a = p.on_local(Invalid, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(a.to_string(), "I,IM,BC,W");

        let mut alloc = write_through_allocating();
        let a = alloc.on_local(Invalid, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(a.bus_op, BusOp::ReadThenWrite);
    }

    #[test]
    fn non_broadcasting_allocate_keeps_the_read_then_write() {
        let mut alloc = TablePolicy::new(write_through_table(false, true));
        let a = alloc.on_local(Invalid, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(a.bus_op, BusOp::ReadThenWrite);
        let a = alloc.on_local(Shareable, LocalEvent::Write, &LocalCtx::default());
        assert_eq!(a.to_string(), "S,IM,W", "broadcast flag survives");
    }

    #[test]
    fn snooped_non_broadcast_writes_invalidate() {
        // §3.3 item 8: "On a non-broadcast write (cols. 6, 9), it must become
        // invalid, since it is not capable of intervention or ownership."
        let mut p = write_through();
        for ev in [BusEvent::CacheReadInvalidate, BusEvent::UncachedWrite] {
            let r = p.on_bus(Shareable, ev, &SnoopCtx::default());
            assert_eq!(r.result, ResultState::Fixed(Invalid), "{ev}");
            assert!(!r.di);
        }
    }

    #[test]
    fn snooped_reads_leave_the_copy_valid() {
        let mut p = write_through();
        for ev in [BusEvent::CacheRead, BusEvent::UncachedRead] {
            let r = p.on_bus(Shareable, ev, &SnoopCtx::default());
            assert_eq!(r.result, ResultState::Fixed(Shareable), "{ev}");
            assert!(r.ch);
        }
    }

    #[test]
    fn snooped_broadcast_writes_update() {
        let mut p = write_through();
        for ev in [
            BusEvent::CacheBroadcastWrite,
            BusEvent::UncachedBroadcastWrite,
        ] {
            let r = p.on_bus(Shareable, ev, &SnoopCtx::default());
            assert!(r.sl, "{ev}");
            assert_eq!(r.result, ResultState::Fixed(Shareable));
        }
    }

    #[test]
    fn flush_is_silent() {
        let mut p = write_through();
        let a = p.on_local(Shareable, LocalEvent::Flush, &LocalCtx::default());
        assert_eq!(a, LocalAction::silent(Invalid));
    }

    #[test]
    fn every_flavour_is_an_exact_class_member_table() {
        for p in [
            write_through(),
            write_through_non_broadcasting(),
            write_through_allocating(),
        ] {
            assert!(p.table_is_exact());
            assert!(p.policy_table().unwrap().is_class_member());
        }
    }
}
