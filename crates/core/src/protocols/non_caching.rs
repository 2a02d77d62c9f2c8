//! The non-caching processor member of the class (§3.3, `**` entries).

use crate::event::LocalEvent;
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::state::LineState;
use crate::table;

/// The non-caching table: only the Invalid row exists; the `broadcast` flag
/// picks which write entry (`I,IM,BC,W` vs `I,IM,W`) is used.
fn non_caching_table(broadcast: bool) -> PolicyTable {
    let mut t = PolicyTable::preferred("non-caching", CacheKind::NonCaching);
    let writes =
        table::permitted_local(LineState::Invalid, LocalEvent::Write, CacheKind::NonCaching);
    t.set_local(
        LineState::Invalid,
        LocalEvent::Write,
        writes[usize::from(!broadcast)],
    );
    t
}

/// A processor (or I/O device) without a cache.
///
/// "Such a processor writes with or without broadcast (as with a write
/// through cache), and reads without asserting CA. A non-caching unit never
/// responds to bus events" (§3.3) — its only populated bus row is the
/// Invalid one, and every cell of it is `I` (ignore).
///
/// This one writes without broadcast (`I,IM,W`: column 9 to snoopers);
/// [`non_caching_broadcasting`] asserts BC so caching snoopers can update
/// instead of invalidating (column 10).
#[must_use]
pub fn non_caching() -> TablePolicy {
    TablePolicy::new(non_caching_table(false))
}

/// A non-caching unit that broadcasts its writes (`I,IM,BC,W`).
#[must_use]
pub fn non_caching_broadcasting() -> TablePolicy {
    TablePolicy::new(non_caching_table(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::BusReaction;
    use crate::event::BusEvent;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use LineState::Invalid;

    #[test]
    fn reads_do_not_assert_ca() {
        let mut p = non_caching();
        let a = p.on_local(Invalid, LocalEvent::Read, &LocalCtx::default());
        assert_eq!(a.to_string(), "I,R");
        assert!(!a.signals.ca && !a.signals.im);
    }

    #[test]
    fn writes_with_and_without_broadcast() {
        let mut plain = non_caching();
        assert_eq!(
            plain
                .on_local(Invalid, LocalEvent::Write, &LocalCtx::default())
                .to_string(),
            "I,IM,W"
        );
        let mut bcast = non_caching_broadcasting();
        assert_eq!(
            bcast
                .on_local(Invalid, LocalEvent::Write, &LocalCtx::default())
                .to_string(),
            "I,IM,BC,W"
        );
    }

    #[test]
    fn never_responds_to_bus_events() {
        let mut p = non_caching();
        for ev in BusEvent::ALL {
            assert_eq!(
                p.on_bus(Invalid, ev, &SnoopCtx::default()),
                BusReaction::IGNORE
            );
        }
    }

    #[test]
    #[should_panic(expected = "no action")]
    fn flush_makes_no_sense_without_a_cache() {
        non_caching().on_local(Invalid, LocalEvent::Flush, &LocalCtx::default());
    }

    #[test]
    fn the_table_only_populates_the_invalid_row() {
        let p = non_caching();
        assert!(p.table_is_exact());
        let t = p.policy_table().unwrap();
        assert!(t.is_class_member());
        for state in LineState::ALL {
            if state != Invalid {
                for ev in BusEvent::ALL {
                    assert_eq!(t.bus(state, ev), None, "({state}, {ev})");
                }
            }
        }
    }
}
