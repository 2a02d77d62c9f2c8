//! The §5.2 replacement-status refinement (after Puzak, Rechtschaffen & So).

use crate::action::BusReaction;
use crate::event::BusEvent;
use crate::policy::{PolicyTable, Refinement, TablePolicy};
use crate::protocol::{CacheKind, SnoopCtx};
use crate::state::LineState;

/// A MOESI cache that chooses update-versus-invalidate by replacement status.
///
/// §5.2: "A refinement ... is to have a cache examine the replacement status
/// of a line written by another cache. If the line is quite recently used
/// (e.g. most recently used element of two element set), it can be updated,
/// and if it is nearing time for replacement (e.g. least recently used element
/// of two element set), it can be discarded."
///
/// Both choices are listed alternatives of the same Table 2 cells, so the
/// refinement is itself a class member. Locally it behaves like the preferred
/// protocol (broadcasting writes to shared lines). As a table policy the
/// preferred table is the base and the recency check refines the snoop side
/// only.
#[must_use]
pub fn puzak() -> TablePolicy {
    TablePolicy::refined(
        PolicyTable::preferred("MOESI-puzak", CacheKind::CopyBack),
        Refinement::Recency,
    )
}

/// The recency check: on a snooped broadcast to an unowned valid line that
/// is nearing replacement, take the trailing `I` alternative of the
/// permitted set instead of the preferred update. `None` leaves the choice
/// to the table cell.
pub(crate) fn recency_bus(
    state: LineState,
    event: BusEvent,
    ctx: &SnoopCtx,
) -> Option<BusReaction> {
    if !(event.is_broadcast() && state.is_valid() && !state.is_owned() && ctx.near_replacement()) {
        return None;
    }
    // The line is about to be evicted anyway: take the `I` alternative
    // instead of spending an update on it.
    super::discard(state, event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ResultState;
    use crate::protocol::Protocol;
    use LineState::{Invalid, Shareable};

    #[test]
    fn mru_lines_are_updated() {
        let mut p = puzak();
        let ctx = SnoopCtx {
            recency_rank: Some(0),
            ways: 2,
            line_addr: None,
        };
        let r = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &ctx);
        assert!(r.sl, "MRU line should connect and update");
        assert_eq!(r.result, ResultState::Fixed(Shareable));
    }

    #[test]
    fn lru_lines_are_discarded() {
        let mut p = puzak();
        let ctx = SnoopCtx {
            recency_rank: Some(1),
            ways: 2,
            line_addr: None,
        };
        let r = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &ctx);
        assert!(!r.sl);
        assert_eq!(r.result, ResultState::Fixed(Invalid));
    }

    #[test]
    fn owners_never_discard_on_uncached_broadcasts() {
        // An O holder snooping column 10 must keep updating: it stays the
        // owner. The refinement only applies to unowned copies.
        let mut p = puzak();
        let ctx = SnoopCtx {
            recency_rank: Some(3),
            ways: 4,
            line_addr: None,
        };
        let r = p.on_bus(LineState::Owned, BusEvent::UncachedBroadcastWrite, &ctx);
        assert!(r.sl);
        assert_eq!(r.result, ResultState::Fixed(LineState::Owned));
    }

    #[test]
    fn non_broadcast_events_are_unaffected() {
        let mut p = puzak();
        let lru = SnoopCtx {
            recency_rank: Some(1),
            ways: 2,
            line_addr: None,
        };
        let r = p.on_bus(Shareable, BusEvent::CacheRead, &lru);
        assert!(r.ch);
        assert_eq!(r.result, ResultState::Fixed(Shareable));
    }

    #[test]
    fn the_base_table_is_preferred_but_not_exact() {
        let p = puzak();
        assert!(!p.table_is_exact(), "the recency check is stateful");
        let t = p.policy_table().unwrap();
        assert!(t.is_class_member());
        assert_eq!(t.name(), "MOESI-puzak");
    }
}
