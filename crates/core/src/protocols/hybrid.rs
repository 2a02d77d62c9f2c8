//! A hybrid update/invalidate policy — new with the table-driven engine.

use crate::action::BusReaction;
use crate::event::BusEvent;
use crate::policy::{PolicyTable, Refinement, TablePolicy};
use crate::protocol::{CacheKind, LocalCtx, SnoopCtx};
use crate::state::LineState;

use std::collections::HashMap;

/// Consecutive foreign broadcast writes, with no local reference between
/// them, after which the hybrid invalidates its copy: it tolerates one and
/// invalidates on the second.
const THRESHOLD: u32 = 2;

/// A per-line hybrid between the update (MOESI preferred) and invalidate
/// stances — the "competitive snooping" idea expressed entirely inside the
/// §3 compatible class.
///
/// The preferred table updates a local copy on every snooped broadcast write,
/// which is ideal for actively shared lines but wastes snoop bandwidth on
/// lines this cache has stopped referencing: each foreign write drags the
/// stale copy along forever. The pure invalidating selection
/// ([`moesi_invalidating`](crate::protocols::moesi_invalidating)) drops the
/// copy on the *first* foreign write, which penalises genuine
/// producer/consumer sharing.
///
/// This policy switches per line: it keeps a small counter of *consecutive*
/// snooped broadcast writes to each valid, unowned line. Any local reference
/// to the line resets its counter (the processor is still using it — keep
/// updating). Once two foreign writes go by without a local reference, the
/// line is judged dead here and the second reaction takes the permitted
/// invalidate alternative instead of the update. Owners (M/O) never
/// self-invalidate — they hold the only current copy of the data.
///
/// Both stances are columns of Table 2, so every reaction is a permitted
/// cell and the policy is a member of the compatible class: it can share a
/// bus with any other class member (§3.4). The base table is exactly the
/// preferred table; only the counters are stateful.
#[must_use]
pub fn hybrid() -> TablePolicy {
    TablePolicy::refined(
        PolicyTable::preferred("MOESI-hybrid", CacheKind::CopyBack),
        Refinement::Sharing {
            writes_since_use: HashMap::new(),
        },
    )
}

/// A local reference proves the line is live here: back to updating. The
/// local choice itself is always the table cell.
pub(crate) fn sharing_local(writes_since_use: &mut HashMap<u64, u32>, ctx: &LocalCtx) {
    if let Some(addr) = ctx.line_addr {
        writes_since_use.remove(&addr);
    }
}

/// Counts a snooped broadcast write to a valid, unowned line and, at the
/// threshold, answers with the permitted invalidate alternative. `None`
/// leaves the choice to the table cell.
pub(crate) fn sharing_bus(
    writes_since_use: &mut HashMap<u64, u32>,
    state: LineState,
    event: BusEvent,
    ctx: &SnoopCtx,
) -> Option<BusReaction> {
    // Only foreign broadcast writes to valid, unowned copies count; an
    // owner must keep its line (it may hold the only current data).
    if !(event.is_broadcast() && state.is_valid() && !state.is_owned()) {
        return None;
    }
    let addr = ctx.line_addr?;
    let count = writes_since_use.entry(addr).or_insert(0);
    *count += 1;
    if *count < THRESHOLD {
        return None;
    }
    writes_since_use.remove(&addr);
    super::discard(state, event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ResultState;
    use crate::compat;
    use crate::event::LocalEvent;
    use crate::protocol::Protocol;
    use LineState::{Invalid, Modified, Owned, Shareable};

    fn snoop(addr: u64) -> SnoopCtx {
        SnoopCtx {
            line_addr: Some(addr),
            ..SnoopCtx::default()
        }
    }

    fn touch(addr: u64) -> LocalCtx {
        LocalCtx {
            line_addr: Some(addr),
            ..LocalCtx::default()
        }
    }

    #[test]
    fn first_foreign_write_updates_second_invalidates() {
        let mut p = hybrid();
        let first = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(first.to_string(), "S,CH,SL");
        let second = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(second.result, ResultState::Fixed(Invalid));
        assert!(!second.di);
    }

    #[test]
    fn a_local_reference_resets_the_counter() {
        let mut p = hybrid();
        p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        // The processor touches the line: it is live here again.
        p.on_local(Shareable, LocalEvent::Read, &touch(0x40));
        let next = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(next.to_string(), "S,CH,SL");
    }

    #[test]
    fn lines_are_tracked_independently() {
        let mut p = hybrid();
        p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        let other = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x80));
        assert_eq!(other.to_string(), "S,CH,SL");
        let second = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(second.result, ResultState::Fixed(Invalid));
    }

    #[test]
    fn owners_never_self_invalidate() {
        // The defined owner/broadcast cells of Table 2; (M, col 8) is `—`.
        let cells = [
            (Modified, BusEvent::UncachedBroadcastWrite),
            (Owned, BusEvent::CacheBroadcastWrite),
            (Owned, BusEvent::UncachedBroadcastWrite),
        ];
        let mut p = hybrid();
        for _ in 0..10 {
            for (s, ev) in cells {
                let r = p.on_bus(s, ev, &snoop(0x40));
                for possible in r.result.possible() {
                    assert!(possible.is_valid(), "({s}, {ev}): {r}");
                }
            }
        }
    }

    #[test]
    fn a_clone_counts_on_its_own() {
        let mut p = hybrid();
        p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        let mut q = p.clone();
        // The original moves on: its second write invalidates, its third
        // starts a fresh count and updates.
        let r = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(r.result, ResultState::Fixed(Invalid));
        let r = p.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(r.to_string(), "S,CH,SL");
        // The clone kept the count it was cloned with: its next write is the
        // second.
        let r = q.on_bus(Shareable, BusEvent::CacheBroadcastWrite, &snoop(0x40));
        assert_eq!(r.result, ResultState::Fixed(Invalid));
    }

    #[test]
    fn without_line_identity_it_behaves_as_preferred() {
        // Abstract queries (no line address) can never accumulate a counter.
        let mut p = hybrid();
        for _ in 0..10 {
            let r = p.on_bus(
                Shareable,
                BusEvent::CacheBroadcastWrite,
                &SnoopCtx::default(),
            );
            assert_eq!(r.to_string(), "S,CH,SL");
        }
    }

    #[test]
    fn hybrid_is_a_class_member() {
        let report = compat::check_protocol(&mut hybrid());
        assert!(report.is_class_member(), "{report}");
        let p = hybrid();
        assert!(!p.table_is_exact());
        assert!(p.policy_table().unwrap().is_class_member());
    }

    #[test]
    fn non_broadcast_modifications_still_invalidate_via_the_table() {
        // CacheReadInvalidate is not a broadcast: the preferred cell already
        // kills the copy; the counter plays no part.
        let mut p = hybrid();
        let r = p.on_bus(Shareable, BusEvent::CacheReadInvalidate, &snoop(0x40));
        assert_eq!(r.result, ResultState::Fixed(Invalid));
    }
}
