//! An invalidation-flavoured member of the MOESI class.

use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;
use crate::state::LineState;
use crate::table;

/// The invalidating table: the preferred table with the `M,CA,IM` write
/// alternative on non-exclusive states and the trailing `I` alternative on
/// snooped broadcasts. (An O holder snooping an uncached broadcast has no `I`
/// alternative — it must stay the owner — so that cell keeps the preferred
/// entry.)
fn invalidating_table() -> PolicyTable {
    let mut t = PolicyTable::preferred("MOESI-inv", CacheKind::CopyBack);
    for state in LineState::ALL {
        if state.is_non_exclusive() {
            let permitted = table::permitted_local(state, LocalEvent::Write, CacheKind::CopyBack);
            t.set_local(state, LocalEvent::Write, permitted[1]);
        }
        for event in BusEvent::ALL {
            if !(event.is_broadcast() && state.is_valid()) {
                continue;
            }
            if let Some(inv) = super::discard(state, event) {
                t.set_bus(state, event, inv);
            }
        }
    }
    t
}

/// A copy-back MOESI cache that invalidates rather than updates.
///
/// Where [`moesi_preferred`](crate::protocols::moesi_preferred) broadcasts
/// writes to shared lines (`CH:O/M,CA,IM,BC,W`), this protocol takes the
/// listed alternative `M,CA,IM` — an address-only invalidate — and, when
/// snooping another master's broadcast write, takes the `I` alternative
/// instead of updating. Both choices are cells of Tables 1–2, so this protocol
/// is a class member and can share a bus with updating caches; §5.2's
/// discussion of invalidate-versus-broadcast is exactly the comparison between
/// this protocol and the preferred one.
#[must_use]
pub fn moesi_invalidating() -> TablePolicy {
    TablePolicy::new(invalidating_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{BusOp, BusReaction, LocalAction, ResultState};
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use crate::signals::MasterSignals;
    use LineState::{Invalid, Modified, Owned, Shareable};

    fn local(state: LineState, event: LocalEvent) -> LocalAction {
        moesi_invalidating().on_local(state, event, &LocalCtx::default())
    }

    fn bus(state: LineState, event: BusEvent) -> BusReaction {
        moesi_invalidating().on_bus(state, event, &SnoopCtx::default())
    }

    #[test]
    fn shared_writes_invalidate_instead_of_broadcasting() {
        for s in [Owned, Shareable] {
            let a = local(s, LocalEvent::Write);
            assert_eq!(a.bus_op, BusOp::AddressOnly);
            assert_eq!(a.signals, MasterSignals::CA_IM);
            assert_eq!(a.result, ResultState::Fixed(Modified));
        }
    }

    #[test]
    fn snooped_broadcast_writes_are_discarded_not_updated() {
        let r = bus(Shareable, BusEvent::CacheBroadcastWrite);
        assert_eq!(r.result, ResultState::Fixed(Invalid));
        assert!(!r.sl && !r.ch);
        let r = bus(Shareable, BusEvent::UncachedBroadcastWrite);
        assert_eq!(r.result, ResultState::Fixed(Invalid));
    }

    #[test]
    fn owners_still_relinquish_per_the_table() {
        let r = bus(Owned, BusEvent::CacheBroadcastWrite);
        assert_eq!(r.result, ResultState::Fixed(Invalid));
    }

    #[test]
    fn everything_else_matches_the_preferred_protocol() {
        use crate::protocols::moesi_preferred;
        let mut pref = moesi_preferred();
        let mut inv = moesi_invalidating();
        let ctx = SnoopCtx::default();
        for s in LineState::ALL {
            for ev in [
                BusEvent::CacheRead,
                BusEvent::CacheReadInvalidate,
                BusEvent::UncachedRead,
                BusEvent::UncachedWrite,
            ] {
                if table::permitted_bus(s, ev).is_empty() {
                    continue;
                }
                assert_eq!(
                    pref.on_bus(s, ev, &ctx),
                    inv.on_bus(s, ev, &ctx),
                    "({s}, {ev})"
                );
            }
        }
        let lctx = LocalCtx::default();
        for s in LineState::ALL {
            for ev in [LocalEvent::Read, LocalEvent::Pass, LocalEvent::Flush] {
                if table::permitted_local(s, ev, CacheKind::CopyBack).is_empty() {
                    continue;
                }
                assert_eq!(
                    pref.on_local(s, ev, &lctx),
                    inv.on_local(s, ev, &lctx),
                    "({s}, {ev})"
                );
            }
        }
    }

    #[test]
    fn the_table_is_exact_and_in_class() {
        let p = moesi_invalidating();
        assert!(p.table_is_exact());
        assert!(p.policy_table().unwrap().is_class_member());
    }
}
