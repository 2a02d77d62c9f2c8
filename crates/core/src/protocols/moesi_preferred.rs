//! The preferred MOESI protocol: the first entry of every cell of Tables 1–2.

use crate::policy::{PolicyTable, TablePolicy};
use crate::protocol::CacheKind;

/// A copy-back cache that always takes the paper's preferred action.
///
/// "The preferred protocol choice (from Tables 1, 2) was always the first
/// entry in a given box. That preference is based on results from
/// \[Arch85\]" (§5.2). In particular it broadcasts writes to shared lines
/// rather than invalidating, and uses the one-transaction read-for-modify on
/// write misses.
///
/// As a table this is exactly [`PolicyTable::preferred`] — the base every
/// other class member overrides cell by cell.
///
/// # Examples
///
/// ```
/// use moesi::protocols::moesi_preferred;
/// use moesi::{BusEvent, LineState, Protocol, SnoopCtx};
///
/// let mut p = moesi_preferred();
/// let r = p.on_bus(LineState::Modified, BusEvent::CacheRead, &SnoopCtx::default());
/// assert_eq!(r.to_string(), "O,CH,DI");
/// ```
#[must_use]
pub fn moesi_preferred() -> TablePolicy {
    TablePolicy::new(PolicyTable::preferred("MOESI", CacheKind::CopyBack))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{BusOp, BusReaction, LocalAction, ResultState};
    use crate::event::{BusEvent, LocalEvent};
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
    use crate::signals::MasterSignals;
    use crate::state::LineState;
    use LineState::{Exclusive, Invalid, Modified, Owned, Shareable};

    fn local(state: LineState, event: LocalEvent) -> LocalAction {
        moesi_preferred().on_local(state, event, &LocalCtx::default())
    }

    fn bus(state: LineState, event: BusEvent) -> BusReaction {
        moesi_preferred().on_bus(state, event, &SnoopCtx::default())
    }

    #[test]
    fn read_miss_uses_ch_to_pick_s_or_e() {
        let a = local(Invalid, LocalEvent::Read);
        assert_eq!(a.result, ResultState::CH_S_E);
        assert_eq!(a.bus_op, BusOp::Read);
        assert_eq!(a.signals, MasterSignals::CA);
    }

    #[test]
    fn write_miss_is_one_read_for_modify_transaction() {
        let a = local(Invalid, LocalEvent::Write);
        assert_eq!(a.result, ResultState::Fixed(Modified));
        assert_eq!(a.bus_op, BusOp::Read);
        assert_eq!(a.signals, MasterSignals::CA_IM);
    }

    #[test]
    fn shared_write_prefers_broadcast_update() {
        for s in [Owned, Shareable] {
            let a = local(s, LocalEvent::Write);
            assert_eq!(a.signals, MasterSignals::CA_IM_BC);
            assert_eq!(a.bus_op, BusOp::Write);
            assert_eq!(a.result, ResultState::CH_O_M);
        }
    }

    #[test]
    fn exclusive_write_is_silent() {
        assert_eq!(
            local(Exclusive, LocalEvent::Write),
            LocalAction::silent(Modified)
        );
        assert_eq!(
            local(Modified, LocalEvent::Write),
            LocalAction::silent(Modified)
        );
    }

    #[test]
    fn snooped_read_downgrades_and_intervenes() {
        let r = bus(Modified, BusEvent::CacheRead);
        assert!(r.di && r.ch);
        assert_eq!(r.result, ResultState::Fixed(Owned));
        let r = bus(Exclusive, BusEvent::CacheRead);
        assert!(!r.di && r.ch);
        assert_eq!(r.result, ResultState::Fixed(Shareable));
    }

    #[test]
    fn owner_regains_exclusivity_after_uncached_read_with_no_other_sharers() {
        let r = bus(Owned, BusEvent::UncachedRead);
        assert_eq!(r.result.resolve(false), Modified);
        assert_eq!(r.result.resolve(true), Owned);
        assert!(r.di && !r.ch, "the owner listens rather than asserting CH");
    }

    #[test]
    fn broadcast_write_updates_snoopers() {
        for s in [Owned, Shareable] {
            let r = bus(s, BusEvent::CacheBroadcastWrite);
            assert!(r.sl && r.ch);
            assert_eq!(r.result, ResultState::Fixed(Shareable));
        }
    }

    #[test]
    #[should_panic(expected = "error-condition")]
    fn snooping_broadcast_write_in_modified_is_an_error() {
        bus(Modified, BusEvent::CacheBroadcastWrite);
    }

    #[test]
    #[should_panic(expected = "no action")]
    fn pass_from_invalid_is_an_error() {
        local(Invalid, LocalEvent::Pass);
    }

    #[test]
    fn never_requires_bs() {
        assert!(!moesi_preferred().requires_bs());
        assert_eq!(moesi_preferred().kind(), CacheKind::CopyBack);
        assert_eq!(moesi_preferred().name(), "MOESI");
    }

    #[test]
    fn is_an_exact_table() {
        let p = moesi_preferred();
        assert!(p.table_is_exact());
        let t = p.policy_table().unwrap();
        assert!(t.is_class_member());
        assert_eq!(t.populated_cells(), 16 + 28);
    }
}
