//! The §3.4 "extreme case": random selection from the permitted sets.

use crate::action::{BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, Refinement, TablePolicy};
use crate::protocol::CacheKind;
use crate::rng::SmallRng;
use crate::state::LineState;
use crate::table;

/// A protocol that picks a permitted action uniformly at random every time.
///
/// §3.4: "As an extreme case, it would introduce no errors if a board were to
/// select an action at each instant from the available set using a random
/// number generator or a selection algorithm such as round robin." This
/// policy exists to *test* that claim: a system mixing random caches with
/// every other class member must still satisfy the consistency oracle.
///
/// The uniform pick refines the preferred table: it answers every cell with
/// a non-empty permitted set (so the static cells are never consulted), and
/// the table supplies only the name, kind, and the `IllegalCell` error for
/// `—` cells. `seed` makes the sequence of picks reproducible.
///
/// # Examples
///
/// ```
/// use moesi::protocols::random;
/// use moesi::{CacheKind, LineState, LocalCtx, LocalEvent, Protocol, table};
///
/// let mut p = random(CacheKind::CopyBack, 42);
/// let a = p.on_local(LineState::Shareable, LocalEvent::Write, &LocalCtx::default());
/// let permitted = table::permitted_local(LineState::Shareable, LocalEvent::Write, CacheKind::CopyBack);
/// assert!(permitted.contains(&a));
/// ```
#[must_use]
pub fn random(kind: CacheKind, seed: u64) -> TablePolicy {
    TablePolicy::refined(
        PolicyTable::preferred("random", kind),
        Refinement::Uniform {
            rng: SmallRng::seed_from_u64(seed),
        },
    )
}

/// A uniform pick from the cell's permitted set; `None` (no draw) for a `—`
/// cell.
pub(crate) fn uniform_local(
    rng: &mut SmallRng,
    state: LineState,
    event: LocalEvent,
    kind: CacheKind,
) -> Option<LocalAction> {
    let permitted = table::permitted_local(state, event, kind);
    if permitted.is_empty() {
        return None;
    }
    Some(permitted[rng.gen_range(0..permitted.len())])
}

/// A uniform pick from the cell's permitted set. A non-caching client never
/// reacts (and draws nothing); `None` (no draw) for a `—` cell.
pub(crate) fn uniform_bus(
    rng: &mut SmallRng,
    state: LineState,
    event: BusEvent,
    kind: CacheKind,
) -> Option<BusReaction> {
    if kind == CacheKind::NonCaching {
        return Some(BusReaction::IGNORE);
    }
    let permitted = table::permitted_bus(state, event);
    if permitted.is_empty() {
        return None;
    }
    Some(permitted[rng.gen_range(0..permitted.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{LocalCtx, Protocol, SnoopCtx};

    #[test]
    fn choices_are_always_permitted() {
        let mut p = random(CacheKind::CopyBack, 7);
        for _ in 0..200 {
            for state in LineState::ALL {
                for event in LocalEvent::ALL {
                    let permitted = table::permitted_local(state, event, CacheKind::CopyBack);
                    if permitted.is_empty() {
                        continue;
                    }
                    let a = p.on_local(state, event, &LocalCtx::default());
                    assert!(permitted.contains(&a), "({state}, {event}): {a}");
                }
                for event in BusEvent::ALL {
                    let permitted = table::permitted_bus(state, event);
                    if permitted.is_empty() {
                        continue;
                    }
                    let r = p.on_bus(state, event, &SnoopCtx::default());
                    assert!(permitted.contains(&r), "({state}, {event}): {r}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = random(CacheKind::CopyBack, 99);
        let mut b = random(CacheKind::CopyBack, 99);
        for _ in 0..50 {
            assert_eq!(
                a.on_local(
                    LineState::Shareable,
                    LocalEvent::Write,
                    &LocalCtx::default()
                ),
                b.on_local(
                    LineState::Shareable,
                    LocalEvent::Write,
                    &LocalCtx::default()
                )
            );
        }
    }

    #[test]
    fn a_clone_draws_from_its_own_generator() {
        let ctx = LocalCtx::default();
        let mut p = random(CacheKind::CopyBack, 11);
        p.on_local(LineState::Shareable, LocalEvent::Write, &ctx);
        let mut q = p.clone();
        let ahead: Vec<_> = (0..20)
            .map(|_| p.on_local(LineState::Shareable, LocalEvent::Write, &ctx))
            .collect();
        // The clone replays the original's picks from the clone point on,
        // however far the original has drawn since.
        let behind: Vec<_> = (0..20)
            .map(|_| q.on_local(LineState::Shareable, LocalEvent::Write, &ctx))
            .collect();
        assert_eq!(ahead, behind);
    }

    #[test]
    fn eventually_explores_every_alternative() {
        let mut p = random(CacheKind::CopyBack, 3);
        let permitted =
            table::permitted_local(LineState::Shareable, LocalEvent::Write, CacheKind::CopyBack);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(p.on_local(
                LineState::Shareable,
                LocalEvent::Write,
                &LocalCtx::default(),
            ));
        }
        assert_eq!(seen.len(), permitted.len());
    }

    #[test]
    fn non_caching_random_never_reacts() {
        let mut p = random(CacheKind::NonCaching, 5);
        for ev in BusEvent::ALL {
            assert_eq!(
                p.on_bus(LineState::Invalid, ev, &SnoopCtx::default()),
                BusReaction::IGNORE
            );
        }
    }

    #[test]
    fn the_base_table_is_preferred_but_not_exact() {
        let p = random(CacheKind::CopyBack, 1);
        assert!(!p.table_is_exact());
        assert!(p.policy_table().unwrap().is_class_member());
    }
}
