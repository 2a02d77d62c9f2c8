//! Differential test between the §3.4 random selector and the exhaustive
//! explorer: over a long run, every action the `random` policy picks is a member
//! of the permitted set the explorer branches on for the same table cell.
//!
//! The explorer's `full-table` modules branch over the permitted sets
//! `table::permitted_local`/`table::permitted_bus` return; the membership
//! oracle here is built from `table::local_cells`/`table::bus_cells`, which
//! enumerate those same sets, so a selector reaching outside the tables is
//! caught.

use moesi::protocols::random;
use moesi::{table, BusEvent, CacheKind, LineState, LocalCtx, LocalEvent, Protocol, SnoopCtx};
use std::collections::HashMap;

#[test]
fn every_random_choice_is_in_the_explored_set() {
    for kind in [
        CacheKind::CopyBack,
        CacheKind::WriteThrough,
        CacheKind::NonCaching,
    ] {
        let local_sets: HashMap<(LineState, LocalEvent), Vec<moesi::LocalAction>> =
            table::local_cells(kind)
                .map(|(s, e, set)| ((s, e), set))
                .collect();
        let bus_sets: HashMap<(LineState, BusEvent), Vec<moesi::BusReaction>> = table::bus_cells()
            .map(|(s, e, set)| ((s, e), set))
            .collect();

        let mut policy = random(kind, 0xC0FFEE);
        for round in 0..500u32 {
            for state in LineState::ALL {
                for event in LocalEvent::ALL {
                    let set = &local_sets[&(state, event)];
                    if set.is_empty() {
                        continue; // error cell: the policy is never consulted
                    }
                    let ctx = LocalCtx {
                        recency_rank: Some(round % 4),
                        ways: 4,
                        line_addr: None,
                    };
                    let a = policy.on_local(state, event, &ctx);
                    assert!(
                        set.contains(&a),
                        "{kind}: ({state}, {event}) chose {a}, not in the explored set"
                    );
                }
                if kind == CacheKind::NonCaching {
                    continue; // never snoops; the controller filters it out
                }
                for event in BusEvent::ALL {
                    let set = &bus_sets[&(state, event)];
                    if set.is_empty() {
                        continue;
                    }
                    let ctx = SnoopCtx {
                        recency_rank: Some(round % 4),
                        ways: 4,
                        line_addr: None,
                    };
                    let r = policy.on_bus(state, event, &ctx);
                    assert!(
                        set.contains(&r),
                        "{kind}: ({state}, {event}) reacted {r}, not in the explored set"
                    );
                }
            }
        }
    }
}

/// The explorer folds `random` into `full-table` (a random selector can pick
/// any permitted entry, so the full branch is its exhaustive closure); this
/// pins that the fold is sound — the selector's support never exceeds the
/// fold's branch set, per the membership test above — and that the folded
/// configuration verifies clean.
#[test]
fn the_random_fold_verifies_clean() {
    let report = verify::verify_protocol("random", 2, &verify::Shape::default()).unwrap();
    assert!(report.verified(), "{report}");
}
