//! Exhaustive-verification acceptance tests: every shipped protocol and
//! every protocol pair explores clean, and a deliberately corrupted table
//! yields a counterexample that replays deterministically.

use moesi::protocols::Choices;
use moesi::{
    BusEvent, BusReaction, CacheKind, LineState, LocalAction, LocalEvent, PolicyTable, TablePolicy,
};
use mpsim::replay::Failure;
use mpsim::Violation;
use verify::{
    class_compatible, explore, verify_class, verify_matrix, verify_pair, verify_protocol, Limits,
    Shape, MATRIX_PROTOCOLS,
};

fn stale_memory(defect: &Failure) -> bool {
    matches!(defect, Failure::Violation(Violation::StaleMemory { .. }))
}

fn small() -> Shape {
    Shape::default() // 1 line, 2 values
}

/// Every shipped protocol, homogeneous, 2 caches × 1 line × 2 values: the
/// whole reachable space is clean.
#[test]
fn every_shipped_protocol_is_self_compatible() {
    for name in MATRIX_PROTOCOLS {
        let report = verify_protocol(name, 2, &small()).expect("known name");
        assert!(report.verified(), "{name}: {report}");
        assert!(report.explored > 1, "{name}: degenerate space ({report})");
    }
}

/// The full pair-wise compatibility matrix (including the diagonal and the
/// `full-table` class-at-large row): every pair verifies clean except the
/// documented Write-Once × owner-capable clashes, which must fail — and fail
/// with exactly the stale-memory defect the §4.3 adaptation leaves open.
#[test]
fn the_full_pairwise_matrix_matches_the_compatibility_claims() {
    let rows = verify_matrix(&MATRIX_PROTOCOLS, &small());
    let n = MATRIX_PROTOCOLS.len();
    assert_eq!(rows.len(), n * (n + 1) / 2);
    for (a, b, report) in rows {
        if class_compatible(&a, &b) {
            assert!(report.verified(), "{a} + {b}: {report}");
        } else {
            let cx = report.counterexample.as_ref().unwrap_or_else(|| {
                panic!("{a} + {b}: expected the known incompatibility, got {report}")
            });
            assert!(stale_memory(&cx.defect), "{a} + {b}: {report}");
        }
    }
}

/// The known Write-Once incompatibility is a minimal schedule that replays
/// on a fresh machine and fails the same way at the same step.
#[test]
fn the_write_once_incompatibility_replays() {
    let report = verify_pair("moesi", "write-once", &small()).expect("known names");
    let cx = report.counterexample.expect("known incompatibility");
    assert!(stale_memory(&cx.defect), "{}", cx.defect);
    assert_eq!(cx.trace.steps.len(), 3, "minimal schedule:\n{}", cx.trace);

    let outcome = mpsim::replay::replay(&cx.trace, false);
    let (step, failure) = outcome.failure.expect("the replay agrees");
    assert_eq!(step, 2, "failure at the last step:\n{}", cx.trace);
    assert_eq!(failure, cx.defect);
    assert_eq!(outcome.script_underflows, 0);
}

/// Three caches branching over the entire permitted sets — the §3.4
/// "extreme case" where every module may follow a different member protocol
/// on every single transaction.
#[test]
fn three_full_table_caches_verify_clean() {
    let report = verify_class(&[CacheKind::CopyBack; 3], &small());
    assert!(report.verified(), "{report}");
}

/// Mixed client kinds on one bus: copy-back, write-through and non-caching,
/// each over its full permitted set.
#[test]
fn mixed_kind_class_verifies_clean() {
    let report = verify_class(
        &[
            CacheKind::CopyBack,
            CacheKind::WriteThrough,
            CacheKind::NonCaching,
        ],
        &small(),
    );
    assert!(report.verified(), "{report}");
}

/// Two lines interact: each cache holds one line, so filling one evicts the
/// other (with a write-back when it is owned). The space grows, but stays
/// below the product of two independent lines, and the invariants hold.
#[test]
fn two_lines_interact() {
    let shape = Shape {
        lines: 2,
        ..Shape::default()
    };
    let one = verify_class(&[CacheKind::CopyBack; 2], &Shape::default());
    let two = verify_class(&[CacheKind::CopyBack; 2], &shape);
    assert!(two.verified(), "{two}");
    assert!(
        one.explored < two.explored && two.explored < one.explored * one.explored,
        "two lines: {} states against {} for one",
        two.explored,
        one.explored
    );
}

/// The state cap truncates the search rather than hanging.
#[test]
fn the_state_cap_truncates_cleanly() {
    let shape = Shape {
        limits: Limits { max_states: 5 },
        ..Shape::default()
    };
    let report = verify_class(&[CacheKind::CopyBack; 2], &shape);
    assert!(report.truncated);
    assert!(!report.verified());
    assert_eq!(report.explored, 5);
    assert!(report.counterexample.is_none());
}

/// `n` modules, each running the preferred copy-back table with one cell
/// corrupted by `corrupt`.
fn corrupted(n: usize, corrupt: impl Fn(&mut PolicyTable)) -> Vec<Choices> {
    (0..n)
        .map(|_| {
            let mut table = PolicyTable::preferred("corrupted", CacheKind::CopyBack);
            corrupt(&mut table);
            Choices::Protocol(Box::new(TablePolicy::new(table)))
        })
        .collect()
}

/// Explores `modules`, then checks the counterexample: at most three steps,
/// and a replay that fails the same way at the same step, run after run,
/// with every decision scripted.
fn assert_minimal_and_replayable(modules: Vec<Choices>) {
    let report = explore(modules, &small(), true);
    let cx = report
        .counterexample
        .expect("the corruption must be caught");
    assert!(
        cx.trace.steps.len() <= 3,
        "BFS promises a minimal schedule, got {} steps:\n{}",
        cx.trace.steps.len(),
        cx.trace
    );
    let last = cx.trace.steps.len() - 1;
    let first = mpsim::replay::replay(&cx.trace, true);
    assert_eq!(
        first.failure,
        Some((last, cx.defect.clone())),
        "replay missed:\n{}",
        cx.trace
    );
    assert_eq!(
        first.script_underflows, 0,
        "trace/machine decision mismatch"
    );
    let second = mpsim::replay::replay(&cx.trace, true);
    assert_eq!(
        first.failure, second.failure,
        "replay must be deterministic"
    );
}

/// Corrupt Table 2 so a Shareable snooper *keeps its copy* through a
/// read-invalidate. Three modules: two share the line, and the third's
/// write miss invalidates neither.
#[test]
fn corrupted_invalidation_row_yields_a_replayable_counterexample() {
    assert_minimal_and_replayable(corrupted(3, |t| {
        t.set_bus_unchecked(
            LineState::Shareable,
            BusEvent::CacheReadInvalidate,
            BusReaction::hit(LineState::Shareable),
        );
    }));
}

/// A corrupted *local* row: silent writes from Shareable (skipping the
/// invalidate) leave stale copies elsewhere; the explorer catches it.
#[test]
fn corrupted_local_row_is_caught() {
    assert_minimal_and_replayable(corrupted(2, |t| {
        t.set_local_unchecked(
            LineState::Shareable,
            LocalEvent::Write,
            LocalAction::silent(LineState::Modified),
        );
    }));
}
