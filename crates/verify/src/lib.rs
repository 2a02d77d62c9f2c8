//! Exhaustive model checking for the compatible cache-consistency class.
//!
//! This crate proves — by breadth-first enumeration of **every** reachable
//! global state — that small configurations of the protocol class from
//! Sweazey & Smith (ISCA '86) preserve the shared-image invariants of
//! `mpsim::Checker`. The machine it explores is the simulator itself: the
//! real `Fabric`, `CacheController`s and `Futurebus` that
//! [`mpsim::replay::machine`] builds, each module a scripted policy
//! ([`moesi::protocols::ScriptHandle::protocol`]) that records the choice
//! set it is offered at every Table 1/2 decision. The explorer branches on
//! every entry of every such set, so a clean run is a proof over the
//! modelled configuration, not a statistical statement. Caches hold one
//! line, so two modelled lines interact through eviction.
//!
//! Three front doors:
//!
//! - the library API ([`explore`], [`verify_protocol`], [`verify_pair`],
//!   [`verify_matrix`], [`verify_class`]);
//! - the `moesi-sim verify` CLI subcommand;
//! - the integration tests in `tests/`, which pin "zero violations" for
//!   every shipped protocol and every protocol pair.
//!
//! A defect is a [`Checker`](mpsim::Checker) violation or an error the
//! tolerant fabric logged. Its counterexample is the BFS path to it: a
//! minimal [`mpsim::replay::Trace`] that [`mpsim::replay::replay`]
//! re-executes deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explorer;

pub use explorer::{explore, Counterexample, Limits, Report};

use moesi::protocols::{self, Choices};
use moesi::{BusEvent, BusReaction, CacheKind, LineState, LocalAction, LocalEvent, PolicyTable};
use mpsim::replay::Failure;

/// Shape of the explored configuration (the per-module policies come
/// separately).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Lines modelled. Each cache holds one, so two lines interact through
    /// eviction.
    pub lines: usize,
    /// Size of the write-value domain (2 suffices to distinguish copies).
    pub values: u8,
    /// Exploration limits.
    pub limits: Limits,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            lines: 1,
            values: 2,
            limits: Limits::default(),
        }
    }
}

/// Every name accepted by [`verify_protocol`]/[`verify_matrix`]: the shipped
/// protocols plus `full-table` (the §3.4 class-at-large: branch over the
/// whole permitted set of a copy-back client).
pub const MATRIX_PROTOCOLS: [&str; 12] = [
    "moesi",
    "moesi-invalidating",
    "puzak",
    "write-through",
    "non-caching",
    "berkeley",
    "dragon",
    "write-once",
    "illinois",
    "firefly",
    "synapse",
    "full-table",
];

/// The choices a module running protocol `name` branches over.
///
/// `full-table`, `full-table-wt` and `full-table-nc` branch over the entire
/// permitted sets of the corresponding client kind; `random` is folded into
/// `full-table` (a random selector can pick any permitted entry, so the full
/// branch *is* its exhaustive closure). Every other name resolves through
/// [`moesi::protocols::by_name`].
#[must_use]
pub fn spec_for(name: &str) -> Option<Choices> {
    match name {
        "full-table" | "random" => Some(Choices::Permitted(CacheKind::CopyBack)),
        "full-table-wt" => Some(Choices::Permitted(CacheKind::WriteThrough)),
        "full-table-nc" => Some(Choices::Permitted(CacheKind::NonCaching)),
        _ => protocols::by_name(name, 0).map(Choices::Protocol),
    }
}

/// Whether invariant 5 (an E copy matches memory) must be relaxed for this
/// protocol mix. The adapted Write-Once protocol reaches its "Reserved" (E)
/// state with memory still stale when a foreign owner supplied the fill, so
/// mixed systems containing it drop the strict check — exactly as
/// `mpsim::Checker::check_exclusive_clean` documents.
#[must_use]
pub fn relaxed_exclusive_clean(names: &[&str]) -> bool {
    let mixed = names.windows(2).any(|w| w[0] != w[1]);
    mixed && names.contains(&"write-once")
}

/// Whether the pair `(a, b)` is expected to verify clean.
///
/// Every pair is, except the adapted Write-Once protocol next to an
/// owner-capable class member: Write-Once's eponymous first write is a
/// write-through (`E,CA,IM,W`), and a foreign M/O holder snooping that
/// transaction must capture it (`I,DI` is its only permitted reaction) —
/// which preempts memory and then discards the data with the invalidate.
/// The value survives only in Write-Once's unowned "Reserved" (E) line, so
/// invariant 4 (unowned lines live in memory) breaks in three steps. This is
/// precisely the gap §4.3's BS-based adaptation leaves open; the exhaustive
/// explorer rediscovers it mechanically (see `tests/exhaustive.rs`).
#[must_use]
pub fn class_compatible(a: &str, b: &str) -> bool {
    const OWNER_CAPABLE: [&str; 7] = [
        "moesi",
        "moesi-invalidating",
        "puzak",
        "berkeley",
        "dragon",
        "full-table",
        "random",
    ];
    let clash = |x: &str, y: &str| x == "write-once" && OWNER_CAPABLE.contains(&y);
    !clash(a, b) && !clash(b, a)
}

/// Exhaustively verifies an arbitrary protocol mix, one module per name.
/// Returns `None` if any name is unknown. Invariant 5 is relaxed per
/// [`relaxed_exclusive_clean`].
#[must_use]
pub fn verify_mix(names: &[&str], shape: &Shape) -> Option<Report> {
    let specs = names
        .iter()
        .map(|name| spec_for(name))
        .collect::<Option<_>>()?;
    Some(explore(specs, shape, !relaxed_exclusive_clean(names)))
}

/// Exhaustively verifies a homogeneous system of `caches` modules all
/// running `name`. Returns `None` for an unknown protocol name.
#[must_use]
pub fn verify_protocol(name: &str, caches: usize, shape: &Shape) -> Option<Report> {
    verify_mix(&vec![name; caches], shape)
}

/// Exhaustively verifies a two-module heterogeneous system: one module
/// running `a`, one running `b`. Returns `None` for unknown names.
#[must_use]
pub fn verify_pair(a: &str, b: &str, shape: &Shape) -> Option<Report> {
    verify_mix(&[a, b], shape)
}

/// Exhaustively verifies the class at large: every module branches over the
/// full permitted sets for its kind (Tables 1 and 2), so this covers every
/// member protocol — and every mix of member protocols — at once.
#[must_use]
pub fn verify_class(kinds: &[CacheKind], shape: &Shape) -> Report {
    let specs = kinds.iter().map(|&k| Choices::Permitted(k)).collect();
    explore(specs, shape, true)
}

/// One row of [`mutation_sweep`]: a single corrupted cell of the preferred
/// copy-back table and what each detection layer said about it.
#[derive(Clone, Debug)]
pub struct MutationRow {
    /// The corrupted cell, in the structural check's naming: `local (S,
    /// Write)` or `bus (S, col 6)`.
    pub cell: String,
    /// Whether the §3.4 structural check (`moesi::compat::check_table`)
    /// rejects the mutated table outright.
    pub structural: bool,
    /// The defect exhaustive exploration finds when the mutated policy shares
    /// a bus with a clean preferred-MOESI module, if any.
    pub defect: Option<Failure>,
    /// Global states explored for this mutation.
    pub explored: usize,
}

/// Enumerates single-cell corruptions of the preferred copy-back table and
/// checks each one twice: structurally (is the mutated table still inside
/// the permitted sets of Tables 1–2?) and dynamically (does the mutated
/// policy, sharing a bus with a clean preferred-MOESI module, break a
/// shared-image invariant somewhere in its reachable space?).
///
/// Each local cell is flipped to the canonical local bug — silently claiming
/// Modified without a bus transaction — and each bus cell to the canonical
/// snoop bug — ignoring the event and keeping the copy as-is. Cells whose
/// chosen entry already *is* the mutation are skipped. The §3.4 theorem shows
/// up as a property of the rows: a mutation the structural check accepts is
/// still a class member, so exploration must find no defect for it.
#[must_use]
pub fn mutation_sweep(shape: &Shape) -> Vec<MutationRow> {
    mutation_sweep_of(PolicyTable::preferred("mutant", CacheKind::CopyBack), shape)
}

/// [`mutation_sweep`] generalised to an arbitrary base table (`moesi-sim
/// verify --mutate --table FILE`): synthesized winners get the same
/// single-cell corruption audit as the built-in preferred table.
#[must_use]
pub fn mutation_sweep_of(base: PolicyTable, shape: &Shape) -> Vec<MutationRow> {
    let mut rows = Vec::new();
    for state in LineState::ALL {
        for event in LocalEvent::ALL {
            let mutation = LocalAction::silent(LineState::Modified);
            if base.local(state, event).is_none_or(|c| c == mutation) {
                continue;
            }
            let mut table = base;
            table.set_local_unchecked(state, event, mutation);
            rows.push(run_mutation(
                format!("local ({state}, {event})"),
                table,
                shape,
            ));
        }
        for event in BusEvent::ALL {
            let mutation = BusReaction::quiet(state);
            if base.bus(state, event).is_none_or(|c| c == mutation) {
                continue;
            }
            let mut table = base;
            table.set_bus_unchecked(state, event, mutation);
            rows.push(run_mutation(
                format!("bus ({state}, col {})", event.column()),
                table,
                shape,
            ));
        }
    }
    rows
}

fn run_mutation(cell: String, table: PolicyTable, shape: &Shape) -> MutationRow {
    let structural = !moesi::compat::check_table(&table).is_class_member();
    let report = verify_table(table, shape);
    MutationRow {
        cell,
        structural,
        defect: report.counterexample.map(|cx| cx.defect),
        explored: report.explored,
    }
}

/// Exhaustively explores one policy table sharing a bus with a clean
/// preferred-MOESI module — the synth subsystem's deep feasibility oracle,
/// callable without a CLI run. A clean [`Report`] (no counterexample) means
/// every schedule the table can produce against a known-good peer preserves
/// the five shared-image invariants in the modelled configuration.
#[must_use]
pub fn verify_table(table: PolicyTable, shape: &Shape) -> Report {
    let specs = vec![
        Choices::Protocol(Box::new(moesi::TablePolicy::new(table))),
        spec_for("moesi").expect("moesi is a known protocol"),
    ];
    explore(specs, shape, true)
}

/// Runs [`verify_pair`] over every unordered pair from `names` (including
/// the diagonal) and returns `(a, b, report)` rows.
#[must_use]
pub fn verify_matrix(names: &[&str], shape: &Shape) -> Vec<(String, String, Report)> {
    verify_matrix_jobs(names, shape, 1)
}

/// [`verify_matrix`] sharded over `jobs` worker threads. Every pair's state
/// exploration is independent, so the rows come back in the same (row-major,
/// upper-triangular) order for any worker count.
#[must_use]
pub fn verify_matrix_jobs(
    names: &[&str],
    shape: &Shape,
    jobs: usize,
) -> Vec<(String, String, Report)> {
    let mut pairs = Vec::new();
    for (i, a) in names.iter().enumerate() {
        for b in &names[i..] {
            pairs.push(((*a).to_string(), (*b).to_string()));
        }
    }
    mpsim::campaign::run_jobs(pairs, jobs, |(a, b)| {
        verify_pair(&a, &b, shape).map(|report| (a, b, report))
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_matrix_matches_the_sequential_one() {
        let names = ["moesi", "write-through", "berkeley", "dragon"];
        let shape = Shape::default();
        let seq = verify_matrix(&names, &shape);
        let par = verify_matrix_jobs(&names, &shape, 3);
        assert_eq!(seq.len(), par.len());
        for ((a1, b1, r1), (a2, b2, r2)) in seq.iter().zip(&par) {
            assert_eq!((a1, b1), (a2, b2));
            assert_eq!(r1.explored, r2.explored);
            assert_eq!(r1.transitions, r2.transitions);
            assert_eq!(r1.depth, r2.depth);
            assert_eq!(r1.verified(), r2.verified());
        }
    }

    #[test]
    fn two_full_table_caches_one_line_verify_clean() {
        let report = verify_class(&[CacheKind::CopyBack; 2], &Shape::default());
        assert!(report.verified(), "{report}");
        assert!(report.explored > 10, "space too small: {report}");
    }

    #[test]
    fn unknown_protocol_names_are_rejected() {
        assert!(verify_protocol("no-such-protocol", 2, &Shape::default()).is_none());
        assert!(spec_for("also-missing").is_none());
    }

    #[test]
    fn exclusive_clean_is_relaxed_only_for_mixed_write_once() {
        assert!(relaxed_exclusive_clean(&["write-once", "moesi"]));
        assert!(!relaxed_exclusive_clean(&["write-once", "write-once"]));
        assert!(!relaxed_exclusive_clean(&["moesi", "dragon"]));
    }

    #[test]
    fn write_once_clashes_only_with_owner_capable_members() {
        assert!(!class_compatible("moesi", "write-once"));
        assert!(!class_compatible("write-once", "berkeley"));
        assert!(class_compatible("write-once", "write-once"));
        assert!(class_compatible("write-once", "write-through"));
        assert!(class_compatible("write-once", "illinois"));
        assert!(class_compatible("moesi", "dragon"));
    }

    #[test]
    fn single_cell_mutations_are_caught_or_provably_harmless() {
        let rows = mutation_sweep(&Shape::default());
        assert!(rows.len() >= 30, "only {} mutations", rows.len());
        // The §3.4 theorem, mechanically: a mutation the structural check
        // accepts is still a class member, so exploration finds no defect.
        for r in &rows {
            assert!(
                r.structural || r.defect.is_none(),
                "in-class mutation {} found {:?}",
                r.cell,
                r.defect
            );
            // A clean row explored a real space; a defect may strike at the
            // very first step (a read miss the fabric cannot execute).
            assert!(
                r.defect.is_some() || r.explored > 1,
                "{}: degenerate space",
                r.cell
            );
        }
        // Ignoring a snooped read-invalidate (col 6) leaves a stale copy that
        // the next local read returns: structural AND concrete.
        let ignored = rows
            .iter()
            .find(|r| r.cell == "bus (S, col 6)")
            .expect("the (S, col 6) cell is populated");
        assert!(ignored.structural);
        assert!(
            ignored.defect.is_some(),
            "ignoring an invalidate is silent?"
        );
        // Silently claiming M is likewise both rejected and reproduced.
        let claimed = rows
            .iter()
            .find(|r| r.cell == "local (S, Write)")
            .expect("the (S, Write) cell is populated");
        assert!(claimed.structural && claimed.defect.is_some());
    }

    #[test]
    fn mutations_are_executed_as_the_table_says() {
        let rows = mutation_sweep(&Shape::default());
        let defect = |cell: &str| {
            let row = rows.iter().find(|r| r.cell == cell).expect("populated");
            assert!(row.structural, "{cell}");
            row.defect
                .clone()
                .unwrap_or_else(|| panic!("{cell} is clean"))
        };
        // A silent pass from O claims M while the peer keeps its S copy.
        assert!(
            matches!(
                defect("local (O, Pass)"),
                Failure::Violation(mpsim::Violation::ExclusivityViolated { .. })
            ),
            "{:?}",
            defect("local (O, Pass)")
        );
        // A miss the table answers without a bus read, or a silent write to
        // a line that is not resident, is a fabric error.
        for (cell, what) in [
            ("local (I, Read)", "not a bus read"),
            ("local (I, Write)", "silent write needs line"),
        ] {
            match defect(cell) {
                Failure::Error(e) => assert!(e.contains(what), "{cell}: {e}"),
                other => panic!("{cell}: {other}"),
            }
        }
    }

    #[test]
    fn verify_table_is_the_deep_oracle() {
        // The preferred table explores clean...
        let clean = verify_table(
            PolicyTable::preferred("candidate", CacheKind::CopyBack),
            &Shape::default(),
        );
        assert!(clean.verified(), "{clean}");
        // ...a corrupted one yields a counterexample.
        let mut broken = PolicyTable::preferred("broken", CacheKind::CopyBack);
        broken.set_local_unchecked(
            LineState::Shareable,
            LocalEvent::Write,
            LocalAction::silent(LineState::Modified),
        );
        let report = verify_table(broken, &Shape::default());
        assert!(report.counterexample.is_some(), "{report}");
    }

    #[test]
    fn mutation_sweep_of_accepts_arbitrary_bases() {
        // Berkeley's table is a different class member: its sweep covers its
        // own populated cells and upholds the same §3.4 invariant.
        let berkeley = *moesi::protocols::by_name("berkeley", 0)
            .expect("shipped")
            .policy_table()
            .expect("exact table");
        let rows = mutation_sweep_of(berkeley, &Shape::default());
        // Berkeley never uses E, so its sweep is smaller than the
        // preferred table's but still covers every populated cell.
        assert!(rows.len() >= 25, "only {} mutations", rows.len());
        for r in &rows {
            assert!(
                r.structural || r.defect.is_none(),
                "in-class mutation {} found {:?}",
                r.cell,
                r.defect
            );
        }
    }

    #[test]
    fn every_matrix_name_resolves_to_a_spec() {
        for name in MATRIX_PROTOCOLS {
            assert!(spec_for(name).is_some(), "unresolvable: {name}");
        }
    }
}
