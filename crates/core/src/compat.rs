//! Class-membership checking: is a protocol a member of the compatible class?
//!
//! §3.4 defines compatibility: every action a board takes must come from the
//! permitted sets of Tables 1 and 2. [`check_protocol`] drives a [`Protocol`]
//! over every reachable `(state, event)` cell — sampling repeatedly, so
//! stochastic policies are covered — and reports every decision that falls
//! outside the permitted set, plus any use of the BS abort mechanism (which
//! the class does not contain; §3.2.2 adds BS only for the *adapted*
//! Write-Once and Illinois protocols).

use crate::action::BusOp;
use crate::event::{BusEvent, LocalEvent};
use crate::policy::PolicyTable;
use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
use crate::state::LineState;
use crate::table;
use std::collections::BTreeSet;
use std::fmt;

/// How many times each cell is sampled, so randomized policies are exercised.
const SAMPLES_PER_CELL: usize = 32;

/// The outcome of a class-membership check.
///
/// # Examples
///
/// ```
/// use moesi::compat::check_protocol;
/// use moesi::protocols::{berkeley, write_once};
///
/// assert!(check_protocol(&mut berkeley()).is_class_member());
/// assert!(!check_protocol(&mut write_once()).is_class_member());
/// ```
#[derive(Clone, Debug)]
pub struct CompatReport {
    name: String,
    violations: Vec<String>,
    reachable: BTreeSet<LineState>,
    cells_checked: usize,
}

impl CompatReport {
    /// True when every sampled decision was a permitted Table 1/2 entry.
    #[must_use]
    pub fn is_class_member(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable descriptions of each out-of-class decision.
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The states the protocol was observed to reach, starting from Invalid.
    #[must_use]
    pub fn reachable_states(&self) -> &BTreeSet<LineState> {
        &self.reachable
    }

    /// How many `(state, event)` cells were exercised.
    #[must_use]
    pub fn cells_checked(&self) -> usize {
        self.cells_checked
    }
}

impl fmt::Display for CompatReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_class_member() {
            write!(
                f,
                "{}: class member ({} cells checked, states {:?})",
                self.name, self.cells_checked, self.reachable
            )
        } else {
            writeln!(
                f,
                "{}: NOT a class member ({} violations):",
                self.name,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Computes the set of line states a protocol can actually reach, starting
/// from Invalid, by driving every local event and bus event to a fixpoint.
///
/// This matters because the adapted protocols hold only a subset of the MOESI
/// states (e.g. Write-Once never reaches O), and querying them outside that
/// subset is itself an error.
#[must_use]
pub fn reachable_states<P: Protocol + ?Sized>(protocol: &mut P) -> BTreeSet<LineState> {
    let mut reachable: BTreeSet<LineState> = BTreeSet::new();
    reachable.insert(LineState::Invalid);
    let lctx = LocalCtx::default();
    let sctx = SnoopCtx::default();
    loop {
        let mut next = reachable.clone();
        for &state in &reachable {
            for event in LocalEvent::ALL {
                if table::permitted_local(state, event, protocol.kind()).is_empty() {
                    continue;
                }
                for _ in 0..SAMPLES_PER_CELL {
                    let action = protocol.on_local(state, event, &lctx);
                    if action.bus_op == BusOp::ReadThenWrite {
                        // Resolved by re-consultation: the read half's results
                        // are those of the Read event, already covered.
                        continue;
                    }
                    for r in action.result.possible() {
                        next.insert(r);
                    }
                }
            }
            for event in BusEvent::ALL {
                if table::permitted_bus(state, event).is_empty() {
                    continue;
                }
                for _ in 0..SAMPLES_PER_CELL {
                    let reaction = protocol.on_bus(state, event, &sctx);
                    if let Some(push) = reaction.busy {
                        next.insert(push.result);
                    } else {
                        for r in reaction.result.possible() {
                            next.insert(r);
                        }
                    }
                }
            }
        }
        if next == reachable {
            return reachable;
        }
        reachable = next;
    }
}

/// Computes the states a [`PolicyTable`] can reach from Invalid, purely
/// structurally: the possible result states of every populated cell, to a
/// fixpoint. For an exact table this agrees with [`reachable_states`] on its
/// interpreter, without any sampling.
fn table_reachable(table: &PolicyTable) -> BTreeSet<LineState> {
    let mut reachable: BTreeSet<LineState> = BTreeSet::new();
    reachable.insert(LineState::Invalid);
    loop {
        let mut next = reachable.clone();
        for &state in &reachable {
            for event in LocalEvent::ALL {
                let Some(action) = table.local(state, event) else {
                    continue;
                };
                if action.bus_op == BusOp::ReadThenWrite {
                    continue;
                }
                for r in action.result.possible() {
                    next.insert(r);
                }
            }
            for event in BusEvent::ALL {
                let Some(reaction) = table.bus(state, event) else {
                    continue;
                };
                if let Some(push) = reaction.busy {
                    next.insert(push.result);
                } else {
                    for r in reaction.result.possible() {
                        next.insert(r);
                    }
                }
            }
        }
        if next == reachable {
            return reachable;
        }
        reachable = next;
    }
}

/// Structurally checks a [`PolicyTable`] against the permitted sets of
/// Tables 1 and 2, without sampling its interpreter.
///
/// This is the declarative counterpart of [`check_protocol`]: for a protocol
/// whose table is exact ([`Protocol::table_is_exact`]), the two give the same
/// class-membership verdict — and `check_protocol` exploits that as a fast
/// path. Unlike `check_protocol`, this also flags out-of-class entries on
/// *unreachable* rows (a table is judged as written, not as driven).
///
/// # Examples
///
/// ```
/// use moesi::compat::check_table;
/// use moesi::protocols::{berkeley, illinois};
/// use moesi::Protocol;
///
/// assert!(check_table(berkeley().policy_table().unwrap()).is_class_member());
/// assert!(!check_table(illinois().policy_table().unwrap()).is_class_member());
/// ```
#[must_use]
pub fn check_table(table: &PolicyTable) -> CompatReport {
    let reachable = table_reachable(table);
    let cells_checked = reachable
        .iter()
        .map(|&s| {
            LocalEvent::ALL
                .iter()
                .filter(|&&e| table.local(s, e).is_some())
                .count()
                + BusEvent::ALL
                    .iter()
                    .filter(|&&e| table.bus(s, e).is_some())
                    .count()
        })
        .sum();
    CompatReport {
        name: table.name().to_string(),
        violations: table.class_violations(),
        reachable,
        cells_checked,
    }
}

/// Checks every reachable cell of a protocol against the permitted sets of
/// Tables 1 and 2.
///
/// Protocols that expose an exact [`PolicyTable`] take a structural fast
/// path: if [`check_table`] finds the table clean, sampling is skipped
/// entirely — every decision the interpreter can make *is* a table cell, so
/// the sampled check could not disagree. Stateful or out-of-class protocols
/// fall through to the exhaustive per-cell sampling below, preserving the
/// sampled violation messages.
#[must_use]
pub fn check_protocol<P: Protocol + ?Sized>(protocol: &mut P) -> CompatReport {
    if protocol.table_is_exact() {
        if let Some(table) = protocol.policy_table().copied() {
            let structural = check_table(&table);
            if structural.is_class_member() {
                return structural;
            }
        }
    }
    let reachable = reachable_states(protocol);
    let mut violations = Vec::new();
    let mut cells_checked = 0;
    let lctx = LocalCtx::default();
    let sctx = SnoopCtx::default();

    for &state in &reachable {
        for event in LocalEvent::ALL {
            let permitted = table::permitted_local(state, event, protocol.kind());
            if permitted.is_empty() {
                continue;
            }
            cells_checked += 1;
            let mut seen = BTreeSet::new();
            for _ in 0..SAMPLES_PER_CELL {
                let action = protocol.on_local(state, event, &lctx);
                if !permitted.contains(&action) && seen.insert(action.to_string()) {
                    violations.push(format!(
                        "local ({state}, {event}): chose `{action}`, permitted: {}",
                        permitted
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" | ")
                    ));
                }
            }
        }
        for event in BusEvent::ALL {
            let permitted = table::permitted_bus(state, event);
            if permitted.is_empty() {
                continue;
            }
            cells_checked += 1;
            let mut seen = BTreeSet::new();
            for _ in 0..SAMPLES_PER_CELL {
                let reaction = protocol.on_bus(state, event, &sctx);
                if reaction.busy.is_some() {
                    if seen.insert(reaction.to_string()) {
                        violations.push(format!(
                            "bus ({state}, {event}): `{reaction}` uses BS, which is outside the class"
                        ));
                    }
                    continue;
                }
                if !permitted.contains(&reaction) && seen.insert(reaction.to_string()) {
                    violations.push(format!(
                        "bus ({state}, {event}): chose `{reaction}`, permitted: {}",
                        permitted
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" | ")
                    ));
                }
            }
        }
    }

    CompatReport {
        name: protocol.name().to_string(),
        violations,
        reachable,
        cells_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{
        berkeley, dragon, firefly, illinois, moesi_invalidating, moesi_preferred, non_caching,
        non_caching_broadcasting, puzak, random, write_once, write_once_always_pushing,
        write_through, write_through_non_broadcasting,
    };
    use crate::CacheKind;

    #[test]
    fn class_members_pass() {
        assert!(check_protocol(&mut moesi_preferred()).is_class_member());
        assert!(check_protocol(&mut moesi_invalidating()).is_class_member());
        assert!(check_protocol(&mut puzak()).is_class_member());
        assert!(check_protocol(&mut berkeley()).is_class_member());
        assert!(check_protocol(&mut dragon()).is_class_member());
        assert!(check_protocol(&mut write_through()).is_class_member());
        assert!(check_protocol(&mut write_through_non_broadcasting()).is_class_member());
        assert!(check_protocol(&mut non_caching()).is_class_member());
        assert!(check_protocol(&mut non_caching_broadcasting()).is_class_member());
    }

    #[test]
    fn the_random_policy_is_a_class_member_by_construction() {
        for kind in CacheKind::ALL {
            for seed in 0..4 {
                let report = check_protocol(&mut random(kind, seed));
                assert!(report.is_class_member(), "{report}");
            }
        }
    }

    #[test]
    fn adapted_protocols_fail() {
        for report in [
            check_protocol(&mut write_once()),
            check_protocol(&mut write_once_always_pushing()),
            check_protocol(&mut illinois()),
            check_protocol(&mut firefly()),
        ] {
            assert!(!report.is_class_member(), "{report}");
        }
    }

    #[test]
    fn reachable_states_match_protocol_structure() {
        use LineState::{Exclusive, Invalid, Modified, Owned, Shareable};
        let berkeley = reachable_states(&mut berkeley());
        assert!(!berkeley.contains(&Exclusive), "Berkeley has no E state");
        assert!(berkeley.contains(&Owned));

        let write_once = reachable_states(&mut write_once());
        assert!(!write_once.contains(&Owned), "Write-Once has no O state");
        assert!(write_once.contains(&Exclusive));

        let moesi = reachable_states(&mut moesi_preferred());
        assert_eq!(
            moesi,
            BTreeSet::from([Modified, Owned, Exclusive, Shareable, Invalid])
        );

        let wt = reachable_states(&mut write_through());
        assert_eq!(wt, BTreeSet::from([Shareable, Invalid]));

        let nc = reachable_states(&mut non_caching());
        assert_eq!(nc, BTreeSet::from([Invalid]));
    }

    #[test]
    fn structural_and_sampled_checks_agree_for_every_protocol() {
        for mut p in crate::protocols::all_protocols(7) {
            let sampled = check_protocol(&mut p).is_class_member();
            if let Some(table) = p.policy_table() {
                assert_eq!(
                    check_table(table).is_class_member(),
                    sampled,
                    "{}: structural and sampled verdicts disagree",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn a_mutated_cell_is_rejected_by_both_checks() {
        use crate::action::LocalAction;
        use crate::policy::{PolicyTable, TablePolicy};
        use crate::CacheKind;

        // Corrupt one cell of the preferred table: an S-hit read that
        // silently jumps to M is in no column of Table 1.
        let mut table = PolicyTable::preferred("mutant", CacheKind::CopyBack);
        table.set_local_unchecked(
            LineState::Shareable,
            LocalEvent::Read,
            LocalAction::silent(LineState::Modified),
        );

        let structural = check_table(&table);
        assert!(!structural.is_class_member());
        assert!(
            structural
                .violations()
                .iter()
                .any(|v| v.contains("(S, Read)")),
            "{structural}"
        );

        let sampled = check_protocol(&mut TablePolicy::new(table));
        assert!(!sampled.is_class_member());
        assert!(
            sampled.violations().iter().any(|v| v.contains("(S, Read)")),
            "{sampled}"
        );
    }

    #[test]
    fn the_fast_path_preserves_the_report_shape() {
        // MOESI preferred takes the structural fast path; its report must
        // still show full reachability and a sensible cell count.
        let report = check_protocol(&mut moesi_preferred());
        assert!(report.is_class_member());
        assert_eq!(report.reachable_states().len(), 5);
        assert_eq!(report.cells_checked(), 44);
    }

    #[test]
    fn report_display_is_informative() {
        let ok = check_protocol(&mut moesi_preferred());
        assert!(ok.to_string().contains("class member"));
        assert!(ok.cells_checked() > 10);

        let bad = check_protocol(&mut firefly());
        let text = bad.to_string();
        assert!(text.contains("NOT a class member"));
        assert!(text.contains("BS"));
    }
}
