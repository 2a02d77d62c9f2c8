//! The table-driven protocol engine: policies as data, not code.
//!
//! The paper's central claim (§3.4) is that a protocol is nothing more than a
//! *selection function* over the permitted-action sets of Tables 1 and 2.
//! This module makes that literal: a [`PolicyTable`] holds **one chosen
//! entry per `(state, event)` cell** — the protocol's own Table 3–7 — and a
//! [`TablePolicy`] interprets it behind the ordinary [`Protocol`] trait.
//!
//! * `—` cells are *data* too: an unpopulated cell surfaces as a structured
//!   [`IllegalCell`] error from [`Protocol::try_on_local`] /
//!   [`Protocol::try_on_bus`] instead of a panic mid-transaction.
//! * Class membership becomes a structural ⊆-check:
//!   [`PolicyTable::class_violations`] compares every populated cell against
//!   `table::permitted_local` / `table::permitted_bus` without running the
//!   protocol at all.
//! * Stateful selection (the §3.4 random picker, the §5.2 Puzak recency
//!   refinement, scripted replays, the hybrid update/invalidate switcher) is
//!   a closed set of refinements a [`TablePolicy`] may carry; the static
//!   table remains the documented base policy and the fallback.
//!
//! # Examples
//!
//! ```
//! use moesi::policy::{PolicyTable, TablePolicy};
//! use moesi::{CacheKind, LineState, LocalCtx, LocalEvent, Protocol};
//!
//! // The preferred MOESI policy is just the preferred-entry table.
//! let table = PolicyTable::preferred("MOESI", CacheKind::CopyBack);
//! assert!(table.is_class_member());
//!
//! let mut p = TablePolicy::new(table);
//! let action = p.on_local(LineState::Invalid, LocalEvent::Read, &LocalCtx::default());
//! assert_eq!(action.to_string(), "CH:S/E,CA,R");
//!
//! // A `—` cell is an error value, not a panic.
//! assert!(p
//!     .try_on_local(LineState::Invalid, LocalEvent::Pass, &LocalCtx::default())
//!     .is_err());
//! ```

use crate::action::{BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::protocol::{CacheKind, LocalCtx, Protocol, SnoopCtx};
use crate::protocols::{self, ScriptHook};
use crate::rng::SmallRng;
use crate::state::LineState;
use crate::table;
use std::collections::HashMap;
use std::fmt;

pub(crate) fn state_idx(state: LineState) -> usize {
    LineState::ALL
        .iter()
        .position(|&s| s == state)
        .expect("state in ALL")
}

fn local_idx(event: LocalEvent) -> usize {
    LocalEvent::ALL
        .iter()
        .position(|&e| e == event)
        .expect("event in ALL")
}

pub(crate) fn bus_idx(event: BusEvent) -> usize {
    BusEvent::ALL
        .iter()
        .position(|&e| e == event)
        .expect("event in ALL")
}

/// The event half of an [`IllegalCell`]: which table the missing cell is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellEvent {
    /// A Table 1 (local event) cell.
    Local(LocalEvent),
    /// A Table 2 (snooped bus event) cell.
    Bus(BusEvent),
}

/// A structured `—`-cell error: the protocol defines no action for the
/// queried `(state, event)` combination.
///
/// Returned by [`Protocol::try_on_local`] and [`Protocol::try_on_bus`] so
/// the bus can surface a recoverable `ProtocolError` instead of a panic
/// mid-transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IllegalCell {
    /// Name of the protocol that was consulted.
    pub protocol: String,
    /// The line state the query was made in.
    pub state: LineState,
    /// The event (and which table) that hit the `—` cell.
    pub event: CellEvent,
}

impl IllegalCell {
    /// A missing Table 1 (local) cell.
    #[must_use]
    pub fn local(protocol: &str, state: LineState, event: LocalEvent) -> Self {
        IllegalCell {
            protocol: protocol.to_string(),
            state,
            event: CellEvent::Local(event),
        }
    }

    /// A missing Table 2 (bus) cell.
    #[must_use]
    pub fn bus(protocol: &str, state: LineState, event: BusEvent) -> Self {
        IllegalCell {
            protocol: protocol.to_string(),
            state,
            event: CellEvent::Bus(event),
        }
    }
}

impl fmt::Display for IllegalCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            CellEvent::Local(event) => write!(
                f,
                "{}: no action for ({}, {event})",
                self.protocol, self.state
            ),
            CellEvent::Bus(event) => write!(
                f,
                "{}: error-condition cell ({}, {event})",
                self.protocol, self.state
            ),
        }
    }
}

impl std::error::Error for IllegalCell {}

/// One protocol as pure data: a single chosen [`LocalAction`] /
/// [`BusReaction`] per `(state, event)` cell, `None` for `—` cells.
///
/// This is the machine-readable form of the paper's Tables 3–7. The
/// [`TablePolicy`] interpreter executes it; [`PolicyTable::class_violations`]
/// checks it structurally against Tables 1–2; [`PolicyTable::render`] prints
/// it in the paper's layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyTable {
    name: &'static str,
    kind: CacheKind,
    requires_bs: bool,
    local: [[Option<LocalAction>; 4]; 5],
    bus: [[Option<BusReaction>; 6]; 5],
}

impl PolicyTable {
    /// An all-`—` table (every cell unpopulated).
    #[must_use]
    pub fn empty(name: &'static str, kind: CacheKind) -> Self {
        PolicyTable {
            name,
            kind,
            requires_bs: false,
            local: [[None; 4]; 5],
            bus: [[None; 6]; 5],
        }
    }

    /// The preferred-entry table: every cell filled with the first permitted
    /// Table 1/2 entry for `kind` (the paper: "Where a choice is shown, the
    /// first entry is preferred"). Bus rows are populated only for the states
    /// the kind can hold; `—` cells stay unpopulated.
    ///
    /// This is both the complete MOESI-preferred policy and the base other
    /// protocols override cell by cell.
    #[must_use]
    pub fn preferred(name: &'static str, kind: CacheKind) -> Self {
        let mut t = PolicyTable::empty(name, kind);
        for state in LineState::ALL {
            for event in LocalEvent::ALL {
                t.local[state_idx(state)][local_idx(event)] =
                    table::preferred_local(state, event, kind);
            }
        }
        for &state in kind.reachable_states() {
            for event in BusEvent::ALL {
                t.bus[state_idx(state)][bus_idx(event)] = table::preferred_bus(state, event);
            }
        }
        t
    }

    /// The protocol name this table defines.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bus-client kind the table is written for.
    #[must_use]
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// Whether the policy uses the BS abort-and-push mechanism (any
    /// [`BusReaction::busy_push`] cell, §3.2.2).
    #[must_use]
    pub fn requires_bs(&self) -> bool {
        self.requires_bs
    }

    /// Marks the table as one of the adapted BS-using protocols.
    #[must_use]
    pub fn with_bs(mut self) -> Self {
        self.requires_bs = true;
        self
    }

    /// Returns this table under a different protocol name (the cells are
    /// unchanged). Synthesized tables are renamed per workload this way.
    #[must_use]
    pub fn renamed(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The chosen local action for `(state, event)`, or `None` for `—`.
    #[must_use]
    pub fn local(&self, state: LineState, event: LocalEvent) -> Option<LocalAction> {
        self.local[state_idx(state)][local_idx(event)]
    }

    /// The chosen bus reaction for `(state, event)`, or `None` for `—`.
    #[must_use]
    pub fn bus(&self, state: LineState, event: BusEvent) -> Option<BusReaction> {
        self.bus[state_idx(state)][bus_idx(event)]
    }

    /// Sets a local cell, validating the entry against Table 1.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not in `table::permitted_local` for this cell —
    /// use [`PolicyTable::set_local_unchecked`] for deliberately out-of-class
    /// entries (the adapted protocols, corruption tests).
    pub fn set_local(
        &mut self,
        state: LineState,
        event: LocalEvent,
        action: LocalAction,
    ) -> &mut Self {
        assert!(
            table::permitted_local(state, event, self.kind).contains(&action),
            "{}: `{action}` is not a permitted Table 1 entry for ({state}, {event})",
            self.name
        );
        self.set_local_unchecked(state, event, action)
    }

    /// Sets a local cell without validating against Table 1.
    pub fn set_local_unchecked(
        &mut self,
        state: LineState,
        event: LocalEvent,
        action: LocalAction,
    ) -> &mut Self {
        self.local[state_idx(state)][local_idx(event)] = Some(action);
        self
    }

    /// Sets a bus cell, validating the entry against Table 2.
    ///
    /// # Panics
    ///
    /// Panics if `reaction` is not in `table::permitted_bus` for this cell
    /// (BS pushes never are) — use [`PolicyTable::set_bus_unchecked`] for
    /// deliberately out-of-class entries.
    pub fn set_bus(
        &mut self,
        state: LineState,
        event: BusEvent,
        reaction: BusReaction,
    ) -> &mut Self {
        assert!(
            reaction.busy.is_none() && table::permitted_bus(state, event).contains(&reaction),
            "{}: `{reaction}` is not a permitted Table 2 entry for ({state}, {event})",
            self.name
        );
        self.set_bus_unchecked(state, event, reaction)
    }

    /// Sets a bus cell without validating against Table 2.
    pub fn set_bus_unchecked(
        &mut self,
        state: LineState,
        event: BusEvent,
        reaction: BusReaction,
    ) -> &mut Self {
        self.bus[state_idx(state)][bus_idx(event)] = Some(reaction);
        self
    }

    /// Clears a local cell back to `—`.
    pub fn clear_local(&mut self, state: LineState, event: LocalEvent) -> &mut Self {
        self.local[state_idx(state)][local_idx(event)] = None;
        self
    }

    /// Clears a bus cell back to `—`.
    pub fn clear_bus(&mut self, state: LineState, event: BusEvent) -> &mut Self {
        self.bus[state_idx(state)][bus_idx(event)] = None;
        self
    }

    /// Clears every cell of one state row (for protocols whose state set is a
    /// strict subset of MOESI, e.g. Write-Once without O).
    pub fn clear_state(&mut self, state: LineState) -> &mut Self {
        self.local[state_idx(state)] = [None; 4];
        self.bus[state_idx(state)] = [None; 6];
        self
    }

    /// How many cells are populated (local + bus).
    #[must_use]
    pub fn populated_cells(&self) -> usize {
        self.local.iter().flatten().filter(|c| c.is_some()).count()
            + self.bus.iter().flatten().filter(|c| c.is_some()).count()
    }

    /// The structural ⊆-check against Tables 1–2: every populated cell must
    /// be a permitted entry for its `(state, event)` cell, no cell may be
    /// populated on a `—` cell, and no cell may use BS. Returns one message
    /// per offending cell, in table order.
    ///
    /// This is the declarative counterpart of
    /// [`compat::check_protocol`](crate::compat::check_protocol): a table is
    /// a class member iff its interpreter is.
    #[must_use]
    pub fn class_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for state in LineState::ALL {
            for event in LocalEvent::ALL {
                let Some(action) = self.local(state, event) else {
                    continue;
                };
                let permitted = table::permitted_local(state, event, self.kind);
                if permitted.is_empty() {
                    out.push(format!(
                        "local ({state}, {event}): entry `{action}` on a — cell"
                    ));
                } else if !permitted.contains(&action) {
                    out.push(format!(
                        "local ({state}, {event}): `{action}` is not a permitted Table 1 entry"
                    ));
                }
            }
            for event in BusEvent::ALL {
                let Some(reaction) = self.bus(state, event) else {
                    continue;
                };
                if reaction.busy.is_some() {
                    out.push(format!(
                        "bus ({state}, {event}): `{reaction}` uses BS, which is outside the class"
                    ));
                    continue;
                }
                let permitted = table::permitted_bus(state, event);
                if permitted.is_empty() {
                    out.push(format!(
                        "bus ({state}, {event}): entry `{reaction}` on an error-condition cell"
                    ));
                } else if !permitted.contains(&reaction) {
                    out.push(format!(
                        "bus ({state}, {event}): `{reaction}` is not a permitted Table 2 entry"
                    ));
                }
            }
        }
        out
    }

    /// True when [`PolicyTable::class_violations`] is empty.
    #[must_use]
    pub fn is_class_member(&self) -> bool {
        self.class_violations().is_empty()
    }

    /// Every table one in-class cell change away from this one: for each
    /// *populated* cell, each permitted Table 1/2 alternative to the current
    /// entry yields one neighbor (the search space of the synth subsystem).
    ///
    /// Neighbors come back in table order (states in MOESI order, local
    /// events before bus events, alternatives in permitted-set order), so the
    /// enumeration is deterministic. Unpopulated (`—`) cells are never
    /// filled and populated cells never cleared: the class defines no
    /// permitted entry for `—` cells, and clearing a cell only removes
    /// behaviour. Because alternatives are drawn from the permitted sets,
    /// every neighbor of a class member is itself a class member.
    #[must_use]
    pub fn neighbors(&self) -> Vec<PolicyTable> {
        let mut out = Vec::new();
        for state in LineState::ALL {
            for event in LocalEvent::ALL {
                let Some(current) = self.local(state, event) else {
                    continue;
                };
                for alt in table::permitted_local(state, event, self.kind) {
                    if alt != current {
                        let mut t = *self;
                        t.set_local_unchecked(state, event, alt);
                        out.push(t);
                    }
                }
            }
            for event in BusEvent::ALL {
                let Some(current) = self.bus(state, event) else {
                    continue;
                };
                for alt in table::permitted_bus(state, event) {
                    if alt != current {
                        let mut t = *self;
                        t.set_bus_unchecked(state, event, alt);
                        out.push(t);
                    }
                }
            }
        }
        out
    }

    /// Renders the table in the paper's Tables 3–7 layout: one chosen entry
    /// per cell, `-` for `—` cells.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} protocol, {} client: chosen action per cell ('-' = illegal)\n",
            self.name, self.kind
        );
        out.push_str("Local events: result state and bus signals\n");
        out.push_str(&format!(
            "{:<6} {:<28} {:<28} {:<20} {:<12}\n",
            "State", "Read(1)", "Write(2)", "Pass(3)", "Flush(4)"
        ));
        for state in LineState::ALL {
            let mut row = format!("{:<6} ", state.letter());
            for (event, width) in [
                (LocalEvent::Read, 28),
                (LocalEvent::Write, 28),
                (LocalEvent::Pass, 20),
                (LocalEvent::Flush, 12),
            ] {
                let cell = self
                    .local(state, event)
                    .map_or_else(|| "-".to_string(), |a| a.to_string());
                row.push_str(&format!("{cell:<width$} ", width = width));
            }
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out.push_str("Snooped bus events: result state and response signals\n");
        out.push_str(&format!("{:<6}", "State"));
        for ev in BusEvent::ALL {
            out.push_str(&format!(
                " {:<22}",
                format!("{}({})", ev.signals(), ev.column())
            ));
        }
        out.push('\n');
        for state in LineState::ALL {
            let mut row = format!("{:<6}", state.letter());
            for ev in BusEvent::ALL {
                let cell = self
                    .bus(state, ev)
                    .map_or_else(|| "-".to_string(), |r| r.to_string());
                row.push_str(&format!(" {cell:<22}"));
            }
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out
    }
}

/// The stateful part of a [`TablePolicy`], if any: one variant per shipped
/// selector, each refining the table's choice from the cell's permitted set.
///
/// §3.4: a board "can change the protocol it is using, either statically,
/// dynamically, or can use protocols selectively". A variant answers a
/// decision, or declines and the table cell answers. Each variant's logic
/// lives next to its protocol; the permitted set is built only on the
/// branch that reads it.
#[derive(Clone, Debug)]
pub(crate) enum Refinement {
    /// Every decision is the table cell.
    None,
    /// Puzak's §5.2 replacement-status check on snooped broadcasts.
    Recency,
    /// The hybrid's consecutive foreign broadcast writes per line address.
    Sharing { writes_since_use: HashMap<u64, u32> },
    /// The §3.4 uniform random pick.
    Uniform { rng: SmallRng },
    /// Scripted entries and recorded choices.
    Script(ScriptHook),
}

impl Refinement {
    fn pick_local(
        &mut self,
        state: LineState,
        event: LocalEvent,
        ctx: &LocalCtx,
        kind: CacheKind,
    ) -> Option<LocalAction> {
        match self {
            Refinement::None | Refinement::Recency => None,
            Refinement::Sharing { writes_since_use } => {
                protocols::sharing_local(writes_since_use, ctx);
                None
            }
            Refinement::Uniform { rng } => protocols::uniform_local(rng, state, event, kind),
            Refinement::Script(hook) => hook.pick_local(state, event),
        }
    }

    fn pick_bus(
        &mut self,
        state: LineState,
        event: BusEvent,
        ctx: &SnoopCtx,
        kind: CacheKind,
    ) -> Option<BusReaction> {
        match self {
            Refinement::None => None,
            Refinement::Recency => protocols::recency_bus(state, event, ctx),
            Refinement::Sharing { writes_since_use } => {
                protocols::sharing_bus(writes_since_use, state, event, ctx)
            }
            Refinement::Uniform { rng } => protocols::uniform_bus(rng, state, event, kind),
            Refinement::Script(hook) => hook.pick_bus(state, event),
        }
    }
}

/// The generic interpreter: a [`PolicyTable`], refined by at most one
/// stateful selector, behind the [`Protocol`] trait.
///
/// Every shipped protocol is a value of this type, built by a constructor in
/// [`protocols`]; the simulator, the model checker and the benchmarks only
/// ever see the [`Protocol`] API. A clone starts from the original's state
/// and evolves on its own, except that a scripted policy's clone shares its
/// [`ScriptHandle`](crate::protocols::ScriptHandle).
#[derive(Clone, Debug)]
pub struct TablePolicy {
    table: PolicyTable,
    refinement: Refinement,
}

impl TablePolicy {
    /// A purely static policy: every decision is the table cell.
    #[must_use]
    pub fn new(table: PolicyTable) -> Self {
        TablePolicy::refined(table, Refinement::None)
    }

    pub(crate) fn refined(table: PolicyTable, refinement: Refinement) -> Self {
        TablePolicy { table, refinement }
    }

    /// The base table (the protocol's own Table 3–7).
    #[must_use]
    pub fn table(&self) -> &PolicyTable {
        &self.table
    }
}

impl Protocol for TablePolicy {
    fn name(&self) -> &str {
        self.table.name
    }

    fn kind(&self) -> CacheKind {
        self.table.kind
    }

    fn requires_bs(&self) -> bool {
        self.table.requires_bs
    }

    fn on_local(&mut self, state: LineState, event: LocalEvent, ctx: &LocalCtx) -> LocalAction {
        self.try_on_local(state, event, ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn on_bus(&mut self, state: LineState, event: BusEvent, ctx: &SnoopCtx) -> BusReaction {
        self.try_on_bus(state, event, ctx)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_on_local(
        &mut self,
        state: LineState,
        event: LocalEvent,
        ctx: &LocalCtx,
    ) -> Result<LocalAction, IllegalCell> {
        if let Some(action) = self
            .refinement
            .pick_local(state, event, ctx, self.table.kind)
        {
            return Ok(action);
        }
        self.table
            .local(state, event)
            .ok_or_else(|| IllegalCell::local(self.table.name, state, event))
    }

    fn try_on_bus(
        &mut self,
        state: LineState,
        event: BusEvent,
        ctx: &SnoopCtx,
    ) -> Result<BusReaction, IllegalCell> {
        if let Some(reaction) = self.refinement.pick_bus(state, event, ctx, self.table.kind) {
            return Ok(reaction);
        }
        self.table
            .bus(state, event)
            .ok_or_else(|| IllegalCell::bus(self.table.name, state, event))
    }

    fn policy_table(&self) -> Option<&PolicyTable> {
        Some(&self.table)
    }

    fn table_is_exact(&self) -> bool {
        matches!(self.refinement, Refinement::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::{Exclusive, Invalid, Modified, Owned, Shareable};

    #[test]
    fn preferred_table_matches_the_preferred_entries() {
        let t = PolicyTable::preferred("MOESI", CacheKind::CopyBack);
        for state in LineState::ALL {
            for event in LocalEvent::ALL {
                assert_eq!(
                    t.local(state, event),
                    table::preferred_local(state, event, CacheKind::CopyBack),
                    "({state}, {event})"
                );
            }
            for event in BusEvent::ALL {
                assert_eq!(
                    t.bus(state, event),
                    table::preferred_bus(state, event),
                    "({state}, {event})"
                );
            }
        }
        assert!(t.is_class_member());
        assert!(!t.requires_bs());
    }

    #[test]
    fn write_through_preferred_table_has_no_owner_rows() {
        let t = PolicyTable::preferred("wt", CacheKind::WriteThrough);
        for state in [Modified, Owned, Exclusive] {
            for event in LocalEvent::ALL {
                assert_eq!(t.local(state, event), None);
            }
            for event in BusEvent::ALL {
                assert_eq!(t.bus(state, event), None, "({state}, {event})");
            }
        }
        assert!(t.local(Shareable, LocalEvent::Read).is_some());
        assert!(t.bus(Shareable, BusEvent::CacheRead).is_some());
        assert!(t.is_class_member());
    }

    #[test]
    fn checked_setters_reject_out_of_class_entries() {
        let mut t = PolicyTable::preferred("t", CacheKind::CopyBack);
        // A permitted alternative is accepted...
        t.set_local(
            Invalid,
            LocalEvent::Read,
            LocalAction::new(Shareable, crate::MasterSignals::CA, crate::BusOp::Read),
        );
        assert!(t.is_class_member());
        // ...an out-of-class entry panics.
        let r = std::panic::catch_unwind(move || {
            t.set_local(Invalid, LocalEvent::Read, LocalAction::silent(Modified));
        });
        assert!(r.is_err());
    }

    #[test]
    fn checked_bus_setter_rejects_bs_pushes() {
        let mut t = PolicyTable::preferred("t", CacheKind::CopyBack);
        let push = BusReaction::busy_push(Shareable, crate::MasterSignals::CA);
        let r = std::panic::catch_unwind(move || {
            t.set_bus(Modified, BusEvent::CacheRead, push);
        });
        assert!(r.is_err());
    }

    #[test]
    fn class_violations_flag_mutated_cells() {
        let mut t = PolicyTable::preferred("t", CacheKind::CopyBack);
        t.set_local_unchecked(Shareable, LocalEvent::Write, LocalAction::silent(Modified));
        let v = t.class_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("(S, Write)"), "{v:?}");
        assert!(!t.is_class_member());
    }

    #[test]
    fn class_violations_flag_entries_on_error_cells_and_bs() {
        let mut t = PolicyTable::preferred("t", CacheKind::CopyBack);
        t.set_bus_unchecked(Modified, BusEvent::CacheBroadcastWrite, BusReaction::IGNORE);
        t.set_bus_unchecked(
            Modified,
            BusEvent::CacheRead,
            BusReaction::busy_push(Shareable, crate::MasterSignals::CA),
        );
        let v = t.class_violations();
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|m| m.contains("error-condition")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("BS")), "{v:?}");
    }

    #[test]
    fn illegal_cells_are_errors_not_panics() {
        let mut p = TablePolicy::new(PolicyTable::preferred("MOESI", CacheKind::CopyBack));
        let err = p
            .try_on_local(Invalid, LocalEvent::Pass, &LocalCtx::default())
            .unwrap_err();
        assert_eq!(err.state, Invalid);
        assert_eq!(err.event, CellEvent::Local(LocalEvent::Pass));
        assert_eq!(err.to_string(), "MOESI: no action for (I, Pass)");

        let err = p
            .try_on_bus(
                Modified,
                BusEvent::CacheBroadcastWrite,
                &SnoopCtx::default(),
            )
            .unwrap_err();
        assert_eq!(err.event, CellEvent::Bus(BusEvent::CacheBroadcastWrite));
        assert_eq!(
            err.to_string(),
            "MOESI: error-condition cell (M, CA,IM,BC (col 8))"
        );
    }

    #[test]
    fn the_panicking_api_reports_the_same_message() {
        let r = std::panic::catch_unwind(|| {
            TablePolicy::new(PolicyTable::preferred("MOESI", CacheKind::CopyBack)).on_local(
                Invalid,
                LocalEvent::Pass,
                &LocalCtx::default(),
            )
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("no action for"), "{msg}");
    }

    #[test]
    fn render_shows_cells_and_dashes() {
        let t = PolicyTable::preferred("MOESI", CacheKind::CopyBack);
        let text = t.render();
        assert!(text.starts_with("MOESI protocol, copy-back client"));
        assert!(text.contains("CH:S/E,CA,R"));
        assert!(text.contains("O,CH,DI"));
        // (E, Pass) and (M, CA,IM,BC) are `—`.
        assert!(text.contains('-'));
        assert_eq!(text.lines().count(), 1 + 1 + 1 + 5 + 1 + 1 + 5);
    }

    #[test]
    fn renamed_changes_only_the_name() {
        let t = PolicyTable::preferred("MOESI", CacheKind::CopyBack);
        let r = t.renamed("synth-general");
        assert_eq!(r.name(), "synth-general");
        assert_eq!(r.kind(), t.kind());
        for state in LineState::ALL {
            for event in LocalEvent::ALL {
                assert_eq!(r.local(state, event), t.local(state, event));
            }
            for event in BusEvent::ALL {
                assert_eq!(r.bus(state, event), t.bus(state, event));
            }
        }
    }

    #[test]
    fn neighbors_differ_in_exactly_one_cell_and_stay_in_class() {
        let base = PolicyTable::preferred("MOESI", CacheKind::CopyBack);
        let neighbors = base.neighbors();
        assert!(!neighbors.is_empty());
        for n in &neighbors {
            assert!(n.is_class_member(), "neighbor fell out of the class");
            assert_eq!(n.populated_cells(), base.populated_cells());
            let mut diffs = 0;
            for state in LineState::ALL {
                for event in LocalEvent::ALL {
                    if n.local(state, event) != base.local(state, event) {
                        diffs += 1;
                    }
                }
                for event in BusEvent::ALL {
                    if n.bus(state, event) != base.bus(state, event) {
                        diffs += 1;
                    }
                }
            }
            assert_eq!(diffs, 1, "a neighbor must differ in exactly one cell");
        }
        // The enumeration is exactly "one alternative per populated cell":
        // its size is the sum over populated cells of |permitted| - 1.
        let mut expected = 0;
        for state in LineState::ALL {
            for event in LocalEvent::ALL {
                if base.local(state, event).is_some() {
                    expected += table::permitted_local(state, event, base.kind()).len() - 1;
                }
            }
            for event in BusEvent::ALL {
                if base.bus(state, event).is_some() {
                    expected += table::permitted_bus(state, event).len() - 1;
                }
            }
        }
        assert_eq!(neighbors.len(), expected);
        // Deterministic order.
        let again = base.neighbors();
        assert_eq!(neighbors, again);
    }

    #[test]
    fn populated_cell_counts() {
        assert_eq!(
            PolicyTable::empty("e", CacheKind::CopyBack).populated_cells(),
            0
        );
        let t = PolicyTable::preferred("p", CacheKind::CopyBack);
        // 16 legal local cells + 28 legal bus cells.
        assert_eq!(t.populated_cells(), 16 + 28);
    }
}
