//! Tables 1 and 2 of the paper: the complete class of compatible protocols.
//!
//! For every `(state, event)` cell these functions return the **set of
//! permitted actions**, preferred entry first (the paper: "Where a choice is
//! shown, the first entry is preferred"). The sets include the alternatives
//! the table notes add:
//!
//! * note 9 — any `CH:O/M` result may be replaced by `O`, and `M` may weaken
//!   to `O` at any time;
//! * note 10 — any `CH:S/E` result may be replaced by `S`, and `E` may weaken
//!   to `S` at any time;
//! * note 11 — any transition to (or remaining in) `E` or `S` on a *bus*
//!   event may be changed to `I` (without asserting CH);
//! * note 12 — the state `E` may be replaced by `M` (at the cost of a later
//!   write-back).
//!
//! Two don't-care conventions from the tables are resolved here once and for
//! all: `BC?` on line pushes is resolved to *not* asserting BC (broadcast
//! transfers cost an extra 25 ns on the Futurebus, §2.2, and no third party
//! needs the pushed data), and `CH?` cells appear in the permitted set both
//! with and without CH, un-asserted first.

use crate::action::{BusOp, BusReaction, LocalAction, ResultState};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{bus_idx, state_idx};
use crate::protocol::CacheKind;
use crate::signals::MasterSignals;
use crate::state::LineState;
use std::sync::OnceLock;

use BusEvent as BE;
use LineState::{Exclusive as E, Invalid as I, Modified as M, Owned as O, Shareable as S};
use LocalEvent as LE;

/// The permitted local actions for `(state, event)` for a client of the given
/// kind — Table 1, preferred entry first.
///
/// An empty vector marks a `—` cell: the combination is not legal (an error
/// condition), e.g. `Pass` from `Invalid`, or any valid-state event for a
/// non-caching processor.
///
/// # Examples
///
/// ```
/// use moesi::{table, CacheKind, LineState, LocalEvent};
///
/// let actions = table::permitted_local(LineState::Owned, LocalEvent::Write, CacheKind::CopyBack);
/// // Preferred: broadcast the change. Alternative: invalidate other copies.
/// assert_eq!(actions[0].to_string(), "CH:O/M,CA,IM,BC,W");
/// assert!(actions.iter().any(|a| a.to_string() == "M,CA,IM,A"));
/// ```
#[must_use]
pub fn permitted_local(state: LineState, event: LocalEvent, kind: CacheKind) -> Vec<LocalAction> {
    match kind {
        CacheKind::CopyBack => permitted_local_copy_back(state, event),
        CacheKind::WriteThrough => permitted_local_write_through(state, event),
        CacheKind::NonCaching => permitted_local_non_caching(state, event),
    }
}

/// The preferred local action (the first permitted entry), or `None` for `—`
/// cells.
#[must_use]
pub fn preferred_local(
    state: LineState,
    event: LocalEvent,
    kind: CacheKind,
) -> Option<LocalAction> {
    permitted_local(state, event, kind).into_iter().next()
}

fn bcast_write(result: ResultState) -> LocalAction {
    LocalAction::new(result, MasterSignals::CA_IM_BC, BusOp::Write)
}

fn invalidate(result: LineState) -> LocalAction {
    LocalAction::new(result, MasterSignals::CA_IM, BusOp::AddressOnly)
}

fn push(result: ResultState, retain: bool) -> LocalAction {
    let signals = if retain {
        MasterSignals::CA
    } else {
        MasterSignals::NONE
    };
    LocalAction::new(result, signals, BusOp::Write)
}

fn permitted_local_copy_back(state: LineState, event: LocalEvent) -> Vec<LocalAction> {
    match (state, event) {
        // Row M: the sole, dirty copy — reads and writes are free.
        (M, LE::Read) | (M, LE::Write) => vec![LocalAction::silent(M)],
        // `E,CA,BC?,W` — push and keep the copy, now clean and exclusive.
        // Note 10 allows keeping it as S, note 12 as M (pointless but legal).
        (M, LE::Pass) => vec![
            push(E.into(), true),
            push(S.into(), true),
            push(M.into(), true),
        ],
        // `I,BC?,W` — push and discard.
        (M, LE::Flush) | (O, LE::Flush) => vec![push(I.into(), false)],

        (O, LE::Read) => vec![LocalAction::silent(O)],
        // `CH:O/M,CA,IM,BC,W` (broadcast the change) or `M,CA,IM` (invalidate
        // other copies, address-only). Note 9 admits the plain-O broadcast.
        (O, LE::Write) => vec![
            bcast_write(ResultState::CH_O_M),
            invalidate(M),
            bcast_write(O.into()),
        ],
        // `CH:S/E,CA,BC?,W` — push, keep the copy, drop ownership.
        (O, LE::Pass) => vec![push(ResultState::CH_S_E, true), push(S.into(), true)],

        (E, LE::Read) => vec![LocalAction::silent(E)],
        // The silent upgrade that justifies the E state; note 9 allows O with
        // an (inefficient) broadcast instead, but the table lists only M.
        (E, LE::Write) => vec![LocalAction::silent(M)],
        (E, LE::Pass) => vec![],
        (E, LE::Flush) | (S, LE::Flush) => vec![LocalAction::silent(I)],

        (S, LE::Read) => vec![LocalAction::silent(S)],
        (S, LE::Write) => vec![
            bcast_write(ResultState::CH_O_M),
            invalidate(M),
            bcast_write(O.into()),
        ],
        (S, LE::Pass) => vec![],

        // `CH:S/E,CA,R`; note 10 admits plain S, note 12 admits M (a protocol
        // without an E state that still claims ownership would be unsafe —
        // memory stays the owner — so the M substitution applies only to the
        // E half and yields CH:S/M, which no published protocol uses; we list
        // the S weakening only).
        (I, LE::Read) => vec![
            LocalAction::new(ResultState::CH_S_E, MasterSignals::CA, BusOp::Read),
            LocalAction::new(S, MasterSignals::CA, BusOp::Read),
        ],
        // `M,CA,IM,R` (read and invalidate in one transaction) or two
        // transactions.
        (I, LE::Write) => vec![
            LocalAction::new(M, MasterSignals::CA_IM, BusOp::Read),
            LocalAction::read_then_write(),
        ],
        (I, LE::Pass) | (I, LE::Flush) => vec![],
    }
}

fn permitted_local_write_through(state: LineState, event: LocalEvent) -> Vec<LocalAction> {
    match (state, event) {
        // V ≡ S. Reads hit silently.
        (S, LE::Read) => vec![LocalAction::silent(S)],
        // `S,IM,BC,W` or `S,IM,W`: write through, with or without broadcast;
        // no CA — the cache is not claiming to retain ownership semantics,
        // only its V copy.
        (S, LE::Write) => vec![
            LocalAction::new(S, MasterSignals::IM_BC, BusOp::Write),
            LocalAction::new(S, MasterSignals::IM, BusOp::Write),
        ],
        // Replacement of a clean V copy is silent.
        (S, LE::Flush) => vec![LocalAction::silent(I)],
        // `S,CA,R`: a normal read asserting CA (§3.3 item 7).
        (I, LE::Read) => vec![LocalAction::new(S, MasterSignals::CA, BusOp::Read)],
        // `I,IM,BC,W` / `I,IM,W` (no allocate) or read-then-write (allocate).
        (I, LE::Write) => vec![
            LocalAction::new(I, MasterSignals::IM_BC, BusOp::Write),
            LocalAction::new(I, MasterSignals::IM, BusOp::Write),
            LocalAction::read_then_write(),
        ],
        _ => vec![],
    }
}

fn permitted_local_non_caching(state: LineState, event: LocalEvent) -> Vec<LocalAction> {
    match (state, event) {
        // `I,R` — read without asserting CA.
        (I, LE::Read) => vec![LocalAction::new(I, MasterSignals::NONE, BusOp::Read)],
        // `I,IM,BC,W` or `I,IM,W`.
        (I, LE::Write) => vec![
            LocalAction::new(I, MasterSignals::IM_BC, BusOp::Write),
            LocalAction::new(I, MasterSignals::IM, BusOp::Write),
        ],
        _ => vec![],
    }
}

/// The permitted reactions to a snooped bus event for a line in `state` —
/// Table 2, preferred entry first.
///
/// An empty vector marks an error-condition (`—`) cell: observing a cache
/// master's broadcast write while holding the line in an exclusive state.
///
/// # Examples
///
/// ```
/// use moesi::{table, BusEvent, LineState};
///
/// // A Modified holder must intervene on a read miss and downgrade to Owned.
/// let r = table::permitted_bus(LineState::Modified, BusEvent::CacheRead);
/// assert_eq!(r.len(), 1);
/// assert_eq!(r[0].to_string(), "O,CH,DI");
/// ```
#[must_use]
pub fn permitted_bus(state: LineState, event: BusEvent) -> Vec<BusReaction> {
    match (state, event) {
        // ---- Row M -------------------------------------------------------
        // The requester will retain a copy: exclusiveness is lost, ownership
        // must be kept (memory is stale), so `O,CH,DI` is the only option.
        (M, BE::CacheRead) => vec![BusReaction::hit(O).with_di()],
        // Write miss elsewhere: supply the data, then invalidate.
        (M, BE::CacheReadInvalidate) => vec![BusReaction::quiet(I).with_di()],
        // Uncached read: intervene, stay M (CH?); note 9 allows O.
        (M, BE::UncachedRead) => vec![
            BusReaction::quiet(M).with_di(),
            BusReaction::hit(M).with_di(),
            BusReaction::quiet(O).with_di(),
        ],
        // `—`: a broadcast write by another cache master is impossible while
        // this cache holds the only copy.
        (M, BE::CacheBroadcastWrite) => vec![],
        // Capture the uncached write (memory is preempted), stay M (CH?).
        (M, BE::UncachedWrite) => vec![
            BusReaction::quiet(M).with_di(),
            BusReaction::hit(M).with_di(),
            BusReaction::quiet(O).with_di(),
        ],
        // Connect to the broadcast and update the local copy, stay M (CH?).
        // The paper marks this cell "must update itself", so no I variant.
        (M, BE::UncachedBroadcastWrite) => vec![
            BusReaction::quiet(M).with_sl(),
            BusReaction::hit(M).with_sl(),
            BusReaction::quiet(O).with_sl(),
        ],

        // ---- Row O -------------------------------------------------------
        (O, BE::CacheRead) => vec![BusReaction::hit(O).with_di()],
        (O, BE::CacheReadInvalidate) => vec![BusReaction::quiet(I).with_di()],
        // `CH:O/M,DI`: the owner listens — if no other cache claims a copy it
        // regains exclusivity. Note 9 allows staying O.
        (O, BE::UncachedRead) => vec![
            BusReaction::quiet(ResultState::CH_O_M).with_di(),
            BusReaction::quiet(O).with_di(),
        ],
        // Another cache broadcasts a write: relinquish ownership and either
        // update (`S,SL,CH`) or invalidate.
        (O, BE::CacheBroadcastWrite) => vec![BusReaction::hit(S).with_sl(), BusReaction::IGNORE],
        // Capture the uncached write, stay owner (CH?).
        (O, BE::UncachedWrite) => vec![
            BusReaction::quiet(O).with_di(),
            BusReaction::hit(O).with_di(),
        ],
        // Update from the broadcast, stay owner.
        (O, BE::UncachedBroadcastWrite) => vec![BusReaction::hit(O).with_sl()],

        // ---- Row E -------------------------------------------------------
        // Exclusiveness is lost; note 11 allows invalidating instead.
        (E, BE::CacheRead) => vec![BusReaction::hit(S), BusReaction::IGNORE],
        (E, BE::CacheReadInvalidate) => vec![BusReaction::IGNORE],
        // A non-caching master retains nothing, so E survives (CH?);
        // note 10 allows S, note 11 allows I.
        (E, BE::UncachedRead) => vec![
            BusReaction::quiet(E),
            BusReaction::hit(E),
            BusReaction::hit(S),
            BusReaction::IGNORE,
        ],
        // `—`: impossible while this is the only cached copy.
        (E, BE::CacheBroadcastWrite) => vec![],
        // Not capable of capturing the write from E: must invalidate.
        (E, BE::UncachedWrite) => vec![BusReaction::IGNORE],
        // `E,SL,CH? or I`: update (exclusiveness survives — the writer
        // retains nothing) or invalidate; note 10 allows S.
        (E, BE::UncachedBroadcastWrite) => vec![
            BusReaction::quiet(E).with_sl(),
            BusReaction::hit(E).with_sl(),
            BusReaction::hit(S).with_sl(),
            BusReaction::IGNORE,
        ],

        // ---- Row S -------------------------------------------------------
        (S, BE::CacheRead) => vec![BusReaction::hit(S), BusReaction::IGNORE],
        (S, BE::CacheReadInvalidate) => vec![BusReaction::IGNORE],
        (S, BE::UncachedRead) => vec![BusReaction::hit(S), BusReaction::IGNORE],
        (S, BE::CacheBroadcastWrite) => vec![BusReaction::hit(S).with_sl(), BusReaction::IGNORE],
        (S, BE::UncachedWrite) => vec![BusReaction::IGNORE],
        (S, BE::UncachedBroadcastWrite) => vec![BusReaction::hit(S).with_sl(), BusReaction::IGNORE],

        // ---- Row I -------------------------------------------------------
        (I, _) => vec![BusReaction::IGNORE],
    }
}

/// The preferred reaction (the first permitted entry), or `None` for error
/// cells: a lookup in a table derived once from [`permitted_bus`], so a
/// snooper that consults it on every transaction allocates nothing.
#[must_use]
pub fn preferred_bus(state: LineState, event: BusEvent) -> Option<BusReaction> {
    static PREFERRED: OnceLock<[[Option<BusReaction>; 6]; 5]> = OnceLock::new();
    let table = PREFERRED.get_or_init(|| {
        LineState::ALL
            .map(|state| BusEvent::ALL.map(|event| permitted_bus(state, event).first().copied()))
    });
    table[state_idx(state)][bus_idx(event)]
}

/// Iterates every Table 1 cell for one cache kind: `(state, event,
/// permitted actions)`, error cells included (with an empty action set).
///
/// This is the enumeration surface the exhaustive model checker
/// (`crates/verify`) walks: §3.4 compatibility means *any* element of each
/// returned set may be chosen at any instant.
pub fn local_cells(
    kind: CacheKind,
) -> impl Iterator<Item = (LineState, LocalEvent, Vec<LocalAction>)> {
    LineState::ALL.into_iter().flat_map(move |state| {
        LocalEvent::ALL
            .into_iter()
            .map(move |event| (state, event, permitted_local(state, event, kind)))
    })
}

/// Iterates every Table 2 cell: `(state, event, permitted reactions)`,
/// error cells included (with an empty reaction set).
pub fn bus_cells() -> impl Iterator<Item = (LineState, BusEvent, Vec<BusReaction>)> {
    LineState::ALL.into_iter().flat_map(|state| {
        BusEvent::ALL
            .into_iter()
            .map(move |event| (state, event, permitted_bus(state, event)))
    })
}

/// Renders Table 1 (local events) for one cache kind in the paper's layout.
#[must_use]
pub fn render_table1(kind: CacheKind) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "MOESI Protocol, {kind} client: result state and bus signals (Table 1)\n"
    ));
    out.push_str(&format!(
        "{:<6} {:<28} {:<28} {:<20} {:<12}\n",
        "State", "Read(1)", "Write(2)", "Pass(3)", "Flush(4)"
    ));
    for state in LineState::ALL {
        let mut row = format!("{:<6} ", state.letter());
        for (event, width) in [
            (LE::Read, 28),
            (LE::Write, 28),
            (LE::Pass, 20),
            (LE::Flush, 12),
        ] {
            let actions = permitted_local(state, event, kind);
            let cell = if actions.is_empty() {
                "-".to_string()
            } else {
                actions
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" or ")
            };
            row.push_str(&format!("{cell:<width$} ", width = width));
        }
        out.push_str(row.trim_end());
        out.push('\n');
    }
    out
}

/// Renders Table 2 (bus events) in the paper's layout, preferred entries with
/// alternatives joined by `or`.
#[must_use]
pub fn render_table2() -> String {
    let mut out = String::new();
    out.push_str("MOESI Protocol: reaction to bus events (Table 2)\n");
    out.push_str(&format!("{:<6}", "State"));
    for ev in BusEvent::ALL {
        out.push_str(&format!(
            " {:<22}",
            format!("{}({})", ev.signals(), ev.column())
        ));
    }
    out.push('\n');
    for state in LineState::ALL {
        out.push_str(&format!("{:<6}", state.letter()));
        for ev in BusEvent::ALL {
            let reactions = permitted_bus(state, ev);
            let cell = if reactions.is_empty() {
                "-".to_string()
            } else {
                // Show the preferred entry plus the first genuine alternative,
                // as the paper does.
                let mut parts: Vec<String> =
                    reactions.iter().take(2).map(ToString::to_string).collect();
                parts.dedup();
                parts.join(" or ")
            };
            out.push_str(&format!(" {cell:<22}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_preferred_entries_match_paper() {
        let k = CacheKind::CopyBack;
        let pref = |s, e| preferred_local(s, e, k).unwrap().to_string();
        assert_eq!(pref(M, LE::Read), "M");
        assert_eq!(pref(M, LE::Write), "M");
        assert_eq!(pref(M, LE::Pass), "E,CA,W");
        assert_eq!(pref(M, LE::Flush), "I,W");
        assert_eq!(pref(O, LE::Read), "O");
        assert_eq!(pref(O, LE::Write), "CH:O/M,CA,IM,BC,W");
        assert_eq!(pref(O, LE::Pass), "CH:S/E,CA,W");
        assert_eq!(pref(O, LE::Flush), "I,W");
        assert_eq!(pref(E, LE::Read), "E");
        assert_eq!(pref(E, LE::Write), "M");
        assert_eq!(pref(E, LE::Flush), "I");
        assert_eq!(pref(S, LE::Read), "S");
        assert_eq!(pref(S, LE::Write), "CH:O/M,CA,IM,BC,W");
        assert_eq!(pref(S, LE::Flush), "I");
        assert_eq!(pref(I, LE::Read), "CH:S/E,CA,R");
        assert_eq!(pref(I, LE::Write), "M,CA,IM,R");
    }

    #[test]
    fn table1_error_cells() {
        let k = CacheKind::CopyBack;
        for (s, e) in [(E, LE::Pass), (S, LE::Pass), (I, LE::Pass), (I, LE::Flush)] {
            assert!(permitted_local(s, e, k).is_empty(), "({s},{e}) should be -");
        }
    }

    #[test]
    fn table1_write_through_rows_match_paper() {
        let k = CacheKind::WriteThrough;
        let pref = |s, e| preferred_local(s, e, k).unwrap().to_string();
        assert_eq!(pref(S, LE::Read), "S");
        assert_eq!(pref(S, LE::Write), "S,IM,BC,W");
        assert_eq!(pref(I, LE::Read), "S,CA,R");
        assert_eq!(pref(I, LE::Write), "I,IM,BC,W");
        // Non-broadcast write-through is the listed alternative.
        let alts = permitted_local(S, LE::Write, k);
        assert_eq!(alts[1].to_string(), "S,IM,W");
        // Write-allocate = read then write.
        assert!(permitted_local(I, LE::Write, k)
            .iter()
            .any(|a| a.bus_op == BusOp::ReadThenWrite));
        // A write-through cache can never be in an owned or exclusive state.
        for s in [M, O, E] {
            for e in LocalEvent::ALL {
                assert!(permitted_local(s, e, k).is_empty());
            }
        }
    }

    #[test]
    fn table1_non_caching_rows_match_paper() {
        let k = CacheKind::NonCaching;
        let read = permitted_local(I, LE::Read, k);
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].to_string(), "I,R");
        assert!(!read[0].signals.ca, "a non-caching read must not assert CA");
        let writes = permitted_local(I, LE::Write, k);
        assert_eq!(writes[0].to_string(), "I,IM,BC,W");
        assert_eq!(writes[1].to_string(), "I,IM,W");
        for s in [M, O, E, S] {
            for e in LocalEvent::ALL {
                assert!(permitted_local(s, e, k).is_empty());
            }
        }
    }

    #[test]
    fn table2_preferred_entries_match_paper() {
        let pref = |s, e| preferred_bus(s, e).unwrap().to_string();
        assert_eq!(pref(M, BE::CacheRead), "O,CH,DI");
        assert_eq!(pref(M, BE::CacheReadInvalidate), "I,DI");
        assert_eq!(pref(M, BE::UncachedRead), "M,DI");
        assert_eq!(pref(M, BE::UncachedWrite), "M,DI");
        assert_eq!(pref(M, BE::UncachedBroadcastWrite), "M,SL");
        assert_eq!(pref(O, BE::CacheRead), "O,CH,DI");
        assert_eq!(pref(O, BE::CacheReadInvalidate), "I,DI");
        assert_eq!(pref(O, BE::UncachedRead), "CH:O/M,DI");
        assert_eq!(pref(O, BE::CacheBroadcastWrite), "S,CH,SL");
        assert_eq!(pref(O, BE::UncachedWrite), "O,DI");
        assert_eq!(pref(O, BE::UncachedBroadcastWrite), "O,CH,SL");
        assert_eq!(pref(E, BE::CacheRead), "S,CH");
        assert_eq!(pref(E, BE::CacheReadInvalidate), "I");
        assert_eq!(pref(E, BE::UncachedRead), "E");
        assert_eq!(pref(E, BE::UncachedWrite), "I");
        assert_eq!(pref(E, BE::UncachedBroadcastWrite), "E,SL");
        assert_eq!(pref(S, BE::CacheRead), "S,CH");
        assert_eq!(pref(S, BE::CacheBroadcastWrite), "S,CH,SL");
        assert_eq!(pref(S, BE::UncachedWrite), "I");
        for ev in BusEvent::ALL {
            assert_eq!(pref(I, ev), "I");
        }
    }

    #[test]
    fn table2_error_cells() {
        assert!(permitted_bus(M, BE::CacheBroadcastWrite).is_empty());
        assert!(permitted_bus(E, BE::CacheBroadcastWrite).is_empty());
    }

    #[test]
    fn owners_always_intervene_on_reads_and_uncached_writes() {
        // An owner may never silently let memory answer: every permitted
        // reaction from M or O on a read or non-broadcast write asserts DI.
        for s in [M, O] {
            for ev in [
                BE::CacheRead,
                BE::CacheReadInvalidate,
                BE::UncachedRead,
                BE::UncachedWrite,
            ] {
                for r in permitted_bus(s, ev) {
                    assert!(r.di, "({s}, {ev}): {r} must assert DI");
                }
            }
        }
    }

    #[test]
    fn non_owners_never_intervene() {
        for s in [E, S, I] {
            for ev in BusEvent::ALL {
                for r in permitted_bus(s, ev) {
                    assert!(!r.di, "({s}, {ev}): {r} must not assert DI");
                }
            }
        }
    }

    #[test]
    fn retained_copies_assert_ch_when_someone_listens() {
        // Whenever a reaction keeps a valid unowned copy on an event whose
        // master resolves CH (cols 5 and 8), CH must be asserted — otherwise
        // the master could wrongly enter an exclusive state.
        for s in LineState::VALID {
            for ev in [BE::CacheRead, BE::CacheBroadcastWrite] {
                for r in permitted_bus(s, ev) {
                    for resolved in r.result.possible() {
                        if resolved.is_valid() {
                            assert!(r.ch, "({s}, {ev}): {r} retains a copy without CH");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invalidating_reactions_never_assert_ch() {
        // Note 11: "changed to I, not CH".
        for s in LineState::ALL {
            for ev in BusEvent::ALL {
                for r in permitted_bus(s, ev) {
                    if r.result == ResultState::Fixed(I) && !r.di {
                        assert!(!r.ch, "({s}, {ev}): {r} invalidates but asserts CH");
                    }
                }
            }
        }
    }

    #[test]
    fn ownership_never_materializes_from_thin_air() {
        // A non-owning state can never react its way into ownership.
        for s in [E, S, I] {
            for ev in BusEvent::ALL {
                for r in permitted_bus(s, ev) {
                    for resolved in r.result.possible() {
                        assert!(!resolved.is_owned(), "({s}, {ev}): {r} gains ownership");
                    }
                }
            }
        }
    }

    #[test]
    fn owners_relinquish_on_cache_broadcast_write() {
        // Column 8: the writing cache assumes (or keeps) responsibility, so a
        // snooping owner must end unowned.
        for r in permitted_bus(O, BE::CacheBroadcastWrite) {
            for resolved in r.result.possible() {
                assert!(!resolved.is_owned());
            }
        }
    }

    #[test]
    fn exclusive_results_only_when_no_other_copy_can_remain() {
        // After a snooped CacheRead or CacheReadInvalidate the requester holds
        // a copy, so no reaction may keep an exclusive state.
        for s in LineState::ALL {
            for ev in [BE::CacheRead, BE::CacheReadInvalidate] {
                for r in permitted_bus(s, ev) {
                    for resolved in r.result.possible() {
                        assert!(
                            !resolved.is_exclusive(),
                            "({s}, {ev}): {r} stays exclusive next to the requester's copy"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn modify_events_without_broadcast_invalidate_unowned_copies() {
        // Cols 6 and 9: data cannot be updated (no BC), so unowned holders
        // must discard.
        for s in [E, S] {
            for ev in [BE::CacheReadInvalidate, BE::UncachedWrite] {
                for r in permitted_bus(s, ev) {
                    assert_eq!(r.result, ResultState::Fixed(I), "({s}, {ev}): {r}");
                }
            }
        }
    }

    #[test]
    fn invalid_lines_ignore_everything() {
        for ev in BusEvent::ALL {
            assert_eq!(permitted_bus(I, ev), vec![BusReaction::IGNORE]);
        }
    }

    #[test]
    fn local_write_from_non_exclusive_states_notifies_the_bus() {
        // §3.1: "any attempt by the cache client to locally modify S or O data
        // requires that a message be broadcast to other caches".
        for kind in [CacheKind::CopyBack, CacheKind::WriteThrough] {
            for s in [O, S] {
                for a in permitted_local(s, LE::Write, kind) {
                    assert!(a.bus_op.uses_bus(), "({s}, Write, {kind}): {a} is silent");
                    assert!(a.signals.im, "({s}, Write, {kind}): {a} lacks IM");
                }
            }
        }
    }

    #[test]
    fn local_write_from_exclusive_states_is_silent() {
        // §3.1: M and E holders "need not warn any other caches".
        for s in [M, E] {
            for a in permitted_local(s, LE::Write, CacheKind::CopyBack) {
                assert!(!a.bus_op.uses_bus());
            }
        }
    }

    #[test]
    fn dirty_pushes_always_write_back() {
        for s in [M, O] {
            for e in [LE::Pass, LE::Flush] {
                for a in permitted_local(s, e, CacheKind::CopyBack) {
                    assert_eq!(a.bus_op, BusOp::Write, "({s}, {e}): {a}");
                }
            }
        }
        // Clean discards never touch the bus.
        for s in [E, S] {
            for a in permitted_local(s, LE::Flush, CacheKind::CopyBack) {
                assert!(!a.bus_op.uses_bus());
            }
        }
    }

    #[test]
    fn pass_retains_and_flush_discards() {
        for kind in CacheKind::ALL {
            for s in LineState::ALL {
                for a in permitted_local(s, LE::Pass, kind) {
                    for r in a.result.possible() {
                        assert!(r.is_valid(), "Pass must keep the copy: ({s}) {a}");
                    }
                    assert!(a.signals.ca, "Pass retains, so CA: ({s}) {a}");
                }
                for a in permitted_local(s, LE::Flush, kind) {
                    assert_eq!(a.result, ResultState::Fixed(I), "Flush discards: ({s}) {a}");
                }
            }
        }
    }

    #[test]
    fn all_results_stay_within_the_kind_reachable_states() {
        for kind in CacheKind::ALL {
            for s in LineState::ALL {
                for e in LocalEvent::ALL {
                    for a in permitted_local(s, e, kind) {
                        if a.bus_op == BusOp::ReadThenWrite {
                            continue; // resolved by re-consultation
                        }
                        for r in a.result.possible() {
                            assert!(
                                kind.reachable_states().contains(&r),
                                "{kind}: ({s},{e}) -> {r} unreachable"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn render_table1_contains_all_rows() {
        let t = render_table1(CacheKind::CopyBack);
        for s in LineState::ALL {
            assert!(t.contains(&format!("\n{}", s.letter())) || t.starts_with(s.letter()));
        }
        assert!(t.contains("CH:S/E,CA,R"));
        assert!(t.contains("Read>Write"));
    }

    #[test]
    fn render_table2_contains_columns_and_cells() {
        let t = render_table2();
        for ev in BusEvent::ALL {
            assert!(t.contains(&format!("({})", ev.column())));
        }
        assert!(t.contains("O,CH,DI"));
        assert!(t.contains("CH:O/M,DI"));
    }

    #[test]
    fn preferred_bus_lookup_is_the_first_permitted_reaction_in_all_30_cells() {
        let mut cells = 0;
        let mut errors = 0;
        for state in LineState::ALL {
            for event in BusEvent::ALL {
                let permitted = permitted_bus(state, event);
                assert_eq!(
                    preferred_bus(state, event),
                    permitted.first().copied(),
                    "({state}, {event})"
                );
                cells += 1;
                errors += usize::from(permitted.is_empty());
            }
        }
        assert_eq!(cells, 30);
        assert_eq!(errors, 2, "the (M, CBW) and (E, CBW) error cells");
    }
}
