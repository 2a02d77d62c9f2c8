//! Graphviz (DOT) rendering of protocol state machines.
//!
//! The paper presents its protocols as tables; most later treatments draw
//! them as state diagrams. [`render`] produces the diagram for any
//! [`Protocol`]: solid edges for local events, dashed edges for snooped bus
//! events, `BS;` edges for abort-and-push reactions.

use crate::action::BusOp;
use crate::compat::reachable_states;
use crate::event::{BusEvent, LocalEvent};
use crate::protocol::{LocalCtx, Protocol, SnoopCtx};
use crate::state::LineState;
use crate::table;
use std::fmt::Write as _;

/// Renders a protocol's transition diagram in Graphviz DOT syntax.
///
/// Only reachable states are drawn. Conditional results (`CH:O/M`, `CH:S/E`)
/// become two edges, labelled with the CH observation that selects them.
///
/// # Examples
///
/// ```
/// use moesi::dot::render;
/// use moesi::protocols::berkeley;
///
/// let dot = render(&mut berkeley());
/// assert!(dot.starts_with("digraph Berkeley"));
/// assert!(dot.contains("M -> O"));
/// assert!(!dot.contains('E'), "Berkeley has no E state");
/// ```
#[must_use]
pub fn render<P: Protocol + ?Sized>(protocol: &mut P) -> String {
    let reachable = reachable_states(protocol);
    let name = protocol.name().replace(['-', ' '], "_");
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle];");
    for state in LineState::ALL {
        if reachable.contains(&state) {
            let _ = writeln!(out, "  {};", state.letter());
        }
    }

    // Local events: solid edges.
    for &state in &reachable {
        for event in [
            LocalEvent::Read,
            LocalEvent::Write,
            LocalEvent::Pass,
            LocalEvent::Flush,
        ] {
            // Skip cells that are errors for every client kind.
            let defined = crate::protocol::CacheKind::ALL
                .iter()
                .any(|&k| !table::permitted_local(state, event, k).is_empty());
            if !defined {
                continue;
            }
            let Ok(action) = protocol.try_on_local(state, event, &LocalCtx::default()) else {
                continue;
            };
            if action.bus_op == BusOp::ReadThenWrite {
                let _ = writeln!(
                    out,
                    "  {} -> {} [label=\"{}: Read>Write\"];",
                    state.letter(),
                    state.letter(),
                    event
                );
                continue;
            }
            for ch in [false, true] {
                let to = action.result.resolve(ch);
                if !reachable.contains(&to) {
                    continue;
                }
                let cond = match action.result {
                    crate::action::ResultState::Fixed(_) if ch => continue,
                    crate::action::ResultState::Fixed(_) => String::new(),
                    crate::action::ResultState::OnCh { .. } => {
                        format!(" [{}CH]", if ch { "" } else { "~" })
                    }
                };
                let _ = writeln!(
                    out,
                    "  {} -> {} [label=\"{}{}{}\"];",
                    state.letter(),
                    to.letter(),
                    event,
                    cond,
                    if action.bus_op.uses_bus() {
                        format!(" ({})", action.signals)
                    } else {
                        String::new()
                    },
                );
            }
        }
    }

    // Bus events: dashed edges.
    for &state in &reachable {
        if state == LineState::Invalid {
            continue; // I -> I on everything; omit for readability
        }
        for event in BusEvent::ALL {
            let Ok(reaction) = protocol.try_on_bus(state, event, &SnoopCtx::default()) else {
                continue;
            };
            if let Some(push) = reaction.busy {
                let _ = writeln!(
                    out,
                    "  {} -> {} [style=dashed color=red label=\"col{}: BS push\"];",
                    state.letter(),
                    push.result.letter(),
                    event.column(),
                );
                continue;
            }
            for ch in [false, true] {
                let to = reaction.result.resolve(ch);
                let cond = match reaction.result {
                    crate::action::ResultState::Fixed(_) if ch => continue,
                    crate::action::ResultState::Fixed(_) => String::new(),
                    crate::action::ResultState::OnCh { .. } => {
                        format!(" [{}CH]", if ch { "" } else { "~" })
                    }
                };
                let _ = writeln!(
                    out,
                    "  {} -> {} [style=dashed label=\"col{}{}\"];",
                    state.letter(),
                    to.letter(),
                    event.column(),
                    cond,
                );
            }
        }
    }

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{dragon, firefly, moesi_preferred, write_once};

    #[test]
    fn moesi_diagram_has_all_five_states_and_key_edges() {
        let dot = render(&mut moesi_preferred());
        assert!(dot.starts_with("digraph MOESI {"));
        for s in ["M;", "O;", "E;", "S;", "I;"] {
            assert!(dot.contains(s), "missing node {s}\n{dot}");
        }
        // Silent upgrade E -> M on a write.
        assert!(dot.contains("E -> M [label=\"Write\"]"), "{dot}");
        // Snooped read demotes M -> O (column 5).
        assert!(
            dot.contains("M -> O [style=dashed label=\"col5\"]"),
            "{dot}"
        );
        // Read miss resolves by CH.
        assert!(dot.contains("I -> E [label=\"Read [~CH] (CA)\"]"), "{dot}");
        assert!(dot.contains("I -> S [label=\"Read [CH] (CA)\"]"), "{dot}");
    }

    #[test]
    fn write_once_diagram_shows_bs_pushes() {
        let dot = render(&mut write_once());
        assert!(dot.contains("BS push"));
        assert!(dot.contains("color=red"));
        assert!(!dot.contains(" O;"), "Write-Once has no O state");
    }

    #[test]
    fn dragon_diagram_shows_read_then_write() {
        let dot = render(&mut dragon());
        assert!(dot.contains("Read>Write"));
    }

    #[test]
    fn every_protocol_renders_valid_dot_structure() {
        for name in [
            "moesi",
            "berkeley",
            "dragon",
            "write-once",
            "illinois",
            "firefly",
        ] {
            let mut p = crate::protocols::by_name(name, 1).unwrap();
            let dot = render(p.as_mut());
            assert!(dot.starts_with("digraph "), "{name}");
            assert!(dot.trim_end().ends_with('}'), "{name}");
            assert_eq!(dot.matches('{').count(), 1, "{name}");
            assert!(dot.lines().count() > 10, "{name} diagram is too sparse");
        }
        let _ = firefly();
    }
}
