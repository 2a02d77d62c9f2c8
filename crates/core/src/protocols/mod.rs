//! Concrete consistency protocols — every one a [`TablePolicy`] value.
//!
//! * In-class (members of the Tables 1–2 compatible class, §3.3–3.4):
//!   [`moesi_preferred`], [`moesi_invalidating`], [`puzak`], [`hybrid`],
//!   [`write_through`], [`non_caching`], [`berkeley`] (Table 3), [`dragon`]
//!   (Table 4), and [`random`] — the paper's "extreme case" that picks a
//!   permitted action at random on every event.
//! * Adapted (require the BS abort-and-push mechanism, §4.3–4.5):
//!   [`write_once`] (Table 5), [`illinois`] (Table 6), [`firefly`] (Table 7),
//!   and [`synapse`] — the sixth protocol of the Archibald & Baer comparison
//!   §5.2 builds on, reached through the paper's \[Fran84\] reference.
//!
//! §4 of the paper defines Tables 3–7 "only to the extent necessary to define
//! the algorithm relative to the Futurebus facilities and to its interaction
//! with other caches using the same protocol", leaving reactions to
//! foreign-master bus events (uncached reads/writes, broadcast writes the
//! protocol itself never issues) unspecified. Our tables complete those cells
//! — each file documents its completion policy — so every protocol can run on
//! a shared bus next to any other.
//!
//! §3.4 defines a protocol as a choice of cells from Tables 1–2, and so does
//! this module: each file holds one protocol's
//! [`PolicyTable`](crate::PolicyTable) builder, its provenance, and a
//! constructor returning the [`TablePolicy`] that interprets it. Variants
//! are sibling constructors. The stateful selectors ([`puzak`], [`hybrid`],
//! [`random`] and the [`ScriptHandle`]'s policies) add one refinement over
//! their base table, whose logic lives in the same file.

mod berkeley;
mod dragon;
mod firefly;
mod hybrid;
mod illinois;
mod moesi_invalidating;
mod moesi_preferred;
mod non_caching;
mod puzak;
mod random_policy;
mod scripted;
mod synapse;
mod write_once;
mod write_through;

pub use berkeley::berkeley;
pub use dragon::dragon;
pub use firefly::firefly;
pub use hybrid::hybrid;
pub use illinois::illinois;
pub use moesi_invalidating::moesi_invalidating;
pub use moesi_preferred::moesi_preferred;
pub use non_caching::{non_caching, non_caching_broadcasting};
pub use puzak::puzak;
pub use random_policy::random;
pub use scripted::{Choices, Offer, Pick, ScriptHandle};
pub use synapse::synapse;
pub use write_once::{write_once, write_once_always_pushing};
pub use write_through::{write_through, write_through_allocating, write_through_non_broadcasting};

pub(crate) use hybrid::{sharing_bus, sharing_local};
pub(crate) use puzak::recency_bus;
pub(crate) use random_policy::{uniform_bus, uniform_local};
pub(crate) use scripted::ScriptHook;

use crate::action::{BusReaction, ResultState};
use crate::event::BusEvent;
use crate::protocol::CacheKind;
use crate::state::LineState;
use crate::{table, TablePolicy};

/// The invalidating choice of a snooped bus cell: its last permitted entry
/// that drops the copy without intervening. `None` where the cell has none
/// (an owner must keep its line on an uncached broadcast).
fn discard(state: LineState, event: BusEvent) -> Option<BusReaction> {
    table::permitted_bus(state, event)
        .into_iter()
        .rev()
        .find(|r| r.result == ResultState::Fixed(LineState::Invalid) && !r.di)
}

/// Every built-in protocol and variant, for exhaustive testing and
/// benchmarking.
///
/// The list is deterministic; random-policy members are seeded with `seed`.
#[must_use]
pub fn all_protocols(seed: u64) -> Vec<TablePolicy> {
    vec![
        moesi_preferred(),
        moesi_invalidating(),
        puzak(),
        hybrid(),
        write_through(),
        write_through_non_broadcasting(),
        non_caching(),
        non_caching_broadcasting(),
        berkeley(),
        dragon(),
        write_once(),
        illinois(),
        firefly(),
        synapse(),
        random(CacheKind::CopyBack, seed),
    ]
}

/// The in-class protocols only (safe to mix arbitrarily on one bus).
#[must_use]
pub fn class_member_protocols(seed: u64) -> Vec<TablePolicy> {
    vec![
        moesi_preferred(),
        moesi_invalidating(),
        puzak(),
        hybrid(),
        write_through(),
        write_through_non_broadcasting(),
        non_caching(),
        non_caching_broadcasting(),
        berkeley(),
        dragon(),
        random(CacheKind::CopyBack, seed),
        random(CacheKind::WriteThrough, seed.wrapping_add(1)),
        random(CacheKind::NonCaching, seed.wrapping_add(2)),
    ]
}

/// Looks a protocol up by (case-insensitive) name, for CLI harnesses.
///
/// Recognised names: `moesi`, `moesi-invalidating`, `puzak`, `hybrid`,
/// `write-through`, `non-caching`, `berkeley`, `dragon`, `write-once`,
/// `illinois`, `firefly`, `synapse`, `random`.
#[must_use]
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn crate::Protocol + Send>> {
    let p = match name.to_ascii_lowercase().as_str() {
        "moesi" | "moesi-preferred" => moesi_preferred(),
        "moesi-invalidating" => moesi_invalidating(),
        "puzak" => puzak(),
        "hybrid" | "moesi-hybrid" => hybrid(),
        "write-through" | "wt" => write_through(),
        "non-caching" | "none" => non_caching(),
        "berkeley" => berkeley(),
        "dragon" => dragon(),
        "write-once" => write_once(),
        "illinois" => illinois(),
        "firefly" => firefly(),
        "synapse" => synapse(),
        "random" => random(CacheKind::CopyBack, seed),
        _ => return None,
    };
    Some(Box::new(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    #[test]
    fn all_protocols_have_distinct_names() {
        let protocols = all_protocols(7);
        assert_eq!(protocols.len(), 15);
        for (i, a) in protocols.iter().enumerate() {
            for b in &protocols[i + 1..] {
                assert_ne!(a.table(), b.table(), "{} is listed twice", a.name());
            }
        }
        // Only the two flavours of write-through and of non-caching share a
        // name; every other entry is unique.
        let mut names: Vec<&str> = protocols.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        let shared: Vec<&str> = names
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect();
        assert_eq!(shared, ["non-caching", "write-through"]);
    }

    #[test]
    fn by_name_finds_every_published_protocol() {
        for name in [
            "moesi",
            "moesi-invalidating",
            "puzak",
            "hybrid",
            "write-through",
            "non-caching",
            "berkeley",
            "dragon",
            "write-once",
            "illinois",
            "firefly",
            "synapse",
            "random",
        ] {
            assert!(by_name(name, 1).is_some(), "{name} not found");
        }
        assert!(by_name("MOESI", 1).is_some(), "lookup is case-insensitive");
        assert!(by_name("goodman-1984", 1).is_none());
    }

    #[test]
    fn adapted_protocols_require_bs_and_class_members_do_not() {
        for p in class_member_protocols(3) {
            assert!(!p.requires_bs(), "{} should not need BS", p.name());
        }
        for name in ["write-once", "illinois", "firefly", "synapse"] {
            assert!(by_name(name, 1).unwrap().requires_bs(), "{name} needs BS");
        }
    }

    #[test]
    fn every_protocol_exposes_its_policy_table() {
        for p in all_protocols(7) {
            let table = p.policy_table().unwrap_or_else(|| {
                panic!("{} has no policy table", p.name());
            });
            assert_eq!(table.name(), p.name());
            assert_eq!(table.kind(), p.kind());
            assert_eq!(table.requires_bs(), p.requires_bs());
            assert!(table.populated_cells() > 0, "{} is empty", p.name());
        }
    }

    #[test]
    fn static_protocols_are_exact_and_stateful_ones_are_not() {
        for name in [
            "moesi",
            "moesi-invalidating",
            "write-through",
            "non-caching",
            "berkeley",
            "dragon",
            "write-once",
            "illinois",
            "firefly",
            "synapse",
        ] {
            assert!(
                by_name(name, 1).unwrap().table_is_exact(),
                "{name} should be a pure table"
            );
        }
        for name in ["puzak", "hybrid", "random"] {
            assert!(
                !by_name(name, 1).unwrap().table_is_exact(),
                "{name} carries a refinement"
            );
        }
    }
}
