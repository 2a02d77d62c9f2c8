//! Concrete consistency protocols — every one a [`PolicyTable`] constructor.
//!
//! * In-class (members of the Tables 1–2 compatible class, §3.3–3.4):
//!   [`MoesiPreferred`], [`MoesiInvalidating`], [`PuzakRefinement`],
//!   [`HybridUpdateInvalidate`], [`WriteThrough`], [`NonCaching`],
//!   [`Berkeley`] (Table 3), [`Dragon`] (Table 4), and [`RandomPolicy`] — the
//!   paper's "extreme case" that picks a permitted action at random on every
//!   event.
//! * Adapted (require the BS abort-and-push mechanism, §4.3–4.5):
//!   [`WriteOnce`] (Table 5), [`Illinois`] (Table 6), [`Firefly`] (Table 7),
//!   and [`Synapse`] — the sixth protocol of the Archibald & Baer comparison
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
//! Since the table-driven refactor each protocol is **data**: a
//! [`PolicyTable`](crate::policy::PolicyTable) built once in the constructor
//! and interpreted by [`TablePolicy`](crate::policy::TablePolicy). The public
//! structs remain (they document provenance and carry variant constructors);
//! [`delegate_to_table!`] generates their [`Protocol`](crate::Protocol) impls.
//! Stateful selectors ([`RandomPolicy`], [`PuzakRefinement`], [`Scripted`],
//! [`HybridUpdateInvalidate`]) layer a
//! [`DynamicPolicy`](crate::policy::DynamicPolicy) hook over their base table.

/// Implements [`Protocol`](crate::Protocol) for a wrapper struct whose
/// `inner` field is a [`TablePolicy`](crate::policy::TablePolicy), forwarding
/// every method — including the fallible and introspection forms.
macro_rules! delegate_to_table {
    ($ty:ty) => {
        impl crate::Protocol for $ty {
            fn name(&self) -> &str {
                crate::Protocol::name(&self.inner)
            }

            fn kind(&self) -> crate::CacheKind {
                crate::Protocol::kind(&self.inner)
            }

            fn requires_bs(&self) -> bool {
                crate::Protocol::requires_bs(&self.inner)
            }

            fn on_local(
                &mut self,
                state: crate::LineState,
                event: crate::LocalEvent,
                ctx: &crate::LocalCtx,
            ) -> crate::LocalAction {
                self.inner.on_local(state, event, ctx)
            }

            fn on_bus(
                &mut self,
                state: crate::LineState,
                event: crate::BusEvent,
                ctx: &crate::SnoopCtx,
            ) -> crate::BusReaction {
                self.inner.on_bus(state, event, ctx)
            }

            fn try_on_local(
                &mut self,
                state: crate::LineState,
                event: crate::LocalEvent,
                ctx: &crate::LocalCtx,
            ) -> Result<crate::LocalAction, crate::IllegalCell> {
                self.inner.try_on_local(state, event, ctx)
            }

            fn try_on_bus(
                &mut self,
                state: crate::LineState,
                event: crate::BusEvent,
                ctx: &crate::SnoopCtx,
            ) -> Result<crate::BusReaction, crate::IllegalCell> {
                self.inner.try_on_bus(state, event, ctx)
            }

            fn policy_table(&self) -> Option<&crate::PolicyTable> {
                crate::Protocol::policy_table(&self.inner)
            }

            fn table_is_exact(&self) -> bool {
                crate::Protocol::table_is_exact(&self.inner)
            }
        }
    };
}

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

pub use berkeley::Berkeley;
pub use dragon::Dragon;
pub use firefly::Firefly;
pub use hybrid::HybridUpdateInvalidate;
pub use illinois::Illinois;
pub use moesi_invalidating::MoesiInvalidating;
pub use moesi_preferred::MoesiPreferred;
pub use non_caching::NonCaching;
pub use puzak::PuzakRefinement;
pub use random_policy::RandomPolicy;
pub use scripted::{Choices, Offer, Pick, ScriptHandle, Scripted};
pub use synapse::Synapse;
pub use write_once::WriteOnce;
pub use write_through::WriteThrough;

use crate::protocol::CacheKind;

/// Every built-in protocol, boxed, for exhaustive testing and benchmarking.
///
/// The list is deterministic; random-policy members are seeded with `seed`.
#[must_use]
pub fn all_protocols(seed: u64) -> Vec<Box<dyn crate::Protocol + Send>> {
    vec![
        Box::new(MoesiPreferred::new()),
        Box::new(MoesiInvalidating::new()),
        Box::new(PuzakRefinement::new()),
        Box::new(HybridUpdateInvalidate::new()),
        Box::new(WriteThrough::new()),
        Box::new(WriteThrough::non_broadcasting()),
        Box::new(NonCaching::new()),
        Box::new(NonCaching::broadcasting()),
        Box::new(Berkeley::new()),
        Box::new(Dragon::new()),
        Box::new(WriteOnce::new()),
        Box::new(Illinois::new()),
        Box::new(Firefly::new()),
        Box::new(Synapse::new()),
        Box::new(RandomPolicy::new(CacheKind::CopyBack, seed)),
    ]
}

/// The in-class protocols only (safe to mix arbitrarily on one bus).
#[must_use]
pub fn class_member_protocols(seed: u64) -> Vec<Box<dyn crate::Protocol + Send>> {
    vec![
        Box::new(MoesiPreferred::new()),
        Box::new(MoesiInvalidating::new()),
        Box::new(PuzakRefinement::new()),
        Box::new(HybridUpdateInvalidate::new()),
        Box::new(WriteThrough::new()),
        Box::new(WriteThrough::non_broadcasting()),
        Box::new(NonCaching::new()),
        Box::new(NonCaching::broadcasting()),
        Box::new(Berkeley::new()),
        Box::new(Dragon::new()),
        Box::new(RandomPolicy::new(CacheKind::CopyBack, seed)),
        Box::new(RandomPolicy::new(
            CacheKind::WriteThrough,
            seed.wrapping_add(1),
        )),
        Box::new(RandomPolicy::new(
            CacheKind::NonCaching,
            seed.wrapping_add(2),
        )),
    ]
}

/// Looks a protocol up by (case-insensitive) name, for CLI harnesses.
///
/// Recognised names: `moesi`, `moesi-invalidating`, `puzak`, `hybrid`,
/// `write-through`, `non-caching`, `berkeley`, `dragon`, `write-once`,
/// `illinois`, `firefly`, `synapse`, `random`.
#[must_use]
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn crate::Protocol + Send>> {
    let p: Box<dyn crate::Protocol + Send> = match name.to_ascii_lowercase().as_str() {
        "moesi" | "moesi-preferred" => Box::new(MoesiPreferred::new()),
        "moesi-invalidating" => Box::new(MoesiInvalidating::new()),
        "puzak" => Box::new(PuzakRefinement::new()),
        "hybrid" | "moesi-hybrid" => Box::new(HybridUpdateInvalidate::new()),
        "write-through" | "wt" => Box::new(WriteThrough::new()),
        "non-caching" | "none" => Box::new(NonCaching::new()),
        "berkeley" => Box::new(Berkeley::new()),
        "dragon" => Box::new(Dragon::new()),
        "write-once" => Box::new(WriteOnce::new()),
        "illinois" => Box::new(Illinois::new()),
        "firefly" => Box::new(Firefly::new()),
        "synapse" => Box::new(Synapse::new()),
        "random" => Box::new(RandomPolicy::new(CacheKind::CopyBack, seed)),
        _ => return None,
    };
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_protocols_have_distinct_names() {
        let protocols = all_protocols(7);
        let mut names: Vec<String> = protocols.iter().map(|p| p.name().to_string()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        // WriteThrough and NonCaching appear in two flavours with the same
        // name; everything else is unique.
        assert!(names.len() >= before - 2);
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
                "{name} has a dynamic hook"
            );
        }
    }
}
