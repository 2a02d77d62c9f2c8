//! # moesi — the Sweazey–Smith class of compatible cache consistency protocols
//!
//! This crate implements the protocol layer of *"A Class of Compatible Cache
//! Consistency Protocols and their Support by the IEEE Futurebus"* (Sweazey &
//! Smith, ISCA 1986): the five MOESI line states, the master and response
//! signal lines, Tables 1 and 2 as data (the full permitted-action sets that
//! define the compatible class), and every protocol the paper discusses —
//! the preferred MOESI policy, write-through and non-caching clients,
//! Berkeley, Dragon, the adapted Write-Once/Illinois/Firefly, the §5.2
//! replacement-status refinement, and the §3.4 random policy.
//!
//! The crate is pure: no bus, no cache array, no simulator — just state
//! machines. The `futurebus`, `cache-array` and `mpsim` crates build the rest
//! of the system on top of it.
//!
//! ## Quick start
//!
//! ```
//! use moesi::protocols::moesi_preferred;
//! use moesi::{LineState, LocalCtx, LocalEvent, Protocol};
//!
//! let mut cache = moesi_preferred();
//!
//! // A read miss: Table 1, row I, column Read — `CH:S/E,CA,R`.
//! let action = cache.on_local(LineState::Invalid, LocalEvent::Read, &LocalCtx::default());
//! assert_eq!(action.to_string(), "CH:S/E,CA,R");
//!
//! // If another cache answered CH, the line is loaded Shareable.
//! assert_eq!(action.result.resolve(true), LineState::Shareable);
//! // Otherwise it is Exclusive, and a later write upgrades silently.
//! assert_eq!(action.result.resolve(false), LineState::Exclusive);
//! ```
//!
//! ## Checking class membership
//!
//! ```
//! use moesi::compat::check_protocol;
//! use moesi::protocols::{dragon, illinois};
//!
//! assert!(check_protocol(&mut dragon()).is_class_member());
//! // Illinois needs the BS abort: supported by the bus, but outside the class.
//! assert!(!check_protocol(&mut illinois()).is_class_member());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod action;
pub mod compat;
pub mod dot;
mod event;
pub mod json;
pub mod policy;
mod protocol;
pub mod protocols;
pub mod rng;
pub mod serialize;
mod signals;
mod state;
pub mod table;

pub use action::{BusOp, BusReaction, BusyPush, LocalAction, ResultState};
pub use event::{BusEvent, LocalEvent};
pub use policy::{CellEvent, IllegalCell, PolicyTable, TablePolicy};
pub use protocol::{CacheKind, LocalCtx, Protocol, SnoopCtx};
pub use serialize::{parse_member_tables, parse_table, parse_tables, TableParseError};
pub use signals::{ConsistencyLine, MasterSignals, ResponseSignals};
pub use state::{Characteristics, LineState, ParseLineStateError};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LineState>();
        assert_send_sync::<MasterSignals>();
        assert_send_sync::<ResponseSignals>();
        assert_send_sync::<LocalAction>();
        assert_send_sync::<BusReaction>();
        assert_send_sync::<BusEvent>();
        assert_send_sync::<LocalEvent>();
        assert_send_sync::<CacheKind>();
    }
}
