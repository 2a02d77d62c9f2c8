//! # cache-array — set-associative cache arrays for the MOESI simulator
//!
//! The tag/data substrate under every snooping cache controller in the
//! Sweazey–Smith (ISCA 1986) reproduction:
//!
//! * [`CacheArray`] — a set-associative array generic over the per-line
//!   consistency state, with LRU/FIFO/random replacement and the §5.2
//!   *recency rank* the Puzak refinement consults;
//! * [`split_line_crossers`] — the §5.1 rule that an access overlapping two
//!   or more lines becomes one transaction per line;
//! * [`SectorCache`] — a sector (sub-block) cache with consistency state per
//!   transfer subsector, as §5.1 concludes is necessary.
//!
//! ## Quick start
//!
//! ```
//! use cache_array::{CacheArray, CacheConfig, ReplacementKind};
//! use moesi::LineState;
//!
//! let cfg = CacheConfig::new(8192, 32, 4, ReplacementKind::Lru);
//! let mut cache: CacheArray<LineState> = CacheArray::new(cfg, 42);
//! cache.fill(0x80, LineState::Exclusive, &[0; 32], &mut Vec::new());
//! assert_eq!(cache.state_of(0x80), Some(LineState::Exclusive));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod array;
mod config;
mod sector;

pub use address::{split_line_crossers, AddressMap};
pub use array::{CacheArray, Entry, Victim};
pub use config::{CacheConfig, ReplacementKind};
pub use sector::{SectorCache, SectorProbe};
