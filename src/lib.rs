//! # moesi-futurebus
//!
//! A full reproduction of **Sweazey & Smith, "A Class of Compatible Cache
//! Consistency Protocols and their Support by the IEEE Futurebus"
//! (ISCA 1986)** — the paper that named the MOESI states.
//!
//! This crate is a facade over the workspace:
//!
//! * [`moesi`] — the five states, the signal lines, Tables 1–2 as data (the
//!   compatible class), and all the protocols: MOESI preferred/invalidating,
//!   write-through, non-caching, Berkeley, Dragon, Write-Once, Illinois,
//!   Firefly, the Puzak §5.2 refinement, and the §3.4 random policy.
//! * [`futurebus`] — wired-OR signalling, the broadcast address handshake,
//!   transactions with intervention and BS abort-push-restart, timing.
//! * [`cache_array`] — set-associative arrays, replacement policies, sector
//!   caches, line-crosser splitting.
//! * [`mpsim`] — the multiprocessor simulator with its consistency oracle and
//!   synthetic workloads.
//!
//! ## The headline claim, demonstrated
//!
//! Any mixture of class members — even a node choosing *randomly* among the
//! permitted actions on every event — preserves the shared memory image:
//!
//! ```
//! use cache_array::CacheConfig;
//! use moesi::protocols::{dragon, moesi_preferred, random, write_through};
//! use moesi::CacheKind;
//! use moesi_futurebus::mpsim::SystemBuilder;
//!
//! let mut sys = SystemBuilder::new(32)
//!     .cache(Box::new(moesi_preferred()), CacheConfig::small())
//!     .cache(Box::new(dragon()), CacheConfig::small())
//!     .cache(Box::new(write_through()), CacheConfig::small())
//!     .cache(Box::new(random(CacheKind::CopyBack, 7)), CacheConfig::small())
//!     .checking(true) // the oracle panics on any inconsistency
//!     .build();
//!
//! for i in 0..100u64 {
//!     let cpu = (i % 4) as usize;
//!     let addr = 0x1000 + (i % 8) * 32;
//!     if i % 3 == 0 {
//!         sys.write(cpu, addr, &[i as u8; 4]);
//!     } else {
//!         let _ = sys.read(cpu, addr, 4);
//!     }
//! }
//! sys.verify().expect("the class is compatible");
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use cache_array;
pub use futurebus;
pub use moesi;
pub use mpsim;
