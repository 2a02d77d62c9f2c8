//! # mpsim — a shared-bus multiprocessor simulator for the MOESI class
//!
//! The evaluation vehicle of the Sweazey–Smith (ISCA 1986) reproduction: it
//! assembles processors (with copy-back caches, write-through caches, or no
//! cache at all), snooping [`CacheController`]s running any `moesi::Protocol`,
//! one `futurebus::Futurebus` — or §6's tree of them, whose one-leaf case is
//! the single bus ([`System`]) — and drives synthetic workloads over the whole
//! machine while a consistency oracle audits the shared memory image.
//!
//! ## Quick start
//!
//! ```
//! use cache_array::CacheConfig;
//! use moesi::protocols::{moesi_preferred, write_through};
//! use mpsim::SystemBuilder;
//!
//! let mut sys = SystemBuilder::new(32)
//!     .cache(Box::new(moesi_preferred()), CacheConfig::small())
//!     .cache(Box::new(write_through()), CacheConfig::small())
//!     .checking(true) // panic on any consistency violation
//!     .build();
//!
//! sys.write(0, 0x1000, b"abcd");
//! assert_eq!(sys.read(1, 0x1000, 4), b"abcd");
//! println!("{}", sys.bus_stats());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
mod checker;
mod controller;
pub mod engine;
mod fabric;
pub mod faults;
pub mod hierarchy;
mod metrics;
pub mod profile;
pub mod replay;
mod system;
pub mod workload;

pub use campaign::{default_jobs, merge_phase_histograms, run_jobs, SHARD_REGIONS};
pub use checker::{Checker, OracleWork, Violation};
pub use controller::{CacheController, Held};
pub use fabric::Fabric;
pub use faults::{
    campaign_report_json, liveness_probe_json, run_campaign, run_liveness_probe, CampaignConfig,
    CampaignReport, FaultClass, FaultVerdict, LivenessOutcome, LivenessProbe, ProtocolRun, Tally,
    TreeExtras, TreeShape,
};
pub use metrics::{CpuStats, StateCensus, TimedReport};
pub use profile::{chrome_trace, trace_run, TraceRunConfig};
pub use replay::{replay, Failure, ReplayFault, ReplayOp, ReplayOutcome, Trace, TraceStep};
pub use system::{System, SystemBuilder};
pub use workload::{
    Access, DuboisBriggs, FalseSharing, Migratory, ParseTraceError, PingPong, ProducerConsumer,
    ReadMostly, RefStream, Sequential, SharingModel, TraceReplay,
};
