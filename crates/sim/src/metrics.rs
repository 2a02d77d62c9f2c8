//! Per-processor statistics and state-occupancy censuses.

use futurebus::{Nanos, PhaseHistograms};
use moesi::LineState;
use std::fmt;
use std::ops::AddAssign;

/// A snapshot of how many resident lines sit in each MOESI state — the
/// Figure-3 taxonomy applied to a live machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateCensus {
    counts: [u64; 5],
}

impl StateCensus {
    /// An empty census.
    #[must_use]
    pub fn new() -> Self {
        StateCensus::default()
    }

    /// Adds one line in `state` to the census.
    pub fn record(&mut self, state: LineState) {
        self.counts[Self::index(state)] += 1;
    }

    /// Lines counted in `state`.
    #[must_use]
    pub fn count(&self, state: LineState) -> u64 {
        self.counts[Self::index(state)]
    }

    /// Total valid lines counted (Invalid is never resident, but counted if
    /// recorded).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lines in an owned state (M or O) — the write-back exposure.
    #[must_use]
    pub fn owned(&self) -> u64 {
        self.count(LineState::Modified) + self.count(LineState::Owned)
    }

    fn index(state: LineState) -> usize {
        match state {
            LineState::Modified => 0,
            LineState::Owned => 1,
            LineState::Exclusive => 2,
            LineState::Shareable => 3,
            LineState::Invalid => 4,
        }
    }
}

impl AddAssign for StateCensus {
    fn add_assign(&mut self, rhs: StateCensus) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for StateCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "M:{} O:{} E:{} S:{} I:{}",
            self.counts[0], self.counts[1], self.counts[2], self.counts[3], self.counts[4]
        )
    }
}

/// The result of a contention-aware timed run
/// ([`System::run_timed`](crate::System::run_timed)).
///
/// The paper's §1 argument in numbers: "no feasible bus design can provide
/// adequate bandwidth to memory for any reasonable number of high
/// performance processors" — unless caches absorb the references.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimedReport {
    /// Wall-clock nanoseconds until the last processor finished.
    pub wall_ns: Nanos,
    /// Nanoseconds the (single) bus was occupied.
    pub bus_busy_ns: Nanos,
    /// Total nanoseconds processors spent queued waiting for the bus.
    pub bus_wait_ns: Nanos,
    /// References completed across all processors.
    pub total_refs: u64,
    /// Per-phase bus latency histograms observed by the bus during the run —
    /// which pipeline phases the occupancy actually went to.
    pub phase_hist: PhaseHistograms,
}

impl TimedReport {
    /// Fraction of wall time the bus was occupied (the saturation measure).
    #[must_use]
    pub fn bus_utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.bus_busy_ns as f64 / self.wall_ns as f64
        }
    }

    /// Aggregate throughput in references per microsecond.
    #[must_use]
    pub fn refs_per_us(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.total_refs as f64 * 1000.0 / self.wall_ns as f64
        }
    }
}

impl fmt::Display for TimedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refs in {} ns ({:.2} refs/us), bus {:.0}% utilised, {} ns queued",
            self.total_refs,
            self.wall_ns,
            self.refs_per_us(),
            self.bus_utilization() * 100.0,
            self.bus_wait_ns,
        )
    }
}

/// Everything one processor/cache node did and had done to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Processor reads issued.
    pub reads: u64,
    /// Processor writes issued.
    pub writes: u64,
    /// Reads satisfied without a bus transaction.
    pub read_hits: u64,
    /// Writes satisfied without a bus transaction.
    pub write_hits: u64,
    /// Bus transactions this node mastered (including write-throughs,
    /// invalidates and write-backs).
    pub bus_transactions: u64,
    /// Bus time consumed by this node's transactions.
    pub bus_ns: Nanos,
    /// Lines this node invalidated because of snooped traffic.
    pub invalidations_received: u64,
    /// Snooped broadcast updates applied to this node's lines (SL connects).
    pub updates_received: u64,
    /// Reads this node served by intervention (DI on a read).
    pub interventions_supplied: u64,
    /// Foreign writes this node captured as owner (DI on a write).
    pub captures: u64,
    /// Dirty lines written back (evictions + explicit flushes + passes).
    pub write_backs: u64,
    /// BS abort-and-push sequences this node performed.
    pub pushes: u64,
    /// Aborts this node's own transactions suffered.
    pub aborts_suffered: u64,
    /// True once the bus watchdog retired this node from the snoop set and
    /// degraded it to a non-caching client.
    pub retired: bool,
}

impl CpuStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        CpuStats::default()
    }

    /// Total processor references.
    #[must_use]
    pub fn references(&self) -> u64 {
        self.reads + self.writes
    }

    /// References that needed no bus transaction.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Fraction of references satisfied locally (0 when idle).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let refs = self.references();
        if refs == 0 {
            0.0
        } else {
            self.hits() as f64 / refs as f64
        }
    }

    /// Bus transactions per reference — the traffic figure of merit the
    /// paper's §1 motivates ("the cache also cuts the memory bandwidth
    /// requirement").
    #[must_use]
    pub fn transactions_per_ref(&self) -> f64 {
        let refs = self.references();
        if refs == 0 {
            0.0
        } else {
            self.bus_transactions as f64 / refs as f64
        }
    }
}

impl AddAssign for CpuStats {
    fn add_assign(&mut self, r: CpuStats) {
        self.reads += r.reads;
        self.writes += r.writes;
        self.read_hits += r.read_hits;
        self.write_hits += r.write_hits;
        self.bus_transactions += r.bus_transactions;
        self.bus_ns += r.bus_ns;
        self.invalidations_received += r.invalidations_received;
        self.updates_received += r.updates_received;
        self.interventions_supplied += r.interventions_supplied;
        self.captures += r.captures;
        self.write_backs += r.write_backs;
        self.pushes += r.pushes;
        self.aborts_suffered += r.aborts_suffered;
        self.retired |= r.retired;
    }
}

impl fmt::Display for CpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refs ({:.1}% hit), {} bus txns ({} ns), {} inv-recv, {} upd-recv, {} interv, {} capt, {} wb, {} push, {} aborted",
            self.references(),
            self.hit_ratio() * 100.0,
            self.bus_transactions,
            self.bus_ns,
            self.invalidations_received,
            self.updates_received,
            self.interventions_supplied,
            self.captures,
            self.write_backs,
            self.pushes,
            self.aborts_suffered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_and_sums() {
        let mut c = StateCensus::new();
        c.record(LineState::Modified);
        c.record(LineState::Owned);
        c.record(LineState::Owned);
        c.record(LineState::Shareable);
        assert_eq!(c.count(LineState::Owned), 2);
        assert_eq!(c.owned(), 3);
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(LineState::Invalid), 0);
        assert_eq!(c.to_string(), "M:1 O:2 E:0 S:1 I:0");
        let mut d = StateCensus::new();
        d.record(LineState::Exclusive);
        c += d;
        assert_eq!(c.count(LineState::Exclusive), 1);
    }

    #[test]
    fn ratios_handle_idle_nodes() {
        let s = CpuStats::new();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.transactions_per_ref(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = CpuStats {
            reads: 6,
            writes: 4,
            read_hits: 5,
            write_hits: 3,
            bus_transactions: 2,
            ..CpuStats::new()
        };
        assert_eq!(s.references(), 10);
        assert_eq!(s.hits(), 8);
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((s.transactions_per_ref() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums() {
        let mut a = CpuStats {
            reads: 1,
            pushes: 2,
            ..CpuStats::new()
        };
        a += CpuStats {
            reads: 3,
            captures: 1,
            ..CpuStats::new()
        };
        assert_eq!(a.reads, 4);
        assert_eq!(a.pushes, 2);
        assert_eq!(a.captures, 1);
    }

    #[test]
    fn display_reports_percentages() {
        let s = CpuStats {
            reads: 2,
            read_hits: 1,
            ..CpuStats::new()
        };
        assert!(s.to_string().contains("50.0% hit"));
    }
}
