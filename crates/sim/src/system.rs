//! The shared-bus multiprocessor: processors, caches, memory, one Futurebus.
//!
//! [`SystemBuilder`] assembles a heterogeneous machine — any mixture of
//! protocols per node, exactly as §3.4 promises ("different boards on the bus
//! can implement different protocols, provided that each comes from this
//! class") — and [`System`] drives it: every processor read or write becomes
//! cache lookups, protocol consultations and Futurebus transactions, with the
//! [`Checker`] oracle auditing the shared memory image after every access
//! when enabled. The access engine itself lives in [`Fabric`](crate::Fabric).

use cache_array::CacheConfig;
use futurebus::{BusStats, TimingConfig};
use moesi::{CacheKind, LineState, Protocol};

use crate::checker::{Checker, Violation};
use crate::controller::CacheController;
use crate::engine;
use crate::fabric::Fabric;
use crate::metrics::{CpuStats, MachineReport};
use crate::workload::{Access, RefStream, WritePayload};

/// Builds a [`System`].
///
/// # Examples
///
/// ```
/// use mpsim::SystemBuilder;
/// use moesi::protocols::{Dragon, MoesiPreferred, NonCaching};
/// use cache_array::CacheConfig;
///
/// let mut sys = SystemBuilder::new(32)
///     .cache(Box::new(MoesiPreferred::new()), CacheConfig::small())
///     .cache(Box::new(Dragon::new()), CacheConfig::small())
///     .uncached(Box::new(NonCaching::new()))
///     .checking(true)
///     .build();
/// sys.write(0, 0x1000, &[1, 2, 3, 4]);
/// assert_eq!(sys.read(2, 0x1000, 4), vec![1, 2, 3, 4]);
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    line_size: usize,
    timing: TimingConfig,
    nodes: Vec<(Box<dyn Protocol + Send>, Option<CacheConfig>)>,
    checking: bool,
    seed: u64,
}

impl SystemBuilder {
    /// Starts a builder for a system with the given (standard, §5.1) line
    /// size in bytes.
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        SystemBuilder {
            line_size,
            timing: TimingConfig::default(),
            nodes: Vec::new(),
            checking: false,
            seed: 0x5EED,
        }
    }

    /// Sets the bus timing model.
    #[must_use]
    pub fn timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Enables the consistency oracle (verified after every access).
    #[must_use]
    pub fn checking(mut self, on: bool) -> Self {
        self.checking = on;
        self
    }

    /// Seeds the replacement-policy RNGs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a caching node (copy-back or write-through protocol).
    ///
    /// # Panics
    ///
    /// Panics if the cache's line size differs from the system's — §5.1: "a
    /// given system \[must\] standardize on a given line size".
    #[must_use]
    pub fn cache(mut self, protocol: Box<dyn Protocol + Send>, config: CacheConfig) -> Self {
        assert_eq!(
            config.line_size, self.line_size,
            "§5.1: all caches must use the system line size ({} != {})",
            config.line_size, self.line_size
        );
        assert_ne!(
            protocol.kind(),
            CacheKind::NonCaching,
            "use `uncached` for non-caching protocols"
        );
        self.nodes.push((protocol, Some(config)));
        self
    }

    /// Adds a non-caching node (a bare processor or I/O board).
    ///
    /// # Panics
    ///
    /// Panics if the protocol is a caching one.
    #[must_use]
    pub fn uncached(mut self, protocol: Box<dyn Protocol + Send>) -> Self {
        assert_eq!(
            protocol.kind(),
            CacheKind::NonCaching,
            "use `cache` for caching protocols"
        );
        self.nodes.push((protocol, None));
        self
    }

    /// Assembles the system.
    ///
    /// # Panics
    ///
    /// Panics when no nodes were added.
    #[must_use]
    pub fn build(self) -> System {
        assert!(!self.nodes.is_empty(), "a system needs at least one node");
        let controllers: Vec<CacheController> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(id, (protocol, cfg))| {
                CacheController::new(id, protocol, cfg, self.seed.wrapping_add(id as u64))
            })
            .collect();
        let mut fabric = Fabric::new(self.line_size, self.timing, controllers);
        let checker = self.checking.then(|| {
            fabric.track_changes(true);
            let mut ck = Checker::new(self.line_size);
            ck.track_changes(true);
            ck
        });
        System {
            fabric,
            checker,
            write_seq: 0,
            read_buf: Vec::new(),
        }
    }
}

/// A running shared-bus multiprocessor.
#[derive(Debug)]
pub struct System {
    fabric: Fabric,
    checker: Option<Checker>,
    write_seq: u32,
    /// The buffer checked workload reads land in, kept for its capacity.
    read_buf: Vec<u8>,
}

impl System {
    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.fabric.nodes()
    }

    /// The system line size.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.fabric.line_size()
    }

    /// A node's statistics.
    #[must_use]
    pub fn stats(&self, cpu: usize) -> &CpuStats {
        self.fabric.controller(cpu).stats()
    }

    /// Sum of all nodes' statistics.
    #[must_use]
    pub fn total_stats(&self) -> CpuStats {
        let mut total = CpuStats::new();
        for c in self.fabric.controllers() {
            total += *c.stats();
        }
        total
    }

    /// The bus statistics.
    #[must_use]
    pub fn bus_stats(&self) -> &BusStats {
        self.fabric.bus().stats()
    }

    /// Per-phase bus latency histograms accumulated so far.
    #[must_use]
    pub fn phase_histograms(&self) -> &futurebus::PhaseHistograms {
        self.fabric.bus().phase_histograms()
    }

    /// A node's controller (for state inspection in tests).
    #[must_use]
    pub fn controller(&self, cpu: usize) -> &CacheController {
        self.fabric.controller(cpu)
    }

    /// The underlying fabric (advanced: preloading memory, custom drivers).
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable fabric access. Writes made behind the oracle's back will be
    /// reported as violations; use [`System::write`] for checked accesses.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The consistency state node `cpu` holds for the line containing `addr`.
    #[must_use]
    pub fn state_of(&self, cpu: usize, addr: u64) -> LineState {
        self.fabric.controller(cpu).state_of(addr)
    }

    /// Verifies the shared-memory-image invariants now, over every line.
    ///
    /// # Errors
    ///
    /// Returns the first violation, if any. Always `Ok` when the oracle was
    /// not enabled.
    pub fn verify(&self) -> Result<(), Violation> {
        match &self.checker {
            Some(ck) => ck.verify(&self.fabric),
            None => Ok(()),
        }
    }

    /// Processor `cpu` reads `len` bytes at `addr` (any alignment; line
    /// crossers become one transaction per line, §5.1).
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation when the oracle is enabled.
    pub fn read(&mut self, cpu: usize, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(cpu, addr, len, &mut out);
        out
    }

    /// [`System::read`], appending the bytes to `out`.
    fn read_into(&mut self, cpu: usize, addr: u64, len: usize, out: &mut Vec<u8>) {
        let start = out.len();
        self.fabric.read_into(cpu, addr, len, out);
        if let Some(ck) = &self.checker {
            if let Err(v) = ck.check_read(cpu, addr, &out[start..]) {
                panic!("consistency violation: {v}");
            }
        }
        self.audit();
    }

    /// Processor `cpu` writes `bytes` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation when the oracle is enabled.
    pub fn write(&mut self, cpu: usize, addr: u64, bytes: &[u8]) {
        let checker = &mut self.checker;
        self.fabric
            .write_with(cpu, addr, bytes, |piece_addr, piece| {
                if let Some(ck) = checker {
                    ck.record_write(piece_addr, piece);
                }
            });
        self.audit();
    }

    /// An atomic read-modify-write: reads `len` bytes at `addr`, applies `f`,
    /// writes the result back, and returns the *old* bytes.
    ///
    /// Atomicity comes from the bus itself: the Futurebus serialises
    /// transactions and the simulator runs one access at a time, so the
    /// read–modify–write triple is an indivisible bus-locked sequence — the
    /// mechanism 1980s backplanes used for test-and-set.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a different length than it was given, if the
    /// access crosses a line boundary (locked cycles cannot be split), or on
    /// a consistency violation.
    pub fn atomic_rmw<F>(&mut self, cpu: usize, addr: u64, len: usize, f: F) -> Vec<u8>
    where
        F: FnOnce(&[u8]) -> Vec<u8>,
    {
        assert_eq!(
            self.fabric.line_addr(addr),
            self.fabric.line_addr(addr + len as u64 - 1),
            "a locked read-modify-write must not cross a line"
        );
        let old = self.read(cpu, addr, len);
        let new = f(&old);
        assert_eq!(new.len(), len, "rmw must preserve the operand size");
        self.write(cpu, addr, &new);
        old
    }

    /// An atomic 32-bit little-endian fetch-and-add; returns the old value.
    ///
    /// # Panics
    ///
    /// Panics if the word crosses a line boundary or on a consistency
    /// violation.
    pub fn fetch_add_u32(&mut self, cpu: usize, addr: u64, delta: u32) -> u32 {
        let old = self.atomic_rmw(cpu, addr, 4, |bytes| {
            let v = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            v.wrapping_add(delta).to_le_bytes().to_vec()
        });
        u32::from_le_bytes(old.try_into().expect("4 bytes"))
    }

    /// An atomic test-and-set on one byte; returns the old value (0 means the
    /// lock was acquired).
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation.
    pub fn test_and_set(&mut self, cpu: usize, addr: u64) -> u8 {
        self.atomic_rmw(cpu, addr, 1, |_| vec![1])[0]
    }

    /// Releases a [`test_and_set`](System::test_and_set) lock.
    pub fn clear_lock(&mut self, cpu: usize, addr: u64) {
        self.write(cpu, addr, &[0]);
    }

    /// Pushes a dirty line to memory while keeping the copy (Table 1, note 3).
    /// No-op unless node `cpu` holds the line in an owned state.
    pub fn pass(&mut self, cpu: usize, addr: u64) -> bool {
        let did = self.fabric.pass(cpu, addr);
        self.audit();
        did
    }

    /// Flushes (pushes if dirty, then discards) the line containing `addr`
    /// from node `cpu`'s cache (Table 1, note 4). No-op when not resident.
    pub fn flush(&mut self, cpu: usize, addr: u64) -> bool {
        let did = self.fabric.flush(cpu, addr);
        self.audit();
        did
    }

    /// Reads `len` bytes at `addr` directly from main memory, bypassing the
    /// caches and the coherence machinery entirely — what a dumb DMA engine
    /// would observe. Pair with [`make_all_consistent`] first.
    ///
    /// [`make_all_consistent`]: System::make_all_consistent
    #[must_use]
    pub fn memory_peek(&self, addr: u64, len: usize) -> Vec<u8> {
        self.fabric.bus().memory().peek_bytes(addr, len)
    }

    /// A census of node `cpu`'s resident lines by MOESI state.
    #[must_use]
    pub fn state_census(&self, cpu: usize) -> crate::StateCensus {
        let mut census = crate::StateCensus::new();
        if let Some(cache) = self.fabric.controller(cpu).cache() {
            for (_, entry) in cache.iter() {
                census.record(entry.state);
            }
        }
        census
    }

    /// A census across all nodes.
    #[must_use]
    pub fn total_state_census(&self) -> crate::StateCensus {
        let mut census = crate::StateCensus::new();
        for cpu in 0..self.nodes() {
            census += self.state_census(cpu);
        }
        census
    }

    /// Enables bus transaction tracing, keeping the most recent `capacity`
    /// records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.fabric.bus_mut().enable_trace(capacity);
    }

    /// The bus transaction trace (empty unless [`enable_trace`] was called).
    ///
    /// [`enable_trace`]: System::enable_trace
    #[must_use]
    pub fn trace(&self) -> &futurebus::BusTrace {
        self.fabric.bus().trace()
    }

    /// §6's consistency command: makes main memory consistent with the caches
    /// for the line containing `addr` ("issuing commands across the bus to
    /// cause other caches to become consistent with main memory").
    ///
    /// If some cache owns the line, that cache performs a `Pass` (push the
    /// dirty data, keep the copy unowned); afterwards memory holds the
    /// current data, as an I/O device doing uncached reads would need.
    /// Returns true when a push was necessary.
    pub fn make_memory_consistent(&mut self, addr: u64) -> bool {
        let line = self.fabric.line_addr(addr);
        let owner = (0..self.fabric.nodes())
            .find(|&cpu| self.fabric.controller(cpu).state_of(line).is_owned());
        match owner {
            Some(cpu) => self.pass(cpu, line),
            None => false,
        }
    }

    /// §6's consistency command over the whole machine: pushes every owned
    /// line so main memory holds the complete shared image. Returns the
    /// number of lines pushed.
    pub fn make_all_consistent(&mut self) -> usize {
        // Collect first (pushing mutates the caches' states, not residency).
        let owned: Vec<u64> = self
            .fabric
            .controllers()
            .iter()
            .filter_map(|c| c.cache())
            .flat_map(|cache| {
                cache
                    .iter()
                    .filter(|(_, e)| e.state.is_owned())
                    .map(|(addr, _)| addr)
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut pushed = 0;
        for line in owned {
            if self.make_memory_consistent(line) {
                pushed += 1;
            }
        }
        pushed
    }

    /// A [`MachineReport`] snapshot of the run so far: the unit of
    /// byte-exact comparison across shard worker counts and golden traces.
    #[must_use]
    pub fn machine_report(&self) -> MachineReport {
        MachineReport {
            bus: *self.bus_stats(),
            cpus: (0..self.nodes()).map(|cpu| *self.stats(cpu)).collect(),
            trace: self.trace().render(),
        }
    }

    /// Issues one workload access and returns the bus nanoseconds it used:
    /// the engine's `issue`. Writes carry the deterministic sequence-number
    /// payload; when no oracle is attached the access takes the
    /// dataless/allocation-free fabric fast paths, which have byte-identical
    /// observable effects.
    fn issue(&mut self, cpu: usize, access: &Access) -> u64 {
        let bus_before = self.stats(cpu).bus_ns;
        if access.is_write {
            self.write_seq = self.write_seq.wrapping_add(1);
            let mut payload = WritePayload::new();
            let bytes = payload.fill(self.write_seq, access.size);
            if self.checker.is_none() {
                self.fabric.write_fast(cpu, access.addr, bytes);
            } else {
                self.write(cpu, access.addr, bytes);
            }
        } else if self.checker.is_none() {
            self.fabric.read_dataless(cpu, access.addr, access.size);
        } else {
            let mut buf = std::mem::take(&mut self.read_buf);
            buf.clear();
            self.read_into(cpu, access.addr, access.size, &mut buf);
            self.read_buf = buf;
        }
        self.stats(cpu).bus_ns - bus_before
    }

    /// Drives one access from each stream per step, round-robin, for `steps`
    /// rounds: the engine's untimed run. Writes carry a deterministic
    /// sequence-number payload so the oracle can detect lost or reordered
    /// updates.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the node count, or on a
    /// consistency violation.
    pub fn run(&mut self, streams: &mut [Box<dyn RefStream + Send>], steps: u64) {
        assert_eq!(streams.len(), self.nodes(), "one reference stream per node");
        let next = engine::budget(streams.len(), steps, |cpu, slot| {
            streams[cpu].next_into(slot);
        });
        engine::drive(
            self.nodes(),
            next,
            |cpu, access| {
                self.issue(cpu, access);
                0
            },
            1,
        );
    }

    /// A contention-aware timed run: every processor advances a private
    /// clock (`cpu_work_ns` per reference of local work), and accesses that
    /// need the bus queue for the single shared resource — the §1 saturation
    /// model. Processors are simulated in virtual-time order, so coherence
    /// interleavings follow the modelled clocks.
    ///
    /// Returns the wall time, bus occupancy and queueing totals from which
    /// the speedup and utilization curves of the bus-saturation experiment
    /// are computed.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the node count, or on a
    /// consistency violation when the oracle is enabled.
    pub fn run_timed(
        &mut self,
        streams: &mut [Box<dyn RefStream + Send>],
        refs_per_cpu: u64,
        cpu_work_ns: u64,
    ) -> crate::TimedReport {
        assert_eq!(streams.len(), self.nodes(), "one stream per node");
        let next = engine::budget(streams.len(), refs_per_cpu, |cpu, slot| {
            streams[cpu].next_into(slot);
        });
        self.run_driven(next, cpu_work_ns)
    }

    /// A timed run over pre-materialised per-node access scripts instead of
    /// live streams — the shard workers' entry point, where the workload has
    /// already been partitioned by address region.
    ///
    /// # Panics
    ///
    /// Panics if the script count differs from the node count, or on a
    /// consistency violation when the oracle is enabled.
    pub fn run_timed_script(
        &mut self,
        scripts: &[Vec<Access>],
        cpu_work_ns: u64,
    ) -> crate::TimedReport {
        assert_eq!(scripts.len(), self.nodes(), "one script per node");
        let mut scripts: Vec<_> = scripts.iter().map(|s| s.iter().copied()).collect();
        self.run_driven(
            |cpu, slot| scripts[cpu].next().map(|access| *slot = access).is_some(),
            cpu_work_ns,
        )
    }

    /// A timed engine run, reporting the bus's phase histograms with it.
    fn run_driven(
        &mut self,
        next: impl FnMut(usize, &mut Access) -> bool,
        cpu_work_ns: u64,
    ) -> crate::TimedReport {
        let report = engine::drive(
            self.nodes(),
            next,
            |cpu, access| self.issue(cpu, access),
            cpu_work_ns,
        );
        crate::TimedReport {
            phase_hist: *self.fabric.bus().phase_histograms(),
            ..report
        }
    }

    /// The per-access audit (see [`Checker::audit`]).
    fn audit(&mut self) {
        if let Some(ck) = &mut self.checker {
            if let Err(v) = ck.audit(&mut self.fabric) {
                panic!("consistency violation: {v}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::ReplacementKind;
    use moesi::protocols::{
        Berkeley, Dragon, MoesiInvalidating, MoesiPreferred, NonCaching, WriteThrough,
    };

    fn cfg() -> CacheConfig {
        CacheConfig::new(1024, 32, 2, ReplacementKind::Lru)
    }

    fn two_moesi() -> System {
        SystemBuilder::new(32)
            .cache(Box::new(MoesiPreferred::new()), cfg())
            .cache(Box::new(MoesiPreferred::new()), cfg())
            .checking(true)
            .build()
    }

    #[test]
    fn cold_read_enters_exclusive() {
        let mut sys = two_moesi();
        let v = sys.read(0, 0x100, 4);
        assert_eq!(v, vec![0; 4]);
        assert_eq!(sys.state_of(0, 0x100), LineState::Exclusive);
    }

    #[test]
    fn second_reader_makes_both_shareable() {
        let mut sys = two_moesi();
        sys.read(0, 0x100, 4);
        sys.read(1, 0x100, 4);
        assert_eq!(sys.state_of(0, 0x100), LineState::Shareable);
        assert_eq!(sys.state_of(1, 0x100), LineState::Shareable);
    }

    #[test]
    fn exclusive_write_upgrades_silently() {
        let mut sys = two_moesi();
        sys.read(0, 0x100, 4);
        let before = sys.stats(0).bus_transactions;
        sys.write(0, 0x100, &[1, 2, 3, 4]);
        assert_eq!(sys.state_of(0, 0x100), LineState::Modified);
        assert_eq!(sys.stats(0).bus_transactions, before, "no bus traffic");
        assert_eq!(sys.read(0, 0x100, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn dirty_read_by_peer_is_served_by_intervention() {
        let mut sys = two_moesi();
        sys.write(0, 0x100, &[9; 4]); // cpu0: I -> M via RWITM
        assert_eq!(sys.state_of(0, 0x100), LineState::Modified);
        let v = sys.read(1, 0x100, 4);
        assert_eq!(v, vec![9; 4]);
        assert_eq!(sys.state_of(0, 0x100), LineState::Owned);
        assert_eq!(sys.state_of(1, 0x100), LineState::Shareable);
        assert_eq!(sys.stats(0).interventions_supplied, 1);
        assert_eq!(sys.bus_stats().interventions, 1);
    }

    #[test]
    fn broadcast_write_updates_the_sharer() {
        let mut sys = two_moesi();
        sys.read(0, 0x100, 4);
        sys.read(1, 0x100, 4);
        // Preferred protocol broadcasts: cpu1's copy is updated, not killed.
        sys.write(0, 0x100, &[7; 4]);
        assert_eq!(sys.state_of(0, 0x100), LineState::Owned);
        assert_eq!(sys.state_of(1, 0x100), LineState::Shareable);
        assert_eq!(sys.stats(1).updates_received, 1);
        assert_eq!(sys.read(1, 0x100, 4), vec![7; 4]);
    }

    #[test]
    fn invalidating_write_kills_the_sharer() {
        let mut sys = SystemBuilder::new(32)
            .cache(Box::new(MoesiInvalidating::new()), cfg())
            .cache(Box::new(MoesiInvalidating::new()), cfg())
            .checking(true)
            .build();
        sys.read(0, 0x100, 4);
        sys.read(1, 0x100, 4);
        sys.write(0, 0x100, &[7; 4]);
        assert_eq!(sys.state_of(0, 0x100), LineState::Modified);
        assert_eq!(sys.state_of(1, 0x100), LineState::Invalid);
        assert_eq!(sys.stats(1).invalidations_received, 1);
        assert_eq!(
            sys.read(1, 0x100, 4),
            vec![7; 4],
            "re-fetched after invalidate"
        );
    }

    #[test]
    fn write_through_cache_keeps_memory_current() {
        let mut sys = SystemBuilder::new(32)
            .cache(Box::new(WriteThrough::new()), cfg())
            .cache(Box::new(MoesiPreferred::new()), cfg())
            .checking(true)
            .build();
        sys.read(0, 0x200, 4);
        assert_eq!(sys.state_of(0, 0x200), LineState::Shareable, "V maps to S");
        sys.write(0, 0x200, &[5; 4]);
        assert_eq!(sys.state_of(0, 0x200), LineState::Shareable);
        // Every write went to the bus.
        assert!(sys.stats(0).bus_transactions >= 2);
        assert_eq!(sys.read(1, 0x200, 4), vec![5; 4]);
    }

    #[test]
    fn non_caching_node_reads_and_writes_past() {
        let mut sys = SystemBuilder::new(32)
            .cache(Box::new(MoesiPreferred::new()), cfg())
            .uncached(Box::new(NonCaching::new()))
            .checking(true)
            .build();
        sys.write(1, 0x300, &[3; 4]);
        assert_eq!(sys.read(1, 0x300, 4), vec![3; 4]);
        assert_eq!(sys.state_of(1, 0x300), LineState::Invalid, "never caches");
        // A cache picks it up, dirties it; the uncached node still reads the
        // right data (via intervention).
        sys.write(0, 0x300, &[4; 4]);
        assert_eq!(sys.state_of(0, 0x300), LineState::Modified);
        assert_eq!(sys.read(1, 0x300, 4), vec![4; 4]);
    }

    #[test]
    fn uncached_write_is_captured_by_the_owner() {
        let mut sys = SystemBuilder::new(32)
            .cache(Box::new(MoesiPreferred::new()), cfg())
            .uncached(Box::new(NonCaching::new()))
            .checking(true)
            .build();
        sys.write(0, 0x300, &[1; 4]); // cpu0 owns the line (M)
        sys.write(1, 0x300, &[2; 4]); // uncached write: owner captures
        assert_eq!(sys.state_of(0, 0x300), LineState::Modified);
        assert_eq!(sys.stats(0).captures, 1);
        assert_eq!(sys.read(0, 0x300, 4), vec![2; 4]);
    }

    #[test]
    fn eviction_of_dirty_line_writes_back() {
        let mut sys = two_moesi();
        // cfg: 1024B, 32B lines, 2-way => 16 sets; same set stride = 512.
        sys.write(0, 0x000, &[1; 4]);
        sys.write(0, 0x200, &[2; 4]);
        sys.write(0, 0x400, &[3; 4]); // evicts 0x000 (LRU), which is dirty
        assert_eq!(sys.state_of(0, 0x000), LineState::Invalid);
        assert_eq!(sys.stats(0).write_backs, 1);
        assert_eq!(sys.read(1, 0x000, 4), vec![1; 4], "memory has it back");
    }

    #[test]
    fn pass_keeps_the_copy_flush_discards_it() {
        let mut sys = two_moesi();
        sys.write(0, 0x100, &[8; 4]);
        assert!(sys.pass(0, 0x100));
        assert_eq!(sys.state_of(0, 0x100), LineState::Exclusive, "M -Pass-> E");
        sys.write(0, 0x100, &[9; 4]); // silent upgrade
        assert!(sys.flush(0, 0x100));
        assert_eq!(sys.state_of(0, 0x100), LineState::Invalid);
        assert_eq!(sys.read(1, 0x100, 4), vec![9; 4]);
        assert!(!sys.flush(0, 0x100), "already gone");
        assert!(!sys.pass(1, 0x999), "pass requires ownership");
    }

    #[test]
    fn read_miss_write_hit_counting() {
        let mut sys = two_moesi();
        sys.read(0, 0x100, 4); // miss
        sys.read(0, 0x100, 4); // hit
        sys.write(0, 0x100, &[1; 4]); // hit (E->M)
        sys.write(0, 0x500, &[1; 4]); // miss
        let st = sys.stats(0);
        assert_eq!(st.reads, 2);
        assert_eq!(st.read_hits, 1);
        assert_eq!(st.writes, 2);
        assert_eq!(st.write_hits, 1);
    }

    #[test]
    fn line_crossing_accesses_are_split() {
        let mut sys = two_moesi();
        let bytes: Vec<u8> = (0..40).collect();
        sys.write(0, 0x100 - 8, &bytes); // crosses two line boundaries
        assert_eq!(sys.read(1, 0x100 - 8, 40), bytes);
        // cpu0 made one access but touched 2 lines => 2 write pieces.
        assert_eq!(sys.stats(0).writes, 2);
    }

    #[test]
    fn mixed_protocol_system_stays_consistent() {
        let mut sys = SystemBuilder::new(32)
            .cache(Box::new(MoesiPreferred::new()), cfg())
            .cache(Box::new(Berkeley::new()), cfg())
            .cache(Box::new(Dragon::new()), cfg())
            .cache(Box::new(WriteThrough::new()), cfg())
            .uncached(Box::new(NonCaching::new()))
            .checking(true)
            .build();
        // Interleave writers and readers over a few shared lines; the oracle
        // panics on any violation.
        for i in 0u64..50 {
            let cpu = (i % 5) as usize;
            let addr = 0x1000 + (i % 4) * 32;
            if i % 3 == 0 {
                sys.write(cpu, addr, &[i as u8; 4]);
            } else {
                let _ = sys.read(cpu, addr, 4);
            }
        }
        assert!(sys.verify().is_ok());
    }

    #[test]
    fn run_drives_streams_and_stays_consistent() {
        use crate::workload::{DuboisBriggs, SharingModel};
        let mut sys = two_moesi();
        let model = SharingModel {
            line_size: 32,
            ..SharingModel::default()
        };
        let mut streams: Vec<Box<dyn RefStream + Send>> = vec![
            Box::new(DuboisBriggs::new(0, model, 1)),
            Box::new(DuboisBriggs::new(1, model, 2)),
        ];
        sys.run(&mut streams, 200);
        let total = sys.total_stats();
        // 2 cpus x 200 steps, one single-line word access each.
        assert_eq!(total.references(), 400);
        assert!(total.hits() > 0, "locality produces hits");
    }

    #[test]
    #[should_panic(expected = "§5.1")]
    fn mismatched_line_sizes_are_rejected() {
        let _ = SystemBuilder::new(32).cache(
            Box::new(MoesiPreferred::new()),
            CacheConfig::new(1024, 16, 2, ReplacementKind::Lru),
        );
    }

    #[test]
    fn a_65_lane_timed_run_completes_every_reference_cleanly() {
        use crate::workload::{DuboisBriggs, SharingModel};
        let n = 65;
        let mut b = SystemBuilder::new(32).checking(true);
        for _ in 0..n {
            b = b.cache(Box::new(MoesiPreferred::new()), cfg());
        }
        let mut sys = b.build();
        let model = SharingModel {
            line_size: 32,
            ..SharingModel::default()
        };
        let mut streams: Vec<Box<dyn RefStream + Send>> = (0..n)
            .map(|cpu| {
                Box::new(DuboisBriggs::new(cpu, model, 0xB0B + cpu as u64))
                    as Box<dyn RefStream + Send>
            })
            .collect();
        let timed = sys.run_timed(&mut streams, 60, 50);
        assert_eq!(timed.total_refs, 60 * n as u64);
        assert_eq!(sys.total_stats().references(), 60 * n as u64);
        assert_eq!(sys.verify(), Ok(()));
    }
}
