//! The multiprocessor: processors, caches, memory and the Futurebuses that
//! join them.
//!
//! [`System`] is the one machine type. Its root is a [`FabricNode`]: a
//! `Leaf` fabric is the paper's single shared bus, an `Interior` segment of
//! bridges is §6's fabric tree ("a cluster is one big cache"), so the flat
//! bus is the one-leaf case of the tree. [`SystemBuilder`] assembles the
//! one-bus machine — any mixture of protocols per node, exactly as §3.4
//! promises ("different boards on the bus can implement different
//! protocols, provided that each comes from this class") — and
//! [`TreeBuilder`] every deeper one. Processors are numbered by *lane*,
//! leaf-major, so on one bus a lane is the cpu. Every processor read or
//! write becomes cache lookups, protocol consultations and Futurebus
//! transactions, with the [`Checker`] oracle auditing the shared memory
//! image after every access when enabled. The per-bus access engine lives
//! in [`Fabric`]; the tree's bridges in [`hierarchy`](crate::hierarchy).

use cache_array::CacheConfig;
use futurebus::{BusStats, Futurebus, TimingConfig};
use moesi::{LineState, Protocol};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::checker::{Checker, Violation};
use crate::controller::CacheController;
use crate::engine;
use crate::fabric::{discard, Fabric};
use crate::hierarchy::{Bridge, FabricNode, ParentError, TreeBuilder, TreeSpec};
use crate::metrics::CpuStats;
use crate::workload::{Access, RefStream, WritePayload};

/// Builds a one-bus [`System`]: the one-leaf case of [`TreeBuilder`].
///
/// # Examples
///
/// ```
/// use mpsim::SystemBuilder;
/// use moesi::protocols::{dragon, moesi_preferred, non_caching};
/// use cache_array::CacheConfig;
///
/// let mut sys = SystemBuilder::new(32)
///     .cache(Box::new(moesi_preferred()), CacheConfig::small())
///     .cache(Box::new(dragon()), CacheConfig::small())
///     .uncached(Box::new(non_caching()))
///     .checking(true)
///     .build();
/// sys.write(0, 0x1000, &[1, 2, 3, 4]);
/// assert_eq!(sys.read(2, 0x1000, 4), vec![1, 2, 3, 4]);
/// ```
#[derive(Debug)]
pub struct SystemBuilder(TreeBuilder);

impl SystemBuilder {
    /// Starts a builder for a system with the given (standard, §5.1) line
    /// size in bytes.
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        SystemBuilder(TreeBuilder::with_root(line_size, TreeSpec::leaf()).seed(0x5EED))
    }

    /// Sets the bus timing model.
    #[must_use]
    pub fn timing(mut self, timing: TimingConfig) -> Self {
        self.0.timing = timing;
        self
    }

    /// Enables the consistency oracle (verified after every access).
    #[must_use]
    pub fn checking(self, on: bool) -> Self {
        SystemBuilder(self.0.checking(on))
    }

    /// Seeds the replacement-policy RNGs.
    #[must_use]
    pub fn seed(self, seed: u64) -> Self {
        SystemBuilder(self.0.seed(seed))
    }

    /// Adds a caching node (copy-back or write-through protocol).
    ///
    /// # Panics
    ///
    /// Panics if the cache's line size differs from the system's — §5.1: "a
    /// given system \[must\] standardize on a given line size" — or if the
    /// protocol is a non-caching one.
    #[must_use]
    pub fn cache(mut self, protocol: Box<dyn Protocol + Send>, config: CacheConfig) -> Self {
        assert_eq!(
            config.line_size, self.0.line_size,
            "§5.1: all caches must use the system line size ({} != {})",
            config.line_size, self.0.line_size
        );
        self.0.root = self.0.root.cache(protocol, config);
        self
    }

    /// Adds a non-caching node (a bare processor or I/O board).
    ///
    /// # Panics
    ///
    /// Panics if the protocol is a caching one.
    #[must_use]
    pub fn uncached(mut self, protocol: Box<dyn Protocol + Send>) -> Self {
        self.0.root = self.0.root.uncached(protocol);
        self
    }

    /// Assembles the system.
    ///
    /// # Panics
    ///
    /// Panics when no nodes were added.
    #[must_use]
    pub fn build(self) -> System {
        self.0.build()
    }
}

/// A running multiprocessor: one bus, or a fabric tree of bus segments
/// whose root bus owns true main memory.
#[derive(Debug)]
pub struct System {
    root: FabricNode,
    checker: Option<Checker>,
    line_size: usize,
    /// Each leaf's access path from the root, in leaf order: `[[]]` for a
    /// single bus.
    paths: Vec<Vec<usize>>,
    /// Each lane's leaf and the processor's index within it, leaf-major.
    lanes: Vec<(usize, usize)>,
    parent_errors: Vec<ParentError>,
    tolerant: bool,
    /// The sequence number of the last workload write.
    write_seq: u32,
    /// Raised by any bridge that logs a forward error (every bridge holds a
    /// clone), so the errors are collected only after an access logged one.
    /// Relaxed ordering suffices: the flag is raised and lowered only under
    /// `&mut` access to the machine, so one thread orders both.
    forward_logged: Arc<AtomicBool>,
}

impl System {
    /// The machine below `root`, whose leaves are at `paths` and whose
    /// processors are `lanes`, its oracle on when `checking`.
    pub(crate) fn new(
        root: FabricNode,
        paths: Vec<Vec<usize>>,
        lanes: Vec<(usize, usize)>,
        line_size: usize,
        checking: bool,
        forward_logged: Arc<AtomicBool>,
    ) -> Self {
        let mut sys = System {
            root,
            checker: None,
            line_size,
            paths,
            lanes,
            parent_errors: Vec::new(),
            tolerant: false,
            write_seq: 0,
            forward_logged,
        };
        if checking {
            // Room in the golden index for as many lines as the caches
            // hold at once: a run whose written lines fit never rehashes it.
            let lines = (0..sys.leaves())
                .flat_map(|leaf| sys.leaf_fabric(leaf).controllers())
                .filter_map(|ctrl| Some(ctrl.cache()?.config().lines()))
                .sum();
            sys.checker = Some(Checker::with_capacity(line_size, lines));
        }
        sys.track_changes(checking);
        sys
    }

    /// Number of processors (lanes).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.lanes.len()
    }

    /// The system line size.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Number of leaf buses: 1 for a single bus.
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.paths.len()
    }

    /// The access paths of every leaf, in leaf order: `paths[leaf]` is what
    /// [`read_at`](System::read_at) / [`write_at`](System::write_at)
    /// expect — `[cluster]` for a two-level machine, `[]` for a single bus.
    #[must_use]
    pub fn leaf_paths(&self) -> Vec<Vec<usize>> {
        self.paths.clone()
    }

    /// The fabric of leaf `leaf` (the machine's one fabric on a single bus).
    ///
    /// # Panics
    ///
    /// Panics when `leaf` is out of range.
    #[must_use]
    pub fn leaf_fabric(&self, leaf: usize) -> &Fabric {
        let node = match self.paths[leaf].as_slice() {
            [] => &self.root,
            path => self.bridge_at(path).node(),
        };
        match node {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => unreachable!("a leaf path ends at a leaf"),
        }
    }

    /// Mutable access to leaf `leaf`'s fabric, for installing fault plans or
    /// tolerant-mode settings on the leaf bus.
    ///
    /// # Panics
    ///
    /// Panics when `leaf` is out of range.
    pub fn leaf_fabric_mut(&mut self, leaf: usize) -> &mut Fabric {
        let node = match self.paths[leaf].as_slice() {
            [] => &mut self.root,
            path => &mut bridge_in(root_bridges_mut(&mut self.root), path).node,
        };
        match node {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => unreachable!("a leaf path ends at a leaf"),
        }
    }

    /// The fabric of a single-bus machine.
    ///
    /// # Panics
    ///
    /// Panics on a fabric tree, which has one fabric per leaf
    /// ([`leaf_fabric`](System::leaf_fabric)).
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        match &self.root {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => panic!("a fabric tree has one fabric per leaf"),
        }
    }

    /// Mutable access to a single-bus machine's fabric. Writes made behind
    /// the oracle's back will be reported as violations; use
    /// [`System::write`] for checked accesses.
    ///
    /// # Panics
    ///
    /// Panics on a fabric tree.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        match &mut self.root {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => panic!("a fabric tree has one fabric per leaf"),
        }
    }

    /// The root bus, whose memory is true main memory.
    #[must_use]
    pub fn bus(&self) -> &Futurebus {
        match &self.root {
            FabricNode::Leaf(fabric) => fabric.bus(),
            FabricNode::Interior(seg) => seg.bus(),
        }
    }

    /// Mutable access to the root bus, for fault plans, retry policy and
    /// the liveness watchdog.
    pub fn bus_mut(&mut self) -> &mut Futurebus {
        match &mut self.root {
            FabricNode::Leaf(fabric) => fabric.bus_mut(),
            FabricNode::Interior(seg) => seg.bus_mut(),
        }
    }

    /// The root bus's statistics.
    #[must_use]
    pub fn bus_stats(&self) -> &BusStats {
        self.bus().stats()
    }

    /// Processor `lane`'s statistics.
    #[must_use]
    pub fn stats(&self, lane: usize) -> &CpuStats {
        self.controller(lane).stats()
    }

    /// Sum of all processors' statistics.
    #[must_use]
    pub fn total_stats(&self) -> CpuStats {
        let mut total = CpuStats::new();
        for lane in 0..self.nodes() {
            total += *self.stats(lane);
        }
        total
    }

    /// Processor `lane`'s controller (for state inspection in tests).
    #[must_use]
    pub fn controller(&self, lane: usize) -> &CacheController {
        let (leaf, cpu) = self.lanes[lane];
        self.leaf_fabric(leaf).controller(cpu)
    }

    /// The consistency state processor `lane` holds for the line containing
    /// `addr`.
    #[must_use]
    pub fn state_of(&self, lane: usize, addr: u64) -> LineState {
        self.controller(lane).state_of(addr)
    }

    /// A census of processor `lane`'s resident lines by MOESI state.
    #[must_use]
    pub fn state_census(&self, lane: usize) -> crate::StateCensus {
        let mut census = crate::StateCensus::new();
        if let Some(cache) = self.controller(lane).cache() {
            for (_, entry) in cache.iter() {
                census.record(entry.state);
            }
        }
        census
    }

    /// A census across all processors.
    #[must_use]
    pub fn total_state_census(&self) -> crate::StateCensus {
        let mut census = crate::StateCensus::new();
        for lane in 0..self.nodes() {
            census += self.state_census(lane);
        }
        census
    }

    /// The consistency oracle, if enabled.
    #[must_use]
    pub fn checker(&self) -> Option<&Checker> {
        self.checker.as_ref()
    }

    /// Mutable oracle access — fault campaigns reconcile the golden image
    /// against *reported* loss through this. The caller may change what the
    /// oracle enforces, so the next audit is a full one.
    pub fn checker_mut(&mut self) -> Option<&mut Checker> {
        let ck = self.checker.as_mut()?;
        ck.force_full_audit();
        Some(ck)
    }

    /// Verifies the shared-memory-image invariants now, over every line —
    /// on a tree including the inclusion invariant the snoop filter depends
    /// on.
    ///
    /// # Errors
    ///
    /// Returns the first violation, in line-address order; always `Ok`
    /// without the oracle.
    pub fn verify(&self) -> Result<(), Violation> {
        self.checker
            .as_ref()
            .map_or(Ok(()), |ck| self.verify_against(ck))
    }

    /// [`verify`](System::verify) against an oracle the caller keeps: a
    /// fault campaign's, which reconciles reported damage in it.
    pub(crate) fn verify_against(&self, ck: &Checker) -> Result<(), Violation> {
        ck.verify_machine(&self.root)
    }

    /// Switches fault-tolerant mode on or off, for every leaf bus and the
    /// tree itself. Tolerant mode stops the per-access oracle panics; a
    /// fault campaign reconciles reported damage first and then runs the
    /// oracle explicitly, so only *unreported* corruption counts as silent.
    pub fn tolerate_faults(&mut self, on: bool) {
        self.tolerant = on;
        // Tolerant runs skip the per-access audit, so they log nothing; the
        // first audit after them re-checks everything.
        self.track_changes(!on && self.checker.is_some());
        for leaf in 0..self.leaves() {
            self.leaf_fabric_mut(leaf).tolerate_bus_errors(on);
        }
    }

    /// Processor `lane` reads `len` bytes at `addr` (any alignment; line
    /// crossers become one transaction per line, §5.1).
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation when the oracle is enabled.
    pub fn read(&mut self, lane: usize, addr: u64, len: usize) -> Vec<u8> {
        let (leaf, cpu) = self.lanes[lane];
        let mut out = Vec::with_capacity(len);
        self.read_leaf(leaf, cpu, addr, len, &mut |bytes: &[u8]| {
            out.extend_from_slice(bytes);
        });
        out
    }

    /// Processor `cpu` of the leaf at `path` reads `len` bytes at `addr`,
    /// descending one bus level per path element.
    ///
    /// # Panics
    ///
    /// Panics when `path` does not reach a leaf, or on a consistency
    /// violation when the oracle is enabled.
    pub fn read_at(&mut self, path: &[usize], cpu: usize, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(path, cpu, addr, len, &mut out);
        out
    }

    /// [`read_at`](System::read_at), appending the bytes to `out`. A caller
    /// that reuses `out` makes a read hit allocate nothing.
    ///
    /// # Panics
    ///
    /// As [`read_at`](System::read_at).
    pub fn read_into(
        &mut self,
        path: &[usize],
        cpu: usize,
        addr: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) {
        let leaf = self.leaf_of(path);
        self.read_leaf(leaf, cpu, addr, len, &mut |bytes: &[u8]| {
            out.extend_from_slice(bytes);
        });
    }

    /// Processor `lane` writes `bytes` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation when the oracle is enabled.
    pub fn write(&mut self, lane: usize, addr: u64, bytes: &[u8]) {
        let (leaf, cpu) = self.lanes[lane];
        self.write_leaf(leaf, cpu, addr, bytes);
    }

    /// Processor `cpu` of the leaf at `path` writes `bytes` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `path` does not reach a leaf, or on a consistency
    /// violation when the oracle is enabled.
    pub fn write_at(&mut self, path: &[usize], cpu: usize, addr: u64, bytes: &[u8]) {
        let leaf = self.leaf_of(path);
        self.write_leaf(leaf, cpu, addr, bytes);
    }

    /// The index of the leaf at `path`.
    fn leaf_of(&self, path: &[usize]) -> usize {
        self.paths
            .iter()
            .position(|p| p == path)
            .unwrap_or_else(|| panic!("access path {path:?} does not reach a leaf"))
    }

    /// Processor `cpu` of leaf `leaf` reads `len` bytes at `addr`, lending
    /// each line's piece to `sink` where it lands. The oracle, unless it
    /// tolerates faults, checks each piece there too, and a mismatch is
    /// reported once the access completes.
    fn read_leaf(
        &mut self,
        leaf: usize,
        cpu: usize,
        addr: u64,
        len: usize,
        sink: &mut impl FnMut(&[u8]),
    ) {
        let path = &self.paths[leaf];
        let errors = &mut self.parent_errors;
        let Some(ck) = self.checker.as_mut().filter(|_| !self.tolerant) else {
            // Nothing checks the read, and nothing audits it.
            self.root.read(path, cpu, addr, len, 0, errors, sink);
            self.hoist_forward_errors();
            return;
        };
        let mut check = ck.read_check(addr);
        let mut both = |bytes: &[u8]| {
            sink(bytes);
            check.take(bytes);
        };
        self.root.read(path, cpu, addr, len, 0, errors, &mut both);
        let verdict = check.finish(cpu);
        self.hoist_forward_errors();
        if let Err(mut v) = verdict {
            if let Violation::ReadMismatch { cpu: lane, .. } = &mut v {
                *lane = self
                    .lanes
                    .iter()
                    .position(|&l| l == (leaf, cpu))
                    .expect("a lane");
            }
            panic!("consistency violation: {v}");
        }
        self.audit();
    }

    /// Processor `cpu` of leaf `leaf` writes `bytes` at `addr`, recorded by
    /// the oracle first.
    fn write_leaf(&mut self, leaf: usize, cpu: usize, addr: u64, bytes: &[u8]) {
        if let Some(ck) = &mut self.checker {
            ck.record_write(addr, bytes);
        }
        let path = &self.paths[leaf];
        self.root
            .write(path, cpu, addr, bytes, 0, &mut self.parent_errors);
        self.hoist_forward_errors();
        self.audit();
    }

    /// The line-aligned address containing `addr`.
    pub(crate) fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
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
    pub fn atomic_rmw<F>(&mut self, lane: usize, addr: u64, len: usize, f: F) -> Vec<u8>
    where
        F: FnOnce(&[u8]) -> Vec<u8>,
    {
        assert_eq!(
            self.line_addr(addr),
            self.line_addr(addr + len as u64 - 1),
            "a locked read-modify-write must not cross a line"
        );
        let old = self.read(lane, addr, len);
        let new = f(&old);
        assert_eq!(new.len(), len, "rmw must preserve the operand size");
        self.write(lane, addr, &new);
        old
    }

    /// An atomic 32-bit little-endian fetch-and-add; returns the old value.
    ///
    /// # Panics
    ///
    /// Panics if the word crosses a line boundary or on a consistency
    /// violation.
    pub fn fetch_add_u32(&mut self, lane: usize, addr: u64, delta: u32) -> u32 {
        let old = self.atomic_rmw(lane, addr, 4, |bytes| {
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
    pub fn test_and_set(&mut self, lane: usize, addr: u64) -> u8 {
        self.atomic_rmw(lane, addr, 1, |_| vec![1])[0]
    }

    /// Releases a [`test_and_set`](System::test_and_set) lock.
    pub fn clear_lock(&mut self, lane: usize, addr: u64) {
        self.write(lane, addr, &[0]);
    }

    /// Pushes a dirty line to its bus's memory while keeping the copy
    /// (Table 1, note 3). No-op unless processor `lane` holds the line in
    /// an owned state.
    pub fn pass(&mut self, lane: usize, addr: u64) -> bool {
        let (leaf, cpu) = self.lanes[lane];
        let did = self.leaf_fabric_mut(leaf).pass(cpu, addr);
        self.audit();
        did
    }

    /// Flushes (pushes if dirty, then discards) the line containing `addr`
    /// from processor `lane`'s cache (Table 1, note 4). No-op when not
    /// resident.
    pub fn flush(&mut self, lane: usize, addr: u64) -> bool {
        let (leaf, cpu) = self.lanes[lane];
        let did = self.leaf_fabric_mut(leaf).flush(cpu, addr);
        self.audit();
        did
    }

    /// §6's consistency command ("issuing commands across the bus to cause
    /// other caches to become consistent with main memory"): pushes every
    /// owned line so *root* main memory holds the complete shared image, as
    /// an I/O device doing uncached reads needs. On a single bus each owned
    /// line's owning cache performs a `Pass`, in cache order; on a tree
    /// every root-level cluster pushes its owned lines, each push first
    /// syncing the owner chain below. Returns the lines pushed.
    pub fn make_all_consistent(&mut self) -> usize {
        let pushed = self.root.push_owned(0, &mut self.parent_errors);
        self.hoist_forward_errors();
        self.audit();
        pushed
    }

    /// Reads `len` bytes at `addr` directly from root main memory, bypassing
    /// the caches and the coherence machinery entirely — what a dumb DMA
    /// engine would observe. Pair with
    /// [`make_all_consistent`](System::make_all_consistent) first.
    #[must_use]
    pub fn memory_peek(&self, addr: u64, len: usize) -> Vec<u8> {
        self.bus().memory().peek_bytes(addr, len)
    }

    /// Enables transaction tracing on the root bus, keeping the most recent
    /// `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.bus_mut().enable_trace(capacity);
    }

    /// The root bus's transaction trace (empty unless
    /// [`enable_trace`](System::enable_trace) was called).
    #[must_use]
    pub fn trace(&self) -> &futurebus::BusTrace {
        self.bus().trace()
    }

    /// Issues one workload access from processor `cpu` of leaf `leaf`: the
    /// engine's `issue`. Writes carry the deterministic sequence-number
    /// payload, so the oracle can detect lost or reordered updates. A read
    /// keeps no bytes: only the oracle, when attached, looks at them, where
    /// they land, so a read hit copies and allocates nothing.
    fn issue(&mut self, leaf: usize, cpu: usize, access: &Access) {
        if access.is_write {
            self.write_seq = self.write_seq.wrapping_add(1);
            let mut payload = WritePayload::new();
            let bytes = payload.fill(self.write_seq, access.size);
            self.write_leaf(leaf, cpu, access.addr, bytes);
        } else {
            self.read_leaf(leaf, cpu, access.addr, access.size, &mut discard);
        }
    }

    /// Drives one access from each stream per step, for `steps` rounds: the
    /// engine's untimed run over one lane per processor, in lane order.
    /// `streams[leaf][cpu]` feeds processor `cpu` of leaf `leaf`; a single
    /// bus passes one leaf.
    ///
    /// # Panics
    ///
    /// Panics if the stream shape does not match the machine, or on a
    /// consistency violation when the oracle is enabled.
    pub fn run(&mut self, streams: &mut [Vec<Box<dyn RefStream + Send>>], steps: u64) {
        assert_eq!(streams.len(), self.leaves(), "one stream vec per leaf");
        for (leaf, leaf_streams) in streams.iter().enumerate() {
            let nodes = self.leaf_fabric(leaf).nodes();
            assert_eq!(leaf_streams.len(), nodes, "one stream per node");
        }
        let lanes = self.lanes.clone();
        let next = engine::budget(lanes.len(), steps, |lane, slot| {
            let (leaf, cpu) = lanes[lane];
            streams[leaf][cpu].next_into(slot);
        });
        engine::drive(
            self.nodes(),
            next,
            |lane, access| {
                let (leaf, cpu) = lanes[lane];
                self.issue(leaf, cpu, access);
                0
            },
            1,
        );
    }

    /// A contention-aware timed run: every processor advances a private
    /// clock (`cpu_work_ns` per reference of local work), and accesses that
    /// need the bus queue for the single shared resource — the §1 saturation
    /// model. `streams[lane]` feeds processor `lane`. Processors are
    /// simulated in virtual-time order, so coherence interleavings follow
    /// the modelled clocks.
    ///
    /// Returns the wall time, bus occupancy and queueing totals from which
    /// the speedup and utilization curves of the bus-saturation experiment
    /// are computed.
    ///
    /// # Panics
    ///
    /// Panics on a fabric tree (trees run untimed), if the stream count
    /// differs from the processor count, or on a consistency violation when
    /// the oracle is enabled.
    pub fn run_timed(
        &mut self,
        streams: &mut [Box<dyn RefStream + Send>],
        refs_per_cpu: u64,
        cpu_work_ns: u64,
    ) -> crate::TimedReport {
        assert_eq!(streams.len(), self.nodes(), "one stream per node");
        let next = engine::budget(streams.len(), refs_per_cpu, |lane, slot| {
            streams[lane].next_into(slot);
        });
        self.run_driven(next, cpu_work_ns)
    }

    /// A timed run over pre-materialised per-processor access scripts
    /// instead of live streams — the shard workers' entry point, where the
    /// workload has already been partitioned by address region.
    ///
    /// # Panics
    ///
    /// As [`run_timed`](System::run_timed), for the script count.
    pub fn run_timed_script(
        &mut self,
        scripts: &[Vec<Access>],
        cpu_work_ns: u64,
    ) -> crate::TimedReport {
        assert_eq!(scripts.len(), self.nodes(), "one script per node");
        let mut scripts: Vec<_> = scripts.iter().map(|s| s.iter().copied()).collect();
        self.run_driven(
            |lane, slot| scripts[lane].next().map(|access| *slot = access).is_some(),
            cpu_work_ns,
        )
    }

    /// A timed engine run, each access charged the bus nanoseconds its
    /// processor used, reporting the bus's phase histograms with it.
    fn run_driven(
        &mut self,
        next: impl FnMut(usize, &mut Access) -> bool,
        cpu_work_ns: u64,
    ) -> crate::TimedReport {
        assert!(
            matches!(self.root, FabricNode::Leaf(_)),
            "a timed run needs one bus: fabric trees run untimed"
        );
        // On one bus, lane `lane` is cpu `lane` of leaf 0.
        let bus_ns = |root: &FabricNode, cpu: usize| match root {
            FabricNode::Leaf(fabric) => fabric.controller(cpu).stats().bus_ns,
            FabricNode::Interior(_) => unreachable!("checked above"),
        };
        let report = engine::drive(
            self.nodes(),
            next,
            |lane, access| {
                let bus_before = bus_ns(&self.root, lane);
                self.issue(0, lane, access);
                bus_ns(&self.root, lane) - bus_before
            },
            cpu_work_ns,
        );
        crate::TimedReport {
            phase_hist: *self.bus().phase_histograms(),
            ..report
        }
    }

    /// Starts (or stops) logging changed lines in the oracle and in every
    /// bridge, cache and memory of the machine.
    fn track_changes(&mut self, on: bool) {
        let log = self.checker.as_mut().and_then(|ck| ck.track_changes(on));
        self.root.track_changes(log);
    }

    /// The per-access audit (see [`Checker::check_changes`]); skipped while
    /// tolerating faults.
    fn audit(&mut self) {
        if self.tolerant {
            return;
        }
        if let Some(ck) = &mut self.checker {
            if let Err(v) = ck.check_changes(&mut self.root) {
                panic!("consistency violation: {v}");
            }
        }
    }

    /// Collects forwarding errors captured inside bridges (interior-segment
    /// failures during snoop forwarding) into the system error log, in
    /// pre-order — walking the tree only when some bridge logged one.
    fn hoist_forward_errors(&mut self) {
        // A plain load per access; the flag is written only when set.
        if !self.forward_logged.load(Ordering::Relaxed) {
            return;
        }
        self.forward_logged.store(false, Ordering::Relaxed);
        let errors = &mut self.parent_errors;
        for_each_bridge(&mut self.root, &mut |b| {
            errors.append(&mut b.forward_errors)
        });
    }

    /// Logs `error`, if any, then collects the bridges' forward errors: the
    /// bookkeeping after a tree maintenance command.
    pub(crate) fn log_parent_error(&mut self, error: Option<ParentError>) {
        self.parent_errors.extend(error);
        self.hoist_forward_errors();
    }

    /// Fabric-bus errors survived so far: each one degraded the requesting
    /// bridge to a memory-direct fallback instead of killing the simulation.
    /// Empty on a single bus.
    #[must_use]
    pub fn parent_errors(&self) -> &[ParentError] {
        &self.parent_errors
    }

    /// The bridges on the root bus: none on a single bus.
    pub(crate) fn root_bridges(&self) -> &[Bridge] {
        match &self.root {
            FabricNode::Leaf(_) => &[],
            FabricNode::Interior(seg) => seg.children(),
        }
    }

    /// Mutable access to the root, for the tree's maintenance commands.
    pub(crate) fn root_mut(&mut self) -> &mut FabricNode {
        &mut self.root
    }
}

/// The bridges on `node`'s bus: none on a leaf.
pub(crate) fn root_bridges_mut(node: &mut FabricNode) -> &mut [Bridge] {
    match node {
        FabricNode::Leaf(_) => &mut [],
        FabricNode::Interior(seg) => &mut seg.children,
    }
}

/// The bridge at `path` below `bridges`.
///
/// # Panics
///
/// Panics on an empty path, an out-of-range index, or a path descending
/// below a leaf.
pub(crate) fn bridge_in<'a>(bridges: &'a mut [Bridge], path: &[usize]) -> &'a mut Bridge {
    let mut bridge = &mut bridges[path[0]];
    for &i in &path[1..] {
        bridge = match &mut bridge.node {
            FabricNode::Interior(seg) => &mut seg.children[i],
            FabricNode::Leaf(_) => panic!("path descends below a leaf cluster"),
        };
    }
    bridge
}

/// Calls `f` on every bridge below `node`, pre-order.
pub(crate) fn for_each_bridge(node: &mut FabricNode, f: &mut impl FnMut(&mut Bridge)) {
    for bridge in root_bridges_mut(node) {
        f(bridge);
        for_each_bridge(&mut bridge.node, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::ReplacementKind;
    use moesi::protocols::{
        berkeley, dragon, moesi_invalidating, moesi_preferred, non_caching, write_through,
    };

    fn cfg() -> CacheConfig {
        CacheConfig::new(1024, 32, 2, ReplacementKind::Lru)
    }

    fn two_moesi() -> System {
        SystemBuilder::new(32)
            .cache(Box::new(moesi_preferred()), cfg())
            .cache(Box::new(moesi_preferred()), cfg())
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
            .cache(Box::new(moesi_invalidating()), cfg())
            .cache(Box::new(moesi_invalidating()), cfg())
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
            .cache(Box::new(write_through()), cfg())
            .cache(Box::new(moesi_preferred()), cfg())
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
            .cache(Box::new(moesi_preferred()), cfg())
            .uncached(Box::new(non_caching()))
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
            .cache(Box::new(moesi_preferred()), cfg())
            .uncached(Box::new(non_caching()))
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
            .cache(Box::new(moesi_preferred()), cfg())
            .cache(Box::new(berkeley()), cfg())
            .cache(Box::new(dragon()), cfg())
            .cache(Box::new(write_through()), cfg())
            .uncached(Box::new(non_caching()))
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
        let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = vec![vec![
            Box::new(DuboisBriggs::new(0, model, 1)),
            Box::new(DuboisBriggs::new(1, model, 2)),
        ]];
        sys.run(&mut streams, 200);
        let total = sys.total_stats();
        // 2 cpus x 200 steps, one single-line word access each.
        assert_eq!(total.references(), 400);
        assert!(total.hits() > 0, "locality produces hits");
    }

    #[test]
    fn a_single_bus_is_the_one_leaf_tree() {
        let sys = two_moesi();
        assert_eq!(sys.leaves(), 1);
        assert_eq!(sys.leaf_paths(), vec![Vec::<usize>::new()]);
        assert_eq!(sys.depth(), 1);
        assert!(sys.bridges_preorder().is_empty());
        assert!(sys.degraded_clusters().is_empty());
        assert!(sys.parent_errors().is_empty());
    }

    #[test]
    #[should_panic(expected = "§5.1")]
    fn mismatched_line_sizes_are_rejected() {
        let _ = SystemBuilder::new(32).cache(
            Box::new(moesi_preferred()),
            CacheConfig::new(1024, 16, 2, ReplacementKind::Lru),
        );
    }

    #[test]
    fn a_65_lane_timed_run_completes_every_reference_cleanly() {
        use crate::workload::{DuboisBriggs, SharingModel};
        let n = 65;
        let mut b = SystemBuilder::new(32).checking(true);
        for _ in 0..n {
            b = b.cache(Box::new(moesi_preferred()), cfg());
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
