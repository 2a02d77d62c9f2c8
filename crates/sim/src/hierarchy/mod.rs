//! §6 future work, implemented: "how one might implement a system with
//! *multiple* buses and still maintain consistency."
//!
//! The construction exploits the paper's own recursion: **a cluster is one
//! big cache**. The machine is a *fabric tree*: leaf clusters are complete
//! single-bus machines (a [`Fabric`]: caches, mirror memory, one Futurebus),
//! interior [`Segment`]s are buses whose modules are child [`Bridge`]s, and
//! each bridge attaches its subtree to the bus above as an ordinary MOESI
//! cache master — holding one cluster-level MOESI state per line in a
//! directory, asserting CA/IM/BC upward and CH/DI/SL downward exactly per
//! Tables 1 and 2:
//!
//! * a cluster-level read miss is a `CH:S/E,CA,R` on the parent bus;
//! * a write to a line other clusters share is a `CH:O/M,CA,IM,BC,W`
//!   broadcast (sibling bridges SL-connect and patch their mirrors and local
//!   caches), and a cluster-level write miss is a read-for-modify;
//! * a parent-bus read of a line this cluster owns is answered with DI, the
//!   data extracted from the internal owner; the demotion (M→O at cluster
//!   level) is propagated into the cluster as an internal bus read;
//! * the subtree's *mirror memory* (each segment bus's "main memory") plays
//!   the default-owner role inside the subtree, exactly as global memory
//!   does on the root bus.
//!
//! Because the directory records exactly which lines the subtree holds, it
//! doubles as an **inclusion-tracking snoop filter**: a bridge snooping a
//! transaction for a line absent from its directory suppresses the forward
//! entirely — nothing below it can be affected — and only tag hits descend.
//! The filter can be disabled per bridge to measure the flood it prevents
//! ([`BridgeStats`] counts `snooped`, `filter_hits`, `forwarded`,
//! `suppressed`, with `forwarded + suppressed == snooped` always).
//!
//! Intra-subtree sharing therefore never leaves its segment — the bandwidth
//! multiplication a bus hierarchy exists to provide, applied at every level
//! — while the consistency oracle's invariants keep holding globally.

use cache_array::split_line_crossers;
use futurebus::fault::InjectedFault;
use futurebus::{
    BusError, BusStats, Discipline, Futurebus, LineAddr, Phase, SparseMemory, TransactionRequest,
};
use moesi::{LineState, MasterSignals};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod builder;
mod node;

pub use builder::{TreeBuilder, TreeSpec};
pub use node::{Bridge, BridgeStats, FabricNode, Segment};

use crate::checker::{cached_lines, Audited, Checker, Violation};
use crate::engine;
use crate::fabric::Fabric;
use crate::metrics::CpuStats;
use crate::workload::{Access, RefStream, WritePayload};

/// Which parent-bus transaction a bridge was running when it failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParentTxnKind {
    /// A cluster-level line fetch (read miss or read-for-modify).
    Fetch,
    /// A cluster-level broadcast write.
    Broadcast,
    /// A consistency-command write-back push.
    Push,
    /// An uncached read by a degraded (bridge-retired) cluster.
    DegradedRead,
    /// An uncached broadcast write by a degraded cluster.
    DegradedWrite,
    /// A snooped transaction forwarded into an interior subtree.
    Forward,
}

impl fmt::Display for ParentTxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParentTxnKind::Fetch => "fetch",
            ParentTxnKind::Broadcast => "broadcast",
            ParentTxnKind::Push => "push",
            ParentTxnKind::DegradedRead => "degraded-read",
            ParentTxnKind::DegradedWrite => "degraded-write",
            ParentTxnKind::Forward => "forward",
        })
    }
}

/// A survived fabric-bus error: which child was mastering what kind of
/// transaction, the pipeline phase the failure belongs to, and the bus error
/// itself. Structured so fault campaigns can classify damage without string
/// matching; [`fmt::Display`] still renders the full story for logs.
///
/// The `phase` is always the phase of the bus where the transaction actually
/// failed: an error inside a nested segment (reached through bridge
/// re-entry) reports the *inner* bus's phase, not the phase of the root
/// transaction that triggered the descent, and `depth` says how deep that
/// bus sits (root = 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParentError {
    /// The child index (on its segment's bus) whose bridge mastered the
    /// failed transaction. For depth 0 this is the cluster index.
    pub cluster: usize,
    /// What the bridge was trying to do.
    pub txn: ParentTxnKind,
    /// The pipeline phase the error arises in (see [`BusError::phase`]),
    /// reported by the bus level that actually failed.
    pub phase: Phase,
    /// The underlying bus error.
    pub error: BusError,
    /// The bus level the failure occurred on: 0 is the root bus, each
    /// nested segment adds one.
    pub depth: usize,
}

impl ParentError {
    /// The record of `error`, met by `cluster`'s `txn` on the bus at
    /// `depth`; the phase is the error's own.
    pub(super) fn new(cluster: usize, txn: ParentTxnKind, error: BusError, depth: usize) -> Self {
        ParentError {
            cluster,
            txn,
            phase: error.phase(),
            error,
            depth,
        }
    }
}

impl fmt::Display for ParentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cluster {} {} failed in {}: {}",
            self.cluster, self.txn, self.phase, self.error
        )?;
        if self.depth > 0 {
            write!(f, " (depth {})", self.depth)?;
        }
        Ok(())
    }
}

/// A hierarchical multiprocessor: a fabric tree of bus segments whose root
/// bus owns true main memory. The classic shape is two levels (clusters of
/// caches joined by one parent bus); [`TreeBuilder`] builds that and every
/// deeper tree.
#[derive(Debug)]
pub struct HierarchicalSystem {
    root: Segment,
    checker: Option<Checker>,
    line_size: usize,
    parent_errors: Vec<ParentError>,
    tolerant: bool,
    /// The sequence number of the last workload write, as in `System`.
    write_seq: u32,
    /// The buffer workload reads land in, kept for its capacity.
    read_buf: Vec<u8>,
    /// Raised by any bridge that logs a forward error (every bridge holds a
    /// clone), so the errors are collected only after an access logged one.
    /// Relaxed ordering suffices: the flag is raised and lowered only under
    /// `&mut` access to the tree, so one thread orders both.
    forward_logged: Arc<AtomicBool>,
}

impl HierarchicalSystem {
    /// Number of root-level clusters (children of the root bus).
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.root.children.len()
    }

    /// Number of leaf clusters in the whole tree (== [`clusters`] for a
    /// two-level machine).
    ///
    /// [`clusters`]: HierarchicalSystem::clusters
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.root.children.iter().map(Bridge::leaves).sum()
    }

    /// The number of bus levels on the longest root-to-leaf path: 2 for the
    /// classic two-level machine.
    #[must_use]
    pub fn depth(&self) -> usize {
        fn below(b: &Bridge) -> usize {
            match &b.node {
                FabricNode::Leaf(_) => 1,
                FabricNode::Interior(seg) => 1 + seg.children.iter().map(below).max().unwrap_or(0),
            }
        }
        1 + self.root.children.iter().map(below).max().unwrap_or(0)
    }

    /// The access paths of every leaf cluster, in traversal (leaf-index)
    /// order. `paths[leaf]` is what [`read_at`] / [`write_at`] expect; for a
    /// two-level machine each path is just `[cluster]`.
    ///
    /// [`read_at`]: HierarchicalSystem::read_at
    /// [`write_at`]: HierarchicalSystem::write_at
    #[must_use]
    pub fn leaf_paths(&self) -> Vec<Vec<usize>> {
        fn walk(children: &[Bridge], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            for (i, b) in children.iter().enumerate() {
                prefix.push(i);
                match &b.node {
                    FabricNode::Leaf(_) => out.push(prefix.clone()),
                    FabricNode::Interior(seg) => walk(&seg.children, prefix, out),
                }
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        walk(&self.root.children, &mut Vec::new(), &mut out);
        out
    }

    /// The `leaf`-th leaf cluster's fabric, in traversal order (== the
    /// cluster's fabric for a two-level machine).
    ///
    /// # Panics
    ///
    /// Panics when `leaf` is out of range.
    #[must_use]
    pub fn leaf_fabric(&self, mut leaf: usize) -> &Fabric {
        let mut children = &self.root.children;
        loop {
            match &children[leaf_child(children, &mut leaf)].node {
                FabricNode::Leaf(fabric) => return fabric,
                FabricNode::Interior(seg) => children = &seg.children,
            }
        }
    }

    /// Mutable access to the `leaf`-th leaf cluster's fabric, for installing
    /// fault plans or tolerant-mode settings on the leaf bus.
    ///
    /// # Panics
    ///
    /// Panics when `leaf` is out of range.
    pub fn leaf_fabric_mut(&mut self, mut leaf: usize) -> &mut Fabric {
        let mut children = &mut self.root.children;
        loop {
            let child = leaf_child(children, &mut leaf);
            match &mut children[child].node {
                FabricNode::Leaf(fabric) => return fabric,
                FabricNode::Interior(seg) => children = &mut seg.children,
            }
        }
    }

    /// A root-level cluster's bridge (directory, stats, fabric or segment).
    #[must_use]
    pub fn bridge(&self, cluster: usize) -> &Bridge {
        &self.root.children[cluster]
    }

    /// Mutable access to a root-level cluster's bridge.
    pub fn bridge_mut(&mut self, cluster: usize) -> &mut Bridge {
        &mut self.root.children[cluster]
    }

    /// The bridge at a tree path (`[i]` is root child `i`, `[i, j]` is its
    /// `j`-th child, …).
    ///
    /// # Panics
    ///
    /// Panics on an empty path, an out-of-range index, or a path descending
    /// below a leaf.
    #[must_use]
    pub fn bridge_at(&self, path: &[usize]) -> &Bridge {
        let mut bridge = &self.root.children[path[0]];
        for &i in &path[1..] {
            bridge = match &bridge.node {
                FabricNode::Interior(seg) => &seg.children[i],
                FabricNode::Leaf(_) => panic!("path descends below a leaf cluster"),
            };
        }
        bridge
    }

    /// Mutable access to the bridge at a tree path.
    ///
    /// # Panics
    ///
    /// Panics on an empty path, an out-of-range index, or a path descending
    /// below a leaf.
    pub fn bridge_at_mut(&mut self, path: &[usize]) -> &mut Bridge {
        let mut bridge = &mut self.root.children[path[0]];
        for &i in &path[1..] {
            bridge = match &mut bridge.node {
                FabricNode::Interior(seg) => &mut seg.children[i],
                FabricNode::Leaf(_) => panic!("path descends below a leaf cluster"),
            };
        }
        bridge
    }

    /// Every bridge in the tree, pre-order (each root child before its
    /// descendants). The position of a bridge in this list is its *flat
    /// index*, the currency of [`corrupt_inclusion_tag`] /
    /// [`scrub_inclusion_tag`]; for a two-level machine it equals the
    /// cluster index.
    ///
    /// [`corrupt_inclusion_tag`]: HierarchicalSystem::corrupt_inclusion_tag
    /// [`scrub_inclusion_tag`]: HierarchicalSystem::scrub_inclusion_tag
    #[must_use]
    pub fn bridges_preorder(&self) -> Vec<&Bridge> {
        fn walk<'a>(children: &'a [Bridge], out: &mut Vec<&'a Bridge>) {
            for b in children {
                out.push(b);
                if let FabricNode::Interior(seg) = &b.node {
                    walk(&seg.children, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root.children, &mut out);
        out
    }

    /// The root (inter-cluster) bus.
    #[must_use]
    pub fn parent_bus(&self) -> &Futurebus {
        &self.root.bus
    }

    /// Mutable access to the root bus, for fault plans, retry policy and
    /// the liveness watchdog.
    pub fn parent_bus_mut(&mut self) -> &mut Futurebus {
        &mut self.root.bus
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

    /// Root-level clusters whose bridge the watchdog has retired, ascending.
    #[must_use]
    pub fn degraded_clusters(&self) -> Vec<usize> {
        self.root
            .children
            .iter()
            .filter(|b| b.degraded())
            .map(|b| b.id)
            .collect()
    }

    /// Switches fault-tolerant mode on or off, for every leaf cluster bus
    /// and the hierarchy itself. Tolerant mode stops the per-access oracle
    /// panics (`read`/`write` no longer call
    /// [`verify`](HierarchicalSystem::verify)); a fault campaign reconciles
    /// reported damage first and then runs the oracle explicitly, so only
    /// *unreported* corruption counts as silent.
    pub fn tolerate_faults(&mut self, on: bool) {
        self.tolerant = on;
        // Tolerant runs skip the per-access audit, so they log nothing; the
        // first audit after them re-checks everything.
        self.track_changes(!on && self.checker.is_some());
        for path in self.leaf_paths() {
            self.bridge_at_mut(&path)
                .fabric_mut()
                .tolerate_bus_errors(on);
        }
    }

    /// Sets the arbitration discipline of every bus in the tree: the root
    /// bus, every interior segment bus, and every leaf cluster bus.
    pub fn set_discipline(&mut self, discipline: Discipline) {
        fn walk(seg: &mut Segment, discipline: Discipline) {
            seg.bus.set_discipline(discipline);
            for b in &mut seg.children {
                match &mut b.node {
                    FabricNode::Leaf(fabric) => fabric.bus_mut().set_discipline(discipline),
                    FabricNode::Interior(inner) => walk(inner, discipline),
                }
            }
        }
        walk(&mut self.root, discipline);
    }

    /// Enables or disables the inclusion snoop filter on every bridge in
    /// the tree. See [`Bridge::set_snoop_filter`].
    pub fn set_snoop_filter(&mut self, on: bool) {
        fn walk(children: &mut [Bridge], on: bool) {
            for b in children {
                b.set_snoop_filter(on);
                if let FabricNode::Interior(seg) = &mut b.node {
                    walk(&mut seg.children, on);
                }
            }
        }
        walk(&mut self.root.children, on);
    }

    /// Drains the error logs of every leaf cluster bus, each entry prefixed
    /// with its cluster path (`cluster0`, or `cluster0.1` below the root).
    pub fn drain_cluster_bus_errors(&mut self) -> Vec<String> {
        fn walk(children: &mut [Bridge], prefix: &str, out: &mut Vec<String>) {
            for b in children {
                let label = if prefix.is_empty() {
                    format!("{}", b.id)
                } else {
                    format!("{prefix}.{}", b.id)
                };
                match &mut b.node {
                    FabricNode::Leaf(fabric) => out.extend(
                        fabric
                            .drain_bus_errors()
                            .into_iter()
                            .map(|e| format!("cluster{label}: {e}")),
                    ),
                    FabricNode::Interior(seg) => walk(&mut seg.children, &label, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&mut self.root.children, "", &mut out);
        out
    }

    /// Root-bus statistics.
    #[must_use]
    pub fn parent_stats(&self) -> &BusStats {
        self.root.bus.stats()
    }

    /// A node's CPU statistics (two-level shape: `cluster` must be a leaf).
    #[must_use]
    pub fn stats(&self, cluster: usize, cpu: usize) -> &CpuStats {
        self.root.children[cluster].fabric().controller(cpu).stats()
    }

    /// The local cache state a node holds for `addr` (two-level shape).
    #[must_use]
    pub fn state_of(&self, cluster: usize, cpu: usize, addr: u64) -> LineState {
        self.root.children[cluster]
            .fabric()
            .controller(cpu)
            .state_of(addr)
    }

    /// The cluster-level state a root bridge holds for `addr`.
    #[must_use]
    pub fn cluster_state_of(&self, cluster: usize, addr: u64) -> LineState {
        self.root.children[cluster].cluster_state(self.line_addr(addr))
    }

    /// The cluster-level state the bridge at `path` holds for `addr`.
    #[must_use]
    pub fn cluster_state_at(&self, path: &[usize], addr: u64) -> LineState {
        self.bridge_at(path).cluster_state(self.line_addr(addr))
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
    }

    /// Processor (`cluster`, `cpu`) reads `len` bytes at `addr` (two-level
    /// shape; see [`read_at`](HierarchicalSystem::read_at) for deep trees).
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation when the oracle is enabled.
    pub fn read(&mut self, cluster: usize, cpu: usize, addr: u64, len: usize) -> Vec<u8> {
        self.read_at(&[cluster], cpu, addr, len)
    }

    /// Processor `cpu` of the leaf cluster at `path` reads `len` bytes at
    /// `addr`, descending one bus level per path element.
    /// [`read_into`](HierarchicalSystem::read_into) into a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// Panics when `path` does not reach a leaf cluster, or on a consistency
    /// violation when the oracle is enabled.
    pub fn read_at(&mut self, path: &[usize], cpu: usize, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(path, cpu, addr, len, &mut out);
        out
    }

    /// Processor `cpu` of the leaf cluster at `path` reads `len` bytes at
    /// `addr` and appends them to `out`. A caller that reuses `out` makes a
    /// read hit allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics when `path` does not reach a leaf cluster, or on a consistency
    /// violation when the oracle is enabled.
    pub fn read_into(
        &mut self,
        path: &[usize],
        cpu: usize,
        addr: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        for (piece_addr, piece_len) in split_line_crossers(addr, len, self.line_size) {
            let line = self.line_addr(piece_addr);
            self.root.read_piece(
                path,
                cpu,
                piece_addr,
                piece_len,
                line,
                0,
                &mut self.parent_errors,
                out,
            );
        }
        self.hoist_forward_errors();
        if !self.tolerant {
            if let Some(ck) = &self.checker {
                if let Err(v) = ck.check_read(cpu, addr, &out[start..]) {
                    panic!("hierarchy consistency violation: {v}");
                }
            }
        }
        self.audit();
    }

    /// Processor (`cluster`, `cpu`) writes `bytes` at `addr` (two-level
    /// shape; see [`write_at`](HierarchicalSystem::write_at) for deep trees).
    ///
    /// # Panics
    ///
    /// Panics on a consistency violation when the oracle is enabled.
    pub fn write(&mut self, cluster: usize, cpu: usize, addr: u64, bytes: &[u8]) {
        self.write_at(&[cluster], cpu, addr, bytes);
    }

    /// Processor `cpu` of the leaf cluster at `path` writes `bytes` at
    /// `addr`.
    ///
    /// # Panics
    ///
    /// Panics when `path` does not reach a leaf cluster, or on a consistency
    /// violation when the oracle is enabled.
    pub fn write_at(&mut self, path: &[usize], cpu: usize, addr: u64, bytes: &[u8]) {
        let mut cursor = 0;
        for (piece_addr, piece_len) in split_line_crossers(addr, bytes.len(), self.line_size) {
            let piece = &bytes[cursor..cursor + piece_len];
            cursor += piece_len;
            let line = self.line_addr(piece_addr);
            if let Some(ck) = &mut self.checker {
                ck.record_write(piece_addr, piece);
            }
            self.root.write_piece(
                path,
                cpu,
                piece_addr,
                piece,
                line,
                0,
                &mut self.parent_errors,
            );
        }
        self.hoist_forward_errors();
        self.audit();
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
        fn walk(children: &mut [Bridge], out: &mut Vec<ParentError>) {
            for b in children {
                out.append(&mut b.forward_errors);
                if let FabricNode::Interior(seg) = &mut b.node {
                    walk(&mut seg.children, out);
                }
            }
        }
        walk(&mut self.root.children, &mut self.parent_errors);
    }

    /// Fabric-bus errors survived so far: each one degraded the requesting
    /// bridge to a memory-direct fallback instead of killing the simulation.
    #[must_use]
    pub fn parent_errors(&self) -> &[ParentError] {
        &self.parent_errors
    }

    /// Verifies the global shared-memory-image invariants, including the
    /// inclusion invariant the snoop filter depends on, over every line.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in line-address order; always `Ok`
    /// without the oracle.
    pub fn verify(&self) -> Result<(), Violation> {
        self.checker
            .as_ref()
            .map_or(Ok(()), |ck| ck.check_all(&self.root, &mut Vec::new()))
    }

    /// Drives one access from each stream per step, for `steps` rounds.
    /// `streams[leaf][cpu]` feeds node `cpu` of the `leaf`-th leaf cluster
    /// (for a two-level machine, leaf index == cluster index): the engine's
    /// untimed run over one lane per processor, numbered leaf-major.
    ///
    /// # Panics
    ///
    /// Panics if the stream shape does not match the machine, or on a
    /// consistency violation.
    pub fn run(&mut self, streams: &mut [Vec<Box<dyn RefStream + Send>>], steps: u64) {
        let paths = self.leaf_paths();
        assert_eq!(streams.len(), paths.len(), "one stream vec per cluster");
        // Lane = global processor index: (leaf, cpu) in leaf-major order.
        let mut lanes = Vec::new();
        for (leaf, cluster_streams) in streams.iter().enumerate() {
            let cpus = cluster_streams.len();
            let nodes = self.bridge_at(&paths[leaf]).fabric().nodes();
            assert_eq!(cpus, nodes, "one stream per node");
            lanes.extend((0..cpus).map(|cpu| (leaf, cpu)));
        }
        let next = engine::budget(lanes.len(), steps, |lane, slot| {
            let (leaf, cpu) = lanes[lane];
            streams[leaf][cpu].next_into(slot);
        });
        engine::drive(
            lanes.len(),
            next,
            |lane, access| {
                let (leaf, cpu) = lanes[lane];
                self.issue(&paths[leaf], cpu, access);
                0
            },
            1,
        );
    }

    /// Issues one workload access from processor `cpu` of the leaf at
    /// `path`. Reads land in one reused buffer, so a read hit allocates
    /// nothing.
    fn issue(&mut self, path: &[usize], cpu: usize, access: &Access) {
        if access.is_write {
            self.write_seq = self.write_seq.wrapping_add(1);
            let mut payload = WritePayload::new();
            let bytes = payload.fill(self.write_seq, access.size);
            self.write_at(path, cpu, access.addr, bytes);
        } else {
            let mut buf = std::mem::take(&mut self.read_buf);
            buf.clear();
            self.read_into(path, cpu, access.addr, access.size, &mut buf);
            self.read_buf = buf;
        }
    }

    /// The §6 consistency command at global scale: pushes every owned line
    /// out of every root-level cluster (each push first syncs the owner
    /// chain below) so *root* main memory holds the complete shared image
    /// (e.g. before parent-bus DMA). Returns lines pushed.
    pub fn make_globally_consistent(&mut self) -> usize {
        let pushed = self.root.push_owned(0, &mut self.parent_errors);
        self.hoist_forward_errors();
        self.audit();
        pushed
    }

    /// Reads directly from *root* main memory, bypassing all coherence —
    /// the parent-bus DMA view. Pair with [`make_globally_consistent`].
    ///
    /// [`make_globally_consistent`]: HierarchicalSystem::make_globally_consistent
    #[must_use]
    pub fn parent_memory_peek(&self, addr: u64, len: usize) -> Vec<u8> {
        self.root.bus.memory().peek_bytes(addr, len)
    }

    /// Starts (or stops) logging changed lines in the oracle and in every
    /// bridge, cache and memory of the tree.
    pub(super) fn track_changes(&mut self, on: bool) {
        if let Some(ck) = &mut self.checker {
            ck.track_changes(on);
        }
        self.root.track_changes(on);
    }

    /// The per-access audit (see [`Checker::audit`]); skipped while
    /// tolerating faults.
    fn audit(&mut self) {
        if self.tolerant {
            return;
        }
        if let Some(ck) = &mut self.checker {
            if let Err(v) = ck.audit(&mut self.root) {
                panic!("hierarchy consistency violation: {v}");
            }
        }
    }

    /// Deterministically retires a root-level cluster's bridge, as if the
    /// parent-bus watchdog had timed it out: arms the one-shot stall and
    /// fires it with a harmless uncached read of an untouched line, mastered
    /// by the external (DMA) index so any cluster — including cluster 0 of a
    /// one-cluster system — can be the victim. With `salvage` the watchdog
    /// pushes the bridge's dirty lines to parent memory in synthetic push
    /// rounds; without it they are lost and every surviving copy is
    /// invalidated.
    pub fn retire_bridge(&mut self, cluster: usize, salvage: bool) {
        self.root.bus.stall_module(cluster, salvage);
        let trigger = TransactionRequest::read(
            self.root.children.len(),
            // The top line of the address space, never used by workloads.
            !(self.line_size as u64 - 1),
            MasterSignals::NONE,
        );
        let root = &mut self.root;
        let (_, error) = root.bus.execute_or_degrade(&trigger, &mut root.children);
        if let Some(error) = error {
            let txn = ParentTxnKind::DegradedRead;
            self.parent_errors
                .push(ParentError::new(cluster, txn, error, 0));
        }
        self.hoist_forward_errors();
    }

    /// Corrupts one resident inclusion tag, driven by the root fault plan:
    /// rolls the plan's stale-tag dice and, on a hit, flips a directory
    /// entry of a plan-chosen bridge (any bridge in the tree, interior
    /// bridges included) to a plan-chosen wrong state, recording an
    /// [`InjectedFault::StaleTag`]. Returns the victim `(flat_index, line)`
    /// — see [`bridges_preorder`](HierarchicalSystem::bridges_preorder); for
    /// a two-level machine the flat index is the cluster index — so the
    /// caller can run the scrubber. `None` when the dice miss, no plan is
    /// installed, or the chosen bridge's directory is empty.
    pub fn corrupt_inclusion_tag(&mut self) -> Option<(usize, LineAddr)> {
        let bridge_count = self.bridges_preorder().len();
        let plan = self.root.bus.fault_plan_mut()?;
        if !plan.decide_stale_tag() {
            return None;
        }
        let victim = plan.gen_index(bridge_count);
        let mut keys: Vec<LineAddr> = self.bridges_preorder()[victim]
            .directory
            .keys()
            .copied()
            .collect();
        if keys.is_empty() {
            return None;
        }
        keys.sort_unstable(); // map order must not leak into the RNG draw
        let plan = self.root.bus.fault_plan_mut().expect("checked above");
        let line = keys[plan.gen_index(keys.len())];
        let from = self.bridges_preorder()[victim].cluster_state(line);
        let others: Vec<LineState> = LineState::ALL.into_iter().filter(|s| *s != from).collect();
        let plan = self.root.bus.fault_plan_mut().expect("checked above");
        let to = others[plan.gen_index(others.len())];
        bridge_by_flat_mut(&mut self.root.children, victim)
            .expect("flat index in range")
            .set_cluster_state(line, to);
        let record = InjectedFault::StaleTag {
            bridge: victim,
            addr: line,
            from: from.letter(),
            to: to.letter(),
        };
        self.root
            .bus
            .fault_plan_mut()
            .expect("checked above")
            .record(victim, line, record, 0);
        Some((victim, line))
    }

    /// The directory scrubber: reconstructs one bridge's inclusion tag for
    /// `line` from evidence — subtree states below it, mirror-vs-parent-
    /// memory divergence, and the (trusted) sibling directories on its
    /// segment — and installs the reconstructed state. `bridge` is a flat
    /// pre-order index as returned by
    /// [`corrupt_inclusion_tag`](HierarchicalSystem::corrupt_inclusion_tag).
    /// Models the ECC/parity repair a real directory RAM performs when a
    /// consultation detects a flipped tag: detection precedes use, so no
    /// coherence action ever trusts a corrupt tag.
    ///
    /// The reconstruction is conservative rather than literal: a tag the
    /// evidence cannot distinguish from a weaker-but-sound one (e.g. M whose
    /// write never changed the data) may come back as the weaker state.
    ///
    /// # Panics
    ///
    /// Panics when `bridge` is out of range.
    pub fn scrub_inclusion_tag(&mut self, bridge: usize, line: LineAddr) -> LineState {
        let mut idx = 0;
        scrub_in_segment(&mut self.root, bridge, &mut idx, line).expect("flat index in range")
    }
}

/// The root segment audits the whole tree, its memory as true main memory.
impl Audited for Segment {
    fn drain_changed_lines(&mut self, out: &mut Vec<u64>) -> bool {
        self.drain_changes(out)
    }

    /// Every invariant for each line. Lines the full audit does not visit —
    /// never written, in no directory and no cache — pass, so the
    /// incremental audit can hand over any line it logged.
    fn check_lines(&self, ck: &Checker, lines: &[u64]) -> Result<(), Violation> {
        lines
            .iter()
            .try_for_each(|&line| check_line(self, ck, line))
    }

    /// Every line in a directory or cached anywhere.
    fn resident_lines(&self, out: &mut Vec<u64>) {
        fn walk(children: &[Bridge], out: &mut Vec<u64>) {
            for bridge in children {
                out.extend(bridge.directory.keys().copied());
                match &bridge.node {
                    FabricNode::Leaf(fabric) => cached_lines(fabric.controllers(), out),
                    FabricNode::Interior(seg) => walk(&seg.children, out),
                }
            }
        }
        walk(&self.children, out);
    }
}

/// A bridge's place in the tree — `cluster{i}` at the root, `{parent}.{j}`
/// below it — rendered only when a violation names it.
#[derive(Clone, Copy)]
struct Label<'a> {
    parent: Option<&'a Label<'a>>,
    index: usize,
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.parent {
            None => write!(f, "cluster{}", self.index),
            Some(p) => write!(f, "{p}.{}", self.index),
        }
    }
}

/// Every invariant for one line of the tree rooted at `root`, in one
/// descent that reads each cache entry and each inclusion tag once:
///
/// 1. every valid cached copy equals the golden image, and each leaf
///    cluster has at most one local owner (checked as the descent meets
///    each cache);
/// 2. the root segment's invariants ([`Children::check`]), its memory being
///    true main memory;
/// 3. the inclusion invariant the snoop filter is sound against, and the
///    segment invariants inside every interior segment, in pre-order.
fn check_line(root: &Segment, ck: &Checker, line: u64) -> Result<(), Violation> {
    let (golden, written) = ck.golden_line(line);
    let children = Children::gather(root, None, line, golden)?;
    if !written && !children.tracked {
        return Ok(());
    }
    children.check(root, None, line, golden)?;
    children.below
}

/// What one descent learns about a bridge's subtree for one line.
struct Subtree<'a> {
    /// The bridge's inclusion tag.
    tag: LineState,
    /// Whether the full audit visits the line on this subtree's account: a
    /// tag here or below, or a cache below holding it in any state.
    tracked: bool,
    /// Whether a cache below holds a valid copy — ground truth, not tags.
    holds_valid: bool,
    /// The subtree's authoritative data ([`Bridge::authoritative_line`]).
    authority: Authority<'a>,
    /// The verdict of the inclusion and interior-segment checks below,
    /// deferred because the root segment's invariants come first.
    deferred: Result<(), Violation>,
}

/// Where a subtree's authoritative copy of a line lives.
#[derive(Clone, Copy)]
enum Authority<'a> {
    /// An owning cache's copy.
    Cache(&'a [u8]),
    /// A mirror memory's copy, looked up only when needed.
    Mirror(&'a SparseMemory),
}

impl<'a> Authority<'a> {
    fn data(self, line: u64) -> &'a [u8] {
        match self {
            Authority::Cache(data) => data,
            Authority::Mirror(memory) => memory.peek(line),
        }
    }
}

/// Descends below `bridge` for `line`. A stale cached copy or a second local
/// owner fails at once, in the order the full audit meets them; every other
/// fact is gathered, or checked into [`Subtree::deferred`].
fn descend<'a>(
    bridge: &'a Bridge,
    label: &Label<'_>,
    line: u64,
    golden: &[u8],
) -> Result<Subtree<'a>, Violation> {
    let tag = bridge.cluster_state(line);
    let (tracked, holds_valid, authority, below) = match bridge.node() {
        FabricNode::Leaf(fabric) => {
            let mut resident = false;
            let mut holds_valid = false;
            let mut local_owners = 0;
            let mut owned = None;
            for ctrl in fabric.controllers() {
                let Some(entry) = ctrl.cache().and_then(|c| c.lookup(line)) else {
                    continue;
                };
                resident = true;
                let state = entry.state;
                if state.is_owned() {
                    local_owners += 1;
                    owned.get_or_insert(entry.data);
                }
                if state.is_valid() {
                    holds_valid = true;
                    if entry.data != golden {
                        return Err(Violation::StaleCopy {
                            addr: line,
                            holder: format!("{label}/{}", ctrl.name()),
                            state,
                        });
                    }
                }
            }
            if local_owners > 1 {
                return Err(Violation::MultipleOwners {
                    addr: line,
                    owners: vec![format!("{label}: {local_owners} owners")],
                });
            }
            let mirror = Authority::Mirror(fabric.bus().memory());
            (
                resident,
                holds_valid,
                owned.map_or(mirror, Authority::Cache),
                Ok(()),
            )
        }
        FabricNode::Interior(seg) => {
            let children = Children::gather(seg, Some(label), line, golden)?;
            // Segment memory is only authoritative while the bridge's own
            // tag is live: once the tag is Invalid the subtree's mirror holds
            // dead data by design (the next fetch overwrites it).
            let below = if tag.is_valid() {
                children.check(seg, Some(label), line, golden)
            } else {
                Ok(())
            };
            let mirror = Authority::Mirror(seg.bus.memory());
            (
                children.tracked,
                children.holds_valid,
                children.owner.map_or(mirror, |(_, _, a)| a),
                below.and(children.below),
            )
        }
    };
    // The inclusion invariant at this bridge comes first: no valid copy
    // cached below an Invalid tag (the snoop filter's soundness condition).
    let hole = !tag.is_valid() && holds_valid;
    Ok(Subtree {
        tag,
        tracked: tracked || tag.is_valid(),
        holds_valid,
        authority,
        deferred: if hole {
            Err(Violation::InclusionHole {
                addr: line,
                bridge: label.to_string(),
            })
        } else {
            below
        },
    })
}

/// One segment's children for one line, gathered as the descent visits
/// them in order.
struct Children<'a> {
    /// Whether any child's [`Subtree::tracked`] holds.
    tracked: bool,
    /// Whether any child's [`Subtree::holds_valid`] holds.
    holds_valid: bool,
    /// The first failing [`Subtree::deferred`] verdict.
    below: Result<(), Violation>,
    /// Children with an owned tag.
    owners: usize,
    /// The first owning child: its index, tag and authority.
    owner: Option<(usize, LineState, Authority<'a>)>,
    /// The first child with an exclusive tag.
    exclusive: Option<usize>,
    /// The first two children with valid tags.
    valid: [Option<usize>; 2],
}

impl<'a> Children<'a> {
    /// Descends below every child of `seg`, whose bridge is labelled
    /// `parent` (`None` at the root).
    fn gather(
        seg: &'a Segment,
        parent: Option<&Label<'_>>,
        line: u64,
        golden: &[u8],
    ) -> Result<Self, Violation> {
        let mut children = Children {
            tracked: false,
            holds_valid: false,
            below: Ok(()),
            owners: 0,
            owner: None,
            exclusive: None,
            valid: [None; 2],
        };
        for (index, child) in seg.children.iter().enumerate() {
            let sub = descend(child, &Label { parent, index }, line, golden)?;
            children.tracked |= sub.tracked;
            children.holds_valid |= sub.holds_valid;
            let tag = sub.tag;
            if tag.is_owned() {
                children.owners += 1;
                children.owner.get_or_insert((index, tag, sub.authority));
            }
            if tag.is_exclusive() {
                children.exclusive.get_or_insert(index);
            }
            if tag.is_valid() {
                if let Some(slot) = children.valid.iter_mut().find(|v| v.is_none()) {
                    *slot = Some(index);
                }
            }
            if children.below.is_ok() {
                children.below = sub.deferred;
            }
        }
        Ok(children)
    }

    /// Invariants (3)–(6) for `seg`: ownership unique among children,
    /// exclusivity respected, unowned lines current in segment memory, and
    /// the owning child's authoritative data golden. `parent` is `None` at
    /// the root (labels are `cluster{i}`) and the parent bridge's label
    /// below it.
    fn check(
        &self,
        seg: &Segment,
        parent: Option<&Label<'_>>,
        line: u64,
        golden: &[u8],
    ) -> Result<(), Violation> {
        let label = |index| Label { parent, index };
        if self.owners > 1 {
            return Err(Violation::MultipleOwners {
                addr: line,
                owners: (0..seg.children.len())
                    .filter(|&i| seg.children[i].cluster_state(line).is_owned())
                    .map(|i| label(i).to_string())
                    .collect(),
            });
        }
        if let Some(excl) = self.exclusive {
            // The exclusive child's own tag is valid: the other holder is
            // the first valid child that is not it.
            let other = if self.valid[0] == Some(excl) {
                self.valid[1]
            } else {
                self.valid[0]
            };
            if let Some(other) = other {
                return Err(Violation::ExclusivityViolated {
                    addr: line,
                    exclusive_holder: label(excl).to_string(),
                    other_holder: label(other).to_string(),
                });
            }
        }
        match self.owner {
            None if seg.bus.memory().peek(line) != golden => {
                Err(Violation::StaleMemory { addr: line })
            }
            Some((index, tag, authority)) if authority.data(line) != golden => {
                Err(Violation::StaleCopy {
                    addr: line,
                    holder: format!("{} (authoritative)", label(index)),
                    state: tag,
                })
            }
            _ => Ok(()),
        }
    }
}

/// The index of the child in `children` whose subtree holds leaf `leaf`
/// (counting leaves in traversal order), leaving `leaf` relative to that
/// child's subtree.
///
/// # Panics
///
/// Panics when `children` hold fewer leaves.
fn leaf_child(children: &[Bridge], leaf: &mut usize) -> usize {
    for (i, child) in children.iter().enumerate() {
        let leaves = child.leaves();
        if *leaf < leaves {
            return i;
        }
        *leaf -= leaves;
    }
    panic!("leaf index out of range");
}

/// The bridge at pre-order flat index `target`, if in range.
fn bridge_by_flat_mut(children: &mut [Bridge], target: usize) -> Option<&mut Bridge> {
    fn walk<'a>(
        children: &'a mut [Bridge],
        idx: &mut usize,
        target: usize,
    ) -> Option<&'a mut Bridge> {
        for b in children {
            if *idx == target {
                return Some(b);
            }
            *idx += 1;
            if let FabricNode::Interior(seg) = &mut b.node {
                if let Some(found) = walk(&mut seg.children, idx, target) {
                    return Some(found);
                }
            }
        }
        None
    }
    walk(children, &mut 0, target)
}

/// Walks to the segment containing the flat-index `target` bridge and
/// scrubs it there (the scrub needs the victim's siblings and its segment's
/// parent memory as evidence).
fn scrub_in_segment(
    seg: &mut Segment,
    target: usize,
    idx: &mut usize,
    line: LineAddr,
) -> Option<LineState> {
    for i in 0..seg.children.len() {
        if *idx == target {
            return Some(scrub_at(seg, i, line));
        }
        *idx += 1;
        if let FabricNode::Interior(inner) = &mut seg.children[i].node {
            if let Some(state) = scrub_in_segment(inner, target, idx, line) {
                return Some(state);
            }
        }
    }
    None
}

fn scrub_at(seg: &mut Segment, victim: usize, line: LineAddr) -> LineState {
    let others_owned = seg
        .children
        .iter()
        .enumerate()
        .any(|(i, b)| i != victim && b.cluster_state(line).is_owned());
    let others_valid = seg
        .children
        .iter()
        .enumerate()
        .any(|(i, b)| i != victim && b.cluster_state(line).is_valid());
    let state = if others_owned {
        // Ownership is unique and sibling tags are sound: we can only
        // hold a shareable copy.
        LineState::Shareable
    } else {
        let bridge = &seg.children[victim];
        let internal_owner = bridge.subtree_owner_below(line);
        let mirror = bridge.mirror().peek(line);
        let pmem = seg.bus.memory().peek(line);
        // The subtree is dirty when an internal owner exists or the
        // mirror has drifted from its parent memory.
        let dirty = internal_owner || mirror != pmem;
        match (dirty, others_valid) {
            (true, true) => LineState::Owned,
            (true, false) => LineState::Modified,
            (false, true) => LineState::Shareable,
            (false, false) => LineState::Exclusive,
        }
    };
    seg.children[victim].set_cluster_state(line, state);
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::{CacheConfig, ReplacementKind};
    use moesi::protocols::MoesiPreferred;

    fn cfg() -> CacheConfig {
        CacheConfig::new(1024, 32, 2, ReplacementKind::Lru)
    }

    fn moesi_leaf(cpus: usize) -> TreeSpec {
        (0..cpus).fold(TreeSpec::leaf(), |leaf, _| {
            leaf.cache(Box::new(MoesiPreferred::new()), cfg())
        })
    }

    fn two_by_two() -> HierarchicalSystem {
        TreeBuilder::new(32)
            .child(moesi_leaf(2))
            .child(moesi_leaf(2))
            .checking(true)
            .build()
    }

    /// 2 root subtrees × 2 clusters × 2 cpus: a depth-3 fabric tree.
    fn deep_two_two_two() -> HierarchicalSystem {
        TreeBuilder::uniform(32, 2, 3, 2, 2, |_, _| {
            (
                Box::new(MoesiPreferred::new()) as Box<dyn moesi::Protocol + Send>,
                Some(cfg()),
            )
        })
        .checking(true)
        .build()
    }

    #[test]
    fn cross_cluster_read_after_write() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[7; 4]);
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
        let v = sys.read(1, 0, 0x1000, 4);
        assert_eq!(v, vec![7; 4]);
        // The owning cluster demotes to O; the reader cluster is S.
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Owned);
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Shareable);
        assert_eq!(sys.bridge(0).stats().supplied, 1);
    }

    #[test]
    fn intra_cluster_sharing_stays_off_the_parent_bus() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[1; 4]);
        let parent_before = sys.parent_stats().transactions;
        // Heavy sharing *within* cluster 0: no parent traffic at all.
        for i in 0..20u32 {
            let cpu = (i % 2) as usize;
            sys.write(0, cpu, 0x1000, &i.to_le_bytes());
            let _ = sys.read(0, 1 - cpu, 0x1000, 4);
        }
        assert_eq!(
            sys.parent_stats().transactions,
            parent_before,
            "intra-cluster traffic must not escalate"
        );
    }

    #[test]
    fn cross_cluster_write_broadcasts_and_updates() {
        let mut sys = two_by_two();
        let _ = sys.read(0, 0, 0x1000, 4);
        let _ = sys.read(1, 0, 0x1000, 4); // both clusters S
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Shareable);
        sys.write(0, 0, 0x1000, &[9; 4]);
        // Cluster 0 broadcast at parent level and became the owner.
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Owned);
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Shareable);
        assert_eq!(sys.bridge(1).stats().updates_in, 1);
        // Cluster 1's copy was updated in place — reading is a local hit.
        let parent_before = sys.parent_stats().transactions;
        assert_eq!(sys.read(1, 0, 0x1000, 4), vec![9; 4]);
        assert_eq!(sys.parent_stats().transactions, parent_before);
    }

    #[test]
    fn cluster_level_exclusive_upgrade_is_silent() {
        let mut sys = two_by_two();
        let _ = sys.read(0, 0, 0x1000, 4); // only cluster 0: ext E
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Exclusive);
        let parent_before = sys.parent_stats().transactions;
        sys.write(0, 0, 0x1000, &[3; 4]);
        assert_eq!(
            sys.parent_stats().transactions,
            parent_before,
            "silent E->M"
        );
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
    }

    #[test]
    fn write_miss_invalidates_other_clusters() {
        let mut sys = two_by_two();
        let _ = sys.read(1, 0, 0x1000, 4);
        let _ = sys.read(1, 1, 0x1000, 4); // cluster 1 shares internally
        sys.write(0, 0, 0x1000, &[5; 4]); // cluster 0: RWITM at parent level
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Invalid);
        assert_eq!(sys.state_of(1, 0, 0x1000), LineState::Invalid);
        assert_eq!(sys.state_of(1, 1, 0x1000), LineState::Invalid);
        assert_eq!(sys.bridge(1).stats().invalidations_in, 1);
        assert_eq!(sys.read(1, 1, 0x1000, 4), vec![5; 4]);
    }

    #[test]
    fn three_clusters_ownership_ring() {
        let mut sys = TreeBuilder::new(32)
            .child(moesi_leaf(1))
            .child(moesi_leaf(1))
            .child(moesi_leaf(1))
            .checking(true)
            .build();
        for round in 0..9u32 {
            let cluster = (round as usize) % 3;
            sys.write(cluster, 0, 0x2000, &round.to_le_bytes());
            for reader in 0..3 {
                assert_eq!(
                    sys.read(reader, 0, 0x2000, 4),
                    round.to_le_bytes().to_vec(),
                    "round {round} reader {reader}"
                );
            }
            let owners = (0..3)
                .filter(|&c| sys.cluster_state_of(c, 0x2000).is_owned())
                .count();
            assert!(owners <= 1, "round {round}: {owners} owning clusters");
        }
    }

    #[test]
    fn randomized_hierarchy_run_stays_consistent() {
        use crate::workload::{DuboisBriggs, SharingModel};
        let mut sys = two_by_two();
        let model = SharingModel {
            shared_lines: 6,
            private_lines: 16,
            p_shared: 0.5,
            p_write: 0.4,
            p_rereference: 0.3,
            line_size: 32,
        };
        let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..2)
            .map(|cluster| {
                (0..2)
                    .map(|cpu| {
                        Box::new(DuboisBriggs::new(cluster * 2 + cpu, model, 99))
                            as Box<dyn RefStream + Send>
                    })
                    .collect()
            })
            .collect();
        sys.run(&mut streams, 250);
        sys.verify().expect("hierarchy consistent");
        assert!(sys.parent_stats().transactions > 0);
    }

    #[test]
    fn heterogeneous_clusters_work() {
        use moesi::protocols::{Dragon, NonCaching, WriteThrough};
        let mut sys = TreeBuilder::new(32)
            .child(
                TreeSpec::leaf()
                    .cache(Box::new(MoesiPreferred::new()), cfg())
                    .cache(Box::new(WriteThrough::new()), cfg()),
            )
            .child(
                TreeSpec::leaf()
                    .cache(Box::new(Dragon::new()), cfg())
                    .uncached(Box::new(NonCaching::new())),
            )
            .checking(true)
            .build();
        for i in 0..30u32 {
            let cluster = (i % 2) as usize;
            let cpu = ((i / 2) % 2) as usize;
            let addr = 0x1000 + u64::from(i % 4) * 32;
            if i % 3 == 0 {
                sys.write(cluster, cpu, addr, &i.to_le_bytes());
            } else {
                let _ = sys.read(cluster, cpu, addr, 4);
            }
        }
        sys.verify().expect("consistent");
    }

    #[test]
    fn global_sync_makes_parent_memory_current() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[1; 4]);
        sys.write(1, 1, 0x2000, &[2; 4]);
        // Parent memory has neither value yet (cluster-level M).
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![0; 4]);
        let pushed = sys.make_globally_consistent();
        assert_eq!(pushed, 2);
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![1; 4]);
        assert_eq!(sys.parent_memory_peek(0x2000, 4), vec![2; 4]);
        // No cluster owns anything any more.
        for c in 0..2 {
            assert!(!sys.cluster_state_of(c, 0x1000).is_owned());
            assert!(!sys.cluster_state_of(c, 0x2000).is_owned());
        }
        assert_eq!(sys.make_globally_consistent(), 0, "idempotent");
        // The clusters kept readable copies: no parent traffic on re-read.
        let before = sys.parent_stats().transactions;
        assert_eq!(sys.read(0, 0, 0x1000, 4), vec![1; 4]);
        assert_eq!(sys.parent_stats().transactions, before);
    }

    /// A parent bus that errors every transaction: a full-rate abort storm
    /// outlasts the 16-round retry policy, so every execute() returns
    /// `TooManyRetries` deterministically.
    fn break_parent_bus(sys: &mut HierarchicalSystem) {
        use futurebus::fault::{FaultConfig, FaultPlan};
        sys.parent_bus_mut()
            .inject_faults(FaultPlan::new(FaultConfig {
                storm_rate: 1.0,
                max_storm_rounds: 32,
                ..FaultConfig::default()
            }));
    }

    #[test]
    fn faulted_parent_fetch_degrades_instead_of_panicking() {
        let mut sys = two_by_two();
        break_parent_bus(&mut sys);
        // The cluster-level fetch errors on the parent bus; the bridge falls
        // back to parent memory (zeros — which is also the golden image, so
        // the oracle stays satisfied) instead of killing the simulation.
        let v = sys.read(1, 0, 0x1000, 4);
        assert_eq!(v, vec![0; 4]);
        assert!(!sys.parent_errors().is_empty());
        let err = &sys.parent_errors()[0];
        assert_eq!(err.cluster, 1);
        assert_eq!(err.txn, ParentTxnKind::Fetch);
        assert_eq!(err.phase, Phase::AbortBackoff);
        assert_eq!(err.depth, 0);
        assert!(matches!(err.error, BusError::TooManyRetries(_)), "{err}");
        assert!(err.to_string().contains("aborted"), "{err}");
        // The degraded fetch claims conservative sharedness, never
        // exclusivity, on a bus it could not actually snoop.
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Shareable);
        // The machine keeps running.
        let again = sys.read(1, 0, 0x1000, 4);
        assert_eq!(again, vec![0; 4]);
    }

    #[test]
    fn faulted_parent_push_still_syncs_parent_memory() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[1; 4]);
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
        break_parent_bus(&mut sys);
        // The consistency command's parent write-back errors; the push is
        // applied to parent memory directly so the command still delivers
        // its contract (parent memory holds the shared image).
        let pushed = sys.make_globally_consistent();
        assert_eq!(pushed, 1);
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![1; 4]);
        assert_eq!(sys.parent_errors().len(), 1);
        assert_eq!(sys.parent_errors()[0].txn, ParentTxnKind::Push);
        assert_eq!(sys.parent_errors()[0].cluster, 0);
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Shareable);
    }

    #[test]
    fn bridge_kill_loses_dirty_lines_and_invalidates_survivors() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[9; 4]); // cluster 0: M
        let _ = sys.read(1, 0, 0x1000, 4); // cluster 0: O, cluster 1: S
        sys.write(0, 0, 0x2000, &[8; 4]); // cluster 0: M, nobody else
                                          // The checker must accept the reported loss before the oracle runs
                                          // again, exactly as a fault campaign would.
        sys.tolerate_faults(true);
        sys.retire_bridge(0, false);
        let stats = *sys.bridge(0).stats();
        assert_eq!(stats.dirty_at_retire, 2);
        assert_eq!(stats.lost_lines, 2);
        assert_eq!(stats.salvaged_lines, 0);
        assert_eq!(
            stats.salvaged_lines + stats.lost_lines,
            stats.dirty_at_retire
        );
        assert!(sys.bridge(0).degraded());
        assert_eq!(sys.degraded_clusters(), vec![0]);
        assert_eq!(sys.parent_bus().retired(), vec![0]);
        // Cluster 1's surviving S copy of the lost line was invalidated by
        // the watchdog's synthetic invalidate round: no stale data outlives
        // the owner.
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Invalid);
        assert_eq!(sys.state_of(1, 0, 0x1000), LineState::Invalid);
        // Reconcile the golden image to the reported post-loss truth, then
        // the oracle is satisfied again.
        for line in [0x1000u64, 0x2000] {
            let mem = sys.parent_memory_peek(line, 32);
            sys.checker_mut().unwrap().record_write(line, &mem);
        }
        sys.verify().expect("reported loss reconciled");
    }

    #[test]
    fn bridge_stall_salvages_dirty_lines_to_parent_memory() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[5; 4]);
        sys.write(0, 1, 0x2000, &[6; 4]);
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![0; 4]);
        sys.retire_bridge(0, true);
        let stats = *sys.bridge(0).stats();
        assert_eq!(stats.dirty_at_retire, 2);
        assert_eq!(stats.salvaged_lines, 2);
        assert_eq!(stats.lost_lines, 0);
        // The synthetic push rounds landed the dirty data in parent memory:
        // nothing was lost, so the oracle stays green with no reconciliation.
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![5; 4]);
        assert_eq!(sys.parent_memory_peek(0x2000, 4), vec![6; 4]);
        sys.verify().expect("salvage preserves the golden image");
    }

    #[test]
    fn degraded_cluster_keeps_running_memory_direct() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[5; 4]);
        sys.retire_bridge(0, true);
        // The degraded cluster still reads its old data (now in parent
        // memory) and its writes stay globally visible.
        assert_eq!(sys.read(0, 0, 0x1000, 4), vec![5; 4]);
        sys.write(0, 0, 0x1000, &[7; 4]);
        assert_eq!(sys.read(1, 0, 0x1000, 4), vec![7; 4]);
        assert!(sys.bridge(0).stats().degraded_accesses >= 2);
        sys.verify().expect("degraded mode stays consistent");
    }

    #[test]
    fn degraded_write_updates_a_live_sibling_owner() {
        let mut sys = two_by_two();
        sys.write(1, 0, 0x3000, &[3; 4]); // cluster 1 owns the line (M)
        sys.retire_bridge(0, true);
        // Cluster 0's uncached broadcast write reaches cluster 1's copy via
        // SL-connection, and cluster 1's next read sees it with no extra
        // parent traffic.
        sys.write(0, 0, 0x3000, &[4; 4]);
        assert_eq!(sys.read(1, 0, 0x3000, 4), vec![4; 4]);
        // And a degraded read of a sibling-owned dirty line is served by
        // intervention, not stale memory.
        sys.write(1, 0, 0x3000, &[5; 4]);
        assert_eq!(sys.read(0, 0, 0x3000, 4), vec![5; 4]);
        sys.verify().expect("consistent across degraded traffic");
    }

    #[test]
    fn stale_tag_corruption_is_injected_and_scrubbed() {
        use futurebus::fault::{FaultConfig, FaultPlan};
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[1; 4]);
        let _ = sys.read(1, 0, 0x1000, 4); // cluster 0: O, cluster 1: S
        sys.parent_bus_mut()
            .inject_faults(FaultPlan::new(FaultConfig {
                stale_tag_rate: 1.0,
                ..FaultConfig::default()
            }));
        let (cluster, line) = sys.corrupt_inclusion_tag().expect("rate 1.0 must fire");
        let record = sys.parent_bus().fault_plan().unwrap().records()[0].clone();
        assert!(
            matches!(record.fault, InjectedFault::StaleTag { .. }),
            "{record:?}"
        );
        // The scrubber reconstructs a sound tag from evidence alone, and the
        // oracle is green again.
        let restored = sys.scrub_inclusion_tag(cluster, line);
        assert!(restored.is_valid(), "a resident line must come back valid");
        sys.verify().expect("scrubbed hierarchy is consistent");
        assert_eq!(sys.read(1, 0, 0x1000, 4), vec![1; 4]);
        assert_eq!(sys.read(0, 0, 0x1000, 4), vec![1; 4]);
    }

    #[test]
    fn scrub_reconstructs_each_legitimate_tag_soundly() {
        let mut sys = two_by_two();
        sys.write(0, 0, 0x1000, &[1; 4]); // cluster 0: M
        let _ = sys.read(1, 0, 0x2000, 4); // cluster 1: E
        let _ = sys.read(0, 0, 0x3000, 4);
        let _ = sys.read(1, 0, 0x3000, 4); // both S
        sys.write(0, 0, 0x4000, &[2; 4]);
        let _ = sys.read(1, 0, 0x4000, 4); // cluster 0: O, cluster 1: S
        for (cluster, line, expect) in [
            (0usize, 0x1000u64, LineState::Modified),
            (1, 0x2000, LineState::Exclusive),
            (0, 0x3000, LineState::Shareable),
            (0, 0x4000, LineState::Owned),
            (1, 0x4000, LineState::Shareable),
        ] {
            assert_eq!(sys.cluster_state_of(cluster, line), expect);
            let rebuilt = sys.scrub_inclusion_tag(cluster, line);
            assert_eq!(rebuilt, expect, "cluster {cluster} line {line:#x}");
            sys.verify().expect("reconstruction is sound");
        }
    }

    // ------------------------------------------------------------------
    // Fabric-tree tests: depth ≥ 3, snoop filters, leaf-phase errors.
    // ------------------------------------------------------------------

    #[test]
    fn deep_tree_shape_is_reported() {
        let sys = deep_two_two_two();
        assert_eq!(sys.depth(), 3);
        assert_eq!(sys.clusters(), 2);
        assert_eq!(sys.leaves(), 4);
        assert_eq!(
            sys.leaf_paths(),
            vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]
        );
        assert_eq!(sys.bridges_preorder().len(), 6);
        assert!(!sys.bridge(0).is_leaf());
        assert!(sys.bridge_at(&[0, 1]).is_leaf());
    }

    #[test]
    fn deep_cross_subtree_read_after_write() {
        let mut sys = deep_two_two_two();
        sys.write_at(&[0, 1], 0, 0x1000, &[7; 4]);
        // The whole chain above the writer owns the line.
        assert_eq!(sys.cluster_state_at(&[0], 0x1000), LineState::Modified);
        assert_eq!(sys.cluster_state_at(&[0, 1], 0x1000), LineState::Modified);
        assert_eq!(sys.cluster_state_at(&[0, 0], 0x1000), LineState::Invalid);
        // A reader in the far subtree pulls the data across two bus levels.
        assert_eq!(sys.read_at(&[1, 0], 1, 0x1000, 4), vec![7; 4]);
        assert_eq!(sys.cluster_state_at(&[0], 0x1000), LineState::Owned);
        assert_eq!(sys.cluster_state_at(&[0, 1], 0x1000), LineState::Owned);
        assert_eq!(sys.cluster_state_at(&[1], 0x1000), LineState::Shareable);
        // Tags are segment-scoped: [1, 0] is alone on its segment (sibling
        // [1, 1] never touched the line), so it holds E there — the global
        // sharing is the root's business, tracked by bridge [1]'s S tag.
        assert_eq!(sys.cluster_state_at(&[1, 0], 0x1000), LineState::Exclusive);
        sys.verify().expect("deep tree consistent");
    }

    #[test]
    fn a_borrowed_broadcast_payload_reaches_every_mirror_and_copy() {
        let mut sys = deep_two_two_two();
        let paths = sys.leaf_paths();
        let line = 0x3000;
        // Every cache of every leaf shares the line.
        for path in &paths {
            for cpu in 0..2 {
                sys.read_at(path, cpu, line, 4);
            }
        }
        // One write from leaf [0, 0] broadcasts on its leaf bus, on its
        // segment bus and on the root bus, and every bridge that snoops a
        // broadcast forwards the payload down into its subtree.
        let payload: Vec<u8> = (0..12).map(|i| 0xC0 + i).collect();
        sys.write_at(&paths[0], 0, line + 8, &payload);
        let golden = sys.checker().expect("oracle on").golden_bytes(line, 32);
        assert_eq!(golden[8..20], payload[..]);
        assert_eq!(
            sys.parent_bus().memory().peek(line),
            &golden[..],
            "root memory"
        );
        for child in 0..2 {
            let seg = sys.bridge(child).segment().expect("interior");
            assert_eq!(
                seg.bus().memory().peek(line),
                &golden[..],
                "mirror [{child}]"
            );
        }
        for path in &paths {
            let fabric = sys.bridge_at(path).fabric();
            assert_eq!(
                fabric.bus().memory().peek(line),
                &golden[..],
                "mirror {path:?}"
            );
            for ctrl in fabric.controllers() {
                let entry = ctrl.cache().and_then(|c| c.lookup(line));
                let entry = entry.unwrap_or_else(|| panic!("{path:?} {} lost it", ctrl.name()));
                assert_eq!(entry.data, &golden[..], "{path:?} {}", ctrl.name());
            }
        }
        let root = sys.parent_bus().stats();
        assert!(root.broadcasts > 0 && root.sl_updates > 0, "{root:?}");
        sys.verify().expect("consistent");
    }

    #[test]
    fn deep_sibling_sharing_stays_off_the_root_bus() {
        let mut sys = deep_two_two_two();
        sys.write_at(&[0, 0], 0, 0x2000, &[1; 4]);
        let _ = sys.read_at(&[0, 1], 0, 0x2000, 4);
        let root_before = sys.parent_stats().transactions;
        // Sharing between the two clusters *inside* subtree 0 never
        // escalates to the root bus.
        for i in 0..10u32 {
            sys.write_at(&[0, (i % 2) as usize], 0, 0x2000, &i.to_le_bytes());
            let _ = sys.read_at(&[0, 1 - (i % 2) as usize], 1, 0x2000, 4);
        }
        assert_eq!(
            sys.parent_stats().transactions,
            root_before,
            "intra-subtree traffic must stay on its segment"
        );
        sys.verify().expect("consistent");
    }

    #[test]
    fn snoop_filter_counters_conserve_and_suppress() {
        let mut sys = deep_two_two_two();
        for i in 0..12u32 {
            let line = 0x1000 + u64::from(i % 3) * 32;
            sys.write_at(&[(i % 2) as usize, 0], 0, line, &i.to_le_bytes());
            let _ = sys.read_at(&[1 - (i % 2) as usize, 1], 0, line, 4);
        }
        let mut suppressed_total = 0;
        for b in sys.bridges_preorder() {
            let s = b.stats();
            assert_eq!(
                s.forwarded + s.suppressed,
                s.snooped,
                "bridge {}: forwarded {} + suppressed {} != snooped {}",
                b.id(),
                s.forwarded,
                s.suppressed,
                s.snooped
            );
            assert!(s.filter_hits <= s.forwarded);
            suppressed_total += s.suppressed;
        }
        assert!(
            suppressed_total > 0,
            "cross-subtree traffic must hit some filter"
        );
        sys.verify().expect("consistent");
    }

    #[test]
    fn disabled_filter_floods_but_stays_consistent() {
        let mut sys = TreeBuilder::uniform(32, 2, 3, 2, 2, |_, _| {
            (
                Box::new(MoesiPreferred::new()) as Box<dyn moesi::Protocol + Send>,
                Some(cfg()),
            )
        })
        .checking(true)
        .snoop_filter(false)
        .build();
        for i in 0..12u32 {
            let line = 0x1000 + u64::from(i % 3) * 32;
            sys.write_at(&[(i % 2) as usize, 0], 0, line, &i.to_le_bytes());
            let _ = sys.read_at(&[1 - (i % 2) as usize, 1], 0, line, 4);
        }
        for b in sys.bridges_preorder() {
            let s = b.stats();
            assert_eq!(s.suppressed, 0, "bridge {}: filter off", b.id());
            assert_eq!(s.forwarded, s.snooped);
        }
        sys.verify().expect("filterless tree still consistent");
    }

    #[test]
    fn nested_bus_error_reports_the_leaf_phase() {
        use futurebus::fault::{FaultConfig, FaultPlan};
        let mut sys = deep_two_two_two();
        // Subtree 1 holds the line dirty, deep inside.
        sys.write_at(&[1, 0], 0, 0x1000, &[3; 4]);
        // Break the *interior* bus of subtree 1: every transaction on it
        // errors out deterministically.
        match &mut sys.bridge_mut(1).node {
            FabricNode::Interior(seg) => seg.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
                storm_rate: 1.0,
                max_storm_rounds: 32,
                ..FaultConfig::default()
            })),
            FabricNode::Leaf(_) => unreachable!("subtree 1 is interior"),
        }
        sys.tolerate_faults(true);
        // A read-for-modify from subtree 0: the root transaction succeeds
        // (bridge 1 supplies from its authority), but the forwarded
        // invalidation fails inside subtree 1's segment.
        sys.write_at(&[0, 0], 0, 0x1000, &[4; 4]);
        let forward_errs: Vec<&ParentError> = sys
            .parent_errors()
            .iter()
            .filter(|e| e.txn == ParentTxnKind::Forward)
            .collect();
        assert!(!forward_errs.is_empty(), "inner failure must be logged");
        let err = forward_errs[0];
        // The reported phase is the *inner* (leaf-segment) bus's phase, not
        // the root transaction's, and the depth says which level failed.
        assert_eq!(err.phase, Phase::AbortBackoff);
        assert_eq!(err.depth, 1);
        assert_eq!(err.cluster, 1);
        assert!(matches!(err.error, BusError::TooManyRetries(_)), "{err}");
        assert!(err.to_string().contains("(depth 1)"), "{err}");
    }

    #[test]
    fn deep_interior_retire_salvages_the_whole_subtree() {
        let mut sys = deep_two_two_two();
        sys.write_at(&[0, 0], 0, 0x1000, &[5; 4]);
        sys.write_at(&[0, 1], 1, 0x2000, &[6; 4]);
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![0; 4]);
        // Retire the interior bridge fronting subtree 0: both dirty lines —
        // held in *different* leaf clusters below it — are salvaged.
        sys.retire_bridge(0, true);
        let stats = *sys.bridge(0).stats();
        assert_eq!(stats.dirty_at_retire, 2);
        assert_eq!(stats.salvaged_lines, 2);
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![5; 4]);
        assert_eq!(sys.parent_memory_peek(0x2000, 4), vec![6; 4]);
        // The subtree is cold: every descendant directory and cache emptied.
        assert_eq!(sys.cluster_state_at(&[0, 0], 0x1000), LineState::Invalid);
        assert_eq!(sys.cluster_state_at(&[0, 1], 0x2000), LineState::Invalid);
        sys.verify().expect("salvage preserves the golden image");
        // Degraded accesses keep flowing memory-direct.
        assert_eq!(sys.read_at(&[0, 0], 0, 0x1000, 4), vec![5; 4]);
        sys.write_at(&[0, 1], 0, 0x2000, &[9; 4]);
        assert_eq!(sys.read_at(&[1, 0], 0, 0x2000, 4), vec![9; 4]);
        sys.verify().expect("degraded subtree stays consistent");
    }

    #[test]
    fn deep_stale_tags_scrub_at_every_level() {
        let mut sys = deep_two_two_two();
        sys.write_at(&[0, 1], 0, 0x1000, &[1; 4]);
        let _ = sys.read_at(&[1, 0], 0, 0x1000, 4);
        // Pre-order flat indices: 0 = subtree 0 (interior), 1 = [0,0],
        // 2 = [0,1], 3 = subtree 1 (interior), 4 = [1,0], 5 = [1,1].
        //
        // Reconstruction uses segment-local evidence because tags are
        // segment-scoped. [0,1] comes back M rather than its pre-corruption
        // O: within its segment the two are indistinguishable (sibling
        // [0,0] holds nothing) and equivalent — the root-level sharers are
        // tracked by the interior bridge's own O tag, which gates every
        // write descending into the subtree.
        for (flat, expect) in [
            (0usize, LineState::Owned),
            (2, LineState::Modified),
            (3, LineState::Shareable),
            (4, LineState::Exclusive),
        ] {
            let rebuilt = sys.scrub_inclusion_tag(flat, 0x1000);
            assert_eq!(rebuilt, expect, "flat index {flat}");
            sys.verify().expect("reconstruction is sound");
        }
    }

    #[test]
    fn deep_global_sync_drains_every_level() {
        let mut sys = deep_two_two_two();
        sys.write_at(&[0, 0], 0, 0x1000, &[1; 4]);
        sys.write_at(&[1, 1], 1, 0x2000, &[2; 4]);
        let pushed = sys.make_globally_consistent();
        assert_eq!(pushed, 2);
        assert_eq!(sys.parent_memory_peek(0x1000, 4), vec![1; 4]);
        assert_eq!(sys.parent_memory_peek(0x2000, 4), vec![2; 4]);
        for b in sys.bridges_preorder() {
            assert!(!b.cluster_state(0x1000).is_owned());
            assert!(!b.cluster_state(0x2000).is_owned());
        }
        assert_eq!(sys.make_globally_consistent(), 0, "idempotent");
        sys.verify().expect("post-sync tree consistent");
    }

    #[test]
    fn per_segment_disciplines_charge_arbitration() {
        use futurebus::Phase;
        let run = |discipline: Discipline| {
            let mut sys = TreeBuilder::uniform(32, 2, 3, 2, 2, |_, _| {
                (
                    Box::new(MoesiPreferred::new()) as Box<dyn moesi::Protocol + Send>,
                    Some(cfg()),
                )
            })
            .discipline(discipline)
            .build();
            for i in 0..12u32 {
                let line = 0x1000 + u64::from(i % 3) * 32;
                sys.write_at(&[(i % 2) as usize, 0], 0, line, &i.to_le_bytes());
                let _ = sys.read_at(&[1 - (i % 2) as usize, 1], 0, line, 4);
            }
            sys.parent_stats().phase_ns[Phase::Arbitrate as usize]
        };
        let priority = run(Discipline::Priority);
        let fcfs = run(Discipline::Fcfs);
        assert_eq!(priority, 0, "priority grants in a single slot");
        assert!(
            fcfs > 0,
            "queue-position slots must charge the arbitrate phase"
        );
    }

    /// Puts `line` in `state` in cache `cpu` of leaf `leaf`, holding `data`.
    fn plant(sys: &mut HierarchicalSystem, leaf: usize, cpu: usize, state: LineState, data: u8) {
        sys.leaf_fabric_mut(leaf).controller_mut(cpu).fill(
            0x100,
            state,
            &[data; 32],
            &mut Vec::new(),
        );
    }

    #[test]
    fn audit_pins_local_and_child_level_multiple_owners() {
        let mut sys = two_by_two();
        plant(&mut sys, 1, 0, LineState::Modified, 0);
        plant(&mut sys, 1, 1, LineState::Owned, 0);
        assert_eq!(
            sys.verify(),
            Err(Violation::MultipleOwners {
                addr: 0x100,
                owners: vec!["cluster1: 2 owners".into()],
            })
        );

        let mut sys = two_by_two();
        sys.bridge_mut(0)
            .set_cluster_state(0x100, LineState::Modified);
        sys.bridge_mut(1).set_cluster_state(0x100, LineState::Owned);
        assert_eq!(
            sys.verify(),
            Err(Violation::MultipleOwners {
                addr: 0x100,
                owners: vec!["cluster0".into(), "cluster1".into()],
            })
        );

        // Inside an interior segment, whose own tag is live.
        let mut sys = deep_two_two_two();
        sys.bridge_at_mut(&[1])
            .set_cluster_state(0x100, LineState::Shareable);
        sys.bridge_at_mut(&[1, 0])
            .set_cluster_state(0x100, LineState::Owned);
        sys.bridge_at_mut(&[1, 1])
            .set_cluster_state(0x100, LineState::Modified);
        assert_eq!(
            sys.verify(),
            Err(Violation::MultipleOwners {
                addr: 0x100,
                owners: vec!["cluster1.0".into(), "cluster1.1".into()],
            })
        );
    }

    #[test]
    fn audit_pins_exclusivity_between_children() {
        // The exclusive child comes second, so the other holder is reported
        // from before it.
        let mut sys = two_by_two();
        sys.bridge_mut(0)
            .set_cluster_state(0x100, LineState::Shareable);
        sys.bridge_mut(1)
            .set_cluster_state(0x100, LineState::Exclusive);
        assert_eq!(
            sys.verify(),
            Err(Violation::ExclusivityViolated {
                addr: 0x100,
                exclusive_holder: "cluster1".into(),
                other_holder: "cluster0".into(),
            })
        );
    }

    #[test]
    fn audit_pins_stale_copies_in_a_cache_and_in_the_authority() {
        let mut sys = two_by_two();
        plant(&mut sys, 0, 1, LineState::Shareable, 0);
        plant(&mut sys, 1, 1, LineState::Shareable, 3);
        assert_eq!(
            sys.verify(),
            Err(Violation::StaleCopy {
                addr: 0x100,
                holder: "cluster1/cpu1:MOESI".into(),
                state: LineState::Shareable,
            })
        );

        // Cluster 0 owns the line but no cache below it does: its mirror is
        // the authority, and the mirror is stale.
        let mut sys = two_by_two();
        sys.bridge_mut(0)
            .set_cluster_state(0x100, LineState::Modified);
        sys.leaf_fabric_mut(0)
            .bus_mut()
            .memory_mut()
            .write_line(0x100, &[7; 32]);
        assert_eq!(
            sys.verify(),
            Err(Violation::StaleCopy {
                addr: 0x100,
                holder: "cluster0 (authoritative)".into(),
                state: LineState::Modified,
            })
        );
    }

    #[test]
    fn audit_pins_stale_memory_and_inclusion_holes() {
        let mut sys = two_by_two();
        sys.bridge_mut(1)
            .set_cluster_state(0x100, LineState::Shareable);
        sys.parent_bus_mut()
            .memory_mut()
            .write_line(0x100, &[7; 32]);
        assert_eq!(sys.verify(), Err(Violation::StaleMemory { addr: 0x100 }));

        // The root segment's invariants come before every bridge's: stale
        // root memory is reported ahead of cluster 0's inclusion hole.
        let mut sys = two_by_two();
        plant(&mut sys, 0, 0, LineState::Shareable, 0);
        sys.parent_bus_mut()
            .memory_mut()
            .write_line(0x100, &[7; 32]);
        assert_eq!(sys.verify(), Err(Violation::StaleMemory { addr: 0x100 }));

        let mut sys = two_by_two();
        plant(&mut sys, 0, 0, LineState::Shareable, 0);
        assert_eq!(
            sys.verify(),
            Err(Violation::InclusionHole {
                addr: 0x100,
                bridge: "cluster0".into(),
            })
        );

        // Below a live interior tag: leaf 1 is the bridge at [0, 1].
        let mut sys = deep_two_two_two();
        sys.bridge_at_mut(&[0])
            .set_cluster_state(0x100, LineState::Shareable);
        plant(&mut sys, 1, 0, LineState::Shareable, 0);
        assert_eq!(
            sys.verify(),
            Err(Violation::InclusionHole {
                addr: 0x100,
                bridge: "cluster0.1".into(),
            })
        );
    }
}
