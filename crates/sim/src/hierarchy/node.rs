//! The fabric tree: segments, bridges, and the recursive bus glue.
//!
//! A [`FabricNode`] is what hangs below a [`Bridge`]: either a leaf segment
//! (a complete single-bus [`Fabric`] of cache controllers) or an interior
//! [`Segment`] whose modules are themselves bridges. The recursion is the
//! paper's own (§6): *a cluster is one big cache*, so a subtree of clusters
//! is — seen from above — still one big cache, and the same Table 1/Table 2
//! machinery applies unchanged at every level.

use cache_array::split_line_crossers;
use futurebus::{
    BusError, BusModule, BusObservation, ChangeLog, Futurebus, LineAddr, LineMap, RetireReport,
    SparseMemory, TimingConfig, TransactionKind, TransactionOutcome, TransactionRequest,
};
use moesi::{table, BusEvent, BusReaction, LineState, MasterSignals, ResponseSignals};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::{ParentError, ParentTxnKind};
use crate::fabric::Fabric;

/// What a bridge needs from its parent bus before an intra-subtree access
/// may proceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum ParentNeed {
    /// Fetch the line (a cluster-level read miss or read-for-modify).
    Fetch {
        signals: MasterSignals,
        for_write: bool,
    },
    /// Broadcast the access's written bytes (a cluster-level shared write).
    Broadcast,
}

/// Per-bridge counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Parent-bus transactions this bridge mastered.
    pub parent_transactions: u64,
    /// Cluster-level line fetches from the parent bus.
    pub fetches: u64,
    /// Cluster-level broadcast writes onto the parent bus.
    pub broadcasts: u64,
    /// Parent-bus reads this cluster supplied by intervention.
    pub supplied: u64,
    /// Invalidations propagated into the cluster from the parent bus.
    pub invalidations_in: u64,
    /// Updates propagated into the cluster from the parent bus.
    pub updates_in: u64,
    /// Dirty lines this bridge owned at the moment the watchdog retired it.
    pub dirty_at_retire: u64,
    /// Of those, lines salvaged onto the parent bus by the watchdog's
    /// synthetic push rounds.
    pub salvaged_lines: u64,
    /// Of those, lines whose only up-to-date copy died with the bridge.
    pub lost_lines: u64,
    /// Memory-direct parent-bus accesses made after the bridge was retired.
    pub degraded_accesses: u64,
    /// Parent-bus transactions snooped (address cycles observed).
    pub snooped: u64,
    /// Snoops whose inclusion tag hit: the subtree holds the line.
    pub filter_hits: u64,
    /// Snoops admitted past the filter into the subtree (every hit, plus —
    /// with the filter disabled — every miss as well).
    pub forwarded: u64,
    /// Snoops the inclusion filter suppressed: the subtree holds no copy, so
    /// nothing below this bridge needed to see the transaction.
    pub suppressed: u64,
}

/// What hangs below a bridge: a leaf cluster or another bus segment.
#[derive(Debug)]
pub enum FabricNode {
    /// A leaf cluster: cache controllers on one bus with a mirror memory.
    Leaf(Fabric),
    /// An interior segment: child bridges on one bus with a mirror memory.
    Interior(Segment),
}

impl FabricNode {
    /// Processor `cpu` of the leaf at `path` below this node reads `len`
    /// bytes at `addr`, appending them to `out` — or, without `out`, on the
    /// leaf fabric's dataless path, whose effects are the same. A segment
    /// on the way splits the access at line boundaries (§5.1); per line, a
    /// dead child's bridge reads memory-direct and a live one gates the
    /// access on its cluster-level protocol before it descends. `depth` is
    /// this node's bus level.
    ///
    /// # Panics
    ///
    /// Panics when `path` is exhausted before reaching a leaf, or names a
    /// child that does not exist.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn read(
        &mut self,
        path: &[usize],
        cpu: usize,
        addr: u64,
        len: usize,
        depth: usize,
        errors: &mut Vec<ParentError>,
        mut out: Option<&mut Vec<u8>>,
    ) {
        let seg = match self {
            FabricNode::Leaf(fabric) => {
                return match out {
                    Some(out) => fabric.read_into(cpu, addr, len, out),
                    None => fabric.read_dataless(cpu, addr, len),
                }
            }
            FabricNode::Interior(seg) => seg,
        };
        let (&child, below) = path
            .split_first()
            .expect("access path stops at an interior segment");
        for (piece_addr, piece_len) in split_line_crossers(addr, len, seg.bus.line_size()) {
            let line = seg.bus.memory().align(piece_addr);
            if seg.children[child].degraded() {
                let offset = (piece_addr - line) as usize;
                let range = offset..offset + piece_len;
                seg.degraded_read(child, line, range, depth, errors, out.as_deref_mut());
                continue;
            }
            seg.ensure(child, line, None, depth, errors);
            let node = &mut seg.children[child].node;
            node.read(
                below,
                cpu,
                piece_addr,
                piece_len,
                depth + 1,
                errors,
                out.as_deref_mut(),
            );
        }
    }

    /// Processor `cpu` of the leaf at `path` below this node writes `bytes`
    /// at `addr` (see [`read`](FabricNode::read)).
    #[inline]
    pub(crate) fn write(
        &mut self,
        path: &[usize],
        cpu: usize,
        addr: u64,
        bytes: &[u8],
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) {
        let seg = match self {
            FabricNode::Leaf(fabric) => return fabric.write_fast(cpu, addr, bytes),
            FabricNode::Interior(seg) => seg,
        };
        let (&child, below) = path
            .split_first()
            .expect("access path stops at an interior segment");
        let mut cursor = 0;
        for (piece_addr, piece_len) in split_line_crossers(addr, bytes.len(), seg.bus.line_size()) {
            let piece = &bytes[cursor..cursor + piece_len];
            cursor += piece_len;
            let line = seg.bus.memory().align(piece_addr);
            let offset = (piece_addr - line) as usize;
            if seg.children[child].degraded() {
                seg.degraded_write(child, line, offset, piece, depth, errors);
                continue;
            }
            seg.ensure(child, line, Some((offset, piece)), depth, errors);
            let node = &mut seg.children[child].node;
            node.write(below, cpu, piece_addr, piece, depth + 1, errors);
        }
    }

    /// The §6 consistency command at this node's scale: pushes every owned
    /// line so this node's memory holds its complete image — a leaf's caches
    /// pass each owned line in cache order, a segment's children push
    /// theirs. Returns lines pushed (top-level lines only; descendant
    /// demotions ride along inside each push).
    pub(crate) fn push_owned(&mut self, depth: usize, errors: &mut Vec<ParentError>) -> usize {
        match self {
            FabricNode::Leaf(fabric) => fabric.push_owned(),
            FabricNode::Interior(seg) => seg.push_owned(depth, errors),
        }
    }

    /// Logs in `log` (none for `None`) the changes of every bridge, cache
    /// and memory at or below this node.
    pub(crate) fn track_changes(&mut self, log: Option<&ChangeLog>) {
        match self {
            FabricNode::Leaf(fabric) => fabric.track_changes(log),
            FabricNode::Interior(seg) => seg.track_changes(log),
        }
    }
}

/// One bus level of the fabric tree: a Futurebus whose modules are child
/// [`Bridge`]s. The root segment's memory is true main memory; an interior
/// segment's memory plays the mirror (default-owner) role for its subtree,
/// exactly as a leaf fabric's mirror does for its caches.
///
/// Every transaction on a segment bus goes through
/// [`Futurebus::execute_or_degrade`] with the children as a flat component
/// array: statically dispatched, with no per-transaction module list, and a
/// failed transaction completes memory-direct while its error is logged.
#[derive(Debug)]
pub struct Segment {
    pub(super) bus: Futurebus,
    pub(crate) children: Vec<Bridge>,
    /// The line a child passes up this bus, copied from its authority; kept
    /// for its capacity, so a push allocates nothing.
    outgoing: Vec<u8>,
}

impl Segment {
    pub(super) fn new(line_size: usize, timing: TimingConfig, children: Vec<Bridge>) -> Self {
        Segment {
            bus: Futurebus::new(line_size, timing),
            children,
            outgoing: Vec::new(),
        }
    }

    /// The child bridges on this segment.
    #[must_use]
    pub fn children(&self) -> &[Bridge] {
        &self.children
    }

    /// This segment's bus.
    #[must_use]
    pub fn bus(&self) -> &Futurebus {
        &self.bus
    }

    /// Mutable access to this segment's bus.
    pub fn bus_mut(&mut self) -> &mut Futurebus {
        &mut self.bus
    }

    /// The master index external agents (DMA, forwarded snoops from above)
    /// use on this segment: one past the last child.
    pub(super) fn external_master(&self) -> usize {
        self.children.len()
    }

    /// Logs in `log` the changes of this segment's memory and of every
    /// bridge, cache and memory below it.
    fn track_changes(&mut self, log: Option<&ChangeLog>) {
        self.bus.memory_mut().track_changes(log);
        for child in &mut self.children {
            child.track_changes(log);
        }
    }

    /// Gates an access descending into `child` on the cluster-level
    /// protocol: runs whatever transaction the bridge's Table-1 consultation
    /// demands on this segment's bus. A bus error does not kill the
    /// simulation: the bridge degrades to a memory-direct fallback (the
    /// error is logged with this segment's `depth`, and any inconsistency
    /// the skipped snoops cause is the oracle's to report).
    fn ensure(
        &mut self,
        child: usize,
        line: LineAddr,
        write: Option<(usize, &[u8])>,
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) {
        let Some(need) = self.children[child].prepare(line, write.is_some()) else {
            return;
        };
        let (req, txn) = match need {
            ParentNeed::Fetch { signals, .. } => (
                TransactionRequest::read(child, line, signals),
                ParentTxnKind::Fetch,
            ),
            ParentNeed::Broadcast => {
                let (offset, bytes) = write.expect("only a write broadcasts");
                (
                    TransactionRequest::write(child, line, MasterSignals::CA_IM_BC, offset, bytes),
                    ParentTxnKind::Broadcast,
                )
            }
        };
        let (out, error) = self.bus.execute_or_degrade(&req, &mut self.children);
        if let Some(error) = error {
            errors.push(ParentError::new(child, txn, error, depth));
        }
        self.children[child].commit(line, need, write, &out);
    }

    /// Memory-direct degraded read: `child`'s bridge is dead, so the access
    /// goes straight onto this segment's bus as an uncached read (no CA —
    /// Table 2 column 7). A live sibling that owns the line intervenes and
    /// supplies current data; otherwise segment memory answers. The bytes
    /// at `range` within the line are appended to `out`, if given.
    fn degraded_read(
        &mut self,
        child: usize,
        line: LineAddr,
        range: Range<usize>,
        depth: usize,
        errors: &mut Vec<ParentError>,
        out: Option<&mut Vec<u8>>,
    ) {
        self.children[child].stats.degraded_accesses += 1;
        let req = TransactionRequest::read(child, line, MasterSignals::NONE);
        let (done, error) = self.bus.execute_or_degrade(&req, &mut self.children);
        let data = done.data.expect("reads return a line");
        if let Some(out) = out {
            out.extend_from_slice(&data[range]);
        }
        if let Some(error) = error {
            errors.push(ParentError::new(
                child,
                ParentTxnKind::DegradedRead,
                error,
                depth,
            ));
        }
    }

    /// Memory-direct degraded write: an uncached broadcast write (IM,BC) so
    /// live siblings holding the line SL-connect and patch their copies.
    fn degraded_write(
        &mut self,
        child: usize,
        line: LineAddr,
        offset: usize,
        bytes: &[u8],
        depth: usize,
        errors: &mut Vec<ParentError>,
    ) {
        self.children[child].stats.degraded_accesses += 1;
        let req = TransactionRequest::write(child, line, MasterSignals::IM_BC, offset, bytes);
        let (_, error) = self.bus.execute_or_degrade(&req, &mut self.children);
        if let Some(error) = error {
            errors.push(ParentError::new(
                child,
                ParentTxnKind::DegradedWrite,
                error,
                depth,
            ));
        }
    }

    /// [`FabricNode::push_owned`] on this segment: every child pushes its
    /// owned lines, in ascending line order.
    fn push_owned(&mut self, depth: usize, errors: &mut Vec<ParentError>) -> usize {
        let mut pushed = 0;
        for child in 0..self.children.len() {
            let mut owned: Vec<LineAddr> = self.children[child]
                .directory
                .iter()
                .filter(|(_, s)| s.is_owned())
                .map(|(&line, _)| line)
                .collect();
            owned.sort_unstable(); // map order must not leak into bus traffic
            for line in owned {
                if let Some(error) = self.pass_child(child, line) {
                    errors.push(ParentError::new(child, ParentTxnKind::Push, error, depth));
                }
                pushed += 1;
            }
        }
        pushed
    }

    /// Passes `child`'s `line` onto this segment's bus (Table 1, note 3, at
    /// cluster scale). First the owner chain below brings the child's mirror
    /// up to date, level by level; then the bridge writes the line back with
    /// CA (the subtree keeps its copy), and its tag becomes S or E by CH. A
    /// failed push still reaches segment memory — which is the whole point
    /// of the consistency command; siblings just miss the snoop — and its
    /// error is returned.
    fn pass_child(&mut self, child: usize, line: LineAddr) -> Option<BusError> {
        self.children[child].sync_subtree(line);
        self.outgoing.clear();
        self.outgoing
            .extend_from_slice(self.children[child].authoritative_line(line));
        let req = TransactionRequest::write(child, line, MasterSignals::CA, 0, &self.outgoing);
        let (out, error) = self.bus.execute_or_degrade(&req, &mut self.children);
        // CH from a sibling means shared copies exist (assumed conservatively
        // when the transaction failed).
        let ext = if out.ch_seen {
            LineState::Shareable
        } else {
            LineState::Exclusive
        };
        self.children[child].set_cluster_state(line, ext);
        error
    }
}

/// A bus bridge: one subtree presented to its parent bus as a single MOESI
/// cache master whose "cache" is the whole subtree. The directory doubles as
/// the bridge's *inclusion tag set*: a line absent from it is guaranteed
/// absent from the entire subtree, which is what lets the snoop filter
/// suppress forwarding without losing coherence.
#[derive(Debug)]
pub struct Bridge {
    pub(super) id: usize,
    /// Depth of the bus this bridge attaches to (root bus = 0).
    pub(super) level: usize,
    pub(crate) node: FabricNode,
    pub(super) directory: LineMap<LineState>,
    /// A snoop's decision for the completion handshake: the line, the
    /// inclusion tag the snoop read, and the reaction (`None` for a miss
    /// forwarded with the filter off).
    pub(super) pending: Option<(LineAddr, LineState, Option<BusReaction>)>,
    pub(super) stats: BridgeStats,
    pub(super) degraded: bool,
    pub(super) filter: bool,
    pub(crate) forward_errors: Vec<ParentError>,
    /// Raised whenever this bridge logs a forward error. Every bridge of a
    /// tree shares the one flag, so the system collects the errors only
    /// after an access that logged one.
    forward_logged: Arc<AtomicBool>,
    changes: Option<ChangeLog>,
}

impl Bridge {
    pub(super) fn new(
        id: usize,
        level: usize,
        node: FabricNode,
        forward_logged: Arc<AtomicBool>,
    ) -> Self {
        Bridge {
            id,
            level,
            node,
            directory: LineMap::default(),
            pending: None,
            stats: BridgeStats::default(),
            degraded: false,
            filter: true,
            forward_errors: Vec::new(),
            forward_logged,
            changes: None,
        }
    }

    /// The child index on the parent bus.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// What hangs below this bridge.
    #[must_use]
    pub fn node(&self) -> &FabricNode {
        &self.node
    }

    /// True when this bridge fronts a leaf cluster of cache controllers.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.node, FabricNode::Leaf(_))
    }

    /// The interior segment below this bridge, when there is one.
    #[must_use]
    pub fn segment(&self) -> Option<&Segment> {
        match &self.node {
            FabricNode::Interior(seg) => Some(seg),
            FabricNode::Leaf(_) => None,
        }
    }

    /// The cluster fabric (bus, controllers, mirror memory).
    ///
    /// # Panics
    ///
    /// Panics when this bridge fronts an interior segment, not a leaf
    /// cluster.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => panic!("bridge {} fronts an interior segment", self.id),
        }
    }

    /// Mutable access to the cluster fabric, for installing fault plans or
    /// tolerant-mode settings on the cluster bus.
    ///
    /// # Panics
    ///
    /// Panics when this bridge fronts an interior segment.
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        match &mut self.node {
            FabricNode::Leaf(fabric) => fabric,
            FabricNode::Interior(_) => panic!("bridge {} fronts an interior segment", self.id),
        }
    }

    /// True once the watchdog has retired this bridge: the subtree runs in
    /// memory-direct degraded mode (uncached parent-bus accesses).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Bridge counters.
    #[must_use]
    pub fn stats(&self) -> &BridgeStats {
        &self.stats
    }

    /// Whether the inclusion snoop filter is enabled (it is by default).
    #[must_use]
    pub fn snoop_filter(&self) -> bool {
        self.filter
    }

    /// Enables or disables the inclusion snoop filter. With the filter off
    /// the bridge forwards *every* snooped transaction into its subtree —
    /// the flood a snoop filter exists to prevent — which is only useful for
    /// measuring what the filter saves.
    pub fn set_snoop_filter(&mut self, on: bool) {
        self.filter = on;
    }

    /// The cluster-level MOESI state for a line.
    #[must_use]
    pub fn cluster_state(&self, line: LineAddr) -> LineState {
        self.directory
            .get(&line)
            .copied()
            .unwrap_or(LineState::Invalid)
    }

    pub(super) fn set_cluster_state(&mut self, line: LineAddr, state: LineState) {
        if state == LineState::Invalid {
            self.directory.remove(&line);
        } else {
            self.directory.insert(line, state);
        }
        if let Some(log) = &self.changes {
            log.line(line);
        }
    }

    /// Drops every inclusion tag at once: a wholesale change.
    fn clear_directory(&mut self) {
        self.directory.clear();
        if let Some(log) = &self.changes {
            log.wholesale();
        }
    }

    /// Logs in `log` the changes of this bridge's directory and of
    /// everything below it.
    fn track_changes(&mut self, log: Option<&ChangeLog>) {
        self.changes = log.cloned();
        self.node.track_changes(log);
    }

    /// This bridge's mirror memory: the leaf fabric's bus memory, or the
    /// interior segment's bus memory.
    pub(super) fn mirror(&self) -> &SparseMemory {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric.bus().memory(),
            FabricNode::Interior(seg) => seg.bus.memory(),
        }
    }

    pub(super) fn mirror_mut(&mut self) -> &mut SparseMemory {
        match &mut self.node {
            FabricNode::Leaf(fabric) => fabric.bus_mut().memory_mut(),
            FabricNode::Interior(seg) => seg.bus.memory_mut(),
        }
    }

    /// Decides what parent-bus traffic must precede an intra-subtree read
    /// or write, following Table 1 at cluster granularity.
    pub(super) fn prepare(&mut self, line: LineAddr, write: bool) -> Option<ParentNeed> {
        let ext = self.cluster_state(line);
        if !write {
            // Table 1, I/Read: `CH:S/E,CA,R`; any valid state reads locally.
            return (!ext.is_valid()).then_some(ParentNeed::Fetch {
                signals: MasterSignals::CA,
                for_write: false,
            });
        }
        match ext {
            // Table 1, M/Write: silent.
            LineState::Modified => None,
            // Table 1, E/Write: silent upgrade at cluster level.
            LineState::Exclusive => {
                self.set_cluster_state(line, LineState::Modified);
                None
            }
            // Table 1, O/S Write (preferred): broadcast the change.
            LineState::Owned | LineState::Shareable => Some(ParentNeed::Broadcast),
            // Table 1, I/Write (preferred): read-for-modify.
            LineState::Invalid => Some(ParentNeed::Fetch {
                signals: MasterSignals::CA_IM,
                for_write: true,
            }),
        }
    }

    /// Applies the outcome of the parent transaction [`Bridge::prepare`]
    /// requested for an access writing `write` (`None` for a read).
    pub(super) fn commit(
        &mut self,
        line: LineAddr,
        need: ParentNeed,
        write: Option<(usize, &[u8])>,
        out: &TransactionOutcome,
    ) {
        self.stats.parent_transactions += 1;
        match need {
            ParentNeed::Fetch { for_write, .. } => {
                self.stats.fetches += 1;
                let data = out.data.as_ref().expect("fetch returns a line");
                // The mirror becomes the subtree's default owner for the line.
                self.mirror_mut().write_line(line, data);
                let ext = if for_write {
                    LineState::Modified
                } else if out.ch_seen {
                    LineState::Shareable
                } else {
                    LineState::Exclusive
                };
                self.set_cluster_state(line, ext);
            }
            ParentNeed::Broadcast => {
                self.stats.broadcasts += 1;
                let (offset, bytes) = write.expect("only a write broadcasts");
                // Keep the mirror in step with what the siblings saw.
                self.mirror_mut().write_bytes(line, offset, bytes);
                let ext = if out.ch_seen {
                    LineState::Owned
                } else {
                    LineState::Modified
                };
                self.set_cluster_state(line, ext);
            }
        }
    }

    /// The authoritative subtree data for a line, borrowed: the owner
    /// chain's copy if one exists (recursing through owning child bridges to
    /// the owning cache), else the mirror.
    pub(super) fn authoritative_line(&self, line: LineAddr) -> &[u8] {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric
                .controllers()
                .iter()
                .find_map(|ctrl| {
                    let entry = ctrl.cache()?.lookup(line)?;
                    entry.state.is_owned().then_some(entry.data)
                })
                .unwrap_or_else(|| fabric.bus().memory().peek(line)),
            FabricNode::Interior(seg) => seg
                .children
                .iter()
                .find(|child| child.cluster_state(line).is_owned())
                .map_or_else(
                    || seg.bus.memory().peek(line),
                    |c| c.authoritative_line(line),
                ),
        }
    }

    /// Whether the subtree holds a valid copy, judged by the evidence the
    /// bridge actually has: cache states at a leaf, child inclusion tags at
    /// an interior segment.
    pub(super) fn any_local_copy(&self, line: LineAddr) -> bool {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric
                .controllers()
                .iter()
                .any(|c| c.state_of(line).is_valid()),
            FabricNode::Interior(seg) => seg
                .children
                .iter()
                .any(|c| c.cluster_state(line).is_valid()),
        }
    }

    /// Whether the subtree contains an owner below this bridge's own tag:
    /// an owning cache at a leaf, an owning child tag at an interior
    /// segment.
    pub(super) fn subtree_owner_below(&self, line: LineAddr) -> bool {
        match &self.node {
            FabricNode::Leaf(fabric) => fabric
                .controllers()
                .iter()
                .any(|c| c.state_of(line).is_owned()),
            FabricNode::Interior(seg) => seg
                .children
                .iter()
                .any(|c| c.cluster_state(line).is_owned()),
        }
    }

    /// Logs an error met on the interior bus below this bridge (one level
    /// deeper), recorded against `cluster`.
    fn log_forward_error(&mut self, cluster: usize, txn: ParentTxnKind, error: BusError) {
        let depth = self.level + 1;
        self.forward_errors
            .push(ParentError::new(cluster, txn, error, depth));
        self.forward_logged.store(true, Ordering::Relaxed);
    }

    /// Runs a transaction on the subtree's own bus, mastered by the bridge,
    /// to carry a snooped parent event inside: a read demotes internal
    /// copies exactly as if it had happened on the internal bus, an
    /// invalidation kills them, a broadcast patches the mirror and the
    /// SL-connected copies. A failed interior transaction still completes
    /// memory-direct (a broadcast's payload reaches the segment mirror), and
    /// its error is logged with the *inner* bus's phase and depth.
    fn forward(&mut self, line: LineAddr, kind: TransactionKind<'_>, signals: MasterSignals) {
        match &mut self.node {
            FabricNode::Leaf(fabric) => {
                let master = fabric.external_master();
                fabric.run_txn(&TransactionRequest {
                    master,
                    addr: line,
                    kind,
                    signals,
                });
            }
            FabricNode::Interior(seg) => {
                let req = TransactionRequest {
                    master: seg.external_master(),
                    addr: line,
                    kind,
                    signals,
                };
                let (_, error) = seg.bus.execute_or_degrade(&req, &mut seg.children);
                if let Some(error) = error {
                    self.log_forward_error(self.id, ParentTxnKind::Forward, error);
                }
            }
        }
    }

    /// Brings the subtree's mirrors current for `line` before a push: the
    /// owner chain passes the line level by level (Table 1, note 3), so the
    /// data the bridge pushes upward is the latest anywhere below it.
    pub(super) fn sync_subtree(&mut self, line: LineAddr) {
        match &mut self.node {
            FabricNode::Leaf(fabric) => {
                fabric.pass_owner(line);
            }
            FabricNode::Interior(seg) => {
                let owner = seg
                    .children
                    .iter()
                    .position(|c| c.cluster_state(line).is_owned());
                let error = owner.and_then(|idx| Some((idx, seg.pass_child(idx, line)?)));
                if let Some((idx, error)) = error {
                    self.log_forward_error(idx, ParentTxnKind::Push, error);
                }
            }
        }
    }
}

/// Cold-invalidates every cached line in the subtree and drops every
/// descendant directory: a dead bridge can no longer keep its subtree
/// coherent with the outside world.
fn cold_invalidate(node: &mut FabricNode) {
    match node {
        FabricNode::Leaf(fabric) => {
            for cpu in 0..fabric.nodes() {
                let resident: Vec<LineAddr> = fabric
                    .controller(cpu)
                    .cache()
                    .map(|c| c.iter().map(|(a, _)| a).collect())
                    .unwrap_or_default();
                for line in resident {
                    fabric
                        .controller_mut(cpu)
                        .apply_state(line, LineState::Invalid);
                }
            }
        }
        FabricNode::Interior(seg) => {
            for child in &mut seg.children {
                child.clear_directory();
                cold_invalidate(&mut child.node);
            }
        }
    }
}

impl BusModule for Bridge {
    fn snoop(&mut self, req: &TransactionRequest) -> ResponseSignals {
        self.pending = None;
        self.stats.snooped += 1;
        let ext = self.cluster_state(req.addr);
        if ext == LineState::Invalid {
            if self.filter {
                // Inclusion guarantees the subtree holds no copy: nothing
                // below this bridge needs to see the transaction.
                self.stats.suppressed += 1;
                return ResponseSignals::NONE;
            }
            // Filter disabled: forward blindly into the subtree with no
            // response and no state change.
            self.stats.forwarded += 1;
            self.pending = Some((req.addr, ext, None));
            return ResponseSignals::NONE;
        }
        self.stats.filter_hits += 1;
        self.stats.forwarded += 1;
        let event = BusEvent::from_signals(req.signals).expect("legal parent signals");
        // Table 2's error-condition cells ((M, CBW) and (E, CBW)) are
        // unreachable in correct operation but *are* reachable under injected
        // tag corruption. Rather than abort the process, de-escalate to the
        // nearest safe super-state — an owner answers as O, a clean holder as
        // S — which keeps snooping sound until the scrubber repairs the tag.
        let reaction = table::preferred_bus(ext, event)
            .or_else(|| {
                let softened = match ext {
                    LineState::Modified => LineState::Owned,
                    LineState::Exclusive => LineState::Shareable,
                    other => other,
                };
                table::preferred_bus(softened, event)
            })
            .unwrap_or_else(|| {
                panic!(
                    "bridge {}: error-condition parent event ({ext}, {event})",
                    self.id
                )
            });
        self.pending = Some((req.addr, ext, Some(reaction)));
        ResponseSignals {
            ch: reaction.ch,
            di: reaction.di,
            sl: reaction.sl,
            bs: false,
        }
    }

    fn supply_line(&mut self, addr: LineAddr) -> Option<&[u8]> {
        self.stats.supplied += 1;
        Some(self.authoritative_line(addr))
    }

    fn complete(&mut self, req: &TransactionRequest, obs: &BusObservation<'_>) {
        let Some((line, ext, reaction)) = self.pending.take() else {
            return;
        };
        if line != req.addr {
            return;
        }
        let event = BusEvent::from_signals(req.signals).expect("legal parent signals");

        // Propagate the parent event into the subtree.
        match event {
            // Another cluster fetched the line: internal copies lose
            // exclusivity (and internal owners demote), exactly as if the
            // read had happened on the internal bus.
            BusEvent::CacheRead => {
                if self.any_local_copy(line) {
                    self.forward(line, TransactionKind::Read, MasterSignals::CA);
                }
            }
            // Another cluster read-for-modify: every internal copy dies.
            BusEvent::CacheReadInvalidate => {
                if self.any_local_copy(line) {
                    self.stats.invalidations_in += 1;
                    self.forward(line, TransactionKind::AddressOnly, MasterSignals::CA_IM);
                }
            }
            // Another cluster broadcast a write: patch the mirror and update
            // (or invalidate) internal copies via an internal broadcast.
            BusEvent::CacheBroadcastWrite => {
                if let Some((offset, bytes)) = obs.write_data {
                    self.stats.updates_in += 1;
                    let kind = TransactionKind::Write { offset, bytes };
                    self.forward(line, kind, MasterSignals::IM_BC);
                }
            }
            // An uncached read (a degraded cluster, or parent-bus DMA) does
            // not disturb internal copies: the data came from this subtree's
            // authority (or memory) and nobody gained a cached copy.
            BusEvent::UncachedRead => {}
            // An uncached write from a degraded cluster: patch the mirror and
            // internal copies when the payload was broadcast our way, else
            // fall back to invalidating whatever we hold — the line changed
            // under us and our copies are stale.
            BusEvent::UncachedWrite | BusEvent::UncachedBroadcastWrite => {
                if let Some((offset, bytes)) = obs.write_data {
                    if self.any_local_copy(line) {
                        self.stats.updates_in += 1;
                        let kind = TransactionKind::Write { offset, bytes };
                        self.forward(line, kind, MasterSignals::IM_BC);
                    } else {
                        // Keep the mirror in step even with no cached copies.
                        self.mirror_mut().write_bytes(line, offset, bytes);
                    }
                } else if self.any_local_copy(line) {
                    self.stats.invalidations_in += 1;
                    self.forward(line, TransactionKind::AddressOnly, MasterSignals::CA_IM);
                }
            }
        }

        // A filtered-off miss forwarded the event but changes no tag: a
        // snooped transaction must never allocate an inclusion entry. The
        // tag the snoop read still stands (forwarding changes only what is
        // below this bridge), so a tag the reaction keeps needs no write.
        if let Some(reaction) = reaction {
            let new_ext = reaction.result.resolve(obs.ch_others);
            if new_ext != ext {
                self.set_cluster_state(line, new_ext);
            }
        }
    }

    fn retire(&mut self, salvage: bool) -> RetireReport {
        let mut dirty: Vec<LineAddr> = self
            .directory
            .iter()
            .filter(|(_, s)| s.is_owned())
            .map(|(&line, _)| line)
            .collect();
        dirty.sort_unstable(); // map order must not leak into bus traffic
        self.stats.dirty_at_retire += dirty.len() as u64;
        let report = if salvage {
            self.stats.salvaged_lines += dirty.len() as u64;
            RetireReport {
                salvaged: dirty
                    .iter()
                    .map(|&line| (line, self.authoritative_line(line).into()))
                    .collect(),
                lost: Vec::new(),
            }
        } else {
            self.stats.lost_lines += dirty.len() as u64;
            RetireReport {
                salvaged: Vec::new(),
                lost: dirty,
            }
        };
        // The subtree degrades to memory-direct operation: a dead bridge can
        // no longer keep its caches coherent with the outside world, so every
        // internal copy is cold-invalidated and the directories are dropped.
        self.degraded = true;
        self.clear_directory();
        cold_invalidate(&mut self.node);
        report
    }
}
