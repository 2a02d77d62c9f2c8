//! §6 future work, implemented: "how one might implement a system with
//! *multiple* buses and still maintain consistency."
//!
//! The construction exploits the paper's own recursion: **a cluster is one
//! big cache**. The machine is a *fabric tree*: leaf clusters are complete
//! single-bus machines (a [`Fabric`](crate::Fabric): caches, mirror memory, one Futurebus),
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
//! The tree is a [`System`] whose root is an interior [`FabricNode`]; the
//! recursion's base case, a leaf root, is the paper's single bus.
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

use futurebus::fault::InjectedFault;
use futurebus::{
    BusError, BusStats, Discipline, LineAddr, Phase, SparseMemory, TransactionRequest,
};
use moesi::{CacheKind, LineState, MasterSignals};
use std::fmt;

mod builder;
mod node;

pub use builder::{TreeBuilder, TreeSpec};
pub use node::{Bridge, BridgeStats, FabricNode, Segment};

use crate::checker::{cached_lines, Audited, Caches, Checker, Holders, LineRule, Violation};
use crate::system::{bridge_in, for_each_bridge, root_bridges_mut, System};

/// perfbench's name for [`System`]; the next benchmark change drops it.
pub type HierarchicalSystem = System;

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

/// The tree's shape, bridges and maintenance commands. On a single bus
/// there are no bridges: every list is empty and every bridge index is out
/// of range.
impl System {
    /// Number of root-level clusters (bridges on the root bus).
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.root_bridges().len()
    }

    /// The number of bus levels on the longest root-to-leaf path: 1 for a
    /// single bus, 2 for the classic two-level machine.
    #[must_use]
    pub fn depth(&self) -> usize {
        fn below(b: &Bridge) -> usize {
            match &b.node {
                FabricNode::Leaf(_) => 1,
                FabricNode::Interior(seg) => 1 + seg.children.iter().map(below).max().unwrap_or(0),
            }
        }
        1 + self.root_bridges().iter().map(below).max().unwrap_or(0)
    }

    /// A root-level cluster's bridge (directory, stats, fabric or segment).
    #[must_use]
    pub fn bridge(&self, cluster: usize) -> &Bridge {
        &self.root_bridges()[cluster]
    }

    /// Mutable access to a root-level cluster's bridge.
    pub fn bridge_mut(&mut self, cluster: usize) -> &mut Bridge {
        &mut root_bridges_mut(self.root_mut())[cluster]
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
        let mut bridge = &self.root_bridges()[path[0]];
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
    /// As [`bridge_at`](System::bridge_at).
    pub fn bridge_at_mut(&mut self, path: &[usize]) -> &mut Bridge {
        bridge_in(root_bridges_mut(self.root_mut()), path)
    }

    /// Every bridge in the tree, pre-order (each root child before its
    /// descendants). The position of a bridge in this list is its *flat
    /// index*, the currency of [`corrupt_inclusion_tag`] /
    /// [`scrub_inclusion_tag`]; for a two-level machine it equals the
    /// cluster index.
    ///
    /// [`corrupt_inclusion_tag`]: System::corrupt_inclusion_tag
    /// [`scrub_inclusion_tag`]: System::scrub_inclusion_tag
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
        walk(self.root_bridges(), &mut out);
        out
    }

    /// Root-level clusters whose bridge the watchdog has retired, ascending.
    #[must_use]
    pub fn degraded_clusters(&self) -> Vec<usize> {
        self.root_bridges()
            .iter()
            .filter(|b| b.degraded())
            .map(|b| b.id)
            .collect()
    }

    /// Sets the arbitration discipline of every bus in the machine: the
    /// root bus, every interior segment bus, and every leaf bus.
    pub fn set_discipline(&mut self, discipline: Discipline) {
        fn walk(node: &mut FabricNode, discipline: Discipline) {
            match node {
                FabricNode::Leaf(fabric) => fabric.bus_mut().set_discipline(discipline),
                FabricNode::Interior(seg) => {
                    seg.bus.set_discipline(discipline);
                    for b in &mut seg.children {
                        walk(&mut b.node, discipline);
                    }
                }
            }
        }
        walk(self.root_mut(), discipline);
    }

    /// Enables or disables the inclusion snoop filter on every bridge in
    /// the tree. See [`Bridge::set_snoop_filter`].
    pub fn set_snoop_filter(&mut self, on: bool) {
        for_each_bridge(self.root_mut(), &mut |b| b.set_snoop_filter(on));
    }

    /// Drains the error logs of every leaf bus, each entry prefixed with its
    /// cluster path in a tree (`cluster0`, or `cluster0.1` below the root).
    pub fn drain_bus_errors(&mut self) -> Vec<String> {
        fn walk(node: &mut FabricNode, label: &str, out: &mut Vec<String>) {
            match node {
                FabricNode::Leaf(fabric) => out.extend(
                    fabric
                        .drain_bus_errors()
                        .into_iter()
                        .map(|e| format!("cluster{label}: {e}")),
                ),
                FabricNode::Interior(seg) => {
                    for b in &mut seg.children {
                        let label = if label.is_empty() {
                            format!("{}", b.id)
                        } else {
                            format!("{label}.{}", b.id)
                        };
                        walk(&mut b.node, &label, out);
                    }
                }
            }
        }
        if let FabricNode::Leaf(fabric) = self.root_mut() {
            return fabric.drain_bus_errors();
        }
        let mut out = Vec::new();
        walk(self.root_mut(), "", &mut out);
        out
    }

    /// perfbench's name for [`bus_stats`](System::bus_stats).
    #[must_use]
    pub fn parent_stats(&self) -> &BusStats {
        self.bus_stats()
    }

    /// The cluster-level state a root bridge holds for `addr`.
    #[must_use]
    pub fn cluster_state_of(&self, cluster: usize, addr: u64) -> LineState {
        self.cluster_state_at(&[cluster], addr)
    }

    /// The cluster-level state the bridge at `path` holds for `addr`.
    #[must_use]
    pub fn cluster_state_at(&self, path: &[usize], addr: u64) -> LineState {
        self.bridge_at(path).cluster_state(self.line_addr(addr))
    }

    /// The root bus's segment.
    ///
    /// # Panics
    ///
    /// Panics on a single bus, which has no bridges.
    fn root_segment(&mut self) -> &mut Segment {
        match self.root_mut() {
            FabricNode::Interior(seg) => seg,
            FabricNode::Leaf(_) => panic!("a single bus has no bridges"),
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
    ///
    /// # Panics
    ///
    /// Panics on a single bus.
    pub fn retire_bridge(&mut self, cluster: usize, salvage: bool) {
        // The top line of the address space, never used by workloads.
        let top = self.line_addr(u64::MAX);
        let root = self.root_segment();
        root.bus.stall_module(cluster, salvage);
        let trigger = TransactionRequest::read(root.children.len(), top, MasterSignals::NONE);
        let (_, error) = root.bus.execute_or_degrade(&trigger, &mut root.children);
        let error = error.map(|e| ParentError::new(cluster, ParentTxnKind::DegradedRead, e, 0));
        self.log_parent_error(error);
    }

    /// Corrupts one resident inclusion tag, driven by the root fault plan:
    /// rolls the plan's stale-tag dice and, on a hit, flips a directory
    /// entry of a plan-chosen bridge (any bridge in the tree, interior
    /// bridges included) to a plan-chosen wrong state, recording an
    /// [`InjectedFault::StaleTag`]. Returns the victim `(flat_index, line)`
    /// — see [`bridges_preorder`](System::bridges_preorder); for a
    /// two-level machine the flat index is the cluster index — so the
    /// caller can run the scrubber. `None` when the machine has no bridges
    /// (without touching the plan), the dice miss, no plan is installed, or
    /// the chosen bridge's directory is empty.
    pub fn corrupt_inclusion_tag(&mut self) -> Option<(usize, LineAddr)> {
        let bridge_count = self.bridges_preorder().len();
        if bridge_count == 0 {
            return None;
        }
        let plan = self.bus_mut().fault_plan_mut()?;
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
        let plan = self.bus_mut().fault_plan_mut().expect("checked above");
        let line = keys[plan.gen_index(keys.len())];
        let from = self.bridges_preorder()[victim].cluster_state(line);
        let others: Vec<LineState> = LineState::ALL.into_iter().filter(|s| *s != from).collect();
        let plan = self.bus_mut().fault_plan_mut().expect("checked above");
        let to = others[plan.gen_index(others.len())];
        let mut index = 0;
        for_each_bridge(self.root_mut(), &mut |b| {
            if index == victim {
                b.set_cluster_state(line, to);
            }
            index += 1;
        });
        let record = InjectedFault::StaleTag {
            bridge: victim,
            addr: line,
            from: from.letter(),
            to: to.letter(),
        };
        self.bus_mut()
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
    /// [`corrupt_inclusion_tag`](System::corrupt_inclusion_tag).
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
        scrub_in_segment(self.root_segment(), bridge, &mut idx, line).expect("flat index in range")
    }
}

/// The root node audits the whole machine, its memory as true main memory.
impl Audited for FabricNode {
    fn drain_changed_lines(&mut self, out: &mut Vec<u64>) -> bool {
        self.drain_changes(out)
    }

    /// A single bus's rule is [`Fabric`](crate::Fabric)'s. A tree's is every invariant for
    /// one line, in one descent that reads each cache entry and each
    /// inclusion tag once:
    ///
    /// 1. the per-line rule ([`LineRule`]) on every segment, the root first
    ///    and then in pre-order: a leaf's holders are its caches, an interior
    ///    segment's its child bridges. A segment's memory is read only while
    ///    the tag above it is valid; the root's is true main memory;
    /// 2. the inclusion invariant the snoop filter is sound against, at
    ///    every bridge in pre-order.
    fn check_line(&self, ck: &Checker, line: u64) -> Result<(), Violation> {
        let seg = match self {
            FabricNode::Leaf(fabric) => return fabric.check_line(ck, line),
            FabricNode::Interior(seg) => seg,
        };
        let (golden, written) = ck.golden_line(line);
        let tree = LineCheck { ck, line, golden }.segment(seg, None, true);
        if !written && !tree.tracked {
            return Ok(());
        }
        tree.rules.and(tree.holes)
    }

    /// Every line in a directory or cached anywhere.
    fn resident_lines(&self, out: &mut Vec<u64>) {
        match self {
            FabricNode::Leaf(fabric) => cached_lines(fabric.controllers(), out),
            FabricNode::Interior(seg) => {
                for bridge in &seg.children {
                    out.extend(bridge.directory.keys().copied());
                    bridge.node.resident_lines(out);
                }
            }
        }
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

/// The oracle, one line and its golden bytes, for one descent.
struct LineCheck<'c> {
    ck: &'c Checker,
    line: u64,
    golden: &'c [u8],
}

/// What the check of one segment's subtree learns for one line.
struct Subtree<'a> {
    /// Whether the line is resident here or below: a tag, or a cache
    /// holding it in any state.
    tracked: bool,
    /// Whether a cache here or below holds a valid copy — ground truth, not
    /// tags.
    holds_valid: bool,
    /// The subtree's authoritative data ([`Bridge::authoritative_line`]).
    authority: Authority<'a>,
    /// The rule's verdict on every segment of the subtree, in pre-order.
    rules: Result<(), Violation>,
    /// The first inclusion hole among the subtree's bridges, in pre-order.
    holes: Result<(), Violation>,
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

impl LineCheck<'_> {
    /// Checks the interior segment `seg`, below the bridge labelled `label`
    /// (`None` at the root): the rule over its child bridges, their tags
    /// the holders' states and their subtrees' authorities the holders'
    /// data, with the segment memory when `live`.
    fn segment<'a>(&self, seg: &'a Segment, label: Option<&Label<'_>>, live: bool) -> Subtree<'a> {
        let bridges = Bridges { seg, parent: label };
        let mut rule = LineRule::new(self.line, self.golden);
        let (mut holds_valid, mut owner, mut below, mut holes) = (false, None, Ok(()), Ok(()));
        for (index, child) in seg.children.iter().enumerate() {
            let tag = child.cluster_state(self.line);
            let child_label = bridges.label(index);
            let sub = self.node(&child.node, &child_label, tag.is_valid());
            if sub.tracked || tag.is_valid() {
                rule.add(index, tag, CacheKind::CopyBack, || {
                    sub.authority.data(self.line)
                });
            }
            if tag.is_owned() {
                owner.get_or_insert(sub.authority);
            }
            holds_valid |= sub.holds_valid;
            if below.is_ok() {
                below = sub.rules;
            }
            if holes.is_ok() {
                // No valid copy cached below an Invalid tag.
                holes = if !tag.is_valid() && sub.holds_valid {
                    let bridge = child_label.to_string();
                    Err(Violation::InclusionHole {
                        addr: self.line,
                        bridge,
                    })
                } else {
                    sub.holes
                };
            }
        }
        let memory = seg.bus.memory();
        Subtree {
            tracked: rule.resident,
            holds_valid,
            authority: owner.unwrap_or(Authority::Mirror(memory)),
            rules: rule
                .verdict(self.ck, live.then_some(memory), &bridges)
                .and(below),
            holes,
        }
    }

    /// Checks the segment below the bridge labelled `label`, whose tag is
    /// valid when `live`. A leaf is the flat bus's one-segment case: its
    /// caches are the holders and its mirror the memory.
    fn node<'a>(&self, node: &'a FabricNode, label: &Label<'_>, live: bool) -> Subtree<'a> {
        let fabric = match node {
            FabricNode::Interior(seg) => return self.segment(seg, Some(label), live),
            FabricNode::Leaf(fabric) => fabric,
        };
        let memory = fabric.bus().memory();
        let mut rule = LineRule::new(self.line, self.golden);
        let owned = rule.add_caches(fabric.controllers());
        let caches = Caches {
            controllers: fabric.controllers(),
            bridge: Some(label),
        };
        Subtree {
            tracked: rule.resident,
            holds_valid: rule.holders > 0,
            authority: owned.map_or(Authority::Mirror(memory), Authority::Cache),
            rules: rule.verdict(self.ck, live.then_some(memory), &caches),
            holes: Ok(()),
        }
    }
}

/// A segment's child bridges as the holders of a line: each named by its
/// label, and its data, the subtree's authority, as `{label} (authoritative)`.
struct Bridges<'a> {
    seg: &'a Segment,
    parent: Option<&'a Label<'a>>,
}

impl Bridges<'_> {
    fn label(&self, index: usize) -> Label<'_> {
        Label {
            parent: self.parent,
            index,
        }
    }
}

impl Holders for Bridges<'_> {
    fn states(&self, line: u64) -> impl Iterator<Item = LineState> {
        self.seg.children.iter().map(move |b| b.cluster_state(line))
    }

    fn name(&self, index: usize) -> String {
        self.label(index).to_string()
    }

    fn data_name(&self, index: usize) -> String {
        format!("{} (authoritative)", self.name(index))
    }
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
    use crate::workload::RefStream;
    use cache_array::{CacheConfig, ReplacementKind};
    use moesi::protocols::moesi_preferred;

    fn cfg() -> CacheConfig {
        CacheConfig::new(1024, 32, 2, ReplacementKind::Lru)
    }

    fn moesi_leaf(cpus: usize) -> TreeSpec {
        (0..cpus).fold(TreeSpec::leaf(), |leaf, _| {
            leaf.cache(Box::new(moesi_preferred()), cfg())
        })
    }

    fn two_by_two() -> System {
        TreeBuilder::new(32)
            .child(moesi_leaf(2))
            .child(moesi_leaf(2))
            .checking(true)
            .build()
    }

    /// 2 root subtrees × 2 clusters × 2 cpus: a depth-3 fabric tree.
    fn deep_two_two_two() -> System {
        TreeBuilder::uniform(32, 2, 3, 2, 2, |_, _| {
            (
                Box::new(moesi_preferred()) as Box<dyn moesi::Protocol + Send>,
                Some(cfg()),
            )
        })
        .checking(true)
        .build()
    }

    #[test]
    fn cross_cluster_read_after_write() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[7; 4]);
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
        let v = sys.read_at(&[1], 0, 0x1000, 4);
        assert_eq!(v, vec![7; 4]);
        // The owning cluster demotes to O; the reader cluster is S.
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Owned);
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Shareable);
        assert_eq!(sys.bridge(0).stats().supplied, 1);
    }

    #[test]
    fn intra_cluster_sharing_stays_off_the_bus() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[1; 4]);
        let parent_before = sys.bus_stats().transactions;
        // Heavy sharing *within* cluster 0: no parent traffic at all.
        for i in 0..20u32 {
            let cpu = (i % 2) as usize;
            sys.write_at(&[0], cpu, 0x1000, &i.to_le_bytes());
            let _ = sys.read_at(&[0], 1 - cpu, 0x1000, 4);
        }
        assert_eq!(
            sys.bus_stats().transactions,
            parent_before,
            "intra-cluster traffic must not escalate"
        );
    }

    #[test]
    fn cross_cluster_write_broadcasts_and_updates() {
        let mut sys = two_by_two();
        let _ = sys.read_at(&[0], 0, 0x1000, 4);
        let _ = sys.read_at(&[1], 0, 0x1000, 4); // both clusters S
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Shareable);
        sys.write_at(&[0], 0, 0x1000, &[9; 4]);
        // Cluster 0 broadcast at parent level and became the owner.
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Owned);
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Shareable);
        assert_eq!(sys.bridge(1).stats().updates_in, 1);
        // Cluster 1's copy was updated in place — reading is a local hit.
        let parent_before = sys.bus_stats().transactions;
        assert_eq!(sys.read_at(&[1], 0, 0x1000, 4), vec![9; 4]);
        assert_eq!(sys.bus_stats().transactions, parent_before);
    }

    #[test]
    fn cluster_level_exclusive_upgrade_is_silent() {
        let mut sys = two_by_two();
        let _ = sys.read_at(&[0], 0, 0x1000, 4); // only cluster 0: ext E
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Exclusive);
        let parent_before = sys.bus_stats().transactions;
        sys.write_at(&[0], 0, 0x1000, &[3; 4]);
        assert_eq!(sys.bus_stats().transactions, parent_before, "silent E->M");
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
    }

    #[test]
    fn write_miss_invalidates_other_clusters() {
        let mut sys = two_by_two();
        let _ = sys.read_at(&[1], 0, 0x1000, 4);
        let _ = sys.read_at(&[1], 1, 0x1000, 4); // cluster 1 shares internally
        sys.write_at(&[0], 0, 0x1000, &[5; 4]); // cluster 0: RWITM at parent level
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Invalid);
        assert_eq!(sys.state_of(2, 0x1000), LineState::Invalid);
        assert_eq!(sys.state_of(3, 0x1000), LineState::Invalid);
        assert_eq!(sys.bridge(1).stats().invalidations_in, 1);
        assert_eq!(sys.read_at(&[1], 1, 0x1000, 4), vec![5; 4]);
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
            sys.write_at(&[cluster], 0, 0x2000, &round.to_le_bytes());
            for reader in 0..3 {
                assert_eq!(
                    sys.read_at(&[reader], 0, 0x2000, 4),
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
        assert!(sys.bus_stats().transactions > 0);
    }

    #[test]
    fn heterogeneous_clusters_work() {
        use moesi::protocols::{dragon, non_caching, write_through};
        let mut sys = TreeBuilder::new(32)
            .child(
                TreeSpec::leaf()
                    .cache(Box::new(moesi_preferred()), cfg())
                    .cache(Box::new(write_through()), cfg()),
            )
            .child(
                TreeSpec::leaf()
                    .cache(Box::new(dragon()), cfg())
                    .uncached(Box::new(non_caching())),
            )
            .checking(true)
            .build();
        for i in 0..30u32 {
            let cluster = (i % 2) as usize;
            let cpu = ((i / 2) % 2) as usize;
            let addr = 0x1000 + u64::from(i % 4) * 32;
            if i % 3 == 0 {
                sys.write_at(&[cluster], cpu, addr, &i.to_le_bytes());
            } else {
                let _ = sys.read_at(&[cluster], cpu, addr, 4);
            }
        }
        sys.verify().expect("consistent");
    }

    #[test]
    fn global_sync_makes_parent_memory_current() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[1; 4]);
        sys.write_at(&[1], 1, 0x2000, &[2; 4]);
        // Parent memory has neither value yet (cluster-level M).
        assert_eq!(sys.memory_peek(0x1000, 4), vec![0; 4]);
        let pushed = sys.make_all_consistent();
        assert_eq!(pushed, 2);
        assert_eq!(sys.memory_peek(0x1000, 4), vec![1; 4]);
        assert_eq!(sys.memory_peek(0x2000, 4), vec![2; 4]);
        // No cluster owns anything any more.
        for c in 0..2 {
            assert!(!sys.cluster_state_of(c, 0x1000).is_owned());
            assert!(!sys.cluster_state_of(c, 0x2000).is_owned());
        }
        assert_eq!(sys.make_all_consistent(), 0, "idempotent");
        // The clusters kept readable copies: no parent traffic on re-read.
        let before = sys.bus_stats().transactions;
        assert_eq!(sys.read_at(&[0], 0, 0x1000, 4), vec![1; 4]);
        assert_eq!(sys.bus_stats().transactions, before);
    }

    /// A parent bus that errors every transaction: a full-rate abort storm
    /// outlasts the 16-round retry policy, so every execute() returns
    /// `TooManyRetries` deterministically.
    fn break_parent_bus(sys: &mut System) {
        use futurebus::fault::{FaultConfig, FaultPlan};
        sys.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
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
        let v = sys.read_at(&[1], 0, 0x1000, 4);
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
        let again = sys.read_at(&[1], 0, 0x1000, 4);
        assert_eq!(again, vec![0; 4]);
    }

    #[test]
    fn faulted_parent_push_still_syncs_parent_memory() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[1; 4]);
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Modified);
        break_parent_bus(&mut sys);
        // The consistency command's parent write-back errors; the push is
        // applied to parent memory directly so the command still delivers
        // its contract (parent memory holds the shared image).
        let pushed = sys.make_all_consistent();
        assert_eq!(pushed, 1);
        assert_eq!(sys.memory_peek(0x1000, 4), vec![1; 4]);
        assert_eq!(sys.parent_errors().len(), 1);
        assert_eq!(sys.parent_errors()[0].txn, ParentTxnKind::Push);
        assert_eq!(sys.parent_errors()[0].cluster, 0);
        assert_eq!(sys.cluster_state_of(0, 0x1000), LineState::Shareable);
    }

    #[test]
    fn bridge_kill_loses_dirty_lines_and_invalidates_survivors() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[9; 4]); // cluster 0: M
        let _ = sys.read_at(&[1], 0, 0x1000, 4); // cluster 0: O, cluster 1: S
        sys.write_at(&[0], 0, 0x2000, &[8; 4]); // cluster 0: M, nobody else
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
        assert_eq!(sys.bus().retired(), vec![0]);
        // Cluster 1's surviving S copy of the lost line was invalidated by
        // the watchdog's synthetic invalidate round: no stale data outlives
        // the owner.
        assert_eq!(sys.cluster_state_of(1, 0x1000), LineState::Invalid);
        assert_eq!(sys.state_of(2, 0x1000), LineState::Invalid);
        // Reconcile the golden image to the reported post-loss truth, then
        // the oracle is satisfied again.
        for line in [0x1000u64, 0x2000] {
            let mem = sys.memory_peek(line, 32);
            sys.checker_mut().unwrap().record_write(line, &mem);
        }
        sys.verify().expect("reported loss reconciled");
    }

    #[test]
    fn bridge_stall_salvages_dirty_lines_to_parent_memory() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[5; 4]);
        sys.write_at(&[0], 1, 0x2000, &[6; 4]);
        assert_eq!(sys.memory_peek(0x1000, 4), vec![0; 4]);
        sys.retire_bridge(0, true);
        let stats = *sys.bridge(0).stats();
        assert_eq!(stats.dirty_at_retire, 2);
        assert_eq!(stats.salvaged_lines, 2);
        assert_eq!(stats.lost_lines, 0);
        // The synthetic push rounds landed the dirty data in parent memory:
        // nothing was lost, so the oracle stays green with no reconciliation.
        assert_eq!(sys.memory_peek(0x1000, 4), vec![5; 4]);
        assert_eq!(sys.memory_peek(0x2000, 4), vec![6; 4]);
        sys.verify().expect("salvage preserves the golden image");
    }

    #[test]
    fn degraded_cluster_keeps_running_memory_direct() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[5; 4]);
        sys.retire_bridge(0, true);
        // The degraded cluster still reads its old data (now in parent
        // memory) and its writes stay globally visible.
        assert_eq!(sys.read_at(&[0], 0, 0x1000, 4), vec![5; 4]);
        sys.write_at(&[0], 0, 0x1000, &[7; 4]);
        assert_eq!(sys.read_at(&[1], 0, 0x1000, 4), vec![7; 4]);
        assert!(sys.bridge(0).stats().degraded_accesses >= 2);
        sys.verify().expect("degraded mode stays consistent");
    }

    #[test]
    fn degraded_write_updates_a_live_sibling_owner() {
        let mut sys = two_by_two();
        sys.write_at(&[1], 0, 0x3000, &[3; 4]); // cluster 1 owns the line (M)
        sys.retire_bridge(0, true);
        // Cluster 0's uncached broadcast write reaches cluster 1's copy via
        // SL-connection, and cluster 1's next read sees it with no extra
        // parent traffic.
        sys.write_at(&[0], 0, 0x3000, &[4; 4]);
        assert_eq!(sys.read_at(&[1], 0, 0x3000, 4), vec![4; 4]);
        // And a degraded read of a sibling-owned dirty line is served by
        // intervention, not stale memory.
        sys.write_at(&[1], 0, 0x3000, &[5; 4]);
        assert_eq!(sys.read_at(&[0], 0, 0x3000, 4), vec![5; 4]);
        sys.verify().expect("consistent across degraded traffic");
    }

    #[test]
    fn stale_tag_corruption_is_injected_and_scrubbed() {
        use futurebus::fault::{FaultConfig, FaultPlan};
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[1; 4]);
        let _ = sys.read_at(&[1], 0, 0x1000, 4); // cluster 0: O, cluster 1: S
        sys.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
            stale_tag_rate: 1.0,
            ..FaultConfig::default()
        }));
        let (cluster, line) = sys.corrupt_inclusion_tag().expect("rate 1.0 must fire");
        let record = sys.bus().fault_plan().unwrap().records()[0].clone();
        assert!(
            matches!(record.fault, InjectedFault::StaleTag { .. }),
            "{record:?}"
        );
        // The scrubber reconstructs a sound tag from evidence alone, and the
        // oracle is green again.
        let restored = sys.scrub_inclusion_tag(cluster, line);
        assert!(restored.is_valid(), "a resident line must come back valid");
        sys.verify().expect("scrubbed hierarchy is consistent");
        assert_eq!(sys.read_at(&[1], 0, 0x1000, 4), vec![1; 4]);
        assert_eq!(sys.read_at(&[0], 0, 0x1000, 4), vec![1; 4]);
    }

    #[test]
    fn scrub_reconstructs_each_legitimate_tag_soundly() {
        let mut sys = two_by_two();
        sys.write_at(&[0], 0, 0x1000, &[1; 4]); // cluster 0: M
        let _ = sys.read_at(&[1], 0, 0x2000, 4); // cluster 1: E
        let _ = sys.read_at(&[0], 0, 0x3000, 4);
        let _ = sys.read_at(&[1], 0, 0x3000, 4); // both S
        sys.write_at(&[0], 0, 0x4000, &[2; 4]);
        let _ = sys.read_at(&[1], 0, 0x4000, 4); // cluster 0: O, cluster 1: S
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
        assert_eq!(sys.bus().memory().peek(line), &golden[..], "root memory");
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
        let root = sys.bus().stats();
        assert!(root.broadcasts > 0 && root.sl_updates > 0, "{root:?}");
        sys.verify().expect("consistent");
    }

    #[test]
    fn deep_sibling_sharing_stays_off_the_root_bus() {
        let mut sys = deep_two_two_two();
        sys.write_at(&[0, 0], 0, 0x2000, &[1; 4]);
        let _ = sys.read_at(&[0, 1], 0, 0x2000, 4);
        let root_before = sys.bus_stats().transactions;
        // Sharing between the two clusters *inside* subtree 0 never
        // escalates to the root bus.
        for i in 0..10u32 {
            sys.write_at(&[0, (i % 2) as usize], 0, 0x2000, &i.to_le_bytes());
            let _ = sys.read_at(&[0, 1 - (i % 2) as usize], 1, 0x2000, 4);
        }
        assert_eq!(
            sys.bus_stats().transactions,
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
                Box::new(moesi_preferred()) as Box<dyn moesi::Protocol + Send>,
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
        assert_eq!(sys.memory_peek(0x1000, 4), vec![0; 4]);
        // Retire the interior bridge fronting subtree 0: both dirty lines —
        // held in *different* leaf clusters below it — are salvaged.
        sys.retire_bridge(0, true);
        let stats = *sys.bridge(0).stats();
        assert_eq!(stats.dirty_at_retire, 2);
        assert_eq!(stats.salvaged_lines, 2);
        assert_eq!(sys.memory_peek(0x1000, 4), vec![5; 4]);
        assert_eq!(sys.memory_peek(0x2000, 4), vec![6; 4]);
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
        let pushed = sys.make_all_consistent();
        assert_eq!(pushed, 2);
        assert_eq!(sys.memory_peek(0x1000, 4), vec![1; 4]);
        assert_eq!(sys.memory_peek(0x2000, 4), vec![2; 4]);
        for b in sys.bridges_preorder() {
            assert!(!b.cluster_state(0x1000).is_owned());
            assert!(!b.cluster_state(0x2000).is_owned());
        }
        assert_eq!(sys.make_all_consistent(), 0, "idempotent");
        sys.verify().expect("post-sync tree consistent");
    }

    #[test]
    fn a_timed_run_needs_one_bus() {
        let one_cluster = || TreeBuilder::new(32).child(moesi_leaf(2)).build();
        for mut sys in [two_by_two(), one_cluster()] {
            let mut streams: Vec<Box<dyn RefStream + Send>> = (0..sys.nodes())
                .map(|_| Box::new(crate::PingPong::new(0, 0, 32)) as Box<dyn RefStream + Send>)
                .collect();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sys.run_timed(&mut streams, 1, 1)
            }))
            .expect_err("a machine with bridges runs untimed");
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .expect("a message");
            assert!(msg.contains("fabric trees run untimed"), "{msg}");
        }
    }

    #[test]
    fn per_segment_disciplines_charge_arbitration() {
        use futurebus::Phase;
        let run = |discipline: Discipline| {
            let mut sys = TreeBuilder::uniform(32, 2, 3, 2, 2, |_, _| {
                (
                    Box::new(moesi_preferred()) as Box<dyn moesi::Protocol + Send>,
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
            sys.bus_stats().phase_ns[Phase::Arbitrate as usize]
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
    fn plant(sys: &mut System, leaf: usize, cpu: usize, state: LineState, data: u8) {
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
                owners: vec!["cluster1/cpu0:MOESI".into(), "cluster1/cpu1:MOESI".into()],
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
        sys.bus_mut().memory_mut().write_line(0x100, &[7; 32]);
        assert_eq!(sys.verify(), Err(Violation::StaleMemory { addr: 0x100 }));

        // The root segment's invariants come before every bridge's: stale
        // root memory is reported ahead of cluster 0's inclusion hole.
        let mut sys = two_by_two();
        plant(&mut sys, 0, 0, LineState::Shareable, 0);
        sys.bus_mut().memory_mut().write_line(0x100, &[7; 32]);
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

    // The pins below fail on a per-line audit that checks a leaf only for
    // stale copies and local owners, and a segment's authority only at its
    // owning child.

    #[test]
    fn audit_pins_a_stale_mirror_under_a_live_exclusive_copy() {
        // The E copy's cluster holds the line unowned, so the stale mirror
        // is the subtree's authority; the next local read miss returns it.
        let mut sys = two_by_two();
        let _ = sys.read_at(&[1], 0, 0x100, 4);
        assert_eq!(sys.state_of(2, 0x100), LineState::Exclusive);
        sys.leaf_fabric_mut(1)
            .bus_mut()
            .memory_mut()
            .write_line(0x100, &[7; 32]);
        assert_eq!(
            sys.verify(),
            Err(Violation::StaleCopy {
                addr: 0x100,
                holder: "cluster1 (authoritative)".into(),
                state: LineState::Exclusive,
            })
        );
    }

    #[test]
    #[should_panic(expected = "cpu3 read 0x100")]
    fn a_read_mismatch_names_the_processor_by_its_global_lane() {
        let mut sys = two_by_two();
        let _ = sys.read_at(&[1], 0, 0x100, 4);
        sys.leaf_fabric_mut(1)
            .bus_mut()
            .memory_mut()
            .write_line(0x100, &[7; 32]);
        let _ = sys.read_at(&[1], 1, 0x100, 4);
    }

    #[test]
    fn audit_pins_exclusivity_inside_a_leaf() {
        let mut sys = two_by_two();
        sys.bridge_mut(1)
            .set_cluster_state(0x100, LineState::Exclusive);
        plant(&mut sys, 1, 0, LineState::Exclusive, 0);
        plant(&mut sys, 1, 1, LineState::Shareable, 0);
        assert_eq!(
            sys.verify(),
            Err(Violation::ExclusivityViolated {
                addr: 0x100,
                exclusive_holder: "cluster1/cpu0:MOESI".into(),
                other_holder: "cluster1/cpu1:MOESI".into(),
            })
        );
    }

    #[test]
    fn audit_pins_a_write_through_owner_in_a_leaf() {
        let mut sys = TreeBuilder::new(32)
            .child(moesi_leaf(2))
            .child(moesi_leaf(1).cache(Box::new(moesi::protocols::write_through()), cfg()))
            .checking(true)
            .build();
        sys.bridge_mut(1).set_cluster_state(0x100, LineState::Owned);
        plant(&mut sys, 1, 1, LineState::Owned, 0);
        assert_eq!(
            sys.verify(),
            Err(Violation::IllegalStateForKind {
                addr: 0x100,
                holder: "cluster1/cpu1:write-through".into(),
                state: LineState::Owned,
            })
        );
    }

    #[test]
    fn audit_pins_a_stale_mirror_under_a_valid_non_owning_bridge() {
        let mut sys = two_by_two();
        sys.bridge_mut(1)
            .set_cluster_state(0x100, LineState::Shareable);
        sys.leaf_fabric_mut(1)
            .bus_mut()
            .memory_mut()
            .write_line(0x100, &[7; 32]);
        assert_eq!(
            sys.verify(),
            Err(Violation::StaleCopy {
                addr: 0x100,
                holder: "cluster1 (authoritative)".into(),
                state: LineState::Shareable,
            })
        );
    }

    #[test]
    fn audit_pins_an_exclusive_bridge_whose_authority_differs_from_memory() {
        // The subtree's authority (its mirror) is golden, the root memory
        // under it is not: rule 5 comes before the default-owner rule.
        let mut sys = two_by_two();
        sys.bridge_mut(1)
            .set_cluster_state(0x100, LineState::Exclusive);
        sys.bus_mut().memory_mut().write_line(0x100, &[7; 32]);
        assert_eq!(
            sys.verify(),
            Err(Violation::ExclusiveUnmodifiedDiffers {
                addr: 0x100,
                holder: "cluster1 (authoritative)".into(),
            })
        );
    }
}
