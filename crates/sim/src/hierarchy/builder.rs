//! The fabric-tree builder: [`TreeBuilder`] and the [`TreeSpec`] subtree
//! shapes it assembles.

use cache_array::CacheConfig;
use futurebus::{Discipline, TimingConfig};
use moesi::{CacheKind, Protocol};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use super::node::{Bridge, FabricNode, Segment};
use super::HierarchicalSystem;
use crate::checker::Checker;
use crate::controller::CacheController;
use crate::fabric::Fabric;

/// One node specification: a protocol and (for caching nodes) its geometry.
type NodeSpec = (Box<dyn Protocol + Send>, Option<CacheConfig>);

enum TreeSpecKind {
    Leaf(Vec<NodeSpec>),
    Interior(Vec<TreeSpec>),
}

/// The shape of one subtree handed to [`TreeBuilder::child`]: either a leaf
/// cluster of cache/uncached nodes, or an interior segment of further
/// subtrees.
pub struct TreeSpec {
    kind: TreeSpecKind,
}

impl std::fmt::Debug for TreeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TreeSpecKind::Leaf(nodes) => write!(f, "TreeSpec::Leaf({} nodes)", nodes.len()),
            TreeSpecKind::Interior(children) => {
                write!(f, "TreeSpec::Interior({} children)", children.len())
            }
        }
    }
}

impl TreeSpec {
    /// Starts an empty leaf cluster; add nodes with [`cache`] / [`uncached`].
    ///
    /// [`cache`]: TreeSpec::cache
    /// [`uncached`]: TreeSpec::uncached
    #[must_use]
    pub fn leaf() -> Self {
        TreeSpec {
            kind: TreeSpecKind::Leaf(Vec::new()),
        }
    }

    /// An interior segment whose modules are the given subtrees.
    #[must_use]
    pub fn interior(children: Vec<TreeSpec>) -> Self {
        TreeSpec {
            kind: TreeSpecKind::Interior(children),
        }
    }

    /// Adds a caching node to this leaf cluster.
    ///
    /// # Panics
    ///
    /// Panics when called on an interior spec or with a non-caching
    /// protocol.
    #[must_use]
    pub fn cache(mut self, protocol: Box<dyn Protocol + Send>, config: CacheConfig) -> Self {
        assert_ne!(protocol.kind(), CacheKind::NonCaching);
        match &mut self.kind {
            TreeSpecKind::Leaf(nodes) => nodes.push((protocol, Some(config))),
            TreeSpecKind::Interior(_) => panic!("cache nodes belong to leaf clusters"),
        }
        self
    }

    /// Adds a non-caching node to this leaf cluster.
    ///
    /// # Panics
    ///
    /// Panics when called on an interior spec or with a caching protocol.
    #[must_use]
    pub fn uncached(mut self, protocol: Box<dyn Protocol + Send>) -> Self {
        assert_eq!(protocol.kind(), CacheKind::NonCaching);
        match &mut self.kind {
            TreeSpecKind::Leaf(nodes) => nodes.push((protocol, None)),
            TreeSpecKind::Interior(_) => panic!("cache nodes belong to leaf clusters"),
        }
        self
    }
}

/// Builds a [`HierarchicalSystem`] of arbitrary depth and fan-out: a fabric
/// tree whose interior segments are buses of bridges and whose leaves are
/// clusters of caches.
///
/// # Examples
///
/// A three-level machine — two interior segments of two clusters each:
///
/// ```
/// use cache_array::CacheConfig;
/// use moesi::protocols::MoesiPreferred;
/// use mpsim::hierarchy::{TreeBuilder, TreeSpec};
///
/// let leaf = || {
///     TreeSpec::leaf()
///         .cache(Box::new(MoesiPreferred::new()), CacheConfig::small())
///         .cache(Box::new(MoesiPreferred::new()), CacheConfig::small())
/// };
/// let mut sys = TreeBuilder::new(32)
///     .child(TreeSpec::interior(vec![leaf(), leaf()]))
///     .child(TreeSpec::interior(vec![leaf(), leaf()]))
///     .checking(true)
///     .build();
///
/// sys.write_at(&[0, 1], 0, 0x1000, &[1, 2, 3, 4]);
/// assert_eq!(sys.read_at(&[1, 0], 1, 0x1000, 4), vec![1, 2, 3, 4]);
/// ```
#[derive(Debug)]
pub struct TreeBuilder {
    line_size: usize,
    parent_timing: TimingConfig,
    cluster_timing: TimingConfig,
    checking: bool,
    seed: u64,
    discipline: Discipline,
    filter: bool,
    children: Vec<TreeSpec>,
}

impl TreeBuilder {
    /// Starts a builder with the system-wide (§5.1) line size.
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        TreeBuilder {
            line_size,
            parent_timing: TimingConfig::default(),
            cluster_timing: TimingConfig::default(),
            checking: false,
            seed: 0xB0B,
            discipline: Discipline::Priority,
            filter: true,
            children: Vec::new(),
        }
    }

    /// Sets the timing of the root bus and every interior segment bus.
    #[must_use]
    pub fn parent_timing(mut self, timing: TimingConfig) -> Self {
        self.parent_timing = timing;
        self
    }

    /// Sets the leaf cluster-bus timing.
    #[must_use]
    pub fn cluster_timing(mut self, timing: TimingConfig) -> Self {
        self.cluster_timing = timing;
        self
    }

    /// Enables the global consistency oracle.
    #[must_use]
    pub fn checking(mut self, on: bool) -> Self {
        self.checking = on;
        self
    }

    /// Seeds replacement RNGs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the arbitration discipline of every bus in the tree
    /// (default: [`Discipline::Priority`]).
    #[must_use]
    pub fn discipline(mut self, discipline: Discipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Enables or disables the inclusion snoop filter on every bridge
    /// (default: on). See [`Bridge::set_snoop_filter`](super::Bridge::set_snoop_filter).
    #[must_use]
    pub fn snoop_filter(mut self, on: bool) -> Self {
        self.filter = on;
        self
    }

    /// Adds a subtree to the root bus.
    #[must_use]
    pub fn child(mut self, spec: TreeSpec) -> Self {
        self.children.push(spec);
        self
    }

    /// A uniform tree: `clusters` subtrees on the root bus, each fanning out
    /// by `fanout` per interior level until `depth` bus levels exist in
    /// total (`depth == 2` is the classic two-level machine: the root bus
    /// plus leaf clusters), with `cpus` nodes per leaf produced by
    /// `mk(leaf, cpu)`.
    ///
    /// # Panics
    ///
    /// Panics when `depth < 2`, or `clusters`, `fanout`, or `cpus` is zero.
    #[must_use]
    pub fn uniform<F>(
        line_size: usize,
        clusters: usize,
        depth: usize,
        fanout: usize,
        cpus: usize,
        mut mk: F,
    ) -> Self
    where
        F: FnMut(usize, usize) -> NodeSpec,
    {
        assert!(depth >= 2, "a hierarchy has at least two bus levels");
        assert!(clusters > 0, "a hierarchy needs clusters");
        assert!(fanout > 0, "fan-out must be at least 1");
        assert!(cpus > 0, "a leaf cluster needs nodes");
        fn subtree<F>(
            levels: usize,
            fanout: usize,
            cpus: usize,
            leaf: &mut usize,
            mk: &mut F,
        ) -> TreeSpec
        where
            F: FnMut(usize, usize) -> NodeSpec,
        {
            if levels == 1 {
                let mut spec = TreeSpec::leaf();
                let id = *leaf;
                *leaf += 1;
                for cpu in 0..cpus {
                    let (protocol, cfg) = mk(id, cpu);
                    spec = match cfg {
                        Some(cfg) => spec.cache(protocol, cfg),
                        None => spec.uncached(protocol),
                    };
                }
                spec
            } else {
                TreeSpec::interior(
                    (0..fanout)
                        .map(|_| subtree(levels - 1, fanout, cpus, leaf, mk))
                        .collect(),
                )
            }
        }
        let mut leaf = 0usize;
        let mut b = TreeBuilder::new(line_size);
        for _ in 0..clusters {
            let spec = subtree(depth - 1, fanout, cpus, &mut leaf, &mut mk);
            b = b.child(spec);
        }
        b
    }

    /// Assembles the fabric tree.
    ///
    /// # Panics
    ///
    /// Panics when the tree has no children, a cluster is empty, or a cache
    /// config's line size mismatches the system line size (§5.1).
    #[must_use]
    pub fn build(self) -> HierarchicalSystem {
        let TreeBuilder {
            line_size,
            parent_timing,
            cluster_timing,
            checking,
            seed,
            discipline,
            filter,
            children,
        } = self;
        assert!(!children.is_empty(), "a hierarchy needs clusters");

        #[allow(clippy::too_many_arguments)]
        fn build_bridge(
            spec: TreeSpec,
            id: usize,
            level: usize,
            leaf: &mut usize,
            line_size: usize,
            parent_timing: TimingConfig,
            cluster_timing: TimingConfig,
            seed: u64,
            filter: bool,
            forward_logged: &Arc<AtomicBool>,
        ) -> Bridge {
            let node = match spec.kind {
                TreeSpecKind::Leaf(nodes) => {
                    assert!(!nodes.is_empty(), "cluster {id} is empty");
                    let leaf_id = *leaf;
                    *leaf += 1;
                    let controllers: Vec<CacheController> = nodes
                        .into_iter()
                        .enumerate()
                        .map(|(cpu, (protocol, cfg))| {
                            if let Some(cfg) = &cfg {
                                assert_eq!(
                                    cfg.line_size, line_size,
                                    "§5.1: all caches must use the system line size"
                                );
                            }
                            CacheController::new(
                                cpu,
                                protocol,
                                cfg,
                                seed.wrapping_add((leaf_id as u64) << 16)
                                    .wrapping_add(cpu as u64),
                            )
                        })
                        .collect();
                    FabricNode::Leaf(Fabric::new(line_size, cluster_timing, controllers))
                }
                TreeSpecKind::Interior(specs) => {
                    assert!(!specs.is_empty(), "interior segment {id} is empty");
                    let children: Vec<Bridge> = specs
                        .into_iter()
                        .enumerate()
                        .map(|(child_id, child)| {
                            build_bridge(
                                child,
                                child_id,
                                level + 1,
                                leaf,
                                line_size,
                                parent_timing,
                                cluster_timing,
                                seed,
                                filter,
                                forward_logged,
                            )
                        })
                        .collect();
                    FabricNode::Interior(Segment::new(line_size, parent_timing, children))
                }
            };
            let mut bridge = Bridge::new(id, level, node, Arc::clone(forward_logged));
            bridge.filter = filter;
            bridge
        }

        let mut leaf = 0usize;
        let forward_logged = Arc::new(AtomicBool::new(false));
        let children: Vec<Bridge> = children
            .into_iter()
            .enumerate()
            .map(|(id, spec)| {
                build_bridge(
                    spec,
                    id,
                    0,
                    &mut leaf,
                    line_size,
                    parent_timing,
                    cluster_timing,
                    seed,
                    filter,
                    &forward_logged,
                )
            })
            .collect();
        let mut sys = HierarchicalSystem {
            root: Segment::new(line_size, parent_timing, children),
            checker: checking.then(|| Checker::new(line_size)),
            line_size,
            parent_errors: Vec::new(),
            tolerant: false,
            write_seq: 0,
            read_buf: Vec::new(),
            forward_logged,
        };
        if discipline != Discipline::Priority {
            sys.set_discipline(discipline);
        }
        sys.track_changes(checking);
        sys
    }
}
