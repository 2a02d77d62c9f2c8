//! The fabric-tree builder: [`TreeBuilder`] and the [`TreeSpec`] subtree
//! shapes it assembles.

use cache_array::CacheConfig;
use futurebus::{Discipline, TimingConfig};
use moesi::{CacheKind, Protocol};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use super::node::{Bridge, FabricNode, Segment};
use crate::controller::CacheController;
use crate::fabric::Fabric;
use crate::system::System;

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
        assert_ne!(
            protocol.kind(),
            CacheKind::NonCaching,
            "use `uncached` for non-caching protocols"
        );
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
        assert_eq!(
            protocol.kind(),
            CacheKind::NonCaching,
            "use `cache` for caching protocols"
        );
        match &mut self.kind {
            TreeSpecKind::Leaf(nodes) => nodes.push((protocol, None)),
            TreeSpecKind::Interior(_) => panic!("cache nodes belong to leaf clusters"),
        }
        self
    }
}

/// Builds a [`System`] of arbitrary depth and fan-out: a fabric tree whose
/// interior segments are buses of bridges and whose leaves are clusters of
/// caches. [`SystemBuilder`](crate::SystemBuilder) builds the one-leaf case.
///
/// # Examples
///
/// A three-level machine — two interior segments of two clusters each:
///
/// ```
/// use cache_array::CacheConfig;
/// use moesi::protocols::moesi_preferred;
/// use mpsim::hierarchy::{TreeBuilder, TreeSpec};
///
/// let leaf = || {
///     TreeSpec::leaf()
///         .cache(Box::new(moesi_preferred()), CacheConfig::small())
///         .cache(Box::new(moesi_preferred()), CacheConfig::small())
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
    pub(crate) line_size: usize,
    /// Every bus's timing: only a single bus sets it
    /// ([`SystemBuilder::timing`](crate::SystemBuilder::timing)).
    pub(crate) timing: TimingConfig,
    checking: bool,
    seed: u64,
    discipline: Discipline,
    filter: bool,
    /// The root: an interior segment, or a single bus's leaf.
    pub(crate) root: TreeSpec,
}

impl TreeBuilder {
    /// Starts a builder with the system-wide (§5.1) line size.
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        TreeBuilder::with_root(line_size, TreeSpec::interior(Vec::new()))
    }

    /// A builder whose machine's root is `root`.
    pub(crate) fn with_root(line_size: usize, root: TreeSpec) -> Self {
        TreeBuilder {
            line_size,
            timing: TimingConfig::default(),
            checking: false,
            seed: 0xB0B,
            discipline: Discipline::Priority,
            filter: true,
            root,
        }
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
        match &mut self.root.kind {
            TreeSpecKind::Interior(children) => children.push(spec),
            TreeSpecKind::Leaf(_) => unreachable!("only a tree's root takes children"),
        }
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

    /// Assembles the machine.
    ///
    /// # Panics
    ///
    /// Panics when the root or a segment has no children, a leaf has no
    /// nodes, or a cache config's line size mismatches the system line size
    /// (§5.1).
    #[must_use]
    pub fn build(self) -> System {
        let mut assembly = Assembly {
            line_size: self.line_size,
            timing: self.timing,
            seed: self.seed,
            filter: self.filter,
            forward_logged: Arc::new(AtomicBool::new(false)),
            path: Vec::new(),
            paths: Vec::new(),
            lanes: Vec::new(),
        };
        let root = assembly.node(self.root, 0);
        let Assembly {
            paths,
            lanes,
            forward_logged,
            ..
        } = assembly;
        let (line_size, checking) = (self.line_size, self.checking);
        let mut sys = System::new(root, paths, lanes, line_size, checking, forward_logged);
        if self.discipline != Discipline::Priority {
            sys.set_discipline(self.discipline);
        }
        sys
    }
}

/// What every node of one tree is built with.
struct Assembly {
    line_size: usize,
    timing: TimingConfig,
    seed: u64,
    filter: bool,
    forward_logged: Arc<AtomicBool>,
    /// The path from the root to the node being built.
    path: Vec<usize>,
    /// The paths of the leaves built so far, in leaf order.
    paths: Vec<Vec<usize>>,
    /// Each processor built so far: its leaf and its index there.
    lanes: Vec<(usize, usize)>,
}

impl Assembly {
    /// The node `spec` describes, on a bus at depth `level` (root = 0).
    fn node(&mut self, spec: TreeSpec, level: usize) -> FabricNode {
        match spec.kind {
            TreeSpecKind::Leaf(nodes) => {
                let leaf = self.paths.len();
                self.paths.push(self.path.clone());
                self.lanes.extend((0..nodes.len()).map(|cpu| (leaf, cpu)));
                assert!(!nodes.is_empty(), "leaf bus {leaf} has no nodes");
                let controllers: Vec<CacheController> = nodes
                    .into_iter()
                    .enumerate()
                    .map(|(cpu, (protocol, cfg))| {
                        if let Some(cfg) = &cfg {
                            assert_eq!(
                                cfg.line_size, self.line_size,
                                "§5.1: all caches must use the system line size"
                            );
                        }
                        let seed = self.seed.wrapping_add((leaf as u64) << 16);
                        CacheController::new(cpu, protocol, cfg, seed.wrapping_add(cpu as u64))
                    })
                    .collect();
                FabricNode::Leaf(Fabric::new(self.line_size, self.timing, controllers))
            }
            TreeSpecKind::Interior(specs) => {
                assert!(
                    !specs.is_empty(),
                    "a segment at depth {level} has no children"
                );
                let children = specs
                    .into_iter()
                    .enumerate()
                    .map(|(id, spec)| {
                        self.path.push(id);
                        let node = self.node(spec, level + 1);
                        self.path.pop();
                        let mut bridge =
                            Bridge::new(id, level, node, Arc::clone(&self.forward_logged));
                        bridge.filter = self.filter;
                        bridge
                    })
                    .collect();
                FabricNode::Interior(Segment::new(self.line_size, self.timing, children))
            }
        }
    }
}
