//! The hierarchy saturation study (experiment E8): fabric-tree machines
//! swept over cache count x tree depth x arbitration discipline x protocol.
//!
//! Where [`crate::sweep`] times one flat bus under contention, this module
//! asks the §6 question at scale: how much root-bus traffic does a recursive
//! fabric tree absorb as the machine grows, and how much of what remains do
//! the bridges' inclusion snoop filters suppress before it ever reaches a
//! subtree? Every cell builds one uniform tree via
//! [`mpsim::hierarchy::TreeBuilder::uniform`], drives the Dubois-&-Briggs
//! sharing workload on every leaf cache, and reports the root-bus counters,
//! per-phase latency percentiles from the root bus's histograms, and the
//! filter ledger summed over every bridge in the tree.
//!
//! Cells shard over [`mpsim::run_jobs`], and every simulated field is a pure
//! function of the cell, so the output is byte-identical for any `--jobs`
//! value once [`crate::strip_host`] drops the host figures, exactly like the
//! flat sweep.

use std::time::Instant;

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::Discipline;
use moesi::json::{array_u64, JsonObject};
use moesi::protocols::by_name;
use mpsim::hierarchy::TreeBuilder;
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{run_jobs, RefStream};

use crate::{bench_document, Host, RunTiming, LINE};

/// The saturation-study grid: every combination of the vectors below is one
/// cell (with the fan-out axis collapsed at depth 2, where a tree has no
/// interior levels to fan).
#[derive(Clone, Debug)]
pub struct HierarchyBenchConfig {
    /// Protocol names, one machine per entry.
    pub protocols: Vec<String>,
    /// Root-level cluster counts to sweep.
    pub clusters: Vec<usize>,
    /// Tree depths (bus levels) to sweep; 2 is the classic two-level
    /// machine.
    pub depths: Vec<usize>,
    /// Interior fan-outs to sweep (ignored at depth 2).
    pub fanouts: Vec<usize>,
    /// Arbitration disciplines to run on every bus of the tree.
    pub disciplines: Vec<Discipline>,
    /// Caches per leaf cluster.
    pub cpus: usize,
    /// References per cache.
    pub steps: u64,
    /// Per-cache capacity in bytes.
    pub cache_bytes: usize,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads sharding the cells; the output is identical for any
    /// value.
    pub jobs: usize,
}

impl Default for HierarchyBenchConfig {
    /// The committed-baseline grid: four protocols x {two-level, three-level}
    /// x all three disciplines. The depth-3 machines put
    /// `4 clusters x 4 fan-out x 4 cpus = 64` caches under one root bus.
    fn default() -> Self {
        HierarchyBenchConfig {
            protocols: vec![
                "moesi".into(),
                "dragon".into(),
                "berkeley".into(),
                "write-through".into(),
            ],
            clusters: vec![4],
            depths: vec![2, 3],
            fanouts: vec![4],
            disciplines: Discipline::ALL.to_vec(),
            cpus: 4,
            steps: 300,
            cache_bytes: 2048,
            seed: 7,
            jobs: mpsim::default_jobs(),
        }
    }
}

/// One saturation cell's result.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyRow {
    /// Protocol name.
    pub protocol: String,
    /// Arbitration discipline on every bus (display name).
    pub discipline: String,
    /// Bus levels in the tree.
    pub depth: usize,
    /// Interior fan-out (1 at depth 2: no interior levels exist).
    pub fanout: usize,
    /// Root-level clusters.
    pub clusters: usize,
    /// Leaf clusters in the whole tree.
    pub leaves: usize,
    /// Total caches (`leaves * cpus`).
    pub caches: usize,
    /// References issued (`steps * caches`).
    pub accesses: u64,
    /// Root-bus transactions committed.
    pub root_transactions: u64,
    /// Root-bus occupied time (simulated ns).
    pub root_busy_ns: u64,
    /// Root-bus abort/backoff retry rounds.
    pub root_retries: u64,
    /// Transactions summed over every leaf-cluster bus — the level where the
    /// leaf protocol's own invalidate/update/write-through behaviour shows
    /// (root-bus traffic is the bridges' cluster-as-one-big-cache logic and
    /// is protocol-invariant for a fixed workload and geometry).
    pub leaf_transactions: u64,
    /// Bus-occupied time summed over every leaf-cluster bus (simulated ns).
    pub leaf_busy_ns: u64,
    /// Snoops observed across every bridge in the tree.
    pub snooped: u64,
    /// Snoops whose inclusion tag hit (subtree holds the line).
    pub filter_hits: u64,
    /// Snoops admitted past the filters into subtrees.
    pub forwarded: u64,
    /// Snoops the inclusion filters suppressed.
    pub suppressed: u64,
    /// Root-bus per-phase p50 latency (ns), pipeline order.
    pub phase_p50: [u64; 6],
    /// Root-bus per-phase p99 latency (ns), pipeline order.
    pub phase_p99: [u64; 6],
    /// This cell's run on the host.
    pub host: Host<RunTiming>,
}

/// One cell of the grid, plain data so it can cross into the worker pool.
#[derive(Clone, Debug)]
struct Cell {
    protocol: String,
    discipline: Discipline,
    depth: usize,
    fanout: usize,
    clusters: usize,
}

fn cells(cfg: &HierarchyBenchConfig) -> Vec<Cell> {
    let mut out = Vec::new();
    for protocol in &cfg.protocols {
        for &clusters in &cfg.clusters {
            for &depth in &cfg.depths {
                // A two-level tree has no interior levels, so every fan-out
                // value would build the same machine: collapse the axis.
                let fanouts: &[usize] = if depth == 2 { &[1] } else { &cfg.fanouts };
                for &fanout in fanouts {
                    for &discipline in &cfg.disciplines {
                        out.push(Cell {
                            protocol: protocol.clone(),
                            discipline,
                            depth,
                            fanout,
                            clusters,
                        });
                    }
                }
            }
        }
    }
    out
}

fn validate(cfg: &HierarchyBenchConfig) -> Result<(), String> {
    if cfg.protocols.is_empty() {
        return Err("no protocols to bench".into());
    }
    if cfg.clusters.is_empty() || cfg.depths.is_empty() || cfg.fanouts.is_empty() {
        return Err("clusters, depths and fanouts must each name at least one value".into());
    }
    if cfg.disciplines.is_empty() {
        return Err("no disciplines to bench".into());
    }
    if let Some(&d) = cfg.depths.iter().find(|&&d| d < 2) {
        return Err(format!("depth {d} is below 2 (the two-level machine)"));
    }
    if cfg.clusters.contains(&0) || cfg.fanouts.contains(&0) {
        return Err("clusters and fanouts must be at least 1".into());
    }
    if cfg.cpus == 0 || cfg.steps == 0 {
        return Err("cpus and steps must be at least 1".into());
    }
    for p in &cfg.protocols {
        if by_name(p, 0).is_none() {
            return Err(format!("unknown protocol `{p}`"));
        }
    }
    Ok(())
}

/// Runs one cell: builds the uniform tree (oracle off — this is a
/// throughput study), drives the sharing workload on every leaf cache, and
/// reads the counters.
fn hierarchy_one(cfg: &HierarchyBenchConfig, cell: &Cell) -> HierarchyRow {
    let cache_cfg = CacheConfig::new(cfg.cache_bytes, LINE, 2, ReplacementKind::Lru);
    let cpus = cfg.cpus;
    let mut sys = TreeBuilder::uniform(
        LINE,
        cell.clusters,
        cell.depth,
        cell.fanout,
        cpus,
        |leaf, cpu| {
            (
                by_name(&cell.protocol, 1000 + (leaf * cpus + cpu) as u64)
                    .expect("protocol validated before the sweep started"),
                Some(cache_cfg),
            )
        },
    )
    .seed(cfg.seed)
    .discipline(cell.discipline)
    .build();

    let leaves = sys.leaves();
    let caches = leaves * cpus;
    // Every cache gets its own Dubois-&-Briggs stream keyed by its global
    // index: a hot shared pool every subtree contends for, plus per-cache
    // private lines that never appear under any other bridge — the traffic
    // the inclusion filters exist to suppress.
    let mut streams: Vec<Vec<Box<dyn RefStream + Send>>> = (0..leaves)
        .map(|leaf| {
            (0..cpus)
                .map(|cpu| -> Box<dyn RefStream + Send> {
                    Box::new(DuboisBriggs::new(
                        leaf * cpus + cpu,
                        SharingModel {
                            line_size: LINE as u64,
                            ..SharingModel::default()
                        },
                        cfg.seed,
                    ))
                })
                .collect()
        })
        .collect();

    let host = Instant::now();
    sys.run(&mut streams, cfg.steps);
    let host_ns = host.elapsed().as_nanos() as u64;

    let root = *sys.parent_stats();
    let (mut leaf_transactions, mut leaf_busy_ns) = (0u64, 0u64);
    for leaf in 0..leaves {
        let s = sys.leaf_fabric(leaf).bus().stats();
        leaf_transactions += s.transactions;
        leaf_busy_ns += s.busy_ns;
    }
    let hist = sys.parent_bus().phase_histograms();
    let (mut snooped, mut filter_hits, mut forwarded, mut suppressed) = (0u64, 0u64, 0u64, 0u64);
    for bridge in sys.bridges_preorder() {
        let s = bridge.stats();
        snooped += s.snooped;
        filter_hits += s.filter_hits;
        forwarded += s.forwarded;
        suppressed += s.suppressed;
    }
    let accesses = cfg.steps * caches as u64;
    HierarchyRow {
        protocol: cell.protocol.clone(),
        discipline: cell.discipline.to_string(),
        depth: cell.depth,
        fanout: cell.fanout,
        clusters: cell.clusters,
        leaves,
        caches,
        accesses,
        root_transactions: root.transactions,
        root_busy_ns: root.busy_ns,
        root_retries: root.retries,
        leaf_transactions,
        leaf_busy_ns,
        snooped,
        filter_hits,
        forwarded,
        suppressed,
        phase_p50: hist.p50s(),
        phase_p99: hist.p99s(),
        host: Host::run(accesses, host_ns),
    }
}

/// Runs the full saturation grid, sharding cells over `cfg.jobs` workers.
/// Rows come back in grid order regardless of worker count.
///
/// # Errors
///
/// Returns an error for an empty or malformed grid or an unknown protocol
/// name.
pub fn hierarchy_sweep(cfg: &HierarchyBenchConfig) -> Result<Vec<HierarchyRow>, String> {
    validate(cfg)?;
    Ok(run_jobs(cells(cfg), cfg.jobs, |cell| {
        hierarchy_one(cfg, &cell)
    }))
}

/// Renders the rows as the `BENCH_hierarchy.json` document.
#[must_use]
pub fn hierarchy_json(cfg: &HierarchyBenchConfig, rows: &[HierarchyRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .string("protocol", &r.protocol)
                .string("discipline", &r.discipline)
                .number("depth", r.depth)
                .number("fanout", r.fanout)
                .number("clusters", r.clusters)
                .number("leaves", r.leaves)
                .number("caches", r.caches)
                .number("accesses", r.accesses)
                .number("root_transactions", r.root_transactions)
                .number("root_busy_ns", r.root_busy_ns)
                .number("root_retries", r.root_retries)
                .number("leaf_transactions", r.leaf_transactions)
                .number("leaf_busy_ns", r.leaf_busy_ns)
                .number("snooped", r.snooped)
                .number("filter_hits", r.filter_hits)
                .number("forwarded", r.forwarded)
                .number("suppressed", r.suppressed)
                .raw("phase_p50_ns", &array_u64(&r.phase_p50))
                .raw("phase_p99_ns", &array_u64(&r.phase_p99))
                .raw("host", &r.host.json())
                .finish()
        })
        .collect();
    let header = format!(
        "  \"seed\": {},\n  \"cpus_per_leaf\": {},\n  \"steps_per_cpu\": {},\n  \
         \"cache_bytes\": {},\n",
        cfg.seed, cfg.cpus, cfg.steps, cfg.cache_bytes
    );
    bench_document(&header, &rows)
}

/// Renders the rows as an aligned text table with the filter-suppression
/// ratio as the headline column.
#[must_use]
pub fn render_hierarchy(rows: &[HierarchyRow]) -> String {
    let mut out = format!(
        "{:<16} {:<12} {:>5} {:>6} {:>6} {:>9} {:>10} {:>10} {:>11} {:>9} {:>10} {:>6}\n",
        "protocol",
        "discipline",
        "depth",
        "fanout",
        "caches",
        "accesses",
        "leaf txns",
        "root txns",
        "root us",
        "snooped",
        "suppressed",
        "supp%"
    );
    for r in rows {
        let supp_pct = if r.snooped == 0 {
            0.0
        } else {
            r.suppressed as f64 * 100.0 / r.snooped as f64
        };
        out.push_str(&format!(
            "{:<16} {:<12} {:>5} {:>6} {:>6} {:>9} {:>10} {:>10} {:>11.1} {:>9} {:>10} {:>5.1}%\n",
            r.protocol,
            r.discipline,
            r.depth,
            r.fanout,
            r.caches,
            r.accesses,
            r.leaf_transactions,
            r.root_transactions,
            r.root_busy_ns as f64 / 1000.0,
            r.snooped,
            r.suppressed,
            supp_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HierarchyBenchConfig {
        HierarchyBenchConfig {
            protocols: vec!["moesi".into()],
            clusters: vec![2],
            depths: vec![2, 3],
            fanouts: vec![2],
            disciplines: vec![Discipline::Priority],
            cpus: 2,
            steps: 40,
            jobs: 1,
            ..HierarchyBenchConfig::default()
        }
    }

    #[test]
    fn default_grid_covers_the_saturation_acceptance_matrix() {
        let cfg = HierarchyBenchConfig::default();
        assert!(cfg.protocols.len() >= 4);
        assert_eq!(cfg.disciplines.len(), 3, "all three disciplines");
        assert!(cfg.depths.contains(&3));
        // The depth-3 machines put at least 64 caches under the root bus.
        let leaves = cfg.clusters[0] * cfg.fanouts[0];
        assert!(leaves * cfg.cpus >= 64, "{} caches", leaves * cfg.cpus);
    }

    #[test]
    fn tiny_sweep_reports_conserving_filter_ledgers() {
        let rows = hierarchy_sweep(&tiny()).unwrap();
        assert_eq!(rows.len(), 2, "depth 2 and depth 3, fan-out collapsed");
        for r in &rows {
            assert_eq!(r.accesses, 40 * r.caches as u64);
            assert!(r.root_transactions > 0, "shared pool crossed the root");
            assert!(r.leaf_transactions > 0, "cluster buses carried traffic");
            assert_eq!(
                r.forwarded + r.suppressed,
                r.snooped,
                "every snoop is forwarded or suppressed"
            );
            assert!(r.filter_hits <= r.forwarded);
            assert!(
                r.suppressed > 0,
                "private lines were snoop-filtered at depth {}",
                r.depth
            );
        }
        let (d2, d3) = (&rows[0], &rows[1]);
        assert_eq!((d2.depth, d2.fanout, d2.leaves, d2.caches), (2, 1, 2, 4));
        assert_eq!((d3.depth, d3.fanout, d3.leaves, d3.caches), (3, 2, 4, 8));
    }

    #[test]
    fn worker_count_never_changes_the_rows() {
        let sequential = hierarchy_sweep(&tiny()).unwrap();
        let sharded = hierarchy_sweep(&HierarchyBenchConfig { jobs: 4, ..tiny() }).unwrap();
        assert_eq!(sequential, sharded);
        assert_eq!(
            crate::strip_host(&hierarchy_json(&tiny(), &sequential)),
            crate::strip_host(&hierarchy_json(&tiny(), &sharded)),
        );
    }

    #[test]
    fn leaf_protocol_shows_up_in_the_leaf_bus_column() {
        let rows = hierarchy_sweep(&HierarchyBenchConfig {
            protocols: vec!["moesi".into(), "write-through".into()],
            depths: vec![2],
            ..tiny()
        })
        .unwrap();
        assert_eq!(rows.len(), 2);
        // Root-bus traffic is the bridges' doing and matches cell for cell;
        // the protocol axis differentiates on the cluster buses, where
        // write-through pushes every write and MOESI keeps dirty lines local.
        assert_eq!(rows[0].root_transactions, rows[1].root_transactions);
        assert_ne!(
            rows[0].leaf_transactions, rows[1].leaf_transactions,
            "leaf protocols must be distinguishable in the leaf-bus column"
        );
    }

    #[test]
    fn malformed_grids_are_rejected() {
        let err = |cfg: HierarchyBenchConfig| hierarchy_sweep(&cfg).unwrap_err();
        assert!(err(HierarchyBenchConfig {
            depths: vec![1],
            ..tiny()
        })
        .contains("below 2"));
        assert!(err(HierarchyBenchConfig {
            protocols: vec!["mesif".into()],
            ..tiny()
        })
        .contains("unknown protocol"));
        assert!(err(HierarchyBenchConfig {
            fanouts: vec![0],
            ..tiny()
        })
        .contains("at least 1"));
        assert!(err(HierarchyBenchConfig {
            disciplines: vec![],
            ..tiny()
        })
        .contains("no disciplines"));
    }

    #[test]
    fn json_document_and_table_carry_the_study() {
        let cfg = tiny();
        let rows = hierarchy_sweep(&cfg).unwrap();
        let json = hierarchy_json(&cfg, &rows);
        assert!(json.contains("\"cpus_per_leaf\": 2"), "{json}");
        assert!(json.contains("\"depth\": 3"), "{json}");
        assert!(json.contains("\"suppressed\": "), "{json}");
        assert!(json.contains("\"phase_p99_ns\": ["), "{json}");
        let text = render_hierarchy(&rows);
        assert!(text.contains("supp%"), "{text}");
        assert!(text.contains("moesi"), "{text}");
    }
}
