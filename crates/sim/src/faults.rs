//! Fault-injection campaigns: prove the protocol class degrades gracefully.
//!
//! A campaign runs a seeded workload over one machine per protocol — a flat
//! bus, or a fabric tree whose root bus targets bridges — with a
//! [`FaultPlan`] installed on every bus, then audits every injected fault
//! with the consistency oracle and classifies it:
//!
//! * [`FaultClass::Masked`] — the fault had no observable effect at all; the
//!   hardware absorbed it (the fate of every consistency-line glitch, which
//!   the §2.2 settle window filters out).
//! * [`FaultClass::Detected`] — the fault was observed and recovered from
//!   with the damage *reported*: a watchdog retirement, a drained abort
//!   storm, a scrubbed soft error, or an explicitly-reported data loss.
//! * [`FaultClass::Silent`] — the machine kept running but an invariant or a
//!   read went wrong *after* recovery. This is the failure mode the class is
//!   claimed not to have; a campaign with any silent fault fails.
//!
//! The harness is deliberately an *accepting* auditor: when a killed module
//! takes the only copy of a line with it, the golden image is reconciled to
//! the post-loss memory (the loss was reported, so consumers know), and any
//! *remaining* divergence is silent corruption.

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::fault::{FaultConfig, FaultKind, FaultPlan, FaultRecord, InjectedFault};
use futurebus::{BusStats, Futurebus, PhaseHistograms, RetryPolicy, SparseMemory};
use moesi::json::{array_u64, JsonObject};
use moesi::protocols::by_name;
use moesi::rng::SmallRng;
use moesi::{CacheKind, PolicyTable, Protocol, TablePolicy};
use std::collections::BTreeMap;
use std::fmt;

use crate::checker::Checker;
use crate::hierarchy::{ParentError, TreeBuilder};
use crate::system::{System, SystemBuilder};

/// How a campaign classified one injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// No observable effect; the hardware absorbed it outright.
    Masked,
    /// Observed and recovered, with any damage reported.
    Detected,
    /// An invariant or read went wrong after recovery — the failure mode the
    /// class must not have.
    Silent,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::Masked => "masked",
            FaultClass::Detected => "detected",
            FaultClass::Silent => "SILENT",
        })
    }
}

/// One injected fault with its audit verdict.
#[derive(Clone, Debug)]
pub struct FaultVerdict {
    /// The fault as the bus logged it.
    pub record: FaultRecord,
    /// The audit classification.
    pub class: FaultClass,
    /// Why the class was assigned.
    pub note: String,
}

impl fmt::Display for FaultVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.record, self.class, self.note)
    }
}

/// A fault tally: masked/detected/SILENT verdicts per fault kind, plus the
/// silent corruptions observed after recovery. Runs and reports count and
/// render their faults through it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Verdict counts per fault kind (by name), indexed by `FaultClass as
    /// usize`: masked, detected, silent.
    by_kind: BTreeMap<String, [u64; 3]>,
    corruptions: u64,
}

impl Tally {
    /// Tallies `verdicts`, with `corruptions` violations observed after
    /// recovery.
    #[must_use]
    pub fn new<'a>(
        verdicts: impl IntoIterator<Item = &'a FaultVerdict>,
        corruptions: usize,
    ) -> Self {
        let mut tally = Tally {
            corruptions: corruptions as u64,
            ..Tally::default()
        };
        for v in verdicts {
            let kind = v.record.fault.kind().to_string();
            tally.by_kind.entry(kind).or_default()[v.class as usize] += 1;
        }
        tally
    }

    /// Faults injected.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.by_kind.values().flatten().sum()
    }

    /// Silent corruptions (violations observed after recovery). A graceful
    /// degradation claim requires this to be zero.
    #[must_use]
    pub fn silent(&self) -> u64 {
        self.corruptions
    }

    /// Faults in `class`.
    #[must_use]
    pub fn class(&self, class: FaultClass) -> u64 {
        self.by_kind.values().map(|c| c[class as usize]).sum()
    }

    /// Faults of `kind` in `class`.
    #[must_use]
    pub fn count(&self, kind: FaultKind, class: FaultClass) -> u64 {
        self.by_kind
            .get(&kind.to_string())
            .map_or(0, |c| c[class as usize])
    }
}

/// One indented line per fault kind, each starting with a newline.
impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (kind, [masked, detected, silent]) in &self.by_kind {
            write!(f, "\n    {kind}: {masked} masked, {detected} detected")?;
            if *silent > 0 {
                write!(f, ", {silent} SILENT")?;
            }
        }
        Ok(())
    }
}

/// The fabric tree a campaign runs instead of one flat bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeShape {
    /// Clusters on the root bus.
    pub clusters: usize,
    /// Bus levels: 2 is the classic two-level machine; deeper values
    /// interpose interior segments built by
    /// [`TreeBuilder::uniform`](crate::hierarchy::TreeBuilder::uniform).
    pub depth: usize,
    /// Children per interior segment when `depth > 2` (ignored at depth 2).
    pub fanout: usize,
}

impl Default for TreeShape {
    fn default() -> Self {
        TreeShape {
            clusters: 2,
            depth: 2,
            fanout: 2,
        }
    }
}

impl TreeShape {
    /// Leaf clusters in the tree (== `clusters` at depth 2).
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.clusters * self.fanout.pow(self.depth.saturating_sub(2) as u32)
    }
}

/// Consecutive root-bus retry-cutoff failures per master before a tree
/// campaign's liveness watchdog flags starvation.
const LIVENESS_DEADLINE: u32 = 3;

/// Campaign shape: protocols, machine geometry, workload and fault rates.
///
/// On a tree the root bus gets the full plan (`bridges: true`, so stalls
/// and kills target bridges) and each leaf bus a derived glitch/storm-only
/// plan: retiring an individual cache is the flat campaign's subject, on a
/// tree the bridge is the victim.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Protocol names (see `moesi::protocols::by_name`), one homogeneous
    /// machine per entry.
    pub protocols: Vec<String>,
    /// `None` runs one flat bus; `Some` runs a fabric tree of that shape.
    pub tree: Option<TreeShape>,
    /// Processors per machine, or per leaf cluster on a tree.
    pub cpus: usize,
    /// Bytes per line.
    pub line_size: usize,
    /// Cache capacity per node in bytes.
    pub cache_bytes: usize,
    /// Processor accesses per machine.
    pub steps: u64,
    /// Distinct lines in the working set (sized to overflow the caches so
    /// the bus stays busy and faults keep landing).
    pub lines: u64,
    /// Workload seed (the fault seed lives in [`CampaignConfig::faults`]).
    pub seed: u64,
    /// Loaded policy tables (e.g. synthesized winners) made addressable by
    /// name: when an entry in [`CampaignConfig::protocols`] matches a
    /// table's name, the machine runs that table under the generic
    /// `TablePolicy` engine instead of a shipped protocol.
    pub tables: Vec<PolicyTable>,
    /// Fault kinds and rates to inject.
    pub faults: FaultConfig,
    /// Worker threads sharding the per-protocol runs. Each protocol's
    /// machine is fully independent and seeded, so the merged report is
    /// byte-identical for any value; `1` runs sequentially on the caller.
    pub jobs: usize,
    /// `0` (the default) runs each protocol as one whole-machine campaign.
    /// `N ≥ 1` partitions each protocol's pre-drawn access schedule into
    /// [`crate::SHARD_REGIONS`] interleaved line-address regions, runs each
    /// region as an independent faulty machine (its own derived fault seed),
    /// and merges in region order on a flat protocol × region pool of `N`
    /// workers — byte-identical for every `N ≥ 1`, but *not* comparable to
    /// an unsharded campaign (the partition changes where faults land).
    pub shards: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            protocols: vec![
                "moesi".into(),
                "dragon".into(),
                "write-through".into(),
                "berkeley".into(),
                "hybrid".into(),
            ],
            tree: None,
            cpus: 4,
            line_size: 16,
            cache_bytes: 1024,
            steps: 2500,
            lines: 96,
            seed: 0xCA_FE,
            tables: Vec::new(),
            faults: FaultConfig {
                glitch_rate: 0.20,
                stall_rate: 0.0015,
                kill_rate: 0.0015,
                storm_rate: 0.04,
                corrupt_rate: 0.10,
                max_storm_rounds: 4,
                ..FaultConfig::default()
            },
            jobs: crate::campaign::default_jobs(),
            shards: 0,
        }
    }
}

impl CampaignConfig {
    /// The default two-level campaign: four protocols on 2 clusters of 2
    /// cpus, with bridge stalls and kills and stale inclusion tags.
    #[must_use]
    pub fn hierarchy() -> Self {
        CampaignConfig {
            protocols: vec![
                "moesi".into(),
                "dragon".into(),
                "write-through".into(),
                "berkeley".into(),
            ],
            tree: Some(TreeShape::default()),
            cpus: 2,
            steps: 1500,
            lines: 48,
            faults: FaultConfig {
                glitch_rate: 0.20,
                stall_rate: 0.002,
                kill_rate: 0.002,
                storm_rate: 0.05,
                corrupt_rate: 0.08,
                stale_tag_rate: 0.10,
                max_storm_rounds: 4,
                ..FaultConfig::default()
            },
            ..CampaignConfig::default()
        }
    }
}

/// What a tree run adds to a flat one: the bridge ledger, the degraded
/// clusters and the root bus's structured errors. Empty on a flat bus.
#[derive(Clone, Debug, Default)]
pub struct TreeExtras {
    /// Clusters running memory-direct degraded mode at the end of the run.
    pub degraded_clusters: Vec<usize>,
    /// Structured root-bus errors the tree survived.
    pub parent_errors: Vec<ParentError>,
    /// Dirty lines owned by bridges at their retirement instants, summed.
    pub dirty_at_retire: u64,
    /// Of those, lines salvaged to root memory by synthetic push rounds.
    pub salvaged_lines: u64,
    /// Of those, lines lost with their bridge (reported, never silent).
    pub lost_lines: u64,
}

/// One protocol's campaign outcome. A flat bus is its machine's root bus
/// and only leaf bus.
#[derive(Clone, Debug, Default)]
pub struct ProtocolRun {
    /// The protocol name the machine ran.
    pub protocol: String,
    /// Processor accesses executed.
    pub accesses: u64,
    /// Every injected fault with its verdict: per access, the root bus's
    /// first, then each leaf bus's in leaf order.
    pub verdicts: Vec<FaultVerdict>,
    /// Modules the root bus's watchdog retired (caches on a flat bus,
    /// bridges on a tree) — ascending for a whole-machine run; a sharded
    /// run concatenates its region machines' lists in region order.
    pub retired: Vec<usize>,
    /// Invariant/read violations observed after recovery (silent corruption;
    /// the run stops at the first one).
    pub violations: Vec<String>,
    /// Errors the leaf buses survived in tolerant mode (each degraded one
    /// access to a memory-direct fallback — detected, not process-fatal).
    pub bus_errors: Vec<String>,
    /// Root-bus statistics at the end of the run.
    pub bus_stats: BusStats,
    /// Root-bus per-phase latency histograms accumulated over the run.
    pub phase_hist: PhaseHistograms,
    /// The tree's extras (empty on a flat bus).
    pub tree: TreeExtras,
}

impl ProtocolRun {
    /// This run's fault tally.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally::new(&self.verdicts, self.violations.len())
    }

    /// Appends `other`, the next region's run of the same protocol:
    /// counters and bus statistics sum, lists concatenate, histograms merge
    /// bucket-wise.
    fn absorb(&mut self, other: ProtocolRun) {
        self.accesses += other.accesses;
        self.verdicts.extend(other.verdicts);
        self.retired.extend(other.retired);
        self.violations.extend(other.violations);
        self.bus_errors.extend(other.bus_errors);
        self.bus_stats += other.bus_stats;
        self.phase_hist.merge(&other.phase_hist);
        let (tree, more) = (&mut self.tree, other.tree);
        tree.degraded_clusters.extend(more.degraded_clusters);
        tree.parent_errors.extend(more.parent_errors);
        tree.dirty_at_retire += more.dirty_at_retire;
        tree.salvaged_lines += more.salvaged_lines;
        tree.lost_lines += more.lost_lines;
    }

    /// One report line plus its indented details; `tree` picks the tree's
    /// retirement and error lines.
    fn render(&self, f: &mut fmt::Formatter<'_>, tree: bool) -> fmt::Result {
        write!(
            f,
            "{}: {} accesses, {} faults{}",
            self.protocol,
            self.accesses,
            self.verdicts.len(),
            self.tally()
        )?;
        let extras = &self.tree;
        if !self.retired.is_empty() {
            if tree {
                write!(
                    f,
                    "\n    retired bridges: {:?} ({} dirty lines: {} salvaged, {} lost)",
                    self.retired, extras.dirty_at_retire, extras.salvaged_lines, extras.lost_lines
                )?;
            } else {
                write!(f, "\n    retired modules: {:?}", self.retired)?;
            }
        }
        match (tree, self.bus_errors.len(), extras.parent_errors.len()) {
            (true, cluster, parent) if cluster + parent > 0 => write!(
                f,
                "\n    bus errors survived: {parent} parent, {cluster} cluster"
            )?,
            (false, errors, _) if errors > 0 => {
                write!(f, "\n    bus errors survived: {errors}")?;
            }
            _ => {}
        }
        if self.bus_stats.liveness_violations > 0 {
            write!(
                f,
                "\n    liveness violations: {}",
                self.bus_stats.liveness_violations
            )?;
        }
        for v in &self.violations {
            write!(f, "\n    SILENT CORRUPTION: {v}")?;
        }
        Ok(())
    }
}

/// A whole campaign's outcome: one [`ProtocolRun`] per protocol.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The tree every machine ran, or `None` for a flat bus.
    pub tree: Option<TreeShape>,
    /// Per-protocol results, in configuration order.
    pub runs: Vec<ProtocolRun>,
}

impl CampaignReport {
    /// The fault tally across all runs. Its `silent()` is the zero-silent
    /// bar: any nonzero value fails the campaign.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally::new(
            self.runs.iter().flat_map(|r| &r.verdicts),
            self.runs.iter().map(|r| r.violations.len()).sum(),
        )
    }

    /// Total root-bus watchdog retirements across all runs.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.runs.iter().map(|r| r.retired.len() as u64).sum()
    }

    /// Total liveness violations the root-bus watchdogs flagged.
    #[must_use]
    pub fn liveness_violations(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.bus_stats.liveness_violations)
            .sum()
    }

    /// Campaign-wide phase latency histograms, merged over the runs in job
    /// (configuration) order so the aggregate is independent of `jobs`.
    #[must_use]
    pub fn phase_hist(&self) -> PhaseHistograms {
        crate::campaign::merge_phase_histograms(self.runs.iter().map(|r| r.phase_hist))
    }
}

/// A header line with the totals, one line per run, and the verdict.
impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tally = self.tally();
        writeln!(
            f,
            "{}fault campaign: {} protocols, {} faults injected, {} silent",
            if self.tree.is_some() {
                "hierarchy "
            } else {
                ""
            },
            self.runs.len(),
            tally.injected(),
            tally.silent()
        )?;
        for run in &self.runs {
            f.write_str("  ")?;
            run.render(f, self.tree.is_some())?;
            writeln!(f)?;
        }
        write!(
            f,
            "verdict: {}",
            if tally.silent() == 0 {
                "graceful degradation — every fault masked or detected"
            } else {
                "SILENT CORRUPTION OBSERVED"
            }
        )
    }
}

/// Runs a fault-injection campaign: for each protocol, a seeded workload on
/// a faulty machine (a flat bus, or a fabric tree whose root bus injects
/// bridge-targeted faults), with every injected fault audited and
/// classified.
///
/// # Errors
///
/// Returns a message when a protocol name is unknown or the geometry is
/// unusable (zero cpus/steps/lines, or a tree without clusters, below two
/// levels or without fan-out).
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    if cfg.protocols.is_empty() {
        return Err("no protocols given".into());
    }
    if cfg.cpus == 0 || cfg.steps == 0 || cfg.lines == 0 {
        return Err("cpus, steps and lines must all be non-zero".into());
    }
    if let Some(t) = cfg.tree {
        if t.clusters == 0 || t.depth < 2 || (t.depth > 2 && t.fanout == 0) {
            return Err(
                "a tree needs clusters, depth at least 2 and, deeper than that, a fanout".into(),
            );
        }
    }
    // Every (protocol, region) machine is independent, so shard them across
    // the pool; `run_jobs` hands results back in task order, keeping the
    // report identical for any worker count. The region a step belongs to
    // is a pure function of its line address, and each region machine's
    // fault seed is derived from `(run_idx, region)`. An unsharded campaign
    // is one region per protocol, whose filter keeps every step.
    let (regions, workers) = match cfg.shards {
        0 => (1, cfg.jobs),
        shards => (crate::SHARD_REGIONS, shards),
    };
    let mut tasks = Vec::with_capacity(cfg.protocols.len() * regions);
    for (run_idx, name) in cfg.protocols.iter().enumerate() {
        for region in 0..regions {
            tasks.push((run_idx as u64, name.clone(), region as u64));
        }
    }
    let results = crate::campaign::run_jobs(tasks, workers, |(run_idx, name, region)| {
        let mut schedule = plan_schedule(cfg, run_idx);
        schedule.retain(|s| (s.addr / cfg.line_size as u64) % regions as u64 == region);
        let fault_seed = cfg
            .faults
            .seed
            .wrapping_add(run_idx * regions as u64 + region);
        execute_schedule(cfg, &name, run_idx, fault_seed, &schedule)
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let mut results = results.into_iter();
    let runs = cfg
        .protocols
        .iter()
        .map(|_| {
            let mut run = results.next().expect("one run per task");
            results
                .by_ref()
                .take(regions - 1)
                .for_each(|r| run.absorb(r));
            run
        })
        .collect();
    Ok(CampaignReport {
        tree: cfg.tree,
        runs,
    })
}

/// One pre-drawn access of the campaign workload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CampaignStep {
    /// The original step index (kept so violation messages name the same
    /// step sharded or not).
    step: u64,
    /// The processor issuing the access, by lane.
    lane: usize,
    pub(crate) addr: u64,
    /// `Some(byte)` writes `[byte; 4]`; `None` reads 4 bytes.
    pub(crate) write_byte: Option<u8>,
}

/// Pre-draws the whole access schedule for one protocol run. Per step a
/// tree draws the leaf, then the cpu (a flat bus takes `step % cpus`), then
/// line, word, read/write coin, and the write byte only on a write — the
/// order the campaigns drew in before the schedule was materialised, so
/// both workload streams are unchanged; sharding then only *partitions*
/// this list, never re-draws it.
pub(crate) fn plan_schedule(cfg: &CampaignConfig, run_idx: u64) -> Vec<CampaignStep> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(run_idx));
    (0..cfg.steps)
        .map(|step| {
            let (leaf, cpu) = match cfg.tree {
                None => (0, (step as usize) % cfg.cpus),
                Some(t) => {
                    let leaf = rng.gen_range(0..t.leaves() as u64) as usize;
                    (leaf, rng.gen_range(0..cfg.cpus as u64) as usize)
                }
            };
            let line = rng.gen_range(0..cfg.lines);
            let word = rng.gen_range(0..(cfg.line_size / 4) as u64);
            let addr = line * cfg.line_size as u64 + word * 4;
            let write_byte = rng.gen_bool(0.5).then(|| rng.gen_range(0u16..256) as u8);
            CampaignStep {
                step,
                lane: leaf * cfg.cpus + cpu,
                addr,
                write_byte,
            }
        })
        .collect()
}

/// One node of a campaign machine: `name`'s protocol (a loaded table of
/// that name first) seeded for processor `id`, with the campaign's cache
/// unless the protocol is non-caching.
fn node(
    cfg: &CampaignConfig,
    name: &str,
    id: usize,
) -> Result<(Box<dyn Protocol + Send>, Option<CacheConfig>), String> {
    let protocol: Box<dyn Protocol + Send> = match cfg.tables.iter().find(|t| t.name() == name) {
        Some(table) => Box::new(TablePolicy::new(*table)),
        None => by_name(name, cfg.seed.wrapping_add(id as u64))
            .ok_or_else(|| format!("unknown protocol `{name}`"))?,
    };
    let cache = (protocol.kind() != CacheKind::NonCaching)
        .then(|| CacheConfig::new(cfg.cache_bytes, cfg.line_size, 2, ReplacementKind::Lru));
    Ok((protocol, cache))
}

/// The campaign's machine for protocol `name`, without a fault plan:
/// `cfg.cpus` nodes on one bus, or on each leaf of `cfg.tree`. It runs in
/// tolerant mode: bus errors are recorded as detected damage instead of
/// killing the run (errored accesses degrade to a memory-direct fallback and
/// any staleness they cause is the oracle's to flag), and the oracle stays
/// outside, with the campaign, which reconciles reported damage first and
/// then runs it, so only unreported divergence counts as silent.
///
/// # Errors
///
/// Returns a message when `name` is unknown.
pub(crate) fn campaign_machine(
    cfg: &CampaignConfig,
    name: &str,
    run_idx: u64,
) -> Result<System, String> {
    node(cfg, name, 0)?;
    let mk = |_, cpu| node(cfg, name, cpu).expect("validated above");
    let mut sys = match cfg.tree {
        None => (0..cfg.cpus)
            .fold(
                SystemBuilder::new(cfg.line_size).seed(cfg.seed),
                |b, cpu| match mk(0, cpu) {
                    (protocol, Some(cache)) => b.cache(protocol, cache),
                    (protocol, None) => b.uncached(protocol),
                },
            )
            .build(),
        Some(t) => TreeBuilder::uniform(
            cfg.line_size,
            t.clusters,
            t.depth,
            // Unused at depth 2, where it is not validated.
            t.fanout.max(1),
            cfg.cpus,
            mk,
        )
        .seed(cfg.seed.wrapping_add(run_idx))
        .build(),
    };
    sys.tolerate_faults(true);
    Ok(sys)
}

/// Builds `name`'s campaign machine with its fault plans installed, from the
/// plan seed `fault_seed`: one plan on a single bus; on a tree the root's
/// targets bridges, under a liveness watchdog, and each leaf bus gets a
/// derived glitch/storm-only plan.
fn faulty_machine(
    cfg: &CampaignConfig,
    name: &str,
    run_idx: u64,
    fault_seed: u64,
) -> Result<System, String> {
    let mut sys = campaign_machine(cfg, name, run_idx)?;
    let plan = FaultConfig {
        seed: fault_seed,
        ..cfg.faults
    };
    if cfg.tree.is_none() {
        sys.bus_mut().inject_faults(FaultPlan::new(plan));
        return Ok(sys);
    }
    let root = sys.bus_mut();
    root.inject_faults(FaultPlan::new(FaultConfig {
        bridges: true,
        ..plan
    }));
    root.enable_liveness(LIVENESS_DEADLINE);
    for leaf in 0..sys.leaves() {
        sys.leaf_fabric_mut(leaf)
            .bus_mut()
            .inject_faults(FaultPlan::new(FaultConfig {
                seed: fault_seed.wrapping_add((leaf as u64 + 1) << 32),
                glitch_rate: plan.glitch_rate,
                storm_rate: plan.storm_rate,
                max_storm_rounds: plan.max_storm_rounds,
                ..FaultConfig::default()
            }));
    }
    Ok(sys)
}

/// Bus `bus` of `sys` in fault-drain order: the root, then each leaf bus
/// below it.
fn fault_bus(sys: &mut System, bus: usize) -> &mut Futurebus {
    match bus {
        0 => sys.bus_mut(),
        leaf => sys.leaf_fabric_mut(leaf - 1).bus_mut(),
    }
}

/// Issues `s` on the campaign machine `sys`, returning a read's bytes.
///
/// Inclusion-tag soft errors are injected by the campaign itself (the
/// directory RAM is not in any transaction's fault path) and scrubbed
/// immediately: ECC detection precedes use, so no coherence action ever
/// trusts a corrupt tag. The scrubber reconstructs the tag from cluster
/// evidence alone; the record still gets a verdict. A single bus has no
/// tags to corrupt.
pub(crate) fn access(sys: &mut System, s: &CampaignStep) -> Option<Vec<u8>> {
    if let Some((bridge, line)) = sys.corrupt_inclusion_tag() {
        let _ = sys.scrub_inclusion_tag(bridge, line);
    }
    match s.write_byte {
        Some(byte) => {
            sys.write(s.lane, s.addr, &[byte; 4]);
            None
        }
        None => Some(sys.read(s.lane, s.addr, 4)),
    }
}

/// Runs `schedule` on `name`'s machine, auditing every fault after the
/// access it landed in.
fn execute_schedule(
    cfg: &CampaignConfig,
    name: &str,
    run_idx: u64,
    fault_seed: u64,
    schedule: &[CampaignStep],
) -> Result<ProtocolRun, String> {
    let mut sys = faulty_machine(cfg, name, run_idx, fault_seed)?;
    let mut checker = Checker::new(cfg.line_size);
    let mut run = ProtocolRun {
        protocol: name.to_string(),
        ..ProtocolRun::default()
    };
    // A single bus is both the root and the only leaf.
    let buses = if sys.depth() == 1 {
        1
    } else {
        1 + sys.leaves()
    };
    let mut cursors = vec![0usize; buses];

    for s in schedule {
        // The run loop is the serialisation point: the oracle records a
        // write before the machine performs it.
        if let Some(byte) = s.write_byte {
            checker.record_write(s.addr, &[byte; 4]);
        }
        let read_back = access(&mut sys, s);
        run.accesses += 1;
        run.bus_errors.extend(sys.drain_bus_errors());

        // Drain the faults every bus injected during this access, reconcile
        // the reported damage, and classify.
        let first_new = run.verdicts.len();
        for (bus, cursor) in cursors.iter_mut().enumerate() {
            let bus = fault_bus(&mut sys, bus);
            let plan = bus.fault_plan().expect("plan installed at build");
            let new = plan.records()[*cursor..].to_vec();
            *cursor += new.len();
            for record in new {
                let (class, note) = reconcile(&record, bus.memory_mut(), &mut checker);
                run.verdicts.push(FaultVerdict {
                    record,
                    class,
                    note: note.into(),
                });
            }
        }
        // A kill can land mid-transaction on the very line this step is
        // writing: the master fills from the rolled-back memory and merges
        // its bytes on top, so the write *survives* even though the rest of
        // the line reverted. The kill reconciliation above set the golden
        // line to bare memory; re-apply the step's write on top of it.
        let killed = run.verdicts[first_new..].iter().any(|v| {
            matches!(
                v.record.fault,
                InjectedFault::Kill { .. } | InjectedFault::BridgeKill { .. }
            )
        });
        if let (true, Some(byte)) = (killed, s.write_byte) {
            checker.record_write(s.addr, &[byte; 4]);
        }

        // With all reported damage reconciled, anything still wrong is
        // silent corruption: the read must match the golden image and every
        // structural invariant must hold.
        let broken = read_back
            .and_then(|got| checker.check_read(s.lane, s.addr, &got).err())
            .or_else(|| sys.verify_against(&checker).err());
        if let Some(v) = broken {
            run.violations.push(format!("step {}: {v}", s.step));
            for verdict in &mut run.verdicts[first_new..] {
                verdict.class = FaultClass::Silent;
                verdict.note = format!("post-recovery violation: {v}");
            }
            break; // the machine state is poisoned; stop this run
        }
    }

    run.retired = sys.bus().retired();
    run.bus_stats = *sys.bus_stats();
    run.phase_hist = *sys.bus().phase_histograms();
    run.tree.degraded_clusters = sys.degraded_clusters();
    run.tree.parent_errors = sys.parent_errors().to_vec();
    for bridge in sys.bridges_preorder() {
        let stats = bridge.stats();
        run.tree.dirty_at_retire += stats.dirty_at_retire;
        run.tree.salvaged_lines += stats.salvaged_lines;
        run.tree.lost_lines += stats.lost_lines;
    }
    Ok(run)
}

/// Reconciles one fault's reported damage against `memory`, the memory of
/// the bus that injected it, and returns its provisional class (flipped to
/// `Silent` by the caller if the post-recovery audit fails) with a note on
/// the recovery; the record itself names the victim.
fn reconcile(
    record: &FaultRecord,
    memory: &mut SparseMemory,
    checker: &mut Checker,
) -> (FaultClass, &'static str) {
    match &record.fault {
        InjectedFault::Glitch { .. } => {
            (FaultClass::Masked, "absorbed by the wired-OR settle window")
        }
        InjectedFault::AbortStorm { .. } => (
            FaultClass::Detected,
            "phantom BS rounds drained by bounded retry with backoff",
        ),
        InjectedFault::Stall { .. } => (
            FaultClass::Detected,
            "watchdog retired the module; its dirty lines salvaged to memory",
        ),
        InjectedFault::BridgeStall { .. } => (
            FaultClass::Detected,
            "watchdog retired the bridge; its dirty lines salvaged by synthetic push \
             rounds; cluster degraded to memory-direct",
        ),
        InjectedFault::Kill { lost, .. } | InjectedFault::BridgeKill { lost, .. } => {
            // The loss is reported: accept the rolled-back memory image as
            // the new truth. Survivor copies were invalidated by the
            // watchdog; any divergence beyond that is silent corruption.
            for addr in lost {
                checker.record_write(*addr, memory.peek(*addr));
            }
            (
                FaultClass::Detected,
                "watchdog retired the victim; its dirty lines lost (reported, survivors \
                 invalidated)",
            )
        }
        InjectedFault::CorruptMemory { addr, .. } => {
            // On a tree the scrubber may restore a line a cluster currently
            // owns — root memory is then *supposed* to be stale, but golden
            // is still the safest restoration (the owner's push will
            // overwrite it), and the corruption itself remains reported.
            let golden = checker.golden_bytes(*addr, memory.line_size());
            let diverged = memory.peek(*addr) != golden;
            memory.write_line(*addr, &golden);
            (
                FaultClass::Detected,
                if diverged {
                    "scrubber found memory diverged from the golden image; restored"
                } else {
                    "corruption landed on already-stale bytes; scrubbed anyway"
                },
            )
        }
        InjectedFault::StaleTag { .. } => (
            FaultClass::Detected,
            "directory parity hit; tag reconstructed from cluster evidence",
        ),
    }
}

// ---------------------------------------------------------------------------
// Liveness probe: the seeded adversarial workload of §2.1's arbitration
// story. A phantom-BS storm longer than the retry budget livelocks a naive
// flat-retry bus; capped exponential backoff bounds the waste but still hits
// the cutoff; arbitration priority aging recovers outright.
// ---------------------------------------------------------------------------

/// One retry-policy configuration's outcome under the adversarial storm.
#[derive(Clone, Debug)]
pub struct LivenessOutcome {
    /// Configuration label: `flat-retry`, `capped-backoff` or
    /// `capped+aging`.
    pub label: String,
    /// Bus transactions that committed.
    pub committed: u64,
    /// Bus transactions that hit the retry cutoff (each degraded one access).
    pub failed: u64,
    /// Starvation events the liveness watchdog flagged.
    pub liveness_violations: u64,
    /// Largest abort count any single transaction saw.
    pub max_txn_aborts: u64,
    /// Phantom-storm promotions granted by priority aging.
    pub aging_promotions: u64,
    /// Total nanoseconds spent backing off.
    pub backoff_ns: u64,
}

/// The three-way comparison the liveness probe produces.
#[derive(Clone, Debug)]
pub struct LivenessProbe {
    /// Outcomes in escalation order: flat retry, capped backoff, capped
    /// backoff + priority aging.
    pub outcomes: Vec<LivenessOutcome>,
}

impl LivenessProbe {
    /// The probe's claim, checkable: flat retry livelocked (every transaction
    /// starved), and the aged configuration recovered (no violations, some
    /// promotions).
    #[must_use]
    pub fn demonstrates_recovery(&self) -> bool {
        let flat = self.outcomes.iter().find(|o| o.label == "flat-retry");
        let aged = self.outcomes.iter().find(|o| o.label == "capped+aging");
        match (flat, aged) {
            (Some(flat), Some(aged)) => {
                flat.liveness_violations > 0
                    && flat.committed == 0
                    && aged.liveness_violations == 0
                    && aged.failed == 0
                    && aged.aging_promotions > 0
            }
            _ => false,
        }
    }
}

impl fmt::Display for LivenessProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "liveness probe: phantom-BS storm of 32 rounds vs a 16-retry budget"
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:>14}: {} committed, {} failed, {} starvations, max {} aborts/txn, \
                 {} promotions, {} ns backing off",
                o.label,
                o.committed,
                o.failed,
                o.liveness_violations,
                o.max_txn_aborts,
                o.aging_promotions,
                o.backoff_ns
            )?;
        }
        write!(
            f,
            "verdict: {}",
            if self.demonstrates_recovery() {
                "flat retry livelocks; capped backoff + priority aging recovers"
            } else {
                "UNEXPECTED — adversarial scenario did not behave as claimed"
            }
        )
    }
}

/// Runs the adversarial liveness scenario three times — naive flat retry,
/// capped exponential backoff, and capped backoff with §2.1 priority aging —
/// on identical seeded workloads and storm plans, and reports the per-policy
/// ledgers. The storm outlasts the retry budget (32 rounds vs 16 retries), so
/// it defeats any policy that cannot break the phase lock; only aging
/// commits every transaction.
///
/// # Errors
///
/// Returns a message when `steps` is zero.
pub fn run_liveness_probe(seed: u64, steps: u64) -> Result<LivenessProbe, String> {
    if steps == 0 {
        return Err("steps must be non-zero".into());
    }
    let configs: [(&str, RetryPolicy); 3] = [
        (
            "flat-retry",
            RetryPolicy {
                flat_retry: true,
                ..RetryPolicy::default()
            },
        ),
        ("capped-backoff", RetryPolicy::default()),
        (
            "capped+aging",
            RetryPolicy {
                aging_rounds: 8,
                ..RetryPolicy::default()
            },
        ),
    ];
    // Two MOESI caches on one bus, built as the flat campaign builds them.
    let machine = CampaignConfig {
        cpus: 2,
        seed,
        ..CampaignConfig::default()
    };
    let mut outcomes = Vec::new();
    for (label, policy) in configs {
        let mut sys = campaign_machine(&machine, "moesi", 0)?;
        let bus = sys.bus_mut();
        bus.set_retry_policy(policy);
        bus.enable_liveness(2);
        // Every transaction storms for longer than the retry budget.
        bus.inject_faults(FaultPlan::new(FaultConfig {
            seed: seed ^ 0x57_0B,
            storm_rate: 1.0,
            max_storm_rounds: 32,
            ..FaultConfig::default()
        }));
        let mut rng = SmallRng::seed_from_u64(seed);
        for step in 0..steps {
            // Ping-pong writes to a small shared set so every access needs
            // the bus (invalidate or broadcast traffic), keeping the storm
            // in the arbitration path of both masters.
            let cpu = (step % 2) as usize;
            let addr = (step % 4) * 16;
            let byte = rng.gen_range(0u16..256) as u8;
            sys.write(cpu, addr, &[byte; 4]);
        }
        let failed = sys.drain_bus_errors().len() as u64;
        let stats = sys.bus_stats();
        let monitor = sys.bus().liveness().expect("liveness enabled above");
        let committed = (0..2).map(|m| monitor.progress(m).commits).sum();
        outcomes.push(LivenessOutcome {
            label: label.to_string(),
            committed,
            failed,
            liveness_violations: stats.liveness_violations,
            max_txn_aborts: stats.max_txn_aborts,
            aging_promotions: stats.aging_promotions,
            backoff_ns: stats.backoff_ns,
        });
    }
    Ok(LivenessProbe { outcomes })
}

// ---------------------------------------------------------------------------
// JSON reports (house style, `moesi::json`): machine-readable campaign
// output for CI gates and trend dashboards.
// ---------------------------------------------------------------------------

/// Renders a campaign report as a JSON object, including the
/// lost/salvaged-line and retry/backoff counters; a tree's report adds its
/// shape, the bridge ledger and the liveness violations.
#[must_use]
pub fn campaign_report_json(report: &CampaignReport) -> String {
    let ids = |list: &[usize]| array_u64(&list.iter().map(|&m| m as u64).collect::<Vec<_>>());
    let runs: Vec<String> = report
        .runs
        .iter()
        .map(|run| {
            let tally = run.tally();
            let (stats, tree) = (&run.bus_stats, &run.tree);
            let json = JsonObject::new()
                .string("protocol", &run.protocol)
                .number("accesses", run.accesses)
                .number("faults", run.verdicts.len())
                .number("masked", tally.class(FaultClass::Masked))
                .number("detected", tally.class(FaultClass::Detected))
                .number("silent", tally.class(FaultClass::Silent));
            let json = if report.tree.is_some() {
                json.raw("retired_bridges", &ids(&run.retired))
                    .raw("degraded_clusters", &ids(&tree.degraded_clusters))
                    .number("dirty_at_retire", tree.dirty_at_retire)
                    .number("salvaged_lines", tree.salvaged_lines)
                    .number("lost_lines", tree.lost_lines)
                    .number("parent_errors", tree.parent_errors.len())
                    .number("cluster_bus_errors", run.bus_errors.len())
            } else {
                json.raw("retired", &ids(&run.retired))
                    .number("bus_errors", run.bus_errors.len())
                    .number("salvaged_lines", stats.salvaged_lines)
                    .number("lost_lines", stats.lost_lines)
            };
            json.number("retries", stats.retries)
                .number("backoff_ns", stats.backoff_ns)
                .number("max_txn_aborts", stats.max_txn_aborts)
                .number("liveness_violations", stats.liveness_violations)
                .number("aging_promotions", stats.aging_promotions)
                .finish()
        })
        .collect();
    let tally = report.tally();
    let json = match report.tree {
        None => JsonObject::new().string("campaign", "flat"),
        Some(t) => JsonObject::new()
            .string("campaign", "hierarchy")
            .number("depth", t.depth)
            .number("fanout", t.fanout)
            .number("clusters", t.clusters)
            .number("leaves", t.leaves()),
    };
    let json = json
        .number("protocols", report.runs.len())
        .number("injected", tally.injected())
        .number("silent", tally.silent())
        .number("retirements", report.retirements());
    let json = match report.tree {
        None => json,
        Some(_) => json.number("liveness_violations", report.liveness_violations()),
    };
    json.raw("runs", &format!("[{}]", runs.join(", "))).finish()
}

/// Renders a liveness probe as a JSON object.
#[must_use]
pub fn liveness_probe_json(probe: &LivenessProbe) -> String {
    let outcomes: Vec<String> = probe
        .outcomes
        .iter()
        .map(|o| {
            JsonObject::new()
                .string("policy", &o.label)
                .number("committed", o.committed)
                .number("failed", o.failed)
                .number("liveness_violations", o.liveness_violations)
                .number("max_txn_aborts", o.max_txn_aborts)
                .number("aging_promotions", o.aging_promotions)
                .number("backoff_ns", o.backoff_ns)
                .finish()
        })
        .collect();
    JsonObject::new()
        .string("probe", "liveness")
        .number("recovery_demonstrated", probe.demonstrates_recovery())
        .raw("outcomes", &format!("[{}]", outcomes.join(", ")))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            protocols: vec!["moesi".into()],
            steps: 300,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn loaded_tables_run_under_the_table_engine_by_name() {
        // A table whose name matches a protocol entry shadows the shipped
        // registry: the campaign runs it via `TablePolicy` and it must
        // degrade as gracefully as the hand-written original.
        let table = PolicyTable::preferred("loaded-preferred", CacheKind::CopyBack);
        let cfg = CampaignConfig {
            protocols: vec!["loaded-preferred".into()],
            tables: vec![table],
            steps: 300,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert_eq!(report.runs[0].protocol, "loaded-preferred");
        assert!(tally.injected() > 0, "faults must land");
        assert_eq!(tally.silent(), 0, "loaded table corrupted silently");
        // Without the table, the same name is unknown.
        let missing = CampaignConfig {
            tables: Vec::new(),
            ..cfg
        };
        assert!(run_campaign(&missing)
            .unwrap_err()
            .contains("loaded-preferred"));
    }

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = quick_cfg();
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.tally(), b.tally());
        assert_eq!(a.runs[0].retired, b.runs[0].retired);
        assert_eq!(a.runs[0].bus_stats, b.runs[0].bus_stats);
    }

    #[test]
    fn sharded_campaigns_match_sequential_ones() {
        let base = CampaignConfig {
            steps: 250,
            ..CampaignConfig::default()
        };
        let seq = run_campaign(&CampaignConfig {
            jobs: 1,
            ..base.clone()
        })
        .unwrap();
        let par = run_campaign(&CampaignConfig { jobs: 4, ..base }).unwrap();
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(&par.runs) {
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.accesses, b.accesses);
            assert_eq!(a.verdicts.len(), b.verdicts.len());
            assert_eq!(a.retired, b.retired);
            assert_eq!(a.bus_stats, b.bus_stats);
            assert_eq!(a.phase_hist, b.phase_hist);
        }
    }

    #[test]
    fn sharded_campaign_is_byte_identical_for_any_worker_count() {
        let base = CampaignConfig {
            protocols: vec!["moesi".into(), "dragon".into()],
            steps: 400,
            ..CampaignConfig::default()
        };
        let one = run_campaign(&CampaignConfig {
            shards: 1,
            ..base.clone()
        })
        .unwrap();
        let four = run_campaign(&CampaignConfig { shards: 4, ..base }).unwrap();
        assert_eq!(
            campaign_report_json(&one),
            campaign_report_json(&four),
            "fixed partition, merged in region order"
        );
        assert!(
            one.tally().injected() > 0,
            "faults must land on the sharded path"
        );
        assert_eq!(one.tally().silent(), 0);
        // Each protocol's accesses cover the full schedule: partitioning
        // never drops a step.
        for run in &one.runs {
            assert_eq!(run.accesses, 400, "{}", run.protocol);
        }
    }

    #[test]
    fn histograms_cover_every_access_and_sum_to_busy_ns() {
        let report = run_campaign(&quick_cfg()).unwrap();
        let run = &report.runs[0];
        assert!(run.phase_hist.phase(futurebus::Phase::Arbitrate).samples() > 0);
        let charged: u64 = run.phase_hist.sums().iter().sum();
        assert_eq!(charged, run.bus_stats.busy_ns);
        assert_eq!(run.bus_stats.phase_total_ns(), run.bus_stats.busy_ns);
    }

    #[test]
    fn a_saturated_storm_degrades_the_run_instead_of_killing_it() {
        // Storm every arbitration for more rounds than the retry budget:
        // every bus transaction fails with TooManyRetries. Pre-tolerant
        // fabrics panicked here and took the whole campaign process down;
        // now each failure is logged and the access degrades to memory.
        let cfg = CampaignConfig {
            protocols: vec!["moesi".into()],
            steps: 40,
            faults: FaultConfig {
                storm_rate: 1.0,
                max_storm_rounds: 32,
                ..FaultConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg).unwrap();
        let run = &report.runs[0];
        assert!(!run.bus_errors.is_empty(), "errors must be recorded");
        assert!(
            run.bus_errors[0].contains("aborted"),
            "{}",
            run.bus_errors[0]
        );
        assert!(run.accesses > 0, "the campaign keeps making progress");
    }

    #[test]
    fn an_inert_plan_injects_nothing_and_stays_clean() {
        let cfg = CampaignConfig {
            protocols: vec!["moesi".into(), "write-through".into()],
            steps: 200,
            faults: FaultConfig::default(),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert_eq!(tally.injected(), 0);
        assert_eq!(tally.silent(), 0);
        assert_eq!(report.retirements(), 0);
    }

    #[test]
    fn unknown_protocols_are_reported() {
        let cfg = CampaignConfig {
            protocols: vec!["mesif".into()],
            ..CampaignConfig::default()
        };
        let err = run_campaign(&cfg).unwrap_err();
        assert!(err.contains("mesif"), "{err}");
    }

    #[test]
    fn empty_geometry_is_rejected() {
        let cfg = CampaignConfig {
            steps: 0,
            ..CampaignConfig::default()
        };
        assert!(run_campaign(&cfg).is_err());
        assert!(run_campaign(&CampaignConfig {
            protocols: vec![],
            ..CampaignConfig::default()
        })
        .is_err());
    }

    #[test]
    fn glitches_alone_are_always_masked() {
        let cfg = CampaignConfig {
            protocols: vec!["moesi".into()],
            steps: 400,
            faults: FaultConfig {
                glitch_rate: 0.5,
                ..FaultConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert!(tally.injected() > 50, "glitches must actually land");
        assert_eq!(
            tally.count(FaultKind::Glitch, FaultClass::Masked),
            tally.injected(),
            "every glitch is absorbed by the settle window"
        );
        assert_eq!(tally.silent(), 0);
    }

    #[test]
    fn a_kill_landing_on_the_line_being_written_is_reported_not_silent() {
        // A kill can take the owner of the very line another module is
        // mid-write to: the master fills from the rolled-back memory and
        // merges its bytes on top. The audit must credit the surviving
        // write when it reconciles the loss, or the master's copy looks
        // silently stale. These parameters (matching
        // `moesi-sim faults --protocol moesi --kind kill --rate 0.5
        // --steps 600`) hit that interleaving.
        let cfg = CampaignConfig {
            protocols: vec!["moesi".into()],
            steps: 600,
            faults: FaultConfig {
                seed: 0xCA_FE ^ 0xFA_017,
                kill_rate: 0.005,
                max_storm_rounds: 4,
                ..FaultConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert!(
            tally.count(FaultKind::Kill, FaultClass::Detected) > 0,
            "kills must actually land: {report}"
        );
        assert_eq!(tally.silent(), 0, "{report}");
    }

    #[test]
    fn report_display_renders_the_verdict() {
        let report = run_campaign(&quick_cfg()).unwrap();
        let text = report.to_string();
        assert!(text.contains("fault campaign"), "{text}");
        assert!(text.contains("graceful degradation"), "{text}");
    }

    fn quick_hierarchy_cfg() -> CampaignConfig {
        CampaignConfig {
            protocols: vec!["moesi".into()],
            steps: 400,
            ..CampaignConfig::hierarchy()
        }
    }

    #[test]
    fn hierarchy_campaign_keeps_every_fault_loud() {
        let report = run_campaign(&quick_hierarchy_cfg()).unwrap();
        let tally = report.tally();
        let run = &report.runs[0];
        assert!(tally.injected() > 0, "faults must actually land");
        assert_eq!(tally.silent(), 0, "{report}");
        assert_eq!(
            run.tree.salvaged_lines + run.tree.lost_lines,
            run.tree.dirty_at_retire,
            "every dirty line owned at retirement is salvaged or reported lost"
        );
    }

    #[test]
    fn default_hierarchy_campaign_meets_the_acceptance_bar() {
        // The bar the CI smoke enforces: >= 1000 injected faults across
        // >= 4 protocols x 2 clusters, zero silent, and — because storms
        // stay within the retry budget — zero liveness violations on a
        // clean (non-adversarial) run.
        let cfg = CampaignConfig::hierarchy();
        let report = run_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert!(cfg.protocols.len() >= 4);
        assert_eq!(cfg.tree.map(|t| t.clusters), Some(2));
        assert!(
            tally.injected() >= 1000,
            "only {} faults injected",
            tally.injected()
        );
        assert_eq!(tally.silent(), 0, "{report}");
        assert_eq!(
            report.liveness_violations(),
            0,
            "in-budget storms must never starve a master: {report}"
        );
        for run in &report.runs {
            assert_eq!(
                run.tree.salvaged_lines + run.tree.lost_lines,
                run.tree.dirty_at_retire,
                "{}: dirty-line ledger must balance",
                run.protocol
            );
            assert_eq!(run.retired, run.tree.degraded_clusters);
            assert!(
                run.bus_stats.max_txn_aborts <= u64::from(RetryPolicy::default().abort_bound()),
                "{}: retry budget exceeded",
                run.protocol
            );
        }
    }

    #[test]
    fn sharded_hierarchy_campaigns_match_sequential_ones() {
        let base = quick_hierarchy_cfg();
        let seq = run_campaign(&CampaignConfig {
            jobs: 1,
            protocols: vec!["moesi".into(), "dragon".into()],
            ..base.clone()
        })
        .unwrap();
        let par = run_campaign(&CampaignConfig {
            jobs: 4,
            protocols: vec!["moesi".into(), "dragon".into()],
            ..base
        })
        .unwrap();
        assert_eq!(campaign_report_json(&seq), campaign_report_json(&par));
    }

    #[test]
    fn deep_hierarchy_campaign_keeps_every_fault_loud() {
        let cfg = CampaignConfig {
            tree: Some(TreeShape {
                clusters: 2,
                depth: 3,
                fanout: 2,
            }),
            steps: 700,
            ..quick_hierarchy_cfg()
        };
        let report = run_campaign(&cfg).unwrap();
        let tally = report.tally();
        let tree = report.tree.expect("a tree campaign");
        assert_eq!((tree.depth, tree.fanout), (3, 2));
        assert_eq!(tree.leaves(), 4, "2 clusters x fanout 2 at depth 3");
        assert!(tally.injected() > 0, "faults must land on the deep tree");
        assert_eq!(tally.silent(), 0, "{report}");
        for run in &report.runs {
            assert_eq!(
                run.tree.salvaged_lines + run.tree.lost_lines,
                run.tree.dirty_at_retire,
                "{}: dirty-line ledger must balance on the deep tree",
                run.protocol
            );
        }
        let json = campaign_report_json(&report);
        assert!(json.contains("\"depth\": 3"), "{json}");
        assert!(json.contains("\"leaves\": 4"), "{json}");
        // Sharding invariance holds for the deep tree too.
        let par = run_campaign(&CampaignConfig { jobs: 4, ..cfg }).unwrap();
        assert_eq!(json, campaign_report_json(&par));
    }

    #[test]
    fn hierarchy_campaign_rejects_bad_geometry() {
        let tree = |depth, fanout| CampaignConfig {
            tree: Some(TreeShape {
                clusters: 2,
                depth,
                fanout,
            }),
            ..quick_hierarchy_cfg()
        };
        let err = run_campaign(&tree(1, 2)).unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
        let err = run_campaign(&tree(3, 0)).unwrap_err();
        assert!(err.contains("fanout"), "{err}");
    }

    #[test]
    fn liveness_probe_shows_livelock_then_recovery() {
        let probe = run_liveness_probe(7, 24).unwrap();
        assert!(probe.demonstrates_recovery(), "{probe}");
        let flat = &probe.outcomes[0];
        assert_eq!(flat.label, "flat-retry");
        assert_eq!(flat.committed, 0, "flat retry must livelock: {probe}");
        assert!(flat.liveness_violations > 0, "{probe}");
        let capped = &probe.outcomes[1];
        assert_eq!(capped.label, "capped-backoff");
        assert!(
            capped.max_txn_aborts <= u64::from(RetryPolicy::default().abort_bound()),
            "capped backoff bounds the waste per transaction: {probe}"
        );
        let aged = &probe.outcomes[2];
        assert_eq!(aged.label, "capped+aging");
        assert_eq!(aged.failed, 0, "aging must recover every master: {probe}");
        assert_eq!(aged.liveness_violations, 0, "{probe}");
        assert!(aged.aging_promotions > 0, "{probe}");
    }

    #[test]
    fn json_reports_render_house_style() {
        let flat = run_campaign(&quick_cfg()).unwrap();
        let flat_json = campaign_report_json(&flat);
        assert!(flat_json.starts_with('{') && flat_json.ends_with('}'));
        assert!(flat_json.contains("\"campaign\": \"flat\""), "{flat_json}");
        assert!(flat_json.contains("\"retries\": "), "{flat_json}");
        assert!(flat_json.contains("\"salvaged_lines\": "), "{flat_json}");

        let hier = run_campaign(&quick_hierarchy_cfg()).unwrap();
        let hier_json = campaign_report_json(&hier);
        assert!(
            hier_json.contains("\"campaign\": \"hierarchy\""),
            "{hier_json}"
        );
        assert!(
            hier_json.contains("\"degraded_clusters\": ["),
            "{hier_json}"
        );

        let probe = run_liveness_probe(7, 24).unwrap();
        let probe_json = liveness_probe_json(&probe);
        assert!(
            probe_json.contains("\"recovery_demonstrated\": true"),
            "{probe_json}"
        );
        assert!(
            probe_json.contains("\"policy\": \"flat-retry\""),
            "{probe_json}"
        );
    }
}
