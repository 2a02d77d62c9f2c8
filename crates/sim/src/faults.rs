//! Fault-injection campaigns: prove the protocol class degrades gracefully.
//!
//! A campaign runs a seeded workload over one machine per protocol with a
//! [`FaultPlan`] installed on the bus, then audits every injected fault with
//! the consistency oracle and classifies it:
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
use futurebus::{BusStats, PhaseHistograms, RetryPolicy, TimingConfig};
use moesi::json::{array_u64, JsonObject};
use moesi::protocols::by_name;
use moesi::rng::SmallRng;
use moesi::{CacheKind, PolicyTable, Protocol, TablePolicy};
use std::collections::BTreeMap;
use std::fmt;

use crate::checker::Checker;
use crate::controller::CacheController;
use crate::fabric::Fabric;
use crate::hierarchy::{HierarchicalSystem, ParentError, TreeBuilder};

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
/// silent corruptions observed after recovery. Both campaign kinds count
/// and render their runs and reports through it.
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

/// Campaign shape: protocols, machine geometry, workload and fault rates.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Protocol names (see `moesi::protocols::by_name`), one homogeneous
    /// machine per entry.
    pub protocols: Vec<String>,
    /// Processors per machine.
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

/// One protocol's campaign outcome.
#[derive(Clone, Debug)]
pub struct ProtocolRun {
    /// The protocol name the machine ran.
    pub protocol: String,
    /// Processor accesses executed.
    pub accesses: u64,
    /// Every injected fault with its verdict, in injection order.
    pub verdicts: Vec<FaultVerdict>,
    /// Modules the watchdog retired — ascending for a whole-machine run; a
    /// sharded run concatenates its region machines' lists in region order.
    pub retired: Vec<usize>,
    /// Invariant/read violations observed after recovery (silent corruption;
    /// the run stops at the first one).
    pub violations: Vec<String>,
    /// Bus errors the fabric survived in tolerant mode (each degraded one
    /// access to a memory-direct fallback — detected, not process-fatal).
    pub bus_errors: Vec<String>,
    /// Bus statistics at the end of the run.
    pub bus_stats: BusStats,
    /// Per-phase latency histograms accumulated over the run.
    pub phase_hist: PhaseHistograms,
}

impl ProtocolRun {
    /// This run's fault tally.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally::new(&self.verdicts, self.violations.len())
    }
}

impl fmt::Display for ProtocolRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} accesses, {} faults{}",
            self.protocol,
            self.accesses,
            self.verdicts.len(),
            self.tally()
        )?;
        if !self.retired.is_empty() {
            write!(f, "\n    retired modules: {:?}", self.retired)?;
        }
        if !self.bus_errors.is_empty() {
            write!(f, "\n    bus errors survived: {}", self.bus_errors.len())?;
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
    /// Per-protocol results, in configuration order.
    pub runs: Vec<ProtocolRun>,
}

impl CampaignReport {
    /// The fault tally across all runs.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally::new(
            self.runs.iter().flat_map(|r| &r.verdicts),
            self.runs.iter().map(|r| r.violations.len()).sum(),
        )
    }

    /// Total watchdog retirements across all runs.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.runs.iter().map(|r| r.retired.len() as u64).sum()
    }

    /// Campaign-wide phase latency histograms, merged over the runs in job
    /// (configuration) order so the aggregate is independent of `jobs`.
    #[must_use]
    pub fn phase_hist(&self) -> PhaseHistograms {
        crate::campaign::merge_phase_histograms(self.runs.iter().map(|r| r.phase_hist))
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_report(f, "fault campaign", &self.runs, &self.tally())
    }
}

/// The report text both campaign kinds share: a header line with the
/// totals, one line per run, and the verdict.
fn write_report<R: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    title: &str,
    runs: &[R],
    tally: &Tally,
) -> fmt::Result {
    writeln!(
        f,
        "{title}: {} protocols, {} faults injected, {} silent",
        runs.len(),
        tally.injected(),
        tally.silent()
    )?;
    for run in runs {
        writeln!(f, "  {run}")?;
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

/// Runs a fault-injection campaign: for each protocol, a seeded workload on a
/// faulty bus, with every injected fault audited and classified.
///
/// # Errors
///
/// Returns a message when a protocol name is unknown or the geometry is
/// unusable (zero cpus/steps/lines).
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    if cfg.protocols.is_empty() {
        return Err("no protocols given".into());
    }
    if cfg.cpus == 0 || cfg.steps == 0 || cfg.lines == 0 {
        return Err("cpus, steps and lines must all be non-zero".into());
    }
    if cfg.shards > 0 {
        return run_campaign_sharded(cfg);
    }
    // Every protocol's machine is independent, so shard them across the
    // pool; `run_jobs` hands results back in protocol order, keeping the
    // report identical for any worker count.
    let jobs: Vec<(u64, String)> = cfg
        .protocols
        .iter()
        .enumerate()
        .map(|(run_idx, name)| (run_idx as u64, name.clone()))
        .collect();
    let runs = crate::campaign::run_jobs(jobs, cfg.jobs, |(run_idx, name)| {
        let schedule = plan_schedule(cfg, run_idx);
        execute_schedule(cfg, &name, cfg.faults.seed.wrapping_add(run_idx), &schedule)
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    Ok(CampaignReport { runs })
}

/// The sharded campaign: one flat protocol × region task pool on
/// `cfg.shards` workers, merged per protocol in region order. The region a
/// step belongs to is a pure function of its line address, and each region
/// machine's fault seed is derived from `(run_idx, region)`, so the merged
/// report is byte-identical for every worker count.
fn run_campaign_sharded(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    let regions = crate::SHARD_REGIONS;
    let mut tasks = Vec::with_capacity(cfg.protocols.len() * regions);
    for (run_idx, name) in cfg.protocols.iter().enumerate() {
        for region in 0..regions {
            tasks.push((run_idx as u64, name.clone(), region as u64));
        }
    }
    let results = crate::campaign::run_jobs(tasks, cfg.shards, |(run_idx, name, region)| {
        let schedule: Vec<CampaignStep> = plan_schedule(cfg, run_idx)
            .into_iter()
            .filter(|s| (s.addr / cfg.line_size as u64) % regions as u64 == region)
            .collect();
        let fault_seed = cfg
            .faults
            .seed
            .wrapping_add(run_idx * regions as u64 + region);
        execute_schedule(cfg, &name, fault_seed, &schedule)
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let runs = results.chunks(regions).map(merge_protocol_runs).collect();
    Ok(CampaignReport { runs })
}

/// Folds one protocol's region runs into a single [`ProtocolRun`], in
/// region order: counters and bus statistics sum, verdict/retirement/error
/// lists concatenate, histograms merge bucket-wise.
fn merge_protocol_runs(region_runs: &[ProtocolRun]) -> ProtocolRun {
    let mut merged = ProtocolRun {
        protocol: region_runs[0].protocol.clone(),
        accesses: 0,
        verdicts: Vec::new(),
        retired: Vec::new(),
        violations: Vec::new(),
        bus_errors: Vec::new(),
        bus_stats: BusStats::new(),
        phase_hist: PhaseHistograms::new(),
    };
    for run in region_runs {
        merged.accesses += run.accesses;
        merged.verdicts.extend(run.verdicts.iter().cloned());
        merged.retired.extend(run.retired.iter().copied());
        merged.violations.extend(run.violations.iter().cloned());
        merged.bus_errors.extend(run.bus_errors.iter().cloned());
        merged.bus_stats += run.bus_stats;
        merged.phase_hist.merge(&run.phase_hist);
    }
    merged
}

/// One pre-drawn access of the campaign workload.
#[derive(Clone, Copy, Debug)]
struct CampaignStep {
    /// The original step index (kept so violation messages name the same
    /// step sharded or not).
    step: u64,
    cpu: usize,
    addr: u64,
    /// `Some(byte)` writes `[byte; 4]`; `None` reads 4 bytes.
    write_byte: Option<u8>,
}

/// Pre-draws the whole access schedule for one protocol run. The draw order
/// per step — line, word, read/write coin, then the write byte only on a
/// write — exactly matches the order the execution loop used before the
/// schedule was materialised, so the unsharded campaign is byte-identical
/// to its pre-schedule ancestor; sharding then only *partitions* this list,
/// never re-draws it.
fn plan_schedule(cfg: &CampaignConfig, run_idx: u64) -> Vec<CampaignStep> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(run_idx));
    (0..cfg.steps)
        .map(|step| {
            let cpu = (step as usize) % cfg.cpus;
            let line = rng.gen_range(0..cfg.lines);
            let word = rng.gen_range(0..(cfg.line_size / 4) as u64);
            let addr = line * cfg.line_size as u64 + word * 4;
            let write_byte = rng.gen_bool(0.5).then(|| rng.gen_range(0u16..256) as u8);
            CampaignStep {
                step,
                cpu,
                addr,
                write_byte,
            }
        })
        .collect()
}

fn execute_schedule(
    cfg: &CampaignConfig,
    name: &str,
    fault_seed: u64,
    schedule: &[CampaignStep],
) -> Result<ProtocolRun, String> {
    let controllers: Vec<CacheController> = (0..cfg.cpus)
        .map(|id| {
            let protocol: Box<dyn Protocol + Send> =
                match cfg.tables.iter().find(|t| t.name() == name) {
                    Some(table) => Box::new(TablePolicy::new(*table)),
                    None => by_name(name, cfg.seed.wrapping_add(id as u64))
                        .ok_or_else(|| format!("unknown protocol `{name}`"))?,
                };
            let cache = (protocol.kind() != CacheKind::NonCaching)
                .then(|| CacheConfig::new(cfg.cache_bytes, cfg.line_size, 2, ReplacementKind::Lru));
            Ok(CacheController::new(
                id,
                protocol,
                cache,
                cfg.seed.wrapping_add(id as u64),
            ))
        })
        .collect::<Result<_, String>>()?;
    let mut fabric = Fabric::new(cfg.line_size, TimingConfig::default(), controllers);
    // A fault campaign must record bus errors as detected damage, not die
    // on them: errored accesses degrade to a memory-direct fallback and any
    // staleness they cause is the checker's to flag.
    fabric.tolerate_bus_errors(true);
    fabric.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
        seed: fault_seed,
        ..cfg.faults
    }));
    let mut checker = Checker::new(cfg.line_size);

    let mut run = ProtocolRun {
        protocol: name.to_string(),
        accesses: 0,
        verdicts: Vec::new(),
        retired: Vec::new(),
        violations: Vec::new(),
        bus_errors: Vec::new(),
        bus_stats: BusStats::new(),
        phase_hist: PhaseHistograms::new(),
    };
    let mut cursor = 0usize;
    let mut write_pieces: Vec<(u64, Vec<u8>)> = Vec::new();

    for &CampaignStep {
        step,
        cpu,
        addr,
        write_byte,
    } in schedule
    {
        write_pieces.clear();
        let read_back = if let Some(byte) = write_byte {
            let bytes = [byte; 4];
            let ck = &mut checker;
            let pieces = &mut write_pieces;
            fabric.write_with(cpu, addr, &bytes, |piece_addr, piece| {
                ck.record_write(piece_addr, piece);
                pieces.push((piece_addr, piece.to_vec()));
            });
            None
        } else {
            Some(fabric.read(cpu, addr, 4))
        };
        run.accesses += 1;
        run.bus_errors.extend(fabric.drain_bus_errors());

        // Drain faults the bus injected during this access, reconcile the
        // reported damage, and classify.
        let new: Vec<FaultRecord> = {
            let plan = fabric.bus().fault_plan().expect("plan installed above");
            plan.records()[cursor..].to_vec()
        };
        cursor += new.len();
        let first_new = run.verdicts.len();
        let mut killed = false;
        for record in new {
            killed |= matches!(record.fault, InjectedFault::Kill { .. });
            let (class, note) = audit(&record.fault, &mut fabric, &mut checker, cfg.line_size);
            run.verdicts.push(FaultVerdict {
                record,
                class,
                note,
            });
        }
        // A kill can land mid-transaction on the very line this step is
        // writing: the master fills from the rolled-back memory and merges
        // its bytes on top, so the write *survives* even though the rest of
        // the line reverted. The kill reconciliation above set the golden
        // line to bare memory; re-apply the step's write on top of it.
        if killed {
            for (piece_addr, piece) in &write_pieces {
                checker.record_write(*piece_addr, piece);
            }
        }

        // With all reported damage reconciled, anything still wrong is
        // silent corruption: the read must match the golden image and every
        // structural invariant must hold.
        let mut broken = None;
        if let Some(got) = read_back {
            if let Err(v) = checker.check_read(cpu, addr, &got) {
                broken = Some(v);
            }
        }
        if broken.is_none() {
            if let Err(v) = checker.verify(fabric.controllers(), fabric.bus().memory()) {
                broken = Some(v);
            }
        }
        if let Some(v) = broken {
            run.violations.push(format!("step {step}: {v}"));
            for verdict in &mut run.verdicts[first_new..] {
                verdict.class = FaultClass::Silent;
                verdict.note = format!("post-recovery violation: {v}");
            }
            break; // the machine state is poisoned; stop this run
        }
    }

    run.retired = fabric.bus().retired();
    run.bus_stats = *fabric.bus().stats();
    run.phase_hist = *fabric.bus().phase_histograms();
    Ok(run)
}

/// Reconciles one fault's reported damage and returns its provisional class
/// (flipped to `Silent` by the caller if the post-recovery audit fails).
fn audit(
    fault: &InjectedFault,
    fabric: &mut Fabric,
    checker: &mut Checker,
    line_size: usize,
) -> (FaultClass, String) {
    match fault {
        InjectedFault::Glitch { .. } => (
            FaultClass::Masked,
            "absorbed by the wired-OR settle window".into(),
        ),
        InjectedFault::Stall { module, salvaged } => (
            FaultClass::Detected,
            format!(
                "watchdog retired m{module}; {} dirty lines salvaged to memory",
                salvaged.len()
            ),
        ),
        InjectedFault::Kill { module, lost } => {
            // The loss is reported: accept the rolled-back memory image as
            // the new truth. Any divergence beyond it is silent corruption.
            for addr in lost {
                checker.record_write(*addr, fabric.bus().memory().peek(*addr));
            }
            (
                FaultClass::Detected,
                format!(
                    "watchdog retired m{module}; {} dirty lines lost (reported, survivors invalidated)",
                    lost.len()
                ),
            )
        }
        InjectedFault::AbortStorm { rounds } => (
            FaultClass::Detected,
            format!("{rounds} phantom BS rounds drained by bounded retry with backoff"),
        ),
        InjectedFault::CorruptMemory { addr, .. } => {
            let golden = checker.golden_bytes(*addr, line_size);
            let diverged = fabric.bus().memory().peek(*addr) != golden;
            fabric.bus_mut().memory_mut().write_line(*addr, &golden);
            (
                FaultClass::Detected,
                if diverged {
                    "scrubber found memory diverged from the golden image; restored".into()
                } else {
                    "corruption landed on already-stale bytes; scrubbed anyway".into()
                },
            )
        }
        // Bridge-level faults only arise on a parent bus whose plan carries
        // `bridges: true`; a flat campaign never configures one. Classify
        // defensively so a misconfigured plan is visible, not fatal.
        InjectedFault::BridgeStall { .. }
        | InjectedFault::BridgeKill { .. }
        | InjectedFault::StaleTag { .. } => (
            FaultClass::Detected,
            "bridge-level fault on a flat (single-bus) campaign".into(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Hierarchy campaign: inject bridge-targeted faults into a two-level machine
// and prove the partition/recovery machinery never corrupts silently.
// ---------------------------------------------------------------------------

/// Hierarchy campaign shape: protocols, cluster geometry, workload and fault
/// rates. The parent bus gets the full plan (`bridges: true`, so stalls and
/// kills target bridges); each cluster bus gets a derived glitch/storm-only
/// plan — retiring an individual cache is the flat campaign's subject, here
/// the bridge is the victim.
#[derive(Clone, Debug)]
pub struct HierarchyCampaignConfig {
    /// Protocol names, one homogeneous hierarchy per entry.
    pub protocols: Vec<String>,
    /// Clusters per hierarchy (root-bus children).
    pub clusters: usize,
    /// Bus levels in the fabric tree: 2 is the classic two-level machine;
    /// deeper values interpose interior segments built by
    /// [`TreeBuilder::uniform`](crate::hierarchy::TreeBuilder::uniform).
    pub depth: usize,
    /// Children per interior segment when `depth > 2` (ignored at depth 2).
    pub fanout: usize,
    /// Caching processors per leaf cluster.
    pub cpus: usize,
    /// Bytes per line.
    pub line_size: usize,
    /// Cache capacity per node in bytes.
    pub cache_bytes: usize,
    /// Processor accesses per hierarchy.
    pub steps: u64,
    /// Distinct lines in the working set.
    pub lines: u64,
    /// Workload seed (the fault seed lives in
    /// [`HierarchyCampaignConfig::faults`]).
    pub seed: u64,
    /// Fault kinds and rates (see the field doc above for how they are split
    /// between the parent and cluster buses).
    pub faults: FaultConfig,
    /// Consecutive parent-bus retry-cutoff failures per master before the
    /// liveness watchdog flags starvation.
    pub liveness_deadline: u32,
    /// Worker threads sharding the per-protocol runs; the merged report is
    /// byte-identical for any value.
    pub jobs: usize,
}

impl Default for HierarchyCampaignConfig {
    fn default() -> Self {
        HierarchyCampaignConfig {
            protocols: vec![
                "moesi".into(),
                "dragon".into(),
                "write-through".into(),
                "berkeley".into(),
            ],
            clusters: 2,
            depth: 2,
            fanout: 2,
            cpus: 2,
            line_size: 16,
            cache_bytes: 1024,
            steps: 1500,
            lines: 48,
            seed: 0xCA_FE,
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
            liveness_deadline: 3,
            jobs: crate::campaign::default_jobs(),
        }
    }
}

/// One protocol's hierarchy campaign outcome.
#[derive(Clone, Debug)]
pub struct HierarchyRun {
    /// The protocol every cache in the hierarchy ran.
    pub protocol: String,
    /// Processor accesses executed.
    pub accesses: u64,
    /// Every injected fault (parent and cluster buses) with its verdict.
    pub verdicts: Vec<FaultVerdict>,
    /// Bridges the parent-bus watchdog retired, ascending.
    pub retired_bridges: Vec<usize>,
    /// Clusters running memory-direct degraded mode at the end of the run.
    pub degraded_clusters: Vec<usize>,
    /// Invariant/read violations observed after recovery (silent corruption;
    /// the run stops at the first one).
    pub violations: Vec<String>,
    /// Structured parent-bus errors the hierarchy survived.
    pub parent_errors: Vec<ParentError>,
    /// Cluster-bus errors survived in tolerant mode.
    pub cluster_bus_errors: Vec<String>,
    /// Parent-bus statistics at the end of the run.
    pub parent_stats: BusStats,
    /// Dirty lines owned by bridges at their retirement instants, summed.
    pub dirty_at_retire: u64,
    /// Of those, lines salvaged to parent memory by synthetic push rounds.
    pub salvaged_lines: u64,
    /// Of those, lines lost with their bridge (reported, never silent).
    pub lost_lines: u64,
}

impl HierarchyRun {
    /// This run's fault tally.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally::new(&self.verdicts, self.violations.len())
    }
}

impl fmt::Display for HierarchyRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} accesses, {} faults{}",
            self.protocol,
            self.accesses,
            self.verdicts.len(),
            self.tally()
        )?;
        if !self.retired_bridges.is_empty() {
            write!(
                f,
                "\n    retired bridges: {:?} ({} dirty lines: {} salvaged, {} lost)",
                self.retired_bridges, self.dirty_at_retire, self.salvaged_lines, self.lost_lines
            )?;
        }
        if !self.parent_errors.is_empty() || !self.cluster_bus_errors.is_empty() {
            write!(
                f,
                "\n    bus errors survived: {} parent, {} cluster",
                self.parent_errors.len(),
                self.cluster_bus_errors.len()
            )?;
        }
        if self.parent_stats.liveness_violations > 0 {
            write!(
                f,
                "\n    liveness violations: {}",
                self.parent_stats.liveness_violations
            )?;
        }
        for v in &self.violations {
            write!(f, "\n    SILENT CORRUPTION: {v}")?;
        }
        Ok(())
    }
}

/// A whole hierarchy campaign's outcome.
#[derive(Clone, Debug)]
pub struct HierarchyReport {
    /// Bus levels in each machine's fabric tree.
    pub depth: usize,
    /// Interior fan-out (meaningful when `depth > 2`).
    pub fanout: usize,
    /// Root-bus clusters per machine.
    pub clusters: usize,
    /// Leaf clusters per machine (== `clusters` at depth 2).
    pub leaves: usize,
    /// Per-protocol results, in configuration order.
    pub runs: Vec<HierarchyRun>,
}

impl HierarchyReport {
    /// The fault tally across all runs. Its `silent()` is the partition/
    /// recovery oracle's zero-silent-corruption bar: any nonzero value fails
    /// the campaign.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally::new(
            self.runs.iter().flat_map(|r| &r.verdicts),
            self.runs.iter().map(|r| r.violations.len()).sum(),
        )
    }

    /// Total bridge retirements across all runs.
    #[must_use]
    pub fn retirements(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.retired_bridges.len() as u64)
            .sum()
    }

    /// Total liveness violations the parent-bus watchdogs flagged.
    #[must_use]
    pub fn liveness_violations(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.parent_stats.liveness_violations)
            .sum()
    }
}

impl fmt::Display for HierarchyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_report(f, "hierarchy fault campaign", &self.runs, &self.tally())
    }
}

/// Runs a hierarchy fault campaign: for each protocol, a seeded workload on a
/// clustered machine whose parent bus injects bridge-targeted faults, with
/// every fault audited against [`HierarchicalSystem::verify`] and classified
/// masked / detected / silent.
///
/// # Errors
///
/// Returns a message when a protocol name is unknown or the geometry is
/// unusable.
pub fn run_hierarchy_campaign(cfg: &HierarchyCampaignConfig) -> Result<HierarchyReport, String> {
    if cfg.protocols.is_empty() {
        return Err("no protocols given".into());
    }
    if cfg.clusters == 0 || cfg.cpus == 0 || cfg.steps == 0 || cfg.lines == 0 {
        return Err("clusters, cpus, steps and lines must all be non-zero".into());
    }
    if cfg.depth < 2 {
        return Err("depth must be at least 2 (the two-level machine)".into());
    }
    if cfg.depth > 2 && cfg.fanout == 0 {
        return Err("fanout must be non-zero for trees deeper than two levels".into());
    }
    let jobs: Vec<(u64, String)> = cfg
        .protocols
        .iter()
        .enumerate()
        .map(|(run_idx, name)| (run_idx as u64, name.clone()))
        .collect();
    let runs = crate::campaign::run_jobs(jobs, cfg.jobs, |(run_idx, name)| {
        run_hierarchy_one(cfg, &name, run_idx)
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let per_interior = if cfg.depth > 2 { cfg.fanout } else { 1 };
    let leaves = cfg.clusters * per_interior.pow(cfg.depth.saturating_sub(2) as u32);
    Ok(HierarchyReport {
        depth: cfg.depth,
        fanout: cfg.fanout,
        clusters: cfg.clusters,
        leaves,
        runs,
    })
}

fn run_hierarchy_one(
    cfg: &HierarchyCampaignConfig,
    name: &str,
    run_idx: u64,
) -> Result<HierarchyRun, String> {
    // Validate the protocol name once, outside the builder closures.
    by_name(name, 0).ok_or_else(|| format!("unknown protocol `{name}`"))?;
    let cache = CacheConfig::new(cfg.cache_bytes, cfg.line_size, 2, ReplacementKind::Lru);
    let mut sys = TreeBuilder::uniform(
        cfg.line_size,
        cfg.clusters,
        cfg.depth,
        // Unused at depth 2, where it is not validated.
        cfg.fanout.max(1),
        cfg.cpus,
        |_, cpu| {
            let protocol =
                by_name(name, cfg.seed.wrapping_add(cpu as u64)).expect("validated above");
            let cache = (protocol.kind() != CacheKind::NonCaching).then_some(cache);
            (protocol, cache)
        },
    )
    .checking(true)
    .seed(cfg.seed.wrapping_add(run_idx))
    .build();
    let leaves = sys.leaves();
    let leaf_paths = sys.leaf_paths();
    // The campaign owns verification: reported damage is reconciled first,
    // then the oracle runs — only unreported divergence counts as silent.
    sys.tolerate_faults(true);
    sys.parent_bus_mut()
        .inject_faults(FaultPlan::new(FaultConfig {
            seed: cfg.faults.seed.wrapping_add(run_idx),
            bridges: true,
            ..cfg.faults
        }));
    sys.parent_bus_mut().enable_liveness(cfg.liveness_deadline);
    for leaf in 0..leaves {
        sys.leaf_fabric_mut(leaf)
            .bus_mut()
            .inject_faults(FaultPlan::new(FaultConfig {
                seed: cfg
                    .faults
                    .seed
                    .wrapping_add(run_idx)
                    .wrapping_add((leaf as u64 + 1) << 32),
                glitch_rate: cfg.faults.glitch_rate,
                storm_rate: cfg.faults.storm_rate,
                max_storm_rounds: cfg.faults.max_storm_rounds,
                ..FaultConfig::default()
            }));
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(run_idx));

    let mut run = HierarchyRun {
        protocol: name.to_string(),
        accesses: 0,
        verdicts: Vec::new(),
        retired_bridges: Vec::new(),
        degraded_clusters: Vec::new(),
        violations: Vec::new(),
        parent_errors: Vec::new(),
        cluster_bus_errors: Vec::new(),
        parent_stats: BusStats::new(),
        dirty_at_retire: 0,
        salvaged_lines: 0,
        lost_lines: 0,
    };
    let mut parent_cursor = 0usize;
    let mut cluster_cursors = vec![0usize; leaves];

    for step in 0..cfg.steps {
        // Inclusion-tag soft errors are injected by the campaign itself (the
        // directory RAM is not in any transaction's fault path) and scrubbed
        // immediately: ECC detection precedes use, so no coherence action
        // ever trusts a corrupt tag. The scrubber reconstructs the tag from
        // cluster evidence alone; the record still gets a verdict below.
        if let Some((cluster, line)) = sys.corrupt_inclusion_tag() {
            let _ = sys.scrub_inclusion_tag(cluster, line);
        }

        // Accesses address leaf clusters (== root clusters at depth 2, so
        // the draws and the access path are unchanged for the classic
        // two-level machine).
        let leaf = rng.gen_range(0..leaves as u64) as usize;
        let cpu = rng.gen_range(0..cfg.cpus as u64) as usize;
        let line = rng.gen_range(0..cfg.lines);
        let word = rng.gen_range(0..(cfg.line_size / 4) as u64);
        let addr = line * cfg.line_size as u64 + word * 4;
        let mut write_piece: Option<(u64, Vec<u8>)> = None;
        let read_back = if rng.gen_bool(0.5) {
            let bytes = vec![rng.gen_range(0u16..256) as u8; 4];
            sys.write_at(&leaf_paths[leaf], cpu, addr, &bytes);
            write_piece = Some((addr, bytes));
            None
        } else {
            Some(sys.read_at(&leaf_paths[leaf], cpu, addr, 4))
        };
        run.accesses += 1;
        run.cluster_bus_errors
            .extend(sys.drain_cluster_bus_errors());

        // Drain and audit the parent plan's injections from this step.
        let new: Vec<FaultRecord> = {
            let plan = sys.parent_bus().fault_plan().expect("plan installed above");
            plan.records()[parent_cursor..].to_vec()
        };
        parent_cursor += new.len();
        let first_new = run.verdicts.len();
        let mut killed = false;
        for record in new {
            killed |= matches!(record.fault, InjectedFault::BridgeKill { .. });
            let (class, note) = audit_hierarchy(&record.fault, &mut sys, cfg.line_size);
            run.verdicts.push(FaultVerdict {
                record,
                class,
                note,
            });
        }
        // Then each cluster bus's glitch/storm injections.
        for (c, cursor) in cluster_cursors.iter_mut().enumerate() {
            let new: Vec<FaultRecord> = {
                let plan = sys
                    .leaf_fabric(c)
                    .bus()
                    .fault_plan()
                    .expect("plan installed above");
                plan.records()[*cursor..].to_vec()
            };
            *cursor += new.len();
            for record in new {
                let (class, note) = match &record.fault {
                    InjectedFault::Glitch { .. } => (
                        FaultClass::Masked,
                        format!("cluster {c}: absorbed by the wired-OR settle window"),
                    ),
                    InjectedFault::AbortStorm { rounds } => (
                        FaultClass::Detected,
                        format!("cluster {c}: {rounds} phantom BS rounds drained by bounded retry"),
                    ),
                    other => (
                        FaultClass::Detected,
                        format!("cluster {c}: unexpected fault `{other}`"),
                    ),
                };
                run.verdicts.push(FaultVerdict {
                    record,
                    class,
                    note,
                });
            }
        }
        // A bridge kill can land mid-transaction on the very line this step
        // is writing; the kill reconciliation accepted the pre-kill memory as
        // truth, so re-apply the surviving write on top of it.
        if killed {
            if let Some((piece_addr, piece)) = &write_piece {
                sys.checker_mut()
                    .expect("campaign hierarchies run checked")
                    .record_write(*piece_addr, piece);
            }
        }

        // The partition/recovery oracle: with all reported damage reconciled,
        // anything still wrong is silent corruption.
        let mut broken = None;
        if let Some(got) = read_back {
            let global_cpu = leaf * cfg.cpus + cpu;
            if let Err(v) = sys
                .checker()
                .expect("campaign hierarchies run checked")
                .check_read(global_cpu, addr, &got)
            {
                broken = Some(v);
            }
        }
        if broken.is_none() {
            if let Err(v) = sys.verify() {
                broken = Some(v);
            }
        }
        if let Some(v) = broken {
            run.violations.push(format!("step {step}: {v}"));
            for verdict in &mut run.verdicts[first_new..] {
                verdict.class = FaultClass::Silent;
                verdict.note = format!("post-recovery violation: {v}");
            }
            break;
        }
    }

    run.retired_bridges = sys.parent_bus().retired();
    run.degraded_clusters = sys.degraded_clusters();
    run.parent_errors = sys.parent_errors().to_vec();
    run.parent_stats = *sys.parent_bus().stats();
    for bridge in sys.bridges_preorder() {
        let stats = bridge.stats();
        run.dirty_at_retire += stats.dirty_at_retire;
        run.salvaged_lines += stats.salvaged_lines;
        run.lost_lines += stats.lost_lines;
    }
    Ok(run)
}

/// Reconciles one parent-bus fault's reported damage against the hierarchy
/// and returns its provisional class.
fn audit_hierarchy(
    fault: &InjectedFault,
    sys: &mut HierarchicalSystem,
    line_size: usize,
) -> (FaultClass, String) {
    match fault {
        InjectedFault::Glitch { .. } => (
            FaultClass::Masked,
            "parent bus: absorbed by the wired-OR settle window".into(),
        ),
        InjectedFault::AbortStorm { rounds } => (
            FaultClass::Detected,
            format!("parent bus: {rounds} phantom BS rounds drained by bounded retry"),
        ),
        InjectedFault::BridgeStall { bridge, salvaged } => (
            FaultClass::Detected,
            format!(
                "watchdog retired bridge b{bridge}; {} dirty lines salvaged by synthetic \
                 push rounds; cluster degraded to memory-direct",
                salvaged.len()
            ),
        ),
        InjectedFault::BridgeKill { bridge, lost } => {
            // The loss is reported: accept the pre-kill parent memory as the
            // new truth for the lost lines. Survivor copies were invalidated
            // by the watchdog's synthetic invalidate rounds; anything beyond
            // that is silent corruption.
            for addr in lost {
                let mem = sys.parent_memory_peek(*addr, line_size);
                sys.checker_mut()
                    .expect("campaign hierarchies run checked")
                    .record_write(*addr, &mem);
            }
            (
                FaultClass::Detected,
                format!(
                    "watchdog retired bridge b{bridge}; {} dirty lines lost (reported, \
                     survivors invalidated); cluster degraded to memory-direct",
                    lost.len()
                ),
            )
        }
        InjectedFault::CorruptMemory { addr, .. } => {
            let golden = sys
                .checker()
                .expect("campaign hierarchies run checked")
                .golden_bytes(*addr, line_size);
            let diverged = sys.parent_memory_peek(*addr, line_size)[..] != golden[..];
            // The scrubber may restore a line a cluster currently owns — in
            // that case parent memory is *supposed* to be stale, but golden
            // is still the safest restoration (the owner's push will
            // overwrite it), and the corruption itself remains reported.
            sys.parent_bus_mut().memory_mut().write_line(*addr, &golden);
            (
                FaultClass::Detected,
                if diverged {
                    "scrubber found parent memory diverged from the golden image; restored".into()
                } else {
                    "corruption landed on already-stale bytes; scrubbed anyway".into()
                },
            )
        }
        InjectedFault::StaleTag {
            bridge,
            addr,
            from,
            to,
        } => (
            FaultClass::Detected,
            format!(
                "directory parity hit on b{bridge} @{addr:#x} ({from}->{to}); tag \
                 reconstructed from cluster evidence"
            ),
        ),
        InjectedFault::Stall { module, .. } | InjectedFault::Kill { module, .. } => (
            FaultClass::Detected,
            format!("flat-style retirement of parent module m{module} (bridges flag unset?)"),
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
    let mut outcomes = Vec::new();
    for (label, policy) in configs {
        let controllers: Vec<CacheController> = (0..2)
            .map(|id| {
                let protocol = by_name("moesi", seed.wrapping_add(id as u64))
                    .expect("moesi is a shipped protocol");
                CacheController::new(
                    id,
                    protocol,
                    Some(CacheConfig::new(1024, 16, 2, ReplacementKind::Lru)),
                    seed.wrapping_add(id as u64),
                )
            })
            .collect();
        let mut fabric = Fabric::new(16, TimingConfig::default(), controllers);
        fabric.tolerate_bus_errors(true);
        fabric.bus_mut().set_retry_policy(policy);
        fabric.bus_mut().enable_liveness(2);
        // Every transaction storms for longer than the retry budget.
        fabric.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
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
            let bytes = vec![rng.gen_range(0u16..256) as u8; 4];
            fabric.write_with(cpu, addr, &bytes, |_, _| {});
        }
        let failed = fabric.drain_bus_errors().len() as u64;
        let stats = fabric.bus().stats();
        let monitor = fabric.bus().liveness().expect("liveness enabled above");
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

/// Renders a flat campaign report as a JSON object, including the
/// lost/salvaged-line and retry/backoff counters.
#[must_use]
pub fn campaign_report_json(report: &CampaignReport) -> String {
    let runs: Vec<String> = report
        .runs
        .iter()
        .map(|run| {
            let retired: Vec<u64> = run.retired.iter().map(|&m| m as u64).collect();
            let tally = run.tally();
            JsonObject::new()
                .string("protocol", &run.protocol)
                .number("accesses", run.accesses)
                .number("faults", run.verdicts.len())
                .number("masked", tally.class(FaultClass::Masked))
                .number("detected", tally.class(FaultClass::Detected))
                .number("silent", tally.class(FaultClass::Silent))
                .raw("retired", &array_u64(&retired))
                .number("bus_errors", run.bus_errors.len())
                .number("salvaged_lines", run.bus_stats.salvaged_lines)
                .number("lost_lines", run.bus_stats.lost_lines)
                .number("retries", run.bus_stats.retries)
                .number("backoff_ns", run.bus_stats.backoff_ns)
                .number("max_txn_aborts", run.bus_stats.max_txn_aborts)
                .number("liveness_violations", run.bus_stats.liveness_violations)
                .number("aging_promotions", run.bus_stats.aging_promotions)
                .finish()
        })
        .collect();
    let tally = report.tally();
    JsonObject::new()
        .string("campaign", "flat")
        .number("protocols", report.runs.len())
        .number("injected", tally.injected())
        .number("silent", tally.silent())
        .number("retirements", report.retirements())
        .raw("runs", &format!("[{}]", runs.join(", ")))
        .finish()
}

/// Renders a hierarchy campaign report as a JSON object.
#[must_use]
pub fn hierarchy_report_json(report: &HierarchyReport) -> String {
    let runs: Vec<String> = report
        .runs
        .iter()
        .map(|run| {
            let retired: Vec<u64> = run.retired_bridges.iter().map(|&m| m as u64).collect();
            let degraded: Vec<u64> = run.degraded_clusters.iter().map(|&m| m as u64).collect();
            let tally = run.tally();
            JsonObject::new()
                .string("protocol", &run.protocol)
                .number("accesses", run.accesses)
                .number("faults", run.verdicts.len())
                .number("masked", tally.class(FaultClass::Masked))
                .number("detected", tally.class(FaultClass::Detected))
                .number("silent", tally.class(FaultClass::Silent))
                .raw("retired_bridges", &array_u64(&retired))
                .raw("degraded_clusters", &array_u64(&degraded))
                .number("dirty_at_retire", run.dirty_at_retire)
                .number("salvaged_lines", run.salvaged_lines)
                .number("lost_lines", run.lost_lines)
                .number("parent_errors", run.parent_errors.len())
                .number("cluster_bus_errors", run.cluster_bus_errors.len())
                .number("retries", run.parent_stats.retries)
                .number("backoff_ns", run.parent_stats.backoff_ns)
                .number("max_txn_aborts", run.parent_stats.max_txn_aborts)
                .number("liveness_violations", run.parent_stats.liveness_violations)
                .number("aging_promotions", run.parent_stats.aging_promotions)
                .finish()
        })
        .collect();
    let tally = report.tally();
    JsonObject::new()
        .string("campaign", "hierarchy")
        .number("depth", report.depth as u64)
        .number("fanout", report.fanout as u64)
        .number("clusters", report.clusters as u64)
        .number("leaves", report.leaves as u64)
        .number("protocols", report.runs.len())
        .number("injected", tally.injected())
        .number("silent", tally.silent())
        .number("retirements", report.retirements())
        .number("liveness_violations", report.liveness_violations())
        .raw("runs", &format!("[{}]", runs.join(", ")))
        .finish()
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

    fn quick_hierarchy_cfg() -> HierarchyCampaignConfig {
        HierarchyCampaignConfig {
            protocols: vec!["moesi".into()],
            steps: 400,
            ..HierarchyCampaignConfig::default()
        }
    }

    #[test]
    fn hierarchy_campaign_keeps_every_fault_loud() {
        let report = run_hierarchy_campaign(&quick_hierarchy_cfg()).unwrap();
        let tally = report.tally();
        let run = &report.runs[0];
        assert!(tally.injected() > 0, "faults must actually land");
        assert_eq!(tally.silent(), 0, "{report}");
        assert_eq!(
            run.salvaged_lines + run.lost_lines,
            run.dirty_at_retire,
            "every dirty line owned at retirement is salvaged or reported lost"
        );
    }

    #[test]
    fn default_hierarchy_campaign_meets_the_acceptance_bar() {
        // The bar the CI smoke enforces: >= 1000 injected faults across
        // >= 4 protocols x 2 clusters, zero silent, and — because storms
        // stay within the retry budget — zero liveness violations on a
        // clean (non-adversarial) run.
        let cfg = HierarchyCampaignConfig::default();
        let report = run_hierarchy_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert!(cfg.protocols.len() >= 4);
        assert_eq!(cfg.clusters, 2);
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
                run.salvaged_lines + run.lost_lines,
                run.dirty_at_retire,
                "{}: dirty-line ledger must balance",
                run.protocol
            );
            assert_eq!(run.retired_bridges, run.degraded_clusters);
            assert!(
                run.parent_stats.max_txn_aborts <= u64::from(RetryPolicy::default().abort_bound()),
                "{}: retry budget exceeded",
                run.protocol
            );
        }
    }

    #[test]
    fn sharded_hierarchy_campaigns_match_sequential_ones() {
        let base = quick_hierarchy_cfg();
        let seq = run_hierarchy_campaign(&HierarchyCampaignConfig {
            jobs: 1,
            protocols: vec!["moesi".into(), "dragon".into()],
            ..base.clone()
        })
        .unwrap();
        let par = run_hierarchy_campaign(&HierarchyCampaignConfig {
            jobs: 4,
            protocols: vec!["moesi".into(), "dragon".into()],
            ..base
        })
        .unwrap();
        assert_eq!(hierarchy_report_json(&seq), hierarchy_report_json(&par));
    }

    #[test]
    fn deep_hierarchy_campaign_keeps_every_fault_loud() {
        let cfg = HierarchyCampaignConfig {
            depth: 3,
            fanout: 2,
            steps: 700,
            ..quick_hierarchy_cfg()
        };
        let report = run_hierarchy_campaign(&cfg).unwrap();
        let tally = report.tally();
        assert_eq!((report.depth, report.fanout), (3, 2));
        assert_eq!(report.leaves, 4, "2 clusters x fanout 2 at depth 3");
        assert!(tally.injected() > 0, "faults must land on the deep tree");
        assert_eq!(tally.silent(), 0, "{report}");
        for run in &report.runs {
            assert_eq!(
                run.salvaged_lines + run.lost_lines,
                run.dirty_at_retire,
                "{}: dirty-line ledger must balance on the deep tree",
                run.protocol
            );
        }
        let json = hierarchy_report_json(&report);
        assert!(json.contains("\"depth\": 3"), "{json}");
        assert!(json.contains("\"leaves\": 4"), "{json}");
        // Sharding invariance holds for the deep tree too.
        let par = run_hierarchy_campaign(&HierarchyCampaignConfig { jobs: 4, ..cfg }).unwrap();
        assert_eq!(json, hierarchy_report_json(&par));
    }

    #[test]
    fn hierarchy_campaign_rejects_bad_geometry() {
        let err = run_hierarchy_campaign(&HierarchyCampaignConfig {
            depth: 1,
            ..quick_hierarchy_cfg()
        })
        .unwrap_err();
        assert!(err.contains("at least 2"), "{err}");
        let err = run_hierarchy_campaign(&HierarchyCampaignConfig {
            depth: 3,
            fanout: 0,
            ..quick_hierarchy_cfg()
        })
        .unwrap_err();
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

        let hier = run_hierarchy_campaign(&quick_hierarchy_cfg()).unwrap();
        let hier_json = hierarchy_report_json(&hier);
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
