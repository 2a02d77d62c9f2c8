//! Policy synthesis: search the Sweazey–Smith compatibility class.
//!
//! The §3 class is a *space* of protocols — any choice of one permitted
//! action per (state, event) cell is a class member, and every member
//! coexists with every other on the same bus. The paper picks a handful of
//! named points in that space; this crate searches it.
//!
//! The search is a steepest-ascent hill climb per workload:
//!
//! 1. **Starting pool** — every shipped exact-table copy-back class member
//!    (the hand-written protocols are presumably good points; starting from
//!    them means the winner can never be worse than the best of them).
//! 2. **Neighbourhood** — [`PolicyTable::neighbors`]: all tables differing
//!    from the current one in exactly one cell, the replacement drawn from
//!    that cell's permitted set. Closure over the permitted sets keeps every
//!    candidate in-class *by construction*; the feasibility oracles
//!    ([`PolicyTable::class_violations`] structurally, [`verify::verify_table`]
//!    exhaustively for finalists) re-check rather than prune.
//! 3. **Fitness** — [`bench::sweep::table_fitness`]: the candidate table run
//!    under the contention-aware timed model on the target workload, scored
//!    as accesses per simulated second. Candidate evaluations shard over
//!    [`mpsim::campaign::run_jobs`], and every selection is index-ordered,
//!    so the result is byte-identical for any `jobs` value.
//!
//! Finalists are audited three ways: structural class membership, bounded
//! exhaustive exploration against a MOESI peer, and a fault-injection
//! campaign (loaded into the machines by name via
//! `CampaignConfig::tables`) that must report zero silent corruption.
//!
//! The §5.2-style sensitivity study re-scores each workload's winner and the
//! whole starting pool across a 27-point grid of bus/memory/cache cost
//! ratios and reports where the winner flips — the paper's point that the
//! best protocol is a function of the cost model, not just the workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bench::sweep::{table_fitness, SweepConfig};
use futurebus::{Nanos, TimingConfig};
use moesi::json::{escape, JsonObject};
use moesi::{protocols, CacheKind, PolicyTable};
use mpsim::campaign::run_jobs;
use mpsim::{run_campaign, CampaignConfig};
use verify::Shape;

/// A neighbour must beat the incumbent by this much (accesses per simulated
/// second) to be taken — guards the climb against float noise on plateaus.
pub const IMPROVE_EPS: f64 = 1e-6;

/// The per-axis scale factors of the §5.2 sensitivity grid.
pub const SENSITIVITY_SCALES: [f64; 3] = [0.5, 1.0, 2.0];

/// Shape of a synthesis run.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Workloads to synthesize a table for (see `bench::WORKLOADS`).
    pub workloads: Vec<String>,
    /// Processors per fitness machine.
    pub cpus: usize,
    /// References per processor per fitness evaluation.
    pub steps: u64,
    /// Cache capacity per node in bytes.
    pub cache_bytes: usize,
    /// Hill-climb budget: maximum improving steps per workload.
    pub rounds: usize,
    /// Workload seed (drives the reference streams of every evaluation).
    pub seed: u64,
    /// Worker threads sharding candidate evaluations (1 = sequential; the
    /// output is byte-identical for any value).
    pub jobs: usize,
    /// When > 0, every fitness evaluation itself runs as a sharded sweep
    /// (address-interleaved regions, `shards` workers). The scores differ
    /// from the unsharded path — the regions are separate machines — but are
    /// byte-identical for any worker count, so a synthesis run is
    /// reproducible at every `shards` value independently.
    pub shards: usize,
    /// Cost model every fitness evaluation runs under; the sensitivity
    /// study scales a copy of this per grid point.
    pub timing: TimingConfig,
    /// Processor accesses per machine in the audit fault campaign.
    pub campaign_steps: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            workloads: bench::WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            cpus: 4,
            steps: 2000,
            cache_bytes: 2048,
            rounds: 4,
            seed: 7,
            jobs: mpsim::campaign::default_jobs(),
            shards: 0,
            timing: TimingConfig::default(),
            campaign_steps: 2500,
        }
    }
}

/// One workload's synthesis outcome, audits included.
#[derive(Clone, Debug)]
pub struct WorkloadOutcome {
    /// The workload searched.
    pub workload: String,
    /// Best starting table (the hand-written baseline the winner must meet).
    pub baseline: String,
    /// The baseline's fitness (accesses per simulated second).
    pub baseline_score: f64,
    /// The synthesized winner (renamed `synth-<workload>`).
    pub winner: PolicyTable,
    /// The winner's fitness; ≥ [`WorkloadOutcome::baseline_score`] by
    /// construction.
    pub winner_score: f64,
    /// Improving hill-climb steps taken.
    pub steps_taken: usize,
    /// Candidate tables scored (pool + every neighbour evaluated).
    pub evaluated: usize,
    /// True when no neighbour improved on the best starting table — the
    /// hand-written optimum is the reported fixed point.
    pub fixed_point: bool,
    /// Structural class violations of the winner (must be empty).
    pub structural_violations: usize,
    /// States admitted by the bounded exhaustive exploration of the winner
    /// against a MOESI peer.
    pub explored_states: usize,
    /// True when that exploration finished with no counterexample.
    pub exhaustive_clean: bool,
}

/// A whole synthesis run: one [`WorkloadOutcome`] per workload plus the
/// shared fault-campaign audit over all winners.
#[derive(Clone, Debug)]
pub struct SynthReport {
    /// Names of the starting pool, in evaluation order.
    pub pool: Vec<String>,
    /// Per-workload outcomes, in configuration order.
    pub outcomes: Vec<WorkloadOutcome>,
    /// Faults injected across the winners' audit campaign.
    pub faults_injected: u64,
    /// Silent corruptions observed (a synthesis run with any fails).
    pub faults_silent: u64,
}

/// One cell of the sensitivity grid: a workload's best candidate under one
/// bus/memory/cache cost ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct SensitivityRow {
    /// The workload re-scored.
    pub workload: String,
    /// Scale on the bus transfer costs (data beat + broadcast penalty).
    pub bus_scale: f64,
    /// Scale on main-memory latency.
    pub memory_scale: f64,
    /// Scale on cache intervention latency.
    pub cache_scale: f64,
    /// Best candidate (winner or pool table) at this grid point.
    pub best: String,
    /// The best candidate's fitness at this grid point.
    pub best_score: f64,
    /// True when the default-cost winner is *not* best here.
    pub flipped: bool,
}

/// The static name a workload's winner is published under (policy tables
/// carry `&'static str` names so they stay `Copy`).
#[must_use]
pub fn winner_name(workload: &str) -> &'static str {
    match workload {
        "general" => "synth-general",
        "ping-pong" => "synth-ping-pong",
        "read-mostly" => "synth-read-mostly",
        "migratory" => "synth-migratory",
        "producer-consumer" => "synth-producer-consumer",
        "false-sharing" => "synth-false-sharing",
        _ => "synth",
    }
}

/// The starting pool: every shipped exact-table copy-back class member.
#[must_use]
pub fn starting_pool(seed: u64) -> Vec<PolicyTable> {
    protocols::all_protocols(seed)
        .iter()
        .filter(|p| p.table_is_exact() && p.kind() == CacheKind::CopyBack)
        .filter_map(|p| p.policy_table().copied())
        .filter(PolicyTable::is_class_member)
        .collect()
}

fn fitness_config(cfg: &SynthConfig, timing: TimingConfig) -> SweepConfig {
    SweepConfig {
        cpus: cfg.cpus,
        steps: cfg.steps,
        cache_bytes: cfg.cache_bytes,
        seed: cfg.seed,
        jobs: 1,
        shards: cfg.shards,
        timing,
        ..SweepConfig::default()
    }
}

/// First index of the maximum (ties keep the earliest candidate, making the
/// search independent of evaluation concurrency).
fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate().skip(1) {
        if *s > scores[best] {
            best = i;
        }
    }
    best
}

/// Scores every table on `workload`, sharded over the worker pool; results
/// come back in table order.
fn score_all(
    cfg: &SynthConfig,
    timing: TimingConfig,
    tables: &[PolicyTable],
    workload: &str,
) -> Result<Vec<f64>, String> {
    let sweep = fitness_config(cfg, timing);
    run_jobs(tables.to_vec(), cfg.jobs, |t| {
        table_fitness(&sweep, t, workload).map(|row| row.accesses_per_sec)
    })
    .into_iter()
    .collect()
}

fn validate(cfg: &SynthConfig) -> Result<(), String> {
    if cfg.workloads.is_empty() {
        return Err("nothing to synthesize: empty workload list".into());
    }
    for w in &cfg.workloads {
        if !bench::WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if cfg.cpus == 0 || cfg.steps == 0 {
        return Err("cpus and steps must be non-zero".into());
    }
    Ok(())
}

/// Runs the whole synthesis: per-workload hill climb, per-winner structural
/// and exhaustive audits, and one fault campaign over all winners.
///
/// # Errors
///
/// Returns a message for an unknown workload, unusable geometry, or an
/// audit campaign that cannot run.
pub fn synthesize(cfg: &SynthConfig) -> Result<SynthReport, String> {
    validate(cfg)?;
    let pool = starting_pool(cfg.seed);
    if pool.is_empty() {
        return Err("no in-class exact-table starting protocols found".into());
    }
    let pool_names: Vec<String> = pool.iter().map(|t| t.name().to_string()).collect();

    let shape = Shape::default();
    let mut outcomes = Vec::with_capacity(cfg.workloads.len());
    for workload in &cfg.workloads {
        // Seed the climb from the best hand-written point.
        let pool_scores = score_all(cfg, cfg.timing, &pool, workload)?;
        let base_idx = argmax(&pool_scores);
        let baseline = pool_names[base_idx].clone();
        let baseline_score = pool_scores[base_idx];
        let mut evaluated = pool.len();

        let mut current = pool[base_idx];
        let mut current_score = baseline_score;
        let mut steps_taken = 0;
        for _ in 0..cfg.rounds {
            let neighbors = current.neighbors();
            let scores = score_all(cfg, cfg.timing, &neighbors, workload)?;
            evaluated += neighbors.len();
            let best = argmax(&scores);
            if scores[best] <= current_score + IMPROVE_EPS {
                break; // local optimum (possibly the hand-written one)
            }
            current = neighbors[best];
            current_score = scores[best];
            steps_taken += 1;
        }

        let winner = current.renamed(winner_name(workload));
        let violations = winner.class_violations();
        let deep = verify::verify_table(winner, &shape);
        outcomes.push(WorkloadOutcome {
            workload: workload.clone(),
            baseline,
            baseline_score,
            winner,
            winner_score: current_score,
            steps_taken,
            evaluated,
            fixed_point: steps_taken == 0,
            structural_violations: violations.len(),
            explored_states: deep.explored,
            exhaustive_clean: deep.counterexample.is_none() && !deep.truncated,
        });
    }

    // One fault campaign over every winner, loaded by name as tables.
    let campaign = run_campaign(&CampaignConfig {
        protocols: outcomes
            .iter()
            .map(|o| o.winner.name().to_string())
            .collect(),
        tables: outcomes.iter().map(|o| o.winner).collect(),
        steps: cfg.campaign_steps,
        jobs: cfg.jobs,
        ..CampaignConfig::default()
    })?;

    Ok(SynthReport {
        pool: pool_names,
        outcomes,
        faults_injected: campaign.tally().injected(),
        faults_silent: campaign.tally().silent(),
    })
}

fn scaled_timing(base: TimingConfig, bus: f64, memory: f64, cache: f64) -> TimingConfig {
    fn scale(v: Nanos, f: f64) -> Nanos {
        ((v as f64 * f).round() as Nanos).max(1)
    }
    TimingConfig {
        data_beat_ns: scale(base.data_beat_ns, bus),
        broadcast_penalty_ns: scale(base.broadcast_penalty_ns, bus),
        memory_latency_ns: scale(base.memory_latency_ns, memory),
        intervention_latency_ns: scale(base.intervention_latency_ns, cache),
        ..base
    }
}

/// Runs the §5.2-style sensitivity study: re-scores each workload's winner
/// and the whole starting pool across the 27-point grid of bus × memory ×
/// cache cost scales, reporting the best candidate per point and whether
/// the default-cost winner flipped. Rows come back in (workload, bus,
/// memory, cache) order, byte-identical for any `jobs` value.
///
/// # Errors
///
/// Returns a message for an unknown workload or unusable geometry.
pub fn sensitivity(cfg: &SynthConfig, report: &SynthReport) -> Result<Vec<SensitivityRow>, String> {
    validate(cfg)?;
    let pool = starting_pool(cfg.seed);
    // Per (workload, grid point): the winner first, then the pool; the
    // winner keeps its crown on ties.
    let mut cells = Vec::new();
    let mut points = Vec::new();
    for o in &report.outcomes {
        let mut candidates = vec![o.winner];
        candidates.extend(pool.iter().copied());
        for &bus in &SENSITIVITY_SCALES {
            for &memory in &SENSITIVITY_SCALES {
                for &cache in &SENSITIVITY_SCALES {
                    let timing = scaled_timing(cfg.timing, bus, memory, cache);
                    points.push((o.workload.clone(), bus, memory, cache, o.winner.name()));
                    for &table in &candidates {
                        cells.push((points.len() - 1, table, timing, o.workload.clone()));
                    }
                }
            }
        }
    }
    let per_point = 1 + pool.len();
    let scores: Vec<f64> = run_jobs(cells, cfg.jobs, |(_, table, timing, workload)| {
        let sweep = fitness_config(cfg, timing);
        table_fitness(&sweep, table, &workload).map(|row| row.accesses_per_sec)
    })
    .into_iter()
    .collect::<Result<_, String>>()?;

    let mut rows = Vec::with_capacity(points.len());
    for (i, (workload, bus, memory, cache, winner)) in points.into_iter().enumerate() {
        let slice = &scores[i * per_point..(i + 1) * per_point];
        let best = argmax(slice);
        let best_name = if best == 0 {
            winner.to_string()
        } else {
            pool[best - 1].name().to_string()
        };
        rows.push(SensitivityRow {
            workload,
            bus_scale: bus,
            memory_scale: memory,
            cache_scale: cache,
            flipped: best != 0,
            best: best_name,
            best_score: slice[best],
        });
    }
    Ok(rows)
}

/// Renders the synthesized winners as a parseable policy-table document
/// (the committed `tests/fixtures/synth/best_tables.txt` format): comment
/// header, then one table block per workload separated by blank lines.
/// `moesi::parse_member_tables` round-trips it.
#[must_use]
pub fn tables_document(report: &SynthReport) -> String {
    let mut out = String::from(
        "# Best-known in-class policy tables per workload, synthesized by the\n\
         # compatibility-class hill climb in crates/synth. Regenerate with:\n\
         #   moesi-sim synth --seed 7 --out tests/fixtures/synth/best_tables.txt \\\n\
         #     --json-out tests/fixtures/synth/best_tables.json\n",
    );
    for o in &report.outcomes {
        out.push('\n');
        out.push_str(&o.winner.render());
    }
    out
}

/// Renders the run as a human-readable summary.
#[must_use]
pub fn render_report(report: &SynthReport) -> String {
    let mut out = format!(
        "policy synthesis: {} workloads, pool of {} in-class starting tables\n",
        report.outcomes.len(),
        report.pool.len()
    );
    for o in &report.outcomes {
        out.push_str(&format!(
            "  {:<18} {} {:>12.0} acc/sec (baseline {} {:>12.0}), {}, {} candidates scored\n",
            o.workload,
            o.winner.name(),
            o.winner_score,
            o.baseline,
            o.baseline_score,
            if o.fixed_point {
                "hand-written optimum is the fixed point".to_string()
            } else {
                format!("improved in {} steps", o.steps_taken)
            },
            o.evaluated,
        ));
    }
    let audits_ok = report
        .outcomes
        .iter()
        .all(|o| o.structural_violations == 0 && o.exhaustive_clean);
    out.push_str(&format!(
        "audit: structural + exhaustive {}; fault campaign: {} faults injected, {} silent\n",
        if audits_ok { "clean" } else { "FAILED" },
        report.faults_injected,
        report.faults_silent,
    ));
    out
}

/// Renders the sensitivity study as a per-workload flip summary.
#[must_use]
pub fn render_sensitivity(rows: &[SensitivityRow]) -> String {
    let mut out = format!(
        "sensitivity: {}-point cost grid (x{}/x{}/x{} on bus beat, memory latency, intervention latency)\n",
        SENSITIVITY_SCALES.len().pow(3),
        SENSITIVITY_SCALES[0],
        SENSITIVITY_SCALES[1],
        SENSITIVITY_SCALES[2],
    );
    let mut workloads: Vec<&str> = Vec::new();
    for r in rows {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    for w in workloads {
        let of_w: Vec<&SensitivityRow> = rows.iter().filter(|r| r.workload == w).collect();
        let flips: Vec<&&SensitivityRow> = of_w.iter().filter(|r| r.flipped).collect();
        out.push_str(&format!(
            "  {:<18} winner holds at {}/{} points",
            w,
            of_w.len() - flips.len(),
            of_w.len()
        ));
        if !flips.is_empty() {
            let detail: Vec<String> = flips
                .iter()
                .map(|r| {
                    format!(
                        "bus x{} mem x{} cache x{} -> {}",
                        r.bus_scale, r.memory_scale, r.cache_scale, r.best
                    )
                })
                .collect();
            out.push_str(&format!("; flips: {}", detail.join(", ")));
        }
        out.push('\n');
    }
    out
}

/// Renders the run (and optional sensitivity study) as a JSON document via
/// the shared hand-rolled writer, with fixed-precision floats so the bytes
/// are identical for any worker count.
#[must_use]
pub fn report_json(
    cfg: &SynthConfig,
    report: &SynthReport,
    sensitivity: Option<&[SensitivityRow]>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"seed\": {},\n  \"cpus\": {},\n  \"steps_per_cpu\": {},\n  \"cache_bytes\": {},\n  \"rounds\": {},\n",
        cfg.seed, cfg.cpus, cfg.steps, cfg.cache_bytes, cfg.rounds
    ));
    let pool: Vec<String> = report
        .pool
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    out.push_str(&format!("  \"pool\": [{}],\n", pool.join(", ")));
    out.push_str("  \"results\": [\n");
    for (i, o) in report.outcomes.iter().enumerate() {
        let row = JsonObject::new()
            .string("workload", &o.workload)
            .string("baseline", &o.baseline)
            .fixed("baseline_accesses_per_sec", o.baseline_score, 3)
            .string("winner", o.winner.name())
            .fixed("winner_accesses_per_sec", o.winner_score, 3)
            .number("steps_taken", o.steps_taken)
            .number("evaluated", o.evaluated)
            .number("fixed_point", o.fixed_point)
            .number("structural_violations", o.structural_violations)
            .number("explored_states", o.explored_states)
            .number("exhaustive_clean", o.exhaustive_clean)
            .finish();
        out.push_str(&format!(
            "    {row}{}\n",
            if i + 1 == report.outcomes.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"faults_injected\": {},\n  \"faults_silent\": {}",
        report.faults_injected, report.faults_silent
    ));
    if let Some(rows) = sensitivity {
        out.push_str(",\n  \"sensitivity\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let row = JsonObject::new()
                .string("workload", &r.workload)
                .fixed("bus_scale", r.bus_scale, 1)
                .fixed("memory_scale", r.memory_scale, 1)
                .fixed("cache_scale", r.cache_scale, 1)
                .string("best", &r.best)
                .fixed("best_accesses_per_sec", r.best_score, 3)
                .number("flipped", r.flipped)
                .finish();
            out.push_str(&format!(
                "    {row}{}\n",
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n");
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SynthConfig {
        SynthConfig {
            workloads: vec!["ping-pong".into()],
            cpus: 2,
            steps: 60,
            rounds: 1,
            jobs: 1,
            campaign_steps: 200,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn pool_is_exact_copy_back_class_members() {
        let pool = starting_pool(0);
        // MOESI, MOESI-inv, Berkeley and Dragon qualify; Write-Once,
        // Illinois, Firefly and Synapse are exact tables but sit outside
        // the strict class (they need the BS busy-push compatibility hook).
        assert!(pool.len() >= 4, "expected a real pool, got {}", pool.len());
        for t in &pool {
            assert_eq!(t.kind(), CacheKind::CopyBack, "{}", t.name());
            assert!(t.is_class_member(), "{}", t.name());
        }
    }

    #[test]
    fn winners_meet_the_baseline_and_pass_audits() {
        let report = synthesize(&tiny()).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.winner.name(), "synth-ping-pong");
        assert!(
            o.winner_score >= o.baseline_score,
            "winner {} below baseline {}",
            o.winner_score,
            o.baseline_score
        );
        assert_eq!(o.fixed_point, o.steps_taken == 0);
        assert_eq!(o.structural_violations, 0);
        assert!(o.exhaustive_clean, "winner failed exhaustive exploration");
        assert!(report.faults_injected > 0);
        assert_eq!(report.faults_silent, 0);
    }

    #[test]
    fn sharded_runs_are_byte_identical_to_sequential() {
        let seq_cfg = tiny();
        let par_cfg = SynthConfig {
            jobs: 4,
            ..seq_cfg.clone()
        };
        let seq = synthesize(&seq_cfg).unwrap();
        let par = synthesize(&par_cfg).unwrap();
        assert_eq!(
            report_json(&seq_cfg, &seq, None),
            report_json(&par_cfg, &par, None)
        );
        assert_eq!(tables_document(&seq), tables_document(&par));
        let sens_seq = sensitivity(&seq_cfg, &seq).unwrap();
        let sens_par = sensitivity(&par_cfg, &par).unwrap();
        assert_eq!(sens_seq, sens_par);
    }

    #[test]
    fn sharded_fitness_is_byte_identical_for_any_worker_count() {
        // `shards > 0` switches every fitness evaluation to the sharded
        // sweep; the worker count must never change the search outcome.
        let one = SynthConfig {
            shards: 1,
            ..tiny()
        };
        let four = SynthConfig {
            shards: 4,
            ..tiny()
        };
        let a = synthesize(&one).unwrap();
        let b = synthesize(&four).unwrap();
        assert_eq!(tables_document(&a), tables_document(&b));
        assert_eq!(a.outcomes[0].winner_score, b.outcomes[0].winner_score);
        assert_eq!(a.outcomes[0].evaluated, b.outcomes[0].evaluated);
    }

    #[test]
    fn winner_document_round_trips_through_the_member_parser() {
        let report = synthesize(&tiny()).unwrap();
        let doc = tables_document(&report);
        let parsed = moesi::parse_member_tables(&doc).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name(), "synth-ping-pong");
        assert_eq!(parsed[0].render(), report.outcomes[0].winner.render());
    }

    #[test]
    fn sensitivity_covers_the_grid_and_marks_flips_consistently() {
        let cfg = tiny();
        let report = synthesize(&cfg).unwrap();
        let rows = sensitivity(&cfg, &report).unwrap();
        assert_eq!(rows.len(), 27);
        let winner = report.outcomes[0].winner.name();
        for r in &rows {
            assert_eq!(r.flipped, r.best != winner);
            assert!(r.best_score > 0.0);
        }
        // The identity point scores the winner at least at its default
        // fitness rank: it can never flip to a strictly worse pool table.
        let id = rows
            .iter()
            .find(|r| r.bus_scale == 1.0 && r.memory_scale == 1.0 && r.cache_scale == 1.0)
            .unwrap();
        assert!(!id.flipped, "winner lost at the identity cost point");
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut cfg = tiny();
        cfg.workloads = vec!["zipfian".into()];
        assert!(synthesize(&cfg).unwrap_err().contains("zipfian"));
        let mut cfg = tiny();
        cfg.cpus = 0;
        assert!(synthesize(&cfg).unwrap_err().contains("non-zero"));
    }

    #[test]
    fn json_reports_are_wellformed_enough_to_eyeball() {
        let cfg = tiny();
        let report = synthesize(&cfg).unwrap();
        let rows = sensitivity(&cfg, &report).unwrap();
        let json = report_json(&cfg, &report, Some(&rows));
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"workload\"").count(), 1 + rows.len());
        assert!(json.contains("\"sensitivity\": ["));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
        let bare = report_json(&cfg, &report, None);
        assert!(!bare.contains("sensitivity"));
        assert!(bare.ends_with("\"faults_silent\": 0\n}\n"));
    }
}
