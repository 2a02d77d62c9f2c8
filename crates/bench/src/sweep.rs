//! The protocol × workload benchmark sweep behind `moesi-sim bench`.
//!
//! Each cell of the sweep runs one homogeneous machine (one protocol) under
//! one named workload with the contention-aware timed model
//! (`System::run_timed`), and reports simulated throughput (accesses per
//! simulated second), bus occupancy and the miss ratio. Cells are fully
//! independent, so the sweep shards across the [`mpsim::campaign`] pool;
//! rows come back in protocol-major order for any worker count, and the
//! rendered JSON is byte-identical for `--jobs 1` and `--jobs N`.
//!
//! The *sharded* sweep (`--shards N`) is the benchmark mode of record for
//! multi-threaded throughput: every cell's workload is partitioned into
//! [`SHARD_REGIONS`] fixed address-interleaved regions, each region runs as
//! an independent machine, and all cell × region tasks feed one flat worker
//! pool. [`shard_scaling`] runs that sweep once per worker count and reports
//! the modelled and measured speedups committed in `BENCH_shards.json`.

use crate::{
    bench_document, homogeneous_system, homogeneous_table_system, per_sec, workload_streams, Host,
    RunTiming, COMPARED_PROTOCOLS, LINE, WORKLOADS,
};
use cache_array::split_line_crossers;
use futurebus::{Nanos, Phase, PhaseHistograms, TimingConfig};
use moesi::json::{array_u64, JsonObject};
use moesi::PolicyTable;
use mpsim::campaign::run_jobs;
use mpsim::workload::Access;
use std::time::Instant;

pub use mpsim::campaign::SHARD_REGIONS;

/// Nanoseconds of local (non-bus) work modelled per processor reference.
pub const CPU_WORK_NS: u64 = 50;

/// Shape of a benchmark sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Protocol names to bench (one homogeneous machine per entry).
    pub protocols: Vec<String>,
    /// Workload names (see [`workload_streams`]).
    pub workloads: Vec<String>,
    /// Processors per machine.
    pub cpus: usize,
    /// References per processor.
    pub steps: u64,
    /// Cache capacity per node in bytes.
    pub cache_bytes: usize,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads sharding the cells of an *unsharded* sweep
    /// (1 = sequential). A sharded sweep runs on `shards` workers instead.
    pub jobs: usize,
    /// Bus/memory/cache cost model every cell runs under. The §5.2
    /// sensitivity study re-scores candidates across a grid of these.
    pub timing: TimingConfig,
    /// `0` (the default) runs each cell as one classic whole-machine
    /// simulation. `N ≥ 1` splits each cell's reference scripts into
    /// [`SHARD_REGIONS`] interleaved line-address regions, simulates each
    /// region as an independent machine, and feeds every cell × region task
    /// to one flat pool of `N` worker threads, merging in region order —
    /// deterministic, and byte-identical for every `N ≥ 1`.
    pub shards: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            protocols: COMPARED_PROTOCOLS
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            workloads: WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            cpus: 4,
            steps: 2000,
            cache_bytes: 4096,
            seed: 7,
            jobs: mpsim::campaign::default_jobs(),
            timing: TimingConfig::default(),
            shards: 0,
        }
    }
}

/// One cell of the sweep: a protocol under a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Protocol name.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Processor accesses executed.
    pub accesses: u64,
    /// Simulated wall time of the timed run (ns).
    pub wall_ns: u64,
    /// Bus occupancy during the run (ns).
    pub busy_ns: u64,
    /// Time spent queued for the bus (ns).
    pub wait_ns: u64,
    /// Accesses per simulated second (`accesses / wall_ns`).
    pub accesses_per_sec: f64,
    /// Cache miss ratio over all nodes.
    pub miss_ratio: f64,
    /// Median latency charged per pipeline phase, in [`Phase::PIPELINE`]
    /// order (nearest-rank histogram bucket bounds).
    pub phase_p50: [Nanos; Phase::PIPELINE.len()],
    /// 99th-percentile latency charged per pipeline phase.
    pub phase_p99: [Nanos; Phase::PIPELINE.len()],
    /// The cell's timed run on the host (sharded cells sum their region
    /// runs).
    pub host: Host<RunTiming>,
}

/// Runs one cell.
///
/// # Errors
///
/// Returns a message for an unknown protocol or workload name.
pub fn sweep_one(cfg: &SweepConfig, protocol: &str, workload: &str) -> Result<SweepRow, String> {
    if moesi::protocols::by_name(protocol, 0).is_none() {
        return Err(format!("unknown protocol `{protocol}`"));
    }
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if cfg.shards > 0 {
        return Ok(measure_sharded(
            cfg,
            &|| homogeneous_system(protocol, cfg.cpus, cfg.cache_bytes, LINE, cfg.timing, false),
            protocol,
            workload,
        ));
    }
    let sys = homogeneous_system(protocol, cfg.cpus, cfg.cache_bytes, LINE, cfg.timing, false);
    Ok(measure(cfg, sys, protocol, workload))
}

/// Scores one candidate [`PolicyTable`] under a workload — the synth
/// subsystem's fitness function. Identical machinery to [`sweep_one`]
/// (same machine shape, timed model, cost knobs and optional sharding), but
/// the protocol is the given table interpreted by the generic `TablePolicy`
/// engine rather than a shipped protocol looked up by name.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn table_fitness(
    cfg: &SweepConfig,
    table: PolicyTable,
    workload: &str,
) -> Result<SweepRow, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if cfg.shards > 0 {
        return Ok(measure_sharded(
            cfg,
            &|| homogeneous_table_system(table, cfg.cpus, cfg.cache_bytes, LINE, cfg.timing, false),
            table.name(),
            workload,
        ));
    }
    let sys = homogeneous_table_system(table, cfg.cpus, cfg.cache_bytes, LINE, cfg.timing, false);
    Ok(measure(cfg, sys, table.name(), workload))
}

fn measure(cfg: &SweepConfig, mut sys: mpsim::System, protocol: &str, workload: &str) -> SweepRow {
    let mut streams = workload_streams(workload, cfg.cpus, LINE, cfg.seed);
    let host = Instant::now();
    let timed = sys.run_timed(&mut streams, cfg.steps, CPU_WORK_NS);
    let host_ns = host.elapsed().as_nanos() as u64;
    let total = sys.total_stats();
    finish_row(protocol, workload, &timed, host_ns, 1.0 - total.hit_ratio())
}

/// Shared row assembly for the classic and sharded measurements.
fn finish_row(
    protocol: &str,
    workload: &str,
    timed: &mpsim::TimedReport,
    host_ns: u64,
    miss_ratio: f64,
) -> SweepRow {
    SweepRow {
        protocol: protocol.to_string(),
        workload: workload.to_string(),
        accesses: timed.total_refs,
        wall_ns: timed.wall_ns,
        busy_ns: timed.bus_busy_ns,
        wait_ns: timed.bus_wait_ns,
        accesses_per_sec: per_sec(timed.total_refs, timed.wall_ns),
        miss_ratio,
        phase_p50: timed.phase_hist.p50s(),
        phase_p99: timed.phase_hist.p99s(),
        host: Host::run(timed.total_refs, host_ns),
    }
}

/// What one region run of a sharded cell produces: the timed result, the
/// summed node counters, and the host nanoseconds the region cost.
type RegionResult = (mpsim::TimedReport, mpsim::CpuStats, u64);

/// Materialises one cell's per-cpu reference scripts — split at line
/// boundaries so every piece lands wholly in one region — and partitions
/// them into [`SHARD_REGIONS`] interleaved line-address regions
/// (region → cpu → script). The partition is a pure function of the
/// workload and seed, never of the worker count.
fn region_scripts(cfg: &SweepConfig, workload: &str) -> Vec<Vec<Vec<Access>>> {
    let mut streams = workload_streams(workload, cfg.cpus, LINE, cfg.seed);
    let scripts: Vec<Vec<Access>> = streams
        .iter_mut()
        .map(|s| {
            let mut script = Vec::with_capacity(cfg.steps as usize);
            for _ in 0..cfg.steps {
                let a = s.next_access();
                for (addr, size) in split_line_crossers(a.addr, a.size, LINE) {
                    script.push(Access {
                        addr,
                        size,
                        is_write: a.is_write,
                    });
                }
            }
            script
        })
        .collect();
    let region_of = |addr: u64| ((addr / LINE as u64) % SHARD_REGIONS as u64) as usize;
    (0..SHARD_REGIONS)
        .map(|r| {
            scripts
                .iter()
                .map(|script| {
                    script
                        .iter()
                        .copied()
                        .filter(|a| region_of(a.addr) == r)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Simulates one region of a cell as an independent machine (same protocol,
/// processors and caches, touching only its own lines) and times the host.
fn run_region(build: &(dyn Fn() -> mpsim::System + Sync), lane: &[Vec<Access>]) -> RegionResult {
    let mut sys = build();
    let host = Instant::now();
    let timed = sys.run_timed_script(lane, CPU_WORK_NS);
    let host_ns = host.elapsed().as_nanos() as u64;
    (timed, sys.total_stats(), host_ns)
}

/// Merges one cell's region results, in region order: simulated wall is the
/// max over regions (the regions model independent buses running
/// concurrently), traffic and occupancy sum, the phase histograms merge
/// bucket-wise, and host time sums. A sharded row is *not* comparable to an
/// unsharded one — splitting the address space removes cross-region bus
/// contention by construction (see DESIGN.md).
fn merge_regions(protocol: &str, workload: &str, results: &[RegionResult]) -> SweepRow {
    let mut merged = mpsim::TimedReport {
        wall_ns: 0,
        bus_busy_ns: 0,
        bus_wait_ns: 0,
        total_refs: 0,
        phase_hist: PhaseHistograms::new(),
    };
    let (mut host_ns, mut hits, mut refs) = (0u64, 0u64, 0u64);
    for (timed, stats, task_ns) in results {
        merged.wall_ns = merged.wall_ns.max(timed.wall_ns);
        merged.bus_busy_ns += timed.bus_busy_ns;
        merged.bus_wait_ns += timed.bus_wait_ns;
        merged.total_refs += timed.total_refs;
        merged.phase_hist.merge(&timed.phase_hist);
        host_ns += task_ns;
        hits += stats.read_hits + stats.write_hits;
        refs += stats.reads + stats.writes;
    }
    let miss_ratio = if refs == 0 {
        0.0
    } else {
        1.0 - hits as f64 / refs as f64
    };
    finish_row(protocol, workload, &merged, host_ns, miss_ratio)
}

/// Runs one cell sharded on its own `cfg.shards`-worker pool — the
/// single-cell entry point ([`sweep_one`], [`table_fitness`]). The merged
/// row is identical to what the whole-sweep flat pool produces for the same
/// cell: the partition is fixed and the merge is region-ordered, so pool
/// shape can never show through.
fn measure_sharded(
    cfg: &SweepConfig,
    build: &(dyn Fn() -> mpsim::System + Sync),
    protocol: &str,
    workload: &str,
) -> SweepRow {
    let regions = region_scripts(cfg, workload);
    let results = run_jobs(regions, cfg.shards, |lane: Vec<Vec<Access>>| {
        run_region(build, &lane)
    });
    merge_regions(protocol, workload, &results)
}

/// A sharded run of the whole sweep, plus the host-cost profile the scaling
/// model consumes.
#[derive(Clone, Debug)]
pub struct ShardedSweep {
    /// Per-cell rows, protocol-major — byte-identical for every worker
    /// count at the fixed [`SHARD_REGIONS`] partition.
    pub rows: Vec<SweepRow>,
    /// Host nanoseconds each cell × region task cost, in task order (cell-
    /// major, region-minor) — the input to [`critical_path_ns`].
    pub task_host_ns: Vec<u64>,
}

/// Runs the whole sweep sharded: every cell's [`SHARD_REGIONS`] region
/// machines become one flat task list driven by a single `cfg.shards`-worker
/// pool, so workers stay busy across cell boundaries instead of draining
/// each cell's four regions before starting the next.
///
/// # Errors
///
/// Returns the first unknown protocol or workload name.
pub fn sweep_sharded(cfg: &SweepConfig) -> Result<ShardedSweep, String> {
    for p in &cfg.protocols {
        if moesi::protocols::by_name(p, 0).is_none() {
            return Err(format!("unknown protocol `{p}`"));
        }
    }
    for w in &cfg.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    let mut cells = Vec::with_capacity(cfg.protocols.len() * cfg.workloads.len());
    for p in &cfg.protocols {
        for w in &cfg.workloads {
            cells.push((p.clone(), w.clone()));
        }
    }
    let mut tasks = Vec::with_capacity(cells.len() * SHARD_REGIONS);
    for (cell, (_, w)) in cells.iter().enumerate() {
        for lane in region_scripts(cfg, w) {
            tasks.push((cell, lane));
        }
    }
    let results = run_jobs(
        tasks,
        cfg.shards,
        |(cell, lane): (usize, Vec<Vec<Access>>)| {
            let (p, _) = &cells[cell];
            run_region(
                &|| homogeneous_system(p, cfg.cpus, cfg.cache_bytes, LINE, cfg.timing, false),
                &lane,
            )
        },
    );
    let task_host_ns = results.iter().map(|(_, _, host_ns)| *host_ns).collect();
    let rows = cells
        .iter()
        .enumerate()
        .map(|(cell, (p, w))| {
            merge_regions(
                p,
                w,
                &results[cell * SHARD_REGIONS..(cell + 1) * SHARD_REGIONS],
            )
        })
        .collect();
    Ok(ShardedSweep { rows, task_host_ns })
}

/// Runs the whole sweep. Unsharded, cells run on `cfg.jobs` workers; with
/// `cfg.shards ≥ 1` the flat cell × region pool runs on `cfg.shards`
/// workers. Rows come back in protocol-major, workload-minor order
/// regardless of worker count.
///
/// # Errors
///
/// Returns the first cell error (unknown protocol/workload) in row order.
pub fn sweep(cfg: &SweepConfig) -> Result<Vec<SweepRow>, String> {
    if cfg.protocols.is_empty() || cfg.workloads.is_empty() {
        return Err("nothing to bench: empty protocol or workload list".into());
    }
    if cfg.cpus == 0 || cfg.steps == 0 {
        return Err("cpus and steps must be non-zero".into());
    }
    if cfg.shards > 0 {
        return Ok(sweep_sharded(cfg)?.rows);
    }
    let mut cells = Vec::with_capacity(cfg.protocols.len() * cfg.workloads.len());
    for p in &cfg.protocols {
        for w in &cfg.workloads {
            cells.push((p.clone(), w.clone()));
        }
    }
    mpsim::campaign::run_jobs(cells, cfg.jobs, |(p, w)| sweep_one(cfg, &p, &w))
        .into_iter()
        .collect()
}

/// The critical path of the `run_jobs` claim schedule: replays the measured
/// per-task host costs through the pool's own discipline — each worker
/// claims the next task in order the moment it frees — and returns the
/// busiest worker's finish time.
///
/// This is how long the task list takes on a host with `workers` real
/// cores, computed from *measured* per-task times, so the speedup column it
/// feeds is robust on CI boxes with fewer cores than workers (where
/// elapsed wall-clock would only measure oversubscription).
#[must_use]
pub fn critical_path_ns(task_ns: &[u64], workers: usize) -> u64 {
    let workers = workers.clamp(1, task_ns.len().max(1));
    let mut free_at = vec![0u64; workers];
    for &cost in task_ns {
        // The earliest-free worker is the one that claims the next task.
        let next = (0..workers)
            .min_by_key(|&w| free_at[w])
            .expect("at least one worker");
        free_at[next] += cost;
    }
    free_at.into_iter().max().unwrap_or(0)
}

/// One per-shard-count row of the scaling sweep: the whole sharded sweep's
/// simulated totals plus its host-cost schedule at that worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingRow {
    /// Worker count this row ran the sharded sweep on.
    pub shards: usize,
    /// Processor accesses executed across every cell.
    pub accesses: u64,
    /// Summed simulated wall time over cells (ns).
    pub wall_ns: u64,
    /// Summed bus occupancy over cells (ns).
    pub busy_ns: u64,
    /// Summed bus queueing over cells (ns).
    pub wait_ns: u64,
    /// Accesses per simulated second (`accesses / wall_ns`).
    pub accesses_per_sec: f64,
    /// The sharded sweep on the host at this worker count.
    pub host: Host<ScalingTiming>,
}

/// The host figures of one scaling row.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalingTiming {
    /// Host nanoseconds of simulation work: the sum of every cell × region
    /// task's measured cost.
    pub cpu_ns: u64,
    /// The claim schedule's critical path at this worker count
    /// (see [`critical_path_ns`]).
    pub critical_ns: u64,
    /// Measured host wall-clock for the whole sharded sweep, scheduling
    /// overhead and oversubscription included.
    pub elapsed_ns: u64,
    /// Engine throughput of the modelled schedule: accesses per host second
    /// of `critical_ns`.
    pub accesses_per_sec: f64,
    /// What the schedule would buy on a host with this many free cores:
    /// the measured tasks replayed through the claim discipline,
    /// `cpu_ns / critical_ns`. Exactly 1.0 at one worker.
    pub modelled_speedup: f64,
    /// What this host's cores delivered: the first row's `elapsed_ns` over
    /// this row's. Exactly 1.0 on the first row.
    pub measured_speedup: f64,
}

impl Host<ScalingTiming> {
    /// The `"host"` object.
    #[must_use]
    pub fn json(&self) -> String {
        JsonObject::new()
            .number("cpu_ns", self.cpu_ns)
            .number("critical_ns", self.critical_ns)
            .number("elapsed_ns", self.elapsed_ns)
            .fixed("accesses_per_sec", self.accesses_per_sec, 3)
            .fixed("modelled_speedup", self.modelled_speedup, 3)
            .fixed("measured_speedup", self.measured_speedup, 3)
            .finish()
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Runs the sharded sweep once per worker count and aggregates each run
/// into a [`ScalingRow`]. The simulated rows are demanded identical across
/// counts — the fixed-partition determinism contract — so the returned
/// per-cell rows (from the first count) describe every run.
///
/// # Errors
///
/// Returns validation errors from the sweep, an empty/zero `counts` list,
/// or a determinism violation between worker counts.
pub fn shard_scaling(
    cfg: &SweepConfig,
    counts: &[usize],
) -> Result<(Vec<SweepRow>, Vec<ScalingRow>), String> {
    if counts.is_empty() {
        return Err("no shard counts to scale over".into());
    }
    if counts.contains(&0) {
        return Err("shard counts must be ≥ 1".into());
    }
    let mut baseline: Option<Vec<SweepRow>> = None;
    let mut scaling = Vec::with_capacity(counts.len());
    for &workers in counts {
        let elapsed = Instant::now();
        let run = sweep_sharded(&SweepConfig {
            shards: workers,
            ..cfg.clone()
        })?;
        let elapsed_ns = elapsed.elapsed().as_nanos() as u64;
        match &baseline {
            Some(rows) if *rows != run.rows => {
                return Err(format!(
                    "sharded sweep diverged between worker counts {} and {workers} \
                     (fixed partition must be byte-identical)",
                    counts[0]
                ));
            }
            Some(_) => {}
            None => baseline = Some(run.rows.clone()),
        }
        let (mut accesses, mut wall_ns, mut busy_ns, mut wait_ns) = (0u64, 0u64, 0u64, 0u64);
        for row in &run.rows {
            accesses += row.accesses;
            wall_ns += row.wall_ns;
            busy_ns += row.busy_ns;
            wait_ns += row.wait_ns;
        }
        let cpu_ns: u64 = run.task_host_ns.iter().sum();
        let critical_ns = critical_path_ns(&run.task_host_ns, workers);
        let first_elapsed_ns = scaling
            .first()
            .map_or(elapsed_ns, |r: &ScalingRow| r.host.elapsed_ns);
        scaling.push(ScalingRow {
            shards: workers,
            accesses,
            wall_ns,
            busy_ns,
            wait_ns,
            accesses_per_sec: per_sec(accesses, wall_ns),
            host: Host(ScalingTiming {
                cpu_ns,
                critical_ns,
                elapsed_ns,
                accesses_per_sec: per_sec(accesses, critical_ns),
                modelled_speedup: ratio(cpu_ns, critical_ns),
                measured_speedup: ratio(first_elapsed_ns, elapsed_ns),
            }),
        });
    }
    Ok((baseline.expect("at least one count ran"), scaling))
}

/// Renders the rows as a JSON document via the shared hand-rolled writer
/// ([`moesi::json`]; the workspace carries no serialisation dependency).
/// Floats are printed with fixed precision so the bytes are stable across
/// runs and worker counts.
#[must_use]
pub fn sweep_json(cfg: &SweepConfig, rows: &[SweepRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .string("protocol", &r.protocol)
                .string("workload", &r.workload)
                .number("accesses", r.accesses)
                .number("wall_ns", r.wall_ns)
                .number("busy_ns", r.busy_ns)
                .number("wait_ns", r.wait_ns)
                .fixed("accesses_per_sec", r.accesses_per_sec, 3)
                .fixed("miss_ratio", r.miss_ratio, 6)
                .raw("phase_p50_ns", &array_u64(&r.phase_p50))
                .raw("phase_p99_ns", &array_u64(&r.phase_p99))
                .raw("host", &r.host.json())
                .finish()
        })
        .collect();
    let header = format!(
        "  \"seed\": {},\n  \"cpus\": {},\n  \"steps_per_cpu\": {},\n  \"cpu_work_ns\": {},\n",
        cfg.seed, cfg.cpus, cfg.steps, CPU_WORK_NS
    );
    bench_document(&header, &rows)
}

/// Renders the scaling rows as the `BENCH_shards.json` document.
#[must_use]
pub fn scaling_json(cfg: &SweepConfig, rows: &[ScalingRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            JsonObject::new()
                .number("shards", r.shards)
                .number("accesses", r.accesses)
                .number("wall_ns", r.wall_ns)
                .number("busy_ns", r.busy_ns)
                .number("wait_ns", r.wait_ns)
                .fixed("accesses_per_sec", r.accesses_per_sec, 3)
                .raw("host", &r.host.json())
                .finish()
        })
        .collect();
    let header = format!(
        "  \"seed\": {},\n  \"cpus\": {},\n  \"steps_per_cpu\": {},\n  \"cpu_work_ns\": {},\n  \
         \"shard_regions\": {},\n",
        cfg.seed, cfg.cpus, cfg.steps, CPU_WORK_NS, SHARD_REGIONS
    );
    bench_document(&header, &rows)
}

/// Renders the rows as an aligned text table grouped by workload.
#[must_use]
pub fn render_sweep(rows: &[SweepRow]) -> String {
    let mut out = format!(
        "{:<20} {:<18} {:>9} {:>12} {:>12} {:>14} {:>7}\n",
        "protocol", "workload", "accesses", "wall us", "bus us", "acc/sec", "miss%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<18} {:>9} {:>12.1} {:>12.1} {:>14.0} {:>6.1}%\n",
            r.protocol,
            r.workload,
            r.accesses,
            r.wall_ns as f64 / 1000.0,
            r.busy_ns as f64 / 1000.0,
            r.accesses_per_sec,
            r.miss_ratio * 100.0,
        ));
    }
    out
}

/// Renders the scaling rows as an aligned text table with the modelled and
/// measured speedup columns.
#[must_use]
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let mut out = format!(
        "{:>6} {:>10} {:>13} {:>13} {:>13} {:>14} {:>9} {:>9}\n",
        "shards",
        "accesses",
        "host cpu ms",
        "critical ms",
        "elapsed ms",
        "acc/host-sec",
        "modelled",
        "measured"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>10} {:>13.1} {:>13.1} {:>13.1} {:>14.0} {:>8.2}x {:>8.2}x\n",
            r.shards,
            r.accesses,
            r.host.cpu_ns as f64 / 1e6,
            r.host.critical_ns as f64 / 1e6,
            r.host.elapsed_ns as f64 / 1e6,
            r.host.accesses_per_sec,
            r.host.modelled_speedup,
            r.host.measured_speedup,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_host;

    fn tiny() -> SweepConfig {
        SweepConfig {
            protocols: vec!["moesi".into(), "write-through".into()],
            workloads: vec!["general".into(), "ping-pong".into()],
            cpus: 2,
            steps: 100,
            jobs: 1,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_produces_protocol_major_rows_with_traffic() {
        let rows = sweep(&tiny()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].protocol, "moesi");
        assert_eq!(rows[0].workload, "general");
        assert_eq!(rows[1].workload, "ping-pong");
        assert_eq!(rows[2].protocol, "write-through");
        for r in &rows {
            assert!(r.accesses > 0, "{}/{} ran nothing", r.protocol, r.workload);
            assert!(r.accesses_per_sec > 0.0);
            assert!((0.0..=1.0).contains(&r.miss_ratio));
            let data = Phase::DataTransfer as usize;
            assert!(
                r.phase_p99[data] >= r.phase_p50[data],
                "{}/{}: p99 below p50",
                r.protocol,
                r.workload
            );
            assert!(
                r.phase_p99[data] > 0,
                "{}/{}: bus traffic must charge the data phase",
                r.protocol,
                r.workload
            );
        }
    }

    #[test]
    fn sharded_sweep_is_byte_identical_to_sequential() {
        let cfg = tiny();
        let seq = sweep(&cfg).unwrap();
        let par = sweep(&SweepConfig {
            jobs: 4,
            ..cfg.clone()
        })
        .unwrap();
        assert_eq!(seq, par);
        assert_eq!(
            strip_host(&sweep_json(&cfg, &seq)),
            strip_host(&sweep_json(&cfg, &par))
        );
    }

    #[test]
    fn shard_worker_count_never_changes_the_merged_rows() {
        let one = sweep(&SweepConfig {
            shards: 1,
            ..tiny()
        })
        .unwrap();
        let two = sweep(&SweepConfig {
            shards: 2,
            ..tiny()
        })
        .unwrap();
        assert_eq!(one, two);
        let cfg = tiny();
        assert_eq!(
            strip_host(&sweep_json(&cfg, &one)),
            strip_host(&sweep_json(&cfg, &two))
        );
        // Sharding preserves the reference count (line-crosser pieces and
        // all) even though the partition changes the contention picture.
        let whole = sweep(&cfg).unwrap();
        for (s, w) in one.iter().zip(&whole) {
            assert_eq!(s.protocol, w.protocol);
            assert_eq!(s.workload, w.workload);
            assert_eq!(s.accesses, w.accesses, "{}/{}", s.protocol, s.workload);
        }
    }

    #[test]
    fn single_cell_pool_and_flat_pool_agree() {
        // sweep_one's per-cell pool and sweep_sharded's flat cell × region
        // pool must merge to the same rows: pool shape is a host detail.
        let cfg = SweepConfig {
            shards: 2,
            ..tiny()
        };
        let flat = sweep_sharded(&cfg).unwrap();
        assert_eq!(
            flat.task_host_ns.len(),
            flat.rows.len() * SHARD_REGIONS,
            "one timed task per cell × region"
        );
        for row in &flat.rows {
            let single = sweep_one(&cfg, &row.protocol, &row.workload).unwrap();
            assert_eq!(&single, row, "{}/{}", row.protocol, row.workload);
        }
    }

    #[test]
    fn critical_path_replays_the_claim_schedule() {
        // Four equal tasks on two workers: two each.
        assert_eq!(critical_path_ns(&[3, 3, 3, 3], 2), 6);
        // One long task dominates; the other worker absorbs the rest.
        assert_eq!(critical_path_ns(&[5, 1, 1, 1], 2), 5);
        // One worker is exactly the serial sum.
        assert_eq!(critical_path_ns(&[5, 1, 1, 1], 1), 8);
        // More workers than tasks clamps harmlessly.
        assert_eq!(critical_path_ns(&[4, 2], 8), 4);
        assert_eq!(critical_path_ns(&[], 3), 0);
    }

    #[test]
    fn shard_scaling_reports_consistent_speedups() {
        let (rows, scaling) = shard_scaling(&tiny(), &[1, 2]).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(scaling.len(), 2);
        assert_eq!(scaling[0].shards, 1);
        assert_eq!(scaling[1].shards, 2);
        // The simulated totals are identical across worker counts...
        assert_eq!(scaling[0], scaling[1].clone_with_shards(1));
        // ...and the schedule model is internally consistent.
        for s in &scaling {
            assert_eq!(
                s.accesses,
                rows.iter().map(|r| r.accesses).sum::<u64>(),
                "aggregate covers every cell"
            );
            assert!(s.host.cpu_ns > 0);
            assert!(s.host.critical_ns > 0);
            assert!(s.host.critical_ns <= s.host.cpu_ns);
            assert!(
                s.host.modelled_speedup >= 1.0 - 1e-9,
                "shards={}: {}",
                s.shards,
                s.host.modelled_speedup
            );
            assert!(s.host.measured_speedup > 0.0, "shards={}", s.shards);
        }
        // One worker's schedule is exactly serial, and the first row is
        // its own measured baseline.
        assert_eq!(scaling[0].host.cpu_ns, scaling[0].host.critical_ns);
        assert!((scaling[0].host.modelled_speedup - 1.0).abs() < 1e-9);
        assert_eq!(scaling[0].host.measured_speedup, 1.0);
    }

    impl ScalingRow {
        /// Test helper: the same row relabelled with another worker count,
        /// so the host-blind equality can compare across counts.
        fn clone_with_shards(&self, shards: usize) -> ScalingRow {
            ScalingRow {
                shards,
                ..self.clone()
            }
        }
    }

    #[test]
    fn shard_scaling_rejects_bad_counts() {
        assert!(shard_scaling(&tiny(), &[])
            .unwrap_err()
            .contains("no shard counts"));
        assert!(shard_scaling(&tiny(), &[1, 0]).unwrap_err().contains("≥ 1"));
    }

    #[test]
    fn json_is_wellformed_enough_to_eyeball() {
        let cfg = tiny();
        let rows = sweep(&cfg).unwrap();
        let json = sweep_json(&cfg, &rows);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches("\"protocol\"").count(), rows.len());
        assert_eq!(json.matches("\"phase_p50_ns\": [").count(), rows.len());
        assert_eq!(json.matches("\"phase_p99_ns\": [").count(), rows.len());
        assert!(json.contains("\"seed\": 7"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }

    #[test]
    fn unknown_names_are_reported() {
        let mut cfg = tiny();
        cfg.protocols = vec!["mesif".into()];
        assert!(sweep(&cfg).unwrap_err().contains("mesif"));
        let mut cfg = tiny();
        cfg.workloads = vec!["zipfian".into()];
        assert!(sweep(&cfg).unwrap_err().contains("zipfian"));
        // The sharded path reports the same errors.
        let mut cfg = tiny();
        cfg.shards = 2;
        cfg.protocols = vec!["mesif".into()];
        assert!(sweep(&cfg).unwrap_err().contains("mesif"));
    }

    #[test]
    fn render_lists_every_cell() {
        let cfg = tiny();
        let rows = sweep(&cfg).unwrap();
        let text = render_sweep(&rows);
        assert_eq!(text.lines().count(), rows.len() + 1);
        assert!(text.contains("acc/sec"));
    }

    #[test]
    fn render_scaling_lists_every_count_with_speedup() {
        let (_, scaling) = shard_scaling(&tiny(), &[1, 2]).unwrap();
        let text = render_scaling(&scaling);
        assert_eq!(text.lines().count(), scaling.len() + 1);
        assert!(text.contains("modelled"));
        assert!(text.contains("measured"));
        assert!(text.contains('x'));
    }
}
