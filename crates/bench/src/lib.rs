//! Shared harness code for the table/figure regeneration binaries and the
//! `moesi-sim` subcommands that print the same artifacts.
//!
//! The experiment index lives in `DESIGN.md`; each experiment id (T1–T7,
//! F1–F4, E1–E6) maps to a function here, a binary under `src/bin/`, or a
//! test under the workspace's `tests/`.

#![warn(missing_docs)]

pub mod hierarchy;
pub mod sweep;

use cache_array::{CacheConfig, ReplacementKind};
use futurebus::TimingConfig;
use moesi::json::JsonObject;
use moesi::protocols::by_name;
use moesi::{PolicyTable, TablePolicy};
use mpsim::workload::{
    DuboisBriggs, FalseSharing, Migratory, PingPong, ProducerConsumer, ReadMostly, SharingModel,
};
use mpsim::{RefStream, System, SystemBuilder};

/// Renders `name`'s policy table (the paper's Tables 3–7 layout) followed by
/// its structural class-membership verdict. This is the one renderer behind
/// `moesi-sim table` and the `tables` binary.
///
/// # Errors
///
/// Unknown protocol names, and protocols that expose no policy table.
pub fn render_policy(name: &str, seed: u64) -> Result<String, String> {
    let p = by_name(name, seed).ok_or_else(|| format!("unknown protocol `{name}`"))?;
    let table = p
        .policy_table()
        .ok_or_else(|| format!("`{name}` exposes no policy table"))?;
    let mut out = table.render();
    if !p.table_is_exact() {
        out.push_str("note: base table only — a stateful hook refines the choice per line\n");
    }
    let violations = table.class_violations();
    if violations.is_empty() {
        out.push_str("class membership: IN the MOESI compatible class\n");
    } else {
        out.push_str(&format!(
            "class membership: ADAPTED ({} out-of-class entries)\n",
            violations.len()
        ));
    }
    Ok(out)
}

/// Host-side figures: measurements of the simulator on this host, never of
/// the simulated machine. They differ run to run by construction, so they
/// never tell two results apart — every `Host` equals every other, and a
/// row deriving `PartialEq` compares only what it simulated. Rendered as
/// the row's last member, a `"host"` object that [`strip_host`] drops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Host<T>(pub T);

impl<T> PartialEq for Host<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> std::ops::Deref for Host<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The host figures of one timed run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunTiming {
    /// Host wall-clock nanoseconds the run took.
    pub wall_ns: u64,
    /// Engine throughput: simulated accesses per host second.
    pub accesses_per_sec: f64,
}

impl Host<RunTiming> {
    /// The figures of a run that simulated `accesses` in `wall_ns` host
    /// nanoseconds.
    #[must_use]
    pub fn run(accesses: u64, wall_ns: u64) -> Self {
        Host(RunTiming {
            wall_ns,
            accesses_per_sec: per_sec(accesses, wall_ns),
        })
    }

    /// The `"host"` object.
    #[must_use]
    pub fn json(&self) -> String {
        JsonObject::new()
            .number("wall_ns", self.wall_ns)
            .fixed("accesses_per_sec", self.accesses_per_sec, 3)
            .finish()
    }
}

/// `count` per second of `ns` nanoseconds (0 for an empty interval).
pub(crate) fn per_sec(count: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        count as f64 * 1e9 / ns as f64
    }
}

/// Renders a BENCH document: the `header` lines (each `  "key": value,`),
/// the `rows` array, and last the file's `"host"` object with the cores
/// this host offered.
pub(crate) fn bench_document(header: &str, rows: &[String]) -> String {
    let mut out = format!("{{\n{header}  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {row}{sep}\n"));
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    out.push_str(&format!(
        "  ],\n  \"host\": {}\n}}\n",
        JsonObject::new()
            .number("available_parallelism", cores)
            .finish()
    ));
    out
}

/// Drops every `"host"` object from a BENCH document — each row's host
/// figures and the file's — leaving only simulated results, which compare
/// byte for byte across runs, worker counts and hosts. A `"host"` object
/// is always the last member of its object and nests nothing, so it goes
/// together with the separator before it.
#[must_use]
pub fn strip_host(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"host\": {") {
        let Some(close) = rest[at..].find('}') else {
            break;
        };
        let kept = rest[..at].trim_end();
        out.push_str(kept.strip_suffix(',').unwrap_or(kept));
        rest = &rest[at + close + 1..];
    }
    out.push_str(rest);
    out
}

/// The standard line size used across the experiments (bytes).
pub const LINE: usize = 32;

/// The protocols compared in the E2/E3 experiments, in presentation order.
pub const COMPARED_PROTOCOLS: &[&str] = &[
    "moesi",
    "moesi-invalidating",
    "puzak",
    "berkeley",
    "dragon",
    "write-once",
    "illinois",
    "firefly",
    "synapse",
    "write-through",
    "hybrid",
];

/// The named workloads used across the experiments.
pub const WORKLOADS: &[&str] = &[
    "general",
    "ping-pong",
    "read-mostly",
    "migratory",
    "producer-consumer",
    "false-sharing",
];

/// Builds a homogeneous `cpus`-node system of `protocol` caches.
///
/// # Panics
///
/// Panics on an unknown protocol name.
#[must_use]
pub fn homogeneous_system(
    protocol: &str,
    cpus: usize,
    cache_bytes: usize,
    line: usize,
    timing: TimingConfig,
    checking: bool,
) -> System {
    let cfg = CacheConfig::new(cache_bytes, line, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(line).timing(timing).checking(checking);
    for i in 0..cpus {
        b = b.cache(
            by_name(protocol, 1000 + i as u64)
                .unwrap_or_else(|| panic!("unknown protocol {protocol}")),
            cfg,
        );
    }
    b.build()
}

/// A homogeneous machine like [`homogeneous_system`], but every node runs a
/// given [`PolicyTable`] through the generic `TablePolicy` interpreter
/// instead of a shipped protocol looked up by name. This is how the synth
/// subsystem scores candidate tables that exist nowhere in the registry.
#[must_use]
pub fn homogeneous_table_system(
    table: PolicyTable,
    cpus: usize,
    cache_bytes: usize,
    line: usize,
    timing: TimingConfig,
    checking: bool,
) -> System {
    let cfg = CacheConfig::new(cache_bytes, line, 2, ReplacementKind::Lru);
    let mut b = SystemBuilder::new(line).timing(timing).checking(checking);
    for _ in 0..cpus {
        b = b.cache(Box::new(TablePolicy::new(table)), cfg);
    }
    b.build()
}

/// Builds per-CPU reference streams for a named workload.
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn workload_streams(
    kind: &str,
    cpus: usize,
    line: usize,
    seed: u64,
) -> Vec<Box<dyn RefStream + Send>> {
    let line = line as u64;
    (0..cpus)
        .map(|cpu| -> Box<dyn RefStream + Send> {
            match kind {
                "ping-pong" => Box::new(PingPong::new(cpu, 0, line)),
                "false-sharing" => Box::new(FalseSharing::new(cpu, 0, line, 3)),
                "read-mostly" => Box::new(ReadMostly::new(cpu, 0, 16, line, 8)),
                "migratory" => Box::new(Migratory::new(cpu, cpus, 8, line)),
                "producer-consumer" => {
                    if cpu == 0 {
                        Box::new(ProducerConsumer::producer(8, line))
                    } else {
                        Box::new(ProducerConsumer::consumer(8, line))
                    }
                }
                "general" => Box::new(DuboisBriggs::new(
                    cpu,
                    SharingModel {
                        line_size: line,
                        ..SharingModel::default()
                    },
                    seed,
                )),
                other => panic!("unknown workload {other}"),
            }
        })
        .collect()
}

/// One row of a protocol-comparison table.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Protocol name.
    pub protocol: String,
    /// Cache hit ratio over all nodes.
    pub hit_ratio: f64,
    /// Total bus transactions.
    pub bus_transactions: u64,
    /// Total bus-busy time in nanoseconds.
    pub bus_ns: u64,
    /// Invalidations received across all nodes.
    pub invalidations: u64,
    /// Broadcast updates received across all nodes.
    pub updates: u64,
    /// Interventions served.
    pub interventions: u64,
    /// BS aborts.
    pub aborts: u64,
}

/// Runs `protocol` on `workload` and summarises (the E2/E3 measurement).
#[must_use]
pub fn compare_one(protocol: &str, workload: &str, cpus: usize, steps: u64) -> ComparisonRow {
    let mut sys = homogeneous_system(protocol, cpus, 4096, LINE, TimingConfig::default(), true);
    sys.run(&mut [workload_streams(workload, cpus, LINE, 7)], steps);
    sys.verify().expect("consistent");
    let t = sys.total_stats();
    let b = sys.bus_stats();
    ComparisonRow {
        protocol: protocol.to_string(),
        hit_ratio: t.hit_ratio(),
        bus_transactions: b.transactions,
        bus_ns: b.busy_ns,
        invalidations: t.invalidations_received,
        updates: t.updates_received,
        interventions: b.interventions,
        aborts: b.aborts,
    }
}

/// Formats comparison rows as an aligned text table.
#[must_use]
pub fn render_comparison(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<20} {:>7} {:>9} {:>11} {:>8} {:>8} {:>8} {:>7}\n",
        "protocol", "hit%", "bus txns", "bus us", "inval", "update", "interv", "aborts"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>6.1}% {:>9} {:>11.1} {:>8} {:>8} {:>8} {:>7}\n",
            r.protocol,
            r.hit_ratio * 100.0,
            r.bus_transactions,
            r.bus_ns as f64 / 1000.0,
            r.invalidations,
            r.updates,
            r.interventions,
            r.aborts,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_compared_protocol_builds_and_runs() {
        for p in COMPARED_PROTOCOLS {
            let row = compare_one(p, "general", 2, 50);
            assert!(row.bus_transactions > 0, "{p} produced no traffic");
        }
    }

    #[test]
    fn every_workload_builds() {
        for w in WORKLOADS {
            let streams = workload_streams(w, 3, LINE, 1);
            assert_eq!(streams.len(), 3, "{w}");
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![compare_one("moesi", "ping-pong", 2, 20)];
        let text = render_comparison("t", &rows);
        assert!(text.contains("moesi"));
        assert!(text.contains("bus txns"));
    }
}
