//! The default (no-subcommand) mode: build a machine from flags, drive it
//! with a synthetic workload or a replayed trace, and print the per-node
//! statistics.

use cache_array::{CacheConfig, ReplacementKind};
use moesi::protocols::by_name;
use mpsim::workload::{
    DuboisBriggs, FalseSharing, Migratory, PingPong, ProducerConsumer, ReadMostly, SharingModel,
};
use mpsim::{RefStream, System, SystemBuilder, TraceReplay};

pub(crate) const USAGE: &str = "\
moesi-sim: simulate MOESI-class cache consistency protocols on a Futurebus

USAGE:
    moesi-sim [OPTIONS]

SUBCOMMANDS:
    verify            exhaustively model-check small configurations
                      (see `moesi-sim verify --help`)
    faults            run a seeded fault-injection campaign and audit the
                      recovery (see `moesi-sim faults --help`)
    bench             run the protocol x workload benchmark sweep
                      (see `moesi-sim bench --help`)
    synth             search the compatibility class for workload-tuned
                      policy tables (see `moesi-sim synth --help`)
    table             print protocol policy tables, the paper's Tables 3-7
                      (see `moesi-sim table --help`)

OPTIONS:
    --protocol LIST   comma-separated per-node protocols (repeating the last
                      to fill --cpus). Known: moesi, moesi-invalidating,
                      puzak, berkeley, dragon, write-once, illinois, firefly, synapse,
                      write-through, non-caching, random, hybrid. [default: moesi]
    --cpus N          number of nodes [default: 4]
    --clusters CxN    run a two-level hierarchy instead: C clusters of N
                      nodes each on private buses behind bridges (ignores
                      --cpus; the oracle and workloads apply per node)
    --workload NAME   general | ping-pong | read-mostly | migratory |
                      producer-consumer | false-sharing [default: general]
    --trace-file PATH replay a textual trace (R/W addr [size]) on every node
                      instead of a synthetic workload
    --steps N         steps per node [default: 1000]
    --line-size N     system line size in bytes [default: 32]
    --cache-bytes N   per-node cache capacity [default: 4096]
    --seed N          RNG seed [default: 42]
    --check           enable the consistency oracle (panics on violation)
    --trace N         print the last N bus transactions
    --census          print per-node MOESI state censuses
    --help            print this help
";

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Config {
    pub(crate) protocols: Vec<String>,
    pub(crate) cpus: usize,
    pub(crate) clusters: Option<(usize, usize)>,
    pub(crate) workload: String,
    pub(crate) trace_file: Option<String>,
    pub(crate) steps: u64,
    pub(crate) line_size: usize,
    pub(crate) cache_bytes: usize,
    pub(crate) seed: u64,
    pub(crate) check: bool,
    pub(crate) trace: usize,
    pub(crate) census: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            protocols: vec!["moesi".to_string()],
            cpus: 4,
            clusters: None,
            workload: "general".to_string(),
            trace_file: None,
            steps: 1000,
            line_size: 32,
            cache_bytes: 4096,
            seed: 42,
            check: false,
            trace: 0,
            census: false,
        }
    }
}

pub(crate) fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => {
                cfg.protocols = value("--protocol")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if cfg.protocols.is_empty() {
                    return Err("--protocol list is empty".to_string());
                }
            }
            "--cpus" => {
                cfg.cpus = value("--cpus")?
                    .parse()
                    .map_err(|_| "--cpus expects a number".to_string())?;
                if cfg.cpus == 0 {
                    return Err("--cpus must be at least 1".to_string());
                }
            }
            "--clusters" => {
                let spec = value("--clusters")?;
                let (c, n) = spec
                    .split_once(['x', 'X'])
                    .ok_or_else(|| "--clusters expects CxN, e.g. 4x2".to_string())?;
                let c: usize = c
                    .parse()
                    .map_err(|_| "--clusters expects CxN".to_string())?;
                let n: usize = n
                    .parse()
                    .map_err(|_| "--clusters expects CxN".to_string())?;
                if c == 0 || n == 0 {
                    return Err("--clusters dimensions must be at least 1".to_string());
                }
                cfg.clusters = Some((c, n));
            }
            "--workload" => cfg.workload = value("--workload")?.clone(),
            "--trace-file" => cfg.trace_file = Some(value("--trace-file")?.clone()),
            "--steps" => {
                cfg.steps = value("--steps")?
                    .parse()
                    .map_err(|_| "--steps expects a number".to_string())?;
            }
            "--line-size" => {
                cfg.line_size = value("--line-size")?
                    .parse()
                    .map_err(|_| "--line-size expects a number".to_string())?;
            }
            "--cache-bytes" => {
                cfg.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|_| "--cache-bytes expects a number".to_string())?;
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a number".to_string())?;
            }
            "--check" => cfg.check = true,
            "--census" => cfg.census = true,
            "--trace" => {
                cfg.trace = value("--trace")?
                    .parse()
                    .map_err(|_| "--trace expects a number".to_string())?;
            }
            "--help" | "-h" => return Err(String::new()), // signals: print usage
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(cfg)
}

fn build_system(cfg: &Config) -> Result<System, String> {
    let cache_cfg = CacheConfig::new(cfg.cache_bytes, cfg.line_size, 2, ReplacementKind::Lru);
    let mut builder = SystemBuilder::new(cfg.line_size)
        .checking(cfg.check)
        .seed(cfg.seed);
    for i in 0..cfg.cpus {
        let name = cfg
            .protocols
            .get(i)
            .or_else(|| cfg.protocols.last())
            .expect("non-empty protocol list");
        let protocol = by_name(name, cfg.seed.wrapping_add(i as u64))
            .ok_or_else(|| format!("unknown protocol `{name}`"))?;
        builder = if protocol.kind() == moesi::CacheKind::NonCaching {
            builder.uncached(protocol)
        } else {
            builder.cache(protocol, cache_cfg)
        };
    }
    Ok(builder.build())
}

fn build_streams(cfg: &Config) -> Result<Vec<Box<dyn RefStream + Send>>, String> {
    if let Some(path) = &cfg.trace_file {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace file `{path}`: {e}"))?;
        let replay = TraceReplay::from_text(&text).map_err(|e| e.to_string())?;
        return Ok((0..cfg.cpus)
            .map(|_| Box::new(replay.clone()) as Box<dyn RefStream + Send>)
            .collect());
    }
    let line = cfg.line_size as u64;
    (0..cfg.cpus)
        .map(|cpu| -> Result<Box<dyn RefStream + Send>, String> {
            Ok(match cfg.workload.as_str() {
                "general" => Box::new(DuboisBriggs::new(
                    cpu,
                    SharingModel {
                        line_size: line,
                        ..SharingModel::default()
                    },
                    cfg.seed,
                )),
                "ping-pong" => Box::new(PingPong::new(cpu, 0, line)),
                "read-mostly" => Box::new(ReadMostly::new(cpu, 0, 16, line, 8)),
                "migratory" => Box::new(Migratory::new(cpu, cfg.cpus, 8, line)),
                "producer-consumer" => {
                    if cpu == 0 {
                        Box::new(ProducerConsumer::producer(8, line))
                    } else {
                        Box::new(ProducerConsumer::consumer(8, line))
                    }
                }
                "false-sharing" => Box::new(FalseSharing::new(cpu, 0, line, 3)),
                other => return Err(format!("unknown workload `{other}`")),
            })
        })
        .collect()
}

fn run_hierarchy(cfg: &Config, clusters: usize, per_cluster: usize) -> Result<(), String> {
    use mpsim::hierarchy::{TreeBuilder, TreeSpec};
    let cache_cfg = CacheConfig::new(cfg.cache_bytes, cfg.line_size, 2, ReplacementKind::Lru);
    let mut b = TreeBuilder::new(cfg.line_size)
        .checking(cfg.check)
        .seed(cfg.seed);
    for c in 0..clusters {
        let mut leaf = TreeSpec::leaf();
        for n in 0..per_cluster {
            let i = c * per_cluster + n;
            let name = cfg
                .protocols
                .get(i)
                .or_else(|| cfg.protocols.last())
                .expect("non-empty protocol list");
            let protocol = by_name(name, cfg.seed.wrapping_add(i as u64))
                .ok_or_else(|| format!("unknown protocol `{name}`"))?;
            leaf = if protocol.kind() == moesi::CacheKind::NonCaching {
                leaf.uncached(protocol)
            } else {
                leaf.cache(protocol, cache_cfg)
            };
        }
        b = b.child(leaf);
    }
    let mut sys = b.build();
    let mut flat_cfg = cfg.clone();
    flat_cfg.cpus = per_cluster; // streams built per cluster
    let mut streams = Vec::new();
    for _ in 0..clusters {
        streams.push(build_streams(&flat_cfg)?);
    }
    sys.run(&mut streams, cfg.steps);
    if cfg.check {
        sys.verify()
            .map_err(|v| format!("consistency violation: {v}"))?;
    }
    println!(
        "{clusters} clusters x {per_cluster} nodes x {} steps, workload `{}`{}\n",
        cfg.steps,
        cfg.workload,
        if cfg.check { " [oracle: OK]" } else { "" },
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "cluster", "parent-txns", "fetches", "bcasts", "supplied", "inv-in"
    );
    for c in 0..clusters {
        let b = sys.bridge(c).stats();
        println!(
            "{:<10} {:>12} {:>10} {:>10} {:>10} {:>10}",
            format!("cluster{c}"),
            b.parent_transactions,
            b.fetches,
            b.broadcasts,
            b.supplied,
            b.invalidations_in,
        );
    }
    println!(
        "\nparent bus: {} txns; cluster buses: {} txns total",
        sys.parent_stats().transactions,
        (0..clusters)
            .map(|c| sys.bridge(c).fabric().bus().stats().transactions)
            .sum::<u64>(),
    );
    Ok(())
}

pub(crate) fn run(cfg: &Config) -> Result<(), String> {
    if let Some((clusters, per_cluster)) = cfg.clusters {
        return run_hierarchy(cfg, clusters, per_cluster);
    }
    let mut sys = build_system(cfg)?;
    if cfg.trace > 0 {
        sys.enable_trace(cfg.trace);
    }
    let mut streams = build_streams(cfg)?;
    sys.run(&mut streams, cfg.steps);
    if cfg.check {
        sys.verify()
            .map_err(|v| format!("consistency violation: {v}"))?;
    }

    println!(
        "{} nodes x {} steps, workload `{}`, line {}B{}\n",
        sys.nodes(),
        cfg.steps,
        cfg.trace_file.as_deref().unwrap_or(&cfg.workload),
        cfg.line_size,
        if cfg.check { " [oracle: OK]" } else { "" },
    );
    println!(
        "{:<24} {:>8} {:>7} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "node", "refs", "hit%", "bus txns", "inv-recv", "upd-recv", "interv", "pushes"
    );
    for cpu in 0..sys.nodes() {
        let s = sys.stats(cpu);
        println!(
            "{:<24} {:>8} {:>6.1}% {:>9} {:>9} {:>9} {:>8} {:>7}",
            sys.controller(cpu).name(),
            s.references(),
            s.hit_ratio() * 100.0,
            s.bus_transactions,
            s.invalidations_received,
            s.updates_received,
            s.interventions_supplied,
            s.pushes,
        );
    }
    println!("\n{}", sys.bus_stats());

    if cfg.census {
        println!("\nMOESI state census:");
        for cpu in 0..sys.nodes() {
            println!(
                "  {:<24} {}",
                sys.controller(cpu).name(),
                sys.state_census(cpu)
            );
        }
    }
    if cfg.trace > 0 {
        println!("\nlast {} bus transactions:", sys.trace().len());
        for line in sys.trace().render().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::args;

    #[test]
    fn defaults_apply_with_no_args() {
        let cfg = parse_args(&[]).expect("empty args");
        assert_eq!(cfg, Config::default());
    }

    #[test]
    fn full_option_set_parses() {
        let cfg = parse_args(&args(
            "--protocol moesi,dragon --cpus 6 --workload ping-pong --steps 50 \
             --line-size 64 --cache-bytes 8192 --seed 7 --check --census --trace 12",
        ))
        .expect("valid");
        assert_eq!(cfg.protocols, vec!["moesi", "dragon"]);
        assert_eq!(cfg.cpus, 6);
        assert_eq!(cfg.workload, "ping-pong");
        assert_eq!(cfg.steps, 50);
        assert_eq!(cfg.line_size, 64);
        assert_eq!(cfg.cache_bytes, 8192);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.check && cfg.census);
        assert_eq!(cfg.trace, 12);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_args(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_args(&args("--cpus"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&args("--cpus zero"))
            .unwrap_err()
            .contains("expects a number"));
        assert!(parse_args(&args("--cpus 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(
            parse_args(&args("--help")).unwrap_err().is_empty(),
            "help sentinel"
        );
    }

    #[test]
    fn unknown_protocol_is_reported_at_build_time() {
        let cfg = Config {
            protocols: vec!["tcc-1999".to_string()],
            ..Config::default()
        };
        assert!(build_system(&cfg).unwrap_err().contains("unknown protocol"));
    }

    #[test]
    fn protocol_list_extends_to_cpu_count() {
        let cfg = Config {
            protocols: vec!["moesi".to_string(), "dragon".to_string()],
            cpus: 4,
            ..Config::default()
        };
        let sys = build_system(&cfg).expect("builds");
        assert_eq!(sys.nodes(), 4);
        assert!(sys.controller(0).name().contains("MOESI"));
        assert!(sys.controller(1).name().contains("Dragon"));
        assert!(sys.controller(3).name().contains("Dragon"), "last repeats");
    }

    #[test]
    fn end_to_end_smoke_run() {
        let cfg = Config {
            steps: 30,
            check: true,
            census: true,
            trace: 4,
            workload: "ping-pong".to_string(),
            ..Config::default()
        };
        run(&cfg).expect("smoke run succeeds");
    }

    #[test]
    fn clusters_spec_parses_and_validates() {
        let cfg = parse_args(&args("--clusters 4x2")).expect("valid");
        assert_eq!(cfg.clusters, Some((4, 2)));
        assert!(parse_args(&args("--clusters 4"))
            .unwrap_err()
            .contains("CxN"));
        assert!(parse_args(&args("--clusters 0x2"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn hierarchy_smoke_run() {
        let cfg = Config {
            clusters: Some((2, 2)),
            steps: 20,
            check: true,
            ..Config::default()
        };
        run(&cfg).expect("hierarchy run succeeds");
    }

    #[test]
    fn unknown_workload_is_reported() {
        let cfg = Config {
            workload: "mystery".to_string(),
            ..Config::default()
        };
        assert!(run(&cfg).unwrap_err().contains("unknown workload"));
    }
}
