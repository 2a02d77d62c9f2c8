//! The `faults` subcommand: seeded fault-injection campaigns, flat and
//! hierarchical, audited against the consistency oracle.

use crate::chrome::write_chrome_trace;
use futurebus::fault::{FaultConfig, FaultKind};
use moesi_futurebus::cli::{check_cache_geometry, CommonOpts};
use mpsim::{run_campaign, CampaignConfig, TreeShape};

pub(crate) const FAULTS_USAGE: &str = "\
moesi-sim faults: run a seeded fault-injection campaign over the class

Runs one machine per protocol on a bus that injects wired-OR consistency
line glitches, module stalls and kills, BS abort storms and memory soft
errors, then audits every fault against the consistency oracle and
classifies it masked / detected / SILENT. Exits nonzero if any fault is
silent — the graceful-degradation claim made executable.

With --hierarchy the campaign targets a two-level machine instead: the
parent bus injects bridge stalls and kills (the watchdog retires the
bridge, salvages or reports every dirty line, and the cluster degrades to
memory-direct), inclusion-tag soft errors (scrubbed from cluster
evidence), plus glitches, storms and memory corruption, while each cluster
bus glitches and storms independently. The run ends with the seeded
liveness probe: a phantom-BS storm that livelocks naive flat retry and is
recovered by capped backoff with arbitration priority aging.

USAGE:
    moesi-sim faults [OPTIONS]

OPTIONS:
    --protocol LIST   comma-separated protocols, one homogeneous machine per
                      entry [default: moesi,dragon,write-through,berkeley,
                      hybrid]
    --hierarchy       run the bridge campaign described above
    --clusters N      clusters on the root bus (with --hierarchy) [default: 2]
    --depth N         bus levels in the fabric tree (with --hierarchy): 2 is
                      the classic two-level machine; deeper values interpose
                      interior segments whose modules are child bridges
                      [default: 2]
    --fanout N        children per interior segment when --depth > 2 (with
                      --hierarchy) [default: 2]
    --cpus N          processors per machine, or per cluster with
                      --hierarchy [default: 4]
    --steps N         processor accesses per machine [default: 2500]
    --lines N         distinct lines in the working set [default: 96]
    --line-size N     bytes per line [default: 16]
    --cache-bytes N   per-node cache capacity [default: 1024]
    --seed N          campaign seed, covering workload and faults
                      [default: 51966]
    --rate R          base per-transaction injection rate in [0, 1]. Enabled
                      kinds scale from it: glitch, corrupt and stale-tag
                      land at R, storms at R/2, stalls and kills — bridge
                      stalls and kills under --hierarchy — at R/100
                      (retirements are permanent, so they stay rare)
                      [default: 0.1]
    --kind LIST       fault kinds to enable: glitch, stall, kill, storm,
                      corrupt, bridge-stall, bridge-kill, stale-tag, or all
                      (naming a bridge kind requires --hierarchy; `all`
                      enables them only there) [default: all]
    --jobs N          worker threads, one protocol machine per job; the
                      report is identical for any N [default: available
                      cores]
    --shards N        run each protocol's campaign sharded: the planned
                      access schedule splits over fixed address regions,
                      one region machine (flat or tree) each, merged on N
                      workers. The report is byte-identical for any N
                      [default: off]
    --json            also write the report (with the lost/salvaged-line and
                      retry/backoff ledgers) as JSON to --out
    --out PATH        JSON output path [default: FAULTS_report.json]
    --trace-out FILE  also write a Chrome trace (chrome://tracing JSON) of
                      one exemplar faulted run of the first protocol; flat
                      campaigns only; the file is identical for any --jobs
                      value
    --help            print this help
";

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FaultsConfig {
    pub(crate) protocols: Vec<String>,
    pub(crate) hierarchy: bool,
    pub(crate) clusters: usize,
    pub(crate) depth: usize,
    pub(crate) fanout: usize,
    pub(crate) cpus: usize,
    pub(crate) steps: u64,
    pub(crate) lines: u64,
    pub(crate) line_size: usize,
    pub(crate) cache_bytes: usize,
    pub(crate) seed: u64,
    pub(crate) rate: f64,
    pub(crate) kinds: Vec<FaultKind>,
    pub(crate) jobs: usize,
    pub(crate) shards: usize,
    pub(crate) json: bool,
    pub(crate) out: String,
    pub(crate) trace_out: Option<String>,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        let base = CampaignConfig::default();
        let tree = TreeShape::default();
        FaultsConfig {
            protocols: base.protocols,
            hierarchy: false,
            clusters: tree.clusters,
            depth: tree.depth,
            fanout: tree.fanout,
            cpus: base.cpus,
            steps: base.steps,
            lines: base.lines,
            line_size: base.line_size,
            cache_bytes: base.cache_bytes,
            seed: base.seed,
            rate: 0.1,
            kinds: FaultKind::ALL.to_vec(),
            jobs: base.jobs,
            shards: base.shards,
            json: false,
            out: "FAULTS_report.json".to_string(),
            trace_out: None,
        }
    }
}

fn parse_fault_kinds(list: &str) -> Result<Vec<FaultKind>, String> {
    let mut kinds = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match name {
            "glitch" => kinds.push(FaultKind::Glitch),
            "stall" => kinds.push(FaultKind::Stall),
            "kill" => kinds.push(FaultKind::Kill),
            "storm" | "abort-storm" => kinds.push(FaultKind::AbortStorm),
            "corrupt" | "corrupt-memory" => kinds.push(FaultKind::CorruptMemory),
            "bridge-stall" => kinds.push(FaultKind::BridgeStall),
            "bridge-kill" => kinds.push(FaultKind::BridgeKill),
            "stale-tag" => kinds.push(FaultKind::StaleTag),
            "all" => kinds.extend(FaultKind::ALL),
            other => return Err(format!("unknown fault kind `{other}`")),
        }
    }
    if kinds.is_empty() {
        return Err("--kind list is empty".to_string());
    }
    kinds.dedup();
    Ok(kinds)
}

pub(crate) fn parse_faults_args(args: &[String]) -> Result<FaultsConfig, String> {
    let mut cfg = FaultsConfig::default();
    let mut common = CommonOpts::default();
    let mut depth: Option<usize> = None;
    let mut fanout: Option<usize> = None;
    let mut bridge_kind: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if common.try_consume(arg, &mut it)? {
            continue;
        }
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: &str| -> Result<u64, String> {
            let n: u64 = v.parse().map_err(|_| format!("{name} expects a number"))?;
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            Ok(n)
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
            "--cpus" => cfg.cpus = number("--cpus", value("--cpus")?)? as usize,
            "--steps" => cfg.steps = number("--steps", value("--steps")?)?,
            "--lines" => cfg.lines = number("--lines", value("--lines")?)?,
            "--line-size" => {
                cfg.line_size = number("--line-size", value("--line-size")?)? as usize;
            }
            "--cache-bytes" => {
                cfg.cache_bytes = number("--cache-bytes", value("--cache-bytes")?)? as usize;
            }
            "--rate" => {
                cfg.rate = value("--rate")?
                    .parse()
                    .map_err(|_| "--rate expects a number".to_string())?;
                if !(0.0..=1.0).contains(&cfg.rate) {
                    return Err("--rate must be between 0 and 1".to_string());
                }
            }
            "--kind" => {
                let list = value("--kind")?;
                cfg.kinds = parse_fault_kinds(list)?;
                bridge_kind = list
                    .split(',')
                    .map(str::trim)
                    .find(|k| matches!(*k, "bridge-stall" | "bridge-kill" | "stale-tag"))
                    .map(str::to_string);
            }
            "--shards" => cfg.shards = number("--shards", value("--shards")?)? as usize,
            "--hierarchy" => cfg.hierarchy = true,
            "--clusters" => cfg.clusters = number("--clusters", value("--clusters")?)? as usize,
            "--depth" => {
                let d = number("--depth", value("--depth")?)? as usize;
                if d < 2 {
                    return Err("--depth must be at least 2 (the two-level machine)".to_string());
                }
                depth = Some(d);
            }
            "--fanout" => fanout = Some(number("--fanout", value("--fanout")?)? as usize),
            "--json" => cfg.json = true,
            "--out" => cfg.out = value("--out")?.clone(),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    check_cache_geometry(cfg.cache_bytes, cfg.line_size)?;
    if let Some(seed) = common.seed {
        cfg.seed = seed;
    }
    if let Some(jobs) = common.jobs {
        cfg.jobs = jobs;
    }
    cfg.trace_out = common.trace_out;
    if cfg.hierarchy && cfg.trace_out.is_some() {
        return Err("--trace-out traces a flat run; drop it or drop --hierarchy".to_string());
    }
    if let (false, Some(kind)) = (cfg.hierarchy, &bridge_kind) {
        return Err(format!(
            "--kind {kind} only fires on a fabric tree; add --hierarchy"
        ));
    }
    if !cfg.hierarchy && (depth.is_some() || fanout.is_some()) {
        return Err("--depth/--fanout shape the fabric tree; add --hierarchy".to_string());
    }
    if let Some(d) = depth {
        cfg.depth = d;
    }
    if let Some(f) = fanout {
        cfg.fanout = f;
    }
    Ok(cfg)
}

fn fault_rates(cfg: &FaultsConfig) -> FaultConfig {
    let mut faults = FaultConfig {
        // Decorrelate the fault stream from the workload stream while keeping
        // both under the single --seed knob.
        seed: cfg.seed ^ 0xFA_017,
        max_storm_rounds: 4,
        ..FaultConfig::default()
    };
    for kind in &cfg.kinds {
        match kind {
            FaultKind::Glitch => faults.glitch_rate = cfg.rate,
            // Stall/kill double as bridge-stall/bridge-kill: the plan's
            // `bridges` flag (set only on a hierarchy's parent bus) decides
            // which the victim is, so either spelling enables the rate.
            FaultKind::Stall | FaultKind::BridgeStall => faults.stall_rate = cfg.rate / 100.0,
            FaultKind::Kill | FaultKind::BridgeKill => faults.kill_rate = cfg.rate / 100.0,
            FaultKind::AbortStorm => faults.storm_rate = cfg.rate / 2.0,
            FaultKind::CorruptMemory => faults.corrupt_rate = cfg.rate,
            FaultKind::StaleTag => faults.stale_tag_rate = cfg.rate,
        }
    }
    faults
}

fn campaign_config(cfg: &FaultsConfig) -> CampaignConfig {
    CampaignConfig {
        protocols: cfg.protocols.clone(),
        tree: cfg.hierarchy.then_some(TreeShape {
            clusters: cfg.clusters,
            depth: cfg.depth,
            fanout: cfg.fanout,
        }),
        cpus: cfg.cpus,
        line_size: cfg.line_size,
        cache_bytes: cfg.cache_bytes,
        steps: cfg.steps,
        lines: cfg.lines,
        seed: cfg.seed,
        tables: Vec::new(),
        faults: fault_rates(cfg),
        jobs: cfg.jobs,
        shards: cfg.shards,
    }
}

pub(crate) fn run_faults(cfg: &FaultsConfig) -> Result<(), String> {
    let campaign = campaign_config(cfg);
    let report = run_campaign(&campaign)?;
    outln!("{report}");
    // A tree campaign ends with the liveness probe.
    let probe = if cfg.hierarchy {
        outln!();
        let probe = mpsim::run_liveness_probe(cfg.seed, 24)?;
        outln!("{probe}");
        Some(probe)
    } else {
        None
    };
    if cfg.json {
        let report = mpsim::campaign_report_json(&report);
        let json = match &probe {
            None => report,
            Some(probe) => format!(
                "{{\"report\": {report}, \"liveness\": {}}}",
                mpsim::liveness_probe_json(probe)
            ),
        };
        std::fs::write(&cfg.out, json).map_err(|e| format!("cannot write `{}`: {e}", cfg.out))?;
        outln!("JSON report written to {}", cfg.out);
    }
    if let Some(path) = &cfg.trace_out {
        write_chrome_trace(
            path,
            &mpsim::TraceRunConfig {
                protocol: campaign.protocols[0].clone(),
                cpus: campaign.cpus,
                line_size: campaign.line_size,
                cache_bytes: campaign.cache_bytes,
                steps: campaign.steps,
                lines: campaign.lines,
                seed: campaign.seed,
                faults: Some(campaign.faults),
            },
        )?;
    }
    let silent = report.tally().silent();
    if silent > 0 {
        return Err(format!("{silent} fault(s) caused silent corruption"));
    }
    if probe.is_some_and(|p| !p.demonstrates_recovery()) {
        return Err("liveness probe failed to demonstrate livelock recovery".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::args;

    #[test]
    fn faults_defaults_and_full_option_set_parse() {
        assert_eq!(
            parse_faults_args(&[]).expect("empty"),
            FaultsConfig::default()
        );
        let cfg = parse_faults_args(&args(
            "--protocol moesi,berkeley --cpus 3 --steps 500 --lines 40 \
             --line-size 32 --cache-bytes 2048 --seed 9 --rate 0.25 \
             --kind glitch,corrupt --trace-out /tmp/f.json",
        ))
        .expect("valid");
        assert_eq!(cfg.protocols, vec!["moesi", "berkeley"]);
        assert_eq!((cfg.cpus, cfg.steps, cfg.lines), (3, 500, 40));
        assert_eq!((cfg.line_size, cfg.cache_bytes), (32, 2048));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.trace_out.as_deref(), Some("/tmp/f.json"));
        assert!((cfg.rate - 0.25).abs() < 1e-12);
        assert_eq!(cfg.kinds, vec![FaultKind::Glitch, FaultKind::CorruptMemory]);
        assert!(parse_faults_args(&args("--help")).unwrap_err().is_empty());
        assert!(parse_faults_args(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_faults_args(&args("--rate 1.5"))
            .unwrap_err()
            .contains("between 0 and 1"));
        assert!(parse_faults_args(&args("--kind gremlin"))
            .unwrap_err()
            .contains("unknown fault kind"));
        assert!(parse_faults_args(&args("--steps 0"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn faults_shard_flag_parses_for_both_machines() {
        let cfg = parse_faults_args(&args("--shards 4")).expect("valid");
        assert_eq!(cfg.shards, 4);
        assert_eq!(campaign_config(&cfg).shards, 4);
        assert_eq!(
            parse_faults_args(&[]).expect("empty").shards,
            0,
            "sharding stays off unless asked for"
        );
        assert!(parse_faults_args(&args("--shards 0"))
            .unwrap_err()
            .contains("at least 1"));
        let tree =
            campaign_config(&parse_faults_args(&args("--hierarchy --shards 2")).expect("valid"));
        assert_eq!(
            (tree.shards, tree.tree, tree.cpus),
            (2, Some(TreeShape::default()), 4)
        );
    }

    #[test]
    fn bridge_kinds_need_a_tree() {
        for kind in [
            "bridge-stall",
            "bridge-kill",
            "stale-tag",
            "glitch,stale-tag",
        ] {
            let err = parse_faults_args(&args(&format!("--kind {kind}"))).unwrap_err();
            assert!(err.contains("add --hierarchy"), "{kind}: {err}");
            assert!(!err.contains('\n'), "one line: {err}");
        }
        // `all` names no bridge kind, and a tree takes every spelling.
        assert!(parse_faults_args(&args("--kind all")).is_ok());
        assert!(parse_faults_args(&args("--kind bridge-stall --hierarchy")).is_ok());
    }

    #[test]
    fn faults_rate_maps_onto_the_enabled_kinds_only() {
        let cfg = parse_faults_args(&args("--rate 0.2 --kind glitch,storm")).expect("valid");
        let campaign = campaign_config(&cfg);
        assert!((campaign.faults.glitch_rate - 0.2).abs() < 1e-12);
        assert!((campaign.faults.storm_rate - 0.1).abs() < 1e-12);
        assert_eq!(campaign.faults.stall_rate, 0.0, "stall not enabled");
        assert_eq!(campaign.faults.kill_rate, 0.0, "kill not enabled");
        assert_eq!(campaign.faults.corrupt_rate, 0.0, "corrupt not enabled");
        // `all` expands to every kind.
        let all = campaign_config(&parse_faults_args(&args("--kind all")).expect("valid"));
        assert!(all.faults.stall_rate > 0.0 && all.faults.corrupt_rate > 0.0);
    }

    #[test]
    fn faults_smoke_campaign_runs_clean() {
        run_faults(&FaultsConfig {
            protocols: vec!["moesi".to_string()],
            steps: 200,
            rate: 0.2,
            ..FaultsConfig::default()
        })
        .expect("short campaign degrades gracefully");
        let err = run_faults(&FaultsConfig {
            protocols: vec!["mesif".to_string()],
            ..FaultsConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn faults_hierarchy_options_parse() {
        let cfg = parse_faults_args(&args(
            "--hierarchy --clusters 3 --cpus 2 --steps 300 --json --out /tmp/h.json \
             --kind glitch,bridge-kill,stale-tag",
        ))
        .expect("valid");
        assert!(cfg.hierarchy && cfg.json);
        assert_eq!((cfg.clusters, cfg.cpus, cfg.steps), (3, 2, 300));
        assert_eq!(cfg.out, "/tmp/h.json");
        assert_eq!(
            cfg.kinds,
            vec![
                FaultKind::Glitch,
                FaultKind::BridgeKill,
                FaultKind::StaleTag
            ]
        );
        // The bridge spellings enable the same underlying rates.
        let faults = fault_rates(&cfg);
        assert!(faults.kill_rate > 0.0 && faults.stale_tag_rate > 0.0);
        assert_eq!(faults.stall_rate, 0.0);
        assert!(
            parse_faults_args(&args("--hierarchy --trace-out /tmp/t.json"))
                .unwrap_err()
                .contains("flat run")
        );
    }

    #[test]
    fn faults_depth_and_fanout_parse_and_require_hierarchy() {
        let cfg = parse_faults_args(&args("--hierarchy --depth 3 --fanout 4")).expect("valid");
        assert_eq!((cfg.depth, cfg.fanout), (3, 4));
        let tree = campaign_config(&cfg).tree.expect("a tree campaign");
        assert_eq!((tree.depth, tree.fanout), (3, 4));
        let defaults = parse_faults_args(&args("--hierarchy")).expect("valid");
        assert_eq!((defaults.depth, defaults.fanout), (2, 2));
        assert!(parse_faults_args(&args("--depth 3"))
            .unwrap_err()
            .contains("add --hierarchy"));
        assert!(parse_faults_args(&args("--fanout 2"))
            .unwrap_err()
            .contains("add --hierarchy"));
        assert!(parse_faults_args(&args("--hierarchy --depth 1"))
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse_faults_args(&args("--hierarchy --fanout 0"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn faults_deep_hierarchy_smoke_runs_clean() {
        run_faults(&FaultsConfig {
            protocols: vec!["moesi".to_string()],
            hierarchy: true,
            depth: 3,
            fanout: 2,
            cpus: 2,
            steps: 250,
            lines: 48,
            rate: 0.3,
            ..FaultsConfig::default()
        })
        .expect("deep-tree campaign degrades gracefully");
    }

    #[test]
    fn faults_hierarchy_smoke_writes_json_and_passes_the_probe() {
        let out = std::env::temp_dir().join("moesi_sim_faults_hier_smoke.json");
        run_faults(&FaultsConfig {
            protocols: vec!["moesi".to_string()],
            hierarchy: true,
            cpus: 2,
            steps: 250,
            lines: 48,
            rate: 0.3,
            json: true,
            out: out.to_string_lossy().into_owned(),
            ..FaultsConfig::default()
        })
        .expect("hierarchy campaign degrades gracefully");
        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"campaign\": \"hierarchy\""), "{json}");
        assert!(json.contains("\"recovery_demonstrated\": true"), "{json}");
        assert!(json.contains("\"salvaged_lines\": "), "{json}");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn bad_cache_geometry_is_a_usage_error() {
        for (flags, reason) in [
            ("--cache-bytes 100", "power of two"),
            ("--line-size 12", "power of two"),
            ("--line-size 2", "at least 4"),
        ] {
            let err = parse_faults_args(&args(flags)).unwrap_err();
            assert!(err.contains(reason), "{flags}: {err}");
        }
    }
}
