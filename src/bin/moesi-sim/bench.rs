//! The `bench` subcommand: the protocol x workload benchmark sweep.

use crate::chrome::write_chrome_trace;
use futurebus::Discipline;
use moesi_futurebus::cli::{
    check_cache_geometry, check_workload_fit, parse_count_list, CommonOpts,
};

pub(crate) const BENCH_USAGE: &str = "\
moesi-sim bench: run the protocol x workload benchmark sweep

Runs one homogeneous machine per (protocol, workload) cell under the
contention-aware timed model and reports simulated throughput (accesses per
simulated second), bus occupancy and miss ratios. Cells shard across a
worker pool; the output is byte-identical for any --jobs value.

With --hierarchy the sweep becomes the fabric-tree saturation study: one
uniform tree per (protocol, clusters, depth, fanout, discipline) cell, all
leaves driving the Dubois-&-Briggs sharing workload, reporting root-bus
pressure, per-phase latency percentiles and the bridges' snoop-filter
ledger. Grid axes take comma lists; the fan-out axis collapses at depth 2.

USAGE:
    moesi-sim bench [OPTIONS]

OPTIONS:
    --protocol LIST   comma-separated protocols, one machine per entry
                      [default: the full compared set]
    --workload LIST   comma-separated workloads [default: all six]
    --cpus N          processors per machine [default: 4]
    --steps N         references per processor [default: 2000]
    --cache-bytes N   per-node cache capacity [default: 4096]
    --seed N          workload seed [default: 7]
    --shards LIST     split every cell's reference stream over fixed address
                      regions and run the regions on a worker pool. A single
                      count (`--shards 4`) runs the sharded sweep on that
                      many workers; a comma list (`--shards 1,2,4,8`) runs a
                      scaling sweep, one row per count, with modelled and
                      measured host-speedup columns. The partition is
                      fixed, so the simulated rows are byte-identical for
                      every count [default: off]
    --jobs N          worker threads sharding the cells of an unsharded
                      sweep [default: available cores]
    --json            also write the rows as JSON to --out
    --out PATH        JSON output path [default: BENCH_protocols.json, or
                      BENCH_shards.json for a scaling sweep]
    --trace-out FILE  also write a Chrome trace (chrome://tracing JSON) of
                      one exemplar run of the first benched protocol; the
                      file is identical for any --jobs value
    --help            print this help

HIERARCHY OPTIONS (require --hierarchy; incompatible with --workload,
--shards and --trace-out):
    --hierarchy       run the fabric-tree saturation study instead of the
                      flat sweep [default protocols: moesi, dragon,
                      berkeley, write-through]
    --clusters LIST   root-level cluster counts to sweep [default: 4]
    --depth LIST      tree depths (bus levels) to sweep [default: 2,3]
    --fanout LIST     interior fan-outs to sweep [default: 4]
    --discipline LIST arbitration disciplines (priority, round-robin, fcfs)
                      [default: all three]
";

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct BenchCliConfig {
    pub(crate) protocols: Option<Vec<String>>,
    pub(crate) workloads: Option<Vec<String>>,
    /// `None` = the mode's own default (the flat sweep and the saturation
    /// study size their baselines differently).
    pub(crate) cpus: Option<usize>,
    pub(crate) steps: Option<u64>,
    pub(crate) cache_bytes: Option<usize>,
    pub(crate) seed: u64,
    /// Shard worker counts: empty = unsharded, one entry = sharded sweep,
    /// several = scaling sweep over the counts.
    pub(crate) shards: Vec<usize>,
    pub(crate) jobs: usize,
    pub(crate) json: bool,
    pub(crate) out: Option<String>,
    pub(crate) trace_out: Option<String>,
    /// `--hierarchy`: run the fabric-tree saturation study.
    pub(crate) hierarchy: bool,
    pub(crate) clusters: Option<Vec<usize>>,
    pub(crate) depths: Option<Vec<usize>>,
    pub(crate) fanouts: Option<Vec<usize>>,
    pub(crate) disciplines: Option<Vec<Discipline>>,
}

impl Default for BenchCliConfig {
    fn default() -> Self {
        let base = bench::sweep::SweepConfig::default();
        BenchCliConfig {
            protocols: None,
            workloads: None,
            cpus: None,
            steps: None,
            cache_bytes: None,
            seed: base.seed,
            shards: Vec::new(),
            jobs: base.jobs,
            json: false,
            out: None,
            trace_out: None,
            hierarchy: false,
            clusters: None,
            depths: None,
            fanouts: None,
            disciplines: None,
        }
    }
}

impl BenchCliConfig {
    /// True when `--shards` named more than one worker count.
    pub(crate) fn is_scaling(&self) -> bool {
        self.shards.len() > 1
    }

    /// The JSON output path, defaulting per mode.
    pub(crate) fn out_path(&self) -> &str {
        self.out.as_deref().unwrap_or(if self.hierarchy {
            "BENCH_hierarchy.json"
        } else if self.is_scaling() {
            "BENCH_shards.json"
        } else {
            "BENCH_protocols.json"
        })
    }
}

pub(crate) fn parse_bench_args(args: &[String]) -> Result<BenchCliConfig, String> {
    let mut cfg = BenchCliConfig::default();
    let mut common = CommonOpts::default();
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
        let list = |name: &str, v: &str| -> Result<Vec<String>, String> {
            let items: Vec<String> = v
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if items.is_empty() {
                return Err(format!("{name} list is empty"));
            }
            Ok(items)
        };
        match arg.as_str() {
            "--protocol" => cfg.protocols = Some(list("--protocol", value("--protocol")?)?),
            "--workload" => cfg.workloads = Some(list("--workload", value("--workload")?)?),
            "--cpus" => cfg.cpus = Some(number("--cpus", value("--cpus")?)? as usize),
            "--steps" => cfg.steps = Some(number("--steps", value("--steps")?)?),
            "--cache-bytes" => {
                let bytes = number("--cache-bytes", value("--cache-bytes")?)? as usize;
                check_cache_geometry(bytes, bench::LINE)?;
                cfg.cache_bytes = Some(bytes);
            }
            "--shards" => cfg.shards = parse_count_list("--shards", value("--shards")?)?,
            "--hierarchy" => cfg.hierarchy = true,
            "--clusters" => {
                cfg.clusters = Some(parse_count_list("--clusters", value("--clusters")?)?);
            }
            "--depth" => cfg.depths = Some(parse_count_list("--depth", value("--depth")?)?),
            "--fanout" => cfg.fanouts = Some(parse_count_list("--fanout", value("--fanout")?)?),
            "--discipline" => {
                let mut ds = Vec::new();
                for item in value("--discipline")?.split(',') {
                    let item = item.trim();
                    if item.is_empty() {
                        return Err("--discipline has an empty entry (stray comma?)".into());
                    }
                    let d: Discipline = item.parse().map_err(|e| format!("--discipline: {e}"))?;
                    if ds.contains(&d) {
                        return Err(format!("--discipline repeats `{d}`"));
                    }
                    ds.push(d);
                }
                cfg.disciplines = Some(ds);
            }
            "--json" => cfg.json = true,
            "--out" => cfg.out = Some(value("--out")?.clone()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if let Some(seed) = common.seed {
        cfg.seed = seed;
    }
    if let Some(jobs) = common.jobs {
        cfg.jobs = jobs;
    }
    cfg.trace_out = common.trace_out;
    if !cfg.hierarchy
        && (cfg.clusters.is_some()
            || cfg.depths.is_some()
            || cfg.fanouts.is_some()
            || cfg.disciplines.is_some())
    {
        return Err(
            "--clusters/--depth/--fanout/--discipline shape the saturation study; \
             add --hierarchy"
                .into(),
        );
    }
    if cfg.hierarchy {
        if cfg.workloads.is_some() {
            return Err("--hierarchy runs the sharing workload; drop --workload".into());
        }
        if !cfg.shards.is_empty() {
            return Err("--hierarchy cells are whole machines; use --jobs, not --shards".into());
        }
        if cfg.trace_out.is_some() {
            return Err("--trace-out traces the flat sweep; drop it with --hierarchy".into());
        }
    } else {
        let sweep = sweep_config(&cfg);
        for workload in &sweep.workloads {
            check_workload_fit(workload, sweep.cpus, bench::LINE)?;
        }
    }
    Ok(cfg)
}

fn sweep_config(cfg: &BenchCliConfig) -> bench::sweep::SweepConfig {
    let base = bench::sweep::SweepConfig::default();
    bench::sweep::SweepConfig {
        protocols: cfg.protocols.clone().unwrap_or(base.protocols),
        workloads: cfg.workloads.clone().unwrap_or(base.workloads),
        cpus: cfg.cpus.unwrap_or(base.cpus),
        steps: cfg.steps.unwrap_or(base.steps),
        cache_bytes: cfg.cache_bytes.unwrap_or(base.cache_bytes),
        seed: cfg.seed,
        shards: cfg.shards.first().copied().unwrap_or(0),
        jobs: cfg.jobs,
        timing: base.timing,
    }
}

fn hierarchy_config(cfg: &BenchCliConfig) -> bench::hierarchy::HierarchyBenchConfig {
    let base = bench::hierarchy::HierarchyBenchConfig::default();
    bench::hierarchy::HierarchyBenchConfig {
        protocols: cfg.protocols.clone().unwrap_or(base.protocols),
        clusters: cfg.clusters.clone().unwrap_or(base.clusters),
        depths: cfg.depths.clone().unwrap_or(base.depths),
        fanouts: cfg.fanouts.clone().unwrap_or(base.fanouts),
        disciplines: cfg.disciplines.clone().unwrap_or(base.disciplines),
        cpus: cfg.cpus.unwrap_or(base.cpus),
        steps: cfg.steps.unwrap_or(base.steps),
        cache_bytes: cfg.cache_bytes.unwrap_or(base.cache_bytes),
        seed: cfg.seed,
        jobs: cfg.jobs,
    }
}

fn run_hierarchy_bench(cfg: &BenchCliConfig) -> Result<(), String> {
    let hier_cfg = hierarchy_config(cfg);
    let rows = bench::hierarchy::hierarchy_sweep(&hier_cfg)?;
    out!("{}", bench::hierarchy::render_hierarchy(&rows));
    let total: u64 = rows.iter().map(|r| r.accesses).sum();
    let peak = rows.iter().map(|r| r.caches).max().unwrap_or(0);
    outln!(
        "\ntotal {total} accesses across {} cells (peak machine {peak} caches, jobs={})",
        rows.len(),
        hier_cfg.jobs,
    );
    if cfg.json {
        let json = bench::hierarchy::hierarchy_json(&hier_cfg, &rows);
        let out = cfg.out_path();
        std::fs::write(out, json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        outln!("wrote {out}");
    }
    Ok(())
}

pub(crate) fn run_bench(cfg: &BenchCliConfig) -> Result<(), String> {
    if cfg.hierarchy {
        return run_hierarchy_bench(cfg);
    }
    let sweep_cfg = sweep_config(cfg);
    if cfg.is_scaling() {
        let (rows, scaling) = bench::sweep::shard_scaling(&sweep_cfg, &cfg.shards)?;
        out!("{}", bench::sweep::render_sweep(&rows));
        outln!();
        out!("{}", bench::sweep::render_scaling(&scaling));
        if cfg.json {
            let json = bench::sweep::scaling_json(&sweep_cfg, &scaling);
            let out = cfg.out_path();
            std::fs::write(out, json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
            outln!("wrote {out}");
        }
    } else {
        let rows = bench::sweep::sweep(&sweep_cfg)?;
        out!("{}", bench::sweep::render_sweep(&rows));
        let total: u64 = rows.iter().map(|r| r.accesses).sum();
        outln!(
            "\ntotal {total} accesses across {} cells ({} protocols x {} workloads, jobs={})",
            rows.len(),
            sweep_cfg.protocols.len(),
            sweep_cfg.workloads.len(),
            sweep_cfg.jobs,
        );
        if cfg.json {
            let json = bench::sweep::sweep_json(&sweep_cfg, &rows);
            let out = cfg.out_path();
            std::fs::write(out, json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
            outln!("wrote {out}");
        }
    }
    if let Some(path) = &cfg.trace_out {
        write_chrome_trace(
            path,
            &mpsim::TraceRunConfig {
                protocol: sweep_cfg.protocols[0].clone(),
                cpus: sweep_cfg.cpus,
                line_size: bench::LINE,
                cache_bytes: sweep_cfg.cache_bytes,
                steps: sweep_cfg.steps,
                seed: sweep_cfg.seed,
                ..mpsim::TraceRunConfig::default()
            },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::args;

    #[test]
    fn false_sharing_beyond_one_word_per_cpu_is_a_usage_error() {
        // The default workload list includes false-sharing.
        for flags in ["--workload false-sharing --cpus 9", "--cpus 9"] {
            let err = parse_bench_args(&args(flags)).unwrap_err();
            assert!(err.contains("do not fit"), "{flags}: {err}");
        }
        for flags in [
            "--workload false-sharing --cpus 8",
            "--workload general,ping-pong --cpus 9",
            "--hierarchy --cpus 9",
        ] {
            parse_bench_args(&args(flags)).unwrap_or_else(|e| panic!("{flags}: {e}"));
        }
    }

    #[test]
    fn bench_defaults_and_full_option_set_parse() {
        assert_eq!(
            parse_bench_args(&[]).expect("empty"),
            BenchCliConfig::default()
        );
        let cfg = parse_bench_args(&args(
            "--protocol moesi,dragon --workload general,ping-pong --cpus 2 \
             --steps 100 --cache-bytes 2048 --seed 3 --jobs 2 --json --out /tmp/b.json \
             --trace-out /tmp/b-trace.json",
        ))
        .expect("valid");
        assert_eq!(cfg.protocols, Some(vec!["moesi".into(), "dragon".into()]));
        assert_eq!(
            cfg.workloads,
            Some(vec!["general".into(), "ping-pong".into()])
        );
        assert_eq!(
            (cfg.cpus, cfg.steps, cfg.cache_bytes),
            (Some(2), Some(100), Some(2048))
        );
        assert_eq!((cfg.seed, cfg.jobs), (3, 2));
        assert!(cfg.json);
        assert_eq!(cfg.out_path(), "/tmp/b.json");
        assert_eq!(cfg.trace_out.as_deref(), Some("/tmp/b-trace.json"));
        assert!(parse_bench_args(&args("--help")).unwrap_err().is_empty());
        assert!(parse_bench_args(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_bench_args(&args("--jobs 0"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn shard_flags_parse_and_pick_the_mode() {
        let cfg = parse_bench_args(&[]).expect("empty");
        assert!(cfg.shards.is_empty(), "sharding stays off unless asked for");
        assert!(!cfg.is_scaling());
        assert_eq!(cfg.out_path(), "BENCH_protocols.json");

        let cfg = parse_bench_args(&args("--shards 3")).expect("valid");
        assert_eq!(cfg.shards, vec![3]);
        assert!(!cfg.is_scaling());

        let cfg = parse_bench_args(&args("--shards 1,2,4,8")).expect("valid");
        assert_eq!(cfg.shards, vec![1, 2, 4, 8]);
        assert!(cfg.is_scaling());
        assert_eq!(cfg.out_path(), "BENCH_shards.json");

        assert!(parse_bench_args(&args("--shards 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_bench_args(&args("--shards 1,0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_bench_args(&args("--shards four"))
            .unwrap_err()
            .contains("expects a number"));
        assert!(parse_bench_args(&args("--shards 1,2,2"))
            .unwrap_err()
            .contains("repeats `2`"));
        assert!(parse_bench_args(&args("--shards 1,,2"))
            .unwrap_err()
            .contains("empty entry"));
    }

    #[test]
    fn hierarchy_flags_parse_and_guard_their_mode() {
        let cfg = parse_bench_args(&args(
            "--hierarchy --clusters 2,4 --depth 2,3 --fanout 2 \
             --discipline priority,fcfs --cpus 2 --steps 60",
        ))
        .expect("valid");
        assert!(cfg.hierarchy);
        assert_eq!(cfg.clusters, Some(vec![2, 4]));
        assert_eq!(cfg.depths, Some(vec![2, 3]));
        assert_eq!(cfg.fanouts, Some(vec![2]));
        assert_eq!(
            cfg.disciplines,
            Some(vec![Discipline::Priority, Discipline::Fcfs])
        );
        assert_eq!(cfg.out_path(), "BENCH_hierarchy.json");

        // Hierarchy flags demand the mode, and the mode rejects flat-sweep
        // flags that have no meaning on a tree.
        assert!(parse_bench_args(&args("--depth 3"))
            .unwrap_err()
            .contains("add --hierarchy"));
        assert!(parse_bench_args(&args("--hierarchy --workload general"))
            .unwrap_err()
            .contains("drop --workload"));
        assert!(parse_bench_args(&args("--hierarchy --shards 2"))
            .unwrap_err()
            .contains("not --shards"));
        assert!(
            parse_bench_args(&args("--hierarchy --trace-out /tmp/t.json"))
                .unwrap_err()
                .contains("drop it with --hierarchy")
        );
        // The hardened list parser screens every grid axis.
        assert!(parse_bench_args(&args("--hierarchy --depth 3,3"))
            .unwrap_err()
            .contains("repeats `3`"));
        assert!(parse_bench_args(&args("--hierarchy --clusters 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_bench_args(&args("--hierarchy --fanout 2,"))
            .unwrap_err()
            .contains("empty entry"));
        assert!(
            parse_bench_args(&args("--hierarchy --discipline priority,priority"))
                .unwrap_err()
                .contains("repeats `priority`")
        );
        assert!(parse_bench_args(&args("--hierarchy --discipline lottery"))
            .unwrap_err()
            .contains("unknown discipline"));
    }

    #[test]
    fn hierarchy_smoke_run_writes_json() {
        let out = std::env::temp_dir().join("moesi_sim_bench_hierarchy_smoke.json");
        let cfg = parse_bench_args(&args(
            "--hierarchy --protocol moesi --clusters 2 --depth 3 --fanout 2 \
             --discipline priority --cpus 2 --steps 40 --jobs 2 --json",
        ))
        .expect("valid");
        let cfg = BenchCliConfig {
            out: Some(out.to_string_lossy().into_owned()),
            ..cfg
        };
        run_bench(&cfg).expect("hierarchy smoke succeeds");
        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"depth\": 3"), "{json}");
        assert!(json.contains("\"discipline\": \"priority\""), "{json}");
        assert!(json.contains("\"suppressed\": "), "{json}");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn bench_smoke_run_writes_json() {
        let out = std::env::temp_dir().join("moesi_sim_bench_smoke.json");
        let trace_out = std::env::temp_dir().join("moesi_sim_bench_smoke_trace.json");
        let cfg = BenchCliConfig {
            protocols: Some(vec!["moesi".into()]),
            workloads: Some(vec!["ping-pong".into()]),
            cpus: Some(2),
            steps: Some(50),
            json: true,
            out: Some(out.to_string_lossy().into_owned()),
            trace_out: Some(trace_out.to_string_lossy().into_owned()),
            ..BenchCliConfig::default()
        };
        run_bench(&cfg).expect("bench smoke succeeds");
        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"protocol\": \"moesi\""), "{json}");
        assert!(json.contains("\"phase_p50_ns\": ["), "{json}");
        assert!(json.contains("\"host\": {\"wall_ns\": "), "{json}");
        let trace = std::fs::read_to_string(&trace_out).expect("trace written");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("\"ph\": \"X\""), "{trace}");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&trace_out);
        // Unknown names are reported.
        let err = run_bench(&BenchCliConfig {
            protocols: Some(vec!["mesif".into()]),
            json: false,
            ..cfg
        })
        .unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn scaling_smoke_run_writes_speedup_json() {
        let out = std::env::temp_dir().join("moesi_sim_bench_scaling_smoke.json");
        let cfg = BenchCliConfig {
            protocols: Some(vec!["moesi".into()]),
            workloads: Some(vec!["ping-pong".into()]),
            cpus: Some(2),
            steps: Some(50),
            shards: vec![1, 2],
            json: true,
            out: Some(out.to_string_lossy().into_owned()),
            ..BenchCliConfig::default()
        };
        run_bench(&cfg).expect("scaling smoke succeeds");
        let json = std::fs::read_to_string(&out).expect("json written");
        assert!(json.contains("\"shard_regions\": 4"), "{json}");
        assert!(json.contains("\"shards\": 1"), "{json}");
        assert!(json.contains("\"shards\": 2"), "{json}");
        assert!(json.contains("\"modelled_speedup\": "), "{json}");
        assert!(json.contains("\"measured_speedup\": "), "{json}");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn bad_cache_geometry_is_a_usage_error() {
        for flags in ["--cache-bytes 100", "--hierarchy --cache-bytes 100"] {
            let err = parse_bench_args(&args(flags)).unwrap_err();
            assert!(err.contains("power of two"), "{flags}: {err}");
        }
    }
}
