//! The `synth` subcommand: search the compatibility class for
//! workload-tuned policy tables.

use moesi_futurebus::cli::{check_cache_geometry, check_workload_fit, CommonOpts};

pub(crate) const SYNTH_USAGE: &str = "\
moesi-sim synth: search the compatibility class for workload-tuned tables

Hill-climbs over the permitted sets per (state, event) cell of the class,
one search per workload: the starting pool is every shipped exact-table
copy-back class member, candidate fitness is timed-model throughput on the
target workload, and each winner is audited structurally, by bounded
exhaustive exploration against a MOESI peer, and by a fault-injection
campaign that must report zero silent corruption. Candidate evaluations
shard across a worker pool; all output is byte-identical for any --jobs
value.

USAGE:
    moesi-sim synth [OPTIONS]

OPTIONS:
    --workload LIST   comma-separated workloads to synthesize for
                      [default: all six]
    --cpus N          processors per fitness machine [default: 4]
    --steps N         references per processor per evaluation [default: 2000]
    --cache-bytes N   per-node cache capacity [default: 2048]
    --rounds N        maximum improving hill-climb steps per workload
                      (0 = just pick the best starting table) [default: 4]
    --campaign-steps N
                      accesses per machine in the audit fault campaign
                      [default: 2500]
    --sensitivity     also run the section 5.2 cost-ratio study: re-score
                      each winner and the pool across a 27-point grid of
                      bus/memory/cache cost scales and report where the
                      winner flips
    --seed N          workload seed for every evaluation [default: 7]
    --jobs N          worker threads sharding evaluations [default:
                      available cores]
    --shards N        run every fitness evaluation as a sharded sweep
                      (fixed address regions on N workers); the search is
                      byte-identical for any N [default: off]
    --out PATH        write the winners as a parseable policy-table document
    --json-out PATH   write the full report as JSON
    --help            print this help
";

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SynthCliConfig {
    pub(crate) workloads: Option<Vec<String>>,
    pub(crate) cpus: usize,
    pub(crate) steps: u64,
    pub(crate) cache_bytes: usize,
    pub(crate) rounds: usize,
    pub(crate) campaign_steps: u64,
    pub(crate) sensitivity: bool,
    pub(crate) seed: u64,
    pub(crate) jobs: usize,
    pub(crate) shards: usize,
    pub(crate) out: Option<String>,
    pub(crate) json_out: Option<String>,
}

impl Default for SynthCliConfig {
    fn default() -> Self {
        let base = synth::SynthConfig::default();
        SynthCliConfig {
            workloads: None,
            cpus: base.cpus,
            steps: base.steps,
            cache_bytes: base.cache_bytes,
            rounds: base.rounds,
            campaign_steps: base.campaign_steps,
            sensitivity: false,
            seed: base.seed,
            jobs: base.jobs,
            shards: base.shards,
            out: None,
            json_out: None,
        }
    }
}

pub(crate) fn parse_synth_args(args: &[String]) -> Result<SynthCliConfig, String> {
    let mut cfg = SynthCliConfig::default();
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
        match arg.as_str() {
            "--workload" => {
                let items: Vec<String> = value("--workload")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if items.is_empty() {
                    return Err("--workload list is empty".to_string());
                }
                cfg.workloads = Some(items);
            }
            "--cpus" => cfg.cpus = number("--cpus", value("--cpus")?)? as usize,
            "--steps" => cfg.steps = number("--steps", value("--steps")?)?,
            "--cache-bytes" => {
                cfg.cache_bytes = number("--cache-bytes", value("--cache-bytes")?)? as usize;
                check_cache_geometry(cfg.cache_bytes, bench::LINE)?;
            }
            "--rounds" => {
                // 0 is meaningful: no climbing, just pick the best start.
                cfg.rounds = value("--rounds")?
                    .parse()
                    .map_err(|_| "--rounds expects a number".to_string())?;
            }
            "--campaign-steps" => {
                cfg.campaign_steps = number("--campaign-steps", value("--campaign-steps")?)?;
            }
            "--shards" => cfg.shards = number("--shards", value("--shards")?)? as usize,
            "--sensitivity" => cfg.sensitivity = true,
            "--out" => cfg.out = Some(value("--out")?.clone()),
            "--json-out" => cfg.json_out = Some(value("--json-out")?.clone()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if common.trace_out.is_some() {
        return Err("--trace-out is not supported by synth".to_string());
    }
    if let Some(seed) = common.seed {
        cfg.seed = seed;
    }
    if let Some(jobs) = common.jobs {
        cfg.jobs = jobs;
    }
    for workload in &synth_config(&cfg).workloads {
        check_workload_fit(workload, cfg.cpus, bench::LINE)?;
    }
    Ok(cfg)
}

fn synth_config(cfg: &SynthCliConfig) -> synth::SynthConfig {
    let base = synth::SynthConfig::default();
    synth::SynthConfig {
        workloads: cfg.workloads.clone().unwrap_or(base.workloads),
        cpus: cfg.cpus,
        steps: cfg.steps,
        cache_bytes: cfg.cache_bytes,
        rounds: cfg.rounds,
        seed: cfg.seed,
        jobs: cfg.jobs,
        shards: cfg.shards,
        timing: base.timing,
        campaign_steps: cfg.campaign_steps,
    }
}

pub(crate) fn run_synth(cfg: &SynthCliConfig) -> Result<(), String> {
    let synth_cfg = synth_config(cfg);
    let report = synth::synthesize(&synth_cfg)?;
    out!("{}", synth::render_report(&report));
    let sens = if cfg.sensitivity {
        let rows = synth::sensitivity(&synth_cfg, &report)?;
        out!("{}", synth::render_sensitivity(&rows));
        Some(rows)
    } else {
        None
    };
    if let Some(path) = &cfg.out {
        std::fs::write(path, synth::tables_document(&report))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        outln!("wrote {path}");
    }
    if let Some(path) = &cfg.json_out {
        let json = synth::report_json(&synth_cfg, &report, sens.as_deref());
        std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        outln!("wrote {path}");
    }
    if let Some(bad) = report
        .outcomes
        .iter()
        .find(|o| o.structural_violations > 0 || !o.exhaustive_clean)
    {
        return Err(format!("winner `{}` failed its audit", bad.winner.name()));
    }
    if report.faults_silent > 0 {
        return Err(format!(
            "fault campaign observed {} silent corruption(s)",
            report.faults_silent
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::args;

    #[test]
    fn synth_defaults_and_full_option_set_parse() {
        assert_eq!(
            parse_synth_args(&[]).expect("empty"),
            SynthCliConfig::default()
        );
        let cfg = parse_synth_args(&args(
            "--workload ping-pong,general --cpus 2 --steps 80 --cache-bytes 1024 \
             --rounds 0 --campaign-steps 300 --sensitivity --seed 5 --jobs 2 \
             --out /tmp/s.txt --json-out /tmp/s.json",
        ))
        .expect("valid");
        assert_eq!(
            cfg.workloads,
            Some(vec!["ping-pong".into(), "general".into()])
        );
        assert_eq!((cfg.cpus, cfg.steps, cfg.cache_bytes), (2, 80, 1024));
        assert_eq!((cfg.rounds, cfg.campaign_steps), (0, 300));
        assert!(cfg.sensitivity);
        assert_eq!((cfg.seed, cfg.jobs), (5, 2));
        assert_eq!(cfg.out.as_deref(), Some("/tmp/s.txt"));
        assert_eq!(cfg.json_out.as_deref(), Some("/tmp/s.json"));
        assert!(parse_synth_args(&args("--help")).unwrap_err().is_empty());
        assert!(parse_synth_args(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_synth_args(&args("--steps 0"))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_synth_args(&args("--trace-out /tmp/t.json"))
            .unwrap_err()
            .contains("not supported"));
        let cfg = parse_synth_args(&args("--shards 2")).expect("valid");
        assert_eq!(cfg.shards, 2);
        assert_eq!(synth_config(&cfg).shards, 2);
        assert_eq!(
            parse_synth_args(&[]).expect("empty").shards,
            0,
            "sharding stays off unless asked for"
        );
        assert!(parse_synth_args(&args("--shards 0"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn synth_smoke_run_writes_outputs() {
        let out = std::env::temp_dir().join("moesi_sim_synth_smoke.txt");
        let json_out = std::env::temp_dir().join("moesi_sim_synth_smoke.json");
        let cfg = SynthCliConfig {
            workloads: Some(vec!["ping-pong".into()]),
            cpus: 2,
            steps: 40,
            rounds: 0,
            campaign_steps: 150,
            out: Some(out.to_string_lossy().into_owned()),
            json_out: Some(json_out.to_string_lossy().into_owned()),
            ..SynthCliConfig::default()
        };
        run_synth(&cfg).expect("synth smoke succeeds");
        let doc = std::fs::read_to_string(&out).expect("tables written");
        let tables = moesi::parse_member_tables(&doc).expect("document parses in-class");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name(), "synth-ping-pong");
        let json = std::fs::read_to_string(&json_out).expect("json written");
        assert!(json.contains("\"winner\": \"synth-ping-pong\""), "{json}");
        assert!(json.contains("\"faults_silent\": 0"), "{json}");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&json_out);
        // Unknown workloads are reported.
        let err = run_synth(&SynthCliConfig {
            workloads: Some(vec!["zipfian".into()]),
            out: None,
            json_out: None,
            ..cfg
        })
        .unwrap_err();
        assert!(err.contains("zipfian"), "{err}");
    }

    #[test]
    fn bad_cache_geometry_is_a_usage_error() {
        let err = parse_synth_args(&args("--cache-bytes 100")).unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }

    #[test]
    fn false_sharing_beyond_one_word_per_cpu_is_a_usage_error() {
        // The default workload list includes false-sharing.
        for flags in ["--workload false-sharing --cpus 9", "--cpus 9"] {
            let err = parse_synth_args(&args(flags)).unwrap_err();
            assert!(err.contains("do not fit"), "{flags}: {err}");
        }
        parse_synth_args(&args("--workload general --cpus 9")).expect("general fits");
    }
}
