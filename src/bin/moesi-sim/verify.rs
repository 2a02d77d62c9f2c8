//! The `verify` subcommand: exhaustive model checking of small
//! configurations, the pairwise compatibility matrix and table mutations.

use crate::chrome::write_chrome_trace;
use moesi_futurebus::cli::CommonOpts;

pub(crate) const VERIFY_USAGE: &str = "\
moesi-sim verify: exhaustively model-check small configurations

Explores EVERY reachable global state of the simulator's own machine (real
controllers on a real Futurebus, one 1-line cache per module) where each
module branches over every permitted Table 1/2 entry (or over one concrete
protocol's choices), checking the shared-image invariants after every step.
A clean run is a proof over the modelled configuration; a violation prints
a minimal counterexample schedule that replays deterministically.

USAGE:
    moesi-sim verify [OPTIONS]

OPTIONS:
    --protocol LIST   comma-separated protocol mix, one module per entry
                      (a single name is replicated to --caches). Accepts the
                      simulator names plus full-table / full-table-wt /
                      full-table-nc (branch over the whole permitted set of
                      that client kind). [default: full-table]
    --caches N        modules for a single-name mix [default: 2]
    --lines N         lines modelled; each cache holds one, so lines
                      interact through eviction [default: 1]
    --values N        write-value domain size [default: 2]
    --max-states N    truncate after N distinct states (0 = unbounded)
    --matrix          verify every protocol pair instead, printing one row
                      per pair; exits nonzero if any result contradicts the
                      documented compatibility claims
    --mutate          corrupt the preferred copy-back table one cell at a
                      time instead, printing the structural verdict and any
                      concrete counterexample per mutation; exits nonzero if
                      a mutation passes the structural check but breaks an
                      invariant
    --table FILE      with --mutate: read the mutation base from FILE (any
                      parseable policy table, e.g. a synthesized winner)
                      instead of the preferred copy-back table
    --jobs N          worker threads sharding the --matrix pairs; the output
                      is identical for any N [default: available cores]
    --seed N          seed for the --trace-out exemplar run [default: its
                      built-in seed]
    --trace-out FILE  also write a Chrome trace (chrome://tracing JSON) of an
                      exemplar concrete run of the first named protocol
    --help            print this help
";

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct VerifyConfig {
    pub(crate) protocols: Vec<String>,
    pub(crate) caches: usize,
    pub(crate) lines: usize,
    pub(crate) values: u8,
    pub(crate) max_states: Option<usize>,
    pub(crate) matrix: bool,
    pub(crate) mutate: bool,
    pub(crate) table: Option<String>,
    pub(crate) jobs: usize,
    pub(crate) seed: Option<u64>,
    pub(crate) trace_out: Option<String>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            protocols: vec!["full-table".to_string()],
            caches: 2,
            lines: 1,
            values: 2,
            max_states: None,
            matrix: false,
            mutate: false,
            table: None,
            jobs: mpsim::default_jobs(),
            seed: None,
            trace_out: None,
        }
    }
}

pub(crate) fn parse_verify_args(args: &[String]) -> Result<VerifyConfig, String> {
    let mut cfg = VerifyConfig::default();
    let mut common = CommonOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if common.try_consume(arg, &mut it)? {
            continue;
        }
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
            "--caches" => {
                cfg.caches = value("--caches")?
                    .parse()
                    .map_err(|_| "--caches expects a number".to_string())?;
                if cfg.caches == 0 {
                    return Err("--caches must be at least 1".to_string());
                }
            }
            "--lines" => {
                cfg.lines = value("--lines")?
                    .parse()
                    .map_err(|_| "--lines expects a number".to_string())?;
                if cfg.lines == 0 {
                    return Err("--lines must be at least 1".to_string());
                }
            }
            "--values" => {
                cfg.values = value("--values")?
                    .parse()
                    .map_err(|_| "--values expects a number".to_string())?;
                if cfg.values == 0 {
                    return Err("--values must be at least 1".to_string());
                }
            }
            "--max-states" => {
                cfg.max_states = Some(
                    value("--max-states")?
                        .parse()
                        .map_err(|_| "--max-states expects a number".to_string())?,
                );
            }
            "--matrix" => cfg.matrix = true,
            "--mutate" => cfg.mutate = true,
            "--table" => cfg.table = Some(value("--table")?.clone()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if cfg.table.is_some() && !cfg.mutate {
        return Err("--table requires --mutate".to_string());
    }
    if let Some(jobs) = common.jobs {
        cfg.jobs = jobs;
    }
    cfg.seed = common.seed;
    cfg.trace_out = common.trace_out;
    Ok(cfg)
}

fn verify_shape(cfg: &VerifyConfig) -> verify::Shape {
    let mut shape = verify::Shape {
        lines: cfg.lines,
        values: cfg.values,
        ..verify::Shape::default()
    };
    if let Some(max) = cfg.max_states {
        shape.limits.max_states = max;
    }
    shape
}

fn run_verify_matrix(shape: &verify::Shape, jobs: usize) -> Result<(), String> {
    outln!(
        "pair-wise compatibility matrix: 2 modules x {} line(s) x {} values\n",
        shape.lines,
        shape.values
    );
    let mut surprises = 0usize;
    for (a, b, report) in verify::verify_matrix_jobs(&verify::MATRIX_PROTOCOLS, shape, jobs) {
        let expected_clean = verify::class_compatible(&a, &b);
        let (tag, detail) = match (&report.counterexample, expected_clean) {
            (None, true) => ("ok", format!("{} states", report.explored)),
            (Some(cx), false) => ("incompatible (expected)", cx.defect.to_string()),
            (None, false) => {
                surprises += 1;
                ("UNEXPECTEDLY CLEAN", format!("{} states", report.explored))
            }
            (Some(cx), true) => {
                surprises += 1;
                ("VIOLATION", format!("{}\n{}", cx.defect, cx.trace))
            }
        };
        outln!("{a:>20} + {b:<20} {tag:<24} {detail}");
    }
    if surprises > 0 {
        return Err(format!(
            "{surprises} pair(s) contradict the documented compatibility claims"
        ));
    }
    outln!("\nall pairs match the documented compatibility claims");
    Ok(())
}

fn run_verify_mutations(shape: &verify::Shape, table: Option<&str>) -> Result<(), String> {
    let rows = match table {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let base = moesi::parse_table(&text).map_err(|e| format!("{path}: {e}"))?;
            outln!(
                "single-cell mutations of `{}` (from {path}), next to a clean MOESI module\n",
                base.name()
            );
            verify::mutation_sweep_of(base, shape)
        }
        None => {
            outln!(
                "single-cell mutations of the preferred copy-back table, next to a clean MOESI module\n"
            );
            verify::mutation_sweep(shape)
        }
    };
    let mut missed = 0usize;
    for row in &rows {
        let structural = if row.structural {
            "rejected"
        } else {
            "in-class"
        };
        let dynamic = match &row.defect {
            Some(defect) => format!("counterexample: {defect}"),
            None => format!("clean ({} states)", row.explored),
        };
        if !row.structural && row.defect.is_some() {
            missed += 1;
        }
        outln!("{:<20} {structural:<10} {dynamic}", row.cell);
    }
    let caught = rows.iter().filter(|r| r.defect.is_some()).count();
    outln!(
        "\n{} mutations: {caught} produce concrete counterexamples; every in-class one verifies clean",
        rows.len(),
    );
    if missed > 0 {
        return Err(format!(
            "{missed} mutation(s) passed the structural check but broke an invariant"
        ));
    }
    Ok(())
}

pub(crate) fn run_verify(cfg: &VerifyConfig) -> Result<(), String> {
    if let Some(path) = &cfg.trace_out {
        // The trace shows an exemplar workload run of the first named
        // protocol (full-table mixes name no single protocol, so MOESI
        // stands in).
        let protocol = match cfg.protocols.first().map(String::as_str) {
            None | Some("full-table") | Some("full-table-wt") | Some("full-table-nc") => "moesi",
            Some(name) => name,
        };
        let mut trace_cfg = mpsim::TraceRunConfig {
            protocol: protocol.to_string(),
            ..mpsim::TraceRunConfig::default()
        };
        if let Some(seed) = cfg.seed {
            trace_cfg.seed = seed;
        }
        write_chrome_trace(path, &trace_cfg)?;
    }
    let shape = verify_shape(cfg);
    if cfg.mutate {
        return run_verify_mutations(&shape, cfg.table.as_deref());
    }
    if cfg.matrix {
        return run_verify_matrix(&shape, cfg.jobs);
    }
    let names: Vec<&str> = if cfg.protocols.len() == 1 {
        vec![cfg.protocols[0].as_str(); cfg.caches]
    } else {
        cfg.protocols.iter().map(String::as_str).collect()
    };
    outln!(
        "exhaustive exploration: [{}] x {} line(s) x {} values",
        names.join(", "),
        shape.lines,
        shape.values
    );
    let report = verify::verify_mix(&names, &shape)
        .ok_or_else(|| format!("unknown protocol in `{}`", cfg.protocols.join(",")))?;
    outln!("{report}");
    match &report.counterexample {
        None if report.truncated => Err(format!(
            "state cap hit after {} states; raise --max-states for a full proof",
            report.explored
        )),
        None => Ok(()),
        Some(cx) => {
            let step = cx.trace.steps.len() - 1;
            outln!("the concrete machine fails at step {step}: {}", cx.defect);
            Err(format!("invariant violated: {}", cx.defect))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::args;
    use moesi::protocols::by_name;

    #[test]
    fn verify_defaults_and_full_option_set_parse() {
        assert_eq!(
            parse_verify_args(&[]).expect("empty"),
            VerifyConfig::default()
        );
        let cfg = parse_verify_args(&args(
            "--protocol moesi,dragon --lines 2 --values 3 --max-states 500 \
             --trace-out /tmp/v.json",
        ))
        .expect("valid");
        assert_eq!(cfg.protocols, vec!["moesi", "dragon"]);
        assert_eq!((cfg.lines, cfg.values), (2, 3));
        assert_eq!(cfg.max_states, Some(500));
        assert_eq!(cfg.trace_out.as_deref(), Some("/tmp/v.json"));
        assert!(parse_verify_args(&args("--help")).unwrap_err().is_empty());
        assert!(parse_verify_args(&args("--bogus"))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_verify_args(&args("--values 0"))
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn verify_smoke_runs() {
        // Homogeneous per-protocol mode.
        run_verify(&VerifyConfig {
            protocols: vec!["moesi".to_string()],
            ..VerifyConfig::default()
        })
        .expect("moesi pair verifies");
        // Mixed mode with an explicit list.
        run_verify(&VerifyConfig {
            protocols: vec!["dragon".to_string(), "write-through".to_string()],
            ..VerifyConfig::default()
        })
        .expect("mixed pair verifies");
        // Unknown names are reported.
        let err = run_verify(&VerifyConfig {
            protocols: vec!["mesif".to_string()],
            ..VerifyConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("unknown protocol"));
        // A state cap that bites is an error, not a silent pass.
        let err = run_verify(&VerifyConfig {
            max_states: Some(3),
            ..VerifyConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("state cap"), "{err}");
    }

    #[test]
    fn verify_detects_the_write_once_clash() {
        let err = run_verify(&VerifyConfig {
            protocols: vec!["moesi".to_string(), "write-once".to_string()],
            ..VerifyConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("invariant violated"), "{err}");
    }

    #[test]
    fn verify_matrix_matches_the_claims() {
        run_verify(&VerifyConfig {
            matrix: true,
            ..VerifyConfig::default()
        })
        .expect("matrix matches documented compatibility");
    }

    #[test]
    fn verify_mutate_mode_runs_clean() {
        run_verify(&VerifyConfig {
            mutate: true,
            ..VerifyConfig::default()
        })
        .expect("every in-class mutation verifies clean");
    }

    #[test]
    fn verify_mutate_accepts_a_loaded_table() {
        let path = std::env::temp_dir().join("moesi_sim_verify_table_smoke.txt");
        let berkeley = by_name("berkeley", 0).unwrap();
        std::fs::write(&path, berkeley.policy_table().unwrap().render()).unwrap();
        let cfg = parse_verify_args(&args(&format!(
            "--mutate --table {}",
            path.to_string_lossy()
        )))
        .expect("valid");
        assert!(cfg.mutate);
        run_verify(&cfg).expect("Berkeley-based mutation sweep runs clean");
        let _ = std::fs::remove_file(&path);
        // --table without --mutate is a usage error, caught at parse time.
        assert!(parse_verify_args(&args("--table foo.txt"))
            .unwrap_err()
            .contains("requires --mutate"));
        // An unreadable file is a run-time error.
        let err = run_verify(&VerifyConfig {
            mutate: true,
            table: Some("/nonexistent/table.txt".to_string()),
            ..VerifyConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
