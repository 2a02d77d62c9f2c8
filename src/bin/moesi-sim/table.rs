//! The `table` subcommand: print protocol policy tables (Tables 3-7).

use moesi_futurebus::cli::CommonOpts;

pub(crate) const TABLE_USAGE: &str = "\
moesi-sim table: print protocol policy tables (the paper's Tables 3-7)

Renders the chosen action per (state, event) cell straight from each
protocol's PolicyTable — the same data the engine interprets — with `-` for
error-condition cells, plus the structural class-membership verdict.

USAGE:
    moesi-sim table [OPTIONS]

OPTIONS:
    --protocol LIST   comma-separated protocols to render
                      [default: berkeley,dragon,write-once,illinois,firefly]
    --seed N          seed for seeded protocols such as random [default: 42]
    --help            print this help
";

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TableConfig {
    pub(crate) protocols: Vec<String>,
    pub(crate) seed: u64,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            // The paper's protocol examples, in table order (Tables 3-7).
            protocols: ["berkeley", "dragon", "write-once", "illinois", "firefly"]
                .map(str::to_string)
                .to_vec(),
            seed: 42,
        }
    }
}

pub(crate) fn parse_table_args(args: &[String]) -> Result<TableConfig, String> {
    let mut cfg = TableConfig::default();
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
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if common.jobs.is_some() || common.trace_out.is_some() {
        return Err("`table` accepts only --protocol and --seed".to_string());
    }
    if let Some(seed) = common.seed {
        cfg.seed = seed;
    }
    Ok(cfg)
}

pub(crate) fn run_table(cfg: &TableConfig) -> Result<(), String> {
    for name in &cfg.protocols {
        println!("{}", bench::render_policy(name, cfg.seed)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::args;

    #[test]
    fn table_args_parse_and_render() {
        assert_eq!(
            parse_table_args(&[]).expect("empty"),
            TableConfig::default()
        );
        let cfg = parse_table_args(&args("--protocol hybrid,moesi --seed 9")).expect("valid");
        assert_eq!(cfg.protocols, vec!["hybrid", "moesi"]);
        assert_eq!(cfg.seed, 9);
        assert!(parse_table_args(&args("--help")).unwrap_err().is_empty());
        assert!(parse_table_args(&args("--jobs 2"))
            .unwrap_err()
            .contains("only --protocol and --seed"));
        run_table(&TableConfig::default()).expect("default tables render");
        run_table(&cfg).expect("hybrid and moesi tables render");
        let err = run_table(&TableConfig {
            protocols: vec!["mesif".to_string()],
            seed: 0,
        })
        .unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }
}
