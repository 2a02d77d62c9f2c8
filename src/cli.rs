//! Shared command-line plumbing for the `moesi-sim` subcommands.
//!
//! The `verify`, `faults`, `bench` and `table` subcommands all accept the
//! same trio of flags — `--seed`, `--jobs`, `--trace-out` — with identical
//! syntax, validation and error wording. [`CommonOpts`] parses them in one
//! place; each subcommand keeps its own loop for the flags only it
//! understands.

use cache_array::{CacheConfig, ReplacementKind};
use mpsim::FalseSharing;

/// Parses a comma-separated list of positive counts (the `--shards`,
/// `--clusters`, `--depth` and `--fanout` flags). Rejects — with a named,
/// structured error rather than silently repairing — empty lists, empty
/// entries (stray commas), zeroes, non-numbers, and duplicates; a duplicate
/// count would silently run the same cell twice and skew any sweep built on
/// the list.
pub fn parse_count_list(name: &str, v: &str) -> Result<Vec<usize>, String> {
    if v.trim().is_empty() {
        return Err(format!("{name} list is empty"));
    }
    let mut out = Vec::new();
    for item in v.split(',') {
        let item = item.trim();
        if item.is_empty() {
            return Err(format!("{name} has an empty entry (stray comma?)"));
        }
        let n: usize = item
            .parse()
            .map_err(|_| format!("{name} expects a number, got `{item}`"))?;
        if n == 0 {
            return Err(format!("{name} must be at least 1"));
        }
        if out.contains(&n) {
            return Err(format!("{name} repeats `{n}`"));
        }
        out.push(n);
    }
    Ok(out)
}

/// Checks the per-node cache every subcommand builds — `cache_bytes` of
/// `line_size`-byte lines, 2-way LRU — so an inconsistent geometry is a
/// usage error at parse time instead of a panic inside the run. Lines must
/// also hold the workloads' 4-byte word.
pub fn check_cache_geometry(cache_bytes: usize, line_size: usize) -> Result<(), String> {
    if line_size < 4 {
        return Err("--line-size must be at least 4".to_string());
    }
    CacheConfig::try_new(cache_bytes, line_size, 2, ReplacementKind::Lru)
        .map(drop)
        .map_err(|reason| {
            format!("bad cache geometry ({cache_bytes}B, {line_size}B lines): {reason}")
        })
}

/// Checks that the named workload can drive `cpus` processors on
/// `line_size`-byte lines, so a workload that cannot be built is a usage
/// error at parse time instead of a panic inside the run. Only
/// `false-sharing` has a limit: each processor owns its own 4-byte word of
/// one shared line.
pub fn check_workload_fit(workload: &str, cpus: usize, line_size: usize) -> Result<(), String> {
    let fit = FalseSharing::max_cpus(line_size as u64);
    if workload == "false-sharing" && cpus > fit {
        return Err(format!(
            "the false-sharing workload gives each CPU a 4-byte word of one \
             {line_size}-byte line: {cpus} CPUs do not fit (at most {fit})"
        ));
    }
    Ok(())
}

/// The flags shared across `moesi-sim` subcommands, each `None` until seen.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommonOpts {
    /// `--seed N`: the RNG seed.
    pub seed: Option<u64>,
    /// `--jobs N`: worker threads; validated to be at least 1.
    pub jobs: Option<usize>,
    /// `--trace-out FILE`: Chrome-trace output path.
    pub trace_out: Option<String>,
}

impl CommonOpts {
    /// Tries to consume `arg` as one of the shared flags, pulling its value
    /// from `rest`. Returns `Ok(true)` when consumed and `Ok(false)` when
    /// the flag is not a shared one (the caller's own match handles it).
    pub fn try_consume<'a, I>(&mut self, arg: &str, rest: &mut I) -> Result<bool, String>
    where
        I: Iterator<Item = &'a String>,
    {
        let mut value = |name: &str| -> Result<&'a String, String> {
            rest.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--seed" => {
                self.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects a number".to_string())?,
                );
            }
            "--jobs" => {
                let jobs: usize = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects a number".to_string())?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                self.jobs = Some(jobs);
            }
            "--trace-out" => self.trace_out = Some(value("--trace-out")?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonOpts, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let mut opts = CommonOpts::default();
        let mut it = owned.iter();
        while let Some(arg) = it.next() {
            if !opts.try_consume(arg, &mut it)? {
                return Err(format!("unknown option `{arg}`"));
            }
        }
        Ok(opts)
    }

    #[test]
    fn all_three_flags_parse() {
        let opts = parse(&["--seed", "9", "--jobs", "3", "--trace-out", "/tmp/t.json"]).unwrap();
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.jobs, Some(3));
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/t.json"));
    }

    #[test]
    fn unshared_flags_are_left_to_the_caller() {
        assert!(parse(&["--protocol"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn count_lists_parse_and_reject_malformed_input() {
        assert_eq!(parse_count_list("--shards", "1,2,4"), Ok(vec![1, 2, 4]));
        assert_eq!(parse_count_list("--depth", " 3 , 2 "), Ok(vec![3, 2]));
        assert_eq!(parse_count_list("--fanout", "8"), Ok(vec![8]));

        let err = |v: &str| parse_count_list("--clusters", v).unwrap_err();
        assert!(err("").contains("list is empty"));
        assert!(err("   ").contains("list is empty"));
        assert!(err("1,,2").contains("empty entry"));
        assert!(err("1,2,").contains("empty entry"));
        assert!(err("1,0").contains("at least 1"));
        assert!(err("two").contains("expects a number, got `two`"));
        assert!(err("4,2,4").contains("repeats `4`"));
        assert!(err("x").starts_with("--clusters"), "errors name the flag");
    }

    #[test]
    fn validation_matches_the_subcommands() {
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--jobs", "x"])
            .unwrap_err()
            .contains("expects a number"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
    }
}
